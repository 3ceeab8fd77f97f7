//! Target selection for reciprocity-abuse services.
//!
//! The reciprocity business stands or falls with *whom* the automated
//! outbound actions hit. §5.3 shows the services do not target uniformly:
//! compared with random Instagram users, their targets follow more accounts
//! (higher out-degree) and have far fewer followers (lower in-degree) — the
//! profile of users "already inclined to follow other users" and therefore
//! likely to reciprocate.
//!
//! We implement that as a curation step: the engine scans a candidate sample
//! of organic accounts and keeps a pool weighted by each account's latent
//! followback tendency (plus, optionally, a trait-specific quirk — Instalex
//! over-selects users with a high follow-after-like propensity, which is our
//! mechanistic stand-in for its unexplained like→follow anomaly in Table 5).

use footsteps_sim::account::AccountStore;
use footsteps_sim::behavior::followback_tendency;
use footsteps_sim::platform::PoolStats;
use footsteps_sim::population::Population;
use footsteps_sim::prelude::AccountId;
use rand::Rng;

/// How a service curates its target pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetingBias {
    /// Strength of selection on followback tendency. 0 = uniform sampling;
    /// larger values concentrate the pool on eager followers. Acceptance is
    /// proportional to `tendency^strength`.
    pub tendency_strength: f64,
    /// Extra selection weight on the follow-after-like trait (the Instalex
    /// quirk). 0 for everyone else.
    pub follow_for_like_strength: f64,
}

impl TargetingBias {
    /// Uniform sampling (the baseline "random Instagram users" population).
    pub const UNIFORM: TargetingBias = TargetingBias {
        tendency_strength: 0.0,
        follow_for_like_strength: 0.0,
    };
}

/// A curated pool of target accounts with precomputed reciprocation stats.
#[derive(Debug, Clone)]
pub struct TargetPool {
    members: Vec<AccountId>,
    stats: PoolStats,
}

impl TargetPool {
    /// Curate a pool of `size` accounts from `population` under `bias`,
    /// scanning candidates by rejection sampling.
    ///
    /// # Panics
    /// Panics if the population is empty or `size` is zero.
    pub fn curate(
        accounts: &AccountStore,
        population: &Population,
        bias: TargetingBias,
        size: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(size > 0, "pool size must be positive");
        assert!(!population.is_empty(), "population must be non-empty");
        let size = size.min(population.len());
        // Each account's acceptance weight, once: the scan below meets
        // nearly every account, most of them many times over.
        let weights: Vec<f64> = population
            .organic
            .iter()
            .map(|&id| acceptance_weight(accounts, id, bias))
            .collect();
        // Membership by population position (organic ids are distinct).
        let mut taken = vec![false; population.len()];
        let mut members = Vec::with_capacity(size);
        // Rejection sampling against the max possible weight (1.0: both
        // traits are already in [0,1]). Members are distinct: a curated
        // target list never lists the same user twice. Every unseen
        // candidate consumes its acceptance draw, even at weight 0:
        // skipping it would move every later draw of the service stream.
        let mut guard = 0usize;
        let guard_max = size * 1_000;
        while members.len() < size {
            guard += 1;
            let i = population.index_of(rng.gen());
            if taken[i] {
                continue;
            }
            // Past the guard (pathological bias, e.g. enormous strength),
            // accept every unseen candidate to guarantee progress.
            if guard > guard_max || rng.gen::<f64>() < weights[i] {
                taken[i] = true;
                members.push(population.organic[i]);
            }
        }
        let stats = compute_stats(accounts, &members);
        Self { members, stats }
    }

    /// Pool members.
    pub fn members(&self) -> &[AccountId] {
        &self.members
    }

    /// Mean reciprocation propensities across the pool, for the batch path.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Sample one target uniformly from the pool.
    pub fn sample(&self, rng: &mut impl Rng) -> AccountId {
        self.members[rng.gen_range(0..self.members.len())]
    }

    /// Sample `n` targets without replacement (or all members if `n`
    /// exceeds the pool). Used by the event path, which must not like the
    /// same photo twice.
    pub fn sample_distinct(&self, n: usize, rng: &mut impl Rng) -> Vec<AccountId> {
        if n >= self.members.len() {
            return self.members.clone();
        }
        // Floyd's algorithm over indices, kept sorted: targets come out in
        // pool order, which fixes the caller's submission order and with it
        // every downstream platform RNG draw. `n` is at most a day's event
        // cap, so the insertions stay cheap.
        let mut picks: Vec<usize> = Vec::with_capacity(n);
        let len = self.members.len();
        for j in (len - n)..len {
            let t = rng.gen_range(0..=j);
            match picks.binary_search(&t) {
                Err(at) => picks.insert(at, t),
                // Every earlier pick is below `j`: `j` is new and the largest.
                Ok(_) => picks.push(j),
            }
        }
        picks.into_iter().map(|i| self.members[i]).collect()
    }
}

/// The probability that curation keeps `id` when it draws it: the
/// followback tendency raised to the bias strength, times the
/// follow-after-like trait's own factor when the bias selects on it.
fn acceptance_weight(accounts: &AccountStore, id: AccountId, bias: TargetingBias) -> f64 {
    let a = accounts.get(id);
    let tendency = followback_tendency(a.following, a.followers, 0.5);
    let mut weight = tendency.powf(bias.tendency_strength);
    if bias.follow_for_like_strength > 0.0 {
        // Normalise the trait to [0,1] against a generous ceiling so
        // the weight stays a probability.
        let trait_norm = (a.reciprocity.follow_for_like / 0.02).min(1.0);
        weight *= trait_norm.powf(bias.follow_for_like_strength);
    }
    weight
}

/// Mean per-channel propensities over a member list.
fn compute_stats(accounts: &AccountStore, members: &[AccountId]) -> PoolStats {
    let n = members.len() as f64;
    let mut s = PoolStats::default();
    for &m in members {
        let r = accounts.get(m).reciprocity;
        s.like_for_like += r.like_for_like;
        s.follow_for_like += r.follow_for_like;
        s.follow_for_follow += r.follow_for_follow;
    }
    s.like_for_like /= n;
    s.follow_for_like /= n;
    s.follow_for_follow /= n;
    s
}

/// Median degrees of a sample of accounts; the measurement behind
/// Figures 3/4.
pub fn median_degrees(accounts: &AccountStore, sample: &[AccountId]) -> (u32, u32) {
    assert!(!sample.is_empty());
    let mut following: Vec<u32> = sample.iter().map(|&a| accounts.get(a).following).collect();
    let mut followers: Vec<u32> = sample.iter().map(|&a| accounts.get(a).followers).collect();
    following.sort_unstable();
    followers.sort_unstable();
    (following[following.len() / 2], followers[followers.len() / 2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use footsteps_sim::country::Country;
    use footsteps_sim::net::{AsnKind, AsnRegistry};
    use footsteps_sim::population::{synthesize, PopulationConfig, ResidentialIndex};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    fn world(n: u32) -> (AccountStore, Population) {
        seeded_world(n, 21)
    }

    fn seeded_world(n: u32, seed: u64) -> (AccountStore, Population) {
        let mut reg = AsnRegistry::new();
        for c in Country::ALL {
            reg.register(&format!("res-{}", c.code()), c, AsnKind::Residential, 10_000);
        }
        let idx = ResidentialIndex::build(&reg);
        let mut accounts = AccountStore::new();
        let cfg = PopulationConfig { size: n, ..PopulationConfig::default() };
        let mut rng = SmallRng::seed_from_u64(seed);
        let pop = synthesize(&mut accounts, &idx, &cfg, &mut rng);
        (accounts, pop)
    }

    /// The per-draw curation loop (weight recomputed on every draw,
    /// membership in a hash set): the reference `TargetPool::curate` must
    /// reproduce draw for draw.
    fn curate_reference(
        accounts: &AccountStore,
        population: &Population,
        bias: TargetingBias,
        size: usize,
        rng: &mut impl Rng,
    ) -> TargetPool {
        let size = size.min(population.len());
        let mut members = Vec::with_capacity(size);
        let mut seen = std::collections::HashSet::with_capacity(size);
        let mut guard = 0usize;
        let guard_max = size * 1_000;
        while members.len() < size {
            guard += 1;
            if guard > guard_max {
                let cand = population.sample_uniform(rng.gen());
                if seen.insert(cand) {
                    members.push(cand);
                }
                continue;
            }
            let cand = population.sample_uniform(rng.gen());
            if seen.contains(&cand) {
                continue;
            }
            let a = accounts.get(cand);
            let tendency = followback_tendency(a.following, a.followers, 0.5);
            let mut weight = tendency.powf(bias.tendency_strength);
            if bias.follow_for_like_strength > 0.0 {
                let trait_norm = (a.reciprocity.follow_for_like / 0.02).min(1.0);
                weight *= trait_norm.powf(bias.follow_for_like_strength);
            }
            if rng.gen::<f64>() < weight {
                seen.insert(cand);
                members.push(cand);
            }
        }
        let stats = compute_stats(accounts, &members);
        TargetPool { members, stats }
    }

    /// Floyd's algorithm with a hash set of chosen indices, sorted after:
    /// the reference `TargetPool::sample_distinct` must reproduce.
    fn sample_distinct_reference(
        pool: &TargetPool,
        n: usize,
        rng: &mut impl Rng,
    ) -> Vec<AccountId> {
        if n >= pool.members.len() {
            return pool.members.clone();
        }
        let mut chosen = std::collections::HashSet::with_capacity(n);
        let len = pool.members.len();
        for j in (len - n)..len {
            let t = rng.gen_range(0..=j);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        let mut idx: Vec<usize> = chosen.into_iter().collect();
        idx.sort_unstable();
        idx.into_iter().map(|i| pool.members[i]).collect()
    }

    fn stats_bits(s: PoolStats) -> [u64; 3] {
        [
            s.like_for_like.to_bits(),
            s.follow_for_like.to_bits(),
            s.follow_for_follow.to_bits(),
        ]
    }

    proptest! {
        /// Curation and distinct sampling reproduce the reference samplers
        /// exactly: same members in the same order, bit-equal stats, and
        /// the RNG left at the same position. `tendency_strength: 1e9`
        /// underflows every weight to 0 and forces the guard fallback.
        #[test]
        fn curation_and_sampling_match_the_reference_samplers(
            pop_exp in 0.0f64..=1.0,
            size_pick in any::<u32>(),
            n_pick in any::<u32>(),
            bias_pick in 0usize..5,
            seed in any::<u64>(),
        ) {
            let biases = [
                TargetingBias::UNIFORM,
                presets::instalex_config(1.0).targeting,
                presets::instazood_config(1.0).targeting,
                presets::boostgram_config(1.0).targeting,
                TargetingBias { tendency_strength: 1e9, follow_for_like_strength: 0.0 },
            ];
            let bias = biases[bias_pick];
            // 1 to 600 accounts, log-uniform: small worlds hit the clamp
            // often, and the reference's guard fallback (`size × 1000`
            // draws) stays short enough for a debug build.
            let pop_size = 600f64.powf(pop_exp).round() as u32;
            let (accounts, pop) = seeded_world(pop_size, seed);
            // Up to ten past the population, so the clamp is hit.
            let size = 1 + size_pick as usize % (pop.len() + 10);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
            let mut ref_rng = rng.clone();
            let pool = TargetPool::curate(&accounts, &pop, bias, size, &mut rng);
            let want = curate_reference(&accounts, &pop, bias, size, &mut ref_rng);
            prop_assert_eq!(pool.members(), want.members());
            prop_assert_eq!(stats_bits(pool.stats()), stats_bits(want.stats()));
            prop_assert_eq!(rng.clone().next_u64(), ref_rng.clone().next_u64());

            // Past the pool too, so `n >= len` returns the whole pool.
            let n = n_pick as usize % (pool.members().len() + 5);
            let picked = pool.sample_distinct(n, &mut rng);
            let want = sample_distinct_reference(&pool, n, &mut ref_rng);
            prop_assert_eq!(picked, want);
            prop_assert_eq!(rng.next_u64(), ref_rng.next_u64());
        }
    }

    #[test]
    fn biased_pool_shifts_degrees_the_right_way() {
        let (accounts, pop) = world(12_000);
        let mut rng = SmallRng::seed_from_u64(1);
        let biased = TargetPool::curate(
            &accounts,
            &pop,
            TargetingBias { tendency_strength: 3.0, follow_for_like_strength: 0.0 },
            1_000,
            &mut rng,
        );
        let uniform = TargetPool::curate(&accounts, &pop, TargetingBias::UNIFORM, 1_000, &mut rng);
        let (b_out, b_in) = median_degrees(&accounts, biased.members());
        let (u_out, u_in) = median_degrees(&accounts, uniform.members());
        // §5.3: targets follow more accounts and have fewer followers.
        assert!(b_out > u_out, "out-degree: biased {b_out} vs uniform {u_out}");
        assert!(b_in < u_in, "in-degree: biased {b_in} vs uniform {u_in}");
    }

    #[test]
    fn biased_pool_has_higher_reciprocation_stats() {
        let (accounts, pop) = world(8_000);
        let mut rng = SmallRng::seed_from_u64(2);
        let biased = TargetPool::curate(
            &accounts,
            &pop,
            TargetingBias { tendency_strength: 3.0, follow_for_like_strength: 0.0 },
            800,
            &mut rng,
        );
        let uniform = TargetPool::curate(&accounts, &pop, TargetingBias::UNIFORM, 800, &mut rng);
        assert!(biased.stats().follow_for_follow > uniform.stats().follow_for_follow);
        assert!(biased.stats().like_for_like > uniform.stats().like_for_like);
    }

    #[test]
    fn follow_for_like_quirk_selects_the_trait() {
        let (accounts, pop) = world(8_000);
        let mut rng = SmallRng::seed_from_u64(3);
        let quirky = TargetPool::curate(
            &accounts,
            &pop,
            TargetingBias { tendency_strength: 1.0, follow_for_like_strength: 4.0 },
            800,
            &mut rng,
        );
        let plain = TargetPool::curate(
            &accounts,
            &pop,
            TargetingBias { tendency_strength: 1.0, follow_for_like_strength: 0.0 },
            800,
            &mut rng,
        );
        assert!(
            quirky.stats().follow_for_like > 2.5 * plain.stats().follow_for_like,
            "quirk {0} vs plain {1}",
            quirky.stats().follow_for_like,
            plain.stats().follow_for_like
        );
    }

    #[test]
    fn sample_distinct_has_no_duplicates() {
        let (accounts, pop) = world(2_000);
        let mut rng = SmallRng::seed_from_u64(4);
        let pool = TargetPool::curate(&accounts, &pop, TargetingBias::UNIFORM, 500, &mut rng);
        let picked = pool.sample_distinct(100, &mut rng);
        let set: std::collections::HashSet<_> = picked.iter().collect();
        assert_eq!(set.len(), picked.len());
        assert_eq!(picked.len(), 100);
        // Requesting more than the pool returns the whole pool.
        assert_eq!(pool.sample_distinct(10_000, &mut rng).len(), 500);
    }

    #[test]
    fn curation_is_deterministic() {
        let (accounts, pop) = world(3_000);
        let curate = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            TargetPool::curate(
                &accounts,
                &pop,
                TargetingBias { tendency_strength: 2.0, follow_for_like_strength: 0.0 },
                200,
                &mut rng,
            )
            .members()
            .to_vec()
        };
        assert_eq!(curate(9), curate(9));
        assert_ne!(curate(9), curate(10));
    }
}
