//! Synthetic organic population.
//!
//! We cannot have Instagram's 800M users; what the pipeline actually needs
//! is a population whose *measurable marginals* match the ones the paper
//! reports for accounts that receive actions:
//!
//! * median out-degree (accounts followed) ≈ 465, median in-degree
//!   (followers) ≈ 796, both heavy-tailed (Figures 3/4 baselines);
//! * a global country mix (Figure 2's baseline);
//! * per-user reciprocation propensity correlated with degree imbalance
//!   (the trait services target, §5.3).
//!
//! Degrees are drawn log-normally around the medians; reciprocity profiles
//! come from [`crate::behavior::synthesize_profile`].

use crate::account::{AccountStore, ProfileKind};
use crate::behavior::{followback_tendency, synthesize_profile, BehaviorParams};
use crate::country::{Country, CountryMix};
use crate::ids::{AccountId, AsnId};
use crate::net::{AsnKind, AsnRegistry};
use crate::time::SimTime;
use rand::Rng;
use std::collections::HashMap;

/// Configuration for population synthesis.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Number of organic accounts to create.
    pub size: u32,
    /// Country mix of the population.
    pub country_mix: CountryMix,
    /// Median out-degree (accounts a user follows).
    pub median_following: f64,
    /// Median in-degree (followers).
    pub median_followers: f64,
    /// Log-normal shape parameter (σ of the underlying normal) for degrees.
    pub degree_sigma: f64,
    /// Behaviour constants used to derive reciprocity profiles.
    pub behavior: BehaviorParams,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        Self {
            size: 20_000,
            country_mix: CountryMix::global_organic(),
            median_following: 465.0,
            median_followers: 796.0,
            degree_sigma: 1.05,
            behavior: BehaviorParams::default(),
        }
    }
}

/// Index of residential ASNs grouped by country, for assigning home ASNs.
#[derive(Debug, Clone, Default)]
pub struct ResidentialIndex {
    by_country: HashMap<Country, Vec<AsnId>>,
    fallback: Vec<AsnId>,
}

impl ResidentialIndex {
    /// Build the index from a registry. Every residential ASN participates;
    /// countries with no residential ASN fall back to the global list.
    pub fn build(registry: &AsnRegistry) -> Self {
        let mut by_country: HashMap<Country, Vec<AsnId>> = HashMap::new();
        let mut fallback = Vec::new();
        for a in registry.iter() {
            if a.kind == AsnKind::Residential {
                by_country.entry(a.country).or_default().push(a.id);
                fallback.push(a.id);
            }
        }
        Self { by_country, fallback }
    }

    /// Pick a home ASN for a user in `country`, using `u ∈ [0,1)`.
    ///
    /// # Panics
    /// Panics if no residential ASNs exist at all.
    pub fn pick(&self, country: Country, u: f64) -> AsnId {
        let pool = self
            .by_country
            .get(&country)
            .filter(|v| !v.is_empty())
            .unwrap_or(&self.fallback);
        assert!(!pool.is_empty(), "no residential ASNs registered");
        pool[((u * pool.len() as f64) as usize).min(pool.len() - 1)]
    }
}

/// Handle to the synthesized organic population.
#[derive(Debug, Clone)]
pub struct Population {
    /// Ids of all organic accounts, in creation order.
    pub organic: Vec<AccountId>,
}

impl Population {
    /// Number of organic accounts.
    pub fn len(&self) -> usize {
        self.organic.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.organic.is_empty()
    }

    /// The position in [`Population::organic`] that `u ∈ [0,1)` picks,
    /// uniformly over the population.
    pub fn index_of(&self, u: f64) -> usize {
        assert!(!self.organic.is_empty(), "empty population");
        ((u * self.organic.len() as f64) as usize).min(self.organic.len() - 1)
    }

    /// Uniformly sample an organic account id with `u ∈ [0,1)`.
    pub fn sample_uniform(&self, u: f64) -> AccountId {
        self.organic[self.index_of(u)]
    }
}

/// Sample a log-normal value with the given median and σ.
pub fn sample_lognormal(rng: &mut impl Rng, median: f64, sigma: f64) -> f64 {
    debug_assert!(median > 0.0 && sigma >= 0.0);
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (median.ln() + sigma * z).exp()
}

/// Create the organic population in `accounts`.
///
/// Accounts are created at the simulation epoch so that the whole population
/// exists before any measurement window opens.
pub fn synthesize(
    accounts: &mut AccountStore,
    residential: &ResidentialIndex,
    config: &PopulationConfig,
    rng: &mut impl Rng,
) -> Population {
    assert!(config.behavior.is_valid(), "invalid behaviour params");
    let mut organic = Vec::with_capacity(config.size as usize);
    for _ in 0..config.size {
        let country = config.country_mix.sample(rng.gen());
        let home_asn = residential.pick(country, rng.gen());
        let following = sample_lognormal(rng, config.median_following, config.degree_sigma)
            .round()
            .clamp(0.0, 5e6) as u32;
        let followers = sample_lognormal(rng, config.median_followers, config.degree_sigma)
            .round()
            .clamp(0.0, 5e6) as u32;
        let tendency = followback_tendency(following, followers, rng.gen());
        let profile = synthesize_profile(&config.behavior, tendency, rng.gen());
        let id = accounts.create(
            SimTime::EPOCH,
            ProfileKind::Organic,
            country,
            home_asn,
            following,
            followers,
            profile,
        );
        organic.push(id);
    }
    Population { organic }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::AsnRegistry;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn world() -> (AccountStore, ResidentialIndex) {
        let mut reg = AsnRegistry::new();
        for c in Country::ALL {
            reg.register(
                &format!("res-{}", c.code()),
                c,
                AsnKind::Residential,
                10_000,
            );
        }
        (AccountStore::new(), ResidentialIndex::build(&reg))
    }

    fn median_u32(mut v: Vec<u32>) -> u32 {
        v.sort_unstable();
        v[v.len() / 2]
    }

    #[test]
    fn degrees_have_requested_medians() {
        let (mut accounts, idx) = world();
        let cfg = PopulationConfig {
            size: 8_000,
            ..PopulationConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(11);
        let pop = synthesize(&mut accounts, &idx, &cfg, &mut rng);
        assert_eq!(pop.len(), 8_000);
        let following: Vec<u32> = pop.organic.iter().map(|&a| accounts.get(a).following).collect();
        let followers: Vec<u32> = pop.organic.iter().map(|&a| accounts.get(a).followers).collect();
        let med_out = f64::from(median_u32(following));
        let med_in = f64::from(median_u32(followers));
        assert!((med_out - 465.0).abs() / 465.0 < 0.10, "median out {med_out}");
        assert!((med_in - 796.0).abs() / 796.0 < 0.10, "median in {med_in}");
    }

    #[test]
    fn country_mix_is_respected() {
        let (mut accounts, idx) = world();
        let cfg = PopulationConfig {
            size: 10_000,
            ..PopulationConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(5);
        let pop = synthesize(&mut accounts, &idx, &cfg, &mut rng);
        let us = pop
            .organic
            .iter()
            .filter(|&&a| accounts.get(a).country == Country::Us)
            .count() as f64
            / pop.len() as f64;
        let expect = cfg.country_mix.probability(Country::Us);
        assert!((us - expect).abs() < 0.02, "US share {us} vs {expect}");
    }

    #[test]
    fn home_asns_match_country() {
        let (mut accounts, idx) = world();
        let mut reg = AsnRegistry::new();
        for c in Country::ALL {
            reg.register(&format!("res-{}", c.code()), c, AsnKind::Residential, 10_000);
        }
        let cfg = PopulationConfig {
            size: 500,
            ..PopulationConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let pop = synthesize(&mut accounts, &idx, &cfg, &mut rng);
        for &a in &pop.organic {
            let acct = accounts.get(a);
            assert_eq!(reg.get(acct.home_asn).country, acct.country);
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let run = || {
            let (mut accounts, idx) = world();
            let cfg = PopulationConfig {
                size: 200,
                ..PopulationConfig::default()
            };
            let mut rng = SmallRng::seed_from_u64(42);
            let pop = synthesize(&mut accounts, &idx, &cfg, &mut rng);
            pop.organic
                .iter()
                .map(|&a| {
                    let x = accounts.get(a);
                    (x.following, x.followers, x.country)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn lognormal_median_is_close() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut v: Vec<f64> = (0..20_000)
            .map(|_| sample_lognormal(&mut rng, 100.0, 1.0))
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = v[v.len() / 2];
        assert!((med - 100.0).abs() / 100.0 < 0.05, "median {med}");
    }

    #[test]
    fn sample_uniform_bounds() {
        let pop = Population {
            organic: vec![AccountId(0), AccountId(1), AccountId(2)],
        };
        assert_eq!(pop.sample_uniform(0.0), AccountId(0));
        assert_eq!(pop.sample_uniform(0.999_999), AccountId(2));
    }
}
