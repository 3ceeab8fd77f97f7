//! Deterministic random-number plumbing.
//!
//! Reproducibility is a hard requirement: the paper's findings are the output
//! of a measurement pipeline, and we want *bit-identical* tables and figures
//! for a given scenario seed so that EXPERIMENTS.md stays truthful across
//! runs and machines.
//!
//! The design follows the "stream per component" idiom: a single `u64`
//! scenario seed is mixed with a stable string label (and optionally a
//! numeric sub-stream) to derive an independent [`SmallRng`] for each
//! component. Components never share RNGs, so adding a new consumer of
//! randomness does not perturb existing streams — the property that keeps
//! experiment diffs reviewable as the codebase grows.

use footsteps_obs::tree::fnv1a;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A factory for per-component deterministic RNG streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngFactory {
    seed: u64,
}

impl RngFactory {
    /// Create a factory from the scenario seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The scenario seed this factory was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent RNG for the component identified by `label`.
    ///
    /// Labels must be stable across versions (they are part of the
    /// reproducibility contract); use lowercase dotted paths such as
    /// `"sim.population"` or `"aas.boostgram.targeting"`.
    pub fn stream(&self, label: &str) -> SmallRng {
        SmallRng::seed_from_u64(self.stream_seed(label))
    }

    /// Derive an RNG for a numbered sub-stream of a component, e.g. one
    /// stream per account or per day. Stable for the same `(label, n)`.
    pub fn substream(&self, label: &str, n: u64) -> SmallRng {
        SmallRng::seed_from_u64(mix(self.stream_seed(label), n))
    }

    /// The raw 64-bit seed of the stream identified by `label` — the value
    /// `stream(label)` is seeded from. Components that need to derive many
    /// per-entity streams (the service engines derive one per
    /// account-day) keep this seed and feed it to [`decision_rng`] instead
    /// of holding a factory.
    ///
    /// The label is hashed with the workspace's one digest, FNV-1a:
    /// cheap, stable, and collision-resistant enough for a handful of
    /// component labels (collisions are further mixed with the seed).
    pub fn stream_seed(&self, label: &str) -> u64 {
        mix(self.seed, fnv1a(label.as_bytes()))
    }
}

/// Derive the decision RNG for one `(entity, day)` pair of a component.
///
/// This is the randomness contract of the daily engine (DESIGN.md §4):
/// every per-entity decision draw comes from a stream that is a pure
/// function of `(scenario seed, stream label, entity id, day)` — obtained
/// here as `mix(mix(stream_seed, entity), day)` — and never from a shared
/// sequential stream. Because the stream does not depend on the order in
/// which entities are processed, no entity's day depends on the roster's
/// order or on which other entities are engaged that day.
pub fn decision_rng(stream_seed: u64, entity: u64, day: u64) -> SmallRng {
    SmallRng::seed_from_u64(mix(mix(stream_seed, entity), day))
}

/// SplitMix64 finaliser: a high-quality 64-bit mixer used to combine the
/// seed with stream identifiers.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministically hash an arbitrary 64-bit key into a bin in `0..bins`.
///
/// Used by the intervention machinery to partition accounts into ten
/// equally-sized bins (§6.3): the partition must be deterministic (the same
/// account always lands in the same bin) and uncorrelated with account
/// creation order or service membership.
pub fn stable_bin(key: u64, bins: u32) -> u32 {
    assert!(bins > 0, "bins must be positive");
    // Multiply-shift after mixing gives an unbiased-enough mapping for our
    // bin counts (10) without modulo bias concerns.
    (mix(key, 0xabcd_ef01_2345_6789) % u64::from(bins)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_label_same_stream() {
        let f = RngFactory::new(7);
        let a: u64 = f.stream("sim.population").gen();
        let b: u64 = f.stream("sim.population").gen();
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_differ() {
        let f = RngFactory::new(7);
        let a: u64 = f.stream("sim.population").gen();
        let b: u64 = f.stream("sim.behavior").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: u64 = RngFactory::new(1).stream("x").gen();
        let b: u64 = RngFactory::new(2).stream("x").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn substreams_are_independent_and_stable() {
        let f = RngFactory::new(99);
        let a1: u64 = f.substream("acct", 1).gen();
        let a2: u64 = f.substream("acct", 2).gen();
        let a1_again: u64 = f.substream("acct", 1).gen();
        assert_ne!(a1, a2);
        assert_eq!(a1, a1_again);
    }

    #[test]
    fn stream_seed_matches_stream() {
        let f = RngFactory::new(41);
        let via_seed: u64 = SmallRng::seed_from_u64(f.stream_seed("aas.x")).gen();
        let via_stream: u64 = f.stream("aas.x").gen();
        assert_eq!(via_seed, via_stream);
    }

    #[test]
    fn decision_rng_is_stable_and_distinguishes_entity_and_day() {
        let s = RngFactory::new(7).stream_seed("aas.x.decide");
        let a: u64 = decision_rng(s, 10, 3).gen();
        assert_eq!(a, decision_rng(s, 10, 3).gen(), "same (entity, day) → same stream");
        assert_ne!(a, decision_rng(s, 11, 3).gen(), "entity perturbs the stream");
        assert_ne!(a, decision_rng(s, 10, 4).gen(), "day perturbs the stream");
    }

    #[test]
    fn stable_bin_is_deterministic_and_in_range() {
        for key in 0..1_000u64 {
            let b = stable_bin(key, 10);
            assert!(b < 10);
            assert_eq!(b, stable_bin(key, 10));
        }
    }

    #[test]
    fn stable_bin_is_roughly_uniform() {
        let mut counts = [0u32; 10];
        let n = 100_000u64;
        for key in 0..n {
            counts[stable_bin(key, 10) as usize] += 1;
        }
        let expect = n as f64 / 10.0;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (f64::from(c) - expect).abs() / expect;
            assert!(dev < 0.05, "bin {i} deviates {dev:.3} from uniform");
        }
    }

    #[test]
    #[should_panic(expected = "bins must be positive")]
    fn stable_bin_rejects_zero_bins() {
        stable_bin(1, 0);
    }
}
