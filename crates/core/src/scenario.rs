//! Scenario configuration: one value object that fully determines a study.
//!
//! Scenarios are the reproducibility boundary — a `(Scenario, seed)` pair
//! determines every table and figure bit-for-bit.

use serde::{Deserialize, Serialize};

/// Full configuration of a study run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Master seed; all component RNG streams derive from it.
    pub seed: u64,
    /// Linear population scale relative to the paper (1.0 = paper scale).
    /// Applies to service customer populations; see DESIGN.md §4.5.
    pub scale: f64,
    /// Organic (non-customer) population size.
    pub population_size: u32,
    /// Length of the §5 characterization window, days (paper: 90).
    pub characterization_days: u32,
    /// Length of the §6.3 narrow intervention, days (paper: 42).
    pub narrow_days: u32,
    /// Length of the §6.4 broad intervention, days (paper: 14, split 7+7).
    pub broad_days: u32,
    /// Length of the §6.4 epilogue ("additional months"), days.
    pub epilogue_days: u32,
    /// Honeypots registered per service per offered action type (paper: 10).
    pub honeypots_per_type: usize,
    /// Of those, how many purchase paid service (rest use free trials).
    pub paid_honeypots_per_type: usize,
    /// Inactive baseline honeypots (paper: 50).
    pub baseline_accounts: usize,
    /// Days at the end of the characterization window used to calibrate
    /// signatures/classification/thresholds.
    pub calibration_tail_days: u32,
    /// Organic background actors per day.
    pub background_daily_actors: u32,
    /// Of those, how many route through the mixed (Insta*) hosting ASN.
    pub background_blend_actors: u32,
    /// Threads footbench renders its report sections on
    /// (`aas::plan_parallel`). The study itself runs on one thread and
    /// ignores this, so results are byte-identical for every value. The
    /// presets set 1.
    pub worker_threads: usize,
}

impl Scenario {
    /// The default reproduction scenario: 1/50 linear scale, full paper
    /// timeline. Runs in under a minute on a laptop core; 1/50 keeps each
    /// experiment bin populated enough for stable medians (Figures 5/7).
    pub fn default_scaled(seed: u64) -> Self {
        Self {
            seed,
            scale: 0.02,
            population_size: 25_000,
            characterization_days: 90,
            narrow_days: 42,
            broad_days: 14,
            epilogue_days: 60,
            honeypots_per_type: 10,
            paid_honeypots_per_type: 2,
            baseline_accounts: 50,
            calibration_tail_days: 14,
            background_daily_actors: 1_200,
            background_blend_actors: 120,
            worker_threads: 1,
        }
    }

    /// The paper-scale scenario: 1/1 customer populations (≈1M Hublaagram
    /// customers) over the full timeline. Expect tens of minutes and several
    /// GB of log; intended for one-off validation runs, not CI.
    pub fn paper(seed: u64) -> Self {
        Self {
            scale: 1.0,
            population_size: 200_000,
            background_daily_actors: 8_000,
            background_blend_actors: 800,
            ..Self::default_scaled(seed)
        }
    }

    /// A small smoke scenario for tests: 1/500 scale, compressed timeline.
    pub fn smoke(seed: u64) -> Self {
        Self {
            seed,
            scale: 0.002,
            population_size: 5_000,
            characterization_days: 24,
            narrow_days: 14,
            broad_days: 14,
            epilogue_days: 70,
            honeypots_per_type: 4,
            paid_honeypots_per_type: 1,
            baseline_accounts: 10,
            calibration_tail_days: 8,
            background_daily_actors: 300,
            background_blend_actors: 40,
            worker_threads: 1,
        }
    }

    /// The smallest useful scenario: smoke mechanics with a short
    /// epilogue and a thinner background, for orchestrator end-to-end
    /// tests and demos where wall time matters more than statistical
    /// weight. Not tied to any golden digest.
    pub fn quick(seed: u64) -> Self {
        Self {
            population_size: 2_000,
            characterization_days: 16,
            narrow_days: 7,
            broad_days: 8,
            epilogue_days: 7,
            background_daily_actors: 120,
            background_blend_actors: 15,
            ..Self::smoke(seed)
        }
    }

    /// Validate internal consistency.
    pub fn is_valid(&self) -> bool {
        self.scale > 0.0
            && self.population_size >= 1_000
            && self.characterization_days >= self.calibration_tail_days
            && self.calibration_tail_days >= 1
            && self.honeypots_per_type >= 1
            && self.paid_honeypots_per_type <= self.honeypots_per_type
            && self.background_blend_actors <= self.background_daily_actors
            && self.worker_threads >= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        assert!(Scenario::default_scaled(7).is_valid());
        assert!(Scenario::smoke(7).is_valid());
        let paper = Scenario::paper(7);
        assert!(paper.is_valid());
        assert_eq!(paper.scale, 1.0);
    }

    #[test]
    fn invalid_scenarios_detected() {
        let mut s = Scenario::smoke(1);
        s.background_blend_actors = s.background_daily_actors + 1;
        assert!(!s.is_valid());
        let mut s = Scenario::smoke(1);
        s.calibration_tail_days = s.characterization_days + 1;
        assert!(!s.is_valid());
        let mut s = Scenario::smoke(1);
        s.paid_honeypots_per_type = s.honeypots_per_type + 1;
        assert!(!s.is_valid());
    }

    #[test]
    fn scenarios_serialize_roundtrip() {
        let s = Scenario::default_scaled(42);
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back.seed, 42);
        assert_eq!(back.population_size, s.population_size);
    }
}
