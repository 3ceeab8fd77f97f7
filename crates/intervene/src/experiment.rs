//! Experiment plans (§6.3, §6.4).
//!
//! An [`ExperimentPlan`] describes *when* which bin assignment is in force;
//! the study orchestrator installs the corresponding
//! [`ExperimentPolicy`](crate::policy::ExperimentPolicy) on the platform at
//! each phase boundary. The module also carries the
//! crate-level end-to-end test demonstrating the paper's central §6 result
//! against a live service engine.

use crate::bins::{BinAssignment, BinPolicy};
use footsteps_sim::prelude::Day;

/// One phase of an experiment: an assignment in force over `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentPhase {
    /// First day of the phase.
    pub start: Day,
    /// One past the last day.
    pub end: Day,
    /// Bin assignment in force.
    pub bins: BinAssignment,
}

/// A sequence of phases.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentPlan {
    /// Phases, contiguous and in order.
    pub phases: Vec<ExperimentPhase>,
}

impl ExperimentPlan {
    /// The narrow intervention: block/delay/control bins for six weeks.
    pub fn narrow(start: Day, block_bin: u32, delay_bin: u32, control_bin: u32) -> Self {
        Self {
            phases: vec![ExperimentPhase {
                start,
                end: start.plus(42),
                bins: BinAssignment::narrow(block_bin, delay_bin, control_bin),
            }],
        }
    }

    /// The broad intervention: one week of delay on 90% of accounts, then
    /// one week of block, keeping the same control bin.
    pub fn broad(start: Day, control_bin: u32) -> Self {
        Self {
            phases: vec![
                ExperimentPhase {
                    start,
                    end: start.plus(7),
                    bins: BinAssignment::broad(control_bin, BinPolicy::Delay),
                },
                ExperimentPhase {
                    start: start.plus(7),
                    end: start.plus(14),
                    bins: BinAssignment::broad(control_bin, BinPolicy::Block),
                },
            ],
        }
    }

    /// The assignment in force on `day`, if any phase covers it.
    pub fn bins_on(&self, day: Day) -> Option<BinAssignment> {
        self.phases
            .iter()
            .find(|p| day >= p.start && day < p.end)
            .map(|p| p.bins)
    }

    /// Overall end of the plan.
    pub fn end(&self) -> Day {
        self.phases.last().map(|p| p.end).unwrap_or(Day(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bins::{bin_of, NUM_BINS};
    use crate::policy::ExperimentPolicy;
    use crate::series::{eligible_proportion, median_actions_per_user};
    use footsteps_aas::{presets, PaymentLedger, ReciprocityService, Service};
    use footsteps_detect::DetectionPipeline;
    use footsteps_honeypot::{run_campaign, HoneypotFramework};
    use footsteps_sim::enforcement::Direction;
    use footsteps_sim::population::{synthesize, PopulationConfig, ResidentialIndex};
    use footsteps_sim::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    #[test]
    fn plan_phase_lookup() {
        let plan = ExperimentPlan::broad(Day(10), 2);
        assert!(plan.bins_on(Day(9)).is_none());
        let week1 = plan.bins_on(Day(10)).unwrap();
        assert_eq!(week1.bins_with(BinPolicy::Delay).len(), 9);
        let week2 = plan.bins_on(Day(17)).unwrap();
        assert_eq!(week2.bins_with(BinPolicy::Block).len(), 9);
        assert!(plan.bins_on(Day(24)).is_none());
        assert_eq!(plan.end(), Day(24));
        assert_eq!(ExperimentPlan::narrow(Day(0), 0, 1, 2).end(), Day(42));
    }

    /// The §6.3 headline result, end-to-end: under the narrow experiment,
    /// the blocked bin's median follows drop to the threshold (the service
    /// detects blocking and adapts), the delay bin stays at the control
    /// level (the service cannot see deferred removals), and the delayed
    /// follows really are removed.
    #[test]
    fn narrow_experiment_reproduces_figure5_dynamics() {
        // --- world -----------------------------------------------------------
        let mut reg = AsnRegistry::new();
        for c in Country::ALL {
            reg.register(&format!("res-{}", c.code()), c, AsnKind::Residential, 50_000);
        }
        let host = reg.register("bg-host", Country::Us, AsnKind::Hosting, 10_000);
        let residential = ResidentialIndex::build(&reg);
        let mut platform =
            Platform::new(reg, PlatformConfig::default(), SmallRng::seed_from_u64(70));
        let mut rng = SmallRng::seed_from_u64(71);
        let pop = synthesize(
            &mut platform.accounts,
            &residential,
            &PopulationConfig { size: 5_000, ..PopulationConfig::default() },
            &mut rng,
        );
        let mut svc = {
            let mut cfg = presets::boostgram_config(0.05);
            cfg.pool_size = 800;
            Service::Reciprocity(ReciprocityService::new(
                cfg,
                &platform.accounts,
                &pop,
                vec![host],
                SmallRng::seed_from_u64(72),
            ))
        };
        let mut framework = HoneypotFramework::new(AsnId(0), SmallRng::seed_from_u64(73));
        let mut ledger = PaymentLedger::new();
        platform.begin_day(Day(0));
        framework.setup_celebrities(&mut platform, 20);
        svc.seed_initial_customers(&mut platform, &residential, &mut ledger, Day(0));
        run_campaign(&mut framework, &mut platform, &mut svc, &mut ledger, Day(0), 3, 0);

        // --- characterization window (10 days) -------------------------------
        for d in 0..10u32 {
            platform.begin_day(Day(d));
            svc.run_day(&mut platform, &residential, &mut ledger, Day(d));
        }
        let pipeline = DetectionPipeline::build(&framework, &platform, Day(0), Day(10));
        let threshold = pipeline
            .thresholds
            .get(host, ActionType::Follow, Direction::Outbound)
            .expect("follow threshold on the service ASN");

        // --- narrow intervention (4 weeks is enough for the dynamics) -------
        let plan = ExperimentPlan::narrow(Day(10), 0, 1, 2);
        let bins = plan.bins_on(Day(10)).unwrap();
        platform.set_policy(Box::new(ExperimentPolicy::new(
            pipeline.thresholds.clone(),
            bins,
        )));
        for d in 10..38u32 {
            platform.begin_day(Day(d));
            svc.run_day(&mut platform, &residential, &mut ledger, Day(d));
        }

        // --- measure ----------------------------------------------------------
        let customers: BTreeSet<AccountId> = pipeline
            .classification
            .customers_of(ServiceId::Boostgram)
            .collect();
        assert!(customers.len() > 100, "enough customers: {}", customers.len());
        // Ensure each experimental bin actually contains customers.
        for bin in 0..3u32 {
            let n = customers.iter().filter(|&&a| bin_of(a) == bin).count();
            assert!(n >= 5, "bin {bin} has {n} customers");
        }
        let _ = NUM_BINS;
        let asns: BTreeSet<AsnId> = [host].into();
        let series = |policy: BinPolicy| {
            median_actions_per_user(
                &platform, &customers, &bins, policy, &asns,
                ActionType::Follow, Direction::Outbound, Day(10), Day(38),
            )
        };
        let blocked = series(BinPolicy::Block);
        let delayed = series(BinPolicy::Delay);
        let control = series(BinPolicy::Control);

        // Pre-intervention the service ran well above the threshold; the
        // control group keeps doing so.
        let control_late = control.mean_over(Day(24), Day(38));
        assert!(
            control_late > f64::from(threshold) * 1.1,
            "control median {control_late} stays above threshold {threshold}"
        );
        // The blocked bin collapses to ~the threshold once the service's
        // block detector reacts (immediately) — §6.3, Figure 5.
        let blocked_late = blocked.mean_over(Day(24), Day(38));
        assert!(
            blocked_late < f64::from(threshold) * 1.25,
            "blocked median {blocked_late} near threshold {threshold}"
        );
        // The gap to control is bounded by where the 25th-percentile
        // threshold sits relative to typical volume (~0.8×): the blocked
        // group's median collapses onto the threshold, not to zero.
        assert!(
            blocked_late < 0.88 * control_late,
            "blocked {blocked_late} vs control {control_late}"
        );
        // The delay bin is indistinguishable from control to the service.
        let delayed_late = delayed.mean_over(Day(24), Day(38));
        assert!(
            delayed_late > 0.7 * control_late,
            "delay median {delayed_late} vs control {control_late}"
        );
        // …but the countermeasure works: follows were actually removed.
        let removed = platform.obs.metrics.snapshot().counter("platform.removed_follows");
        assert!(removed > 1_000, "removed follows: {removed}");

        // Eligible-proportion view (the Figure 6/7 metric): the blocked
        // group's eligible share collapses, the delay group's does not.
        let eligible = |policies: &[BinPolicy]| {
            eligible_proportion(
                &platform, &customers, &bins, policies, &asns,
                ActionType::Follow, Direction::Outbound, threshold, Day(10), Day(38),
            )
        };
        let blocked_elig = eligible(&[BinPolicy::Block]).mean_over(Day(24), Day(38));
        let delay_elig = eligible(&[BinPolicy::Delay]).mean_over(Day(24), Day(38));
        assert!(
            blocked_elig < 0.5 * delay_elig,
            "blocked eligible {blocked_elig} vs delay {delay_elig}"
        );
    }
}
