//! The experiment enforcement policy.
//!
//! Combines the frozen [`ThresholdTable`] from `footsteps-detect` with a
//! [`BinAssignment`]: an action is *eligible* when it pushes the account's
//! daily count past the per-ASN threshold (outbound for reciprocity ASNs,
//! inbound for collusion ASNs — the table is keyed by direction); whether an
//! eligible action is blocked, delay-removed or left alone depends on the
//! account's bin and, in the epilogue, on the action type.

use crate::bins::{bin_of, BinAssignment};
use footsteps_detect::ThresholdTable;
use footsteps_sim::enforcement::{
    EnforcementContext, EnforcementDecision, EnforcementPolicy,
};
use footsteps_sim::prelude::Countermeasure;

/// Threshold+bin enforcement, installed on the platform for every day the
/// §6 protocol assigns bins: the narrow and broad experiments and the
/// epilogue.
#[derive(Debug, Clone)]
pub struct ExperimentPolicy {
    thresholds: ThresholdTable,
    bins: BinAssignment,
}

impl ExperimentPolicy {
    /// Build the policy. The threshold table is cloned and frozen inside.
    pub fn new(thresholds: ThresholdTable, bins: BinAssignment) -> Self {
        Self { thresholds, bins }
    }
}

impl EnforcementPolicy for ExperimentPolicy {
    fn evaluate(&self, ctx: &EnforcementContext) -> EnforcementDecision {
        let Some(threshold) = self.thresholds.get(ctx.asn, ctx.action, ctx.direction) else {
            // No threshold for this (ASN, type, direction): not an
            // enforcement target.
            return EnforcementDecision::allow_all(ctx.requested);
        };
        let bin = bin_of(ctx.actor);
        let cm = self.bins.policy_of_bin(bin).countermeasure(ctx.action);
        if cm == Countermeasure::None {
            // Control/untreated bins still tag the verdict so the obs layer
            // can attribute the (unenforced) traffic to its bin.
            return EnforcementDecision::allow_all(ctx.requested).with_bin(bin);
        }
        EnforcementDecision::threshold(ctx.requested, ctx.prior_today, threshold, cm).with_bin(bin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bins::{BinPolicy, NUM_BINS};
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

    fn ctx(
        account: AccountId,
        asn: AsnId,
        action: ActionType,
        direction: Direction,
        prior: u32,
        requested: u32,
    ) -> EnforcementContext {
        EnforcementContext {
            actor: account,
            asn,
            action,
            direction,
            prior_today: prior,
            requested,
        }
    }

    fn account_in_bin(bin: u32) -> AccountId {
        (0..).map(AccountId).find(|&a| bin_of(a) == bin).unwrap()
    }

    fn policy() -> ExperimentPolicy {
        let mut t = ThresholdTable::default();
        t.set(AsnId(5), ActionType::Follow, Direction::Outbound, 30);
        t.set(AsnId(6), ActionType::Like, Direction::Inbound, 40);
        ExperimentPolicy::new(t, BinAssignment::narrow())
    }

    #[test]
    fn unthresholded_traffic_is_untouched() {
        let p = policy();
        let a = account_in_bin(0); // block bin
        // Wrong ASN.
        let d = p.evaluate(&ctx(a, AsnId(9), ActionType::Follow, Direction::Outbound, 100, 50));
        assert_eq!(d.pass, 50);
        // Wrong direction.
        let d = p.evaluate(&ctx(a, AsnId(5), ActionType::Follow, Direction::Inbound, 100, 50));
        assert_eq!(d.pass, 50);
        // Wrong type.
        let d = p.evaluate(&ctx(a, AsnId(5), ActionType::Like, Direction::Outbound, 100, 50));
        assert_eq!(d.pass, 50);
    }

    #[test]
    fn block_bin_gets_blocked_above_threshold() {
        let p = policy();
        let a = account_in_bin(0);
        let d = p.evaluate(&ctx(a, AsnId(5), ActionType::Follow, Direction::Outbound, 20, 50));
        assert_eq!(d.pass, 10);
        assert_eq!(d.excess, Countermeasure::Block);
    }

    #[test]
    fn delay_bin_gets_deferred_removal() {
        let p = policy();
        let a = account_in_bin(1);
        let d = p.evaluate(&ctx(a, AsnId(5), ActionType::Follow, Direction::Outbound, 0, 100));
        assert_eq!(d.pass, 30);
        assert_eq!(d.excess, Countermeasure::DelayRemoval);
    }

    #[test]
    fn control_and_untreated_bins_pass_everything() {
        let p = policy();
        for bin in [2u32, 3, 9] {
            let a = account_in_bin(bin);
            let d =
                p.evaluate(&ctx(a, AsnId(5), ActionType::Follow, Direction::Outbound, 500, 50));
            assert_eq!(d.pass, 50, "bin {bin}");
            assert_eq!(d.excess, Countermeasure::None);
        }
    }

    #[test]
    fn enforcement_targets_carry_their_bin_tag() {
        let p = policy();
        let treated = account_in_bin(0);
        let control = account_in_bin(2);
        let d = p.evaluate(&ctx(treated, AsnId(5), ActionType::Follow, Direction::Outbound, 20, 50));
        assert_eq!(d.bin, Some(0));
        // Control traffic is untouched but still attributed to its bin.
        let d = p.evaluate(&ctx(control, AsnId(5), ActionType::Follow, Direction::Outbound, 20, 50));
        assert_eq!(d.bin, Some(2));
        assert_eq!(d.pass, 50);
        // Traffic outside the threshold table is not an experiment subject.
        let d = p.evaluate(&ctx(treated, AsnId(9), ActionType::Follow, Direction::Outbound, 20, 50));
        assert_eq!(d.bin, None);
    }

    #[test]
    fn inbound_collusion_threshold_applies() {
        let p = policy();
        let a = account_in_bin(0);
        let d = p.evaluate(&ctx(a, AsnId(6), ActionType::Like, Direction::Inbound, 35, 20));
        assert_eq!(d.pass, 5);
        assert_eq!(d.excess, Countermeasure::Block);
    }

    #[test]
    fn epilogue_blocks_likes_and_delays_follows() {
        let mut t = ThresholdTable::default();
        t.set(AsnId(5), ActionType::Follow, Direction::Outbound, 30);
        t.set(AsnId(5), ActionType::Like, Direction::Outbound, 30);
        let p = ExperimentPolicy::new(t, BinAssignment::broad(BinPolicy::Epilogue));
        let a = account_in_bin(0);
        let d = p.evaluate(&ctx(a, AsnId(5), ActionType::Follow, Direction::Outbound, 30, 10));
        assert_eq!(d.excess, Countermeasure::DelayRemoval);
        let d = p.evaluate(&ctx(a, AsnId(5), ActionType::Like, Direction::Outbound, 30, 10));
        assert_eq!(d.excess, Countermeasure::Block);
        // Control bin exempt.
        let c = account_in_bin(2);
        let d = p.evaluate(&ctx(c, AsnId(5), ActionType::Like, Direction::Outbound, 500, 10));
        assert_eq!(d.pass, 10);
    }

    #[test]
    fn broad_policy_treats_ninety_percent() {
        let mut t = ThresholdTable::default();
        t.set(AsnId(5), ActionType::Follow, Direction::Outbound, 30);
        let p = ExperimentPolicy::new(t, BinAssignment::broad(BinPolicy::Delay));
        let mut treated = 0;
        for bin in 0..NUM_BINS {
            let a = account_in_bin(bin);
            let d =
                p.evaluate(&ctx(a, AsnId(5), ActionType::Follow, Direction::Outbound, 100, 10));
            if d.pass == 0 && d.excess == Countermeasure::DelayRemoval {
                treated += 1;
            }
        }
        assert_eq!(treated, 9);
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
        let bins = BinAssignment::narrow();
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
