//! Robustness checks: the paper's qualitative findings must hold across
//! seeds (no single-seed luck), and the Followersgratis exclusion premise
//! must emerge from the substrate's baseline defenses.

use footsteps_analysis::customer_base;
use footsteps_core::{results, Scenario, Study};
use footsteps_sim::prelude::*;

/// Key shape findings hold for several seeds of the smoke scenario.
#[test]
fn headline_shapes_hold_across_seeds() {
    for seed in [3, 17, 101] {
        let mut study = Study::new(Scenario::smoke(seed));
        study.run_characterization();
        study.run_narrow();
        study.run_broad();

        // Long-term shares sit in plausible bands for every seed.
        let class = results::business_classification(&study);
        for group in ServiceGroup::BUSINESS {
            let row = customer_base(&class, group);
            // Boostgram is tiny at 1/500 scale (paper: 12k customers).
            let floor = if group == ServiceGroup::Boostgram { 8 } else { 50 };
            assert!(row.customers > floor, "seed {seed} {group}: {row:?}");
            assert!(
                (0.15..=0.75).contains(&row.long_term_share()),
                "seed {seed} {group}: LT share {}",
                row.long_term_share()
            );
        }

        // The block/delay asymmetry (the paper's core claim) is seed-proof.
        let f7 = results::figure7(&study);
        let delay_week = f7.treated.mean_over(study.timeline.broad_start, f7.switch_day);
        let block_week = f7
            .treated
            .mean_over(f7.switch_day, study.timeline.epilogue_start);
        assert!(
            block_week < 0.6 * delay_week,
            "seed {seed}: block {block_week} vs delay {delay_week}"
        );

        // Targeting bias holds for every seed.
        assert!(results::figures34(&study).bias_holds(), "seed {seed}");
    }
}

/// §5's premise for excluding Followersgratis: its traffic comes from a
/// handful of addresses, so once its membership reaches real volume, the
/// platform's *pre-existing* IP-volume defense (not the experimental
/// countermeasures) blocks most of it — while an otherwise-identical
/// service with a large address pool sails through.
#[test]
fn followersgratis_is_neutered_by_the_ip_volume_defense() {
    use footsteps_aas::{presets, CollusionService, PaymentLedger};
    use footsteps_sim::net::{AsnKind, AsnRegistry};
    use footsteps_sim::population::{synthesize, PopulationConfig, ResidentialIndex};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let mut reg = AsnRegistry::new();
    for c in Country::ALL {
        reg.register(&format!("res-{}", c.code()), c, AsnKind::Residential, 50_000);
    }
    // The defining difference: one tiny block, one huge one.
    let fg_asn = reg.register("fg-host", Country::Id, AsnKind::Hosting, 256);
    let big_asn = reg.register("big-host", Country::Gb, AsnKind::Hosting, 40_000);
    let residential = ResidentialIndex::build(&reg);
    let mut platform = Platform::new(
        reg,
        PlatformConfig::default(),
        SmallRng::seed_from_u64(50),
    );
    let mut rng = SmallRng::seed_from_u64(51);
    let _pop = synthesize(
        &mut platform.accounts,
        &residential,
        &PopulationConfig { size: 2_000, ..PopulationConfig::default() },
        &mut rng,
    );
    let mk = |ip_pool: u32, asn: AsnId, seed: u64| {
        let mut cfg = presets::followersgratis_config(0.05);
        cfg.ip_pool_size = ip_pool;
        cfg.lifecycle.arrival_rate = 10.0;
        cfg.lifecycle.initial_long_term = 150;
        CollusionService::new(cfg, vec![asn], SmallRng::seed_from_u64(seed))
    };
    let mut fg = mk(3, fg_asn, 52);
    let mut big = mk(4_000, big_asn, 53);
    let mut ledger = PaymentLedger::new();
    platform.begin_day(Day(0));
    fg.seed_initial_customers(&mut platform, &residential, &mut ledger, Day(0));
    big.seed_initial_customers(&mut platform, &residential, &mut ledger, Day(0));
    for d in 0..10u32 {
        platform.begin_day(Day(d));
        fg.run_day(&mut platform, &residential, &mut ledger, Day(d));
        big.run_day(&mut platform, &residential, &mut ledger, Day(d));
    }

    let blocked_ratio = |asn: AsnId, platform: &Platform| {
        let mut attempted = 0u64;
        let mut blocked = 0u64;
        for log in platform.log.iter_range(Day(0), Day(10)) {
            for (key, counts) in log.outbound() {
                if key.asn == asn {
                    attempted += u64::from(counts.total_attempted());
                    blocked += u64::from(
                        ActionType::ALL
                            .iter()
                            .map(|&t| counts.blocked_of(t))
                            .sum::<u32>(),
                    );
                }
            }
        }
        assert!(attempted > 0, "{asn}: no traffic");
        blocked as f64 / attempted as f64
    };
    let fg_ratio = blocked_ratio(fg_asn, &platform);
    let big_ratio = blocked_ratio(big_asn, &platform);
    assert!(
        fg_ratio > 0.3,
        "the 3-IP service loses much of its volume to the edge: {fg_ratio}"
    );
    assert!(
        big_ratio < 0.05,
        "the large-pool service is untouched: {big_ratio}"
    );
    // The blocks are the edge defense's, not experimental countermeasures.
    let snapshot = platform.obs.metrics.snapshot();
    assert!(snapshot.counter("platform.outbound.edge_blocked") > 0);
    assert_eq!(snapshot.counter("platform.outbound.blocked"), 0);
}
