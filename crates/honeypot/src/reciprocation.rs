//! Quantifying reciprocation (§4.3, Table 5).
//!
//! For each reciprocity service and each outbound action type (likes,
//! follows), the honeypot cohorts measure the probability that an outbound
//! action spontaneously generates a reciprocated inbound like or follow —
//! split by empty vs lived-in honeypots.

use crate::framework::{HoneypotFramework, HoneypotKind};
use footsteps_sim::prelude::*;
use serde::{Deserialize, Serialize};

/// One cell of Table 5: honeypots of one (service, outbound type, profile
/// kind) cohort.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ReciprocationCell {
    /// Outbound actions of the requested type that visibly succeeded.
    pub outbound: u64,
    /// Inbound likes received.
    pub inbound_likes: u64,
    /// Inbound follows received.
    pub inbound_follows: u64,
}

impl ReciprocationCell {
    /// P(inbound like | outbound action).
    pub fn like_rate(&self) -> f64 {
        if self.outbound == 0 {
            0.0
        } else {
            self.inbound_likes as f64 / self.outbound as f64
        }
    }

    /// P(inbound follow | outbound action).
    pub fn follow_rate(&self) -> f64 {
        if self.outbound == 0 {
            0.0
        } else {
            self.inbound_follows as f64 / self.outbound as f64
        }
    }
}

/// A Table 5 row: service × outbound type × profile kind, with rates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table5Row {
    /// Service measured.
    pub service: ServiceId,
    /// Whether the cohort is lived-in (vs empty).
    pub lived_in: bool,
    /// Outbound action type the cohort requested.
    pub outbound: ActionType,
    /// Measured cell.
    pub cell: ReciprocationCell,
}

/// Measure reciprocation for every (service, like/follow, empty/lived-in)
/// cohort registered in the framework, over `[start, end)`.
pub fn measure(
    framework: &HoneypotFramework,
    platform: &Platform,
    services: &[ServiceId],
    start: Day,
    end: Day,
) -> Vec<Table5Row> {
    let mut rows = Vec::new();
    for &service in services {
        for outbound in [ActionType::Like, ActionType::Follow] {
            for lived_in in [false, true] {
                let mut cell = ReciprocationCell::default();
                for r in framework.records_for(service) {
                    if r.requested != Some(outbound) {
                        continue;
                    }
                    let is_lived_in = r.kind == HoneypotKind::LivedIn;
                    if is_lived_in != lived_in {
                        continue;
                    }
                    // Outbound: the service's delivered+deferred actions of
                    // the requested type. Inbound: everything that landed.
                    for log in platform.log.iter_range(start, end) {
                        for (k, counts) in log.outbound() {
                            if k.account == r.account {
                                cell.outbound += u64::from(counts.visible_success_of(outbound));
                            }
                        }
                        if let Some(inb) = log.inbound_of(r.account) {
                            cell.inbound_likes +=
                                u64::from(inb.delivered[ActionType::Like.index()]);
                            cell.inbound_follows +=
                                u64::from(inb.delivered[ActionType::Follow.index()]);
                        }
                    }
                }
                if cell.outbound > 0 {
                    rows.push(Table5Row { service, lived_in, outbound, cell });
                }
            }
        }
    }
    rows
}

/// Convenience lookup into a measured table.
pub fn find_row(
    rows: &[Table5Row],
    service: ServiceId,
    outbound: ActionType,
    lived_in: bool,
) -> Option<&Table5Row> {
    rows.iter()
        .find(|r| r.service == service && r.outbound == outbound && r.lived_in == lived_in)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use crate::framework::HoneypotFramework;
    use footsteps_aas::{presets, PaymentLedger, ReciprocityService, Service};
    use footsteps_sim::population::{synthesize, PopulationConfig, ResidentialIndex};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// End-to-end Table 5 shape test: register cohorts with Boostgram and
    /// Instalex, run the trial, and check the paper's qualitative findings.
    #[test]
    fn table5_shape_holds_end_to_end() {
        let mut reg = AsnRegistry::new();
        for c in Country::ALL {
            reg.register(&format!("res-{}", c.code()), c, AsnKind::Residential, 50_000);
        }
        let host_bg = reg.register("bg-host", Country::Us, AsnKind::Hosting, 10_000);
        let host_ix = reg.register("ix-host", Country::Us, AsnKind::Hosting, 10_000);
        let residential = ResidentialIndex::build(&reg);
        let mut platform =
            Platform::new(reg, PlatformConfig::default(), SmallRng::seed_from_u64(230));
        let mut rng = SmallRng::seed_from_u64(231);
        let pop = synthesize(
            &mut platform.accounts,
            &residential,
            &PopulationConfig { size: 12_000, ..PopulationConfig::default() },
            &mut rng,
        );
        let mut boostgram = {
            let mut cfg = presets::boostgram_config(0.01);
            cfg.pool_size = 2_000;
            cfg.lifecycle.arrival_rate = 0.0;
            cfg.lifecycle.initial_long_term = 0;
            Service::Reciprocity(ReciprocityService::new(
                cfg,
                &platform.accounts,
                &pop,
                vec![host_bg],
                SmallRng::seed_from_u64(232),
            ))
        };
        let mut instalex = {
            let mut cfg = presets::instalex_config(0.01);
            cfg.pool_size = 1_000;
            cfg.lifecycle.arrival_rate = 0.0;
            cfg.lifecycle.initial_long_term = 0;
            Service::Reciprocity(ReciprocityService::new(
                cfg,
                &platform.accounts,
                &pop,
                vec![host_ix],
                SmallRng::seed_from_u64(233),
            ))
        };
        let mut framework = HoneypotFramework::new(AsnId(0), SmallRng::seed_from_u64(234));
        let mut ledger = PaymentLedger::new();
        platform.begin_day(Day(0));
        framework.setup_celebrities(&mut platform, 20);
        // Larger cohorts than the paper's 10 to tame sampling noise in a
        // single-seed test.
        run_campaign(&mut framework, &mut platform, &mut boostgram, &mut ledger, Day(0), 12, 0);
        run_campaign(&mut framework, &mut platform, &mut instalex, &mut ledger, Day(0), 12, 0);
        // Trials run ≤7 days; monitor through day 16 to drain responses.
        for d in 0..16u32 {
            platform.begin_day(Day(d));
            boostgram.run_day(&mut platform, &residential, &mut ledger, Day(d));
            instalex.run_day(&mut platform, &residential, &mut ledger, Day(d));
        }
        let rows = measure(
            &framework,
            &platform,
            &[ServiceId::Boostgram, ServiceId::Instalex],
            Day(0),
            Day(16),
        );

        // --- The paper's qualitative findings -----------------------------
        let bg_like_e = find_row(&rows, ServiceId::Boostgram, ActionType::Like, false).unwrap();
        let bg_like_l = find_row(&rows, ServiceId::Boostgram, ActionType::Like, true).unwrap();
        let bg_follow_e =
            find_row(&rows, ServiceId::Boostgram, ActionType::Follow, false).unwrap();
        let ix_like_e = find_row(&rows, ServiceId::Instalex, ActionType::Like, false).unwrap();

        // 1. Likes→likes rates sit in the low single-digit percent range.
        let r = bg_like_e.cell.like_rate();
        assert!((0.005..0.06).contains(&r), "empty like→like rate {r}");

        // 2. Lived-in accounts draw notably more reciprocal likes.
        assert!(
            bg_like_l.cell.like_rate() > 1.25 * bg_like_e.cell.like_rate(),
            "lived-in {} vs empty {}",
            bg_like_l.cell.like_rate(),
            bg_like_e.cell.like_rate()
        );

        // 3. Follows reciprocate at ~10%+, an order of magnitude above likes.
        let fr = bg_follow_e.cell.follow_rate();
        assert!((0.05..0.25).contains(&fr), "follow→follow rate {fr}");
        assert!(fr > 3.0 * bg_like_e.cell.like_rate());

        // 4. Users never like back after being followed.
        assert_eq!(bg_follow_e.cell.inbound_likes, 0, "follow→like is zero");

        // 5. The Instalex anomaly: its like campaigns earn far more
        //    follow-backs than Boostgram's.
        assert!(
            ix_like_e.cell.follow_rate() > 3.0 * bg_like_e.cell.follow_rate(),
            "Instalex {} vs Boostgram {}",
            ix_like_e.cell.follow_rate(),
            bg_like_e.cell.follow_rate()
        );
    }

    #[test]
    fn cell_rates_handle_zero_outbound() {
        let c = ReciprocationCell::default();
        assert_eq!(c.like_rate(), 0.0);
        assert_eq!(c.follow_rate(), 0.0);
    }
}
