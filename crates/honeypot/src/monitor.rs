//! Monitoring and attribution (§4.1.3, §4.2).
//!
//! Honeypots are useful because "since they neither generate nor receive
//! organic actions, we can attribute all activity to the linked AAS". The
//! monitor validates that premise against the inactive baseline, verifies
//! advertised vs delivered trial lengths, and summarises per-honeypot
//! activity.

use crate::framework::{HoneypotFramework, HoneypotKind};
use footsteps_sim::prelude::*;

/// Activity summary for one honeypot over a window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActivitySummary {
    /// Outbound actions attempted from the account (all types).
    pub outbound: u64,
    /// Inbound actions delivered to the account (all types).
    pub inbound: u64,
    /// First day with outbound activity, if any.
    pub first_active: Option<Day>,
    /// Last day with outbound activity, if any.
    pub last_active: Option<Day>,
}

/// Summarise a honeypot's activity over `[start, end)`.
pub fn summarize(
    platform: &Platform,
    account: AccountId,
    start: Day,
    end: Day,
) -> ActivitySummary {
    let mut s = ActivitySummary::default();
    for log in platform.log.iter_range(start, end) {
        let day = log.day();
        let out: u64 = ActionType::ALL
            .iter()
            .map(|&ty| u64::from(log.outbound_attempted(account, ty)))
            .sum();
        if out > 0 {
            s.outbound += out;
            if s.first_active.is_none() {
                s.first_active = Some(day);
            }
            s.last_active = Some(day);
        }
        if let Some(inb) = log.inbound_of(account) {
            s.inbound += u64::from(inb.total_attempted());
        }
    }
    s
}

/// Total inbound actions received by the inactive baseline accounts over a
/// window. The attribution premise requires this to be **zero**: "for the
/// duration of our study, we did not observe any activity on any of the
/// inactive honeypot accounts" (§4.1.3).
pub fn baseline_inbound(framework: &HoneypotFramework, platform: &Platform, start: Day, end: Day) -> u64 {
    framework
        .records()
        .iter()
        .filter(|r| r.kind == HoneypotKind::Inactive)
        .map(|r| summarize(platform, r.account, start, end).inbound)
        .sum()
}

/// Measured trial length for a service (§4.2): the longest observed span of
/// outbound activity on *free* (unpaid) honeypots registered with it. The
/// paper found every service matches its advertised period except Instazood
/// (advertises 3 days, delivers 7).
pub fn observed_trial_days(
    framework: &HoneypotFramework,
    platform: &Platform,
    service: ServiceId,
    horizon: Day,
) -> Option<u32> {
    framework
        .records_for(service)
        .filter(|r| !r.paid)
        .filter_map(|r| {
            let enrolled = r.enrolled_on?;
            let s = summarize(platform, r.account, enrolled, horizon);
            let last = s.last_active?;
            Some(last.days_since(enrolled) + 1)
        })
        .max()
}

/// §4.2 "How Accounts Are Used": verify the services only perform actions of
/// the requested types. Returns, per honeypot, any outbound action types
/// observed that were *not* requested (excluding the setup actions the
/// framework itself performs: posts and — for unfollow requests — the
/// follow/unfollow pairs the service must create).
pub fn unrequested_action_types(
    framework: &HoneypotFramework,
    platform: &Platform,
    start: Day,
    end: Day,
) -> Vec<(AccountId, Vec<ActionType>)> {
    let mut offenders = Vec::new();
    for r in framework.records() {
        let Some(requested) = r.requested else { continue };
        let enrolled = r.enrolled_on.unwrap_or(start);
        let from = enrolled.max(start);
        // The framework's own management actions (photo uploads, lived-in
        // setup follows) originate from the honeypot's home network; only
        // traffic from other ASNs is the service's doing.
        let home = platform.accounts.get(r.account).home_asn;
        let mut unexpected = Vec::new();
        for ty in ActionType::ALL {
            if ty == requested {
                continue;
            }
            // An unfollow service necessarily produces follows as well.
            if requested == ActionType::Unfollow && ty == ActionType::Follow {
                continue;
            }
            let n: u64 = platform
                .log
                .iter_range(from, end)
                .flat_map(|log| log.outbound())
                .filter(|(k, _)| k.account == r.account && k.asn != home)
                .map(|(_, c)| u64::from(c.attempted_of(ty)))
                .sum();
            if n > 0 {
                unexpected.push(ty);
            }
        }
        if !unexpected.is_empty() {
            offenders.push((r.account, unexpected));
        }
    }
    offenders
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

    struct World {
        platform: Platform,
        residential: ResidentialIndex,
        framework: HoneypotFramework,
        instalex: Service,
        instazood: Service,
        ledger: PaymentLedger,
    }

    fn world() -> World {
        let mut reg = AsnRegistry::new();
        for c in Country::ALL {
            reg.register(&format!("res-{}", c.code()), c, AsnKind::Residential, 50_000);
        }
        let host = reg.register("host", Country::Us, AsnKind::Hosting, 10_000);
        let residential = ResidentialIndex::build(&reg);
        let mut platform =
            Platform::new(reg, PlatformConfig::default(), SmallRng::seed_from_u64(20));
        let mut rng = SmallRng::seed_from_u64(21);
        let pop = synthesize(
            &mut platform.accounts,
            &residential,
            &PopulationConfig { size: 3_000, ..PopulationConfig::default() },
            &mut rng,
        );
        let mk = |cfg: footsteps_aas::ReciprocityConfig, seed: u64, accounts: &_, pop: &_| {
            let mut cfg = cfg;
            cfg.pool_size = 400;
            cfg.lifecycle.arrival_rate = 0.0;
            cfg.lifecycle.initial_long_term = 0;
            let rng = SmallRng::seed_from_u64(seed);
            Service::Reciprocity(ReciprocityService::new(cfg, accounts, pop, vec![host], rng))
        };
        let instalex = mk(presets::instalex_config(0.01), 22, &platform.accounts, &pop);
        let instazood = mk(presets::instazood_config(0.01), 23, &platform.accounts, &pop);
        let mut framework = HoneypotFramework::new(AsnId(0), SmallRng::seed_from_u64(24));
        platform.begin_day(Day(0));
        framework.setup_celebrities(&mut platform, 20);
        World { platform, residential, framework, instalex, instazood, ledger: PaymentLedger::new() }
    }

    #[test]
    fn baseline_accounts_stay_silent() {
        let mut w = world();
        w.framework.create_baseline(&mut w.platform, 50);
        let _ = run_campaign(
            &mut w.framework,
            &mut w.platform,
            &mut w.instalex,
            &mut w.ledger,
            Day(0),
            3,
            0,
        );
        for d in 0..10u32 {
            w.platform.begin_day(Day(d));
            w.instalex
                .run_day(&mut w.platform, &w.residential, &mut w.ledger, Day(d));
        }
        assert_eq!(
            baseline_inbound(&w.framework, &w.platform, Day(0), Day(10)),
            0,
            "inactive honeypots must see zero inbound activity"
        );
    }

    #[test]
    fn instazood_delivers_seven_days_despite_advertising_three() {
        let mut w = world();
        let _ = run_campaign(
            &mut w.framework,
            &mut w.platform,
            &mut w.instazood,
            &mut w.ledger,
            Day(0),
            3,
            0,
        );
        for d in 0..15u32 {
            w.platform.begin_day(Day(d));
            w.instazood
                .run_day(&mut w.platform, &w.residential, &mut w.ledger, Day(d));
        }
        let measured =
            observed_trial_days(&w.framework, &w.platform, ServiceId::Instazood, Day(15))
                .expect("trial activity observed");
        assert_eq!(measured, 7, "delivered trial is 7 days, not the advertised 3");
        assert_eq!(
            footsteps_aas::catalog::reciprocity_pricing(ServiceId::Instazood)
                .advertised_trial_days,
            3
        );
    }

    #[test]
    fn services_perform_only_requested_actions() {
        let mut w = world();
        let _ = run_campaign(
            &mut w.framework,
            &mut w.platform,
            &mut w.instalex,
            &mut w.ledger,
            Day(0),
            3,
            0,
        );
        for d in 0..8u32 {
            w.platform.begin_day(Day(d));
            w.instalex
                .run_day(&mut w.platform, &w.residential, &mut w.ledger, Day(d));
        }
        let offenders =
            unrequested_action_types(&w.framework, &w.platform, Day(0), Day(8));
        assert!(
            offenders.is_empty(),
            "services perform as advertised; offenders: {offenders:?}"
        );
    }

    #[test]
    fn summarize_tracks_activity_span() {
        let mut w = world();
        let _ = run_campaign(
            &mut w.framework,
            &mut w.platform,
            &mut w.instalex,
            &mut w.ledger,
            Day(0),
            2,
            0,
        );
        for d in 0..12u32 {
            w.platform.begin_day(Day(d));
            w.instalex
                .run_day(&mut w.platform, &w.residential, &mut w.ledger, Day(d));
        }
        let account = w.framework.records()[0].account;
        let s = summarize(&w.platform, account, Day(0), Day(12));
        assert!(s.outbound > 0);
        assert_eq!(s.first_active, Some(Day(0)));
        // Instalex trial is 7 days: activity on days 0..=6.
        assert_eq!(s.last_active, Some(Day(6)));
    }
}
