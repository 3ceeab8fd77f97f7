//! Registration campaigns (§4.1.2).
//!
//! "We registered 10 honeypot accounts for every service type offered by
//! each AAS […] Among each set of 10 accounts, nine are empty and one is
//! lived-in."
//!
//! The campaign layer sits between the framework (which owns accounts) and
//! the service engines (which own enrollments).

use crate::framework::{HoneypotFramework, HoneypotKind};
use footsteps_aas::catalog::offerings;
use footsteps_aas::{PaymentLedger, Service};
use footsteps_sim::prelude::*;

/// Outcome of one campaign: the accounts registered per action type.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Service targeted.
    pub service: ServiceId,
    /// `(requested type, accounts)` per offered service type.
    pub cohorts: Vec<(ActionType, Vec<AccountId>)>,
}

impl CampaignReport {
    /// Total accounts registered in this campaign.
    pub fn total_accounts(&self) -> usize {
        self.cohorts.iter().map(|(_, a)| a.len()).sum()
    }
}

/// Register a full measurement campaign against one service: for every
/// offered action type, `per_type` accounts (one lived-in, the rest empty).
/// `paid_per_type` of each cohort purchase service instead of relying on the
/// trial.
pub fn run_campaign(
    framework: &mut HoneypotFramework,
    platform: &mut Platform,
    service: &mut Service,
    ledger: &mut PaymentLedger,
    day: Day,
    per_type: usize,
    paid_per_type: usize,
) -> CampaignReport {
    assert!(per_type >= 1);
    assert!(paid_per_type <= per_type);
    let id = service.id();
    let mut cohorts = Vec::new();
    for ty in offerings(id).offered_types() {
        let mut accounts = Vec::with_capacity(per_type);
        for i in 0..per_type {
            // One lived-in account per cohort of ten (§4.1.2). It goes
            // first, which also makes it one of the paying accounts when
            // `paid_per_type > 0` — paid service runs longer than the trial
            // and gives the lived-in measurements a usable sample size.
            let kind = if i == 0 {
                HoneypotKind::LivedIn
            } else {
                HoneypotKind::Empty
            };
            let account = framework.create_account(platform, kind);
            let paid = i < paid_per_type;
            match service {
                Service::Reciprocity(s) => s.enroll_honeypot(account, ty, paid, day, ledger),
                // Paid collusion probes buy the cheapest monthly like tier —
                // the probes behind the 160 likes/hour finding (§5.2).
                Service::Collusion(s) => {
                    s.enroll_honeypot(account, ty, paid.then_some(0), day, ledger)
                }
            }
            framework.note_registration(account, id, ty, paid, day);
            accounts.push(account);
        }
        cohorts.push((ty, accounts));
    }
    CampaignReport {
        service: id,
        cohorts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::HoneypotFramework;
    use footsteps_aas::{presets, ReciprocityService};
    use footsteps_sim::population::{synthesize, PopulationConfig, ResidentialIndex};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn world() -> (
        Platform,
        ResidentialIndex,
        HoneypotFramework,
        Service,
        PaymentLedger,
    ) {
        let mut reg = AsnRegistry::new();
        for c in Country::ALL {
            reg.register(&format!("res-{}", c.code()), c, AsnKind::Residential, 50_000);
        }
        let host = reg.register("ix-host", Country::Us, AsnKind::Hosting, 10_000);
        let residential = ResidentialIndex::build(&reg);
        let mut platform =
            Platform::new(reg, PlatformConfig::default(), SmallRng::seed_from_u64(10));
        let mut rng = SmallRng::seed_from_u64(11);
        let pop = synthesize(
            &mut platform.accounts,
            &residential,
            &PopulationConfig { size: 3_000, ..PopulationConfig::default() },
            &mut rng,
        );
        let mut cfg = presets::instalex_config(0.01);
        cfg.pool_size = 500;
        let svc = Service::Reciprocity(ReciprocityService::new(
            cfg,
            &platform.accounts,
            &pop,
            vec![host],
            SmallRng::seed_from_u64(12),
        ));
        let mut framework = HoneypotFramework::new(AsnId(0), SmallRng::seed_from_u64(13));
        platform.begin_day(Day(0));
        framework.setup_celebrities(&mut platform, 20);
        (platform, residential, framework, svc, PaymentLedger::new())
    }

    #[test]
    fn campaign_covers_every_offered_type() {
        let (mut platform, _res, mut framework, mut svc, mut ledger) = world();
        let report = run_campaign(
            &mut framework,
            &mut platform,
            &mut svc,
            &mut ledger,
            Day(0),
            10,
            2,
        );
        // Instalex offers like, follow, post, unfollow (Table 1): 4 types.
        assert_eq!(report.cohorts.len(), 4);
        assert_eq!(report.total_accounts(), 40);
        for (ty, accounts) in &report.cohorts {
            assert_eq!(accounts.len(), 10, "{ty}");
            // Exactly one lived-in per cohort.
            let lived_in = accounts
                .iter()
                .filter(|&&a| {
                    platform.accounts.get(a).kind == ProfileKind::HoneypotLivedIn
                })
                .count();
            assert_eq!(lived_in, 1, "{ty}");
        }
        // Paid registrations hit the ledger: 2 per cohort × 4 cohorts.
        assert_eq!(
            ledger.distinct_payers_in(ServiceId::Instalex, Day(0), Day(1)),
            8
        );
    }

    #[test]
    fn registered_honeypots_receive_service() {
        let (mut platform, residential, mut framework, mut svc, mut ledger) = world();
        let report = run_campaign(
            &mut framework,
            &mut platform,
            &mut svc,
            &mut ledger,
            Day(0),
            3,
            0,
        );
        for d in 0..3u32 {
            platform.begin_day(Day(d));
            svc.run_day(&mut platform, &residential, &mut ledger, Day(d));
        }
        let (ty, accounts) = &report.cohorts[0];
        for &a in accounts {
            assert!(
                platform.log.total_outbound(a, *ty, Day(0), Day(3)) > 0,
                "honeypot {a} must be driven for {ty}"
            );
        }
    }
}
