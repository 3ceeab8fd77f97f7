//! Property-based tests over the core data structures and invariants.

use footsteps_aas::{Payment, PaymentKind, PaymentLedger};
use footsteps_analysis::Ecdf;
use footsteps_sim::actions::{ActionOutcome, ActionType, TypeCounts};
use footsteps_sim::behavior::{followback_tendency, sample_binomial, synthesize_profile, BehaviorParams};
use footsteps_sim::prelude::{
    AccountId, ActionLog, AsnId, AsnKind, AsnRegistry, BatchRequest, ClientFingerprint, Country,
    DayLog, IpAddr4, OutboundKey, Platform, PlatformConfig, PoolStats, ProfileKind,
    ReciprocityProfile, ServiceId,
};
use footsteps_sim::rng::stable_bin;
use footsteps_sim::time::{Day, SimTime};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

fn any_outcome() -> impl Strategy<Value = ActionOutcome> {
    prop_oneof![
        Just(ActionOutcome::Delivered),
        Just(ActionOutcome::Blocked),
        Just(ActionOutcome::DeferredRemoval),
    ]
}

fn any_action() -> impl Strategy<Value = ActionType> {
    prop_oneof![
        Just(ActionType::Like),
        Just(ActionType::Follow),
        Just(ActionType::Comment),
        Just(ActionType::Post),
        Just(ActionType::Unfollow),
    ]
}

/// One day of the day-log model: every row keyed as the log keys it.
#[derive(Default)]
struct DayModel {
    outbound: BTreeMap<OutboundKey, TypeCounts>,
    inbound: BTreeMap<(AccountId, Option<AsnId>), TypeCounts>,
    logins: BTreeMap<(AccountId, AsnId), u32>,
}

/// The sum of `rows`, or `None` if there are none.
fn merged<'a>(rows: impl Iterator<Item = &'a TypeCounts>) -> Option<TypeCounts> {
    rows.copied().reduce(|mut total, c| {
        total.merge(&c);
        total
    })
}

/// A day's queries agree with its model, for every account and ASN the
/// writes can name and one more of each that they never do.
fn queries_match_model(day: &DayLog, model: &DayModel) {
    let d = day.day();
    for account in (0..5).map(AccountId) {
        for asn in (0..4).map(AsnId) {
            let out = model.outbound.iter().filter(|(k, _)| (k.account, k.asn) == (account, asn));
            let out = merged(out.map(|(_, c)| c));
            assert_eq!(day.outbound_at(account, asn), out, "{d:?} {account} {asn}");
            let from = model.inbound.get(&(account, Some(asn)));
            assert_eq!(day.inbound_from(account, asn), from, "{d:?} {account} {asn}");
        }
        for ty in ActionType::ALL {
            let out = model.outbound.iter().filter(|(k, _)| k.account == account);
            let attempted: u32 = out.map(|(_, c)| c.attempted_of(ty)).sum();
            assert_eq!(day.outbound_attempted(account, ty), attempted, "{d:?} {account} {ty}");
        }
        let inbound = model.inbound.range((account, None)..=(account, Some(AsnId(u32::MAX))));
        let inbound = merged(inbound.map(|(_, c)| c));
        assert_eq!(day.inbound_of(account), inbound, "{d:?} {account}");
    }
}

proptest! {
    /// Every attempt lands in exactly one outcome bucket, under any sequence
    /// of recordings and merges.
    #[test]
    fn type_counts_stay_consistent(
        ops in prop::collection::vec((any_action(), any_outcome(), 0u32..500), 0..60),
        split in 0usize..60,
    ) {
        let mut a = TypeCounts::default();
        let mut b = TypeCounts::default();
        for (i, (ty, outcome, n)) in ops.iter().enumerate() {
            let target = if i < split { &mut a } else { &mut b };
            target.record(*ty, *outcome, *n);
        }
        prop_assert!(a.is_consistent());
        prop_assert!(b.is_consistent());
        a.merge(&b);
        prop_assert!(a.is_consistent());
        let total: u64 = ops.iter().map(|(_, _, n)| u64::from(*n)).sum();
        prop_assert_eq!(u64::from(a.total_attempted()), total);
    }

    /// The per-IP edge defense against a reference model: with no policy
    /// installed, each batch is refused exactly the part of it that would
    /// push its source IP's volume for the day past the cap, and the day's
    /// `Blocked` rows in the log, all of them the edge's, sum those
    /// refusals. Addresses come from a small pool in two ASNs, and days may
    /// pass between submissions.
    #[test]
    fn edge_defense_matches_a_per_day_per_ip_model(
        cap in 1u32..40,
        steps in prop::collection::vec((0u32..3, 0usize..6, 0u32..30), 1..80),
    ) {
        let mut asns = AsnRegistry::new();
        let home = asns.register("res-a", Country::Us, AsnKind::Residential, 1_000);
        let host = asns.register("host-b", Country::Ru, AsnKind::Hosting, 16);
        let pool: Vec<_> = (0..3u32)
            .map(|k| (home, asns.ip_in(home, k * 300)))
            .chain((0..3u32).map(|k| (host, asns.ip_in(host, k))))
            .collect();
        let config = PlatformConfig { ip_daily_action_cap: cap, ..PlatformConfig::default() };
        let mut p = Platform::new(asns, config, SmallRng::seed_from_u64(5));
        let actor = p.accounts.create(
            SimTime::EPOCH,
            ProfileKind::Organic,
            Country::Us,
            home,
            0,
            0,
            ReciprocityProfile::SILENT,
        );
        let mut used: BTreeMap<(Day, IpAddr4), u32> = BTreeMap::new();
        let mut edge_blocked: BTreeMap<Day, u32> = BTreeMap::new();
        let mut day = Day(0);
        p.begin_day(day);
        for (advance, k, count) in steps {
            if advance > 0 {
                day = day.plus(advance);
                p.begin_day(day);
            }
            let (asn, ip) = pool[k];
            let r = p.submit_batch(BatchRequest {
                actor,
                action: ActionType::Like,
                count,
                asn,
                ip,
                fingerprint: ClientFingerprint::SpoofedMobile { variant: 1 },
                pool: PoolStats::INERT,
                service: Some(ServiceId::Followersgratis),
            });
            let spent = used.entry((day, ip)).or_insert(0);
            let pass = count.min(cap - *spent);
            *spent += pass;
            *edge_blocked.entry(day).or_insert(0) += count - pass;
            prop_assert_eq!(r.blocked, count - pass);
            prop_assert_eq!(r.delivered, pass);
        }
        for d in 0..=day.0 {
            let expected = edge_blocked.get(&Day(d)).copied().unwrap_or(0);
            let logged: u32 = p
                .log
                .day(Day(d))
                .map_or(0, |log| log.outbound().map(|(_, c)| c.blocked_of(ActionType::Like)).sum());
            prop_assert_eq!(logged, expected, "day {}", d);
        }
    }

    /// The day log against a `BTreeMap` model. Outbound, inbound and login
    /// writes land on nondecreasing days, with few accounts, ASNs and
    /// fingerprints so that keys collide on the account. The queries agree
    /// with the model on the open day and on every sealed one, a sealed
    /// day's rows are the model's in key order, and its JSON line reads
    /// back to the same bytes.
    #[test]
    fn day_log_matches_a_btreemap_model(
        writes in prop::collection::vec(
            ((0u32..8, 0u32..3), 0u32..4, 0u32..3, 0u16..2, any_action(), any_outcome(), 1u32..50),
            1..120,
        ),
    ) {
        let mut log = ActionLog::new();
        let mut model = vec![DayModel::default()];
        for ((step, kind), account, asn, variant, ty, outcome, n) in writes {
            // One write in four moves the log one or two days on first.
            let advance = step.saturating_sub(5) as usize;
            if advance > 0 {
                let open = model.len() - 1;
                if let Some(day) = log.day(Day(open as u32)) {
                    queries_match_model(day, &model[open]);
                }
                model.resize_with(open + advance + 1, DayModel::default);
            }
            let today = model.len() - 1;
            let (day, m) = (Day(today as u32), &mut model[today]);
            let (account, asn) = (AccountId(account), AsnId(asn));
            match kind {
                0 => {
                    let fingerprint = match variant {
                        0 => ClientFingerprint::OfficialApp,
                        variant => ClientFingerprint::SpoofedMobile { variant },
                    };
                    log.record_outbound(day, account, asn, fingerprint, ty, outcome, n);
                    let key = OutboundKey { account, asn, fingerprint };
                    m.outbound.entry(key).or_default().record(ty, outcome, n);
                }
                1 => {
                    let source = (asn.0 < 2).then_some(asn);
                    log.record_inbound_with(day, account, source, ty, outcome, n);
                    m.inbound.entry((account, source)).or_default().record(ty, outcome, n);
                }
                _ => {
                    log.record_login(day, account, asn);
                    *m.logins.entry((account, asn)).or_default() += 1;
                }
            }
        }
        let last = Day(model.len() as u32 - 1);
        queries_match_model(log.day(last).expect("the open day"), &model[last.0 as usize]);
        log.seal(last);
        for (d, m) in model.iter().enumerate() {
            let sealed = log.day(Day(d as u32)).expect("every day up to the last");
            queries_match_model(sealed, m);
            let outbound: Vec<_> = sealed.outbound().map(|(k, c)| (*k, *c)).collect();
            let inbound: Vec<_> = sealed.inbound().map(|(k, c)| (*k, *c)).collect();
            let logins: Vec<_> =
                sealed.logins().iter().map(|r| ((r.account, r.asn), r.count)).collect();
            prop_assert_eq!(outbound, m.outbound.clone().into_iter().collect::<Vec<_>>());
            prop_assert_eq!(inbound, m.inbound.clone().into_iter().collect::<Vec<_>>());
            prop_assert_eq!(logins, m.logins.clone().into_iter().collect::<Vec<_>>());
            let line = serde_json::to_string(sealed).unwrap();
            let back: DayLog = serde_json::from_str(&line).unwrap();
            prop_assert_eq!(serde_json::to_string(&back).unwrap(), line);
        }
    }

    /// Binomial samples are always within [0, n] and deterministic per seed.
    #[test]
    fn binomial_bounds_and_determinism(n in 0u32..200_000, p in 0.0f64..=1.0, seed in any::<u64>()) {
        let mut a = SmallRng::seed_from_u64(seed);
        let mut b = SmallRng::seed_from_u64(seed);
        let ka = sample_binomial(&mut a, n, p);
        let kb = sample_binomial(&mut b, n, p);
        prop_assert!(ka <= n);
        prop_assert_eq!(ka, kb);
    }

    /// Synthesized reciprocity profiles are valid probabilities for any
    /// tendency/quirk input.
    #[test]
    fn profiles_always_valid(tendency in 0.0f64..=1.0, quirk in 0.0f64..1.0) {
        let profile = synthesize_profile(&BehaviorParams::default(), tendency, quirk);
        prop_assert!(profile.is_valid());
    }

    /// Followback tendency is bounded and monotone in the degree ratio.
    #[test]
    fn tendency_bounded(following in 0u32..1_000_000, followers in 0u32..1_000_000, noise in 0.0f64..1.0) {
        let t = followback_tendency(following, followers, noise);
        prop_assert!((0.0..=1.0).contains(&t));
        // Adding followers (keeping following fixed) never increases tendency.
        let t2 = followback_tendency(following, followers.saturating_add(10_000), noise);
        prop_assert!(t2 <= t + 1e-9);
    }

    /// Bin assignment is total, stable and in-range.
    #[test]
    fn stable_bin_total(key in any::<u64>(), bins in 1u32..64) {
        let b = stable_bin(key, bins);
        prop_assert!(b < bins);
        prop_assert_eq!(b, stable_bin(key, bins));
    }

    /// The ECDF is a valid CDF: within [0,1], monotone, 1 at the max.
    #[test]
    fn ecdf_is_a_cdf(values in prop::collection::vec(0u32..100_000, 1..300)) {
        let max = *values.iter().max().unwrap();
        let e = Ecdf::new(values.clone());
        let mut prev = 0.0;
        for x in [0u32, 1, 10, 100, 1_000, 10_000, 100_000] {
            let p = e.cdf(x);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!(p >= prev);
            prev = p;
        }
        prop_assert_eq!(e.cdf(max), 1.0);
        // Quantiles are members of the sample.
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            prop_assert!(values.contains(&e.quantile(q)));
        }
    }

    /// Ledger revenue splits: new + preexisting always equals the window's
    /// gross (ads excluded), for any payment history.
    #[test]
    fn ledger_split_adds_up(
        payments in prop::collection::vec((0u32..90, 0u32..30, 1u64..10_000), 0..120),
    ) {
        let mut ledger = PaymentLedger::new();
        for (day, account, cents) in &payments {
            ledger.record(Payment {
                day: Day(*day),
                account: AccountId(*account),
                service: ServiceId::Boostgram,
                cents: *cents,
                kind: PaymentKind::Subscription,
            });
        }
        let (new, pre) = ledger.new_vs_preexisting(ServiceId::Boostgram, Day(30), Day(60));
        let gross = ledger.gross_in(ServiceId::Boostgram, Day(30), Day(60));
        prop_assert_eq!(new + pre, gross);
    }
}
