//! Property-based tests over the core data structures and invariants.

use footsteps_aas::{Payment, PaymentKind, PaymentLedger};
use footsteps_analysis::Ecdf;
use footsteps_sim::actions::{ActionOutcome, ActionType, TypeCounts};
use footsteps_sim::behavior::{followback_tendency, sample_binomial, synthesize_profile, BehaviorParams};
use footsteps_sim::prelude::{
    AccountId, AsnKind, AsnRegistry, BatchRequest, ClientFingerprint, Country, IpAddr4, Platform,
    PlatformConfig, PoolStats, ProfileKind, ReciprocityProfile, ServiceId,
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
    /// `edge_blocked` metric sums those refusals. Addresses come from a
    /// small pool in two ASNs, and days may pass between submissions.
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
            prop_assert_eq!(p.metrics(Day(d)).edge_blocked, expected, "day {}", d);
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
