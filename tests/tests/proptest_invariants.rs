//! Property-based tests over the core data structures and invariants.

use footsteps_aas::{Payment, PaymentKind, PaymentLedger};
use footsteps_analysis::Ecdf;
use footsteps_sim::actions::{ActionOutcome, ActionType, TypeCounts};
use footsteps_sim::behavior::{followback_tendency, sample_binomial, synthesize_profile, BehaviorParams};
use footsteps_sim::ratelimit::DenseWindowLimiter;
use footsteps_sim::rng::stable_bin;
use footsteps_sim::time::{Day, SimTime};
use footsteps_sim::prelude::{AccountId, ServiceId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn any_outcome() -> impl Strategy<Value = ActionOutcome> {
    prop_oneof![
        Just(ActionOutcome::Delivered),
        Just(ActionOutcome::Blocked),
        Just(ActionOutcome::DeferredRemoval),
        Just(ActionOutcome::RateLimited),
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

    /// The fixed-window limiter never grants more than its limit per window,
    /// regardless of request pattern.
    #[test]
    fn fixed_window_never_exceeds_limit(
        limit in 1u32..200,
        requests in prop::collection::vec((0u64..7_200, 1u32..300), 1..50),
    ) {
        let mut limiter = DenseWindowLimiter::new(limit, 3_600);
        let key = AccountId(1).index();
        let mut sorted = requests.clone();
        sorted.sort_by_key(|(t, _)| *t);
        let mut granted_per_window = std::collections::HashMap::new();
        for (t, n) in sorted {
            let granted = limiter.acquire(key, SimTime(t), n);
            *granted_per_window.entry(t / 3_600).or_insert(0u64) += u64::from(granted);
        }
        for (&w, &granted) in &granted_per_window {
            prop_assert!(granted <= u64::from(limit), "window {w}: {granted} > {limit}");
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
