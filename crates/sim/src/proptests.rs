//! Crate-internal property tests over substrate invariants that span
//! modules (graph × accounts, time arithmetic, country mixes).

#![cfg(test)]

use crate::account::{AccountStore, ProfileKind, ReciprocityProfile};
use crate::country::{Country, CountryMix};
use crate::graph::SocialGraph;
use crate::ids::{AccountId, AsnId};
use crate::time::{Day, SimTime, SECS_PER_DAY};
use proptest::prelude::*;

fn store_with(n: u32) -> AccountStore {
    let mut s = AccountStore::new();
    for _ in 0..n {
        s.create(
            SimTime::EPOCH,
            ProfileKind::Organic,
            Country::Us,
            AsnId(0),
            0,
            0,
            ReciprocityProfile::SILENT,
        );
    }
    s
}

proptest! {
    /// For tracked accounts, degree counters always equal exact-set sizes,
    /// under any interleaving of follow/unfollow operations.
    #[test]
    fn tracked_degrees_match_edge_sets(
        ops in prop::collection::vec((0u32..8, 0u32..8, any::<bool>()), 0..200),
    ) {
        let mut accounts = store_with(8);
        let mut graph = SocialGraph::new();
        for i in 0..8 {
            graph.track(AccountId(i));
        }
        for (from, to, is_follow) in ops {
            let (from, to) = (AccountId(from), AccountId(to));
            if is_follow {
                graph.follow(&mut accounts, from, to);
            } else {
                graph.unfollow(&mut accounts, from, to);
            }
        }
        for i in 0..8 {
            let id = AccountId(i);
            prop_assert_eq!(
                accounts.get(id).followers as usize,
                graph.followers_of(id).len(),
                "followers of {}", id
            );
            prop_assert_eq!(
                accounts.get(id).following as usize,
                graph.following_of(id).len(),
                "following of {}", id
            );
            // No self-edges ever.
            prop_assert!(!graph.followers_of(id).contains(&id));
        }
    }

    /// Time round-trips: any instant decomposes into (day, second-of-day)
    /// and recomposes exactly; day arithmetic is consistent.
    #[test]
    fn time_decomposition_roundtrips(secs in 0u64..=(u32::MAX as u64) * SECS_PER_DAY / 4096) {
        let t = SimTime(secs);
        let rebuilt = SimTime::from_day_offset(t.day(), t.second_of_day());
        prop_assert_eq!(rebuilt, t);
        prop_assert!(t.second_of_day() < SECS_PER_DAY);
        prop_assert!(u64::from(t.hour_of_day()) == t.second_of_day() / 3_600);
        prop_assert!(t.day().start() <= t);
        prop_assert!(t < t.day().end());
    }

    /// Day ranges partition correctly: |[a,b)| == b - a for a <= b.
    #[test]
    fn day_range_lengths(a in 0u32..10_000, len in 0u32..1_000) {
        let b = a + len;
        prop_assert_eq!(Day::range(Day(a), Day(b)).count() as u32, len);
        prop_assert_eq!(Day(b).days_since(Day(a)), len);
    }

    /// Country mixes always sample a member country and probabilities stay
    /// normalised, for any positive weights.
    #[test]
    fn country_mix_samples_members(
        weights in prop::collection::vec(1u32..1_000, 1..8),
        u in 0.0f64..1.0,
    ) {
        let pairs: Vec<(Country, f64)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (Country::ALL[i % Country::ALL.len()], f64::from(w)))
            .collect();
        let members: Vec<Country> = pairs.iter().map(|(c, _)| *c).collect();
        let mix = CountryMix::new(pairs);
        prop_assert!(members.contains(&mix.sample(u)));
        let total: f64 = Country::ALL.iter().map(|&c| mix.probability(c)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }
}
