//! Daily series extraction for the intervention figures.
//!
//! * Figure 5 — median follows per user per day, per bin, against the
//!   threshold line;
//! * Figures 6/7 — the proportion of a service's daily actions that are
//!   *eligible* for a countermeasure (above the threshold), per bin group.
//!
//! All series are measured out of the platform log; nothing is read from
//! service internals.

use crate::bins::{BinAssignment, BinPolicy};
use footsteps_aas::stats::upper_median;
use footsteps_sim::enforcement::Direction;
use footsteps_sim::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A per-day numeric series over `[start, end)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DailySeries {
    /// First day of the series.
    pub start: Day,
    /// One value per day.
    pub values: Vec<f64>,
}

impl DailySeries {
    /// Value on a given day, if within range.
    pub fn on(&self, day: Day) -> Option<f64> {
        let idx = day.0.checked_sub(self.start.0)? as usize;
        self.values.get(idx).copied()
    }

    /// Mean over a sub-range (days clamped to the series).
    pub fn mean_over(&self, from: Day, to: Day) -> f64 {
        let vals: Vec<f64> = Day::range(from, to).filter_map(|d| self.on(d)).collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }
}

/// Daily per-account action counts for `accounts` via `asns`, on the given
/// side of the traffic.
fn daily_counts(
    accounts: &BTreeSet<AccountId>,
    asns: &BTreeSet<AsnId>,
    ty: ActionType,
    direction: Direction,
    day_log: &DayLog,
) -> BTreeMap<AccountId, u32> {
    let mut per_account: BTreeMap<AccountId, u32> = BTreeMap::new();
    match direction {
        Direction::Outbound => {
            for (key, counts) in day_log.outbound() {
                if accounts.contains(&key.account) && asns.contains(&key.asn) {
                    let n = counts.attempted_of(ty);
                    if n > 0 {
                        *per_account.entry(key.account).or_insert(0) += n;
                    }
                }
            }
        }
        Direction::Inbound => {
            for ((account, source), counts) in day_log.inbound() {
                let Some(asn) = source else { continue };
                if accounts.contains(account) && asns.contains(asn) {
                    let n = counts.attempted_of(ty);
                    if n > 0 {
                        *per_account.entry(*account).or_insert(0) += n;
                    }
                }
            }
        }
    }
    per_account
}

/// Figure-5 style series: the upper median daily action count per active
/// account ([`upper_median`], 0 on a day with none), restricted to accounts
/// in `accounts` whose bin policy is `policy`.
#[allow(clippy::too_many_arguments)]
pub fn median_actions_per_user(
    platform: &Platform,
    accounts: &BTreeSet<AccountId>,
    bins: &BinAssignment,
    policy: BinPolicy,
    asns: &BTreeSet<AsnId>,
    ty: ActionType,
    direction: Direction,
    start: Day,
    end: Day,
) -> DailySeries {
    let group: BTreeSet<AccountId> = accounts
        .iter()
        .copied()
        .filter(|&a| bins.policy_for(a) == policy)
        .collect();
    let mut values = Vec::new();
    for day in Day::range(start, end) {
        let counts: Vec<u32> = match platform.log.day(day) {
            Some(log) => {
                let day_counts: BTreeMap<AccountId, u32> =
                    daily_counts(&group, asns, ty, direction, log);
                day_counts.into_values().collect()
            }
            None => Vec::new(),
        };
        values.push(upper_median(&counts));
    }
    DailySeries { start, values }
}

/// Figures-6/7 style series: the proportion of the group's daily actions
/// sitting *above* the threshold (i.e. eligible for a countermeasure).
#[allow(clippy::too_many_arguments)]
pub fn eligible_proportion(
    platform: &Platform,
    accounts: &BTreeSet<AccountId>,
    bins: &BinAssignment,
    policies: &[BinPolicy],
    asns: &BTreeSet<AsnId>,
    ty: ActionType,
    direction: Direction,
    threshold: u32,
    start: Day,
    end: Day,
) -> DailySeries {
    let group: BTreeSet<AccountId> = accounts
        .iter()
        .copied()
        .filter(|&a| policies.contains(&bins.policy_for(a)))
        .collect();
    let mut values = Vec::new();
    for day in Day::range(start, end) {
        let v = match platform.log.day(day) {
            Some(log) => {
                let counts: BTreeMap<AccountId, u32> =
                    daily_counts(&group, asns, ty, direction, log);
                let total: u64 = counts.values().map(|&n| u64::from(n)).sum();
                let eligible: u64 = counts
                    .values()
                    .map(|&n| u64::from(n.saturating_sub(threshold)))
                    .sum();
                if total == 0 {
                    0.0
                } else {
                    eligible as f64 / total as f64
                }
            }
            None => 0.0,
        };
        values.push(v);
    }
    DailySeries { start, values }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bins::bin_of;
    use footsteps_sim::actions::ActionOutcome;
    use footsteps_sim::platform::{Platform, PlatformConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn platform() -> Platform {
        let mut reg = AsnRegistry::new();
        reg.register("res", Country::Us, AsnKind::Residential, 1_000);
        reg.register("host", Country::Us, AsnKind::Hosting, 1_000);
        Platform::new(reg, PlatformConfig::default(), SmallRng::seed_from_u64(1))
    }

    #[test]
    fn series_indexing() {
        let s = DailySeries { start: Day(5), values: vec![1.0, 2.0, 3.0] };
        assert_eq!(s.on(Day(5)), Some(1.0));
        assert_eq!(s.on(Day(7)), Some(3.0));
        assert_eq!(s.on(Day(8)), None);
        assert_eq!(s.on(Day(4)), None);
        assert!((s.mean_over(Day(5), Day(8)) - 2.0).abs() < 1e-12);
        assert_eq!(s.mean_over(Day(20), Day(30)), 0.0);
    }

    #[test]
    fn median_series_reads_outbound_log() {
        let mut p = platform();
        let host = AsnId(1);
        let fp = ClientFingerprint::SpoofedMobile { variant: 1 };
        // Three accounts, one bin each; put 10/20/30 follows on day 0.
        let accounts: Vec<AccountId> = (0..3).map(AccountId).collect();
        for (i, &a) in accounts.iter().enumerate() {
            p.log.record_outbound(
                Day(0),
                a,
                host,
                fp,
                ActionType::Follow,
                ActionOutcome::Delivered,
                10 * (i as u32 + 1),
            );
        }
        let set: BTreeSet<AccountId> = accounts.iter().copied().collect();
        let asns: BTreeSet<AsnId> = [host].into();
        // All in one policy group: everything untreated.
        let bins = BinAssignment::none();
        let s = median_actions_per_user(
            &p,
            &set,
            &bins,
            BinPolicy::Untreated,
            &asns,
            ActionType::Follow,
            Direction::Outbound,
            Day(0),
            Day(2),
        );
        assert_eq!(s.on(Day(0)), Some(20.0));
        assert_eq!(s.on(Day(1)), Some(0.0), "no activity day");
    }

    #[test]
    fn eligible_proportion_math() {
        let mut p = platform();
        let host = AsnId(1);
        let fp = ClientFingerprint::SpoofedMobile { variant: 1 };
        let a = AccountId(0);
        let b = AccountId(1);
        // a: 50 follows, b: 10 follows; threshold 30 → eligible = 20 of 60.
        p.log.record_outbound(Day(0), a, host, fp, ActionType::Follow, ActionOutcome::Delivered, 50);
        p.log.record_outbound(Day(0), b, host, fp, ActionType::Follow, ActionOutcome::Delivered, 10);
        let set: BTreeSet<AccountId> = [a, b].into();
        let asns: BTreeSet<AsnId> = [host].into();
        let s = eligible_proportion(
            &p,
            &set,
            &BinAssignment::none(),
            &[BinPolicy::Untreated],
            &asns,
            ActionType::Follow,
            Direction::Outbound,
            30,
            Day(0),
            Day(1),
        );
        assert!((s.on(Day(0)).unwrap() - 20.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn bin_filtering_respects_assignment() {
        let mut p = platform();
        let host = AsnId(1);
        let fp = ClientFingerprint::SpoofedMobile { variant: 1 };
        // Find accounts in bins 0 and 1.
        let a0 = (0..).map(AccountId).find(|&a| bin_of(a) == 0).unwrap();
        let a1 = (0..).map(AccountId).find(|&a| bin_of(a) == 1).unwrap();
        p.log.record_outbound(Day(0), a0, host, fp, ActionType::Follow, ActionOutcome::Delivered, 100);
        p.log.record_outbound(Day(0), a1, host, fp, ActionType::Follow, ActionOutcome::Delivered, 7);
        let set: BTreeSet<AccountId> = [a0, a1].into();
        let asns: BTreeSet<AsnId> = [host].into();
        let bins = BinAssignment::narrow();
        let block = median_actions_per_user(
            &p, &set, &bins, BinPolicy::Block, &asns,
            ActionType::Follow, Direction::Outbound, Day(0), Day(1),
        );
        let delay = median_actions_per_user(
            &p, &set, &bins, BinPolicy::Delay, &asns,
            ActionType::Follow, Direction::Outbound, Day(0), Day(1),
        );
        assert_eq!(block.on(Day(0)), Some(100.0));
        assert_eq!(delay.on(Day(0)), Some(7.0));
    }
}
