//! Customer-base analysis (§5.1, Table 6).
//!
//! All quantities here are computed from the *classifier's* view
//! (`footsteps-detect`), exactly as the paper computed them from its signal
//! pipeline — never from service-internal ground truth.

use footsteps_detect::Classification;
use footsteps_sim::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashSet};

/// The long-term definition for a business group: the minimum number of
/// *consecutive* active days that makes a customer long-term.
///
/// "For Insta* and Boostgram […] we define long-term users as those who
/// participate for more than seven consecutive days, strictly longer than
/// the length of the free trial period. For Hublaagram […] more than four
/// consecutive days."
pub fn long_term_min_consecutive_days(group: ServiceGroup) -> u32 {
    match group {
        ServiceGroup::InstaStar | ServiceGroup::Boostgram => 8,
        ServiceGroup::Hublaagram | ServiceGroup::Followersgratis => 5,
    }
}

/// A Table 6 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CustomerBaseRow {
    /// Business group.
    pub group: ServiceGroup,
    /// Distinct customers active in the window.
    pub customers: u64,
    /// Long-term customers.
    pub long_term: u64,
    /// Short-term customers.
    pub short_term: u64,
}

impl CustomerBaseRow {
    /// Long-term share of the customer base.
    pub fn long_term_share(&self) -> f64 {
        if self.customers == 0 {
            0.0
        } else {
            self.long_term as f64 / self.customers as f64
        }
    }
}

/// Long-term/short-term verdict for one customer of a group.
pub fn is_long_term(
    classification: &Classification,
    group: ServiceGroup,
    account: AccountId,
) -> bool {
    let min = long_term_min_consecutive_days(group);
    group
        .members()
        .iter()
        .any(|&s| classification.longest_consecutive_days(s, account) >= min)
}

/// Compute the Table 6 row for one group.
pub fn customer_base(classification: &Classification, group: ServiceGroup) -> CustomerBaseRow {
    let customers = classification.customers_of_group(group);
    let long_term = customers
        .iter()
        .filter(|&&a| is_long_term(classification, group, a))
        .count() as u64;
    let total = customers.len() as u64;
    CustomerBaseRow {
        group,
        customers: total,
        long_term,
        short_term: total - long_term,
    }
}

/// Share of a group's actions attempted by long-term customers ("by far most
/// of the actions attempted by the services come from long-term users":
/// 91.6% / 89.7% / 92.3%).
pub fn long_term_action_share(
    platform: &Platform,
    classification: &Classification,
    group: ServiceGroup,
    asns: &BTreeSet<AsnId>,
    start: Day,
    end: Day,
) -> f64 {
    let customers = classification.customers_of_group(group);
    let long_term: HashSet<AccountId> = customers
        .iter()
        .copied()
        .filter(|&a| is_long_term(classification, group, a))
        .collect();
    let mut lt_actions = 0u64;
    let mut total = 0u64;
    for log in platform.log.iter_range(start, end) {
        for (key, counts) in log.outbound() {
            if !asns.contains(&key.asn) || !customers.contains(&key.account) {
                continue;
            }
            let n = u64::from(counts.total_attempted());
            total += n;
            if long_term.contains(&key.account) {
                lt_actions += n;
            }
        }
        // Collusion groups are measured on the inbound side as well, since
        // receive-only customers otherwise contribute nothing.
        for ((account, source), counts) in log.inbound() {
            let Some(asn) = source else { continue };
            if !asns.contains(asn) || !customers.contains(account) {
                continue;
            }
            let n = u64::from(counts.total_attempted());
            total += n;
            if long_term.contains(account) {
                lt_actions += n;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        lt_actions as f64 / total as f64
    }
}

/// Account overlap between groups (§5.1: "account overlap is small").
pub fn overlap(
    classification: &Classification,
    a: ServiceGroup,
    b: ServiceGroup,
) -> usize {
    let ca = classification.customers_of_group(a);
    let cb = classification.customers_of_group(b);
    ca.intersection(&cb).count()
}

/// Long-term population dynamics over a window: daily active counts, birth
/// and death rates (§5.1 "User Stability").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StabilityReport {
    /// Business group.
    pub group: ServiceGroup,
    /// Daily count of active long-term customers.
    pub daily_active_long_term: Vec<u64>,
    /// New long-term customers appearing per day (first activity).
    pub births_per_day: f64,
    /// Long-term customers disappearing per day (last activity).
    pub deaths_per_day: f64,
    /// Relative change of the daily-active count over the window.
    pub growth: f64,
}

/// Compute long-term stability dynamics for one group over `[start, end)`.
pub fn stability(
    classification: &Classification,
    group: ServiceGroup,
    start: Day,
    end: Day,
) -> StabilityReport {
    let window = end.days_since(start) as usize;
    let mut daily = vec![0u64; window];
    let mut births = 0u64;
    let mut deaths = 0u64;
    let customers = classification.customers_of_group(group);
    for &account in &customers {
        if !is_long_term(classification, group, account) {
            continue;
        }
        // Union of activity across the group's member services.
        let mut first: Option<Day> = None;
        let mut last: Option<Day> = None;
        for &s in group.members() {
            if let Some(f) = classification.first_seen.get(&(s, account)) {
                first = Some(first.map_or(*f, |x: Day| x.min(*f)));
            }
            if let Some(l) = classification.last_seen.get(&(s, account)) {
                last = Some(last.map_or(*l, |x: Day| x.max(*l)));
            }
        }
        let (Some(first), Some(last)) = (first, last) else { continue };
        for d in Day::range(first.max(start), (last.plus(1)).min(end)) {
            daily[(d.0 - start.0) as usize] += 1;
        }
        if first > start {
            births += 1;
        }
        if last.plus(1) < end {
            deaths += 1;
        }
    }
    let growth = if daily.first().copied().unwrap_or(0) == 0 {
        0.0
    } else {
        let a = daily[0] as f64;
        let b = *daily.last().expect("non-empty window") as f64;
        (b - a) / a
    };
    StabilityReport {
        group,
        daily_active_long_term: daily,
        births_per_day: births as f64 / window as f64,
        deaths_per_day: deaths as f64 / window as f64,
        growth,
    }
}

/// Long-term conversion rate: of customers whose first activity falls in
/// `[cohort_start, cohort_end)`, the share that became long-term (§5.1:
/// Boostgram 12%, Insta* 21%, Hublaagram 37%).
pub fn conversion_rate(
    classification: &Classification,
    group: ServiceGroup,
    cohort_start: Day,
    cohort_end: Day,
) -> f64 {
    let mut cohort = 0u64;
    let mut converted = 0u64;
    for &account in &classification.customers_of_group(group) {
        let first = group
            .members()
            .iter()
            .filter_map(|&s| classification.first_seen.get(&(s, account)).copied())
            .min();
        let Some(first) = first else { continue };
        if first >= cohort_start && first < cohort_end {
            cohort += 1;
            if is_long_term(classification, group, account) {
                converted += 1;
            }
        }
    }
    if cohort == 0 {
        0.0
    } else {
        converted as f64 / cohort as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classification_with(
        entries: &[(ServiceId, u32, &[u32])], // (service, account, active days)
    ) -> Classification {
        let mut c = Classification::default();
        for &(service, account, days) in entries {
            let account = AccountId(account);
            c.customers.entry(service).or_default().insert(account);
            let days: Vec<Day> = days.iter().map(|&d| Day(d)).collect();
            c.first_seen.insert((service, account), days[0]);
            c.last_seen.insert((service, account), *days.last().unwrap());
            c.active_days.insert((service, account), days);
        }
        c
    }

    #[test]
    fn long_term_definitions_match_paper() {
        assert_eq!(long_term_min_consecutive_days(ServiceGroup::InstaStar), 8);
        assert_eq!(long_term_min_consecutive_days(ServiceGroup::Boostgram), 8);
        assert_eq!(long_term_min_consecutive_days(ServiceGroup::Hublaagram), 5);
    }

    #[test]
    fn table6_split() {
        // Account 1: 10 consecutive days → long-term for Boostgram.
        // Account 2: 3 days → short-term.
        let c = classification_with(&[
            (ServiceId::Boostgram, 1, &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
            (ServiceId::Boostgram, 2, &[0, 1, 2]),
        ]);
        let row = customer_base(&c, ServiceGroup::Boostgram);
        assert_eq!(row.customers, 2);
        assert_eq!(row.long_term, 1);
        assert_eq!(row.short_term, 1);
        assert!((row.long_term_share() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hublaagram_uses_the_four_day_rule() {
        // 5 consecutive days: long-term for Hublaagram, short-term for
        // a reciprocity group.
        let c = classification_with(&[
            (ServiceId::Hublaagram, 1, &[0, 1, 2, 3, 4]),
            (ServiceId::Boostgram, 2, &[0, 1, 2, 3, 4]),
        ]);
        assert!(is_long_term(&c, ServiceGroup::Hublaagram, AccountId(1)));
        assert!(!is_long_term(&c, ServiceGroup::Boostgram, AccountId(2)));
    }

    #[test]
    fn nonconsecutive_days_do_not_count() {
        // 10 active days but never more than 4 in a row.
        let c = classification_with(&[(
            ServiceId::Boostgram,
            1,
            &[0, 1, 2, 3, 10, 11, 12, 13, 20, 21],
        )]);
        assert!(!is_long_term(&c, ServiceGroup::Boostgram, AccountId(1)));
    }

    #[test]
    fn overlap_counts_intersection() {
        let c = classification_with(&[
            (ServiceId::Boostgram, 1, &[0]),
            (ServiceId::Boostgram, 2, &[0]),
            (ServiceId::Instalex, 2, &[0]),
            (ServiceId::Instazood, 3, &[0]),
        ]);
        assert_eq!(overlap(&c, ServiceGroup::Boostgram, ServiceGroup::InstaStar), 1);
    }

    #[test]
    fn stability_births_deaths_and_growth() {
        // One LT account active all window, one born mid-window (still
        // active at end), one dying mid-window.
        let c = classification_with(&[
            (ServiceId::Boostgram, 1, &(0..30).collect::<Vec<u32>>()),
            (ServiceId::Boostgram, 2, &(10..30).collect::<Vec<u32>>()),
            (ServiceId::Boostgram, 3, &(0..15).collect::<Vec<u32>>()),
        ]);
        let r = stability(&c, ServiceGroup::Boostgram, Day(0), Day(30));
        assert_eq!(r.daily_active_long_term[0], 2, "accounts 1 and 3");
        assert_eq!(r.daily_active_long_term[12], 3, "all three");
        assert_eq!(*r.daily_active_long_term.last().unwrap(), 2, "1 and 2");
        assert!((r.births_per_day - 1.0 / 30.0).abs() < 1e-12);
        assert!((r.deaths_per_day - 1.0 / 30.0).abs() < 1e-12);
        // One birth exactly offsets one death: 2 active at both ends.
        assert_eq!(r.growth, 0.0);
    }

    #[test]
    fn conversion_rate_cohorts() {
        let c = classification_with(&[
            // Born day 5, long-term.
            (ServiceId::Boostgram, 1, &(5..20).collect::<Vec<u32>>()),
            // Born day 6, short-term.
            (ServiceId::Boostgram, 2, &[6, 7]),
            // Born day 40 — outside cohort.
            (ServiceId::Boostgram, 3, &(40..60).collect::<Vec<u32>>()),
        ]);
        let rate = conversion_rate(&c, ServiceGroup::Boostgram, Day(0), Day(30));
        assert!((rate - 0.5).abs() < 1e-12);
    }
}
