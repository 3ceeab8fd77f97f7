//! Customer identification (§5).
//!
//! "Using our service characterizations we were then able to identify all
//! accounts used by customers of each service." The classifier reads the
//! platform's aggregates one day at a time and attributes an account to a
//! service when its traffic matches the service's signature:
//!
//! * outbound records whose `(ASN, fingerprint)` key matches — customers of
//!   reciprocity services and collusion-network participants;
//! * inbound records sourced from a collusion service's ASNs — which also
//!   catches Hublaagram's no-outbound (receive-only) customers.
//!
//! Because signatures are a *lower bound* on service activity (the paper
//! makes the same caveat), the classifier is scored against the simulator's
//! ground truth; precision should be ≈1 and recall high but not necessarily
//! perfect.

use crate::signature::ServiceSignature;
use footsteps_sim::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// The classifier's verdicts over a window.
///
/// All containers are BTree-based: the classification is iterated by the
/// business analyses and serialized into results, so its order must be
/// deterministic (DESIGN.md §6).
#[derive(Debug, Clone, Default, Serialize)]
pub struct Classification {
    /// Accounts attributed to each service.
    pub customers: BTreeMap<ServiceId, BTreeSet<AccountId>>,
    /// First day each (service, account) pair was observed active.
    pub first_seen: BTreeMap<(ServiceId, AccountId), Day>,
    /// Last day each (service, account) pair was observed active.
    pub last_seen: BTreeMap<(ServiceId, AccountId), Day>,
    /// Days on which each (service, account) pair was active.
    pub active_days: BTreeMap<(ServiceId, AccountId), Vec<Day>>,
}

impl Classification {
    /// Accounts attributed to `service` (empty set if none).
    pub fn customers_of(&self, service: ServiceId) -> impl Iterator<Item = AccountId> + '_ {
        self.customers
            .get(&service)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// Number of customers attributed to `service`.
    pub fn customer_count(&self, service: ServiceId) -> usize {
        self.customers.get(&service).map_or(0, |s| s.len())
    }

    /// Accounts attributed to *any* service in a group (Insta* combines the
    /// franchises because their actions cannot be told apart, §5).
    pub fn customers_of_group(&self, group: ServiceGroup) -> BTreeSet<AccountId> {
        let mut set = BTreeSet::new();
        for &s in group.members() {
            if let Some(c) = self.customers.get(&s) {
                set.extend(c.iter().copied());
            }
        }
        set
    }

    /// Whether an account was attributed to any service.
    pub fn is_abusive(&self, account: AccountId) -> bool {
        self.customers.values().any(|s| s.contains(&account))
    }

    /// A copy of this classification with the given accounts removed — used
    /// to strip the measurement's own honeypot accounts out of the business
    /// analyses (negligible at the paper's scale, visible at 1/100).
    pub fn without_accounts(&self, exclude: &HashSet<AccountId>) -> Classification {
        let mut out = self.clone();
        for set in out.customers.values_mut() {
            set.retain(|a| !exclude.contains(a));
        }
        out.customers.retain(|_, set| !set.is_empty());
        out.first_seen.retain(|(_, a), _| !exclude.contains(a));
        out.last_seen.retain(|(_, a), _| !exclude.contains(a));
        out.active_days.retain(|(_, a), _| !exclude.contains(a));
        out
    }

    /// The longest run of *consecutive* active days for `(service, account)`.
    /// The long-term/short-term split keys on this (§5.1).
    pub fn longest_consecutive_days(&self, service: ServiceId, account: AccountId) -> u32 {
        let Some(days) = self.active_days.get(&(service, account)) else {
            return 0;
        };
        let mut best = 0u32;
        let mut run = 0u32;
        let mut prev: Option<Day> = None;
        for &d in days {
            run = match prev {
                Some(p) if d.0 == p.0 + 1 => run + 1,
                _ => 1,
            };
            best = best.max(run);
            prev = Some(d);
        }
        best
    }
}

/// Run the classifier over `[start, end)`: [`classify_day`] for every
/// recorded day, with the same signatures throughout.
pub fn classify(
    platform: &Platform,
    signatures: &[ServiceSignature],
    start: Day,
    end: Day,
) -> Classification {
    let mut out = Classification::default();
    for day in platform.log.iter_range(start, end) {
        classify_day(&mut out, signatures, day);
    }
    out
}

/// Attribute one day's active accounts: every outbound record whose key
/// matches a signature, and every inbound record sourced from a collusion
/// signature's ASNs. Days must arrive in order, which keeps each
/// `active_days` list sorted and duplicate-free.
pub fn classify_day(c: &mut Classification, signatures: &[ServiceSignature], day: &DayLog) {
    for (key, counts) in day.outbound() {
        if counts.total_attempted() == 0 {
            continue;
        }
        for sig in signatures {
            if sig.matches_outbound(key.asn, key.fingerprint) {
                note(c, sig.service, key.account, day.day());
            }
        }
    }
    for ((account, source), counts) in day.inbound() {
        let Some(asn) = source else { continue };
        if counts.total_attempted() == 0 {
            continue;
        }
        for sig in signatures {
            if sig.matches_inbound(*asn) {
                note(c, sig.service, *account, day.day());
            }
        }
    }
}

fn note(c: &mut Classification, service: ServiceId, account: AccountId, day: Day) {
    c.customers.entry(service).or_default().insert(account);
    c.first_seen.entry((service, account)).or_insert(day);
    c.last_seen.insert((service, account), day);
    let days = c.active_days.entry((service, account)).or_default();
    if days.last() != Some(&day) {
        days.push(day);
    }
}

/// Precision/recall of the classifier against simulator ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Score {
    /// True positives: classified and ground-truth abusive for the service.
    pub tp: usize,
    /// False positives: classified but not ground-truth.
    pub fp: usize,
    /// False negatives: ground-truth but not classified.
    pub fn_: usize,
}

impl Score {
    /// Precision (1.0 when nothing classified).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall (1.0 when nothing to find).
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }
}

/// Score the classification for a business group against ground truth.
///
/// The franchises of a group share infrastructure and client stacks, so
/// per-franchise attribution is impossible ("we cannot differentiate actions
/// performed by individual franchises", §5); scoring is meaningful at group
/// granularity.
pub fn score_group(
    platform: &Platform,
    classification: &Classification,
    group: ServiceGroup,
) -> Score {
    let classified = classification.customers_of_group(group);
    score_against_truth(platform, &classified, group.members(), |_| true)
}

/// [`score_group`] restricted to accounts created before `cutoff` — for
/// scoring a classification built over a window that ended at `cutoff`
/// (ground truth keeps accumulating afterwards; unclassifiable-by-
/// construction accounts should not count as false negatives).
pub fn score_group_before(
    platform: &Platform,
    classification: &Classification,
    group: ServiceGroup,
    cutoff: footsteps_sim::time::SimTime,
) -> Score {
    let classified: BTreeSet<AccountId> = classification
        .customers_of_group(group)
        .into_iter()
        .filter(|&a| platform.accounts.get(a).created_at < cutoff)
        .collect();
    score_against_truth(platform, &classified, group.members(), |a| a.created_at < cutoff)
}

/// Score the classification for one service against ground truth.
pub fn score(platform: &Platform, classification: &Classification, service: ServiceId) -> Score {
    let classified: BTreeSet<AccountId> = classification.customers_of(service).collect();
    score_against_truth(platform, &classified, &[service], |_| true)
}

/// Score `classified` against the accounts `admit` keeps that ground truth
/// says one of `services` drove.
fn score_against_truth(
    platform: &Platform,
    classified: &BTreeSet<AccountId>,
    services: &[ServiceId],
    admit: impl Fn(&Account) -> bool,
) -> Score {
    let truth: BTreeSet<AccountId> = platform
        .accounts
        .iter()
        .filter(|a| admit(a))
        .filter(|a| platform.ground_truth_services(a.id).iter().any(|s| services.contains(s)))
        .map(|a| a.id)
        .collect();
    Score {
        tp: classified.intersection(&truth).count(),
        fp: classified.difference(&truth).count(),
        fn_: truth.difference(classified).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_math() {
        let s = Score { tp: 90, fp: 10, fn_: 30 };
        assert!((s.precision() - 0.9).abs() < 1e-9);
        assert!((s.recall() - 0.75).abs() < 1e-9);
        let empty = Score { tp: 0, fp: 0, fn_: 0 };
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
    }

    #[test]
    fn consecutive_day_runs() {
        let mut c = Classification::default();
        let key = (ServiceId::Boostgram, AccountId(1));
        c.active_days.insert(
            key,
            vec![Day(1), Day(2), Day(3), Day(7), Day(8), Day(9), Day(10), Day(20)],
        );
        assert_eq!(c.longest_consecutive_days(key.0, key.1), 4);
        assert_eq!(c.longest_consecutive_days(ServiceId::Instalex, AccountId(1)), 0);
    }

    #[test]
    fn group_union_combines_franchises() {
        let mut c = Classification::default();
        c.customers
            .entry(ServiceId::Instalex)
            .or_default()
            .insert(AccountId(1));
        c.customers
            .entry(ServiceId::Instazood)
            .or_default()
            .insert(AccountId(2));
        c.customers
            .entry(ServiceId::Instazood)
            .or_default()
            .insert(AccountId(1));
        let group = c.customers_of_group(ServiceGroup::InstaStar);
        assert_eq!(group.len(), 2);
        assert!(c.is_abusive(AccountId(1)));
        assert!(!c.is_abusive(AccountId(3)));
    }
}
