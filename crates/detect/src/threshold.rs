//! Per-ASN daily activity thresholds (§6.2).
//!
//! "We define a per-account daily activity threshold for each ASN, and only
//! actions above that threshold are candidates for a countermeasure. […]
//! For ASNs with both AAS and benign traffic, we measure the daily 99th
//! percentile of likes and follows produced by Instagram accounts that are
//! not participating in AASs. […] For ASNs with only AAS traffic, we use a
//! threshold of the daily 25th percentile of actions."
//!
//! Thresholds are computed once over a calibration window and **frozen**
//! ("we computed the activity level thresholds at the start of each
//! experiment and did not change them to prevent an adversary from
//! affecting the false positive rate").

use crate::classify::Classification;
use crate::signature::ServiceSignature;
use footsteps_aas::stats::quantile_sorted_runs;
use footsteps_sim::enforcement::Direction;
use footsteps_sim::prelude::*;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};

/// How an ASN's traffic breaks down between abusive and benign accounts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AsnTraffic {
    /// Effectively all traffic is from classified AAS accounts.
    PureAbuse,
    /// Both AAS and benign traffic.
    Mixed,
    /// No meaningful AAS presence.
    Benign,
}

/// The frozen threshold table used by the intervention policies.
///
/// Thresholds live in a `BTreeMap` so that iteration (reporting, policy
/// sweeps) and serialization are deterministic.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ThresholdTable {
    thresholds: BTreeMap<(AsnId, ActionType, Direction), u32>,
    /// Traffic kind per signature ASN, retained for reporting.
    pub asn_kinds: BTreeMap<AsnId, AsnTraffic>,
}

impl ThresholdTable {
    /// Threshold for `(asn, action, direction)`, if one was computed.
    pub fn get(&self, asn: AsnId, action: ActionType, direction: Direction) -> Option<u32> {
        self.thresholds.get(&(asn, action, direction)).copied()
    }

    /// Insert/override a threshold (tests and ablations).
    pub fn set(&mut self, asn: AsnId, action: ActionType, direction: Direction, value: u32) {
        self.thresholds.insert((asn, action, direction), value);
    }

    /// Number of thresholds in the table.
    pub fn len(&self) -> usize {
        self.thresholds.len()
    }

    /// True if no thresholds were computed.
    pub fn is_empty(&self) -> bool {
        self.thresholds.is_empty()
    }

    /// Iterate all thresholds.
    pub fn iter(&self) -> impl Iterator<Item = (&(AsnId, ActionType, Direction), &u32)> {
        self.thresholds.iter()
    }
}

// Re-exported to keep the crate's historical API surface.
pub use footsteps_aas::stats::percentile_u32;

/// The two action types §6.2 thresholds cover (the countermeasures of §6
/// target likes and follows).
const THRESHOLD_TYPES: [ActionType; 2] = [ActionType::Like, ActionType::Follow];

/// The calibration days the §6.2 rules are evaluated over. Each day's
/// samples are sorted when it is pushed, so evaluation ranks across the
/// per-day runs (`quantile_sorted_runs`) and never re-sorts the window.
#[derive(Debug, Clone, Default)]
pub struct ThresholdWindow {
    days: Vec<DaySamples>,
}

/// One calibration day's samples.
#[derive(Debug, Clone, Default)]
struct DaySamples {
    /// Per ASN: `(account, total attempted outbound)` per record, for the
    /// abusive/benign traffic split.
    kind_samples: BTreeMap<AsnId, Vec<(AccountId, u32)>>,
    /// Per `(ASN, action)`: per-account outbound counts (summed across
    /// fingerprints, zeros left out), sorted by `(count, account)` so the
    /// counts of any subset of the accounts stay sorted.
    out_runs: BTreeMap<(AsnId, ActionType), Vec<(u32, AccountId)>>,
    /// Per `(ASN, action)`: per-recipient inbound counts, sorted.
    in_runs: BTreeMap<(AsnId, ActionType), Vec<u32>>,
}

impl ThresholdWindow {
    /// Add one calibration day.
    pub fn push_day(&mut self, day: &DayLog) {
        let mut s = DaySamples::default();
        let mut per: BTreeMap<(AsnId, ActionType, AccountId), u32> = BTreeMap::new();
        for (key, counts) in day.outbound() {
            let traffic = s.kind_samples.entry(key.asn).or_default();
            traffic.push((key.account, counts.total_attempted()));
            for ty in THRESHOLD_TYPES {
                let n = counts.attempted_of(ty);
                if n > 0 {
                    *per.entry((key.asn, ty, key.account)).or_insert(0) += n;
                }
            }
        }
        for ((asn, ty, account), n) in per {
            s.out_runs.entry((asn, ty)).or_default().push((n, account));
        }
        for ((_, source), counts) in day.inbound() {
            let Some(asn) = *source else { continue };
            for ty in THRESHOLD_TYPES {
                let n = counts.attempted_of(ty);
                if n > 0 {
                    s.in_runs.entry((asn, ty)).or_default().push(n);
                }
            }
        }
        s.out_runs.values_mut().for_each(|run| run.sort_unstable());
        s.in_runs.values_mut().for_each(|run| run.sort_unstable());
        self.days.push(s);
    }

    /// Evaluate the §6.2 rules for every signature ASN: the 99th
    /// percentile of benign accounts' daily counts on a mixed ASN; on a
    /// pure-abuse ASN the 25th percentile of the abuse, outbound for a
    /// reciprocity service and inbound for a collusion network; nothing on
    /// a benign ASN.
    pub fn evaluate(
        &self,
        signatures: &[ServiceSignature],
        classification: &Classification,
    ) -> ThresholdTable {
        let mut table = ThresholdTable::default();
        for sig in signatures {
            let direction = if sig.collusion { Direction::Inbound } else { Direction::Outbound };
            for &asn in &sig.asns {
                let kind = self.asn_kind(asn, classification);
                table.asn_kinds.insert(asn, kind);
                for ty in THRESHOLD_TYPES {
                    let abusive = |a| classification.is_abusive(a);
                    let threshold = match (kind, direction) {
                        (AsnTraffic::Benign, _) => None,
                        (AsnTraffic::Mixed, _) => self.out_quantile(asn, ty, 0.99, |a| !abusive(a)),
                        (AsnTraffic::PureAbuse, Direction::Outbound) => {
                            self.out_quantile(asn, ty, 0.25, abusive)
                        }
                        (AsnTraffic::PureAbuse, Direction::Inbound) => self.in_quantile(asn, ty, 0.25),
                    };
                    if let Some(v) = threshold {
                        table.set(asn, ty, direction, v.max(1));
                    }
                }
            }
        }
        table
    }

    /// Classify an ASN by the share of its outbound traffic produced by
    /// classified-abusive accounts.
    fn asn_kind(&self, asn: AsnId, classification: &Classification) -> AsnTraffic {
        let (mut abusive, mut benign) = (0u64, 0u64);
        let samples = self.days.iter().filter_map(|day| day.kind_samples.get(&asn));
        for &(account, n) in samples.flatten() {
            if classification.is_abusive(account) {
                abusive += u64::from(n);
            } else {
                benign += u64::from(n);
            }
        }
        let total = abusive + benign;
        if abusive == 0 {
            AsnTraffic::Benign
        } else if benign * 50 < total {
            // A sliver of benign traffic (<2%) still counts as pure: a
            // handful of stray requests do not make a hosting ASN "mixed".
            AsnTraffic::PureAbuse
        } else {
            AsnTraffic::Mixed
        }
    }

    /// Quantile `p` of the per-account daily outbound counts of `ty` on
    /// `asn`, over the accounts `keep` admits.
    fn out_quantile(
        &self,
        asn: AsnId,
        ty: ActionType,
        p: f64,
        keep: impl Fn(AccountId) -> bool,
    ) -> Option<u32> {
        let runs: Vec<Vec<u32>> = self
            .days
            .iter()
            .filter_map(|day| day.out_runs.get(&(asn, ty)))
            .map(|run| run.iter().filter(|&&(_, a)| keep(a)).map(|&(n, _)| n).collect())
            .collect();
        quantile_sorted_runs(&runs.iter().map(Vec::as_slice).collect::<Vec<_>>(), p)
    }

    /// Quantile `p` of the per-recipient daily inbound counts of `ty`
    /// sourced from `asn`.
    fn in_quantile(&self, asn: AsnId, ty: ActionType, p: f64) -> Option<u32> {
        let runs: Vec<&[u32]> = self
            .days
            .iter()
            .filter_map(|day| day.in_runs.get(&(asn, ty)))
            .map(Vec::as_slice)
            .collect();
        quantile_sorted_runs(&runs, p)
    }
}

/// Compute the frozen threshold table for all signature ASNs over the
/// calibration window `[start, end)`: its days pushed into a
/// [`ThresholdWindow`], evaluated with `classification`.
pub fn compute_thresholds(
    platform: &Platform,
    classification: &Classification,
    signatures: &[ServiceSignature],
    start: Day,
    end: Day,
) -> ThresholdTable {
    let mut window = ThresholdWindow::default();
    platform.log.iter_range(start, end).for_each(|day| window.push_day(day));
    window.evaluate(signatures, classification)
}

/// Per-account daily outbound counts of `ty` on `asn`, filtered by account
/// predicate. Zero-count days are not included (the percentile is over
/// active account-days, matching how such pipelines aggregate).
fn per_account_daily_outbound(
    platform: &Platform,
    asn: AsnId,
    ty: ActionType,
    start: Day,
    end: Day,
    mut include: impl FnMut(AccountId) -> bool,
) -> Vec<u32> {
    let mut samples = Vec::new();
    for log in platform.log.iter_range(start, end) {
        let mut per_account: HashMap<AccountId, u32> = HashMap::new();
        for (key, counts) in log.outbound() {
            if key.asn == asn {
                let n = counts.attempted_of(ty);
                if n > 0 {
                    *per_account.entry(key.account).or_insert(0) += n;
                }
            }
        }
        samples.extend(
            per_account
                // footsteps-lint: allow(nondet-iter) — samples only feed an order-insensitive count
                .into_iter()
                .filter(|&(a, _)| include(a))
                .map(|(_, n)| n),
        );
    }
    samples
}

/// Count account-days of *benign* accounts exceeding a threshold on a mixed
/// ASN — the false-positive exposure of the countermeasure. With a 99th
/// percentile threshold this is bounded at ~1% of benign account-days.
pub fn false_positive_account_days(
    platform: &Platform,
    classification: &Classification,
    table: &ThresholdTable,
    asn: AsnId,
    ty: ActionType,
    start: Day,
    end: Day,
) -> (u64, u64) {
    let Some(threshold) = table.get(asn, ty, Direction::Outbound) else {
        return (0, 0);
    };
    let samples = per_account_daily_outbound(platform, asn, ty, start, end, |a| {
        !classification.is_abusive(a)
    });
    let over = samples.iter().filter(|&&n| n > threshold).count() as u64;
    (over, samples.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::ServiceSignature;
    use footsteps_sim::net::{AsnKind, AsnRegistry};
    use footsteps_sim::platform::{Platform, PlatformConfig};
    use footsteps_sim::prelude::{
        ActionOutcome, ClientFingerprint, Country, ServiceId,
    };
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    /// Build a platform with one pure-abuse ASN, one mixed ASN and one
    /// collusion ASN, with hand-written daily logs.
    fn synthetic_world() -> (Platform, Classification, Vec<ServiceSignature>, AsnId, AsnId, AsnId) {
        let mut reg = AsnRegistry::new();
        reg.register("res", Country::Us, AsnKind::Residential, 1_000);
        let pure = reg.register("pure", Country::Us, AsnKind::Hosting, 1_000);
        let mixed = reg.register("mixed", Country::Us, AsnKind::Hosting, 1_000);
        let collusion = reg.register("coll", Country::Gb, AsnKind::Hosting, 1_000);
        let mut p = Platform::new(reg, PlatformConfig::default(), SmallRng::seed_from_u64(1));
        let spoof = ClientFingerprint::SpoofedMobile { variant: 3 };
        let coll_fp = ClientFingerprint::SpoofedMobile { variant: 4 };
        let app = ClientFingerprint::OfficialApp;
        let mut class = Classification::default();

        for i in 0..8u32 {
            class.customers.entry(ServiceId::Boostgram).or_default().insert(AccountId(i));
            class.customers.entry(ServiceId::Instalex).or_default().insert(AccountId(i));
            class.customers.entry(ServiceId::Hublaagram).or_default().insert(AccountId(2_000 + i));
        }
        // Only the open day takes writes, so the rows go in day by day.
        for d in 0..5u32 {
            // Pure ASN: 8 abusive accounts doing 100,200,…,800 follows/day.
            for i in 0..8u32 {
                let a = AccountId(i);
                p.log.record_outbound(
                    Day(d), a, pure, spoof, ActionType::Follow,
                    ActionOutcome::Delivered, 100 * (i + 1),
                );
                p.log.record_outbound(
                    Day(d), a, pure, spoof, ActionType::Like,
                    ActionOutcome::Delivered, 100 * (i + 1),
                );
            }
            // Mixed ASN: the same abusers plus 100 benign accounts doing
            // 1..=100 follows/day (99th pct = 100).
            for i in 0..8u32 {
                let a = AccountId(i);
                p.log.record_outbound(
                    Day(d), a, mixed, spoof, ActionType::Follow,
                    ActionOutcome::Delivered, 500,
                );
                p.log.record_outbound(
                    Day(d), a, mixed, spoof, ActionType::Like,
                    ActionOutcome::Delivered, 500,
                );
            }
            for i in 0..100u32 {
                let a = AccountId(1_000 + i);
                p.log.record_outbound(
                    Day(d), a, mixed, app, ActionType::Follow,
                    ActionOutcome::Delivered, i + 1,
                );
                p.log.record_outbound(
                    Day(d), a, mixed, app, ActionType::Like,
                    ActionOutcome::Delivered, i + 1,
                );
            }
            // Collusion ASN: recipients receiving 40,80,…,320 likes/day
            // inbound.
            for i in 0..8u32 {
                let a = AccountId(2_000 + i);
                p.log.record_inbound(Day(d), a, Some(collusion), ActionType::Like, 40 * (i + 1));
                // Participants' outbound keeps the ASN pure-abusive.
                p.log.record_outbound(
                    Day(d), a, collusion, coll_fp, ActionType::Like,
                    ActionOutcome::Delivered, 40,
                );
                p.log.record_outbound(
                    Day(d), a, collusion, coll_fp, ActionType::Follow,
                    ActionOutcome::Delivered, 40,
                );
            }
        }
        let signatures = vec![
            ServiceSignature {
                service: ServiceId::Boostgram,
                asns: BTreeSet::from([pure]),
                fingerprints: BTreeSet::from([spoof]),
                collusion: false,
            },
            ServiceSignature {
                service: ServiceId::Instalex,
                asns: BTreeSet::from([mixed]),
                fingerprints: BTreeSet::from([spoof]),
                collusion: false,
            },
            ServiceSignature {
                service: ServiceId::Hublaagram,
                asns: BTreeSet::from([collusion]),
                fingerprints: BTreeSet::from([coll_fp]),
                collusion: true,
            },
        ];
        (p, class, signatures, pure, mixed, collusion)
    }

    /// The five synthetic days pushed into a window, evaluated.
    fn evaluate(p: &Platform, class: &Classification, sigs: &[ServiceSignature]) -> ThresholdTable {
        let mut window = ThresholdWindow::default();
        for day in p.log.iter_range(Day(0), Day(5)) {
            window.push_day(day);
        }
        window.evaluate(sigs, class)
    }

    #[test]
    fn threshold_rules_match_section_6_2() {
        let (p, class, sigs, pure, mixed, collusion) = synthetic_world();
        let table = evaluate(&p, &class, &sigs);
        // ASN kinds.
        assert_eq!(table.asn_kinds[&pure], AsnTraffic::PureAbuse);
        assert_eq!(table.asn_kinds[&mixed], AsnTraffic::Mixed);
        assert_eq!(table.asn_kinds[&collusion], AsnTraffic::PureAbuse);
        // Pure rule: 25th percentile of the abusers' own daily counts
        // (samples 100..800 ×5 days → 25th pct = 200).
        assert_eq!(table.get(pure, ActionType::Follow, Direction::Outbound), Some(200));
        // Mixed rule: 99th percentile of the *benign* accounts (1..=100,
        // nearest rank → 99), leaving exactly the top 1% above threshold.
        assert_eq!(table.get(mixed, ActionType::Follow, Direction::Outbound), Some(99));
        // Collusion rule: 25th percentile of per-recipient inbound
        // (40..320 → 80), on the inbound side only.
        assert_eq!(table.get(collusion, ActionType::Like, Direction::Inbound), Some(80));
        assert_eq!(table.get(collusion, ActionType::Like, Direction::Outbound), None);
    }

    #[test]
    fn mixed_asn_false_positive_rate_is_bounded() {
        let (p, class, sigs, _pure, mixed, _c) = synthetic_world();
        let table = evaluate(&p, &class, &sigs);
        let (over, total) = false_positive_account_days(
            &p, &class, &table, mixed, ActionType::Follow, Day(0), Day(5),
        );
        assert_eq!(total, 500, "100 benign accounts × 5 days");
        // Exactly the top 1% of benign account-days sit above the 99th-pct
        // threshold — the paper's "upper bound of 1% false positives".
        assert_eq!(over, 5);
        assert!((over as f64 / total as f64) <= 0.01 + 1e-9);
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_u32(&mut v, 0.99), Some(99));
        assert_eq!(percentile_u32(&mut v, 0.25), Some(25));
        assert_eq!(percentile_u32(&mut v, 1.0), Some(100));
        assert_eq!(percentile_u32(&mut v, 0.0), Some(1), "clamped to rank 1");
        let mut empty: Vec<u32> = vec![];
        assert_eq!(percentile_u32(&mut empty, 0.5), None);
    }

    #[test]
    fn table_set_get() {
        let mut t = ThresholdTable::default();
        assert!(t.is_empty());
        t.set(AsnId(1), ActionType::Follow, Direction::Outbound, 30);
        assert_eq!(t.get(AsnId(1), ActionType::Follow, Direction::Outbound), Some(30));
        assert_eq!(t.get(AsnId(1), ActionType::Follow, Direction::Inbound), None);
        assert_eq!(t.get(AsnId(2), ActionType::Follow, Direction::Outbound), None);
        assert_eq!(t.len(), 1);
    }
}
