//! The online detector: the `footsteps-detect` stages, driven one day at
//! a time.
//!
//! The batch pipeline (`detect::DetectionPipeline`) folds the detection
//! stages over the finished characterization window. This detector feeds
//! the same stages one sealed [`DayLog`] per day, as the day arrives:
//!
//! * **signatures** — today's honeypot events grow the
//!   `detect::SignatureLearner` before today's aggregates are matched;
//! * **classification** — `detect::classify_day` matches each day against
//!   the signatures *as of that day*, so `first_seen` is the account's
//!   *day of first online detection*;
//! * **thresholds** — the last `window_days` days before the calibration
//!   boundary go into a `detect::ThresholdWindow`, evaluated at the
//!   boundary with the classification as it stands then.
//!
//! When the detector reaches `calibration_end` it **freezes** a
//! [`VerdictSnapshot`] and stamps it with an FNV-1a digest of its
//! canonical JSON; the record→replay identity gate in CI compares this
//! digest between the inline run and `stream-replay`.
//!
//! Expected deviations from batch verdicts: the batch classifier matches
//! *final* signatures against *every* day, so an account active only
//! before the day its service's signature finished growing can appear in
//! batch but not online. Online verdicts are therefore a subset of batch
//! verdicts; the parity test pins the observed gap on the smoke scenario.

use crate::envelope::RosterEntry;
use footsteps_detect::{
    classify_day, AsnTraffic, Classification, ServiceSignature, SignatureLearner, ThresholdTable,
    ThresholdWindow,
};
use footsteps_sim::enforcement::Direction;
use footsteps_sim::prelude::*;
use serde::Serialize;
use std::path::PathBuf;

/// The window geometry the detector freezes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// First day of the threshold calibration window.
    pub calibration_start: Day,
    /// End (exclusive) of the calibration window; verdicts freeze here.
    pub calibration_end: Day,
    /// Threshold window length in days: the last `window_days` days before
    /// `calibration_end` (the scenario's calibration tail).
    pub window_days: u32,
}

/// Version of the [`VerdictSnapshot`] layout, apart from the event log's
/// [`crate::STREAM_SCHEMA_VERSION`]. A bump moves every verdict digest.
pub const VERDICT_SCHEMA_VERSION: u32 = 1;

/// Everything the online detector believed at the calibration boundary.
/// Every set and map in it is a BTree, written in key order, so its JSON
/// is canonical and its FNV-1a digest is the record→replay identity token.
#[derive(Debug, Clone, Serialize)]
pub struct VerdictSnapshot {
    /// Schema stamp ([`VERDICT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The day the verdicts froze (`calibration_end`).
    pub frozen_on: Day,
    /// Signatures as of the freeze, in `ServiceId` order.
    pub signatures: Vec<ServiceSignature>,
    /// Online customer attribution. `first_seen` is the per-account
    /// day-of-first-detection.
    pub classification: Classification,
    /// Frozen thresholds, flattened from the table's ordered map.
    pub thresholds: Vec<((AsnId, ActionType, Direction), u32)>,
    /// Traffic kind per signature ASN, flattened from the table's ordered
    /// map.
    pub asn_kinds: Vec<(AsnId, AsnTraffic)>,
}

impl VerdictSnapshot {
    /// Canonical JSON of the snapshot.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("verdict snapshot serializes")
    }

    /// FNV-1a of [`VerdictSnapshot::to_json`].
    pub fn digest(&self) -> u64 {
        footsteps_obs::tree::fnv1a(self.to_json().as_bytes())
    }

    /// Rebuild the frozen table (for handing to intervention policies or
    /// comparing against the batch pipeline's table).
    pub fn threshold_table(&self) -> ThresholdTable {
        let mut table = ThresholdTable::default();
        for &((asn, ty, direction), v) in &self.thresholds {
            table.set(asn, ty, direction, v);
        }
        for &(asn, kind) in &self.asn_kinds {
            table.asn_kinds.insert(asn, kind);
        }
        table
    }
}

/// What a completed streaming run hands back to its caller.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// The frozen verdicts.
    pub verdicts: VerdictSnapshot,
    /// [`VerdictSnapshot::digest`], precomputed at freeze.
    pub verdict_digest: u64,
    /// Records consumed (outbound + inbound + logins + events).
    pub events_processed: u64,
    /// Day batches consumed.
    pub batches: u64,
    /// Wall-clock seconds spent inside the detector (observability only;
    /// measured by the caller with `footsteps_obs::Stopwatch`).
    pub detector_secs: f64,
    /// Where the recorded log ended up, if recording was on.
    pub log_path: Option<PathBuf>,
}

/// The incremental detector. Feed it sealed days in order via
/// [`OnlineDetector::ingest`]; it freezes itself when the calibration
/// window closes.
#[derive(Debug)]
pub struct OnlineDetector {
    config: StreamConfig,
    learner: SignatureLearner,
    classification: Classification,
    window: ThresholdWindow,
    next_day: Day,
    events_processed: u64,
    batches: u64,
    frozen: Option<(VerdictSnapshot, u64)>,
}

impl OnlineDetector {
    /// A fresh detector watching `roster` with the given window geometry.
    pub fn new(config: StreamConfig, roster: &[RosterEntry]) -> Self {
        Self {
            config,
            learner: SignatureLearner::new(roster),
            classification: Classification::default(),
            window: ThresholdWindow::default(),
            next_day: Day(0),
            events_processed: 0,
            batches: 0,
            frozen: None,
        }
    }

    /// The next day this detector expects.
    pub fn next_day(&self) -> Day {
        self.next_day
    }

    /// Records consumed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Day batches consumed so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// The classifier's verdicts so far (`first_seen` is the per-account
    /// day of first online detection).
    pub fn classification(&self) -> &Classification {
        &self.classification
    }

    /// The frozen verdicts, once the calibration window has closed.
    pub fn frozen(&self) -> Option<&VerdictSnapshot> {
        self.frozen.as_ref().map(|(s, _)| s)
    }

    /// The frozen verdict digest, once available.
    pub fn verdict_digest(&self) -> Option<u64> {
        self.frozen.as_ref().map(|&(_, d)| d)
    }

    /// Consume one sealed day. Days must arrive in order with no gaps.
    ///
    /// # Panics
    /// Panics if `day` is not the expected next day. A study seals and
    /// feeds its days in order, and [`crate::EventLogReader`] turns a
    /// recorded log whose days are out of order into
    /// [`crate::StreamError::Corrupt`] before a day gets here.
    pub fn ingest(&mut self, day: &DayLog) {
        assert_eq!(
            day.day(),
            self.next_day,
            "event batches must arrive in day order with no gaps"
        );
        self.next_day = day.day().next();
        self.events_processed += day.record_count();
        self.batches += 1;

        // Today's honeypot events grow the signatures before today's
        // aggregates are matched against them.
        self.learner.learn_day(day);
        classify_day(&mut self.classification, self.learner.signatures(), day);
        if self.frozen.is_some() {
            return;
        }
        let window_start = self.config.calibration_end.0.saturating_sub(self.config.window_days);
        if day.day().0 >= window_start {
            self.window.push_day(day);
        }
        if self.next_day == self.config.calibration_end {
            let snapshot = self.freeze();
            let digest = snapshot.digest();
            self.frozen = Some((snapshot, digest));
        }
    }

    /// Evaluate the threshold window and snapshot everything.
    fn freeze(&self) -> VerdictSnapshot {
        let signatures = self.learner.signatures();
        let table = self.window.evaluate(signatures, &self.classification);
        VerdictSnapshot {
            schema_version: VERDICT_SCHEMA_VERSION,
            frozen_on: self.config.calibration_end,
            signatures: signatures.to_vec(),
            classification: self.classification.clone(),
            thresholds: table.iter().map(|(&k, &v)| (k, v)).collect(),
            asn_kinds: table.asn_kinds.iter().map(|(&a, &k)| (a, k)).collect(),
        }
    }

    /// Finish the run: hand back the frozen verdicts plus the counters.
    /// `None` if the calibration window never closed.
    pub fn into_outcome(
        self,
        detector_secs: f64,
        log_path: Option<PathBuf>,
    ) -> Option<StreamOutcome> {
        let events_processed = self.events_processed;
        let batches = self.batches;
        let (verdicts, verdict_digest) = self.frozen?;
        Some(StreamOutcome {
            verdicts,
            verdict_digest,
            events_processed,
            batches,
            detector_secs,
            log_path,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(end: u32, window: u32) -> StreamConfig {
        StreamConfig {
            calibration_start: Day(end.saturating_sub(window)),
            calibration_end: Day(end),
            window_days: window,
        }
    }

    fn roster() -> Vec<RosterEntry> {
        vec![RosterEntry {
            account: AccountId(1),
            home_asn: AsnId(0),
            service: ServiceId::Boostgram,
        }]
    }

    fn honeypot_event(day: u32, asn: AsnId, fp: ClientFingerprint) -> ActionEvent {
        ActionEvent {
            at: Day(day).start(),
            actor: AccountId(1),
            action: ActionType::Follow,
            target: ActionTarget::Account(AccountId(9)),
            ip: IpAddr4(0),
            asn,
            fingerprint: fp,
            outcome: ActionOutcome::Delivered,
        }
    }

    /// Day `day` as a study seals it, written by `fill` into a log that
    /// keeps the honeypot's (account 1) events.
    fn day_log(day: u32, fill: impl FnOnce(&mut ActionLog, Day)) -> DayLog {
        let mut log = ActionLog::new();
        log.track_events_for(AccountId(1));
        fill(&mut log, Day(day));
        log.seal(Day(day)).clone()
    }

    /// `n` delivered follows by account `who` from `asn` with `fp`.
    fn follows(log: &mut ActionLog, d: Day, who: u32, asn: AsnId, fp: ClientFingerprint, n: u32) {
        let (follow, delivered) = (ActionType::Follow, ActionOutcome::Delivered);
        log.record_outbound(d, AccountId(who), asn, fp, follow, delivered, n);
    }

    const BOT: ClientFingerprint = ClientFingerprint::SpoofedMobile { variant: 1 };

    #[test]
    fn signature_grows_and_classifies_same_day() {
        let mut det = OnlineDetector::new(cfg(2, 2), &roster());
        let service_asn = AsnId(7);
        det.ingest(&day_log(0, |log, d| {
            follows(log, d, 1, service_asn, BOT, 10);
            follows(log, d, 42, service_asn, BOT, 10);
            log.push_event(honeypot_event(0, service_asn, BOT));
        }));
        // The honeypot event taught the signature before the aggregates
        // were matched, so the customer is caught on its first day.
        assert!(det.classification().is_abusive(AccountId(42)));
        assert_eq!(
            det.classification().first_seen[&(ServiceId::Boostgram, AccountId(42))],
            Day(0)
        );
    }

    #[test]
    fn home_organic_traffic_does_not_enter_signature() {
        let mut det = OnlineDetector::new(cfg(2, 2), &roster());
        det.ingest(&day_log(0, |log, _| {
            log.push_event(honeypot_event(0, AsnId(0), ClientFingerprint::OfficialApp));
        }));
        det.ingest(&DayLog::new(Day(1)));
        let frozen = det.frozen().expect("frozen at calibration end");
        assert!(frozen.signatures.is_empty(), "management traffic is not the service");
    }

    #[test]
    fn freezes_exactly_at_calibration_end() {
        let mut det = OnlineDetector::new(cfg(3, 3), &roster());
        det.ingest(&DayLog::new(Day(0)));
        det.ingest(&DayLog::new(Day(1)));
        assert!(det.frozen().is_none());
        det.ingest(&DayLog::new(Day(2)));
        assert!(det.frozen().is_some());
        let digest = det.verdict_digest().unwrap();
        // Post-freeze batches do not change the frozen verdicts.
        det.ingest(&DayLog::new(Day(3)));
        assert_eq!(det.verdict_digest(), Some(digest));
    }

    #[test]
    #[should_panic(expected = "day order")]
    fn out_of_order_batch_panics() {
        let mut det = OnlineDetector::new(cfg(3, 3), &roster());
        det.ingest(&DayLog::new(Day(1)));
    }

    #[test]
    fn pure_abuse_threshold_is_25th_percentile_of_abuse() {
        let service_asn = AsnId(7);
        let mut det = OnlineDetector::new(cfg(2, 2), &roster());
        // Day 0: signature + four abusive accounts at 10/20/30/40 follows.
        det.ingest(&day_log(0, |log, d| {
            for i in 0..4 {
                follows(log, d, 40 + i, service_asn, BOT, 10 * (i + 1));
            }
            log.push_event(honeypot_event(0, service_asn, BOT));
        }));
        det.ingest(&DayLog::new(Day(1)));
        let frozen = det.frozen().unwrap();
        let table = frozen.threshold_table();
        assert_eq!(table.asn_kinds[&service_asn], AsnTraffic::PureAbuse);
        // Nearest-rank 25th percentile of {10,20,30,40} is 10.
        assert_eq!(
            table.get(service_asn, ActionType::Follow, Direction::Outbound),
            Some(10)
        );
    }

    #[test]
    fn mixed_asn_uses_benign_99th_percentile() {
        let mixed = AsnId(7);
        let mut det = OnlineDetector::new(cfg(2, 2), &roster());
        det.ingest(&day_log(0, |log, d| {
            follows(log, d, 1, mixed, BOT, 500);
            follows(log, d, 42, mixed, BOT, 500);
            // 100 benign accounts, 1..=100 follows each, via an organic client.
            for i in 0..100u32 {
                follows(log, d, 1000 + i, mixed, ClientFingerprint::OfficialApp, i + 1);
            }
            log.push_event(honeypot_event(0, mixed, BOT));
        }));
        det.ingest(&DayLog::new(Day(1)));
        let frozen = det.frozen().unwrap();
        let table = frozen.threshold_table();
        assert_eq!(table.asn_kinds[&mixed], AsnTraffic::Mixed);
        // 99th percentile of the 100 benign counts {1..=100} is 99.
        assert_eq!(table.get(mixed, ActionType::Follow, Direction::Outbound), Some(99));
    }

    #[test]
    fn verdict_digest_is_stable_for_identical_streams() {
        let feed = |det: &mut OnlineDetector| {
            let service_asn = AsnId(7);
            det.ingest(&day_log(0, |log, d| {
                follows(log, d, 42, service_asn, BOT, 10);
                log.push_event(honeypot_event(0, service_asn, BOT));
                log.record_login(d, AccountId(42), service_asn);
            }));
            det.ingest(&DayLog::new(Day(1)));
        };
        let mut a = OnlineDetector::new(cfg(2, 2), &roster());
        let mut b = OnlineDetector::new(cfg(2, 2), &roster());
        feed(&mut a);
        feed(&mut b);
        assert_eq!(a.verdict_digest().unwrap(), b.verdict_digest().unwrap());
        assert_eq!(a.events_processed(), 3);
        assert_eq!(a.batches(), 2);
    }
}
