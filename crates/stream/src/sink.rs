//! The platform-side recorder: a `sim::EventSink` that feeds the online
//! detector as days seal, and (optionally) serializes each batch into the
//! replayable event log.
//!
//! The sink is observability-plus-detection state hanging off the
//! platform the same way the metrics recorder does: it never feeds back
//! into simulation decisions, so installing it cannot move the golden
//! digest. Logins are accumulated per `(account, ASN)` as they happen on
//! the serial mutation path; day aggregates are read straight from the
//! sealed [`DayLog`] at drain time, so a sink installed after setup still
//! sees complete days.

use crate::envelope::{
    EventBatch, EventLogWriter, LogHeader, LoginRecord, RosterEntry, StreamError,
};
use crate::online::{OnlineDetector, StreamConfig, StreamOutcome};
use footsteps_detect::roster;
use footsteps_honeypot::HoneypotFramework;
use footsteps_obs::Stopwatch;
use footsteps_sim::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;

/// The event sink: detector + optional recorder.
#[derive(Debug)]
pub struct StreamSink {
    detector: OnlineDetector,
    writer: Option<EventLogWriter>,
    pending_logins: BTreeMap<Day, BTreeMap<(AccountId, AsnId), u32>>,
    detector_secs: f64,
    write_error: Option<StreamError>,
}

impl StreamSink {
    /// A sink feeding a fresh detector; recording is on when `writer` is.
    pub fn new(config: StreamConfig, roster: &[RosterEntry], writer: Option<EventLogWriter>) -> Self {
        Self {
            detector: OnlineDetector::new(config, roster),
            writer,
            pending_logins: BTreeMap::new(),
            detector_secs: 0.0,
            write_error: None,
        }
    }

    /// Convenience constructor: build the roster from the framework, open
    /// the recorder at `record_to` (if given), and return the ready sink.
    pub fn build(
        platform: &Platform,
        framework: &HoneypotFramework,
        seed: u64,
        config: StreamConfig,
        record_to: Option<&Path>,
    ) -> Result<Self, StreamError> {
        let roster = roster(framework, platform);
        let writer = match record_to {
            Some(path) => {
                let header = LogHeader::new(
                    seed,
                    config.calibration_start,
                    config.calibration_end,
                    config.window_days,
                    roster.clone(),
                );
                Some(EventLogWriter::create(path, &header)?)
            }
            None => None,
        };
        Ok(Self::new(config, &roster, writer))
    }

    /// The detector's running state (tests and live inspection).
    pub fn detector(&self) -> &OnlineDetector {
        &self.detector
    }

    /// Detach the installed [`StreamSink`] from `platform` and finish it:
    /// the recorder (if any) is flushed and atomically renamed into place,
    /// and the frozen verdicts come back as a [`StreamOutcome`].
    ///
    /// Returns `None` if no sink is installed or the installed sink is not
    /// a `StreamSink` (a foreign sink is dropped — `StreamSink` is the
    /// only implementor in the workspace).
    pub fn detach(platform: &mut Platform) -> Option<Result<StreamOutcome, StreamError>> {
        let sink = platform.take_sink()?;
        let me = sink.into_any().downcast::<StreamSink>().ok()?;
        Some(me.finish())
    }

    /// Finish the run directly (replay-side callers own the sink).
    pub fn finish(mut self) -> Result<StreamOutcome, StreamError> {
        if let Some(e) = self.write_error.take() {
            return Err(e);
        }
        let log_path = match self.writer.take() {
            Some(w) => Some(w.finish()?),
            None => None,
        };
        let reached = self.detector.next_day();
        self.detector
            .into_outcome(self.detector_secs, log_path)
            .ok_or(StreamError::Incomplete { reached })
    }
}

impl EventSink for StreamSink {
    fn next_day(&self) -> Day {
        self.detector.next_day()
    }

    fn on_login(&mut self, day: Day, account: AccountId, asn: AsnId) {
        *self
            .pending_logins
            .entry(day)
            .or_default()
            .entry((account, asn))
            .or_insert(0) += 1;
    }

    fn on_day_complete(&mut self, day: Day, log: Option<&DayLog>) {
        let logins: Vec<LoginRecord> = self
            .pending_logins
            .remove(&day)
            .map(|m| {
                m.into_iter()
                    .map(|((account, asn), count)| LoginRecord { account, asn, count })
                    .collect()
            })
            .unwrap_or_default();
        let batch = EventBatch::from_day(day, log, logins);
        let sw = Stopwatch::start();
        self.detector.ingest(&batch);
        self.detector_secs += sw.elapsed_secs();
        if let Some(w) = self.writer.as_mut() {
            if let Err(e) = w.append(&batch) {
                // Surface at finish(): the sink must not panic mid-phase.
                self.write_error = Some(e);
                self.writer = None;
            }
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}
