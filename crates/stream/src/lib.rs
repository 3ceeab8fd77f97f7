//! # footsteps-stream
//!
//! Online detection over a replayable platform event log (DESIGN.md §8).
//!
//! The batch pipeline of *Following Their Footsteps* looks backwards over
//! a finished window. A production counter-abuse system does not get that
//! luxury: signatures, classifications and thresholds must be maintained
//! as traffic arrives. This crate adds that online vantage point on top
//! of the simulator, in three pieces:
//!
//! * [`envelope`] — the versioned JSONL event log: a header, then one
//!   sealed `footsteps_sim::DayLog` per day (action aggregates with
//!   enforcement outcomes, logins with ASN, photo like rates, honeypot
//!   event streams), appended as a study seals its days;
//! * [`online`] — the [`OnlineDetector`]: the `footsteps-detect` stages
//!   fed one day at a time — signatures learned from the honeypot roster,
//!   per-day classification with day-of-first-detection, and the §6.2
//!   threshold window frozen at the calibration boundary;
//! * [`latency`] — detection latency and precision/recall of the online
//!   verdicts against the batch classifier.
//!
//! `footsteps_core::Study` feeds the detector and the recorder inline.
//! [`replay`] re-runs a recorded log through a fresh detector offline;
//! CI asserts its verdict digest is byte-identical to the inline run's.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod envelope;
pub mod latency;
pub mod online;

pub use envelope::{
    EventLogReader, EventLogWriter, LogHeader, RosterEntry, StreamError,
    STREAM_SCHEMA_VERSION,
};
pub use footsteps_detect::roster;
pub use latency::{latency_report, LatencyReport, ServiceLatency};
pub use online::{
    OnlineDetector, StreamConfig, StreamOutcome, VerdictSnapshot, VERDICT_SCHEMA_VERSION,
};

use footsteps_obs::Stopwatch;
use std::path::Path;

/// Replay a recorded event log through a fresh [`OnlineDetector`].
///
/// The log header carries the roster and window geometry, so replay needs
/// nothing but the file. Every line is read, so a torn line anywhere is an
/// error, but days are ingested only up to the freeze, as inline: digest and
/// counters match the inline run's, for a log of any length past the freeze.
pub fn replay(path: &Path) -> Result<StreamOutcome, StreamError> {
    let mut reader = EventLogReader::open(path)?;
    let header = reader.header();
    let config = StreamConfig {
        calibration_start: header.calibration_start,
        calibration_end: header.calibration_end,
        window_days: header.window_days,
    };
    let roster = header.roster.clone();
    let mut detector = OnlineDetector::new(config, &roster);
    let sw = Stopwatch::start();
    while let Some(day) = reader.next_batch()? {
        if detector.frozen().is_none() {
            detector.ingest(&day);
        }
    }
    let reached = detector.next_day();
    detector
        .into_outcome(sw.elapsed_secs(), Some(path.to_path_buf()))
        .ok_or(StreamError::Incomplete { reached })
}

#[cfg(test)]
mod tests {
    use super::*;
    use footsteps_sim::prelude::{Day, DayLog};

    /// Replay a three-day log whose batch lines (days 0, 1, 2) are
    /// rearranged by `edit`, and return the corruption message. The
    /// detector freezes on day 1, so day 2 is read but not ingested.
    fn replay_edited(name: &str, edit: impl FnOnce(&mut Vec<String>)) -> String {
        let path = std::env::temp_dir()
            .join(format!("footsteps_stream_replay_{}_{name}.jsonl", std::process::id()));
        let header = LogHeader {
            schema_version: STREAM_SCHEMA_VERSION,
            seed: 7,
            calibration_start: Day(0),
            calibration_end: Day(2),
            window_days: 2,
            roster: Vec::new(),
        };
        let mut w = EventLogWriter::create(&path, &header).unwrap();
        for day in 0..3 {
            w.append(&DayLog::new(Day(day))).unwrap();
        }
        w.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let mut batches = lines.split_off(1);
        edit(&mut batches);
        lines.extend(batches);
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let result = replay(&path);
        std::fs::remove_file(&path).ok();
        match result {
            Err(StreamError::Corrupt(msg)) => msg,
            other => panic!("expected a corrupt log, got {other:?}"),
        }
    }

    #[test]
    fn out_of_order_batches_are_corrupt() {
        let gap = replay_edited("gap", |b| {
            b.remove(1);
        });
        assert_eq!(gap, "line 3: day 2 where day 1 was expected");
        let swap = replay_edited("swap", |b| b.swap(0, 1));
        assert_eq!(swap, "line 2: day 1 where day 0 was expected");
        let repeat = replay_edited("repeat", |b| b.insert(1, b[1].clone()));
        assert_eq!(repeat, "line 4: day 1 where day 2 was expected");
    }

    #[test]
    fn torn_tail_past_the_freeze_is_corrupt() {
        // A kill left day 2's line torn.
        let torn = replay_edited("torn", |b| {
            let cut = b[2].len() / 2;
            b[2].truncate(cut);
        });
        assert!(torn.starts_with("line 4: "), "{torn}");
    }
}
