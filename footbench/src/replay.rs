//! `replay-smoke`: offline replay of a recorded event log.
//!
//! Set-up records the smoke characterization's event log (the simulator
//! runs with the streaming detector and its recorder attached). One
//! operation replays that log through a fresh online detector with
//! `footsteps_stream::replay`; a traced run drives the same replay through
//! `EventLogReader::next_batch` and `OnlineDetector::ingest` so parse and
//! ingest time separate. This path is mostly JSONL parsing and bypasses
//! the simulator. After the window the log is re-encoded once through
//! `EventLogWriter`, the write-side counterpart of the same format.

use std::path::Path;

use footsteps_core::{Scenario, Study};
use footsteps_obs::Stopwatch;
use footsteps_stream::{
    EventLogReader, EventLogWriter, OnlineDetector, StreamConfig, StreamError, StreamOutcome,
};

use crate::probe;
use crate::{BenchError, Config, Run};

/// Run the workload, keeping its files under `dir`.
pub(crate) fn run(cfg: &Config, dir: &Path, run: &mut Run) -> Result<(), BenchError> {
    let scenario = cfg.scenario(cfg.seed);
    let log = dir.join("events.jsonl");
    let mut inline: Option<StreamOutcome> = None;
    let mut setup = run.setup_window();
    while setup.next_op() {
        let rep = setup.op_index();
        let (recorded, secs) = run.probe.time("stream.record", || record(&scenario, &log));
        let recorded = recorded?;
        run.push_time("setup_s", secs);
        run.layers.push("stream.record_s", secs);
        if let Some(first) = &inline {
            run.checks
                .check(first.verdict_digest == recorded.verdict_digest, || {
                    format!(
                        "recording {rep}: verdict digest {:#018x}, first recording {:#018x}",
                        recorded.verdict_digest, first.verdict_digest
                    )
                });
        }
        inline = Some(recorded);
    }
    let inline = inline.expect("set-up records at least once");
    let log_bytes = probe::file_bytes(&log)?;

    let mut window = run.measure_window(cfg.seconds);
    while window.next_op() {
        let op = window.op_index();
        let watch = Stopwatch::start();
        let root = run.probe.open("op");
        let replayed: Replayed = if run.probe.tracing() {
            replay_by_hand(&log, run)?
        } else {
            run.probe
                .time("stream.replay", || footsteps_stream::replay(&log))
                .0?
                .into()
        };
        run.probe.close(root);
        let op_s = watch.elapsed_secs();
        check_replay(&replayed, &inline, &format!("replay {op}"), run);
        run.push_time("op_s", op_s);
        if run.probe.tracing() {
            let parse_s = replayed.parse_s;
            run.layers.push("stream.parse_s", parse_s);
            run.layers
                .push("stream.parse_mb_per_s", log_bytes as f64 / 1e6 / parse_s);
            run.layers
                .push("stream.ingest_s", replayed.outcome.detector_secs);
            run.layers.push(
                "bench.unattributed_s",
                op_s - parse_s - replayed.outcome.detector_secs,
            );
        }
    }

    let copy = dir.join("reencoded.jsonl");
    reencode(&log, &copy, run)?;
    let again = footsteps_stream::replay(&copy)?;
    check_replay(&again.into(), &inline, "re-encoded log", run);

    let l = &mut run.layers;
    l.push("stream.records", inline.events_processed as f64);
    l.push("stream.batches", inline.batches as f64);
    l.push("stream.log_bytes", log_bytes as f64);
    Ok(())
}

/// Build the world and run characterization with the recorder on.
fn record(scenario: &Scenario, log: &Path) -> Result<StreamOutcome, BenchError> {
    let mut study = Study::new(scenario.clone());
    study.attach_stream(Some(log))?;
    study.run_characterization();
    study
        .stream
        .take()
        .ok_or_else(|| BenchError("characterization froze no stream outcome".to_string()))
}

/// A replay's outcome and the time spent reading and parsing the log
/// (0 when replayed through `footsteps_stream::replay`, which does not
/// separate it).
#[derive(Debug)]
struct Replayed {
    outcome: StreamOutcome,
    parse_s: f64,
}

impl From<StreamOutcome> for Replayed {
    fn from(outcome: StreamOutcome) -> Self {
        Replayed {
            outcome,
            parse_s: 0.0,
        }
    }
}

fn check_replay(replayed: &Replayed, inline: &StreamOutcome, what: &str, run: &mut Run) {
    let got = &replayed.outcome;
    run.checks
        .check(got.verdict_digest == inline.verdict_digest, || {
            format!(
                "{what}: verdict digest {:#018x}, inline recording {:#018x}",
                got.verdict_digest, inline.verdict_digest
            )
        });
    run.checks.check(
        got.events_processed == inline.events_processed && got.batches == inline.batches,
        || {
            format!(
                "{what}: {} records in {} batches, inline recording {} in {}",
                got.events_processed, got.batches, inline.events_processed, inline.batches
            )
        },
    );
}

/// `footsteps_stream::replay` with a span around every public call.
fn replay_by_hand(log: &Path, run: &mut Run) -> Result<Replayed, BenchError> {
    let (reader, mut parse_s) = run.probe.time("stream.open", || EventLogReader::open(log));
    let mut reader = reader?;
    let header = reader.header();
    let config = StreamConfig {
        calibration_start: header.calibration_start,
        calibration_end: header.calibration_end,
        window_days: header.window_days,
    };
    let mut detector = OnlineDetector::new(config, &header.roster);
    let mut ingest_s = 0.0;
    loop {
        let (batch, secs) = run.probe.time("stream.next_batch", || reader.next_batch());
        parse_s += secs;
        let Some(batch) = batch? else { break };
        let ((), secs) = run.probe.time("stream.ingest", || detector.ingest(&batch));
        ingest_s += secs;
    }
    let reached = detector.next_day();
    let outcome = detector
        .into_outcome(ingest_s, Some(log.to_path_buf()))
        .ok_or(StreamError::Incomplete { reached })?;
    Ok(Replayed { outcome, parse_s })
}

/// Copy the log batch by batch through a fresh `EventLogWriter`, timing
/// the writer's calls.
fn reencode(log: &Path, copy: &Path, run: &mut Run) -> Result<(), BenchError> {
    let mut reader = EventLogReader::open(log)?;
    let (writer, create_s) = run.probe.time("stream.create", || {
        EventLogWriter::create(copy, reader.header())
    });
    let mut writer = writer?;
    let mut append_s = 0.0;
    while let Some(batch) = reader.next_batch()? {
        let (appended, secs) = run.probe.time("stream.append", || writer.append(&batch));
        appended?;
        append_s += secs;
    }
    let (finished, finish_s) = run.probe.time("stream.finish", || writer.finish());
    finished?;
    let l = &mut run.layers;
    l.push("stream.append_s", append_s);
    l.push("stream.finish_s", finish_s);
    l.push("stream.log_write_s", create_s + append_s + finish_s);
    Ok(())
}
