//! End-to-end engine throughput baseline.
//!
//! Runs a scenario to completion, times the whole study, and writes a
//! JSON report: wall time, days/sec, actions/sec, the results digest and
//! the span-structure digest, so engine changes can be compared against
//! the committed `BENCH_daily_engine.baseline.json`. The report goes to
//! `output-path`, by default `BENCH_daily_engine.json` in the working
//! directory (git ignores it); `scripts/ci.sh`'s perf, trace and
//! obs-overhead gates read it.
//!
//! Usage: `perf_baseline [--scenario NAME] [--stream LOG] [seed]
//! [output-path]`
//!
//! * `--scenario smoke|scaled|paper|quick` picks the preset (default
//!   `smoke`, the CI gate's scenario).
//! * `--stream LOG` benches the streaming detector instead: the scenario's
//!   characterization phase runs twice with the online detector attached —
//!   recorder off, then recorder on (writing the replayable event log to
//!   `LOG`) — and the report is a JSON array of two `stream_detector`
//!   records (events/sec through the detector, verdict digest). The two
//!   digests must match; `scripts/ci.sh` replays `LOG` through
//!   `stream-replay` and compares a third time.

use std::time::Instant;

use footsteps_core::results::StudyResults;
use footsteps_core::{Scenario, Study};
use footsteps_obs::progress;
use footsteps_sim::prelude::*;
use serde::Serialize;

/// The daily-engine report.
#[derive(Serialize)]
struct PerfReport {
    bench: &'static str,
    scenario: String,
    seed: u64,
    setup_secs: f64,
    run_secs: f64,
    days: u64,
    days_per_sec: f64,
    actions: u64,
    actions_per_sec: f64,
    /// FNV-1a digest of the canonical results JSON, hex. Tracing must not
    /// move it: `scripts/ci.sh` compares a traced and an untraced run.
    results_digest: String,
    /// FNV-1a digest of the span tree's deterministic structure (names,
    /// nesting, lane kinds, counts), hex. `scripts/ci.sh` compares a
    /// traced and an untraced run's.
    structure_digest: String,
}

/// The `--stream` report shape: one record per detector configuration
/// (recorder off / recorder on).
#[derive(Serialize)]
struct StreamPerfReport {
    bench: &'static str,
    scenario: String,
    seed: u64,
    /// Whether the run also serialized the event log to disk.
    recorder: bool,
    /// Day batches the detector consumed.
    batches: u64,
    /// Records consumed (outbound + inbound + logins + events).
    events: u64,
    /// Wall-clock seconds inside `OnlineDetector::ingest`.
    detector_secs: f64,
    events_per_sec: f64,
    /// FNV-1a digest of the frozen verdict snapshot, hex. Must be
    /// identical with the recorder on and off, and must match what
    /// `stream-replay` recomputes from the recorded log.
    verdict_digest: String,
    /// Where the log landed, when the recorder was on.
    log_path: Option<String>,
}

fn run_stream(scenario_name: &str, seed: u64, record_to: Option<&std::path::Path>) -> StreamPerfReport {
    let mut study = Study::new(scenario_by_name(scenario_name, seed));
    study.attach_stream(record_to).expect("stream attaches");
    study.run_characterization();
    let outcome = study.stream.take().expect("stream outcome frozen");
    let events_per_sec = if outcome.detector_secs > 0.0 {
        outcome.events_processed as f64 / outcome.detector_secs
    } else {
        0.0
    };
    progress!(
        "stream_detector[{scenario_name}, recorder {}]: {} events in {:.3}s ({:.0} events/sec)",
        if record_to.is_some() { "on" } else { "off" },
        outcome.events_processed,
        outcome.detector_secs,
        events_per_sec,
    );
    StreamPerfReport {
        bench: "stream_detector",
        scenario: scenario_name.to_string(),
        seed,
        recorder: record_to.is_some(),
        batches: outcome.batches,
        events: outcome.events_processed,
        detector_secs: outcome.detector_secs,
        events_per_sec,
        verdict_digest: format!("0x{:016x}", outcome.verdict_digest),
        log_path: outcome.log_path.map(|p| p.display().to_string()),
    }
}

fn scenario_by_name(name: &str, seed: u64) -> Scenario {
    match name {
        "smoke" => Scenario::smoke(seed),
        "scaled" => Scenario::default_scaled(seed),
        "paper" => Scenario::paper(seed),
        "quick" => Scenario::quick(seed),
        other => panic!("unknown scenario '{other}' (smoke|scaled|paper|quick)"),
    }
}

fn run_one(scenario_name: &str, seed: u64) -> PerfReport {
    let build_start = Instant::now();
    let mut study = Study::new(scenario_by_name(scenario_name, seed));
    let build_secs = build_start.elapsed().as_secs_f64();

    let run_start = Instant::now();
    study.run_to_completion();
    let run_secs = run_start.elapsed().as_secs_f64();

    let days = u64::from(study.timeline.end.0);
    let mut actions: u64 = 0;
    for log in study.platform.log.iter_range(Day(0), study.timeline.end) {
        for (_, counts) in log.outbound() {
            actions += u64::from(counts.total_attempted());
        }
    }
    let digest = StudyResults::collect(&study).digest();

    progress!(
        "daily_engine[{scenario_name}]: {days} days in {run_secs:.2}s ({:.2} days/sec)",
        days as f64 / run_secs
    );
    PerfReport {
        bench: "daily_engine",
        scenario: scenario_name.to_string(),
        seed,
        setup_secs: build_secs,
        run_secs,
        days,
        days_per_sec: days as f64 / run_secs,
        actions,
        actions_per_sec: actions as f64 / run_secs,
        results_digest: format!("0x{digest:016x}"),
        structure_digest: study.platform.obs.timings.structure_digest(),
    }
}

fn main() {
    let mut scenario_name = "smoke".to_string();
    let mut stream_log: Option<String> = None;
    let mut positional = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenario" => {
                scenario_name = args.next().expect("--scenario needs a name");
            }
            "--stream" => {
                stream_log = Some(args.next().expect("--stream needs a log path"));
            }
            _ => positional.push(arg),
        }
    }
    let mut positional = positional.into_iter();
    let seed: u64 = positional
        .next()
        .map(|s| s.parse().expect("seed must be an integer"))
        .unwrap_or(7);
    let out_path = positional
        .next()
        .unwrap_or_else(|| "BENCH_daily_engine.json".to_string());

    let mut body = if let Some(log) = stream_log {
        // Streaming-detector bench: recorder off, then recorder on.
        let log = std::path::PathBuf::from(log);
        let records = [
            run_stream(&scenario_name, seed, None),
            run_stream(&scenario_name, seed, Some(&log)),
        ];
        assert_eq!(
            records[0].verdict_digest, records[1].verdict_digest,
            "verdict digest must not depend on the recorder"
        );
        serde_json::to_string_pretty(&records[..]).expect("stream reports serialize")
    } else {
        serde_json::to_string_pretty(&run_one(&scenario_name, seed))
            .expect("perf report serializes")
    };
    body.push('\n');
    std::fs::write(&out_path, &body).expect("write report");
    progress!("wrote {out_path}");
}
