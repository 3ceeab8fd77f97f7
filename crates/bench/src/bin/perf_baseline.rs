//! End-to-end engine throughput baseline.
//!
//! Runs a scenario to completion, times the whole study, and writes a
//! report with wall time, days/sec, actions/sec, the results digest, and
//! the worker thread count, so engine changes can be compared against the
//! committed `BENCH_daily_engine.baseline.json`. The report goes to
//! `output-path`, by default `BENCH_daily_engine.json` in the working
//! directory (git ignores it).
//!
//! Usage: `perf_baseline [--json] [--scenario NAME] [--threads LIST]
//! [--stream LOG] [seed] [output-path]`
//!
//! * `--scenario smoke|scaled|paper|quick` picks the preset (default
//!   `smoke`, the CI gate's scenario; `scaled` is the multi-thread sweep
//!   EXPERIMENTS.md reports).
//! * `--threads 1,2,8` enables sweep mode: the study runs once per listed
//!   thread count (overriding `FOOTSTEPS_THREADS`) and the report is a JSON
//!   **array** with one record per thread count, so one file documents
//!   the scaling curve and proves the digest is thread-invariant.
//! * `--stream LOG` benches the streaming detector instead: the scenario's
//!   characterization phase runs twice with the online detector attached —
//!   recorder off, then recorder on (writing the replayable event log to
//!   `LOG`) — and the report is a JSON array of two `stream_detector`
//!   records (events/sec through the detector, verdict digest). The two
//!   digests must match; `scripts/ci.sh` replays `LOG` through
//!   `stream-replay` and compares a third time.
//!
//! With `--json` the report is serialized through serde and additionally
//! embeds the study's deterministic metrics snapshot and the wall-clock
//! span timings — the machine-readable form `scripts/ci.sh` consumes for
//! its perf-regression and thread-invariance gates. Without the flag (and
//! without `--threads`) the compact hand-formatted report of earlier
//! revisions is kept byte-compatible.

use std::time::Instant;

use footsteps_core::results::StudyResults;
use footsteps_core::{Scenario, Study};
use footsteps_obs::{progress, MetricsSnapshot, SpanTreeSummary, TimingsSnapshot};
use footsteps_sim::prelude::*;
use serde::Serialize;

/// The machine-readable (`--json`) report shape; sweep mode emits an array
/// of these, one per thread count.
#[derive(Serialize)]
struct PerfReport {
    bench: &'static str,
    scenario: String,
    seed: u64,
    threads: usize,
    /// CPUs available on the bench host. Thread counts above this value
    /// oversubscribe the machine, so their records document digest
    /// invariance rather than speedup — readers (and the CI gate) must
    /// interpret the scaling curve relative to this bound.
    host_cpus: usize,
    setup_secs: f64,
    run_secs: f64,
    days: u64,
    days_per_sec: f64,
    actions: u64,
    actions_per_sec: f64,
    /// FNV-1a digest of the canonical results JSON, hex. Must be identical
    /// across every `threads` value — `scripts/ci.sh` compares the 1- and
    /// 8-thread records.
    results_digest: String,
    /// Summed `aas.<service>.apply` wall time: the collusion engines'
    /// deposit apply phase.
    apply_secs: f64,
    /// Deterministic counters/histograms from the study run.
    metrics: MetricsSnapshot,
    /// Wall-clock spans (non-deterministic; for profiling only).
    timings: TimingsSnapshot,
    /// Span-tree summary: per-phase inclusive/exclusive wall totals, lane
    /// counts, obs overhead, and the deterministic structure digest
    /// (`scripts/ci.sh` compares the digest across thread counts).
    span_tree: SpanTreeSummary,
}

/// The `--stream` report shape: one record per detector configuration
/// (recorder off / recorder on).
#[derive(Serialize)]
struct StreamPerfReport {
    bench: &'static str,
    scenario: String,
    seed: u64,
    threads: usize,
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
    let scenario = scenario_by_name(scenario_name, seed);
    let threads = scenario.worker_threads;
    let mut study = Study::new(scenario);
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
        threads,
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

fn run_one(scenario_name: &str, seed: u64, threads_override: Option<usize>) -> PerfReport {
    let mut scenario = scenario_by_name(scenario_name, seed);
    if let Some(t) = threads_override {
        scenario.worker_threads = t.clamp(1, 256);
    }
    let threads = scenario.worker_threads;

    let build_start = Instant::now();
    let mut study = Study::new(scenario);
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
    let timings = study.platform.obs.timings.snapshot();
    let apply_secs: f64 = ServiceId::ALL
        .iter()
        .filter_map(|s| timings.get(&format!("aas.{}.apply", s.slug())))
        .map(|span| span.total_secs)
        .sum();

    progress!(
        "daily_engine[{scenario_name}, {threads}T]: {days} days in {run_secs:.2}s \
         ({:.2} days/sec, apply {apply_secs:.2}s)",
        days as f64 / run_secs
    );
    PerfReport {
        bench: "daily_engine",
        scenario: scenario_name.to_string(),
        seed,
        threads,
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        setup_secs: build_secs,
        run_secs,
        days,
        days_per_sec: days as f64 / run_secs,
        actions,
        actions_per_sec: actions as f64 / run_secs,
        results_digest: format!("0x{digest:016x}"),
        apply_secs,
        metrics: study.platform.obs.metrics.snapshot(),
        timings,
        span_tree: study.platform.obs.timings.summary(),
    }
}

fn main() {
    let mut json = false;
    let mut scenario_name = "smoke".to_string();
    let mut threads_list: Option<Vec<usize>> = None;
    let mut stream_log: Option<String> = None;
    let mut positional = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--scenario" => {
                scenario_name = args.next().expect("--scenario needs a name");
            }
            "--threads" => {
                let list = args.next().expect("--threads needs a comma list, e.g. 1,2,8");
                threads_list = Some(
                    list.split(',')
                        .map(|s| s.trim().parse().expect("thread counts must be integers"))
                        .collect(),
                );
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

    if let Some(log) = stream_log {
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
        let mut body =
            serde_json::to_string_pretty(&records[..]).expect("stream reports serialize");
        body.push('\n');
        std::fs::write(&out_path, &body).expect("write report");
        progress!("wrote {out_path}");
        return;
    }

    let plain = !json && threads_list.is_none();
    let report = if let Some(threads_list) = threads_list {
        // Sweep mode: one record per thread count, always serde JSON.
        assert!(!threads_list.is_empty(), "--threads list must be non-empty");
        let records: Vec<PerfReport> = threads_list
            .iter()
            .map(|&t| run_one(&scenario_name, seed, Some(t)))
            .collect();
        let digests: Vec<&str> = records.iter().map(|r| r.results_digest.as_str()).collect();
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "results digest varied across thread counts: {digests:?}"
        );
        let mut body = serde_json::to_string_pretty(&records).expect("perf reports serialize");
        body.push('\n');
        body
    } else if json {
        let record = run_one(&scenario_name, seed, None);
        let mut body = serde_json::to_string_pretty(&record).expect("perf report serializes");
        body.push('\n');
        body
    } else {
        let r = run_one(&scenario_name, seed, None);
        format!(
            "{{\n  \"bench\": \"daily_engine\",\n  \"scenario\": \"{}\",\n  \"seed\": {},\n  \"threads\": {},\n  \"setup_secs\": {:.3},\n  \"run_secs\": {:.3},\n  \"days\": {},\n  \"days_per_sec\": {:.2},\n  \"actions\": {},\n  \"actions_per_sec\": {:.0}\n}}\n",
            r.scenario,
            r.seed,
            r.threads,
            r.setup_secs,
            r.run_secs,
            r.days,
            r.days_per_sec,
            r.actions,
            r.actions_per_sec,
        )
    };
    std::fs::write(&out_path, &report).expect("write report");
    if plain {
        print!("{report}");
    }
    progress!("wrote {out_path}");
}
