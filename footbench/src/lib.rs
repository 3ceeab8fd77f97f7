//! # footbench
//!
//! A repeatable benchmark over two ways users rerun the study:
//! regenerating the report (`report_all`) and replaying a recorded event
//! log through the online detector (`stream-replay`). Each workload is a
//! closed loop of operations in one process: the next operation starts
//! when the last one returns, until the measurement window has elapsed.
//!
//! The benchmark times only calls into the program's public functions. A
//! traced run additionally nests a span around each of those calls in a
//! benchmark-owned span tree, and reads the layers that exist only inside
//! the study's day loop from the span tree the study records itself.
//!
//! [`run_workload`] runs one workload in this process and returns its
//! metrics and the outcome of its correctness checks; the `footbench`
//! binary wraps it (see the crate README).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod calibrate;
pub mod compare;
mod probe;
mod replay;
mod report;
pub mod stats;
pub mod tables;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use footsteps_core::Scenario;
use serde::{Deserialize, Serialize};

pub use tables::Workload;
use tables::{END_TO_END, LAYERS};

use calibrate::Calibration;
use probe::{Checks, Probe, Samples, Window};
use stats::Summary;

/// Measurement window of one run when none is given: `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 40.0;

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed the workload's scenarios are generated from.
    pub seed: u64,
    /// Length of the measurement window, in seconds.
    pub seconds: f64,
    /// Traced run: span trees on, per-layer metrics reported.
    pub trace: bool,
    /// Run every workload at `Scenario::quick` size (a fast end-to-end
    /// check of the benchmark itself).
    pub quick: bool,
    /// Directory for the workload's files; emptied before and after.
    pub work_dir: PathBuf,
    /// Where a traced run writes `<workload>.trace.json`, if anywhere.
    pub trace_dir: Option<PathBuf>,
}

impl Config {
    /// The scenario for `seed`: smoke (quick with `quick`) on one worker
    /// thread, never the environment's thread count.
    fn scenario(&self, seed: u64) -> Scenario {
        let mut scenario = if self.quick {
            Scenario::quick(seed)
        } else {
            Scenario::smoke(seed)
        };
        scenario.worker_threads = 1;
        scenario
    }
}

/// Any failure that stops a workload before it can report.
#[derive(Debug)]
pub struct BenchError(pub String);

impl BenchError {
    fn io(path: &Path, err: std::io::Error) -> Self {
        BenchError(format!("{}: {err}", path.display()))
    }
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BenchError {}

impl From<footsteps_stream::StreamError> for BenchError {
    fn from(e: footsteps_stream::StreamError) -> Self {
        BenchError(e.to_string())
    }
}

/// What one workload run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// Checks attempted.
    pub attempted: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Every end-to-end metric: its samples' summary. Timings are in
    /// reference seconds, and the reported value is the median (see
    /// [`END_TO_END`]).
    pub end_to_end: BTreeMap<String, Summary>,
    /// The end-to-end timings' samples as measured, in wall seconds.
    pub wall: BTreeMap<String, Summary>,
    /// Per-layer metrics the workload measures (traced runs only).
    pub layers: BTreeMap<String, f64>,
}

/// One metric value in a run record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The one-line JSON result of a run: the last line `footbench` prints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Every check passed.
    pub correct: bool,
    /// Checks attempted.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: BTreeMap<String, MetricValue>,
}

impl Outcome {
    /// The run record: every end-to-end metric, or with `trace` every
    /// per-layer metric (0 for layers this workload does not measure).
    pub fn record(&self, trace: bool) -> RunRecord {
        let metric = |value: f64, unit: &str| MetricValue {
            value,
            unit: unit.to_string(),
        };
        let metrics = if trace {
            LAYERS
                .iter()
                .map(|l| {
                    let value = self.layers.get(l.name).copied().unwrap_or(0.0);
                    (l.name.to_string(), metric(value, l.unit))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        metric(self.end_to_end[m.name].median, m.unit),
                    )
                })
                .collect()
        };
        RunRecord {
            correct: self.failures.is_empty(),
            attempted: self.attempted,
            failed: self.failures.len() as u64,
            metrics,
        }
    }
}

/// A workload's live measurement state.
#[derive(Debug)]
pub(crate) struct Run {
    pub(crate) probe: Probe,
    pub(crate) checks: Checks,
    calibration: Calibration,
    /// End-to-end samples (`op_s` per operation, `setup_s` per set-up).
    e2e: Samples,
    /// The same timings in wall seconds.
    wall: Samples,
    /// Per-layer samples (traced runs).
    pub(crate) layers: Samples,
}

impl Run {
    /// The set-up loop, starting from a fresh calibration.
    pub(crate) fn setup_window(&mut self) -> Window {
        self.calibration.recalibrate();
        Window::setup()
    }

    /// The measurement window, starting from a fresh calibration.
    pub(crate) fn measure_window(&mut self, seconds: f64) -> Window {
        self.calibration.recalibrate();
        Window::measure(seconds)
    }

    /// Record one repetition of an end-to-end timing that took `wall_s`
    /// seconds: calibrate the host, and keep the time in reference seconds
    /// and as measured.
    pub(crate) fn push_time(&mut self, metric: &str, wall_s: f64) {
        let scaled = self.calibration.scale(wall_s);
        self.e2e.push(metric, scaled);
        self.wall.push(metric, wall_s);
    }
}

/// Run one workload in this process.
pub fn run_workload(workload: Workload, cfg: &Config) -> Result<Outcome, BenchError> {
    let dir = cfg.work_dir.join(workload.name());
    probe::fresh_dir(&dir)?;
    let mut run = Run {
        probe: Probe::new(cfg.trace),
        checks: Checks::default(),
        calibration: Calibration::new(),
        e2e: Samples::default(),
        wall: Samples::default(),
        layers: Samples::default(),
    };
    match workload {
        Workload::ReportSmoke => report::run(cfg, &mut run)?,
        Workload::ReplaySmoke => replay::run(cfg, &dir, &mut run)?,
    }
    probe::remove_dir(&dir)?;
    if let Some(trace_dir) = &cfg.trace_dir {
        std::fs::create_dir_all(trace_dir).map_err(|e| BenchError::io(trace_dir, e))?;
        run.probe
            .write_trace(&trace_dir.join(format!("{}.trace.json", workload.name())))?;
    }

    let mut end_to_end = run.e2e.summaries();
    end_to_end.insert("peak_rss_mb".into(), Summary::of(&[probe::peak_rss_mb()?]));
    let wall = run.wall.summaries();
    let mut layers = BTreeMap::new();
    if cfg.trace {
        let op = end_to_end["op_s"];
        layers = run.layers.medians();
        layers.insert("bench.op_s".into(), op.median);
        layers.insert("bench.op_median_s".into(), wall["op_s"].median);
        layers.insert("bench.ops".into(), op.n as f64);
        layers.insert("bench.calibration_s".into(), run.calibration.median_secs());
        *layers.entry("obs.self_s".into()).or_insert(0.0) += run.probe.self_secs() / op.n as f64;
    }
    Ok(Outcome {
        workload,
        attempted: run.checks.attempted,
        failures: run.checks.failures,
        end_to_end,
        wall,
        layers,
    })
}
