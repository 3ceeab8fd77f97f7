//! Measurement plumbing shared by the workloads: timing with optional
//! spans, the measurement window, per-metric samples, correctness checks
//! and the process's peak RSS.

use std::collections::BTreeMap;
use std::path::Path;

use footsteps_obs::{SpanTimer, Stopwatch, Timings, WorkerSpan};

use crate::stats::Summary;
use crate::BenchError;

/// Times calls from outside. In a traced run it also keeps a
/// benchmark-owned span tree: one root span per operation with a span
/// nested around each public call, exported as a Chrome trace.
#[derive(Debug)]
pub(crate) struct Probe {
    timings: Option<Timings>,
}

impl Probe {
    pub(crate) fn new(trace: bool) -> Self {
        let timings = trace.then(|| {
            let mut t = Timings::new();
            t.enable_events();
            t
        });
        Self { timings }
    }

    pub(crate) fn tracing(&self) -> bool {
        self.timings.is_some()
    }

    /// Open a span (traced runs only); close it with [`Probe::close`].
    pub(crate) fn open(&mut self, name: &str) -> Option<SpanTimer> {
        self.timings.as_mut().map(|t| t.start(name))
    }

    pub(crate) fn close(&mut self, span: Option<SpanTimer>) {
        if let (Some(t), Some(span)) = (self.timings.as_mut(), span) {
            t.finish(span);
        }
    }

    /// Run `f` inside a span named `name` and return its wall seconds.
    pub(crate) fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let span = self.open(name);
        let watch = Stopwatch::start();
        let out = f();
        let secs = watch.elapsed_secs();
        self.close(span);
        (out, secs)
    }

    /// Seconds on the span tree's timebase (0 when not tracing): the
    /// anchor for [`Probe::attach`].
    pub(crate) fn now(&self) -> f64 {
        self.timings.as_ref().map_or(0.0, |t| t.now_secs())
    }

    /// Attach one interval measured inside a parallel region (offsets from
    /// `region_start`) under the open span, as its own worker node.
    pub(crate) fn attach(&mut self, name: &str, region_start: f64, start_secs: f64, end_secs: f64) {
        if let Some(t) = self.timings.as_mut() {
            t.attach_workers(
                name,
                region_start,
                &[WorkerSpan {
                    lane: 0,
                    start_secs,
                    end_secs,
                }],
            );
        }
    }

    /// Bookkeeping time of the benchmark's own span tree.
    pub(crate) fn self_secs(&self) -> f64 {
        self.timings
            .as_ref()
            .map_or(0.0, |t| t.tree().obs_self_secs())
    }

    /// Export the span tree as a Chrome trace (traced runs only).
    pub(crate) fn write_trace(&self, path: &Path) -> Result<(), BenchError> {
        match &self.timings {
            Some(t) => footsteps_obs::export::write_chrome_trace(t.tree(), path)
                .map_err(|e| BenchError::io(path, e)),
            None => Ok(()),
        }
    }
}

/// A closed loop: repetitions run back to back until the window has
/// elapsed and at least `min_ops` of them have run.
#[derive(Debug)]
pub(crate) struct Window {
    watch: Stopwatch,
    seconds: f64,
    min_ops: usize,
    ops: usize,
}

/// Fewest operations per run, however short the window.
const MIN_OPS: usize = 2;
/// Set-up repeats for at least this long, and at least `SETUP_MIN_REPS`
/// times, so that `setup_s` is a median of several.
const SETUP_SECONDS: f64 = 4.0;
const SETUP_MIN_REPS: usize = 3;

impl Window {
    /// The measurement window of a run.
    pub(crate) fn measure(seconds: f64) -> Self {
        Self {
            watch: Stopwatch::start(),
            seconds,
            min_ops: MIN_OPS,
            ops: 0,
        }
    }

    /// The set-up loop of a run.
    pub(crate) fn setup() -> Self {
        Self {
            watch: Stopwatch::start(),
            seconds: SETUP_SECONDS,
            min_ops: SETUP_MIN_REPS,
            ops: 0,
        }
    }

    /// Whether to start another repetition; counts it if so.
    pub(crate) fn next_op(&mut self) -> bool {
        let go = self.ops < self.min_ops || self.watch.elapsed_secs() < self.seconds;
        if go {
            self.ops += 1;
        }
        go
    }

    /// Index of the operation last started.
    pub(crate) fn op_index(&self) -> usize {
        self.ops - 1
    }
}

/// Per-metric values, one per operation (or per set-up repetition).
#[derive(Debug, Default)]
pub(crate) struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub(crate) fn push(&mut self, name: impl Into<String>, value: f64) {
        self.0.entry(name.into()).or_default().push(value);
    }

    pub(crate) fn summaries(&self) -> BTreeMap<String, Summary> {
        self.0
            .iter()
            .map(|(name, values)| (name.clone(), Summary::of(values)))
            .collect()
    }

    pub(crate) fn medians(&self) -> BTreeMap<String, f64> {
        self.summaries()
            .into_iter()
            .map(|(name, s)| (name, s.median))
            .collect()
    }
}

/// Correctness checks on the program's outputs. Each check is one
/// attempted operation; a failed check is a failed operation.
#[derive(Debug, Default)]
pub(crate) struct Checks {
    pub(crate) attempted: u64,
    pub(crate) failures: Vec<String>,
}

impl Checks {
    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub(crate) fn peak_rss_mb() -> Result<f64, BenchError> {
    let path = Path::new("/proc/self/status");
    let status = std::fs::read_to_string(path).map_err(|e| BenchError::io(path, e))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| BenchError(format!("{}: no VmHWM line", path.display())))
}

/// Size of one file, in bytes.
pub(crate) fn file_bytes(path: &Path) -> Result<u64, BenchError> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| BenchError::io(path, e))
}

/// Remove `dir` if present, then create it empty.
pub(crate) fn fresh_dir(dir: &Path) -> Result<(), BenchError> {
    remove_dir(dir)?;
    std::fs::create_dir_all(dir).map_err(|e| BenchError::io(dir, e))
}

/// Remove `dir` and everything under it, if present.
pub(crate) fn remove_dir(dir: &Path) -> Result<(), BenchError> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(BenchError::io(dir, e)),
        _ => Ok(()),
    }
}
