//! Sets of runs on disk and `footbench compare`: two sets of runs, one
//! row per workload and end-to-end metric, with a verdict against the
//! metric's bound in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::stats::{median, quartiles, relative_spread};
use crate::{BenchError, RunRecord};

/// A set of runs of every workload, as `footbench --out` writes it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunSet {
    /// Seed every run used.
    pub seed: u64,
    /// Measurement window of each run, in seconds.
    pub seconds: f64,
    /// CPUs available to the runs.
    pub host_cpus: u64,
    /// Untraced runs per workload, in run order.
    pub workloads: BTreeMap<String, Vec<RunRecord>>,
    /// One traced run per workload, if the set was traced.
    pub traced: BTreeMap<String, RunRecord>,
}

/// The parts of `BENCHMARK.json` the benchmark reads: its directories,
/// window, workloads and metrics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchFile {
    /// Directories holding the benchmark.
    pub paths: Vec<String>,
    /// Measurement window of one run, in seconds.
    pub run_seconds: u64,
    /// The workloads.
    pub workloads: Vec<WorkloadEntry>,
    /// End-to-end metrics, each with its regression bound.
    pub end_to_end: Vec<EndToEndEntry>,
    /// Per-layer metrics.
    pub per_layer: Vec<LayerEntry>,
}

/// A workload entry of `BENCHMARK.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadEntry {
    /// Workload name.
    pub name: String,
}

/// An end-to-end metric entry of `BENCHMARK.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EndToEndEntry {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A per-layer metric entry of `BENCHMARK.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerEntry {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
}

/// Read and parse a JSON file.
pub fn read_json<T: serde::Deserialize>(path: &Path) -> Result<T, BenchError> {
    let text = std::fs::read_to_string(path).map_err(|e| BenchError::io(path, e))?;
    serde_json::from_str(&text).map_err(|e| BenchError(format!("{}: {e}", path.display())))
}

/// How the change compares with the parent on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the parent's own spread, in at least nine
    /// tenths of the run pairs.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Neither better nor worse.
    Unchanged,
    /// One side's spread is wider than the bound, so the bound cannot be
    /// resolved (unless every change run beats every parent run).
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `change` against `parent` for one metric with regression bound
/// `bound` (a share of the parent's median).
///
/// # Panics
/// Panics if either side has no runs.
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let beats = |c: f64, p: f64| if lower_is_better { c < p } else { c > p };
    if relative_spread(parent).max(relative_spread(change)) > bound {
        let every_run_better = change.iter().all(|&c| parent.iter().all(|&p| beats(c, p)));
        return if every_run_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let (mp, mc) = (median(parent), median(change));
    let scale = mp.abs().max(f64::MIN_POSITIVE);
    let worse_by = if lower_is_better { mc - mp } else { mp - mc } / scale;
    if worse_by > bound {
        return Verdict::Worse;
    }
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| beats(c, p))
        .count();
    if -worse_by > relative_spread(parent) && wins * 10 >= pairs * 9 {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// The comparison table of two run sets; also returns how many rows read
/// "worse".
pub fn compare(parent: &RunSet, change: &RunSet, bench: &BenchFile) -> (String, usize) {
    let mut out = String::new();
    let mut worse = 0;
    let _ = writeln!(
        out,
        "{:<18} {:<12} {:>28} {:>28} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "bound"
    );
    for w in &bench.workloads {
        let (Some(a), Some(b)) = (parent.workloads.get(&w.name), change.workloads.get(&w.name))
        else {
            let _ = writeln!(out, "{:<18} (missing from one side)", w.name);
            continue;
        };
        for m in &bench.end_to_end {
            let values = |runs: &[RunRecord]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&m.name))
                    .map(|v| v.value)
                    .collect()
            };
            let (va, vb) = (values(a), values(b));
            if va.is_empty() || vb.is_empty() {
                let _ = writeln!(out, "{:<18} {:<12} (missing from one side)", w.name, m.name);
                continue;
            }
            let v = verdict(&va, &vb, m.better == "lower", m.bound);
            if v == Verdict::Worse {
                worse += 1;
            }
            let cell = |vals: &[f64]| {
                let (q1, q3) = quartiles(vals);
                format!("{:.4} [{:.4}, {:.4}]", median(vals), q1, q3)
            };
            let _ = writeln!(
                out,
                "{:<18} {:<12} {:>28} {:>28} {:>6.2}  {}",
                w.name,
                m.name,
                cell(&va),
                cell(&vb),
                m.bound,
                v.label()
            );
        }
    }
    (out, worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Within the bound and not clearly better.
        assert_eq!(
            verdict(&parent, &[10.2, 10.1, 10.3, 10.2, 10.1], true, 0.1),
            Verdict::Unchanged
        );
        // Worse by more than 10%.
        assert_eq!(
            verdict(&parent, &[11.5, 11.6, 11.4, 11.5, 11.7], true, 0.1),
            Verdict::Worse
        );
        // Better by more than the parent's spread, in every pair.
        assert_eq!(
            verdict(&parent, &[9.0, 9.1, 8.9, 9.0, 9.05], true, 0.1),
            Verdict::Better
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            verdict(&parent, &[11.5, 11.6, 11.4, 11.5, 11.7], false, 0.1),
            Verdict::Better
        );
        // A spread wider than the bound cannot resolve it.
        let noisy = [8.0, 12.0, 10.0, 9.0, 11.5];
        assert_eq!(
            verdict(&noisy, &[10.0, 10.1, 9.9, 10.0, 10.0], true, 0.1),
            Verdict::Unresolved
        );
    }
}
