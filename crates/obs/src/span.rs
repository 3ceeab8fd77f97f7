//! Wall-clock span timers over the hierarchical [`SpanTree`].
//!
//! Timings are *observability-only*: they live in their own
//! [`TimingsSnapshot`], are never folded into [`crate::MetricsSnapshot`],
//! and must never reach `StudyResults::to_json()` or the golden digest —
//! wall-clock varies run to run even when the simulation is bit-identical.
//! The one deliberately deterministic view is [`Timings::structure`]: span
//! *names, nesting, lane kinds and counts* are a pure function of the
//! serial control flow (a traced and an untraced run give the same one);
//! durations stay quarantined here.
//!
//! [`Timings`] is the serial coordinator's facade: `start`/`finish` keep a
//! stack of open spans (parent/child links come from nesting order), and
//! `attach_workers` grafts a parallel region's per-lane intervals onto the
//! tree after the join. Worker threads never touch `Timings` — they
//! measure against a copied [`Stopwatch`] and hand offsets back.

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::tree::{SpanHandle, SpanTree, StructureSnapshot, WorkerSpan};

/// Aggregated wall-clock stats for one named span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct SpanStats {
    /// How many times the span ran.
    pub count: u64,
    /// Total wall-clock seconds across all runs.
    pub total_secs: f64,
    /// Longest single run, in seconds.
    pub max_secs: f64,
}

impl SpanStats {
    pub fn mean_secs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_secs / self.count as f64
        }
    }
}

/// Accumulator of span timings: a facade over the span tree.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    tree: SpanTree,
}

impl Timings {
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a span under the currently open one; finish it with
    /// [`Timings::finish`]. Dynamic names are fine — the tree interns one
    /// node per `(parent, name)`.
    pub fn start(&mut self, name: &str) -> SpanTimer {
        SpanTimer {
            name: name.to_string(),
            handle: self.tree.open(name),
        }
    }

    /// Close a span opened with [`Timings::start`]. Any child spans still
    /// open above it are force-closed first (unbalanced-span recovery), so
    /// a leaked timer never corrupts the stack.
    pub fn finish(&mut self, timer: SpanTimer) {
        self.tree.close(timer.handle);
    }

    /// Seconds on the tree's timebase — the anchor for
    /// [`Timings::attach_workers`].
    pub fn now_secs(&self) -> f64 {
        self.tree.now_secs()
    }

    /// Graft one parallel region's worker lanes under the currently open
    /// span. Serial-side only; see [`SpanTree::attach_workers`].
    pub fn attach_workers(&mut self, name: &str, region_start_secs: f64, spans: &[WorkerSpan]) {
        self.tree.attach_workers(name, region_start_secs, spans);
    }

    /// Turn on `B`/`E` event collection for the Chrome-trace exporter.
    pub fn enable_events(&mut self) {
        self.tree.enable_events();
    }

    pub fn events_enabled(&self) -> bool {
        self.tree.events_enabled()
    }

    /// Record a phase-boundary counter sample for the exporter.
    pub fn sample_counters(&mut self, phase: &str, counters: Vec<(String, u64)>) {
        self.tree.sample_counters(phase, counters);
    }

    /// The underlying tree (exporter/report access).
    pub fn tree(&self) -> &SpanTree {
        &self.tree
    }

    /// The deterministic structural view (names/nesting/lanes/counts).
    pub fn structure(&self) -> StructureSnapshot {
        self.tree.structure()
    }

    /// Hex FNV-1a digest of the structural snapshot.
    pub fn structure_digest(&self) -> String {
        format!("0x{:016x}", self.tree.structure().digest())
    }

    /// The flamegraph-style text report (see `obs-report`).
    pub fn flame_report(&self, top_k: usize) -> String {
        self.tree.flame_report(top_k)
    }

    /// The flat name-keyed aggregate view (wall-clock sidecar).
    pub fn snapshot(&self) -> TimingsSnapshot {
        TimingsSnapshot { spans: self.tree.flat() }
    }
}

/// A bare wall-clock stopwatch for measuring regions whose results are
/// handed to [`Timings::attach_workers`] on the serial side (worker lanes
/// copy one and report offsets against it).
///
/// This is the only sanctioned way for code outside `footsteps-obs` and
/// `footsteps-bench` to read wall-clock. `footsteps-lint`'s wall-clock
/// rule keeps `Instant`/`SystemTime` out of the product crates.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Self { started: Instant::now() }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// An in-flight span: a handle into the open-span stack. Hand it back to
/// [`Timings::finish`] to close and record.
#[derive(Debug)]
pub struct SpanTimer {
    name: String,
    handle: SpanHandle,
}

impl SpanTimer {
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Serializable wall-clock report. Deliberately a different type from
/// `MetricsSnapshot`: callers cannot accidentally mix the two.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TimingsSnapshot {
    pub spans: BTreeMap<String, SpanStats>,
}

impl TimingsSnapshot {
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("timings snapshot serializes")
    }

    pub fn get(&self, name: &str) -> Option<&SpanStats> {
        self.spans.get(name)
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_count_and_total() {
        let mut t = Timings::new();
        t.tree.record_leaf("phase.x", 1.0);
        t.tree.record_leaf("phase.x", 3.0);
        let snap = t.snapshot();
        let s = snap.get("phase.x").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_secs, 4.0);
        assert_eq!(s.max_secs, 3.0);
        assert_eq!(s.mean_secs(), 2.0);
    }

    #[test]
    fn timer_round_trip_records_nonnegative_elapsed() {
        let mut t = Timings::new();
        let timer = t.start("unit");
        assert_eq!(timer.name(), "unit");
        t.finish(timer);
        let snap = t.snapshot();
        let s = snap.get("unit").unwrap();
        assert_eq!(s.count, 1);
        assert!(s.total_secs >= 0.0);
    }

    #[test]
    fn nested_spans_fold_into_the_flat_view() {
        // The flat sidecar stays backwards-compatible: nesting changes
        // where spans sit in the tree, not how they aggregate by name.
        let mut t = Timings::new();
        let phase = t.start("phase.characterization");
        for _ in 0..3 {
            let day = t.start("engine.step_day");
            t.tree.record_leaf("aas.instalex.decision", 0.001);
            t.finish(day);
        }
        t.finish(phase);
        let snap = t.snapshot();
        assert_eq!(snap.get("engine.step_day").unwrap().count, 3);
        assert_eq!(snap.get("aas.instalex.decision").unwrap().count, 3);
        assert_eq!(snap.get("phase.characterization").unwrap().count, 1);
        // And the structure remembers the nesting the flat view drops.
        let s = t.structure();
        assert_eq!(s.spans[0].name, "phase.characterization");
        assert_eq!(s.spans[0].children[0].name, "engine.step_day");
        assert_eq!(s.spans[0].children[0].children[0].name, "aas.instalex.decision");
    }

    #[test]
    fn concurrent_shard_spans_nest_under_distinct_keys() {
        // The sharded-apply span contract: each worker measures its own
        // interval against a *copied* region stopwatch, the coordinator
        // attaches the offsets after the join (`<name>.shard` worker lanes
        // under the open `<name>` span). Summing `total_secs` across a
        // `TimingsSnapshot` therefore counts the parallel region once at
        // wall cost; the per-shard CPU detail stays available separately.
        let mut t = Timings::new();
        let apply = t.start("aas.test.apply");
        let region_t0 = t.now_secs();
        let region = Stopwatch::start();
        let lanes: Vec<WorkerSpan> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u32)
                .map(|lane| {
                    scope.spawn(move || {
                        let start_secs = region.elapsed_secs();
                        std::hint::black_box((0..10_000u64).sum::<u64>());
                        WorkerSpan { lane, start_secs, end_secs: region.elapsed_secs() }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard panicked")).collect()
        });
        // Attach in one region on the serial side, never from workers.
        t.attach_workers("aas.test.apply.shard", region_t0, &lanes);
        t.finish(apply);

        let snap = t.snapshot();
        let shards = snap.get("aas.test.apply.shard").expect("shard spans recorded");
        let merged = snap.get("aas.test.apply").expect("wall span recorded");
        assert_eq!(shards.count, 4);
        assert_eq!(merged.count, 1);
        // The wall span covers every shard, so no shard can exceed it.
        assert!(shards.max_secs <= merged.total_secs + 1e-9);
        // Structurally the shard node is a worker child of the wall span
        // and counts one *region* regardless of lane count.
        let s = t.structure();
        assert_eq!(s.spans[0].name, "aas.test.apply");
        assert_eq!(s.spans[0].children[0].name, "aas.test.apply.shard");
        assert_eq!(s.spans[0].children[0].lane, "worker");
        assert_eq!(s.spans[0].children[0].count, 1);
    }
}
