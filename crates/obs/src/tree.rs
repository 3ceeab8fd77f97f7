//! The hierarchical span tree behind [`crate::Timings`].
//!
//! PR 2's flat span list could say *how much* time `aas.instalex.apply`
//! cost but not *where it sat*: under which phase, over which worker
//! lanes, overlapping what. The tree fixes that with two coordinated
//! structures:
//!
//! * an **arena of nodes** — one node per distinct `(parent, name, lane)`
//!   triple, children kept in first-open order. Nodes carry only
//!   aggregate wall-clock stats plus *structural* counts (instances for
//!   main-lane spans, attach regions for worker spans). The structural
//!   view ([`StructureSnapshot`]) is a pure function of the program's
//!   serial control flow, so it does not depend on lane counts or on
//!   event collection — the determinism suite pins a traced study's
//!   structure to an untraced one's;
//! * an optional **event log** — `B`/`E` pairs with real timestamps on
//!   explicit thread lanes (`tid 0` = the serial coordinator, `tid k` =
//!   worker lane `k-1`), recorded only when event collection is enabled
//!   (`FOOTSTEPS_TRACE_OUT`). Events are appended at open/close time, so
//!   per-lane order and `B`/`E` nesting are correct by construction and
//!   the Chrome-trace exporter ([`crate::export`]) never has to sort.
//!
//! Wall-clock quarantine is unchanged: nothing in this module may feed
//! `StudyResults::to_json()` or the golden digest. Durations and
//! timestamps live here precisely so they *can* vary run to run.
//!
//! The serial coordinator owns the tree — worker threads never touch it.
//! Parallel regions measure themselves against a copied [`Stopwatch`] and
//! hand their `(lane, start, end)` offsets to [`SpanTree::attach_workers`]
//! on the serial side, mirroring the metrics registry's "merge on the
//! serial path only" contract.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

use crate::span::{SpanStats, Stopwatch};

/// Hard cap on recorded events (≈24 MiB): a scaled study emits a few
/// hundred thousand; anything past the cap increments `dropped_events`
/// instead of growing without bound.
const MAX_EVENTS: usize = 1 << 20;

/// Which timeline a span's instances run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LaneKind {
    /// The serial coordinator thread (`tid 0`).
    Main,
    /// Parallel worker lanes (`tid = lane + 1`), attached post-hoc by the
    /// coordinator via [`SpanTree::attach_workers`].
    Worker,
}

impl LaneKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            LaneKind::Main => "main",
            LaneKind::Worker => "worker",
        }
    }
}

/// One worker lane's self-measured interval inside a parallel region,
/// expressed as offsets (seconds) from the region's start. Workers build
/// these against a copied [`Stopwatch`]; only the serial coordinator may
/// turn them into tree nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerSpan {
    /// Lane index within the region (0-based; exported as `tid = lane+1`).
    pub lane: u32,
    /// Seconds from region start to this worker's first instruction.
    pub start_secs: f64,
    /// Seconds from region start to this worker's last instruction.
    pub end_secs: f64,
}

impl WorkerSpan {
    pub fn dur_secs(&self) -> f64 {
        (self.end_secs - self.start_secs).max(0.0)
    }
}

/// Token for an open span; hand it back to [`SpanTree::close`].
#[derive(Debug)]
pub struct SpanHandle {
    node: usize,
    token: u64,
}

/// One `B` (begin) or `E` (end) timeline event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// Arena index of the span's node (names are looked up at export).
    pub node: u32,
    /// Thread lane: 0 = main, k = worker lane k-1.
    pub tid: u32,
    /// `true` for `B`, `false` for `E`.
    pub begin: bool,
    /// Seconds since the tree's epoch.
    pub ts_secs: f64,
}

/// Counter values sampled from the metrics registry at a phase boundary,
/// exported as Chrome `C` events.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// The phase that just closed.
    pub phase: String,
    /// Seconds since the tree's epoch.
    pub ts_secs: f64,
    /// `(counter name, cumulative value)` pairs, in registry (sorted) order.
    pub counters: Vec<(String, u64)>,
}

#[derive(Debug, Clone)]
struct Node {
    name: String,
    lane: LaneKind,
    children: Vec<usize>,
    /// Closed instances (main) / attached worker spans (worker).
    count: u64,
    /// Attach regions for worker nodes; equals `count` for main nodes.
    /// This is the thread-invariant structural count: a parallel region
    /// attaches once per serial call site no matter how many lanes ran.
    regions: u64,
    /// Highest lane index + 1 seen (1 for main nodes).
    lanes: u32,
    total_secs: f64,
    max_secs: f64,
    /// Worker nodes: summed wall time of the attach regions (max end
    /// offset per region) — the main-timeline cost of the parallel work,
    /// used for exclusive-time accounting and lane utilization.
    region_wall_secs: f64,
}

impl Node {
    fn new(name: &str, lane: LaneKind) -> Self {
        Node {
            name: name.to_string(),
            lane,
            children: Vec::new(),
            count: 0,
            regions: 0,
            lanes: 1,
            total_secs: 0.0,
            max_secs: 0.0,
            region_wall_secs: 0.0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct OpenFrame {
    node: usize,
    token: u64,
    start_secs: f64,
    /// Whether a `B` event was recorded (and an `E` is therefore owed).
    emitted: bool,
}

/// The span tree. Owned by the serial coordinator via [`crate::Timings`];
/// never shared with worker threads.
#[derive(Debug, Clone)]
pub struct SpanTree {
    epoch: Instant,
    /// Arena; index 0 is the synthetic root.
    nodes: Vec<Node>,
    /// Open main-lane spans, outermost first.
    stack: Vec<OpenFrame>,
    next_token: u64,
    collect_events: bool,
    events: Vec<SpanEvent>,
    /// Per-lane timestamp high-water marks (index = tid): every pushed
    /// event is clamped to its lane's watermark, so per-lane monotonicity
    /// holds by construction even when a back-dated leaf start (`now -
    /// measured`) lands before the enclosing span opened.
    watermarks: Vec<f64>,
    dropped_events: u64,
    counter_samples: Vec<CounterSample>,
    /// Self-measured bookkeeping overhead (seconds).
    self_secs: f64,
}

impl Default for SpanTree {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanTree {
    pub fn new() -> Self {
        SpanTree {
            epoch: Instant::now(),
            nodes: vec![Node::new("study", LaneKind::Main)],
            stack: Vec::new(),
            next_token: 0,
            collect_events: false,
            events: Vec::new(),
            watermarks: Vec::new(),
            dropped_events: 0,
            counter_samples: Vec::new(),
            self_secs: 0.0,
        }
    }

    /// Seconds since this tree was created. The common timebase for
    /// anchoring worker spans: read it on the serial side right before
    /// starting a parallel region, then pass it to
    /// [`SpanTree::attach_workers`] with the workers' relative offsets.
    pub fn now_secs(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Turn on `B`/`E` event collection (implied by `FOOTSTEPS_TRACE_OUT`).
    /// Aggregates and structure are always collected; only the per-event
    /// timeline is gated, because it is the only part with real memory cost.
    pub fn enable_events(&mut self) {
        self.collect_events = true;
    }

    pub fn events_enabled(&self) -> bool {
        self.collect_events
    }

    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    pub fn counter_samples(&self) -> &[CounterSample] {
        &self.counter_samples
    }

    pub fn obs_self_secs(&self) -> f64 {
        self.self_secs
    }

    /// Name of the node at arena index `i` (for the exporter).
    pub fn node_name(&self, i: u32) -> &str {
        &self.nodes[i as usize].name
    }

    /// Highest worker lane count attached anywhere (0 if none).
    pub fn max_worker_lanes(&self) -> u32 {
        self.nodes
            .iter()
            .filter(|n| n.lane == LaneKind::Worker)
            .map(|n| n.lanes)
            .max()
            .unwrap_or(0)
    }

    /// Find or create the child of `parent` with this `(name, lane)`.
    fn intern(&mut self, parent: usize, name: &str, lane: LaneKind) -> usize {
        if let Some(&c) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].lane == lane && self.nodes[c].name == name)
        {
            return c;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node::new(name, lane));
        self.nodes[parent].children.push(idx);
        idx
    }

    fn current(&self) -> usize {
        self.stack.last().map_or(0, |f| f.node)
    }

    /// Clamp `ts` to the lane's watermark and advance it.
    fn clamp_ts(&mut self, tid: u32, ts: f64) -> f64 {
        let idx = tid as usize;
        if self.watermarks.len() <= idx {
            self.watermarks.resize(idx + 1, 0.0);
        }
        let ts = ts.max(self.watermarks[idx]);
        self.watermarks[idx] = ts;
        ts
    }

    /// Push one event. `force` bypasses the cap (used for the `E` of an
    /// already-emitted `B`, so pairs never split at the overflow edge).
    fn push_event(&mut self, node: usize, tid: u32, begin: bool, ts_secs: f64, force: bool) -> bool {
        if !self.collect_events {
            return false;
        }
        if !force && self.events.len() >= MAX_EVENTS {
            self.dropped_events += 1;
            return false;
        }
        let ts_secs = self.clamp_ts(tid, ts_secs);
        self.events.push(SpanEvent { node: node as u32, tid, begin, ts_secs });
        true
    }

    /// Open a span under the current top of the stack.
    pub fn open(&mut self, name: &str) -> SpanHandle {
        let w = Stopwatch::start();
        let parent = self.current();
        let node = self.intern(parent, name, LaneKind::Main);
        let token = self.next_token;
        self.next_token += 1;
        let start_secs = self.now_secs();
        let emitted = self.push_event(node, 0, true, start_secs, false);
        self.stack.push(OpenFrame { node, token, start_secs, emitted });
        self.self_secs += w.elapsed_secs();
        SpanHandle { node, token }
    }

    /// Close a span opened with [`SpanTree::open`].
    ///
    /// Unbalanced-close recovery: any spans still open *above* this one
    /// (a child leaked by an early return or a panic caught upstream) are
    /// force-closed first, innermost out, so the stack discipline — and
    /// the exported `B`/`E` nesting — survives. Closing a handle whose
    /// frame is already gone (its ancestor force-closed it) is a no-op.
    pub fn close(&mut self, handle: SpanHandle) {
        let w = Stopwatch::start();
        let now = self.now_secs();
        if let Some(pos) = self
            .stack
            .iter()
            .rposition(|f| f.token == handle.token && f.node == handle.node)
        {
            while self.stack.len() > pos {
                let frame = self.stack.pop().expect("stack length checked");
                let dur = (now - frame.start_secs).max(0.0);
                let n = &mut self.nodes[frame.node];
                n.count += 1;
                n.regions += 1;
                n.total_secs += dur;
                if dur > n.max_secs {
                    n.max_secs = dur;
                }
                if frame.emitted {
                    // The E of an emitted B is never dropped: the cap only
                    // suppresses new B events.
                    self.push_event(frame.node, 0, false, now, true);
                }
            }
        }
        self.self_secs += w.elapsed_secs();
    }

    /// Record an already-measured leaf span under the current top of the
    /// stack (the dynamic-name path: measure with a [`Stopwatch`], then
    /// record). The instance is placed at `[now - secs, now]`, which is
    /// within the enclosing span by construction.
    pub fn record_leaf(&mut self, name: &str, secs: f64) {
        let w = Stopwatch::start();
        let parent = self.current();
        let node = self.intern(parent, name, LaneKind::Main);
        let now = self.now_secs();
        {
            let n = &mut self.nodes[node];
            n.count += 1;
            n.regions += 1;
            n.total_secs += secs;
            if secs > n.max_secs {
                n.max_secs = secs;
            }
        }
        if self.collect_events {
            if self.events.len() + 2 <= MAX_EVENTS {
                let start = (now - secs.max(0.0)).max(0.0);
                self.push_event(node, 0, true, start, true);
                self.push_event(node, 0, false, now, true);
            } else {
                self.dropped_events += 2;
            }
        }
        self.self_secs += w.elapsed_secs();
    }

    /// Attach one parallel region's worker lanes under the current top of
    /// the stack as a single worker node named `name`.
    ///
    /// `region_start_secs` anchors the region on the tree's timebase (read
    /// [`SpanTree::now_secs`] right before spawning); each [`WorkerSpan`]
    /// carries offsets relative to that anchor. Called on the serial side
    /// after the join, so the structural effect (one region, one node) is
    /// identical for any lane count — only `count`/`lanes`/durations vary.
    pub fn attach_workers(&mut self, name: &str, region_start_secs: f64, spans: &[WorkerSpan]) {
        let w = Stopwatch::start();
        let parent = self.current();
        let node = self.intern(parent, name, LaneKind::Worker);
        let mut region_wall = 0.0f64;
        for s in spans {
            let dur = s.dur_secs();
            let n = &mut self.nodes[node];
            n.count += 1;
            n.total_secs += dur;
            if dur > n.max_secs {
                n.max_secs = dur;
            }
            if s.lane + 1 > n.lanes {
                n.lanes = s.lane + 1;
            }
            if s.end_secs > region_wall {
                region_wall = s.end_secs;
            }
            if self.collect_events {
                if self.events.len() + 2 <= MAX_EVENTS {
                    let b = region_start_secs + s.start_secs.max(0.0);
                    let e = region_start_secs + s.end_secs.max(s.start_secs.max(0.0));
                    let tid = s.lane + 1;
                    self.push_event(node, tid, true, b, true);
                    self.push_event(node, tid, false, e, true);
                } else {
                    self.dropped_events += 2;
                }
            }
        }
        let n = &mut self.nodes[node];
        n.regions += 1;
        n.region_wall_secs += region_wall;
        self.self_secs += w.elapsed_secs();
    }

    /// Record a phase-boundary counter sample (exported as `C` events).
    pub fn sample_counters(&mut self, phase: &str, counters: Vec<(String, u64)>) {
        let ts_secs = self.now_secs();
        self.counter_samples.push(CounterSample {
            phase: phase.to_string(),
            ts_secs,
            counters,
        });
    }

    /// The flat name-keyed aggregate view (backwards-compatible
    /// [`crate::TimingsSnapshot`] payload). Nodes sharing a name under
    /// different parents merge, exactly like the old flat accumulator.
    pub fn flat(&self) -> BTreeMap<String, SpanStats> {
        let mut out: BTreeMap<String, SpanStats> = BTreeMap::new();
        for n in self.nodes.iter().skip(1) {
            if n.count == 0 {
                continue;
            }
            let s = out.entry(n.name.clone()).or_default();
            s.count += n.count;
            s.total_secs += n.total_secs;
            if n.max_secs > s.max_secs {
                s.max_secs = n.max_secs;
            }
        }
        out
    }

    /// The deterministic structural view: names, nesting, lane kinds, and
    /// thread-invariant counts (instances for main spans, attach regions
    /// for worker spans). No durations, no lane counts — everything here
    /// must be byte-identical for runs of the same control flow.
    pub fn structure(&self) -> StructureSnapshot {
        fn build(tree: &SpanTree, idx: usize) -> StructureNode {
            let n = &tree.nodes[idx];
            StructureNode {
                name: n.name.clone(),
                lane: n.lane.as_str().to_string(),
                count: n.regions,
                children: n.children.iter().map(|&c| build(tree, c)).collect(),
            }
        }
        StructureSnapshot {
            spans: self.nodes[0].children.iter().map(|&c| build(self, c)).collect(),
        }
    }

    /// What a child costs its parent on the main timeline: worker children
    /// cost their region wall time (the join-to-join gap), not their
    /// summed per-lane busy time.
    fn child_cost(&self, child: usize) -> f64 {
        let n = &self.nodes[child];
        match n.lane {
            LaneKind::Main => n.total_secs,
            LaneKind::Worker => n.region_wall_secs,
        }
    }

    fn exclusive_secs(&self, idx: usize) -> f64 {
        let n = &self.nodes[idx];
        let children: f64 = n.children.iter().map(|&c| self.child_cost(c)).sum();
        (n.total_secs - children).max(0.0)
    }

    /// The flamegraph-style text report: the tree with inclusive/exclusive
    /// wall time, the top-`k` spans by exclusive time, worker-lane
    /// utilization, and the self-measured obs overhead line.
    pub fn flame_report(&self, top_k: usize) -> String {
        use std::fmt::Write as _;
        let total: f64 = self.nodes[0].children.iter().map(|&c| self.child_cost(c)).sum();
        let pct = |secs: f64| if total > 0.0 { 100.0 * secs / total } else { 0.0 };
        let mut out = String::new();
        let _ = writeln!(out, "span tree (inclusive, exclusive, % of {total:.3}s observed wall):");

        fn walk(tree: &SpanTree, idx: usize, depth: usize, out: &mut String, total: f64) {
            use std::fmt::Write as _;
            let n = &tree.nodes[idx];
            let indent = "  ".repeat(depth);
            let label = format!("{indent}{}", n.name);
            match n.lane {
                LaneKind::Main => {
                    let excl = tree.exclusive_secs(idx);
                    let p = if total > 0.0 { 100.0 * n.total_secs / total } else { 0.0 };
                    let _ = writeln!(
                        out,
                        "  {label:<44} {:>9.3}s {:>9.3}s {:>5.1}%  x{}",
                        n.total_secs, excl, p, n.count
                    );
                }
                LaneKind::Worker => {
                    let denom = n.region_wall_secs * f64::from(n.lanes);
                    let util = if denom > 0.0 { 100.0 * n.total_secs / denom } else { 0.0 };
                    let _ = writeln!(
                        out,
                        "  {label:<44} busy {:>7.3}s over {:>7.3}s wall on {} lane(s), util {:>5.1}%  x{}",
                        n.total_secs, n.region_wall_secs, n.lanes, util, n.regions
                    );
                }
            }
            for &c in &n.children {
                walk(tree, c, depth + 1, out, total);
            }
        }
        for &c in &self.nodes[0].children {
            walk(self, c, 0, &mut out, total);
        }

        // Top-k main-lane spans by exclusive time.
        let mut hot: Vec<(usize, f64)> = (1..self.nodes.len())
            .filter(|&i| self.nodes[i].lane == LaneKind::Main && self.nodes[i].count > 0)
            .map(|i| (i, self.exclusive_secs(i)))
            .collect();
        hot.sort_by(|a, b| b.1.total_cmp(&a.1));
        let _ = writeln!(out, "top {} spans by exclusive time:", top_k.min(hot.len()));
        for (rank, (i, excl)) in hot.iter().take(top_k).enumerate() {
            let n = &self.nodes[*i];
            let _ = writeln!(
                out,
                "  {:>2}. {:<42} {:>9.3}s excl ({:>4.1}%)  x{}",
                rank + 1,
                n.name,
                excl,
                pct(*excl),
                n.count
            );
        }

        // Worker-lane utilization across all parallel regions.
        let workers: Vec<usize> = (1..self.nodes.len())
            .filter(|&i| self.nodes[i].lane == LaneKind::Worker && self.nodes[i].count > 0)
            .collect();
        if !workers.is_empty() {
            let _ = writeln!(out, "worker-lane utilization:");
            for i in workers {
                let n = &self.nodes[i];
                let denom = n.region_wall_secs * f64::from(n.lanes);
                let util = if denom > 0.0 { 100.0 * n.total_secs / denom } else { 0.0 };
                let _ = writeln!(
                    out,
                    "  {:<44} {} lane(s), {} region(s): busy {:.3}s / wall {:.3}s = {:>5.1}%",
                    n.name, n.lanes, n.regions, n.total_secs, n.region_wall_secs, util
                );
            }
        }
        if self.dropped_events > 0 {
            let _ = writeln!(out, "note: {} events dropped past the {} cap", self.dropped_events, MAX_EVENTS);
        }
        let _ = writeln!(
            out,
            "obs overhead: {:.4}s self-measured ({:.2}% of observed wall)",
            self.self_secs,
            pct(self.self_secs)
        );
        out
    }
}

/// FNV-1a over a byte string: the workspace's one digest, used by
/// `StudyResults`, the verdict snapshot and the checkpoint references.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_EMPTY, bytes)
}

/// The FNV-1a digest of no bytes (the offset basis).
pub const FNV1A_EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue an FNV-1a digest over more bytes:
/// `fnv1a_extend(fnv1a(a), b) == fnv1a(a ++ b)`.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One node of the deterministic structural snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StructureNode {
    pub name: String,
    /// `"main"` or `"worker"`.
    pub lane: String,
    /// Thread-invariant count: closed instances for main spans, attach
    /// regions for worker spans (per-lane instance counts vary with the
    /// lane count and are deliberately excluded).
    pub count: u64,
    pub children: Vec<StructureNode>,
}

/// The deterministic span-structure view: a traced study's equals an
/// untraced one's, byte for byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StructureSnapshot {
    pub spans: Vec<StructureNode>,
}

impl StructureSnapshot {
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("structure snapshot serializes")
    }

    pub fn digest(&self) -> u64 {
        fnv1a(self.to_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_follows_open_close_order() {
        let mut t = SpanTree::new();
        let a = t.open("phase.a");
        let b = t.open("inner");
        t.close(b);
        let b2 = t.open("inner");
        t.close(b2);
        t.close(a);
        let c = t.open("phase.c");
        t.close(c);

        let s = t.structure();
        assert_eq!(s.spans.len(), 2);
        assert_eq!(s.spans[0].name, "phase.a");
        assert_eq!(s.spans[0].count, 1);
        assert_eq!(s.spans[0].children.len(), 1);
        assert_eq!(s.spans[0].children[0].name, "inner");
        assert_eq!(s.spans[0].children[0].count, 2);
        assert_eq!(s.spans[1].name, "phase.c");
        assert!(s.spans[1].children.is_empty());
    }

    #[test]
    fn unbalanced_close_recovers_the_stack() {
        // Dropping `inner` without closing it (early return / panic path)
        // must not corrupt the tree: closing the outer span force-closes
        // the leaked child, and later spans nest correctly again.
        let mut t = SpanTree::new();
        let outer = t.open("outer");
        let _leaked = t.open("inner");
        let _leaked2 = t.open("innermost");
        t.close(outer);
        let next = t.open("next");
        t.close(next);

        let s = t.structure();
        assert_eq!(s.spans.len(), 2, "next must be a root, not a child of outer: {s:?}");
        assert_eq!(s.spans[0].name, "outer");
        assert_eq!(s.spans[0].children.len(), 1);
        assert_eq!(s.spans[0].children[0].name, "inner");
        assert_eq!(s.spans[0].children[0].children[0].name, "innermost");
        // All three were counted exactly once despite the force-close.
        assert_eq!(s.spans[0].count, 1);
        assert_eq!(s.spans[0].children[0].count, 1);
        // Closing the leaked handle again is a no-op.
        t.close(_leaked);
        t.close(_leaked2);
        assert_eq!(t.structure(), s);
    }

    #[test]
    fn worker_regions_are_thread_invariant() {
        // The same serial control flow with different lane counts must
        // produce byte-identical structure JSON: worker nodes count
        // regions, not per-lane instances.
        let mut snapshots = Vec::new();
        for lanes in [1usize, 2, 8] {
            let mut t = SpanTree::new();
            let p = t.open("aas.test.apply");
            let t0 = t.now_secs();
            let spans: Vec<WorkerSpan> = (0..lanes)
                .map(|l| WorkerSpan { lane: l as u32, start_secs: 0.0, end_secs: 0.001 })
                .collect();
            t.attach_workers("aas.test.apply.shard", t0, &spans);
            t.close(p);
            snapshots.push(t.structure().to_json());
        }
        assert_eq!(snapshots[0], snapshots[1]);
        assert_eq!(snapshots[1], snapshots[2]);
        assert!(snapshots[0].contains("\"worker\""));
    }

    #[test]
    fn flat_view_merges_same_name_across_parents() {
        let mut t = SpanTree::new();
        for phase in ["phase.a", "phase.b"] {
            let p = t.open(phase);
            t.record_leaf("engine.step_day", 0.5);
            t.close(p);
        }
        let flat = t.flat();
        assert_eq!(flat["engine.step_day"].count, 2);
        assert!((flat["engine.step_day"].total_secs - 1.0).abs() < 1e-9);
        assert_eq!(flat["phase.a"].count, 1);
    }

    #[test]
    fn events_pair_and_stay_ordered_per_lane() {
        let mut t = SpanTree::new();
        t.enable_events();
        let a = t.open("outer");
        t.record_leaf("leaf", 0.0);
        let t0 = t.now_secs();
        t.attach_workers(
            "outer.worker",
            t0,
            &[
                WorkerSpan { lane: 0, start_secs: 0.0, end_secs: 0.002 },
                WorkerSpan { lane: 1, start_secs: 0.001, end_secs: 0.003 },
            ],
        );
        t.close(a);

        // Per tid: B/E match like brackets and timestamps never go back.
        let mut stacks: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
        let mut last_ts: std::collections::BTreeMap<u32, f64> = Default::default();
        for ev in t.events() {
            let ts = last_ts.entry(ev.tid).or_insert(f64::NEG_INFINITY);
            assert!(ev.ts_secs >= *ts, "ts went backwards on tid {}", ev.tid);
            *ts = ev.ts_secs;
            let stack = stacks.entry(ev.tid).or_default();
            if ev.begin {
                stack.push(ev.node);
            } else {
                assert_eq!(stack.pop(), Some(ev.node), "E without matching B");
            }
        }
        assert!(stacks.values().all(|s| s.is_empty()), "unclosed B events");
        assert_eq!(t.events().len(), 8);
        assert_eq!(t.dropped_events(), 0);
    }

    #[test]
    fn exclusive_time_subtracts_worker_region_wall() {
        let mut t = SpanTree::new();
        let p = t.open("phase.x");
        t.record_leaf("child", 0.25);
        let t0 = t.now_secs();
        t.attach_workers(
            "aas.x.apply.shard",
            t0,
            &[
                WorkerSpan { lane: 0, start_secs: 0.0, end_secs: 0.25 },
                WorkerSpan { lane: 1, start_secs: 0.0, end_secs: 0.25 },
            ],
        );
        t.close(p);
        // Pin the phase's measured wall time so the accounting is exact.
        let phase = t.nodes[0].children[0];
        t.nodes[phase].total_secs = 1.0;
        // Exclusive subtracts the leaf and the region *wall* (0.25s), not
        // the 0.5s of summed lane busy time.
        assert_eq!(t.exclusive_secs(phase), 0.5);
    }

    #[test]
    fn flame_report_lists_hot_spans_and_overhead() {
        let mut t = SpanTree::new();
        let p = t.open("phase.y");
        t.record_leaf("hot", 2.0);
        t.close(p);
        let report = t.flame_report(3);
        assert!(report.contains("span tree"), "{report}");
        assert!(report.contains("hot"), "{report}");
        assert!(report.contains("top "), "{report}");
        assert!(report.contains("obs overhead:"), "{report}");
    }

    #[test]
    fn fnv1a_matches_reference_vector() {
        // FNV-1a("a") per the published test vectors.
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_extend(fnv1a(b"ab"), b"c"), fnv1a(b"abc"));
    }
}
