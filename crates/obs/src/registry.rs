//! Deterministic metrics registry.
//!
//! The registry records named counters, gauges, and fixed-bucket histograms
//! grouped into *phase frames*. A frame opens when the study enters a phase
//! (`begin_phase`) and every subsequent record lands in it, so the snapshot
//! preserves per-phase structure alongside cross-phase totals. The open
//! frame's counters and histograms are kept in interned slots and folded
//! into the frame when it closes or is snapshotted.
//!
//! A name is interned once into a [`MetricKey`] ([`MetricsRegistry::key`]);
//! recording through the key ([`MetricsRegistry::add_at`],
//! [`MetricsRegistry::observe_at`]) is one indexed add, which is how the
//! platform's per-action paths record. Recording by name (`add`,
//! `observe`) looks the key up first and takes the same path. A key is
//! valid only for the registry that interned it.
//!
//! Determinism contract: everything in here is a pure function of the
//! simulation's decision stream. No wall-clock data, no thread identifiers,
//! no allocation-order-dependent iteration — frame maps are `BTreeMap` so
//! the serialized snapshot is byte-identical for identical runs, and the
//! slot index is only ever probed, never iterated. Callers record from
//! the study's own thread only (the platform's submissions and deposits,
//! the engines' finished plan lists). Wall-clock timing lives in [`crate::span`], which is
//! deliberately a separate snapshot type.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// A fixed-bucket histogram. `bounds` are inclusive upper bounds for the
/// first `bounds.len()` buckets; the final bucket is an unbounded overflow
/// bucket, so `buckets.len() == bounds.len() + 1`. All arithmetic saturates:
/// a histogram never wraps, it pins at `u64::MAX`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    pub bounds: Vec<u64>,
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

impl Histogram {
    /// A histogram with the given inclusive upper bounds (must be sorted
    /// ascending; an overflow bucket is appended automatically).
    pub fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    /// Record one observation. Values above the last bound land in the
    /// overflow bucket; zero lands in the first bucket whose bound is >= 0.
    pub fn observe(&mut self, value: u64) {
        let idx = match self.bounds.iter().position(|&b| value <= b) {
            Some(i) => i,
            None => self.bounds.len(), // overflow bucket
        };
        self.buckets[idx] = self.buckets[idx].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
    }

    /// Merge another histogram with identical bounds into this one.
    pub fn merge(&mut self, other: &Histogram) {
        debug_assert_eq!(self.bounds, other.bounds, "cannot merge mismatched bounds");
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Mean observed value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One phase's worth of metrics. Counters saturate at `u64::MAX`; gauges
/// hold the last set value.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, Histogram>,
}

impl Frame {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    fn merge(&mut self, other: &Frame) {
        for (k, v) in &other.counters {
            let slot = self.counters.entry(k.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        for (k, v) in &other.gauges {
            // A later phase's gauge value wins in the totals view.
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) if mine.bounds == h.bounds => mine.merge(h),
                _ => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }
}

/// An interned metric name: the slot of one counter (or histogram) of
/// the registry that handed it out with [`MetricsRegistry::key`].
///
/// A key is valid only for that registry (and its clones): another
/// registry numbers its slots in its own order, so the same key there
/// names a different metric or none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricKey(u32);

/// The open phase's counters and histograms, one slot per interned key.
///
/// A key is interned once, on first use, and keeps its slot for the life
/// of the registry; recording through a [`MetricKey`] is an indexed add.
#[derive(Debug, Clone, Default)]
struct Slots {
    names: Vec<Box<str>>,
    index: HashMap<Box<str>, u32>,
    counters: Vec<u64>,
    histograms: Vec<Option<Histogram>>,
}

impl Slots {
    /// The key of `name`, interning it on first use.
    fn key(&mut self, name: &str) -> MetricKey {
        if let Some(&slot) = self.index.get(name) {
            return MetricKey(slot);
        }
        let slot = u32::try_from(self.names.len()).expect("fewer than 2^32 metric keys");
        self.index.insert(name.into(), slot);
        self.names.push(name.into());
        self.counters.push(0);
        self.histograms.push(None);
        MetricKey(slot)
    }

    /// Write the slots into `frame`: nonzero counters and observed
    /// histograms only, so a key the phase never touched stays absent.
    fn fold_into(&self, frame: &mut Frame) {
        for (slot, name) in self.names.iter().enumerate() {
            if self.counters[slot] != 0 {
                frame.counters.insert(name.to_string(), self.counters[slot]);
            }
            if let Some(h) = &self.histograms[slot] {
                frame.histograms.insert(name.to_string(), h.clone());
            }
        }
    }

    /// Zero every slot for the next phase. Interned names survive: slots
    /// are per key, not per phase.
    fn reset(&mut self) {
        self.counters.fill(0);
        self.histograms.fill(None);
    }
}

/// The live registry: an ordered list of `(phase name, frame)` pairs.
/// Records always land in the most recent frame; a registry starts with an
/// implicit `"setup"` frame so recording before the first `begin_phase` is
/// well-defined.
///
/// While a frame is open its gauges live in the frame, and its counters
/// and histograms live in interned slots (`Slots`). `begin_phase` folds
/// the slots into the closing frame; `snapshot` folds them into a copy.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    phases: Vec<(String, Frame)>,
    open: Slots,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry {
            phases: vec![("setup".to_string(), Frame::default())],
            open: Slots::default(),
        }
    }

    /// Close the open frame and open a new one. Subsequent records land
    /// in the new frame.
    pub fn begin_phase(&mut self, name: &str) {
        let (_, closing) = self.phases.last_mut().expect("registry always has a frame");
        self.open.fold_into(closing);
        self.open.reset();
        self.phases.push((name.to_string(), Frame::default()));
    }

    /// Name of the currently open phase.
    pub fn current_phase(&self) -> &str {
        &self.phases.last().expect("registry always has a frame").0
    }

    /// The key of `name` in this registry, interning it on first use. An
    /// interned key that is never recorded appears in no frame.
    pub fn key(&mut self, name: &str) -> MetricKey {
        self.open.key(name)
    }

    /// Add `n` to the counter `key` (saturating).
    pub fn add_at(&mut self, key: MetricKey, n: u64) {
        let counter = &mut self.open.counters[key.0 as usize];
        *counter = counter.saturating_add(n);
    }

    /// Add `n` to the named counter (saturating).
    pub fn add(&mut self, name: &str, n: u64) {
        let key = self.key(name);
        self.add_at(key, n);
    }

    /// Increment the named counter by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Set the named gauge to `value`.
    pub fn gauge(&mut self, key: &str, value: i64) {
        let (_, frame) = self.phases.last_mut().expect("registry always has a frame");
        frame.gauges.insert(key.to_string(), value);
    }

    /// Record an observation into the histogram `key`, creating it with
    /// `bounds` on its first use in the open frame.
    pub fn observe_at(&mut self, key: MetricKey, bounds: &[u64], value: u64) {
        self.open.histograms[key.0 as usize]
            .get_or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// Record an observation into the named histogram, as
    /// [`Self::observe_at`].
    pub fn observe(&mut self, name: &str, bounds: &[u64], value: u64) {
        let key = self.key(name);
        self.observe_at(key, bounds, value);
    }

    /// Freeze the registry into a serializable snapshot: the per-phase
    /// frames (empty frames dropped) plus a cross-phase totals frame.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut phases = self.phases.clone();
        let (_, open) = phases.last_mut().expect("registry always has a frame");
        self.open.fold_into(open);
        let mut totals = Frame::default();
        for (_, frame) in &phases {
            totals.merge(frame);
        }
        phases.retain(|(_, frame)| !frame.is_empty());
        MetricsSnapshot { phases, totals }
    }
}

/// Serializable, deterministic view of the registry. This is the payload
/// attached to `StudyResults::metrics` and pinned byte-for-byte in the
/// determinism suite.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// `(phase name, frame)` in study order; empty frames omitted.
    pub phases: Vec<(String, Frame)>,
    /// All phases merged: counters summed, gauges last-write-wins,
    /// histograms merged bucket-wise.
    pub totals: Frame,
}

impl MetricsSnapshot {
    /// Pretty-printed JSON. Byte-identical for identical runs — the
    /// determinism tests compare this string directly.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("metrics snapshot serializes")
    }

    /// Total for a counter across all phases (0 when absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.totals.counters.get(key).copied().unwrap_or(0)
    }

    /// Merge another run's snapshot into this one, phase-aligned by name:
    /// counters sum, gauges last-write-wins, histograms merge bucket-wise
    /// (mismatched bounds fall back to the other's histogram, as in
    /// [`Frame`] totals merging). Phases present only in `other` are
    /// appended in their original order. Used by the sweep aggregator to
    /// fold per-seed snapshots into one cross-seed view.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, frame) in &other.phases {
            match self.phases.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => mine.merge(frame),
                None => self.phases.push((name.clone(), frame.clone())),
            }
        }
        self.totals.merge(&other.totals);
    }

    /// Counters in the totals frame whose key starts with `prefix`,
    /// in sorted key order.
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.totals
            .counters
            .range(prefix.to_string()..)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_str(), *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_routes_zero_to_first_bucket() {
        let mut h = Histogram::new(&[0, 10, 100]);
        h.observe(0);
        assert_eq!(h.buckets, vec![1, 0, 0, 0]);
        assert_eq!((h.count, h.sum), (1, 0));
    }

    #[test]
    fn histogram_zero_lands_in_first_covering_bucket_when_no_zero_bound() {
        let mut h = Histogram::new(&[10, 100]);
        h.observe(0);
        assert_eq!(h.buckets, vec![1, 0, 0]);
    }

    #[test]
    fn histogram_bounds_are_inclusive() {
        let mut h = Histogram::new(&[10, 100]);
        h.observe(10);
        h.observe(11);
        h.observe(100);
        assert_eq!(h.buckets, vec![1, 2, 0]);
    }

    #[test]
    fn histogram_overflow_lands_in_last_bucket() {
        let mut h = Histogram::new(&[1, 2]);
        h.observe(3);
        h.observe(u64::MAX);
        assert_eq!(h.buckets, vec![0, 0, 2]);
        assert_eq!(h.count, 2);
        // sum saturates rather than wrapping.
        assert_eq!(h.sum, u64::MAX);
    }

    #[test]
    fn histogram_empty_bounds_is_a_pure_overflow_tally() {
        let mut h = Histogram::new(&[]);
        h.observe(0);
        h.observe(1_000_000);
        assert_eq!(h.buckets, vec![2]);
        assert_eq!(h.count, 2);
    }

    #[test]
    fn histogram_saturates_instead_of_wrapping() {
        let mut h = Histogram::new(&[10]);
        h.count = u64::MAX;
        h.buckets[0] = u64::MAX;
        h.sum = u64::MAX - 1;
        h.observe(5);
        assert_eq!(h.count, u64::MAX);
        assert_eq!(h.buckets[0], u64::MAX);
        assert_eq!(h.sum, u64::MAX);
    }

    #[test]
    fn histogram_mean() {
        let mut h = Histogram::new(&[100]);
        assert_eq!(h.mean(), 0.0);
        h.observe(10);
        h.observe(30);
        assert_eq!(h.mean(), 20.0);
    }

    #[test]
    fn counters_saturate() {
        let mut reg = MetricsRegistry::new();
        reg.add("x", u64::MAX - 1);
        reg.add("x", 5);
        assert_eq!(reg.snapshot().counter("x"), u64::MAX);
    }

    #[test]
    fn reused_heap_address_does_not_alias_another_key() {
        // Names are interned by their text, never by address: a name freed
        // and replaced by a different one of the same length usually gets
        // the same address back, and must still count apart.
        let mut reg = MetricsRegistry::new();
        let first = format!("aas.{}.engaged", "instazood");
        reg.add(&first, 1);
        drop(first);
        let second = format!("aas.{}.engaged", "boostgram");
        reg.add(&second, 2);
        // The same buffer rewritten in place: same address by construction.
        let mut third = second;
        third.replace_range(4..13, "instalexx");
        reg.add(&third, 4);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("aas.instazood.engaged"), 1);
        assert_eq!(snap.counter("aas.boostgram.engaged"), 2);
        assert_eq!(snap.counter("aas.instalexx.engaged"), 4);
    }

    #[test]
    fn a_key_and_its_name_record_into_one_counter() {
        let mut reg = MetricsRegistry::new();
        let k = reg.key("k");
        reg.add_at(k, 2);
        reg.add("k", 3);
        let again = reg.key("k");
        assert_eq!(again, k);
        reg.add_at(again, 4);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("k"), 9);
        assert_eq!(snap.totals.counters.len(), 1);
        let h = reg.key("h");
        reg.observe_at(h, &[1, 10], 5);
        reg.observe("h", &[1, 10], 50);
        assert_eq!(reg.snapshot().totals.histograms["h"].buckets, vec![0, 1, 1]);
    }

    #[test]
    fn an_interned_key_never_recorded_is_absent() {
        let mut reg = MetricsRegistry::new();
        let idle = reg.key("idle");
        let busy = reg.key("busy");
        reg.observe("hist", &[1], 0);
        reg.add_at(busy, 1);
        reg.begin_phase("characterization");
        reg.add_at(idle, 0);
        let _ = reg.key("late");
        let snap = reg.snapshot();
        for frame in snap.phases.iter().map(|(_, f)| f).chain([&snap.totals]) {
            assert_eq!(frame.counters.keys().collect::<Vec<_>>(), ["busy"]);
            assert_eq!(frame.histograms.keys().collect::<Vec<_>>(), ["hist"]);
        }
        // The characterization frame recorded nothing, so it is dropped.
        assert_eq!(snap.phases.len(), 1);
    }

    #[test]
    fn a_key_interned_before_a_phase_counts_into_the_next_frame() {
        // The platform interns its keys while the "setup" frame is open
        // and records through them in every later phase.
        let mut reg = MetricsRegistry::new();
        let k = reg.key("k");
        reg.begin_phase("characterization");
        reg.add_at(k, 5);
        let frame = Frame {
            counters: BTreeMap::from([("k".to_string(), 5)]),
            ..Frame::default()
        };
        let snap = reg.snapshot();
        assert_eq!(snap.phases, vec![("characterization".to_string(), frame)]);
        assert_eq!(snap.counter("k"), 5);
    }

    #[test]
    fn zero_add_does_not_materialize_a_counter() {
        let mut reg = MetricsRegistry::new();
        reg.add("x", 0);
        assert!(reg.snapshot().totals.counters.is_empty());
    }

    #[test]
    fn phases_partition_counts_and_totals_merge() {
        let mut reg = MetricsRegistry::new();
        reg.incr("a");
        reg.begin_phase("characterization");
        reg.add("a", 2);
        reg.incr("b");
        let snap = reg.snapshot();
        assert_eq!(snap.phases.len(), 2);
        assert_eq!(snap.phases[0].0, "setup");
        assert_eq!(snap.phases[0].1.counters["a"], 1);
        assert_eq!(snap.phases[1].1.counters["a"], 2);
        assert_eq!(snap.counter("a"), 3);
        assert_eq!(snap.counter("b"), 1);
    }

    #[test]
    fn empty_phases_are_dropped_from_snapshot() {
        let mut reg = MetricsRegistry::new();
        reg.begin_phase("idle");
        reg.begin_phase("busy");
        reg.incr("x");
        let snap = reg.snapshot();
        assert_eq!(snap.phases.len(), 1);
        assert_eq!(snap.phases[0].0, "busy");
    }

    #[test]
    fn gauges_last_write_wins_in_totals() {
        let mut reg = MetricsRegistry::new();
        reg.gauge("g", 3);
        reg.begin_phase("later");
        reg.gauge("g", 7);
        let snap = reg.snapshot();
        assert_eq!(snap.totals.gauges["g"], 7);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let mut reg = MetricsRegistry::new();
        reg.incr("a");
        reg.observe("h", &[1, 10], 5);
        let snap = reg.snapshot();
        let json = snap.to_json();
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_merge_aligns_phases_and_sums_totals() {
        let mut a_reg = MetricsRegistry::new();
        a_reg.begin_phase("characterization");
        a_reg.add("likes", 10);
        let mut a = a_reg.snapshot();

        let mut b_reg = MetricsRegistry::new();
        b_reg.begin_phase("characterization");
        b_reg.add("likes", 5);
        b_reg.begin_phase("narrow");
        b_reg.add("blocks", 2);
        let b = b_reg.snapshot();

        a.merge(&b);
        assert_eq!(a.counter("likes"), 15);
        assert_eq!(a.counter("blocks"), 2);
        let char_frame = &a.phases.iter().find(|(n, _)| n == "characterization").unwrap().1;
        assert_eq!(char_frame.counters["likes"], 15);
        assert!(a.phases.iter().any(|(n, _)| n == "narrow"));
    }

    #[test]
    fn counters_with_prefix_filters_and_sorts() {
        let mut reg = MetricsRegistry::new();
        reg.add("aas.z", 1);
        reg.add("aas.a", 2);
        reg.add("detect.x", 3);
        let snap = reg.snapshot();
        let got: Vec<_> = snap.counters_with_prefix("aas.").collect();
        assert_eq!(got, vec![("aas.a", 2), ("aas.z", 1)]);
    }
}
