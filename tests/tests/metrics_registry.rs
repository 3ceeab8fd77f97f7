//! The metrics registry against a reference model.
//!
//! The model is the registry the interned slots replaced: every record
//! walks the open frame's string-keyed `BTreeMap`s. It is kept here as the
//! specification. Random sequences of records, phase changes, clones and
//! snapshots run against both, and every snapshot's JSON must be equal.
//! Keys come from static literals, from prefixes of those literals (same
//! address, shorter key) and from freshly formatted heap strings, which
//! are dropped right after use so later keys reuse their addresses.

use footsteps_obs::{Frame, Histogram, MetricsRegistry, MetricsSnapshot};
use proptest::prelude::*;

/// The string-keyed reference registry.
#[derive(Clone)]
struct Model {
    phases: Vec<(String, Frame)>,
}

impl Model {
    fn new() -> Self {
        Model { phases: vec![("setup".to_string(), Frame::default())] }
    }

    fn frame(&mut self) -> &mut Frame {
        &mut self.phases.last_mut().expect("model always has a frame").1
    }

    fn begin_phase(&mut self, name: &str) {
        self.phases.push((name.to_string(), Frame::default()));
    }

    fn add(&mut self, key: &str, n: u64) {
        if n == 0 {
            return;
        }
        let c = self.frame().counters.entry(key.to_string()).or_insert(0);
        *c = c.saturating_add(n);
    }

    fn gauge(&mut self, key: &str, value: i64) {
        self.frame().gauges.insert(key.to_string(), value);
    }

    fn observe(&mut self, key: &str, bounds: &[u64], value: u64) {
        self.frame()
            .histograms
            .entry(key.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    fn snapshot(&self) -> MetricsSnapshot {
        let mut totals = Frame::default();
        for (_, frame) in &self.phases {
            for (k, v) in &frame.counters {
                let c = totals.counters.entry(k.clone()).or_insert(0);
                *c = c.saturating_add(*v);
            }
            for (k, v) in &frame.gauges {
                totals.gauges.insert(k.clone(), *v);
            }
            for (k, h) in &frame.histograms {
                match totals.histograms.get_mut(k) {
                    Some(mine) if mine.bounds == h.bounds => mine.merge(h),
                    _ => {
                        totals.histograms.insert(k.clone(), h.clone());
                    }
                }
            }
        }
        let phases = self.phases.iter().filter(|(_, f)| !f.is_empty()).cloned().collect();
        MetricsSnapshot { phases, totals }
    }
}

/// Static keys: two of the same length, and the empty key.
const LITERALS: [&str; 6] = [
    "platform.outbound.delivered",
    "platform.inbound.deferred",
    "enforce.bin3.blocked",
    "enforce.bin4.blocked",
    "platform.batch_size",
    "",
];

const BOUNDS_A: &[u64] = &[0, 1, 10, 100];
const BOUNDS_B: &[u64] = &[5, 50];

const PHASES: [&str; 3] = ["characterization", "narrow", "setup"];

/// Call `f` with key `idx` in one of four forms: the literal itself, a
/// prefix of it, a heap copy of it, or a heap key of its own. Heap keys
/// are dropped when `f` returns.
fn with_key<R>(form: u8, idx: usize, f: impl FnOnce(&str) -> R) -> R {
    let lit = LITERALS[idx % LITERALS.len()];
    match form % 4 {
        0 => f(lit),
        1 => f(&lit[..lit.len() / 2]),
        2 => {
            let copy = String::from(lit);
            f(&copy)
        }
        _ => f(&format!("heap.{}", idx % 10)),
    }
}

/// Zero, small, near `u64::MAX`, or any value.
fn value(class: u8, raw: u64) -> u64 {
    match class % 4 {
        0 => 0,
        1 => raw % 1_000 + 1,
        2 => u64::MAX - raw % 4,
        _ => raw,
    }
}

fn assert_same(reg: &MetricsRegistry, model: &Model) {
    assert_eq!(reg.snapshot().to_json(), model.snapshot().to_json());
}

proptest! {
    #[test]
    fn registry_snapshots_match_the_btreemap_model(
        ops in prop::collection::vec((0u8..11, 0u8..4, 0usize..12, 0u8..4, any::<u64>()), 0..120),
    ) {
        let mut reg = MetricsRegistry::new();
        let mut model = Model::new();
        for (op, form, idx, class, raw) in ops {
            let v = value(class, raw);
            match op {
                0..=2 => with_key(form, idx, |k| {
                    reg.add(k, v);
                    model.add(k, v);
                }),
                3 => with_key(form, idx, |k| {
                    reg.incr(k);
                    model.add(k, 1);
                }),
                4 => with_key(form, idx, |k| {
                    let other = LITERALS[(idx + 1) % LITERALS.len()];
                    let w = value(class.wrapping_add(1), raw.rotate_left(17));
                    reg.add(k, v);
                    reg.add(other, w);
                    model.add(k, v);
                    model.add(other, w);
                }),
                5 | 6 => with_key(form, idx, |k| {
                    let bounds = if op == 5 { BOUNDS_A } else { BOUNDS_B };
                    reg.observe(k, bounds, v);
                    model.observe(k, bounds, v);
                }),
                7 => with_key(form, idx, |k| {
                    reg.gauge(k, raw as i64);
                    model.gauge(k, raw as i64);
                }),
                8 => {
                    let name = PHASES[idx % PHASES.len()];
                    reg.begin_phase(name);
                    model.begin_phase(name);
                    prop_assert_eq!(reg.current_phase(), name);
                }
                9 => {
                    let cloned = reg.clone();
                    assert_same(&reg, &model);
                    reg = cloned;
                    model = model.clone();
                }
                _ => assert_same(&reg, &model),
            }
        }
        assert_same(&reg, &model);
    }
}
