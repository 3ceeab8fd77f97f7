//! Fixture: effects one call deep from a shard path. Every helper here is
//! clean *at the `plan_member` call site* under per-file lexical scoping;
//! only the call-graph propagation can flag the shard function itself.

use std::collections::HashMap;

/// Hash-typed field so the nondet-iter helper has a known receiver.
pub struct ShardState {
    pub counts: HashMap<u64, u64>,
}

fn log_outcome() -> u128 {
    let started = std::time::Instant::now();
    started.elapsed().as_nanos()
}

fn jitter() -> u64 {
    let mut rng = thread_rng();
    rng.next_u64()
}

fn read_knob() -> bool {
    std::env::var("FOOTSTEPS_KNOB").is_ok()
}

fn bump_counter(metrics: &mut u64) {
    *metrics += 1;
}

fn total(s: &ShardState) -> u64 {
    s.counts.values().sum()
}

pub fn plan_member(s: &mut ShardState) -> u64 {
    let nanos = log_outcome();
    let j = jitter();
    let knob = read_knob();
    let mut c = 0u64;
    bump_counter(&mut c);
    let t = total(s);
    nanos as u64 + j + u64::from(knob) + c + t
}
