//! The parallel decision phase of the three-phase daily engine.
//!
//! Each simulated service-day is split in three (DESIGN.md §4):
//!
//! 1. a **decision phase** that computes, for every engaged customer, what
//!    the service will do today (logins, batch sizes, IP draws, purchase
//!    rolls). Decisions read shared service state but mutate nothing, and
//!    every random draw comes from a per-customer stream derived from
//!    `(scenario seed, service stream label, account id, day)` via
//!    [`footsteps_sim::rng::decision_rng`]. Because no decision depends on
//!    processing order, this phase shards freely across worker threads;
//! 2. a serial **route phase** that walks the plans in roster order and
//!    performs the order-sensitive serial work: for the reciprocity engines
//!    this is the whole outbound submission ladder; for the collusion
//!    engines it flattens the plans into a deterministic sequence of
//!    [`footsteps_sim::prelude::DepositOp`]s (plus logins, posts, payments);
//! 3. for the collusion engines, a serial **apply phase** that executes the
//!    routed deposit ops one at a time, in routing order, through the
//!    platform's enforced inbound path
//!    ([`footsteps_sim::platform::Platform::apply_deposits`]).
//!
//! [`plan_parallel`] is the decision-phase harness both service engines use:
//! it fans the roster out over scoped worker threads in contiguous shards
//! and merges the per-shard plans back **in shard index order**, so the
//! output is the roster order regardless of which worker finished first —
//! the property that makes results byte-identical for any thread count.
//!
//! Observability rides the same contract: engines record plan-count metrics
//! (`aas.<service>.engaged`, `aas.<service>.planned_*`) **from the merged
//! list only**, never per worker, so the metrics snapshot is identical for
//! any `FOOTSTEPS_THREADS`. Decision/apply wall-clock goes to the timings
//! section, which is quarantined from deterministic output by design.

use footsteps_obs::{Stopwatch, WorkerSpan};

/// Plan every item of `items`, using up to `threads` scoped worker threads.
///
/// `plan` must be a pure function of the item and shared state (it runs
/// concurrently on borrowed `&items`). The returned plans are in `items`
/// order for every `threads` value, including 1 (which plans inline without
/// spawning).
pub fn plan_parallel<T, P, F>(items: &[T], threads: usize, plan: F) -> Vec<P>
where
    T: Sync,
    P: Send,
    F: Fn(&T) -> P + Sync,
{
    plan_parallel_timed(items, threads, plan).0
}

/// [`plan_parallel`] plus per-lane wall-clock intervals for the span tree.
///
/// Each worker copies a region [`Stopwatch`] started at entry and reports
/// its busy interval as offsets against it; the serial caller grafts the
/// lanes onto the span tree with `Timings::attach_workers`. Lane index =
/// shard index, so the lane *set* is as deterministic as the shard split
/// (durations, of course, are not). The single-thread path reports one
/// inline lane 0 so traces keep the same shape at `FOOTSTEPS_THREADS=1`.
pub fn plan_parallel_timed<T, P, F>(
    items: &[T],
    threads: usize,
    plan: F,
) -> (Vec<P>, Vec<WorkerSpan>)
where
    T: Sync,
    P: Send,
    F: Fn(&T) -> P + Sync,
{
    let region = Stopwatch::start();
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        let out: Vec<P> = items.iter().map(&plan).collect();
        let lanes = if items.is_empty() {
            Vec::new()
        } else {
            vec![WorkerSpan { lane: 0, start_secs: 0.0, end_secs: region.elapsed_secs() }]
        };
        return (out, lanes);
    }
    let chunk = items.len().div_ceil(threads);
    let mut out = Vec::with_capacity(items.len());
    let mut lanes = Vec::with_capacity(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(lane, shard)| {
                let plan = &plan;
                s.spawn(move || {
                    let start_secs = region.elapsed_secs();
                    let plans = shard.iter().map(plan).collect::<Vec<P>>();
                    let span = WorkerSpan {
                        lane: lane as u32,
                        start_secs,
                        end_secs: region.elapsed_secs(),
                    };
                    (plans, span)
                })
            })
            .collect();
        // Joining in spawn order is the merge: shard k's plans land at
        // offset k * chunk no matter when its worker finishes.
        for h in handles {
            // footsteps-lint: allow(panic-in-shard) — serial join path; only re-raises a worker's own panic
            let (plans, span) = h.join().expect("decision worker panicked");
            out.extend(plans);
            lanes.push(span);
        }
    });
    (out, lanes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_item_order_for_any_thread_count() {
        let items: Vec<u32> = (0..103).collect();
        let expect: Vec<u64> = items.iter().map(|&x| u64::from(x) * 3 + 1).collect();
        for threads in [1, 2, 3, 7, 8, 64] {
            let got = plan_parallel(&items, threads, |&x| u64::from(x) * 3 + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn order_survives_out_of_order_completion() {
        // Make the first shard the slowest: if merge order followed
        // completion order, shard 0's plans would come last.
        let items: Vec<usize> = (0..64).collect();
        let got = plan_parallel(&items, 8, |&x| {
            if x < 8 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x
        });
        assert_eq!(got, items);
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let calls = AtomicUsize::new(0);
        let items: Vec<u8> = vec![0; 1000];
        let got = plan_parallel(&items, 8, |_| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(got.len(), 1000);
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn empty_roster_is_fine() {
        let got: Vec<u8> = plan_parallel(&[] as &[u8], 8, |&x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn timed_variant_reports_one_lane_per_shard_in_lane_order() {
        let items: Vec<u32> = (0..40).collect();
        for threads in [1usize, 2, 4, 8] {
            let (plans, lanes) = plan_parallel_timed(&items, threads, |&x| x + 1);
            assert_eq!(plans.len(), items.len(), "threads={threads}");
            assert_eq!(lanes.len(), threads, "threads={threads}");
            for (i, lane) in lanes.iter().enumerate() {
                assert_eq!(lane.lane as usize, i);
                assert!(lane.end_secs >= lane.start_secs);
                assert!(lane.start_secs >= 0.0);
            }
        }
        // Empty rosters attach no lanes (the caller records nothing).
        let (plans, lanes) = plan_parallel_timed(&[] as &[u8], 8, |&x| x);
        assert!(plans.is_empty());
        assert!(lanes.is_empty());
    }
}
