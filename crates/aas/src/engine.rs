//! The three-phase daily engine, and the order-keeping fan-out that
//! renders the report.
//!
//! Each simulated service-day is split in three (DESIGN.md §4), all on
//! the study's thread:
//!
//! 1. a **decision phase** that computes, for every engaged customer, what
//!    the service will do today (logins, batch sizes, IP draws, purchase
//!    rolls). Decisions read shared service state but mutate nothing, and
//!    every random draw comes from a per-customer stream derived from
//!    `(scenario seed, service stream label, account id, day)` via
//!    [`footsteps_sim::rng::decision_rng`], so no plan depends on the
//!    order in which the roster is planned;
//! 2. a **route phase** that walks the plans in roster order and performs
//!    the order-sensitive work: for the reciprocity engines this is the
//!    whole outbound submission ladder; for the collusion engines it
//!    flattens the plans into a deterministic sequence of
//!    [`footsteps_sim::prelude::DepositOp`]s (plus logins, posts, payments);
//! 3. for the collusion engines, an **apply phase** that executes the
//!    routed deposit ops one at a time, in routing order, through the
//!    platform's enforced inbound path
//!    ([`footsteps_sim::platform::Platform::apply_deposits`]).
//!
//! Engines record plan-count metrics (`aas.<service>.engaged`,
//! `aas.<service>.planned_*`) after planning, never inside `plan_*`, and
//! decision/route/apply wall-clock goes to the timings section, which is
//! quarantined from deterministic output by design.
//!
//! [`plan_parallel`] is not part of a study: `report_all` (and footbench)
//! render the report's sections through it, over
//! `PlatformConfig::worker_threads` threads.

/// Plan every item of `items`, using up to `threads` scoped worker threads.
///
/// `plan` must be a pure function of the item and shared state (it runs
/// concurrently on borrowed `&items`). The items are cut into contiguous
/// shards and the per-shard plans are merged back **in shard index
/// order**, so the returned plans are in `items` order for every
/// `threads` value, including 1 (which plans inline without spawning).
pub fn plan_parallel<T, P, F>(items: &[T], threads: usize, plan: F) -> Vec<P>
where
    T: Sync,
    P: Send,
    F: Fn(&T) -> P + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        return items.iter().map(plan).collect();
    }
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|shard| {
                let plan = &plan;
                s.spawn(move || shard.iter().map(plan).collect::<Vec<P>>())
            })
            .collect();
        // Joining in spawn order is the merge: shard k's plans land at
        // offset k * chunk no matter when its worker finishes.
        let mut out = Vec::with_capacity(items.len());
        for h in handles {
            out.extend(h.join().expect("plan worker panicked"));
        }
        out
    })
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
}
