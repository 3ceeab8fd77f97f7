//! The order-keeping fan-out that renders footbench's report.
//!
//! [`plan_parallel`] is not part of a study: a study serves each service's
//! roster on its own thread, one customer-day at a time, in roster order
//! (DESIGN.md §4). footbench renders its report sections through it, over
//! the scenario's `worker_threads` threads (`report_all` renders its
//! sections in order on its own thread).

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
