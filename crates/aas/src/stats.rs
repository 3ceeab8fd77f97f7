//! Exact nearest-rank quantile helpers shared by the detector
//! (`footsteps-detect`) and the analyses (`footsteps-analysis`
//! re-exports this module as its canonical stats surface).
//!
//! They live here rather than in `analysis::stats` because `analysis`
//! depends on `detect`: hosting the shared primitive in the common
//! ancestor keeps the dependency graph acyclic while the thresholds and
//! the analyses use the *same* rank arithmetic — a one-off
//! reimplementation is exactly the drift the determinism contract
//! forbids.
//!
//! The upper median sits here too, one copy for both engine kinds and the
//! intervention series.

/// 1-based nearest rank for probability `p ∈ [0,1]` over a sample of
/// size `len`: `⌈len·p⌉` clamped into `[1, len]`.
///
/// Returns 1 for `len == 0` — callers must handle the empty sample
/// before indexing (the slice helpers below return `None`).
pub fn nearest_rank(len: usize, p: f64) -> usize {
    debug_assert!((0.0..=1.0).contains(&p), "p out of [0,1]: {p}");
    ((len as f64 * p).ceil() as usize).clamp(1, len.max(1))
}

/// Exact percentile (nearest-rank) of a sample (sorted in place). `p` in
/// `[0,1]`. `None` for empty input.
pub fn percentile_u32(values: &mut [u32], p: f64) -> Option<u32> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable();
    Some(values[nearest_rank(values.len(), p) - 1])
}

/// Nearest-rank quantile over several *individually sorted* runs without
/// merging or re-sorting them: binary search on the value domain, with
/// the rank of a candidate counted via `partition_point` per run.
///
/// This is the primitive of the detector's threshold window: each
/// calibration day contributes one sorted run, and a day entering the
/// window never forces a re-sort of the other days. Cost is
/// `O(runs · log(runs·len) · log(max))` versus `O(n log n)` for a flat
/// re-sort of the concatenated window.
///
/// For identical multisets of samples this returns exactly the same
/// value as [`percentile_u32`] on the concatenation — the parity is
/// pinned by tests here.
pub fn quantile_sorted_runs(runs: &[&[u32]], p: f64) -> Option<u32> {
    let len: usize = runs.iter().map(|r| r.len()).sum();
    if len == 0 {
        return None;
    }
    let target = nearest_rank(len, p);
    let mut lo = u32::MAX;
    let mut hi = u32::MIN;
    for run in runs {
        debug_assert!(run.windows(2).all(|w| w[0] <= w[1]), "run not sorted");
        if let (Some(&first), Some(&last)) = (run.first(), run.last()) {
            lo = lo.min(first);
            hi = hi.max(last);
        }
    }
    // Invariant: the target-th smallest element is in [lo, hi]; the
    // smallest value v with rank(v) >= target is that element.
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let rank: usize = runs.iter().map(|r| r.partition_point(|&v| v <= mid)).sum();
        if rank >= target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// Upper median of a sample as `f64`: element `len / 2` of the sorted
/// copy, or 0 for an empty slice. The service engines' controllers read
/// the median per-account daily success through it, and
/// `footsteps_intervene`'s Figure 5 series the median daily action count
/// per active account. Not to be confused with
/// `footsteps_analysis::stats::median_u32`, the *lower* median (element
/// `(len - 1) / 2`, `None` for an empty slice): the two differ on
/// even-sized samples.
pub fn upper_median(v: &[u32]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut sorted = v.to_vec();
    sorted.sort_unstable();
    f64::from(sorted[sorted.len() / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upper_median_takes_the_upper_middle() {
        assert_eq!(upper_median(&[]), 0.0);
        assert_eq!(upper_median(&[5, 1, 9]), 5.0);
        assert_eq!(upper_median(&[4, 2]), 4.0, "upper, not lower, median");
    }

    #[test]
    fn nearest_rank_bounds() {
        assert_eq!(nearest_rank(100, 0.99), 99);
        assert_eq!(nearest_rank(100, 0.25), 25);
        assert_eq!(nearest_rank(100, 1.0), 100);
        assert_eq!(nearest_rank(100, 0.0), 1, "clamped to rank 1");
        assert_eq!(nearest_rank(1, 0.5), 1);
        assert_eq!(nearest_rank(0, 0.5), 1, "degenerate empty-sample rank");
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_u32(&mut v, 0.99), Some(99));
        assert_eq!(percentile_u32(&mut v, 0.25), Some(25));
        assert_eq!(percentile_u32(&mut v, 1.0), Some(100));
        assert_eq!(percentile_u32(&mut v, 0.0), Some(1), "clamped to rank 1");
        let mut empty: Vec<u32> = vec![];
        assert_eq!(percentile_u32(&mut empty, 0.5), None);
    }

    #[test]
    fn sorted_runs_match_flat_percentile() {
        // Three sorted runs whose concatenation is 1..=100 shuffled into
        // interleaved residue classes.
        let a: Vec<u32> = (1..=100).filter(|n| n % 3 == 0).collect();
        let b: Vec<u32> = (1..=100).filter(|n| n % 3 == 1).collect();
        let c: Vec<u32> = (1..=100).filter(|n| n % 3 == 2).collect();
        let runs: Vec<&[u32]> = vec![&a, &b, &c];
        for &p in &[0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0] {
            let mut flat: Vec<u32> = (1..=100).collect();
            assert_eq!(
                quantile_sorted_runs(&runs, p),
                percentile_u32(&mut flat, p),
                "p={p}"
            );
        }
    }

    #[test]
    fn sorted_runs_with_duplicates_and_empties() {
        let a = [5u32, 5, 5];
        let b: [u32; 0] = [];
        let c = [1u32, 5, 9];
        let runs: Vec<&[u32]> = vec![&a, &b, &c];
        let flat = vec![5u32, 5, 5, 1, 5, 9];
        for &p in &[0.1, 0.5, 0.9, 1.0] {
            assert_eq!(
                quantile_sorted_runs(&runs, p),
                percentile_u32(&mut flat.clone(), p),
                "p={p}"
            );
        }
        let empty: Vec<&[u32]> = vec![&b];
        assert_eq!(quantile_sorted_runs(&empty, 0.5), None);
        assert_eq!(quantile_sorted_runs(&[], 0.5), None);
    }

    #[test]
    fn sorted_runs_single_run_is_identity_percentile() {
        let run: Vec<u32> = vec![2, 4, 4, 8, 16];
        assert_eq!(quantile_sorted_runs(&[&run], 0.5), Some(4));
        assert_eq!(quantile_sorted_runs(&[&run], 1.0), Some(16));
        assert_eq!(quantile_sorted_runs(&[&run], 0.2), Some(2));
    }
}
