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
/// before indexing ([`percentile_u32`] returns `None`).
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
}
