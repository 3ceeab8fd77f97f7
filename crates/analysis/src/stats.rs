//! Small statistics toolkit shared by the analyses.
//!
//! Nearest-rank percentiles, medians, means, and the empirical CDF used by
//! Figures 3/4. Everything is exact and deterministic (no interpolation
//! surprises between runs).

use serde::{Deserialize, Serialize};

// The canonical nearest-rank primitives. They are *implemented* in
// `footsteps_aas::stats` (the common ancestor of `detect`, `analysis`
// and `stream` in the dependency graph) and re-exported here: analysis
// is the stats surface the rest of the workspace imports from, and
// every float/integer quantile in the repo goes through the same rank
// arithmetic.
pub use footsteps_aas::stats::{nearest_rank, percentile_u32, quantile_sorted_runs};

/// Mean of a slice (0 for empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile of unsorted data, `p ∈ [0,1]`. `None` for empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    debug_assert!((0.0..=1.0).contains(&p));
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// Nearest-rank percentiles at several probes with one sort, ordered by
/// IEEE-754 `total_cmp` so the result is deterministic for *any* input
/// (including NaN/±0.0, which `percentile` rejects). `None` for empty data.
pub fn percentiles(values: &[f64], ps: &[f64]) -> Option<Vec<f64>> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(
        ps.iter()
            .map(|&p| sorted[nearest_rank(sorted.len(), p) - 1])
            .collect(),
    )
}

/// Median (nearest-rank upper median) of unsorted data.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Median of integer data, as f64.
pub fn median_u32(values: &[u32]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    Some(f64::from(sorted[(sorted.len() - 1) / 2]))
}

/// Streaming mean/variance accumulator (Welford's algorithm), mergeable via
/// Chan et al.'s parallel update. Used by the sweep aggregator to summarise
/// per-seed results without holding every sample, and exact enough that the
/// order of `push`/`merge` calls never changes the reported mean by more
/// than floating-point noise.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    /// Sum of squared deviations from the running mean.
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Absorb another accumulator (Chan et al. pairwise update).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }

    /// Number of observations absorbed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the observations (0 for empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance, Bessel-corrected (0 for fewer than two observations).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation (0 for fewer than two observations).
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }
}

/// An empirical cumulative distribution function over integer observations
/// (degree counts in Figures 3/4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    /// Sorted observations.
    sorted: Vec<u32>,
}

impl Ecdf {
    /// Build from unsorted observations.
    ///
    /// # Panics
    /// Panics on empty input — an ECDF of nothing is meaningless.
    pub fn new(mut values: Vec<u32>) -> Self {
        assert!(!values.is_empty(), "ECDF needs at least one observation");
        values.sort_unstable();
        Self { sorted: values }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false (construction rejects empty input).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `P(X <= x)`.
    pub fn cdf(&self, x: u32) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (nearest rank), `q ∈ [0,1]`.
    pub fn quantile(&self, q: f64) -> u32 {
        self.sorted[nearest_rank(self.sorted.len(), q) - 1]
    }

    /// The median observation.
    pub fn median(&self) -> u32 {
        // Lower median, matching how the paper reports "the median account".
        self.sorted[(self.sorted.len() - 1) / 2]
    }

    /// Evaluate the CDF at a grid of points (for plotting a figure series).
    pub fn series(&self, points: &[u32]) -> Vec<(u32, f64)> {
        points.iter().map(|&x| (x, self.cdf(x))).collect()
    }

    /// A log-spaced grid covering the observation range, for CDF plots over
    /// heavy-tailed data.
    pub fn log_grid(&self, points_per_decade: u32) -> Vec<u32> {
        let lo = (*self.sorted.first().expect("non-empty")).max(1);
        let hi = *self.sorted.last().expect("non-empty");
        let mut grid = Vec::new();
        let mut x = lo as f64;
        let step = 10f64.powf(1.0 / f64::from(points_per_decade));
        while x <= hi as f64 {
            let v = x.round() as u32;
            if grid.last() != Some(&v) {
                grid.push(v);
            }
            x *= step;
        }
        if grid.last() != Some(&hi) {
            grid.push(hi);
        }
        grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_percentile_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(median(&[]), None);
        assert_eq!(median_u32(&[5, 1, 9]), Some(5.0));
        assert_eq!(median_u32(&[4, 2]), Some(2.0), "lower median");
    }

    #[test]
    fn ecdf_cdf_and_quantiles() {
        let e = Ecdf::new(vec![10, 20, 30, 40, 50]);
        assert_eq!(e.len(), 5);
        assert_eq!(e.cdf(9), 0.0);
        assert_eq!(e.cdf(10), 0.2);
        assert_eq!(e.cdf(35), 0.6);
        assert_eq!(e.cdf(1_000), 1.0);
        assert_eq!(e.quantile(0.5), 30);
        assert_eq!(e.median(), 30);
        let even = Ecdf::new(vec![1, 2, 3, 4]);
        assert_eq!(even.median(), 2, "lower median for even n");
    }

    #[test]
    fn ecdf_series_is_monotone() {
        let e = Ecdf::new(vec![3, 1, 4, 1, 5, 9, 2, 6]);
        let grid = e.log_grid(10);
        let series = e.series(&grid);
        for w in series.windows(2) {
            assert!(w[0].1 <= w[1].1, "CDF must be non-decreasing");
            assert!(w[0].0 < w[1].0, "grid must be strictly increasing");
        }
        assert_eq!(series.last().unwrap().1, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one observation")]
    fn ecdf_rejects_empty() {
        Ecdf::new(vec![]);
    }

    #[test]
    fn welford_single_sample() {
        let mut w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        w.push(42.5);
        assert_eq!(w.count(), 1);
        assert_eq!(w.mean(), 42.5);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.sample_variance(), 0.0);
        assert_eq!(w.std_dev(), 0.0);
    }

    #[test]
    fn welford_constant_series_has_zero_variance() {
        let mut w = Welford::new();
        for _ in 0..1000 {
            w.push(3.25);
        }
        assert_eq!(w.count(), 1000);
        assert_eq!(w.mean(), 3.25);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.std_dev(), 0.0);
    }

    #[test]
    fn welford_merge_matches_single_accumulator() {
        let xs: Vec<f64> = (0..50).map(|i| f64::from(i) * 1.7 - 11.0).collect();
        let (left, right) = xs.split_at(17);
        let mut a = Welford::new();
        let mut b = Welford::new();
        left.iter().for_each(|&x| a.push(x));
        right.iter().for_each(|&x| b.push(x));
        let mut whole = Welford::new();
        xs.iter().for_each(|&x| whole.push(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.sample_variance() - whole.sample_variance()).abs() < 1e-9);
        // Merging an empty accumulator in either direction is the identity.
        let mut empty = Welford::new();
        empty.merge(&whole);
        assert_eq!(empty, whole);
        let before = whole;
        whole.merge(&Welford::new());
        assert_eq!(whole, before);
    }

    #[test]
    fn percentiles_match_percentile_and_order_nan_last() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let ps = percentiles(&v, &[0.5, 0.9, 0.99]).unwrap();
        assert_eq!(ps, vec![50.0, 90.0, 99.0]);
        assert_eq!(percentiles(&[], &[0.5]), None);
        // total_cmp puts NaN at the top instead of panicking.
        let got = percentiles(&[f64::NAN, 1.0, 2.0], &[0.5, 1.0]).unwrap();
        assert_eq!(got[0], 2.0);
        assert!(got[1].is_nan());
    }
}
