//! Order statistics for run summaries.

/// The median (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads printed here match the
/// ones computed from the same values in Python. One value gives itself
/// for both quartiles.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let v = sorted(values);
    let len = v.len();
    if len == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median (0 for a zero median).
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Median, extremes and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarize `values`.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn of(values: &[f64]) -> Self {
        let v = sorted(values);
        Summary {
            median: median(&v),
            min: v[0],
            max: v[v.len() - 1],
            n: v.len(),
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[2.0]), 0.0);
    }
}
