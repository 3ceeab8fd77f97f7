//! Country model for geolocation-based analyses.
//!
//! The paper (Table 7, Figure 2) geolocates both the services (from their
//! websites and the ASNs their traffic originates from) and their customers
//! (from the most frequent login country, per the platform's IP geolocation
//! system). We model a compact set of countries that covers every country
//! named by the paper plus a long tail bucket.

use serde::{Deserialize, Serialize};

/// Countries distinguished by the synthetic geolocation system.
///
/// The set covers the countries the paper names (operating countries in
/// Table 7, Indonesian like-sellers in Table 4, the ≥5% buckets implied by
/// Figure 2) plus representative high-population Instagram markets; anything
/// else is `Other`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Country {
    /// United States.
    Us,
    /// Russia.
    Ru,
    /// Indonesia.
    Id,
    /// United Kingdom.
    Gb,
    /// Brazil.
    Br,
    /// India.
    In,
    /// Turkey.
    Tr,
    /// Iran.
    Ir,
    /// Germany.
    De,
    /// Italy.
    It,
    /// Long-tail bucket for every other country.
    Other,
}

impl Country {
    /// All modelled countries (including the `Other` bucket).
    pub const ALL: [Country; 11] = [
        Country::Us,
        Country::Ru,
        Country::Id,
        Country::Gb,
        Country::Br,
        Country::In,
        Country::Tr,
        Country::Ir,
        Country::De,
        Country::It,
        Country::Other,
    ];

    /// ISO-3166-ish alpha-2 code (upper case), `"OTHER"` for the bucket.
    pub fn code(self) -> &'static str {
        match self {
            Country::Us => "US",
            Country::Ru => "RU",
            Country::Id => "ID",
            Country::Gb => "GB",
            Country::Br => "BR",
            Country::In => "IN",
            Country::Tr => "TR",
            Country::Ir => "IR",
            Country::De => "DE",
            Country::It => "IT",
            Country::Other => "OTHER",
        }
    }

    /// Full English name.
    pub fn name(self) -> &'static str {
        match self {
            Country::Us => "United States",
            Country::Ru => "Russia",
            Country::Id => "Indonesia",
            Country::Gb => "United Kingdom",
            Country::Br => "Brazil",
            Country::In => "India",
            Country::Tr => "Turkey",
            Country::Ir => "Iran",
            Country::De => "Germany",
            Country::It => "Italy",
            Country::Other => "Other",
        }
    }

    /// Stable index for array-backed per-country accumulators.
    pub fn index(self) -> usize {
        match self {
            Country::Us => 0,
            Country::Ru => 1,
            Country::Id => 2,
            Country::Gb => 3,
            Country::Br => 4,
            Country::In => 5,
            Country::Tr => 6,
            Country::Ir => 7,
            Country::De => 8,
            Country::It => 9,
            Country::Other => 10,
        }
    }
}

impl std::fmt::Display for Country {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// A discrete distribution over countries, used when synthesising user
/// populations and per-service customer mixes.
///
/// Weights need not sum to one; sampling normalises internally.
#[derive(Debug, Clone)]
pub struct CountryMix {
    weights: Vec<(Country, f64)>,
    total: f64,
}

impl CountryMix {
    /// Build a mix from `(country, weight)` pairs. Weights must be finite
    /// and non-negative, and at least one must be positive.
    pub fn new(weights: Vec<(Country, f64)>) -> Self {
        assert!(!weights.is_empty(), "country mix must be non-empty");
        let mut total = 0.0;
        for &(c, w) in &weights {
            assert!(w.is_finite() && w >= 0.0, "bad weight {w} for {c}");
            total += w;
        }
        assert!(total > 0.0, "country mix must have positive total weight");
        Self { weights, total }
    }

    /// Sample a country using a uniform draw in `[0,1)`.
    ///
    /// Taking the uniform value (instead of an `&mut Rng`) keeps this type
    /// trivially testable and lets callers batch their RNG usage.
    pub fn sample(&self, u: f64) -> Country {
        debug_assert!((0.0..1.0).contains(&u), "u must be in [0,1)");
        let target = u * self.total;
        let mut acc = 0.0;
        for &(c, w) in &self.weights {
            acc += w;
            if target < acc {
                return c;
            }
        }
        // Floating-point slop: fall back to the last entry.
        self.weights.last().expect("non-empty").0
    }

    /// The normalised probability of a given country under this mix.
    pub fn probability(&self, country: Country) -> f64 {
        self.weights
            .iter()
            .filter(|(c, _)| *c == country)
            .map(|(_, w)| w / self.total)
            .sum()
    }

    /// The platform-wide organic mix: a plausible global Instagram-user
    /// distribution (US-heavy with large BR/IN/ID populations).
    pub fn global_organic() -> Self {
        Self::new(vec![
            (Country::Us, 0.21),
            (Country::Br, 0.11),
            (Country::In, 0.10),
            (Country::Id, 0.08),
            (Country::Ru, 0.05),
            (Country::Tr, 0.05),
            (Country::Gb, 0.04),
            (Country::De, 0.03),
            (Country::It, 0.03),
            (Country::Ir, 0.03),
            (Country::Other, 0.27),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_and_indexes_are_unique() {
        let mut codes = std::collections::HashSet::new();
        let mut idx = std::collections::HashSet::new();
        for c in Country::ALL {
            assert!(codes.insert(c.code()));
            assert!(idx.insert(c.index()));
        }
    }

    #[test]
    fn mix_sampling_respects_weights() {
        let mix = CountryMix::new(vec![(Country::Us, 3.0), (Country::Ru, 1.0)]);
        // Deterministic grid sampling: 75% of the grid should be US.
        let n = 10_000;
        let us = (0..n)
            .map(|i| mix.sample(i as f64 / n as f64))
            .filter(|&c| c == Country::Us)
            .count();
        let frac = us as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn probability_is_normalised() {
        let mix = CountryMix::global_organic();
        let total: f64 = Country::ALL.iter().map(|&c| mix.probability(c)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sample_edge_values() {
        let mix = CountryMix::new(vec![(Country::Us, 1.0), (Country::Id, 1.0)]);
        assert_eq!(mix.sample(0.0), Country::Us);
        assert_eq!(mix.sample(0.999_999), Country::Id);
    }

    #[test]
    #[should_panic(expected = "positive total weight")]
    fn zero_mix_rejected() {
        CountryMix::new(vec![(Country::Us, 0.0)]);
    }
}
