//! The paper's published numbers, encoded for side-by-side comparison.
//!
//! Every experiment binary prints the paper's value next to the simulated
//! value. Absolute magnitudes are expected to differ (we run at 1/100 scale
//! on a synthetic substrate); the *shapes* — who wins, by what factor, where
//! crossovers fall — are what EXPERIMENTS.md tracks.

use footsteps_sim::prelude::{ServiceGroup, ServiceId};

/// Table 5, as published: reciprocation probabilities in percent.
/// `(service, lived_in, outbound_likes, like_pct, follow_pct)`.
pub const TABLE5: [(ServiceId, bool, bool, f64, f64); 12] = [
    // Outbound likes, empty accounts.
    (ServiceId::Boostgram, false, true, 1.5, 0.1),
    (ServiceId::Instalex, false, true, 2.1, 1.4),
    (ServiceId::Instazood, false, true, 2.1, 0.2),
    // Outbound likes, lived-in accounts.
    (ServiceId::Boostgram, true, true, 3.9, 0.2),
    (ServiceId::Instalex, true, true, 3.7, 1.8),
    (ServiceId::Instazood, true, true, 3.5, 0.4),
    // Outbound follows, empty accounts.
    (ServiceId::Boostgram, false, false, 0.0, 10.3),
    (ServiceId::Instalex, false, false, 0.0, 12.8),
    (ServiceId::Instazood, false, false, 0.0, 13.0),
    // Outbound follows, lived-in accounts.
    (ServiceId::Boostgram, true, false, 0.0, 12.0),
    (ServiceId::Instalex, true, false, 0.0, 13.7),
    (ServiceId::Instazood, true, false, 0.0, 16.1),
];

/// Table 6: `(group, customers, long_term)` over the 90-day window.
pub const TABLE6: [(ServiceGroup, u64, u64); 3] = [
    (ServiceGroup::InstaStar, 121_661, 41_891),
    (ServiceGroup::Boostgram, 11_959, 3_975),
    (ServiceGroup::Hublaagram, 1_008_127, 501_428),
];

/// §5.1: share of each group's actions from long-term customers.
pub const LONG_TERM_ACTION_SHARE: [(ServiceGroup, f64); 3] = [
    (ServiceGroup::InstaStar, 0.916),
    (ServiceGroup::Boostgram, 0.897),
    (ServiceGroup::Hublaagram, 0.923),
];

/// §5.1: first-month long-term conversion rates.
pub const CONVERSION_RATE: [(ServiceGroup, f64); 3] = [
    (ServiceGroup::InstaStar, 0.21),
    (ServiceGroup::Boostgram, 0.12),
    (ServiceGroup::Hublaagram, 0.37),
];

/// Table 8: `(label, paid accounts, monthly revenue in cents)`.
pub const TABLE8: [(&str, u64, u64); 3] = [
    ("Boostgram", 3_016, 29_858_400),
    ("Insta* (Low)", 25_122, 19_501_700),
    ("Insta* (High)", 25_122, 22_378_500),
];

/// Table 9, Hublaagram accounting: one-time fee side.
pub const TABLE9_NO_OUTBOUND: (u64, u64) = (24_420, 36_630_000); // accounts, cents

/// Table 9: monthly like tiers `(accounts, monthly cents)`, Table 3 order.
pub const TABLE9_MONTHLY_TIERS: [(u64, u64); 4] = [
    (11_249, 22_498_000),
    (18_009, 54_027_000),
    (2_488, 9_952_000),
    (155, 1_085_000),
];

/// Table 9: one-time 2,000-like buyers `(accounts, cents)`.
pub const TABLE9_ONE_TIME: (u64, u64) = (182, 182_000);

/// Table 9: ad impressions and the low/high revenue bounds in cents.
pub const TABLE9_ADS: (u64, u64, u64) = (5_769_537, 346_100, 2_307_800);

/// Table 9: monthly revenue total range, cents.
pub const TABLE9_TOTAL_RANGE: (u64, u64) = (88_090_100, 90_051_800);

/// Table 10: `(group, new share, preexisting share)`.
pub const TABLE10: [(ServiceGroup, f64, f64); 3] = [
    (ServiceGroup::InstaStar, 0.314, 0.686),
    (ServiceGroup::Boostgram, 0.108, 0.892),
    (ServiceGroup::Hublaagram, 0.165, 0.835),
];

/// Table 11: action mixes `(group, like, follow, comment, unfollow)`.
pub const TABLE11: [(ServiceGroup, f64, f64, f64, f64); 3] = [
    (ServiceGroup::InstaStar, 0.308, 0.386, 0.056, 0.250),
    (ServiceGroup::Boostgram, 0.640, 0.193, 0.0, 0.167),
    (ServiceGroup::Hublaagram, 0.630, 0.353, 0.017, 0.0),
];

/// Figures 3/4: median degrees `(label, median following, median followers)`.
pub const FIGURE34_MEDIANS: [(&str, f64, f64); 3] = [
    ("Boostgram targets", 684.0, 498.0),
    ("Insta* targets", 554.5, 384.0),
    ("All Instagram", 465.0, 796.0),
];

/// §6.3: Hublaagram's like-block reaction lag, days (~3 weeks).
pub const HUBLAAGRAM_REACTION_LAG_DAYS: u32 = 21;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_long_term_shares_match_prose() {
        // "One third of customers of both Insta* and Boostgram are
        // long-term, while nearly half of Hublaagram users are long-term."
        for (group, total, lt) in TABLE6 {
            let share = lt as f64 / total as f64;
            match group {
                ServiceGroup::InstaStar | ServiceGroup::Boostgram => {
                    assert!((0.30..0.37).contains(&share), "{group}: {share}")
                }
                ServiceGroup::Hublaagram => {
                    assert!((0.45..0.55).contains(&share), "{group}: {share}")
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn table9_total_is_consistent() {
        let tiers: u64 = TABLE9_MONTHLY_TIERS.iter().map(|(_, c)| c).sum();
        let low = tiers + TABLE9_ONE_TIME.1 + TABLE9_ADS.1;
        let high = tiers + TABLE9_ONE_TIME.1 + TABLE9_ADS.2;
        assert_eq!(low, TABLE9_TOTAL_RANGE.0);
        assert_eq!(high, TABLE9_TOTAL_RANGE.1);
    }

    #[test]
    fn table11_rows_sum_to_one() {
        for (g, a, b, c, d) in TABLE11 {
            let total = a + b + c + d;
            assert!((total - 1.0).abs() < 0.005, "{g}: {total}");
        }
    }

    #[test]
    fn table5_shape_constants() {
        // Follow→like reciprocation is always zero.
        for (_, _, outbound_likes, like_pct, _) in TABLE5 {
            if !outbound_likes {
                assert_eq!(like_pct, 0.0);
            }
        }
        // Lived-in beats empty for like→like on every service.
        for s in ServiceId::RECIPROCITY {
            let e = TABLE5.iter().find(|r| r.0 == s && !r.1 && r.2).unwrap();
            let l = TABLE5.iter().find(|r| r.0 == s && r.1 && r.2).unwrap();
            assert!(l.3 > e.3, "{s}");
        }
    }
}
