//! # footsteps-analysis
//!
//! The measurement analytics of *Following Their Footsteps* §5: customer
//! base and stability (Table 6, §5.1), login-geolocation distributions
//! (Table 7, Figure 2), revenue estimation for both service archetypes
//! (Tables 8–10) — scoreable against the services' ground-truth ledgers —
//! action mixes (Table 11), targeting-bias degree CDFs (Figures 3/4), a
//! small stats toolkit (ECDF/percentiles), and the plain-text table renderer
//! used by every experiment binary.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod actions;
pub mod customers;
pub mod engagement;
pub mod geo;
pub mod report;
pub mod revenue;
pub mod stats;
pub mod targeting;

pub use actions::{action_mix, ActionMixRow};
pub use customers::{
    conversion_rate, customer_base, is_long_term, long_term_action_share,
    long_term_min_consecutive_days, overlap, stability, CustomerBaseRow, StabilityReport,
};
pub use engagement::{engagement, Engagement};
pub use geo::{customer_countries, service_location, CountryDistribution, ServiceLocationRow};
pub use report::{pct, ratio, thousands, Align, Table};
pub use revenue::{
    hublaagram_revenue, hublaagram_revenue_windows, new_vs_preexisting, paid_days_beyond_trial,
    reciprocity_revenue, HublaagramRevenue, NewVsPreexisting, ReciprocityRevenueRow,
};
pub use stats::{
    mean, median, median_u32, nearest_rank, percentile, percentile_u32, percentiles, Ecdf, Welford,
};
pub use targeting::{
    sample_baseline, sample_targets, DegreeSample, TargetingFigures,
};
