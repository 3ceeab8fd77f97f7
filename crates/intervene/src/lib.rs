//! # footsteps-intervene
//!
//! The controlled intervention experiments of *Following Their Footsteps*
//! (§6): deterministic ten-bin account partitioning, the threshold+bin
//! enforcement policy combining `footsteps-detect`'s frozen thresholds with
//! per-bin countermeasures (synchronous block vs delayed removal), the
//! narrow (6-week, ≤20% treated) and broad (2-week, 90% treated) experiment
//! plans, and the daily series extraction behind Figures 5–7.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bins;
pub mod experiment;
pub mod policy;
pub mod series;

pub use bins::{bin_of, BinAssignment, BinPolicy, NUM_BINS};
pub use experiment::{ExperimentPhase, ExperimentPlan};
pub use policy::{EpiloguePolicy, ExperimentPolicy};
pub use series::{eligible_proportion, median_actions_per_user, DailySeries};
