//! # footsteps-intervene
//!
//! The controlled intervention experiments of *Following Their Footsteps*
//! (§6): deterministic ten-bin account partitioning with the paper's fixed
//! block, delay and control bins, the threshold+bin enforcement policy
//! combining `footsteps-detect`'s frozen thresholds with per-bin
//! countermeasures (synchronous block, delayed removal, or the epilogue's
//! block-likes-delay-follows), and the daily series extraction behind
//! Figures 5–7. When each assignment is in force is the study's calendar
//! (`footsteps_core::Timeline::bins_on`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bins;
pub mod policy;
pub mod series;

pub use bins::{bin_of, BinAssignment, BinPolicy, BLOCK_BIN, CONTROL_BIN, DELAY_BIN, NUM_BINS};
pub use policy::ExperimentPolicy;
pub use series::{eligible_proportion, median_actions_per_user, DailySeries};
