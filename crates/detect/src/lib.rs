//! # footsteps-detect
//!
//! The abuse-detection side of *Following Their Footsteps*: service
//! signatures learned from honeypot ground truth (ASN + client fingerprint,
//! §5), customer classification with precision/recall scoring against
//! simulator ground truth, and the frozen per-ASN daily activity thresholds
//! of §6.2 (99th percentile of benign traffic on mixed ASNs, 25th percentile
//! of abuse traffic on pure ASNs; outbound side for reciprocity services,
//! inbound side for collusion networks).
//!
//! Each stage reads one sealed `footsteps_sim::DayLog` at a time.
//! [`DetectionPipeline`] folds them over the action log;
//! `footsteps-stream` feeds them online.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod classify;
pub mod pipeline;
pub mod signature;
pub mod threshold;

pub use classify::{
    classify, classify_day, score, score_group, score_group_before, Classification, Score,
};
pub use pipeline::DetectionPipeline;
pub use signature::{roster, RosterEntry, ServiceSignature, SignatureLearner};
pub use threshold::{
    compute_thresholds, false_positive_account_days, AsnTraffic, ThresholdTable, ThresholdWindow,
};
