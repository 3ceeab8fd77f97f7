//! # footsteps-honeypot
//!
//! The honeypot account framework of *Following Their Footsteps* (§4):
//! programmatic management of empty / lived-in / inactive-baseline honeypot
//! accounts, registration campaigns against the account-automation services
//! (10 accounts per offered service type, one lived-in per cohort),
//! inbound/outbound monitoring with attribution validation, advertised- vs
//! delivered-trial verification, and the reciprocation measurement behind
//! Table 5.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod campaign;
pub mod framework;
pub mod monitor;
pub mod reciprocation;

pub use campaign::{run_campaign, CampaignReport};
pub use framework::{HoneypotFramework, HoneypotKind, HoneypotRecord, PHOTO_THEMES};
pub use monitor::{
    baseline_inbound, observed_trial_days, summarize, unrequested_action_types, ActivitySummary,
};
pub use reciprocation::{find_row, measure, ReciprocationCell, Table5Row};
