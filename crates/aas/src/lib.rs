//! # footsteps-aas
//!
//! Full implementations of the five Account Automation Services studied in
//! *Following Their Footsteps* (DeKoven et al., IMC 2018), running against
//! the `footsteps-sim` platform substrate:
//!
//! * **Reciprocity abuse** ([`reciprocity::ReciprocityService`]) — Instalex,
//!   Instazood and Boostgram drive outbound actions *from* customer accounts
//!   at curated targets, harvesting organic reciprocation (§3.1);
//! * **Collusion networks** ([`collusion::CollusionService`]) — Hublaagram
//!   and Followersgratis exchange inauthentic actions among their own
//!   membership (§3.2).
//!
//! Both engines implement the complete business (trials, subscriptions,
//! Hublaagram's tiered price list, the no-outbound exemption, pop-under ad
//! income) with a ground-truth [`ledger::PaymentLedger`], and the complete
//! adversary (block detection with backoff-and-probe volume control, the
//! three-week like-detection lag, ASN migration, the terminal "out of
//! stock" state — §6.3/§6.4). The advertised catalogs of Tables 1–4 and the
//! operating locations of Table 7 are encoded in [`catalog`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adapt;
pub mod catalog;
pub mod collusion;
pub mod customer;
pub mod engine;
pub mod ledger;
pub mod presets;
pub mod reciprocity;
pub mod service;
pub mod stats;
pub mod targeting;

pub use adapt::{AdaptationConfig, ControllerAction, DayObservation, VolumeController};
pub use catalog::{fmt_dollars, Cents};
pub use collusion::{CollusionConfig, CollusionService, PayerProfile, ADS_ACCOUNT};
pub use customer::{Customer, CustomerBook, LifecycleParams, PayState};
pub use engine::plan_parallel;
pub use ledger::{Payment, PaymentKind, PaymentLedger};
pub use reciprocity::{DailyVolumes, ReciprocityConfig, ReciprocityService};
pub use service::Service;
pub use targeting::{median_degrees, TargetingBias, TargetPool};
