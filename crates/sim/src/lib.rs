//! # footsteps-sim
//!
//! Deterministic social-platform substrate for reproducing *Following Their
//! Footsteps: Characterizing Account Automation Abuse and Defenses* (DeKoven
//! et al., IMC 2018).
//!
//! The paper measured real abuse on Instagram from inside the platform. That
//! vantage point — 800M users, commercial abuse services, internal signal
//! stores — is unobtainable, so this crate rebuilds the *measurement
//! environment* as a simulator: accounts and media, a follow graph, the five
//! social action types, an IP/ASN/geolocation model, client fingerprints,
//! a per-IP volume defense, organic reciprocation behaviour, and a platform
//! engine with pluggable enforcement. Everything downstream (the services in
//! `footsteps-aas`, honeypots, detection, interventions, analysis) runs on
//! top of this substrate exactly the way the paper's pipeline ran on
//! Instagram.
//!
//! ## Design invariants
//!
//! * **Determinism** — no wall clock, no global RNG. All randomness flows
//!   from [`rng::RngFactory`] streams; the same scenario seed reproduces
//!   byte-identical logs.
//! * **Two-speed engine** — bulk activity is aggregated per account-day
//!   ([`log::ActionLog`]); full events are retained only for tracked
//!   accounts (honeypots). See DESIGN.md §4.
//! * **Mechanism, not script** — reciprocation, attribution, and
//!   countermeasure effects are generated by the modelled mechanisms, never
//!   hard-coded to match the paper's tables.
//!
//! ## Quick tour
//!
//! ```
//! use footsteps_sim::prelude::*;
//! use rand::SeedableRng;
//!
//! // A tiny internet: one residential ASN, one hosting ASN.
//! let mut asns = AsnRegistry::new();
//! let res = asns.register("us-res", Country::Us, AsnKind::Residential, 10_000);
//! let host = asns.register("ru-host", Country::Ru, AsnKind::Hosting, 1_000);
//!
//! let mut platform = Platform::new(
//!     asns,
//!     PlatformConfig::default(),
//!     rand::rngs::SmallRng::seed_from_u64(7),
//! );
//!
//! // One organic user.
//! let user = platform.accounts.create(
//!     SimTime::EPOCH,
//!     ProfileKind::Organic,
//!     Country::Us,
//!     res,
//!     465,
//!     796,
//!     ReciprocityProfile { like_for_like: 0.03, follow_for_like: 0.003, follow_for_follow: 0.12 },
//! );
//!
//! // A service drives 100 likes from the user's account via its hosting ASN.
//! platform.begin_day(Day(0));
//! let ip = platform.asns.ip_in(host, 0);
//! let result = platform.submit_batch(BatchRequest {
//!     actor: user,
//!     action: ActionType::Like,
//!     count: 100,
//!     asn: host,
//!     ip,
//!     fingerprint: ClientFingerprint::SpoofedMobile { variant: 1 },
//!     pool: PoolStats::INERT,
//!     service: Some(ServiceId::Instalex),
//! });
//! assert_eq!(result.delivered, 100);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod account;
pub mod background;
pub mod actions;
pub mod behavior;
pub mod country;
pub mod enforcement;
pub mod fingerprint;
pub mod graph;
pub mod ids;
pub mod log;
pub mod net;
pub mod platform;
pub mod population;
#[cfg(test)]
mod proptests;
pub mod rng;
pub mod time;

/// One-stop import for downstream crates.
pub mod prelude {
    pub use crate::account::{Account, AccountStore, Media, ProfileKind, ReciprocityProfile};
    pub use crate::actions::{
        ActionEvent, ActionOutcome, ActionTarget, ActionType, TypeCounts,
    };
    pub use crate::behavior::{
        followback_tendency, response_probability, sample_binomial, synthesize_profile,
        BehaviorParams, ResponseChannel,
    };
    pub use crate::country::{Country, CountryMix};
    pub use crate::enforcement::{
        Countermeasure, Direction, EnforcementContext, EnforcementDecision, EnforcementPolicy,
        NoEnforcement,
    };
    pub use crate::fingerprint::ClientFingerprint;
    pub use crate::graph::{FollowResult, SocialGraph};
    pub use crate::ids::{AccountId, AsnId, IdMap, IdSet, MediaId, ServiceGroup, ServiceId};
    pub use crate::background::{run_background_day, BackgroundConfig};
    pub use crate::log::{
        ActionLog, DayLog, InboundSource, LoginRecord, OutboundKey, PhotoDayLikes,
    };
    pub use crate::net::{AsnInfo, AsnKind, AsnRegistry, IpAddr4};
    pub use crate::platform::{
        BatchRequest, BatchResult, DepositOp, EventRequest, Platform,
        PlatformConfig, PoolStats,
    };
    pub use crate::population::{
        sample_lognormal, synthesize, Population, PopulationConfig, ResidentialIndex,
    };
    pub use crate::rng::{decision_rng, stable_bin, RngFactory};
    pub use crate::time::{Day, SimClock, SimTime, SECS_PER_DAY, SECS_PER_HOUR};
}
