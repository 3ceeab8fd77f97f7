//! # footsteps-core
//!
//! The study orchestrator for the `footsteps` reproduction of *Following
//! Their Footsteps: Characterizing Account Automation Abuse and Defenses*
//! (DeKoven et al., IMC 2018).
//!
//! A [`Scenario`] fully determines a [`Study`]; running the study's phases
//! (characterization → detection pipeline → narrow intervention → broad
//! intervention → epilogue) produces a world from which [`results`] computes
//! a typed value for **every table and figure** in the paper's evaluation,
//! with the published numbers available in [`paper`] for side-by-side
//! comparison.
//!
//! ```no_run
//! use footsteps_core::{results, Scenario, Study};
//!
//! let mut study = Study::new(Scenario::default_scaled(7));
//! study.run_to_completion();
//! let table6 = results::table6(&study);
//! for row in table6 {
//!     println!("{}: {} customers ({} long-term)", row.group, row.customers, row.long_term);
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod paper;
pub mod results;
pub mod scenario;
pub mod study;
pub mod world;

pub use scenario::Scenario;
pub use study::{Phase, Study, Timeline};
pub use world::AsnLayout;
