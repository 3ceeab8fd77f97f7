//! # footsteps-sweep
//!
//! Multi-seed replication orchestrator for the `footsteps` reproduction.
//!
//! A single [`footsteps_core::Study`] answers "what does seed 7 say?";
//! the paper's tables deserve error bars. This crate runs N seeds × M
//! scenario variants on a bounded worker pool, checkpointing every study
//! at each phase boundary so a killed sweep resumes where it stopped, and
//! aggregates the per-seed [`footsteps_core::results::StudyResults`] into
//! mean ± std summaries.
//!
//! The three pillars:
//!
//! * [`checkpoint`] — a versioned, scenario-hashed envelope around a
//!   serialized `Study`, written atomically, that points at the job's
//!   event log instead of embedding the days it holds. Resuming from any
//!   boundary reproduces the uninterrupted run and its log byte-for-byte
//!   (pinned by the golden digest in this crate's test suite).
//! * [`manifest`] + [`scheduler`] — an on-disk job table (pending /
//!   running / done, with result digests) and a `std::thread::scope`
//!   worker pool that skips completed seeds and resumes partial ones.
//! * [`aggregate`] — streaming Welford mean/variance over per-seed
//!   results plus merged metrics snapshots, rendered as paper tables
//!   with error bars.
//!
//! The `sweep` binary (`sweep run | resume | report`) drives all three.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::path::PathBuf;

pub mod aggregate;
pub mod checkpoint;
pub mod manifest;
pub mod scheduler;

/// Everything that can go wrong in a sweep. Every variant carries the
/// offending path so `sweep resume` failures point at the file to inspect
/// or delete, rather than panicking or silently recomputing.
#[derive(Debug)]
pub enum SweepError {
    /// Filesystem failure reading or writing a sweep artifact.
    Io {
        /// File being read or written.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A checkpoint, manifest or results file failed to parse or failed
    /// an internal consistency check (truncated write, hand-edited JSON,
    /// bit rot).
    Corrupt {
        /// The unreadable file.
        path: PathBuf,
        /// What exactly did not check out.
        detail: String,
    },
    /// The file was written by a different checkpoint or event-log schema.
    VersionMismatch {
        /// The file with the foreign version.
        path: PathBuf,
        /// Version found in the file.
        found: u32,
        /// Version this build writes.
        expected: u32,
    },
    /// The checkpoint belongs to a different scenario than the one the
    /// sweep is resuming (seed, scale or window edits between runs).
    ScenarioMismatch {
        /// The mismatched checkpoint.
        path: PathBuf,
        /// Scenario hash recorded in the file.
        found: u64,
        /// Scenario hash of the sweep being resumed.
        expected: u64,
    },
    /// The requested sweep configuration is invalid or conflicts with an
    /// existing manifest in the same directory.
    Config(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { path, source } => write!(f, "{}: {source}", path.display()),
            Self::Corrupt { path, detail } => {
                write!(f, "{}: corrupt: {detail}", path.display())
            }
            Self::VersionMismatch { path, found, expected } => write!(
                f,
                "{}: schema v{found}, this build reads v{expected} \
                 (re-run the sweep from scratch or use the matching binary)",
                path.display()
            ),
            Self::ScenarioMismatch { path, found, expected } => write!(
                f,
                "{}: checkpoint is for scenario {found:#018x}, sweep expects {expected:#018x} \
                 (the scenario changed between runs; delete the directory to start over)",
                path.display()
            ),
            Self::Config(msg) => write!(f, "invalid sweep configuration: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}
