//! # footsteps-sweep
//!
//! Multi-seed replication orchestrator for the `footsteps` reproduction.
//!
//! A single [`footsteps_core::Study`] answers "what does seed 7 say?";
//! the paper's tables deserve error bars. This crate runs N seeds × M
//! scenario variants on a bounded worker pool and aggregates the per-seed
//! [`footsteps_core::results::StudyResults`] into mean ± std summaries.
//!
//! The two pillars:
//!
//! * [`manifest`] + [`scheduler`] — an on-disk job table (pending /
//!   running / done, with result digests) and a `std::thread::scope`
//!   worker pool that skips completed seeds and runs every other one
//!   from `Study::new`. A job is deterministic in its scenario, so a job
//!   that a kill interrupted resumes by running again, and rewrites the
//!   same results, metrics, latency and log bytes.
//! * [`aggregate`] — streaming Welford mean/variance over per-seed
//!   results plus merged metrics snapshots, rendered as paper tables
//!   with error bars.
//!
//! The `sweep` binary (`sweep run | resume | report`) drives both.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fs;
use std::path::{Path, PathBuf};

use footsteps_core::Scenario;
use footsteps_obs::tree::fnv1a;
use footsteps_stream::StreamError;
use serde::Deserialize;

pub mod aggregate;
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
    /// A manifest, results, metrics, latency or event-log file failed to
    /// parse or failed an internal consistency check (truncated write,
    /// hand-edited JSON, bit rot).
    Corrupt {
        /// The unreadable file.
        path: PathBuf,
        /// What exactly did not check out.
        detail: String,
    },
    /// The file was written by a different manifest or event-log schema.
    VersionMismatch {
        /// The file with the foreign version.
        path: PathBuf,
        /// Version found in the file.
        found: u32,
        /// Version this build writes.
        expected: u32,
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

/// Identity hash of a scenario, for the manifest's compatibility check.
/// `worker_threads` is normalized out: the study ignores it (it sizes only
/// footbench's render fan-out), so a sweep continues under any value.
pub fn scenario_hash(scenario: &Scenario) -> u64 {
    let mut normalized = scenario.clone();
    normalized.worker_threads = 1;
    let json = serde_json::to_string(&normalized).expect("Scenario serializes");
    fnv1a(json.as_bytes())
}

/// Write `bytes` to `path` atomically ([`footsteps_obs::atomic::write_atomic`]).
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SweepError> {
    footsteps_obs::atomic::write_atomic(path, bytes)
        .map_err(|source| SweepError::Io { path: path.to_path_buf(), source })
}

/// Read a sweep file as text. A failed read is [`SweepError::Io`]; bytes
/// that are not UTF-8 are [`SweepError::Corrupt`], like any other damage
/// to the contents.
pub(crate) fn read_text(path: &Path) -> Result<String, SweepError> {
    let bytes =
        fs::read(path).map_err(|source| SweepError::Io { path: path.to_path_buf(), source })?;
    String::from_utf8(bytes).map_err(|e| corrupt(path, e.to_string()))
}

/// Read and decode a JSON sweep file ([`read_text`]); a parse failure is
/// [`SweepError::Corrupt`].
pub(crate) fn read_json<T: Deserialize>(path: &Path) -> Result<T, SweepError> {
    serde_json::from_str(&read_text(path)?).map_err(|e| corrupt(path, e.0))
}

fn corrupt(path: &Path, detail: impl Into<String>) -> SweepError {
    SweepError::Corrupt { path: path.to_path_buf(), detail: detail.into() }
}

/// An event-log failure at `path` as the matching [`SweepError`].
pub(crate) fn log_error(path: &Path, e: StreamError) -> SweepError {
    let path = path.to_path_buf();
    match e {
        StreamError::Io(source) => SweepError::Io { path, source },
        StreamError::VersionMismatch { found, expected } => {
            SweepError::VersionMismatch { path, found, expected }
        }
        e => SweepError::Corrupt { path, detail: e.to_string() },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_hash_normalizes_worker_threads() {
        let mut a = Scenario::smoke(7);
        let mut b = Scenario::smoke(7);
        a.worker_threads = 1;
        b.worker_threads = 8;
        assert_eq!(scenario_hash(&a), scenario_hash(&b));
        assert_ne!(scenario_hash(&a), scenario_hash(&Scenario::smoke(8)));
    }
}
