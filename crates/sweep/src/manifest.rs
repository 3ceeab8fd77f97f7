//! The on-disk sweep manifest: one JSON file tracking every (variant,
//! seed) job's status, latest phase boundary and result digest.
//!
//! The manifest is the sweep's source of truth across process lifetimes:
//! `sweep resume` reads only this file to decide what is left to do. It
//! is rewritten atomically after every state transition, so a kill at any
//! instant leaves a readable manifest that is at most one transition
//! stale — and a stale `Running` entry simply runs again from the start.
//!
//! Timestamps are wall-clock seconds for operator forensics only; they
//! never feed a digest (`crates/sweep` carries the lint's wall-clock
//! exemption for exactly this bookkeeping).

use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

use footsteps_core::{Phase, Scenario};
use serde::{Deserialize, Serialize};

use crate::{read_json, write_atomic, SweepError};

/// Manifest layout version; bump on incompatible changes.
pub const MANIFEST_VERSION: u32 = 1;

/// Lifecycle of one (variant, seed) job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobStatus {
    /// Not started (or reset after a failure).
    Pending,
    /// Claimed by a worker; after a kill this means "partially done,
    /// run it again".
    Running,
    /// Finished; `digest` is recorded and the results, metrics and
    /// latency files exist.
    Done,
}

/// One seed of one scenario variant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobEntry {
    /// Variant name (key into [`Manifest::variants`]).
    pub variant: String,
    /// The seed this job runs the variant's scenario with.
    pub seed: u64,
    /// Where the job is in its lifecycle.
    pub status: JobStatus,
    /// FNV-1a digest of the per-seed `StudyResults` JSON, recorded the
    /// moment characterization completes (the golden-digest convention).
    pub digest: Option<u64>,
    /// Latest phase boundary the job's run reached.
    pub phase: Phase,
    /// Wall-clock seconds since the epoch of the last transition.
    /// Operator bookkeeping only — never digested, never compared.
    pub updated_unix: u64,
}

/// The sweep's on-disk job table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Manifest {
    /// Layout version of this file.
    pub schema_version: u32,
    /// Named scenario variants; each job's scenario is the variant's with
    /// the job's seed substituted.
    pub variants: Vec<(String, Scenario)>,
    /// Seeds every variant runs with.
    pub seeds: Vec<u64>,
    /// One entry per (variant, seed), variant-major, in sweep order.
    pub jobs: Vec<JobEntry>,
}

/// Current wall-clock seconds since the Unix epoch (0 if the clock is
/// before it). Bookkeeping only.
pub fn now_unix() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

impl Manifest {
    /// A fresh manifest: every (variant, seed) job pending.
    pub fn new(variants: Vec<(String, Scenario)>, seeds: Vec<u64>) -> Self {
        let jobs = variants
            .iter()
            .flat_map(|(name, _)| {
                seeds.iter().map(|&seed| JobEntry {
                    variant: name.clone(),
                    seed,
                    status: JobStatus::Pending,
                    digest: None,
                    phase: Phase::Setup,
                    updated_unix: now_unix(),
                })
            })
            .collect();
        Self { schema_version: MANIFEST_VERSION, variants, seeds, jobs }
    }

    /// Load and validate a manifest. Parse failures and foreign versions
    /// are typed errors, not panics.
    pub fn load(path: &Path) -> Result<Self, SweepError> {
        let manifest: Manifest = read_json(path)?;
        if manifest.schema_version != MANIFEST_VERSION {
            return Err(SweepError::VersionMismatch {
                path: path.to_path_buf(),
                found: manifest.schema_version,
                expected: MANIFEST_VERSION,
            });
        }
        for job in &manifest.jobs {
            if !manifest.variants.iter().any(|(name, _)| *name == job.variant) {
                return Err(SweepError::Corrupt {
                    path: path.to_path_buf(),
                    detail: format!("job references unknown variant `{}`", job.variant),
                });
            }
        }
        Ok(manifest)
    }

    /// Atomically write the manifest (pretty JSON — it is small and
    /// operators read it).
    pub fn save(&self, path: &Path) -> Result<(), SweepError> {
        let text = serde_json::to_string_pretty(self).expect("Manifest serializes");
        write_atomic(path, text.as_bytes())
    }

    /// Mutable access to one job entry.
    ///
    /// # Panics
    /// Panics if the (variant, seed) pair is not in the table — sweep
    /// code only addresses jobs it created.
    pub fn job_mut(&mut self, variant: &str, seed: u64) -> &mut JobEntry {
        self.jobs
            .iter_mut()
            .find(|j| j.variant == variant && j.seed == seed)
            .expect("job exists in manifest")
    }

    /// Read access to one job entry, if present.
    pub fn job(&self, variant: &str, seed: u64) -> Option<&JobEntry> {
        self.jobs.iter().find(|j| j.variant == variant && j.seed == seed)
    }

    /// True when every job is `Done`.
    pub fn all_done(&self) -> bool {
        self.jobs.iter().all(|j| j.status == JobStatus::Done)
    }

    /// The scenario one job runs: its variant's scenario with the job
    /// seed substituted.
    pub fn scenario_for(&self, variant: &str, seed: u64) -> Option<Scenario> {
        let (_, base) = self.variants.iter().find(|(name, _)| name == variant)?;
        let mut s = base.clone();
        s.seed = seed;
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("footsteps-manifest-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn round_trips_through_disk() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("manifest.json");
        let mut m = Manifest::new(vec![("smoke".into(), Scenario::smoke(1))], vec![1, 2]);
        m.job_mut("smoke", 2).status = JobStatus::Done;
        m.job_mut("smoke", 2).digest = Some(0xdead_beef);
        m.save(&path).expect("save");
        let back = Manifest::load(&path).expect("load");
        assert_eq!(back.jobs.len(), 2);
        assert_eq!(back.job("smoke", 2).unwrap().status, JobStatus::Done);
        assert_eq!(back.job("smoke", 2).unwrap().digest, Some(0xdead_beef));
        assert!(!back.all_done());
        assert_eq!(back.scenario_for("smoke", 2).unwrap().seed, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_and_corruption_are_typed_errors() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("manifest.json");
        let m = Manifest::new(vec![("smoke".into(), Scenario::smoke(1))], vec![1]);
        m.save(&path).expect("save");

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("\"schema_version\": 1", "\"schema_version\": 99"))
            .unwrap();
        match Manifest::load(&path) {
            Err(SweepError::VersionMismatch { found: 99, expected: MANIFEST_VERSION, .. }) => {}
            other => panic!("expected version mismatch, got {other:?}"),
        }

        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(matches!(Manifest::load(&path), Err(SweepError::Corrupt { .. })));

        // A flipped byte that breaks UTF-8 is corruption too, not I/O.
        let mut flipped = text.clone().into_bytes();
        flipped[text.len() / 2] = 0xFF;
        std::fs::write(&path, flipped).unwrap();
        assert!(matches!(Manifest::load(&path), Err(SweepError::Corrupt { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }
}
