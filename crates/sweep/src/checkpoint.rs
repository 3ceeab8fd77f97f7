//! Phase-boundary checkpoints: a versioned envelope around a serialized
//! [`Study`] and a reference to the event log it records.
//!
//! A checkpoint is a single JSON document:
//!
//! ```json
//! {"schema_version": 7, "scenario_hash": …, "phase": "Characterized",
//!  "log": {"file": "log_smoke_s1.jsonl", "prefix": {"batches": 24, "bytes": …, "fnv1a": …}},
//!  "study": {…}}
//! ```
//!
//! `schema_version` gates changes to the wire format, `scenario_hash`
//! ties the file to the exact scenario it was produced from (so a sweep
//! cannot resume seed 7's world into seed 8's job), and the duplicated
//! `phase` marker cross-checks the embedded study as a cheap integrity
//! probe. Files are written to a `.tmp` sibling and atomically renamed,
//! so a kill mid-write leaves either the old checkpoint or none — never
//! a truncated one under the real name.
//!
//! A recording study leaves the days its event log holds out of `study`;
//! `log` names that log (a file next to the checkpoint) and its prefix.
//! A study without a recorder embeds every day and has no `log`. An
//! embedded day has the same positional rows as an event-log line.
//!
//! Determinism contract: the `Study` serialization covers every RNG
//! stream position, arena and pending queue, so a study loaded from any
//! phase-boundary checkpoint replays the exact byte stream of the run
//! that wrote it. The crate's test suite pins this against the golden
//! smoke digest.

use std::fs;
use std::path::{Path, PathBuf};

use footsteps_core::{Phase, Scenario, Study};
use footsteps_obs::tree::fnv1a;
use footsteps_stream::{EventLogWriter, LogPrefix, StreamError};
use serde::{Deserialize, Serialize};

use crate::SweepError;

/// Version of the checkpoint format this build writes and reads. Bump it
/// on any change to the bytes [`save`] writes for the same study state,
/// and not for a Rust layout change that writes the same bytes (a
/// skipped field, a renamed type): a bump makes every existing checkpoint
/// unloadable. `crates/sweep/tests/resume.rs` pins the bytes of the five
/// checkpoints of a recorded smoke(7) run and saves each loaded one again,
/// so a format change fails there (DESIGN.md §7).
///
/// v2: `Study` gained the skip-serialized `stream` outcome and `Platform`
/// the skip-serialized event sink (DESIGN.md §8). The wire format is
/// unchanged; a structural pin of the Rust types, since deleted, forced
/// the bump.
///
/// v3: `DetectionPipeline` lost its skip-serialized worker-lane field.
/// The wire format is unchanged again; only that structural pin moved.
///
/// v4: `Study`'s five service-engine fields became one `services` array
/// of `footsteps_aas::Service`. This changes the `Study` wire layout;
/// every component's bytes (platform, each engine, every other field)
/// are unchanged.
///
/// v5: `Platform` keeps its per-IP edge volumes as `ip_day` plus an
/// `ip_used` map of that day's IPs, in place of the dense `ip_volume`
/// table over the whole address space, and lost the public-API quota
/// (`oauth_quota`). Every other `Study` component, and every other
/// `Platform` field, keeps its bytes.
///
/// v6: the envelope gained `log`, the reference to the job's event log.
/// The platform's `ActionLog` leaves out the days that log holds (its new
/// `recorded` count), and each `DayLog` carries its `day` and `logins`.
/// Every other `Study` component keeps its bytes.
///
/// v7: an embedded `DayLog` (day 0 of a `Setup` checkpoint) has the event
/// log's v3 positional rows, and `TypeCounts` lost `rate_limited`. Every
/// other `Study` component keeps its bytes.
pub const SCHEMA_VERSION: u32 = 7;

/// Identity hash of a scenario, for tying checkpoints and manifests to
/// their configuration. `worker_threads` is normalized out: the study
/// ignores it (it sizes only footbench's render fan-out), so a checkpoint
/// must resume under any value.
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

/// The envelope's `log`: a file next to the checkpoint, and the prefix of
/// it the study builds on.
#[derive(Debug, Serialize, Deserialize)]
struct LogRef {
    file: String,
    prefix: LogPrefix,
}

/// Serialize `study` into a versioned envelope at `path` (atomic). Call
/// at a phase boundary, where a recording study has flushed its event
/// log, which must sit next to `path`.
///
/// Compact JSON: a paper-scale study is large, and checkpoints are read
/// by machines, not people.
pub fn save(study: &Study, path: &Path) -> Result<(), SweepError> {
    let hash = scenario_hash(&study.scenario);
    let phase = serde_json::to_string(&study.phase).expect("Phase serializes");
    let log = match study.recording() {
        Some(recorder) => {
            let file = recorder.path().file_name().unwrap_or_default().to_string_lossy();
            let log = LogRef { file: file.into_owned(), prefix: recorder.prefix() };
            format!(",\"log\":{}", serde_json::to_string(&log).expect("LogRef serializes"))
        }
        None => String::new(),
    };
    let body = serde_json::to_string(study).expect("Study serializes");
    let text = format!(
        "{{\"schema_version\":{SCHEMA_VERSION},\"scenario_hash\":{hash},\
         \"phase\":{phase}{log},\"study\":{body}}}"
    );
    write_atomic(path, text.as_bytes())
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

/// Decode one envelope field at the reader's position.
fn field<T: serde::Deserialize>(
    r: &mut serde::Reader<'_>,
    name: &str,
    path: &Path,
) -> Result<T, SweepError> {
    T::deserialize(r).map_err(|e| corrupt(path, format!("envelope field `{name}`: {}", e.0)))
}

/// Load a checkpoint and validate it against `expected`: envelope parse,
/// schema version, scenario hash and the phase cross-check all fail with
/// a typed [`SweepError`] rather than a panic or a silently wrong world.
///
/// The envelope is read as a stream and [`save`] writes `study` last, so
/// a wrong schema version or scenario hash is reported before the study
/// is decoded. A named event log is reopened at its prefix
/// ([`EventLogWriter::resume`]: later days are cut off) and its days
/// spliced in; a missing, foreign or altered log is an error naming it.
pub fn load(path: &Path, expected: &Scenario) -> Result<Study, SweepError> {
    let text = read_text(path)?;
    let bad = |e: serde::Error| corrupt(path, e.0);
    let expected_hash = scenario_hash(expected);
    let (mut version_ok, mut hash_ok, mut phase, mut log, mut study) =
        (false, false, None, None, None);

    let mut r = serde::Reader::new(&text);
    r.begin_object().map_err(bad)?;
    while let Some(key) = r.next_key().map_err(bad)? {
        match &*key {
            "schema_version" => {
                let found: u32 = field(&mut r, "schema_version", path)?;
                if found != SCHEMA_VERSION {
                    return Err(SweepError::VersionMismatch {
                        path: path.to_path_buf(),
                        found,
                        expected: SCHEMA_VERSION,
                    });
                }
                version_ok = true;
            }
            "scenario_hash" => {
                let found: u64 = field(&mut r, "scenario_hash", path)?;
                if found != expected_hash {
                    return Err(SweepError::ScenarioMismatch {
                        path: path.to_path_buf(),
                        found,
                        expected: expected_hash,
                    });
                }
                hash_ok = true;
            }
            "phase" => phase = Some(field::<Phase>(&mut r, "phase", path)?),
            "log" => log = Some(field::<LogRef>(&mut r, "log", path)?),
            "study" => study = Some(field::<Study>(&mut r, "study", path)?),
            _ => r.skip_value().map_err(bad)?,
        }
    }
    r.finish().map_err(bad)?;

    let missing = |name: &str| corrupt(path, format!("missing envelope field `{name}`"));
    if !version_ok {
        return Err(missing("schema_version"));
    }
    if !hash_ok {
        return Err(missing("scenario_hash"));
    }
    let phase = phase.ok_or_else(|| missing("phase"))?;
    let mut study = study.ok_or_else(|| missing("study"))?;
    if study.phase != phase {
        return Err(corrupt(
            path,
            format!("envelope says {phase:?} but the study is at {:?}", study.phase),
        ));
    }
    if scenario_hash(&study.scenario) != expected_hash {
        return Err(corrupt(path, "embedded scenario disagrees with the envelope hash"));
    }
    match log {
        Some(log) => {
            if Path::new(&log.file).file_name() != Some(log.file.as_ref()) {
                return Err(corrupt(path, format!("event log `{}` is not a file name", log.file)));
            }
            let log_path = path.with_file_name(&log.file);
            let (days, writer) = EventLogWriter::resume(&log_path, log.prefix)
                .map_err(|e| log_error(&log_path, e))?;
            study.resume_recording(days, writer).map_err(|detail| corrupt(&log_path, detail))?;
        }
        None if study.platform.log.recorded().0 > 0 => {
            return Err(corrupt(path, "the study leaves out days, but no event log holds them"));
        }
        None => {}
    }
    Ok(study)
}

/// Canonical checkpoint filename for one job at one phase boundary.
pub fn file_name(variant: &str, seed: u64, phase: Phase) -> String {
    let tag = match phase {
        Phase::Setup => "setup",
        Phase::Characterized => "characterized",
        Phase::NarrowDone => "narrow-done",
        Phase::BroadDone => "broad-done",
        Phase::Finished => "finished",
    };
    format!("ckpt_{variant}_s{seed}_{tag}.json")
}

/// Canonical checkpoint path under a sweep directory.
pub fn path_for(dir: &Path, variant: &str, seed: u64, phase: Phase) -> PathBuf {
    dir.join(file_name(variant, seed, phase))
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

    #[test]
    fn deeply_nested_study_is_corrupt() {
        let scenario = Scenario::quick(7);
        let hash = scenario_hash(&scenario);
        let deep = "[".repeat(100_000);
        let path = std::env::temp_dir()
            .join(format!("footsteps_ckpt_deep_{}.json", std::process::id()));
        let head = format!("\"schema_version\":{SCHEMA_VERSION},\"scenario_hash\":{hash}");
        for text in [
            format!("{{{head},\"phase\":\"Setup\",\"study\":{deep}}}"),
            // The same depth under a key a study does not have: the skip path.
            format!("{{{head},\"phase\":\"Setup\",\"study\":{{\"extra\":{deep}}}}}"),
        ] {
            fs::write(&path, text).unwrap();
            match load(&path, &scenario) {
                Err(SweepError::Corrupt { .. }) => {}
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn file_names_are_distinct_per_phase_and_job() {
        let mut names: Vec<String> = Vec::new();
        for phase in [
            Phase::Setup,
            Phase::Characterized,
            Phase::NarrowDone,
            Phase::BroadDone,
            Phase::Finished,
        ] {
            names.push(file_name("smoke", 1, phase));
            names.push(file_name("smoke", 2, phase));
        }
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
