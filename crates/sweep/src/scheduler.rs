//! The sweep scheduler: a bounded `std::thread::scope` worker pool that
//! drives every (variant, seed) job through the full study pipeline and
//! records its progress in the [`Manifest`].
//!
//! Restart semantics (the whole point):
//!
//! * a job marked `Done` whose results, metrics and latency files all
//!   exist is **skipped** — relaunching a finished sweep is a no-op;
//! * every other job runs from `Study::new`, exactly as a fresh job does.
//!   A job is deterministic in its scenario, so a job that a kill
//!   interrupted writes the same files again; a resume reads nothing
//!   but the manifest.
//!
//! Every job records its whole run to one event log,
//! `log_<variant>_s<seed>.jsonl`, which each run of the job creates anew.
//!
//! Per-seed `StudyResults` are collected the moment characterization
//! completes — the same point the determinism suite's golden digest is
//! defined at — and written with the job's metrics snapshot and
//! detection-latency report.
//!
//! Scheduling order never affects results: jobs are independent and each
//! digest depends only on its scenario, so any interleaving of the pool
//! produces the same manifest digests.

use std::fs;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use footsteps_analysis::stats::Welford;
use footsteps_core::results::StudyResults;
use footsteps_core::{Phase, Scenario, Study};
use footsteps_obs::{progress, MetricsSnapshot, Stopwatch};
use footsteps_stream::LatencyReport;

use crate::manifest::{now_unix, JobEntry, JobStatus, Manifest};
use crate::{log_error, read_json, scenario_hash, write_atomic, SweepError};

/// What to run: N seeds × M scenario variants on a bounded pool.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Directory for the manifest and the per-seed files.
    pub dir: PathBuf,
    /// Named scenario variants (the seed field is overridden per job).
    pub variants: Vec<(String, Scenario)>,
    /// Seeds to run every variant with.
    pub seeds: Vec<u64>,
    /// Worker threads; each worker runs whole jobs, one at a time.
    pub workers: usize,
}

/// What a sweep invocation did.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Final manifest state (also on disk).
    pub manifest: Manifest,
    /// Jobs that ran.
    pub ran: usize,
    /// Jobs skipped because they were already done.
    pub skipped: usize,
}

/// The manifest's location under a sweep directory.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.json")
}

/// Per-job `StudyResults` JSON location.
pub fn results_path(dir: &Path, variant: &str, seed: u64) -> PathBuf {
    dir.join(format!("results_{variant}_s{seed}.json"))
}

/// Per-job metrics snapshot location (results JSON deliberately excludes
/// metrics, so they travel in a sibling file).
pub fn metrics_path(dir: &Path, variant: &str, seed: u64) -> PathBuf {
    dir.join(format!("metrics_{variant}_s{seed}.json"))
}

/// Per-job event-log location: the job's whole run.
pub fn log_path(dir: &Path, variant: &str, seed: u64) -> PathBuf {
    dir.join(format!("log_{variant}_s{seed}.jsonl"))
}

/// Per-job Chrome-trace location (rewritten at every phase boundary;
/// observability only, never digested).
pub fn trace_path(dir: &Path, variant: &str, seed: u64) -> PathBuf {
    dir.join(format!("trace_{variant}_s{seed}.json"))
}

/// Per-job detection-latency report location (online vs batch detector,
/// DESIGN.md §8; written at the `Characterized` boundary alongside the
/// results).
pub fn latency_path(dir: &Path, variant: &str, seed: u64) -> PathBuf {
    dir.join(format!("latency_{variant}_s{seed}.json"))
}

/// Read back a per-job results file.
pub fn read_results(path: &Path) -> Result<StudyResults, SweepError> {
    read_json(path)
}

/// Read back a per-job metrics snapshot.
pub fn read_metrics(path: &Path) -> Result<MetricsSnapshot, SweepError> {
    read_json(path)
}

/// Read back a per-job detection-latency report.
pub fn read_latency(path: &Path) -> Result<LatencyReport, SweepError> {
    read_json(path)
}

/// Start (or continue) a sweep. If the directory already holds a
/// manifest, the requested configuration must match it — same variants
/// (by name and scenario hash) and same seed set — and completed jobs
/// are skipped; otherwise a fresh manifest is created.
pub fn run_sweep(cfg: &SweepConfig) -> Result<SweepOutcome, SweepError> {
    if cfg.variants.is_empty() || cfg.seeds.is_empty() {
        return Err(SweepError::Config("need at least one variant and one seed".into()));
    }
    let mut names: Vec<&str> = cfg.variants.iter().map(|(n, _)| n.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    if names.len() != cfg.variants.len() {
        return Err(SweepError::Config("variant names must be unique".into()));
    }
    let mut seeds = cfg.seeds.clone();
    seeds.sort_unstable();
    seeds.dedup();
    if seeds.len() != cfg.seeds.len() {
        return Err(SweepError::Config("seeds must be unique".into()));
    }

    fs::create_dir_all(&cfg.dir)
        .map_err(|source| SweepError::Io { path: cfg.dir.clone(), source })?;
    let mpath = manifest_path(&cfg.dir);
    let manifest = if mpath.exists() {
        let existing = Manifest::load(&mpath)?;
        check_compatible(&existing, cfg)?;
        existing
    } else {
        let fresh = Manifest::new(cfg.variants.clone(), cfg.seeds.clone());
        fresh.save(&mpath)?;
        fresh
    };
    schedule(&cfg.dir, manifest, cfg.workers)
}

/// Continue a sweep from its manifest alone (configuration comes from
/// the file, not the command line).
pub fn resume_sweep(dir: &Path, workers: usize) -> Result<SweepOutcome, SweepError> {
    let manifest = Manifest::load(&manifest_path(dir))?;
    schedule(dir, manifest, workers)
}

fn check_compatible(existing: &Manifest, cfg: &SweepConfig) -> Result<(), SweepError> {
    let same_variants = existing.variants.len() == cfg.variants.len()
        && existing.variants.iter().zip(&cfg.variants).all(|((en, es), (cn, cs))| {
            en == cn && scenario_hash(es) == scenario_hash(cs)
        });
    if !same_variants {
        return Err(SweepError::Config(
            "directory already holds a sweep with different scenario variants; \
             pick a fresh directory or delete the old one"
                .into(),
        ));
    }
    if existing.seeds != cfg.seeds {
        return Err(SweepError::Config(
            "directory already holds a sweep with a different seed set; \
             pick a fresh directory or delete the old one"
                .into(),
        ));
    }
    Ok(())
}

/// Shared sweep progress: completed-job counts plus a Welford accumulator
/// over completed job durations, which prices the wall-clock ETA lines.
/// Counts are deterministic; durations (and thus the ETA) are wall-clock
/// and never leave the `progress!` stream.
struct SweepProgress {
    total: usize,
    done: usize,
    skipped: usize,
    durations: Welford,
}

impl SweepProgress {
    /// One `progress!` line after a job finishes: counts, the finished
    /// job's own duration, the running mean, and the ETA for what's left.
    fn report(&self, variant: &str, seed: u64, secs: f64) {
        let remaining = self.total.saturating_sub(self.done + self.skipped);
        let eta = self.durations.mean() * remaining as f64;
        progress!(
            "sweep {done}/{total} done ({skipped} skipped) | {variant} s{seed} {secs:.1}s | \
             mean {mean:.1}s | eta {eta:.0}s",
            done = self.done,
            total = self.total,
            skipped = self.skipped,
            mean = self.durations.mean(),
        );
    }
}

/// Render the manifest's job table deterministically: one row per job in
/// manifest order, with status, latest phase boundary, and digest. Pure
/// function of the manifest — no wall-clock, byte-identical for any
/// worker count or scheduling interleaving.
pub fn progress_table(m: &Manifest) -> String {
    let name_w = m.jobs.iter().map(|j| j.variant.len()).max().unwrap_or(7).max(7);
    let mut out = String::new();
    let _ = writeln!(out, "{:<name_w$}  {:>6}  {:<8}  {:<13}  digest", "variant", "seed", "status", "phase");
    for j in &m.jobs {
        let status = match j.status {
            JobStatus::Pending => "pending",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
        };
        let digest = match j.digest {
            Some(d) => format!("0x{d:016x}"),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>6}  {:<8}  {:<13}  {}",
            j.variant,
            j.seed,
            status,
            format!("{:?}", j.phase),
            digest
        );
    }
    out
}

fn schedule(dir: &Path, manifest: Manifest, workers: usize) -> Result<SweepOutcome, SweepError> {
    let workers = workers.max(1);
    let jobs: Vec<(String, u64)> =
        manifest.jobs.iter().map(|j| (j.variant.clone(), j.seed)).collect();
    let mpath = manifest_path(dir);
    let progress = Mutex::new(SweepProgress {
        total: jobs.len(),
        done: 0,
        skipped: 0,
        durations: Welford::new(),
    });
    let shared = Mutex::new(manifest);
    let next = AtomicUsize::new(0);
    let ran = AtomicUsize::new(0);
    let skipped = AtomicUsize::new(0);
    let errors: Mutex<Vec<SweepError>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..workers.min(jobs.len()) {
            scope.spawn(|| loop {
                if !errors.lock().expect("errors lock").is_empty() {
                    break;
                }
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some((variant, seed)) = jobs.get(i) else { break };
                let watch = Stopwatch::start();
                match run_job(dir, &mpath, &shared, variant, *seed) {
                    Ok(true) => {
                        ran.fetch_add(1, Ordering::SeqCst);
                        let mut p = progress.lock().expect("progress lock");
                        p.done += 1;
                        p.durations.push(watch.elapsed_secs());
                        p.report(variant, *seed, watch.elapsed_secs());
                    }
                    Ok(false) => {
                        skipped.fetch_add(1, Ordering::SeqCst);
                        progress.lock().expect("progress lock").skipped += 1;
                    }
                    Err(e) => {
                        errors.lock().expect("errors lock").push(e);
                        break;
                    }
                }
            });
        }
    });

    let manifest = shared.into_inner().expect("manifest lock");
    for line in progress_table(&manifest).lines() {
        progress!("{line}");
    }
    if let Some(e) = errors.into_inner().expect("errors lock").into_iter().next() {
        return Err(e);
    }
    Ok(SweepOutcome {
        manifest,
        ran: ran.into_inner(),
        skipped: skipped.into_inner(),
    })
}

/// Record a manifest transition: mutate the entry, stamp it, persist.
fn touch(
    shared: &Mutex<Manifest>,
    mpath: &Path,
    variant: &str,
    seed: u64,
    f: impl FnOnce(&mut JobEntry),
) -> Result<(), SweepError> {
    let mut m = shared.lock().expect("manifest lock");
    let entry = m.job_mut(variant, seed);
    f(entry);
    entry.updated_unix = now_unix();
    m.save(mpath)
}

/// Run one job from `Study::new`, or skip it if it is done. Returns
/// `true` if it ran.
fn run_job(
    dir: &Path,
    mpath: &Path,
    shared: &Mutex<Manifest>,
    variant: &str,
    seed: u64,
) -> Result<bool, SweepError> {
    let rpath = results_path(dir, variant, seed);
    let metrics = metrics_path(dir, variant, seed);
    let latency = latency_path(dir, variant, seed);
    let scenario = {
        let m = shared.lock().expect("manifest lock");
        let entry = m.job(variant, seed).expect("scheduled job is in the manifest");
        if entry.status == JobStatus::Done && [&rpath, &metrics, &latency].iter().all(|p| p.exists())
        {
            return Ok(false);
        }
        m.scenario_for(variant, seed)
            .ok_or_else(|| SweepError::Config(format!("unknown variant `{variant}`")))?
    };
    touch(shared, mpath, variant, seed, |j| {
        j.status = JobStatus::Running;
        j.phase = Phase::Setup;
        j.digest = None;
    })?;

    // Every job records its event log and runs characterization with the
    // streaming detector attached, so every seed gets a detection-latency
    // record next to its results, and a Chrome trace of the whole run,
    // regardless of `FOOTSTEPS_TRACE_OUT`.
    let mut study = Study::new(scenario);
    let lpath = log_path(dir, variant, seed);
    study.attach_stream(Some(&lpath)).map_err(|e| log_error(&lpath, e))?;
    study.platform.obs.timings.enable_events();
    let tpath = trace_path(dir, variant, seed);

    let mut digest = None;
    while study.phase < Phase::Finished {
        match study.phase {
            Phase::Setup => study.run_characterization(),
            Phase::Characterized => study.run_narrow(),
            Phase::NarrowDone => study.run_broad(),
            Phase::BroadDone => study.run_epilogue(),
            Phase::Finished => unreachable!("loop guard"),
        }
        if study.phase == Phase::Characterized {
            let results = StudyResults::collect(&study);
            write_atomic(&rpath, results.to_json().as_bytes())?;
            let snapshot = results.metrics.as_ref().expect("collect takes a metrics snapshot");
            write_atomic(&metrics, snapshot.to_json().as_bytes())?;
            digest = Some(results.digest());
            let report = study.detection_latency().expect("the stream froze at characterization");
            let mut body =
                serde_json::to_string_pretty(&report).expect("latency report serializes");
            body.push('\n');
            write_atomic(&latency, body.as_bytes())?;
        }
        study
            .platform
            .obs
            .export_trace_to(&tpath)
            .map_err(|source| SweepError::Io { path: tpath.clone(), source })?;
        let reached = study.phase;
        touch(shared, mpath, variant, seed, |j| {
            j.phase = reached;
            j.digest = digest;
        })?;
    }

    touch(shared, mpath, variant, seed, |j| j.status = JobStatus::Done)?;
    Ok(true)
}
