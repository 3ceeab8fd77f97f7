//! `sweep` — the multi-seed replication CLI.
//!
//! ```text
//! sweep run    --dir DIR --seeds N [--base-seed S] [--scenario quick|smoke|paper|scaled] [--workers W]
//! sweep resume --dir DIR [--workers W]
//! sweep report --dir DIR
//! ```
//!
//! `run` starts (or continues) a sweep of N seeds of one scenario;
//! `resume` continues from the manifest alone, skipping completed seeds
//! and resuming partial ones from their latest checkpoint; `report`
//! aggregates every completed seed into mean ± std paper tables.

use std::path::PathBuf;
use std::process::ExitCode;

use footsteps_core::Scenario;
use footsteps_sweep::manifest::JobStatus;
use footsteps_sweep::scheduler::{
    latency_path, metrics_path, read_latency, read_metrics, read_results, results_path,
    resume_sweep, run_sweep, SweepConfig, SweepOutcome,
};
use footsteps_sweep::{aggregate, SweepError};

const USAGE: &str = "usage:
  sweep run    --dir DIR --seeds N [--base-seed S] [--scenario quick|smoke|paper|scaled] [--workers W]
  sweep resume --dir DIR [--workers W]
  sweep report --dir DIR";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("sweep: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Pull the value following a `--flag`, if present.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v.clone())),
            None => Err(format!("{flag} needs a value\n{USAGE}")),
        },
    }
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match flag_value(args, flag)? {
        None => Ok(None),
        Some(v) => v
            .parse::<T>()
            .map(Some)
            .map_err(|_| format!("{flag}: cannot parse `{v}`")),
    }
}

fn dir_arg(args: &[String]) -> Result<PathBuf, String> {
    flag_value(args, "--dir")?
        .map(PathBuf::from)
        .ok_or_else(|| format!("--dir is required\n{USAGE}"))
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err(USAGE.to_string());
    };
    let rest = &args[1..];
    match command.as_str() {
        "run" => cmd_run(rest),
        "resume" => cmd_resume(rest),
        "report" => cmd_report(rest),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn describe(outcome: &SweepOutcome) {
    let done = outcome
        .manifest
        .jobs
        .iter()
        .filter(|j| j.status == JobStatus::Done)
        .count();
    println!(
        "sweep: ran {} job(s), skipped {} already-done, {done}/{} done",
        outcome.ran,
        outcome.skipped,
        outcome.manifest.jobs.len()
    );
    for job in &outcome.manifest.jobs {
        let digest = job
            .digest
            .map(|d| format!("{d:#018x}"))
            .unwrap_or_else(|| "-".into());
        println!(
            "  {} s{}: {:?} at {:?}, digest {digest}",
            job.variant, job.seed, job.status, job.phase
        );
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let dir = dir_arg(args)?;
    let n: u64 = parsed(args, "--seeds")?.ok_or_else(|| format!("--seeds is required\n{USAGE}"))?;
    if n == 0 {
        return Err("--seeds must be at least 1".into());
    }
    let base: u64 = parsed(args, "--base-seed")?.unwrap_or(1);
    let last = base.checked_add(n - 1).ok_or_else(|| {
        format!(
            "--base-seed {base} with --seeds {n} runs past the largest seed {}",
            u64::MAX
        )
    })?;
    let workers: usize = parsed(args, "--workers")?.unwrap_or(2);
    let name = flag_value(args, "--scenario")?.unwrap_or_else(|| "smoke".into());
    // The seed in the variant's scenario is a placeholder; the scheduler
    // substitutes each job's seed.
    let scenario = match name.as_str() {
        "quick" => Scenario::quick(base),
        "smoke" => Scenario::smoke(base),
        "paper" => Scenario::paper(base),
        "scaled" => Scenario::default_scaled(base),
        other => return Err(format!("unknown scenario `{other}` (quick|smoke|paper|scaled)")),
    };
    let cfg = SweepConfig {
        dir,
        variants: vec![(name, scenario)],
        seeds: (base..=last).collect(),
        workers,
    };
    let outcome = run_sweep(&cfg).map_err(|e| e.to_string())?;
    describe(&outcome);
    Ok(())
}

fn cmd_resume(args: &[String]) -> Result<(), String> {
    let dir = dir_arg(args)?;
    let workers: usize = parsed(args, "--workers")?.unwrap_or(2);
    let outcome = resume_sweep(&dir, workers).map_err(|e| e.to_string())?;
    describe(&outcome);
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let dir = dir_arg(args)?;
    let manifest = footsteps_sweep::manifest::Manifest::load(
        &footsteps_sweep::scheduler::manifest_path(&dir),
    )
    .map_err(|e| e.to_string())?;

    let mut per_seed = Vec::new();
    let mut metrics = Vec::new();
    let mut latency = Vec::new();
    for job in manifest.jobs.iter().filter(|j| j.status == JobStatus::Done) {
        let results = read_results(&results_path(&dir, &job.variant, job.seed))
            .map_err(|e| e.to_string())?;
        check_digest(&results, job).map_err(|e| e.to_string())?;
        per_seed.push(results);
        let mpath = metrics_path(&dir, &job.variant, job.seed);
        if mpath.exists() {
            metrics.push(read_metrics(&mpath).map_err(|e| e.to_string())?);
        }
        // Latency reports only exist for jobs characterized with the
        // stream attached — directories from older sweeps simply lack
        // them, so a missing file is not an error.
        let lpath = latency_path(&dir, &job.variant, job.seed);
        if lpath.exists() {
            latency.push(read_latency(&lpath).map_err(|e| e.to_string())?);
        }
    }
    if per_seed.is_empty() {
        return Err("no completed seeds to report on (run or resume the sweep first)".into());
    }
    print!("{}", aggregate::aggregate(&per_seed, &metrics, &latency).render());
    Ok(())
}

/// A results file that no longer matches its manifest digest means the
/// sweep directory was tampered with or rotted — refuse to aggregate it.
fn check_digest(
    results: &footsteps_core::results::StudyResults,
    job: &footsteps_sweep::manifest::JobEntry,
) -> Result<(), SweepError> {
    match job.digest {
        Some(expected) if results.digest() != expected => Err(SweepError::Corrupt {
            path: format!("results for {} s{}", job.variant, job.seed).into(),
            detail: format!(
                "digest {:#018x} != manifest {expected:#018x}",
                results.digest()
            ),
        }),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_refuses_a_seed_range_past_u64_max_before_creating_the_dir() {
        let dir =
            std::env::temp_dir().join(format!("footsteps-sweep-overflow-{}", std::process::id()));
        let args: Vec<String> = [
            "run",
            "--dir",
            dir.to_str().expect("utf-8 temp dir"),
            "--seeds",
            "2",
            "--base-seed",
            "18446744073709551615",
        ]
        .map(String::from)
        .to_vec();
        let err = run(&args).expect_err("the seed range overflows u64");
        assert!(
            err.contains("--base-seed") && err.contains("--seeds"),
            "{err}"
        );
        assert!(!dir.exists(), "{} was created", dir.display());
    }
}
