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
//! and running every other one again from the start; `report` aggregates
//! every completed seed into mean ± std paper tables. A flag the command
//! does not take, or a stray argument, is refused before anything runs.

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

/// A command's `--flag value` pairs.
struct Flags<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Flags<'a> {
    /// Pair each flag in `known` with the value after it. Any other
    /// argument is an unknown flag (if it starts with `-`) or a stray one.
    fn parse(args: &'a [String], known: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let arg = arg.as_str();
            if known.contains(&arg) {
                let value = rest.next().ok_or_else(|| format!("{arg} needs a value\n{USAGE}"))?;
                pairs.push((arg, value.as_str()));
            } else if arg.starts_with('-') {
                return Err(format!("unknown flag: {arg}\n{USAGE}"));
            } else {
                return Err(format!("unexpected argument: {arg}\n{USAGE}"));
            }
        }
        Ok(Self(pairs))
    }

    /// The value given for `flag`, if any.
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.0.iter().find(|(f, _)| *f == flag).map(|&(_, v)| v)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag) {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot parse `{v}`")),
        }
    }

    fn dir(&self) -> Result<PathBuf, String> {
        self.value("--dir")
            .map(PathBuf::from)
            .ok_or_else(|| format!("--dir is required\n{USAGE}"))
    }
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
    let flags =
        Flags::parse(args, &["--dir", "--seeds", "--base-seed", "--scenario", "--workers"])?;
    let dir = flags.dir()?;
    let n: u64 =
        flags.parsed("--seeds")?.ok_or_else(|| format!("--seeds is required\n{USAGE}"))?;
    if n == 0 {
        return Err("--seeds must be at least 1".into());
    }
    let base: u64 = flags.parsed("--base-seed")?.unwrap_or(1);
    let last = base.checked_add(n - 1).ok_or_else(|| {
        format!(
            "--base-seed {base} with --seeds {n} runs past the largest seed {}",
            u64::MAX
        )
    })?;
    let workers: usize = flags.parsed("--workers")?.unwrap_or(2);
    let name = flags.value("--scenario").unwrap_or("smoke");
    // The seed in the variant's scenario is a placeholder; the scheduler
    // substitutes each job's seed.
    let scenario = match name {
        "quick" => Scenario::quick(base),
        "smoke" => Scenario::smoke(base),
        "paper" => Scenario::paper(base),
        "scaled" => Scenario::default_scaled(base),
        other => return Err(format!("unknown scenario `{other}` (quick|smoke|paper|scaled)")),
    };
    let cfg = SweepConfig {
        dir,
        variants: vec![(name.to_owned(), scenario)],
        seeds: (base..=last).collect(),
        workers,
    };
    let outcome = run_sweep(&cfg).map_err(|e| e.to_string())?;
    describe(&outcome);
    Ok(())
}

fn cmd_resume(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["--dir", "--workers"])?;
    let dir = flags.dir()?;
    let workers: usize = flags.parsed("--workers")?.unwrap_or(2);
    let outcome = resume_sweep(&dir, workers).map_err(|e| e.to_string())?;
    describe(&outcome);
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let dir = Flags::parse(args, &["--dir"])?.dir()?;
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
        metrics.push(read_metrics(&mpath).map_err(|e| e.to_string())?);
        let lpath = latency_path(&dir, &job.variant, job.seed);
        latency.push(read_latency(&lpath).map_err(|e| e.to_string())?);
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
