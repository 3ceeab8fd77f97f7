//! End-to-end sweep behaviour: completed seeds are skipped on relaunch,
//! partial seeds run again, a killed `sweep` process is recoverable with
//! `sweep resume`, and the aggregate report shows real cross-seed
//! variance.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

use footsteps_core::{Phase, Scenario};
use footsteps_sweep::aggregate::aggregate;
use footsteps_sweep::manifest::{JobStatus, Manifest};
use footsteps_sweep::scheduler::{
    latency_path, manifest_path, metrics_path, read_latency, read_results, results_path,
    resume_sweep, run_sweep, trace_path, SweepConfig,
};

fn quick(seed: u64) -> Scenario {
    let mut s = Scenario::quick(seed);
    s.worker_threads = 1;
    s
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("footsteps-sweep-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn sweep_completes_skips_done_seeds_and_resumes_partial_ones() {
    let dir = tmp_dir("e2e");
    let cfg = SweepConfig {
        dir: dir.clone(),
        variants: vec![("quick".into(), quick(1))],
        seeds: vec![1, 2],
        workers: 2,
    };

    let out = run_sweep(&cfg).expect("initial sweep");
    assert_eq!((out.ran, out.skipped), (2, 0));
    assert!(out.manifest.all_done());
    let d1 = out.manifest.job("quick", 1).unwrap().digest.expect("seed 1 digest");
    let d2 = out.manifest.job("quick", 2).unwrap().digest.expect("seed 2 digest");
    assert_ne!(d1, d2, "different seeds must produce different results");

    // The per-seed results file round-trips to the digest the manifest
    // recorded (float formatting is parse-stable).
    let r1 = read_results(&results_path(&dir, "quick", 1)).expect("read seed 1 results");
    assert_eq!(r1.digest(), d1);

    // Every executed job left a Chrome trace, and the trace passes the
    // exporter's schema check.
    for seed in [1, 2] {
        let tpath = trace_path(&dir, "quick", seed);
        let body = std::fs::read_to_string(&tpath)
            .unwrap_or_else(|e| panic!("per-job trace {tpath:?}: {e}"));
        footsteps_obs::export::validate_chrome_trace(&body)
            .unwrap_or_else(|e| panic!("per-job trace {tpath:?} invalid: {e}"));
    }

    // Relaunching the identical sweep is a no-op.
    let again = run_sweep(&cfg).expect("relaunch");
    assert_eq!((again.ran, again.skipped), (0, 2));

    // Fabricate the state a kill after seed 2's narrow phase would leave:
    // status Running at that phase.
    let mpath = manifest_path(&dir);
    let mut m = Manifest::load(&mpath).expect("load manifest");
    {
        let job = m.job_mut("quick", 2);
        job.status = JobStatus::Running;
        job.phase = Phase::NarrowDone;
    }
    m.save(&mpath).expect("save manifest");

    let before = std::fs::read(results_path(&dir, "quick", 1)).expect("seed 1 bytes");
    let resumed = resume_sweep(&dir, 2).expect("resume");
    assert_eq!((resumed.ran, resumed.skipped), (1, 1));
    assert!(resumed.manifest.all_done());
    // The job ran again and recorded the original run's digest.
    assert_eq!(resumed.manifest.job("quick", 2).unwrap().digest, Some(d2));
    // The completed seed was not touched.
    assert_eq!(std::fs::read(results_path(&dir, "quick", 1)).unwrap(), before);

    // Aggregate across both seeds: nonzero cross-seed variance in the
    // Table 5 counts, error bars in the render.
    let r2 = read_results(&results_path(&dir, "quick", 2)).expect("read seed 2 results");
    // Every characterized job also wrote its detection-latency report
    // (the scheduler attaches the streaming detector to fresh jobs).
    let lat1 = read_latency(&latency_path(&dir, "quick", 1)).expect("seed 1 latency report");
    let lat2 = read_latency(&latency_path(&dir, "quick", 2)).expect("seed 2 latency report");
    let report = aggregate(&[r1, r2], &[], &[lat1, lat2]);
    let (nonzero, total) = report.nonzero_variance_cells();
    assert!(nonzero > 0, "expected cross-seed variance, got 0 of {total} cells");
    let text = report.render();
    assert!(text.contains("±"));
    assert!(text.contains(&format!("{d1:#018x}")));
    if !report.latency.is_empty() {
        assert!(text.contains("Detection latency"), "latency table renders when rows exist");
    }

    // A conflicting configuration in the same directory is refused.
    let mut conflicting = cfg.clone();
    conflicting.seeds = vec![1, 2, 3];
    assert!(matches!(
        run_sweep(&conflicting),
        Err(footsteps_sweep::SweepError::Config(_))
    ));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_sweep_process_resumes_to_completion() {
    let dir = tmp_dir("kill");
    let exe = env!("CARGO_BIN_EXE_sweep");
    let dir_arg = dir.to_str().expect("utf-8 temp path");

    // Start a 2-seed sweep and kill it mid-flight (single worker so the
    // kill reliably lands inside a running job).
    let mut child = Command::new(exe)
        .args(["run", "--dir", dir_arg, "--seeds", "2", "--workers", "1", "--scenario", "quick"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sweep run");
    std::thread::sleep(Duration::from_millis(2500));
    child.kill().ok();
    child.wait().expect("reap child");

    // The manifest survived the kill and `sweep resume` finishes the job.
    let status = Command::new(exe)
        .args(["resume", "--dir", dir_arg, "--workers", "1"])
        .stdout(Stdio::null())
        .status()
        .expect("run sweep resume");
    assert!(status.success(), "sweep resume failed after kill");

    let manifest = Manifest::load(&manifest_path(&dir)).expect("manifest after resume");
    assert!(manifest.all_done());
    let digests: Vec<u64> = manifest.jobs.iter().map(|j| j.digest.expect("digest")).collect();
    assert_eq!(digests.len(), 2);
    assert_ne!(digests[0], digests[1]);

    // Finished jobs carry valid per-job trace files even across the kill:
    // a job that runs again rewrites its trace at each phase boundary.
    for job in &manifest.jobs {
        let tpath = trace_path(&dir, &job.variant, job.seed);
        let body = std::fs::read_to_string(&tpath)
            .unwrap_or_else(|e| panic!("per-job trace {tpath:?}: {e}"));
        footsteps_obs::export::validate_chrome_trace(&body)
            .unwrap_or_else(|e| panic!("per-job trace {tpath:?} invalid: {e}"));
    }

    // Resuming a finished sweep is a no-op, and the report renders.
    let out = Command::new(exe)
        .args(["resume", "--dir", dir_arg])
        .output()
        .expect("no-op resume");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ran 0 job(s)"), "stdout: {stdout}");

    let out = Command::new(exe)
        .args(["report", "--dir", dir_arg])
        .output()
        .expect("sweep report");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("aggregate report"), "stdout: {stdout}");
    assert!(stdout.contains("cross-seed variance"), "stdout: {stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_done_job_missing_a_per_seed_file_is_reported_and_run_again() {
    let dir = tmp_dir("missing");
    let exe = env!("CARGO_BIN_EXE_sweep");
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    let sweep = |args: &[&str]| Command::new(exe).args(args).output().expect("sweep runs");
    let out = sweep(&["run", "--dir", dir_arg, "--seeds", "2", "--workers", "1", "--scenario", "quick"]);
    assert!(out.status.success());

    for path in [metrics_path(&dir, "quick", 2), latency_path(&dir, "quick", 2)] {
        let bytes = std::fs::read(&path).expect("the done job wrote the file");
        std::fs::remove_file(&path).unwrap();

        // `report` refuses to aggregate without it and names the file.
        let out = sweep(&["report", "--dir", dir_arg]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(out.stdout.is_empty(), "report printed tables without {}", path.display());
        assert!(stderr.starts_with(&format!("sweep: {}: ", path.display())), "{stderr}");

        // `resume` runs the job again, which writes the same bytes.
        let out = sweep(&["resume", "--dir", dir_arg, "--workers", "1"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success());
        assert!(stdout.contains("ran 1 job(s), skipped 1 already-done"), "stdout: {stdout}");
        assert!(std::fs::read(&path).unwrap() == bytes, "{} differs", path.display());
    }
    assert!(sweep(&["report", "--dir", dir_arg]).status.success());

    std::fs::remove_dir_all(&dir).ok();
}
