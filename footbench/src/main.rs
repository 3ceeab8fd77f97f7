//! `footbench`: run the benchmark.
//!
//! ```text
//! footbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]
//! footbench [--seed N] [--seconds S] [--runs R] [--out FILE] [--trace-dir DIR]
//! footbench compare A.json B.json
//! ```
//!
//! With `--workload`, one workload runs in this process and the last line
//! printed is its JSON run record: every end-to-end metric, or with
//! `--trace 1` every per-layer metric. Without it, every workload runs
//! `--runs` times, each run in a child process with the `FOOTSTEPS_*`
//! environment cleared, and the set is summarized (and written with
//! `--out`); `--trace-dir` adds one traced run per workload, writing its
//! Chrome traces and `layers.json` there. `compare` sets two such files
//! side by side against the bounds in `./BENCHMARK.json`.
//!
//! Exit status: 0 when every check passed, 1 when a check failed (or
//! `compare` found a metric worse), 2 on a usage or run error.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use footsteps_benchmark::compare::{self, BenchFile, RunSet};
use footsteps_benchmark::stats::{quartiles, Summary};
use footsteps_benchmark::tables::{Layer, END_TO_END, LAYERS};
use footsteps_benchmark::{
    run_workload, BenchError, Config, Outcome, RunRecord, Workload, DEFAULT_SECONDS,
};

/// Where workloads keep their files, relative to the working directory.
const WORK_DIR: &str = "target/footbench";
/// Environment the child runs must not inherit: each would change the
/// load (thread count, event tracing, trace export).
const SCRUBBED_ENV: [&str; 3] = [
    "FOOTSTEPS_THREADS",
    "FOOTSTEPS_TRACE",
    "FOOTSTEPS_TRACE_OUT",
];

const USAGE: &str = "usage:
  footbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]
  footbench [--seed N] [--seconds S] [--runs R] [--out FILE] [--trace-dir DIR]
  footbench compare A.json B.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        run_compare(&args[1..])
    } else {
        Args::parse(&args).and_then(|a| match a.workload {
            Some(w) => run_one(w, &a),
            None => run_all(&a),
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("footbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
    runs: usize,
    out: Option<PathBuf>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, BenchError> {
        let mut a = Args {
            workload: None,
            seed: 7,
            seconds: DEFAULT_SECONDS,
            trace: false,
            trace_dir: None,
            runs: 1,
            out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| BenchError(format!("{flag} needs a value\n{USAGE}")))
            };
            let bad = |v: &str| BenchError(format!("bad value `{v}` for {flag}\n{USAGE}"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    a.workload = Some(Workload::from_name(v).ok_or_else(|| bad(v))?);
                }
                "--seed" => {
                    let v = value()?;
                    a.seed = v.parse().map_err(|_| bad(v))?;
                }
                "--seconds" => {
                    let v = value()?;
                    a.seconds = v
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s >= 0.0)
                        .ok_or_else(|| bad(v))?;
                }
                "--trace" => {
                    let v = value()?;
                    a.trace = match v.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(v)),
                    };
                }
                "--trace-dir" => a.trace_dir = Some(PathBuf::from(value()?)),
                "--runs" => {
                    let v = value()?;
                    a.runs = v
                        .parse()
                        .ok()
                        .filter(|&r: &usize| r >= 1)
                        .ok_or_else(|| bad(v))?;
                }
                "--out" => a.out = Some(PathBuf::from(value()?)),
                _ => return Err(BenchError(format!("unknown argument `{flag}`\n{USAGE}"))),
            }
        }
        Ok(a)
    }
}

/// Run one workload here and print its metrics, then its run record.
fn run_one(workload: Workload, args: &Args) -> Result<bool, BenchError> {
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: false,
        work_dir: PathBuf::from(WORK_DIR),
        trace_dir: args.trace_dir.clone(),
    };
    let outcome = run_workload(workload, &cfg)?;
    print_outcome(&outcome, args);
    let record = outcome.record(args.trace);
    println!("{}", to_json(&record));
    Ok(record.correct)
}

fn print_outcome(o: &Outcome, args: &Args) {
    let op = o.end_to_end["op_s"];
    println!(
        "footbench {} seed {} window {} s: {} operations{}",
        o.workload.name(),
        args.seed,
        args.seconds,
        op.n,
        if args.trace { " (traced)" } else { "" }
    );
    for m in END_TO_END {
        let s: Summary = o.end_to_end[m.name];
        let wall = match o.wall.get(m.name) {
            Some(w) => format!(
                " (median of {} in reference seconds; wall time median {:.4}, fastest {:.4}, slowest {:.4})",
                s.n, w.median, w.min, w.max
            ),
            None => String::new(),
        };
        println!("  {:<12} {:>12.4} {}{wall}", m.name, s.median, m.unit);
    }
    if args.trace {
        println!(
            "  {:<32} {:>14} {:<7} {:>8}  feeds",
            "layer", "value", "unit", "share"
        );
        for l in LAYERS.iter().filter(|l| o.layers.contains_key(l.name)) {
            let value = o.layers[l.name];
            println!("{}", layer_row(l, value, o.layers.get(l.share_of).copied()));
        }
    }
    println!(
        "checks: {} attempted, {} failed",
        o.attempted,
        o.failures.len()
    );
    for f in &o.failures {
        println!("  FAILED: {f}");
    }
}

/// One line of the layer table: name, value, unit, share of the wall
/// time it is part of, and the end-to-end metric it feeds.
fn layer_row(l: &Layer, value: f64, base: Option<f64>) -> String {
    let share = match base {
        Some(b) if b > 0.0 => format!("{:.1}%", 100.0 * value / b),
        _ => String::new(),
    };
    format!(
        "  {:<32} {:>14.4} {:<7} {:>8}  {}",
        l.name, value, l.unit, share, l.feeds
    )
}

/// Run one workload in a child process with a clean `FOOTSTEPS_*`
/// environment, so each workload's peak RSS is its own.
fn spawn(workload: Workload, args: &Args, trace: bool) -> Result<RunRecord, BenchError> {
    let exe =
        std::env::current_exe().map_err(|e| BenchError(format!("current executable: {e}")))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("FOOTSTEPS_QUIET", "1");
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    if let (true, Some(dir)) = (trace, &args.trace_dir) {
        cmd.arg("--trace-dir").arg(dir);
    }
    let out = cmd
        .output()
        .map_err(|e| BenchError(format!("spawning {}: {e}", workload.name())))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let record: RunRecord = lines
        .last()
        .and_then(|l| serde_json::from_str(l).ok())
        .ok_or_else(|| {
            BenchError(format!(
                "{} exited with {} and no run record:\n{}{}",
                workload.name(),
                out.status,
                stdout,
                String::from_utf8_lossy(&out.stderr)
            ))
        })?;
    for line in &lines[..lines.len() - 1] {
        if line.contains("FAILED") {
            println!("  {}: {}", workload.name(), line.trim());
        }
    }
    Ok(record)
}

/// Run every workload `--runs` times in child processes, summarize, and
/// optionally add one traced run per workload.
fn run_all(args: &Args) -> Result<bool, BenchError> {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let mut set = RunSet {
        seed: args.seed,
        seconds: args.seconds,
        host_cpus,
        workloads: BTreeMap::new(),
        traced: BTreeMap::new(),
    };
    let mut ok = true;
    for run in 1..=args.runs {
        for w in Workload::ALL {
            let record = spawn(w, args, false)?;
            let m = &record.metrics;
            println!(
                "run {run}/{}  {:<18} op_s {:.4} s  setup_s {:.4} s  peak_rss_mb {:.1}  checks {}/{}",
                args.runs,
                w.name(),
                m["op_s"].value,
                m["setup_s"].value,
                m["peak_rss_mb"].value,
                record.attempted - record.failed,
                record.attempted
            );
            ok &= record.correct;
            set.workloads
                .entry(w.name().to_string())
                .or_default()
                .push(record);
        }
    }
    println!(
        "\nhost_cpus {host_cpus}, seed {}, {} run(s) of {} s",
        args.seed, args.runs, args.seconds
    );
    println!(
        "{:<18} {:<12} {:>10} {:>10} {:>10} {:>10} {:>10}  n",
        "workload", "metric", "median", "q1", "q3", "min", "max"
    );
    for name in Workload::ALL.map(Workload::name) {
        let runs = &set.workloads[name];
        for m in END_TO_END {
            let values: Vec<f64> = runs.iter().map(|r| r.metrics[m.name].value).collect();
            let s = Summary::of(&values);
            let (q1, q3) = quartiles(&values);
            println!(
                "{name:<18} {:<12} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4}  {}",
                m.name, s.median, q1, q3, s.min, s.max, s.n
            );
        }
    }

    if let Some(dir) = &args.trace_dir {
        for w in Workload::ALL {
            let record = spawn(w, args, true)?;
            ok &= record.correct;
            set.traced.insert(w.name().to_string(), record);
        }
        let layers_path = dir.join("layers.json");
        write_file(&layers_path, &to_json_pretty(&set.traced))?;
        print_layers(&set);
        println!(
            "traces and {} written to {}",
            layers_path.display(),
            dir.display()
        );
    }
    if let Some(out) = &args.out {
        write_file(out, &to_json_pretty(&set))?;
        println!("wrote {}", out.display());
    }
    Ok(ok)
}

/// Per workload: every layer it measures with its share of the operation
/// wall time and the metric it feeds, then the tracing overhead.
fn print_layers(set: &RunSet) {
    for w in Workload::ALL {
        let name = w.name();
        let traced = &set.traced[name];
        let untraced: Vec<f64> = set.workloads[name]
            .iter()
            .map(|r| r.metrics["op_s"].value)
            .collect();
        let untraced_op = footsteps_benchmark::stats::median(&untraced);
        let traced_op = traced.metrics["bench.op_s"].value;
        let overhead = traced_op - untraced_op;
        println!(
            "\n{name}: traced op_s {traced_op:.4} s, untraced {untraced_op:.4} s, \
             tracing overhead {overhead:+.4} s ({:+.1}%)",
            100.0 * overhead / untraced_op
        );
        for l in LAYERS.iter().filter(|l| l.workloads.contains(&w)) {
            let value = |name: &str| traced.metrics.get(name).map(|v| v.value);
            if let Some(v) = value(l.name) {
                println!("{}", layer_row(l, v, value(l.share_of)));
            }
        }
    }
}

fn run_compare(args: &[String]) -> Result<bool, BenchError> {
    let [a, b] = args else {
        return Err(BenchError(format!("compare needs two run files\n{USAGE}")));
    };
    let bench: BenchFile = compare::read_json(Path::new("BENCHMARK.json"))?;
    let parent: RunSet = compare::read_json(Path::new(a))?;
    let change: RunSet = compare::read_json(Path::new(b))?;
    let (table, worse) = compare::compare(&parent, &change, &bench);
    print!("{table}");
    Ok(worse == 0)
}

fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("JSON rendering is total")
}

fn to_json_pretty<T: serde::Serialize>(value: &T) -> String {
    let mut text = serde_json::to_string_pretty(value).expect("JSON rendering is total");
    text.push('\n');
    text
}

fn write_file(path: &Path, text: &str) -> Result<(), BenchError> {
    std::fs::write(path, text).map_err(|e| BenchError(format!("{}: {e}", path.display())))
}
