//! Flamegraph-style span-tree profiler report.
//!
//! Runs one study (honouring `FOOTSTEPS_SMOKE` / `FOOTSTEPS_SEED`) and
//! prints the hierarchical span profile: the tree with inclusive/exclusive
//! wall time, the `--top-k` hottest spans by exclusive time, and the
//! self-measured obs overhead line. With `FOOTSTEPS_TRACE_OUT=<path>` set,
//! the run also exports the Chrome-trace JSON for chrome://tracing /
//! Perfetto.
//!
//! ```text
//! FOOTSTEPS_SMOKE=1 cargo run -p footsteps-bench --bin obs-report -- --top-k 10
//! cargo run -p footsteps-bench --bin obs-report -- --check-trace trace.json
//! ```
//!
//! * `--top-k N` — how many hot spans to list (default 15).
//! * `--check-trace PATH` — don't run a study; validate an exported
//!   Chrome-trace file instead (valid JSON, matched `B`/`E` pairs,
//!   monotonic per-lane timestamps) and print its shape. Exits non-zero
//!   on a malformed file — `scripts/ci.sh`'s trace smoke gate runs this.

use footsteps_bench::render;
use footsteps_core::Phase;
use footsteps_obs::export::validate_chrome_trace;

fn check_trace(path: &str) -> ! {
    let body = match std::fs::read_to_string(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("obs-report: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match validate_chrome_trace(&body) {
        Ok(check) => {
            println!(
                "{path}: valid chrome trace — {} events, {} span pairs, {} lane(s), {} counter sample(s)",
                check.events, check.pairs, check.lanes, check.counters
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("obs-report: {path} is not a valid chrome trace: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut top_k = 15usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--top-k" => {
                top_k = args
                    .next()
                    .expect("--top-k needs a number")
                    .parse()
                    .expect("--top-k must be an integer");
            }
            "--check-trace" => {
                let path = args.next().expect("--check-trace needs a path");
                check_trace(&path);
            }
            other => panic!("unknown argument '{other}' (--top-k N | --check-trace PATH)"),
        }
    }
    let mut study = footsteps_bench::study_to(Phase::Finished);
    match study.platform.obs.export_trace() {
        Ok(Some(path)) => eprintln!("chrome trace written to {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("chrome trace export failed: {e}"),
    }
    let report = render::obs_flame(&study, top_k);
    if report.is_empty() {
        println!("no spans recorded");
    } else {
        print!("{report}");
    }
}
