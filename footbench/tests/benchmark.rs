//! The benchmark checked end to end: every workload once at quick size
//! through the library entry point, untraced and traced, and
//! `BENCHMARK.json` against the code's tables.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use footsteps_benchmark::compare::{read_json, BenchFile};
use footsteps_benchmark::tables::{Layer, END_TO_END, LAYERS};
use footsteps_benchmark::{run_workload, Config, Workload, DEFAULT_SECONDS};

fn tmp_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("footbench")
        .join(name)
}

/// The layers a workload measures: the ones tagged with it.
fn layers_of(w: Workload) -> BTreeSet<&'static str> {
    LAYERS
        .iter()
        .filter(|l| l.workloads.contains(&w))
        .map(|l| l.name)
        .collect()
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    let trace_dir = tmp_path("traces");
    for trace in [false, true] {
        for w in Workload::ALL {
            let cfg = Config {
                seed: 3,
                seconds: 0.0,
                trace,
                quick: true,
                work_dir: tmp_path("work"),
                trace_dir: trace.then(|| trace_dir.clone()),
            };
            let o = run_workload(w, &cfg).expect("workload runs");
            let name = w.name();
            assert!(o.failures.is_empty(), "{name}: {:?}", o.failures);
            assert!(o.attempted > 0, "{name}: no checks ran");

            let record = o.record(trace);
            assert!(record.correct && record.failed == 0);
            let expected: Vec<(&str, &str)> = if trace {
                LAYERS.iter().map(|l: &Layer| (l.name, l.unit)).collect()
            } else {
                END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
            };
            let got: Vec<(&str, &str)> = record
                .metrics
                .iter()
                .map(|(k, v)| (k.as_str(), v.unit.as_str()))
                .collect();
            let mut expected_sorted = expected.clone();
            expected_sorted.sort_unstable();
            assert_eq!(got, expected_sorted, "{name}: metric names and units");
            for m in END_TO_END {
                let v = o.end_to_end[m.name].median;
                assert!(v > 0.0 && v.is_finite(), "{name}: {} = {v}", m.name);
            }
            // Timings are kept as measured too, one wall time per sample.
            for m in ["op_s", "setup_s"] {
                assert_eq!(o.wall[m].n, o.end_to_end[m].n, "{name}: {m} samples");
            }

            if trace {
                let measured: BTreeSet<&str> = o.layers.keys().map(String::as_str).collect();
                assert_eq!(measured, layers_of(w), "{name}: layers measured");
                assert!(
                    o.layers.values().all(|v| v.is_finite()),
                    "{name}: {:?}",
                    o.layers
                );
                // Named layers cover at least 90% of an operation.
                let share = o.layers["bench.unattributed_s"] / o.layers["bench.op_median_s"];
                assert!(
                    share < 0.1,
                    "{name}: {:.1}% of an operation unattributed",
                    100.0 * share
                );
                let path = trace_dir.join(format!("{name}.trace.json"));
                let text = std::fs::read_to_string(&path).expect("trace written");
                footsteps_obs::export::validate_chrome_trace(&text)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            } else {
                assert!(o.layers.is_empty(), "{name}: untraced run reported layers");
            }
        }
    }
    std::fs::remove_dir_all(tmp_path("")).ok();
}

#[test]
fn bench_file_matches_tables() {
    let bench: BenchFile =
        read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");

    let workloads: Vec<&str> = bench.workloads.iter().map(|w| w.name.as_str()).collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);

    let e2e: Vec<(&str, &str, &str)> = bench
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
        .collect();
    let table: Vec<(&str, &str, &str)> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, "lower"))
        .collect();
    assert_eq!(e2e, table);
    let setup_bound = bench
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s")
        .bound;
    for m in &bench.end_to_end {
        assert!(
            m.bound > 0.0 && m.bound <= 0.25,
            "{}: bound {}",
            m.name,
            m.bound
        );
        assert!(
            m.bound <= setup_bound,
            "setup_s must have the largest bound"
        );
    }

    let layers: Vec<(&str, &str, &str)> = bench
        .per_layer
        .iter()
        .map(|l| (l.name.as_str(), l.unit.as_str(), l.better.as_str()))
        .collect();
    let table: Vec<(&str, &str, &str)> = LAYERS
        .iter()
        .map(|l| {
            (
                l.name,
                l.unit,
                if l.higher_is_better {
                    "higher"
                } else {
                    "lower"
                },
            )
        })
        .collect();
    assert_eq!(layers, table);

    assert_eq!(bench.paths, ["footbench"]);
    assert_eq!(bench.run_seconds as f64, DEFAULT_SECONDS);
}
