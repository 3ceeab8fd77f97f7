//! Run one full study and print every table and figure — the generator
//! behind EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p footsteps-bench --bin report_all
//! FOOTSTEPS_SMOKE=1 cargo run -p footsteps-bench --bin report_all   # quick
//! ```
use footsteps_bench::render;
use footsteps_core::Phase;

fn main() {
    let mut study = footsteps_bench::study_to_with_stream(Phase::Finished);
    // Honour FOOTSTEPS_TRACE_OUT here too (study_to drives phases
    // directly, bypassing run_to_completion's export).
    match study.platform.obs.export_trace() {
        Ok(Some(path)) => eprintln!("chrome trace written to {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("chrome trace export failed: {e}"),
    }
    println!(
        "footsteps reproduction report — seed {}, scale 1/{:.0}, population {}\n",
        study.scenario.seed,
        1.0 / study.scenario.scale,
        study.scenario.population_size
    );
    // Each section renders from the frozen study independently, so the
    // rendering fans out over `FOOTSTEPS_THREADS` threads and prints the
    // joined sections in fixed order — stdout is byte-identical for any
    // thread count, keeping EXPERIMENTS.md redirects reproducible.
    let study = &study;
    let indices: Vec<usize> = (0..21).collect();
    let sections = footsteps_aas::plan_parallel(
        &indices,
        study.platform.config.worker_threads,
        |&i| match i {
            0 => render::franchise_note(),
            1 => render::table01(),
            2 => render::table02(Some(study)),
            3 => render::table03(),
            4 => render::table04(),
            5 => render::table05(study),
            6 => render::detection_quality(study),
            7 => render::table06(study),
            8 => render::table07(study),
            9 => render::table08(study),
            10 => render::table09(study),
            11 => render::table10(study),
            12 => render::table11(study),
            13 => render::figure02(study),
            14 => render::figures0304(study),
            15 => render::figure05(study),
            16 => render::figure06(study),
            17 => render::figure07(study),
            18 => render::section51(study),
            19 => render::epilogue(study),
            20 => render::detection_latency(study),
            _ => unreachable!("section index out of range"),
        },
    );
    for section in sections {
        println!("{section}");
    }
    println!("{}", render::obs(study));
    // Wall-clock spans are non-deterministic — keep them off stdout so
    // redirecting this binary into EXPERIMENTS.md stays reproducible.
    eprint!("{}", render::obs_timings(study));
    eprint!("{}", render::obs_flame(study, 15));
}
