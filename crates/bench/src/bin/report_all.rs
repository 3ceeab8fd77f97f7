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
    // Every section renders from the frozen study, in fixed order, so
    // redirecting stdout into EXPERIMENTS.md stays reproducible.
    let study = &study;
    let sections = [
        render::franchise_note(),
        render::table01(),
        render::table02(Some(study)),
        render::table03(),
        render::table04(),
        render::table05(study),
        render::detection_quality(study),
        render::table06(study),
        render::table07(study),
        render::table08(study),
        render::table09(study),
        render::table10(study),
        render::table11(study),
        render::figure02(study),
        render::figures0304(study),
        render::figure05(study),
        render::figure06(study),
        render::figure07(study),
        render::section51(study),
        render::epilogue(study),
        render::detection_latency(study),
    ];
    for section in sections {
        println!("{section}");
    }
    println!("{}", render::obs(study));
    // Wall-clock spans are non-deterministic — keep them off stdout so
    // redirecting this binary into EXPERIMENTS.md stays reproducible.
    eprint!("{}", render::obs_timings(study));
    eprint!("{}", render::obs_flame(study, 15));
}
