//! # footsteps-bench
//!
//! The report harness: shared plumbing for the per-table/per-figure
//! experiment binaries (`src/bin/table01.rs` … `src/bin/figure07.rs`,
//! `report_all.rs`) and the `perf_baseline` and `obs-report` binaries.
//!
//! Every binary renders *the paper's published values next to the simulated
//! ones* through the same formatting helpers, so `report_all` regenerates
//! EXPERIMENTS.md deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod render;

use footsteps_core::{Phase, Scenario, Study};
use footsteps_obs::progress;

/// Environment knobs for the experiment binaries:
///
/// * `FOOTSTEPS_SEED` — scenario seed (default 7);
/// * `FOOTSTEPS_SMOKE=1` — use the compressed smoke scenario instead of the
///   default 1/50-scale reproduction run (for quick iteration);
/// * `FOOTSTEPS_QUIET=1` — suppress `[footsteps]` progress lines.
pub fn scenario_from_env() -> Scenario {
    let seed = std::env::var("FOOTSTEPS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    if std::env::var("FOOTSTEPS_SMOKE").is_ok_and(|v| v == "1") {
        Scenario::smoke(seed)
    } else {
        Scenario::default_scaled(seed)
    }
}

/// Run a study up to (and including) the given phase.
pub fn study_to(phase: Phase) -> Study {
    study_to_inner(phase, false)
}

/// Like [`study_to`], but attaches the streaming detector (no recorder)
/// before the characterization phase, so the returned study carries a
/// frozen stream outcome and can render the detection-latency section.
pub fn study_to_with_stream(phase: Phase) -> Study {
    study_to_inner(phase, true)
}

fn study_to_inner(phase: Phase, stream: bool) -> Study {
    let mut study = Study::new(scenario_from_env());
    if stream {
        study.attach_stream(None).expect("stream attaches without a recorder");
    }
    if phase >= Phase::Characterized {
        progress!(
            "characterization: {} days …",
            study.scenario.characterization_days
        );
        study.run_characterization();
    }
    if phase >= Phase::NarrowDone {
        progress!("narrow intervention: {} days …", study.scenario.narrow_days);
        study.run_narrow();
    }
    if phase >= Phase::BroadDone {
        progress!("broad intervention: {} days …", study.scenario.broad_days);
        study.run_broad();
    }
    if phase >= Phase::Finished {
        progress!("epilogue: {} days …", study.scenario.epilogue_days);
        study.run_epilogue();
    }
    study
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults_are_sane() {
        // Default seed when the variable is unset.
        std::env::remove_var("FOOTSTEPS_SEED");
        std::env::remove_var("FOOTSTEPS_SMOKE");
        let s = scenario_from_env();
        assert_eq!(s.seed, 7);
        assert!(s.is_valid());
    }
}
