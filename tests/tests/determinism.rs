//! Reproducibility contract: a `(Scenario, seed)` pair determines every
//! measurement bit-for-bit, and different seeds genuinely differ.

use footsteps_core::{results, Scenario, Study};

fn fingerprint(seed: u64) -> String {
    let mut study = Study::new(Scenario::smoke(seed));
    study.run_characterization();
    let t6 = results::table6(&study);
    let t8 = results::table8(&study);
    let t9 = results::table9(&study);
    let counts: Vec<String> = t6
        .iter()
        .map(|r| format!("{}:{}:{}", r.group, r.customers, r.long_term))
        .collect();
    format!(
        "{} | rev {:?} | truth {:?} | hubla {:?}",
        counts.join(","),
        t8.rows.iter().map(|r| r.revenue_cents).collect::<Vec<_>>(),
        t8.truth_cents,
        t9.estimate.monthly_tier_accounts,
    )
}

#[test]
fn same_seed_reproduces_bit_identical_results() {
    let a = fingerprint(42);
    let b = fingerprint(42);
    assert_eq!(a, b, "same scenario+seed must reproduce identical tables");
}

#[test]
fn different_seeds_differ() {
    let a = fingerprint(1);
    let b = fingerprint(2);
    assert_ne!(a, b, "different seeds must explore different worlds");
}

/// Characterize the smoke scenario and collect the full serializable
/// results aggregate.
fn characterized_results(seed: u64) -> results::StudyResults {
    let mut study = Study::new(Scenario::smoke(seed));
    study.run_characterization();
    results::StudyResults::collect(&study)
}

#[test]
fn smoke_results_match_recorded_digest() {
    // Golden digest of the default smoke seed. A mismatch means the
    // simulation's randomness or result serialization changed — regenerate
    // deliberately (print `characterized_results(7).digest()`) and record
    // the behaviour change in CHANGES.md.
    let digest = characterized_results(7).digest();
    assert_eq!(
        digest, GOLDEN_SMOKE_DIGEST,
        "smoke results drifted from the recorded golden digest: got {digest:#x}"
    );
}

/// FNV-1a digest of `StudyResults::to_json()` for `Scenario::smoke(7)`.
const GOLDEN_SMOKE_DIGEST: u64 = 0xce8a_eb34_fb9f_e096;

/// FNV-1a digest and byte length of `MetricsSnapshot::to_json()` for
/// `Scenario::smoke(7)` with no stream attached, after characterization.
const SMOKE_METRICS_CHARACTERIZED: (u64, usize) = (0xfc71_db8d_6f5e_8e91, 5_372);
/// The same after all four phases.
const SMOKE_METRICS_COMPLETE: (u64, usize) = (0x019c_0da3_9fa1_c004, 16_198);

/// `Timings::structure_digest()` (span names, nesting, lane kinds and
/// region counts) after all four phases of `Scenario::smoke(7)`, untraced.
/// Regenerate only for a deliberate change to the span tree, and record
/// the move in CHANGES.md.
const SMOKE_STRUCTURE_DIGEST: &str = "0x73b85c7d6fdfa4e6";

fn metrics_pin(snapshot: &footsteps_obs::MetricsSnapshot) -> (u64, usize) {
    let json = snapshot.to_json();
    (footsteps_obs::tree::fnv1a(json.as_bytes()), json.len())
}

#[test]
fn metrics_snapshot_matches_recorded_bytes() {
    // These pins catch a registry that drops or double-counts a key.
    // Regenerate only for a deliberate change to what is recorded.
    let characterized = characterized_results(7).metrics.expect("metrics collected");
    assert_eq!(metrics_pin(&characterized), SMOKE_METRICS_CHARACTERIZED, "after characterization");
    let mut study = Study::new(Scenario::smoke(7));
    study.run_to_completion();
    let complete = study.platform.obs.metrics.snapshot();
    assert_eq!(metrics_pin(&complete), SMOKE_METRICS_COMPLETE, "all four phases");
}

#[test]
fn golden_digest_is_independent_of_span_event_collection() {
    // The Chrome-trace exporter's event log must be observability-only:
    // collecting B/E events for every span (the `FOOTSTEPS_TRACE_OUT` code
    // path, enabled via the direct API because env vars are process-global
    // and race across tests) and exporting the trace.json cannot change a
    // byte of the deterministic results. The golden digest is defined at
    // the characterization boundary, so collect there, then continue to
    // completion for the export.
    let mut study = Study::new(Scenario::smoke(7));
    study.platform.obs.timings.enable_events();
    study.run_characterization();
    let results = results::StudyResults::collect(&study);
    assert_eq!(
        results.digest(),
        GOLDEN_SMOKE_DIGEST,
        "span-event collection changed the deterministic results"
    );
    study.run_narrow();
    study.run_broad();
    study.run_epilogue();
    // The end-of-run results match an untraced run taken to `Finished`.
    let mut untraced = Study::new(Scenario::smoke(7));
    untraced.run_to_completion();
    assert_eq!(
        results::StudyResults::collect(&study).digest(),
        results::StudyResults::collect(&untraced).digest(),
        "span-event collection changed the end-of-run results"
    );
    // So does the span tree's deterministic view: names, nesting, lane
    // kinds and region counts are a pure function of the control flow,
    // whether or not events are collected. Durations stay quarantined in
    // the wall-clock sidecar.
    let structure = study.platform.obs.timings.structure().to_json();
    assert!(structure.contains("phase.characterization"), "structure is non-trivial");
    assert!(structure.contains("aas."), "structure reaches the service engines");
    assert_eq!(
        structure,
        untraced.platform.obs.timings.structure().to_json(),
        "span-event collection changed the span structure"
    );
    assert_eq!(
        study.platform.obs.timings.structure_digest(),
        untraced.platform.obs.timings.structure_digest()
    );
    assert_eq!(
        untraced.platform.obs.timings.structure_digest(),
        SMOKE_STRUCTURE_DIGEST,
        "the span structure drifted from the recorded pin"
    );
    // And the collected event log actually exports as a valid trace.
    let dir = std::env::temp_dir().join("footsteps_determinism_trace");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("smoke_trace.json");
    study.platform.obs.export_trace_to(&path).expect("trace exports");
    let body = std::fs::read_to_string(&path).expect("trace file readable");
    footsteps_obs::export::validate_chrome_trace(&body).expect("exported trace validates");
    std::fs::remove_file(&path).ok();
}

#[test]
fn series_are_deterministic_through_interventions() {
    let run = |seed: u64| {
        let mut study = Study::new(Scenario::smoke(seed));
        study.run_characterization();
        study.run_narrow();
        let f5 = results::figure5(&study);
        let f6 = results::figure6(&study);
        (f5.threshold, f5.block.values, f6.block.values)
    };
    assert_eq!(run(9), run(9));
}
