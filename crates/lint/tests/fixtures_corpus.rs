//! Per-rule behaviour pinned against the fixture corpus, plus the meta
//! test that the live workspace is clean: `workspace_is_lint_clean` is
//! how the lint runs, on every `cargo test`.
//!
//! Fixtures are loaded with `include_str!` and linted under *synthetic*
//! relative paths so each test can place the same content inside or
//! outside a rule's scope. The fixture directory itself is skipped by
//! the walker, so none of this corpus leaks into the workspace scan.

use std::path::Path;

use footsteps_lint::{analyze_files, analyze_workspace, report, Finding, PragmaStatus, Rule};

const NONDET_ITER: &str = include_str!("fixtures/nondet_iter.rs");
const NONDET_ITER_TEST_DECLS: &str = include_str!("fixtures/nondet_iter_test_decls.rs");
const CROSS_FILE_A: &str = include_str!("fixtures/cross_file_a.rs");
const CROSS_FILE_B: &str = include_str!("fixtures/cross_file_b.rs");
const WALL_CLOCK: &str = include_str!("fixtures/wall_clock.rs");
const AMBIENT_RNG: &str = include_str!("fixtures/ambient_rng.rs");
const ENV_READ: &str = include_str!("fixtures/env_read.rs");
const PRAGMA_BAD: &str = include_str!("fixtures/pragma_bad.rs");

/// Lint one in-memory file at a synthetic workspace-relative path.
fn lint_one(relpath: &str, source: &str) -> Vec<Finding> {
    analyze_files(&[(relpath.to_string(), source.to_string())])
}

/// The workspace root, two levels above this crate's manifest.
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
}

fn by_rule(findings: &[Finding], rule: Rule) -> Vec<&Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn nondet_iter_flags_hash_iteration_in_digest_src() {
    // `honeypot` builds Table 5 and `obs` writes the pinned metrics
    // snapshot and structure digest, so both are digest crates too.
    for path in [
        "crates/sim/src/nondet_iter.rs",
        "crates/honeypot/src/nondet_iter.rs",
        "crates/obs/src/nondet_iter.rs",
    ] {
        let findings = lint_one(path, NONDET_ITER);
        let hits = by_rule(&findings, Rule::NondetIter);
        // `.values()` on the hash field, the pragma-allowed copy, and the
        // `for … in` loop — nothing on the BTreeMap or Vec receivers.
        assert_eq!(hits.len(), 3, "{path}: {findings:#?}");
        let violations: Vec<_> = hits.iter().filter(|f| f.is_violation()).collect();
        assert_eq!(violations.len(), 2, "{path}: {findings:#?}");
        assert!(violations.iter().any(|f| f.snippet.contains("for (_k, _v)")));
        // The annotated site is reported but does not fail the build, and
        // its reason survives into the finding.
        let allowed: Vec<_> = hits
            .iter()
            .filter(|f| matches!(f.pragma, PragmaStatus::Allowed(_)))
            .collect();
        assert_eq!(allowed.len(), 1);
        match &allowed[0].pragma {
            PragmaStatus::Allowed(reason) => assert!(reason.contains("order-insensitive")),
            other => panic!("expected Allowed, got {other:?}"),
        }
        // The pragma was consumed, so no staleness finding rides along.
        assert!(by_rule(&findings, Rule::Pragma).is_empty(), "{path}: {findings:#?}");
    }
}

#[test]
fn nondet_iter_inactive_outside_digest_crates() {
    // Same content in a non-digest crate: the iteration rule stays quiet.
    let findings = lint_one("crates/lint/src/nondet_iter.rs", NONDET_ITER);
    assert!(by_rule(&findings, Rule::NondetIter).is_empty(), "findings: {findings:#?}");
}

#[test]
fn nondet_iter_sees_field_types_across_files() {
    // The HashSet declaration lives in file A; the iteration in file B.
    let files = vec![
        ("crates/sim/src/cross_file_a.rs".to_string(), CROSS_FILE_A.to_string()),
        ("crates/sim/src/cross_file_b.rs".to_string(), CROSS_FILE_B.to_string()),
    ];
    let findings = analyze_files(&files);
    let hits = by_rule(&findings, Rule::NondetIter);
    assert_eq!(hits.len(), 1, "findings: {findings:#?}");
    assert_eq!(hits[0].file, "crates/sim/src/cross_file_b.rs");
    assert!(hits[0].message.contains("shared_members"));
    // Without file A in the scan set the receiver's type is unknown and
    // `.iter()` on it cannot be blamed.
    let alone = lint_one("crates/sim/src/cross_file_b.rs", CROSS_FILE_B);
    assert!(by_rule(&alone, Rule::NondetIter).is_empty(), "findings: {alone:#?}");
}

#[test]
fn nondet_iter_ignores_declarations_in_test_code() {
    // A `Vec` local iterated in product code, and a `#[cfg(test)]` helper
    // that binds the same name to a `HashSet`: the test binding does not
    // type the product code's name.
    let findings = lint_one("crates/aas/src/nondet_iter_test_decls.rs", NONDET_ITER_TEST_DECLS);
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

#[test]
fn nondet_iter_still_flags_product_hash_iteration_beside_test_decls() {
    let source = format!(
        "{NONDET_ITER_TEST_DECLS}
pub fn distinct(xs: &[u32]) -> Vec<u32> {{
    let mut seen = std::collections::HashSet::new();
    for &x in xs {{
        seen.insert(x);
    }}
    seen.into_iter().collect()
}}
"
    );
    let findings = lint_one("crates/aas/src/nondet_iter_test_decls.rs", &source);
    let hits = by_rule(&findings, Rule::NondetIter);
    assert_eq!(hits.len(), 1, "findings: {findings:#?}");
    assert!(hits[0].message.contains("`seen`"), "{}", hits[0].message);
    assert!(hits[0].is_violation());
}

#[test]
fn wall_clock_confined_to_obs_and_bench() {
    let outside = lint_one("crates/aas/src/wall_clock.rs", WALL_CLOCK);
    let hits = by_rule(&outside, Rule::WallClock);
    // The type name and the `.elapsed()` call are separate findings.
    assert_eq!(hits.len(), 2, "findings: {outside:#?}");
    assert!(outside.iter().all(|f| f.is_violation()));

    for exempt in ["crates/obs/src/wall_clock.rs", "crates/bench/src/wall_clock.rs"] {
        let findings = lint_one(exempt, WALL_CLOCK);
        assert!(findings.is_empty(), "{exempt}: {findings:#?}");
    }
}

#[test]
fn ambient_rng_banned_outside_rng_module() {
    let findings = lint_one("crates/sim/src/ambient_rng.rs", AMBIENT_RNG);
    let hits = by_rule(&findings, Rule::AmbientRng);
    // The ambient source and the raw non-test seed; the seed inside
    // `#[cfg(test)]` is how tests pin fixtures and stays legal.
    assert_eq!(hits.len(), 2, "findings: {findings:#?}");
    assert!(hits.iter().any(|f| f.message.contains("ambient randomness")));
    assert!(hits.iter().any(|f| f.message.contains("seed_from_u64")));
    assert!(!hits.iter().any(|f| f.line >= 10), "test-mod seed was flagged: {findings:#?}");

    // The one module allowed to construct RNGs from raw seeds.
    let in_rng = lint_one("crates/sim/src/rng.rs", AMBIENT_RNG);
    assert!(by_rule(&in_rng, Rule::AmbientRng).is_empty(), "findings: {in_rng:#?}");
}

#[test]
fn env_read_confined_to_entry_points() {
    let outside = lint_one("crates/detect/src/env_read.rs", ENV_READ);
    let hits = by_rule(&outside, Rule::EnvRead);
    assert_eq!(hits.len(), 1, "findings: {outside:#?}");
    assert!(hits[0].is_violation());

    // The designated config entry point, and test-like code, read freely.
    for exempt in ["crates/bench/src/lib.rs", "crates/detect/tests/env_read.rs"] {
        let findings = lint_one(exempt, ENV_READ);
        assert!(by_rule(&findings, Rule::EnvRead).is_empty(), "{exempt}: {findings:#?}");
    }
}

#[test]
fn pragma_problems_are_findings() {
    let findings = lint_one("crates/sim/src/pragma_bad.rs", PRAGMA_BAD);
    // Both `.values()` sites still fail the build: a reason-less pragma
    // and an unknown-rule pragma suppress nothing.
    let iter_hits = by_rule(&findings, Rule::NondetIter);
    assert_eq!(iter_hits.len(), 2, "findings: {findings:#?}");
    assert!(iter_hits.iter().all(|f| f.is_violation()));

    let pragma_hits = by_rule(&findings, Rule::Pragma);
    assert_eq!(pragma_hits.len(), 3, "findings: {findings:#?}");
    assert!(pragma_hits
        .iter()
        .any(|f| matches!(f.pragma, PragmaStatus::MissingReason)));
    assert!(pragma_hits
        .iter()
        .any(|f| matches!(f.pragma, PragmaStatus::Malformed(_))));
    assert!(pragma_hits.iter().any(|f| matches!(f.pragma, PragmaStatus::Unused)));
    // Every pragma problem is itself a violation.
    assert!(pragma_hits.iter().all(|f| f.is_violation()));

    assert_eq!(findings.iter().filter(|f| f.is_violation()).count(), 5);
}

#[test]
fn sweep_is_a_digest_crate_with_wall_clock_exemption() {
    // The orchestrator crate is held to the determinism rules on its
    // deterministic paths: hash-order iteration and ambient randomness are
    // violations in `crates/sweep/src` exactly as in `crates/sim/src`.
    let iter = lint_one("crates/sweep/src/aggregate.rs", NONDET_ITER);
    let iter_hits = by_rule(&iter, Rule::NondetIter);
    assert_eq!(iter_hits.len(), 3, "findings: {iter:#?}");
    assert_eq!(
        iter_hits.iter().filter(|f| f.is_violation()).count(),
        2,
        "findings: {iter:#?}"
    );

    let rng = lint_one("crates/sweep/src/scheduler.rs", AMBIENT_RNG);
    let rng_hits = by_rule(&rng, Rule::AmbientRng);
    assert_eq!(rng_hits.len(), 2, "findings: {rng:#?}");
    assert!(rng_hits.iter().all(|f| f.is_violation()));

    // What sweep *is* exempt from: wall-clock manifest timestamps — and
    // only those. The rest of the crate (scheduler, the per-job result
    // and trace writes) goes through `footsteps_obs::Stopwatch` and
    // the obs exporter, so raw wall-clock there is a violation.
    let clock = lint_one("crates/sweep/src/manifest.rs", WALL_CLOCK);
    assert!(by_rule(&clock, Rule::WallClock).is_empty(), "findings: {clock:#?}");
    let sched = lint_one("crates/sweep/src/scheduler.rs", WALL_CLOCK);
    let sched_hits = by_rule(&sched, Rule::WallClock);
    assert_eq!(sched_hits.len(), 2, "findings: {sched:#?}");
    assert!(sched_hits.iter().all(|f| f.is_violation()));
}

#[test]
fn stream_is_a_digest_crate_without_a_wall_clock_exemption() {
    // The online detector replays byte-identically from a recorded log,
    // so `crates/stream/src` is held to the digest-crate determinism
    // rules: hash-order iteration there is a violation exactly as in
    // `crates/sim/src`.
    let iter = lint_one("crates/stream/src/online.rs", NONDET_ITER);
    let iter_hits = by_rule(&iter, Rule::NondetIter);
    assert_eq!(iter_hits.len(), 3, "findings: {iter:#?}");
    assert_eq!(
        iter_hits.iter().filter(|f| f.is_violation()).count(),
        2,
        "findings: {iter:#?}"
    );

    // No file in the crate is exempt: the event-log header carries no
    // wall-clock stamp, so raw wall-clock in the envelope is a violation
    // like anywhere else in the crate, and timing goes through
    // `footsteps_obs::Stopwatch`.
    for file in ["crates/stream/src/envelope.rs", "crates/stream/src/online.rs"] {
        let findings = lint_one(file, WALL_CLOCK);
        let hits = by_rule(&findings, Rule::WallClock);
        assert_eq!(hits.len(), 2, "{file} findings: {findings:#?}");
        assert!(hits.iter().all(|f| f.is_violation()), "{file}");
    }
}

#[test]
fn trace_exporter_paths_keep_their_wall_clock_exemptions() {
    // The Chrome-trace exporter lives in `crates/obs` (crate-wide
    // exemption); no other file gained one for the trace work.
    let findings = lint_one("crates/obs/src/export.rs", WALL_CLOCK);
    assert!(by_rule(&findings, Rule::WallClock).is_empty(), "findings: {findings:#?}");
    // A hypothetical exporter outside obs/bench is still denied.
    let outside = lint_one("crates/core/src/export.rs", WALL_CLOCK);
    let hits = by_rule(&outside, Rule::WallClock);
    assert_eq!(hits.len(), 2, "findings: {outside:#?}");
    assert!(hits.iter().all(|f| f.is_violation()));
}

/// The meta test, and the lint's one entry point: the live workspace
/// must be clean. On failure it prints the text report, one
/// `file:line: [rule] message` line and the source line per violation.
#[test]
fn workspace_is_lint_clean() {
    let findings = analyze_workspace(workspace_root()).expect("workspace scan");
    assert!(
        findings.iter().all(|f| !f.is_violation()),
        "workspace has lint violations:\n{}",
        report::render_text(&findings)
    );
    // The scan actually covered the product crates (guards against the
    // walker silently finding nothing and vacuously passing).
    assert!(
        findings.iter().any(|f| matches!(f.pragma, PragmaStatus::Allowed(_))),
        "expected at least one pragma-annotated site in the workspace"
    );
}

/// DESIGN.md §6's rules table is the one description of the rules: it
/// must name every rule the pragma grammar accepts.
#[test]
fn every_rule_is_explained_and_documented() {
    let design = std::fs::read_to_string(workspace_root().join("DESIGN.md")).expect("DESIGN.md");
    let section = design
        .split("## 6.")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("DESIGN.md has a `## 6.` section");
    for rule in Rule::ALL {
        assert!(
            section.contains(rule.name()),
            "rule `{}` is not mentioned in DESIGN.md §6",
            rule.name()
        );
    }
}
