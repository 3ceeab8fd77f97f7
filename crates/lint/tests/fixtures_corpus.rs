//! Per-rule behaviour pinned against the fixture corpus, plus the meta
//! test that the live workspace is clean via the exact entry point CI
//! runs (`analyze_workspace`).
//!
//! Fixtures are loaded with `include_str!` and linted under *synthetic*
//! relative paths so each test can place the same content inside or
//! outside a rule's scope. The fixture directory itself is skipped by
//! the walker, so none of this corpus leaks into the workspace scan.

use std::path::Path;

use footsteps_lint::{
    analyze_files, analyze_workspace, violation_count, Finding, PragmaStatus, Rule,
};

const NONDET_ITER: &str = include_str!("fixtures/nondet_iter.rs");
const NONDET_ITER_TEST_DECLS: &str = include_str!("fixtures/nondet_iter_test_decls.rs");
const CROSS_FILE_A: &str = include_str!("fixtures/cross_file_a.rs");
const CROSS_FILE_B: &str = include_str!("fixtures/cross_file_b.rs");
const WALL_CLOCK: &str = include_str!("fixtures/wall_clock.rs");
const AMBIENT_RNG: &str = include_str!("fixtures/ambient_rng.rs");
const ENV_READ: &str = include_str!("fixtures/env_read.rs");
const PARALLEL_METRICS: &str = include_str!("fixtures/parallel_metrics.rs");
const UNSAFE_CODE: &str = include_str!("fixtures/unsafe_code.rs");
const PRAGMA_BAD: &str = include_str!("fixtures/pragma_bad.rs");
const TRANSITIVE_SHARD: &str = include_str!("fixtures/transitive_shard.rs");
const PANIC_IN_SHARD: &str = include_str!("fixtures/panic_in_shard.rs");
const FLOAT_ACCUM: &str = include_str!("fixtures/float_accum.rs");

/// 1-based line of the first fixture line containing `needle`.
fn line_of(fixture: &str, needle: &str) -> u32 {
    fixture
        .lines()
        .position(|l| l.contains(needle))
        .unwrap_or_else(|| panic!("fixture has no line containing {needle:?}")) as u32
        + 1
}

/// Lint one in-memory file at a synthetic workspace-relative path.
fn lint_one(relpath: &str, source: &str) -> Vec<Finding> {
    analyze_files(&[(relpath.to_string(), source.to_string())]).findings
}

fn by_rule(findings: &[Finding], rule: Rule) -> Vec<&Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn nondet_iter_flags_hash_iteration_in_digest_src() {
    let findings = lint_one("crates/sim/src/nondet_iter.rs", NONDET_ITER);
    let hits = by_rule(&findings, Rule::NondetIter);
    // `.values()` on the hash field, the pragma-allowed copy, and the
    // `for … in` loop — nothing on the BTreeMap or Vec receivers.
    assert_eq!(hits.len(), 3, "findings: {findings:#?}");
    let violations: Vec<_> = hits.iter().filter(|f| f.is_violation()).collect();
    assert_eq!(violations.len(), 2, "findings: {findings:#?}");
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
    assert!(by_rule(&findings, Rule::Pragma).is_empty(), "findings: {findings:#?}");
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
    let findings = analyze_files(&files).findings;
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
    for exempt in ["crates/core/src/scenario.rs", "crates/detect/tests/env_read.rs"] {
        let findings = lint_one(exempt, ENV_READ);
        assert!(by_rule(&findings, Rule::EnvRead).is_empty(), "{exempt}: {findings:#?}");
    }
}

#[test]
fn parallel_metrics_denied_in_plan_paths() {
    let findings = lint_one("crates/aas/src/parallel_metrics.rs", PARALLEL_METRICS);
    let hits = by_rule(&findings, Rule::ParallelMetrics);
    // One recording inside each of `plan_parallel`, `route_day` and
    // `plan_member`, plus the closure handed to a `plan_parallel` call;
    // the serial merge is fine.
    assert_eq!(hits.len(), 4, "findings: {findings:#?}");
    assert!(hits.iter().any(|f| f.snippet.contains("aas.plans")));
    assert!(hits.iter().any(|f| f.snippet.contains("aas.routed")));
    assert!(hits.iter().any(|f| f.snippet.contains("aas.member_plans")));
    assert!(hits.iter().any(|f| f.snippet.contains("aas.closure_plans")));
    assert!(hits.iter().all(|f| f.is_violation()));
}

#[test]
fn unsafe_code_always_flagged() {
    // Even test-like sections are held to the (empty) allowlist.
    for path in ["crates/sim/src/unsafe_code.rs", "crates/lint/tests/unsafe_code.rs"] {
        let findings = lint_one(path, UNSAFE_CODE);
        let hits = by_rule(&findings, Rule::UnsafeCode);
        assert_eq!(hits.len(), 1, "{path}: {findings:#?}");
        assert!(hits[0].is_violation());
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

    assert_eq!(violation_count(&findings), 5);
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
    // only those. The rest of the crate (scheduler, checkpoints, the
    // per-job trace writes) goes through `footsteps_obs::Stopwatch` and
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

#[test]
fn shard_deny_rules_flag_one_call_deep_helpers() {
    // Every helper in the fixture is lexically clean *at the call site*;
    // only the call-graph propagation can flag `plan_member` itself. One
    // previously-invisible transitive case per deny rule.
    let findings = lint_one("crates/sim/src/transitive_shard.rs", TRANSITIVE_SHARD);
    for (rule, callee, needle) in [
        (Rule::WallClock, "log_outcome", "= log_outcome()"),
        (Rule::AmbientRng, "jitter", "= jitter()"),
        (Rule::EnvRead, "read_knob", "= read_knob()"),
        (Rule::ParallelMetrics, "bump_counter", "bump_counter(&mut c)"),
        (Rule::NondetIter, "total", "total(s)"),
    ] {
        let line = line_of(TRANSITIVE_SHARD, needle);
        let hit = findings
            .iter()
            .find(|f| f.rule == rule && f.line == line)
            .unwrap_or_else(|| {
                panic!("no transitive {} finding at line {line}: {findings:#?}", rule.name())
            });
        assert!(hit.is_violation());
        // The full chain is reported, from the shard root through the
        // helper to the seed.
        assert_eq!(hit.chain.first().map(String::as_str), Some("plan_member"));
        assert!(hit.chain.iter().any(|c| c.contains(callee)), "chain: {:?}", hit.chain);
        assert!(hit.chain.len() >= 3, "chain: {:?}", hit.chain);
        assert!(hit.message.contains(" → "), "message: {}", hit.message);
    }
}

#[test]
fn panic_in_shard_direct_transitive_allowlist_and_via_pragmas() {
    let findings = lint_one("crates/sim/src/panic_in_shard.rs", PANIC_IN_SHARD);
    let hits = by_rule(&findings, Rule::PanicInShard);

    // Direct `.unwrap()` inside the shard function.
    let direct = line_of(PANIC_IN_SHARD, ".unwrap()");
    assert!(
        hits.iter().any(|f| f.line == direct && f.is_violation()),
        "findings: {findings:#?}"
    );
    // Indexing is exempt by design (bounds are invariants).
    let indexed = line_of(PANIC_IN_SHARD, "xs[0]");
    assert!(!hits.iter().any(|f| f.line == indexed), "findings: {findings:#?}");
    // The PANIC_FREE_FNS allowlist strips the vetted helper's assert.
    let binned = line_of(PANIC_IN_SHARD, "stable_bin(indexed, 10)");
    assert!(!hits.iter().any(|f| f.line == binned), "findings: {findings:#?}");
    // One call deep: `.expect()` inside `checked` is reached with a chain.
    let reached = line_of(PANIC_IN_SHARD, "binned + checked(xs)");
    let f = hits
        .iter()
        .find(|f| f.line == reached)
        .unwrap_or_else(|| panic!("no transitive finding: {findings:#?}"));
    assert!(f.is_violation());
    assert_eq!(f.chain, ["plan_customer", "checked", ".expect()"]);

    // A `via`-qualified pragma suppresses the matching chain…
    let allowed: Vec<_> = hits
        .iter()
        .filter(|f| matches!(f.pragma, PragmaStatus::Allowed(_)))
        .collect();
    assert_eq!(allowed.len(), 1, "findings: {findings:#?}");
    assert_eq!(allowed[0].chain.first().map(String::as_str), Some("route_day"));
    // …while one naming the wrong link suppresses nothing and is itself
    // reported stale.
    let wrong: Vec<_> = hits
        .iter()
        .filter(|f| f.chain.first().map(String::as_str) == Some("plan_member"))
        .collect();
    assert_eq!(wrong.len(), 1, "findings: {findings:#?}");
    assert!(wrong[0].is_violation());
    assert!(by_rule(&findings, Rule::Pragma)
        .iter()
        .any(|f| matches!(f.pragma, PragmaStatus::Unused)));
}

#[test]
fn float_accum_order_flags_merge_paths() {
    let findings = lint_one("crates/analysis/src/float_accum.rs", FLOAT_ACCUM);
    let hits = by_rule(&findings, Rule::FloatAccumOrder);
    // `self.mean +=` / `self.m2 +=` in Welford::merge, `.sum::<f64>()` in
    // Inbound::merge, and the one-call-deep `add_sample` reach in
    // Delta::merge. Integer `self.n +=` and the non-merge `scratch_total`
    // accumulate freely.
    assert_eq!(hits.len(), 4, "findings: {findings:#?}");
    assert!(hits.iter().all(|f| f.is_violation()));
    assert!(hits.iter().any(|f| f.snippet.contains("self.mean += other.mean")));
    assert!(hits.iter().any(|f| f.snippet.contains("self.m2")));
    assert!(hits.iter().any(|f| f.message.contains("sum::<f64>")));
    assert!(!hits.iter().any(|f| f.snippet.contains("self.n")));
    assert!(!hits.iter().any(|f| f.snippet.contains("*total += x")));
    let transitive = hits
        .iter()
        .find(|f| f.snippet.contains("add_sample(acc, x)"))
        .unwrap_or_else(|| panic!("no transitive finding: {findings:#?}"));
    assert_eq!(transitive.chain, ["Delta::merge", "add_sample", "`mean +=` (f32/f64)"]);

    // The canonical-order home is exempt: same content in analysis::stats.
    let canonical = lint_one("crates/analysis/src/stats.rs", FLOAT_ACCUM);
    assert!(
        by_rule(&canonical, Rule::FloatAccumOrder).is_empty(),
        "findings: {canonical:#?}"
    );
}

/// The meta test: the live workspace must be clean through the same
/// entry point the CI gate runs. A regression anywhere in the product
/// crates fails here before it fails in `scripts/ci.sh`.
#[test]
fn workspace_is_lint_clean() {
    let root = footsteps_lint::walker::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root with [workspace] manifest");
    let findings = analyze_workspace(&root).expect("workspace scan").findings;
    let violations: Vec<_> = findings.iter().filter(|f| f.is_violation()).collect();
    assert!(
        violations.is_empty(),
        "workspace has lint violations:\n{}",
        violations
            .iter()
            .map(|f| format!("  {}:{} [{}] {}", f.file, f.line, f.rule.name(), f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The scan actually covered the product crates (guards against the
    // walker silently finding nothing and vacuously passing).
    assert!(
        findings.iter().any(|f| matches!(f.pragma, PragmaStatus::Allowed(_))),
        "expected at least one pragma-annotated site in the workspace"
    );
}

/// Satellite: `--explain` and DESIGN.md §6 must stay in sync — every
/// rule has an EXPLANATIONS entry (with reason-bearing pragma example)
/// and is named in the design doc's enforcement section.
#[test]
fn every_rule_is_explained_and_documented() {
    let root = footsteps_lint::walker::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root with [workspace] manifest");
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let section = design
        .split("## 6.")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("DESIGN.md has a `## 6.` section");
    for rule in Rule::ALL {
        let doc = footsteps_lint::EXPLANATIONS
            .iter()
            .find(|d| d.rule == *rule)
            .unwrap_or_else(|| panic!("rule {} has no EXPLANATIONS entry", rule.name()));
        assert!(!doc.rationale.trim().is_empty(), "{}: empty rationale", rule.name());
        assert!(!doc.scope.trim().is_empty(), "{}: empty scope", rule.name());
        assert!(
            section.contains(rule.name()),
            "rule `{}` is not mentioned in DESIGN.md §6",
            rule.name()
        );
    }
}
