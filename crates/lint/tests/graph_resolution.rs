//! Call-graph resolution edge cases: shadowing, trait-object merging,
//! recursive fixpoint termination, opaque externals — plus the exact
//! `--stats` coverage pin for the transitive fixture, so resolution
//! coverage can't silently regress.

use footsteps_lint::{analyze_files, Analysis, Rule};

const TRANSITIVE_SHARD: &str = include_str!("fixtures/transitive_shard.rs");

fn analyze(files: &[(&str, &str)]) -> Analysis {
    let owned: Vec<(String, String)> =
        files.iter().map(|(a, b)| (a.to_string(), b.to_string())).collect();
    analyze_files(&owned)
}

#[test]
fn free_call_prefers_free_fn_over_same_named_method() {
    let src = r#"
pub struct Cache;
impl Cache {
    pub fn refresh(&self) -> u128 {
        let t = std::time::Instant::now();
        t.elapsed().as_nanos()
    }
}
fn refresh() -> u128 {
    0
}
pub fn apply_shard(c: &Cache) -> u128 {
    let clean = refresh();
    let dirty = c.refresh();
    clean + dirty
}
"#;
    let a = analyze(&[("crates/sim/src/shadow.rs", src)]);
    let transitive: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == Rule::WallClock && !f.chain.is_empty())
        .collect();
    // Only the typed-receiver call reaches the clock; the bare call binds
    // to the free function, not the same-named method.
    assert_eq!(transitive.len(), 1, "findings: {:#?}", a.findings);
    assert!(transitive[0].snippet.contains("c.refresh()"));
    assert!(
        transitive[0].chain.iter().any(|c| c == "Cache::refresh"),
        "chain: {:?}",
        transitive[0].chain
    );
}

#[test]
fn trait_object_dispatch_merges_by_name_conservatively() {
    let src = r#"
pub trait Policy {
    fn evaluate(&self) -> u64;
}
pub struct Lenient;
impl Policy for Lenient {
    fn evaluate(&self) -> u64 {
        1
    }
}
pub struct Strict;
impl Policy for Strict {
    fn evaluate(&self) -> u64 {
        std::env::var("STRICT").map(|_| 2).unwrap_or(3)
    }
}
pub fn route_day(p: &dyn Policy) -> u64 {
    p.evaluate()
}
"#;
    let a = analyze(&[("crates/sim/src/dyn_policy.rs", src)]);
    // The dyn call merged every `impl Policy` method of that name…
    assert!(a.stats.trait_merged_calls >= 1, "stats: {:?}", a.stats);
    // …so the one env-reading impl taints the dispatch site.
    let hit = a
        .findings
        .iter()
        .find(|f| f.rule == Rule::EnvRead && !f.chain.is_empty())
        .unwrap_or_else(|| panic!("no transitive finding: {:#?}", a.findings));
    assert!(hit.snippet.contains("p.evaluate()"));
    assert!(
        hit.chain.iter().any(|c| c == "Policy::evaluate"),
        "chain: {:?}",
        hit.chain
    );
}

#[test]
fn recursive_call_cycles_reach_a_fixpoint() {
    let src = r#"
fn ping(n: u64) -> u64 {
    if n == 0 { pong(n) } else { ping(n - 1) }
}
fn pong(n: u64) -> u64 {
    let t = std::time::Instant::now();
    ping(t.elapsed().as_secs() + n)
}
pub fn apply_shard() -> u64 {
    ping(3)
}
"#;
    // Termination itself is half the test: a mutual recursion must not
    // spin the propagation loop.
    let a = analyze(&[("crates/sim/src/recurse.rs", src)]);
    assert!(a.stats.fixpoint_iterations >= 2, "stats: {:?}", a.stats);
    let hit = a
        .findings
        .iter()
        .find(|f| f.rule == Rule::WallClock && !f.chain.is_empty())
        .unwrap_or_else(|| panic!("no transitive finding: {:#?}", a.findings));
    assert_eq!(hit.chain[..2], ["apply_shard".to_string(), "ping".to_string()]);
    // The witness chain bottoms out at the seed, not in the cycle.
    assert_eq!(hit.chain.last().map(String::as_str), Some("Instant::now"));
}

#[test]
fn external_calls_are_opaque_not_errors() {
    let src = r#"
pub fn apply_shard(xs: &[u8]) -> usize {
    let blob = serde_json::to_vec(&xs).unwrap_or_default();
    vendor_compress::pack(&blob);
    core::mem::take(&mut blob.len())
}
"#;
    // std, vendor/ work-alikes, and unknown crates resolve to Opaque —
    // assumed effect-free, never a panic or a finding.
    let a = analyze(&[("crates/sim/src/external.rs", src)]);
    assert!(a.stats.opaque_calls >= 3, "stats: {:?}", a.stats);
    assert_eq!(a.stats.unresolved_calls, 0, "stats: {:?}", a.stats);
    assert!(a.findings.is_empty(), "findings: {:#?}", a.findings);
}

#[test]
fn stats_are_pinned_for_the_transitive_fixture() {
    let a = analyze(&[("crates/sim/src/transitive_shard.rs", TRANSITIVE_SHARD)]);
    let s = &a.stats;
    assert_eq!(s.files, 1, "stats: {s:?}");
    assert_eq!(s.functions, 6, "stats: {s:?}");
    // apply_shard's five helper calls, each with exactly one candidate.
    assert_eq!(s.resolved_calls, 5, "stats: {s:?}");
    assert_eq!(s.edges, 5, "stats: {s:?}");
    assert_eq!(s.unresolved_calls, 0, "stats: {s:?}");
    // Instant::now / .elapsed / .as_nanos, thread_rng / .next_u64,
    // env::var / .is_ok, .values / .sum, u64::from.
    assert_eq!(s.opaque_calls, 10, "stats: {s:?}");
    assert_eq!(s.trait_merged_calls, 0, "stats: {s:?}");
    // Seeds land in round zero; one round to lift them into apply_shard,
    // one to observe quiescence.
    assert_eq!(s.fixpoint_iterations, 2, "stats: {s:?}");
}
