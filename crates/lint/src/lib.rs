//! footsteps-lint: the workspace's determinism & safety lint.
//!
//! The reproduction's core contract — byte-identical results for any
//! `FOOTSTEPS_THREADS`, golden digest `0xce8aeb34fb9fe096` — rests on
//! invariants no compiler checks: no order-observing iteration over hash
//! containers in digest code, wall-clock and environment reads confined to
//! the observability/config entry points, every RNG stream derived through
//! `sim::rng`, no metrics recording inside the parallel decision phase,
//! and no `unsafe`. This crate machine-checks those invariants on every
//! CI run (DESIGN.md §6 documents the rules and the pragma grammar).
//!
//! The analysis is interprocedural: a workspace call graph is extracted
//! from the lexed token streams ([`graph`]), effect bits are seeded by the
//! lexical detectors and propagated to a fixpoint ([`effects`]), and the
//! shard deny scopes flag *transitive* reach with full call chains
//! (`apply_shard → log_outcome → Instant::now`).
//!
//! Exceptions are claimed *in source*, with a mandatory reason:
//!
//! ```text
//! // footsteps-lint: allow(nondet-iter) — feeds an order-insensitive sum
//! ```
//!
//! The library entry points ([`analyze_workspace`], [`analyze_files`]) are
//! what both the CI binary and the crate's own integration tests use, so
//! the gate exercised in CI is the same code path the tests pin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod effects;
pub mod graph;
pub mod lexer;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod walker;

pub use graph::GraphStats;
pub use rules::{Finding, PragmaStatus, Rule, RuleDoc, SymbolTable, EXPLANATIONS};

use lexer::Lexed;
use std::io;
use std::path::Path;

/// A full lint run: findings plus call-graph coverage statistics.
#[derive(Debug)]
pub struct Analysis {
    /// All findings (allowed ones included, for auditability).
    pub findings: Vec<Finding>,
    /// Resolution coverage for the `--stats` view.
    pub stats: GraphStats,
}

/// Analyze a set of in-memory files (`(workspace-relative path, source)`).
///
/// The pipeline: lex every file once; build the workspace symbol table and
/// call graph; collect pragmas; seed and propagate the effect lattice
/// (seeds on validly-pragma'd lines do not propagate); then per file merge
/// lexical and transitive graph matches, and resolve pragmas against the
/// lot.
pub fn analyze_files(files: &[(String, String)]) -> Analysis {
    let lexed: Vec<Lexed> = files.iter().map(|(_, s)| lexer::lex(s)).collect();
    let refs: Vec<(&str, &Lexed)> =
        files.iter().zip(&lexed).map(|((rel, _), l)| (rel.as_str(), l)).collect();

    let mut symbols = SymbolTable::default();
    for l in &lexed {
        symbols.collect(l);
    }
    let call_graph = graph::CallGraph::build(&refs);
    let pragmas: Vec<Vec<pragma::Pragma>> =
        lexed.iter().map(|l| pragma::collect(&l.comments)).collect();

    // A seed on a line covered by a valid, reasoned pragma for the seed's
    // rule is vouched-for at the definition and does not propagate to
    // callers. Chain-qualified (`via`) pragmas never match seeds — they
    // target transitive findings at the shard root.
    let seed_allowed = |file: usize, line: u32, bit: u8| -> bool {
        let rule = rules::seed_rule(bit);
        pragmas[file].iter().any(|p| {
            p.covers == line
                && p.error.is_none()
                && p.reason.is_some()
                && p.rules.iter().any(|s| s.rule == rule.name() && s.via.is_none())
        })
    };
    let table = effects::compute(&call_graph, &refs, &symbols, &seed_allowed);

    let mut per_file: Vec<Vec<rules::RawMatch>> = files.iter().map(|_| Vec::new()).collect();
    for (fi, (rel, l)) in refs.iter().enumerate() {
        per_file[fi] = rules::lexical_matches(rel, l, &symbols);
    }
    for (fi, m) in rules::graph_matches(&call_graph, &table, &refs) {
        per_file[fi].push(m);
    }

    let mut findings = Vec::new();
    for (fi, raw) in per_file.into_iter().enumerate() {
        findings.extend(rules::resolve_pragmas(&files[fi].0, &files[fi].1, &pragmas[fi], raw));
    }

    let mut stats = call_graph.stats.clone();
    stats.fixpoint_iterations = table.iterations;
    Analysis { findings, stats }
}

/// Analyze the workspace rooted at `root`. This is the entry point the CI
/// binary runs and the meta integration test asserts on.
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    let mut files = Vec::new();
    for (rel, abs) in walker::workspace_files(root)? {
        files.push((rel, std::fs::read_to_string(&abs)?));
    }
    Ok(analyze_files(&files))
}

/// Count the findings that fail the build.
pub fn violation_count(findings: &[Finding]) -> usize {
    findings.iter().filter(|f| f.is_violation()).count()
}
