//! footsteps-lint: the workspace's determinism & safety lint.
//!
//! The reproduction's core contract — byte-identical results on every
//! run, golden digest `0xce8aeb34fb9fe096` — rests on invariants no
//! compiler checks: no order-observing iteration over hash containers in
//! digest code, wall-clock and environment reads confined to the
//! observability/config entry points, every RNG stream derived through
//! `sim::rng`, and no `unsafe`. This crate machine-checks those
//! invariants on every CI run (DESIGN.md §6 documents the rules and the
//! pragma grammar).
//!
//! The analysis is lexical: each rule is a token pattern with a scope
//! ([`rules`], [`scope`]), checked file by file against a workspace-wide
//! table of hash- and btree-typed field names.
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

pub mod lexer;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod scope;
pub mod walker;

pub use rules::{Finding, PragmaStatus, Rule, RuleDoc, SymbolTable, EXPLANATIONS};

use lexer::Lexed;
use std::io;
use std::path::Path;

/// Analyze a set of in-memory files (`(workspace-relative path, source)`)
/// and return every finding, pragma-allowed ones included.
///
/// The pipeline: lex every file once; build the workspace field table;
/// then per file match the lexical rules and resolve its pragmas against
/// the matches.
pub fn analyze_files(files: &[(String, String)]) -> Vec<Finding> {
    let lexed: Vec<Lexed> = files.iter().map(|(_, s)| lexer::lex(s)).collect();
    let mut symbols = SymbolTable::default();
    for l in &lexed {
        symbols.collect(l);
    }
    let mut findings = Vec::new();
    for ((rel, source), l) in files.iter().zip(&lexed) {
        let raw = rules::lexical_matches(rel, l, &symbols);
        findings.extend(rules::resolve_pragmas(rel, source, &pragma::collect(&l.comments), raw));
    }
    findings
}

/// Analyze the workspace rooted at `root`. This is the entry point the CI
/// binary runs and the meta integration test asserts on.
pub fn analyze_workspace(root: &Path) -> io::Result<Vec<Finding>> {
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
