//! The repo-specific rules: lexical token patterns, each with a scope.
//!
//! Every rule is a token-level pattern over [`crate::lexer`] output plus
//! a scope (which crates/sections/test-ness it applies to, decided with
//! [`crate::scope`]). The rules encode the workspace's determinism
//! contract (DESIGN.md §6): the golden digest `0xce8aeb34fb9fe096` must be
//! byte-identical on every run, which only holds if no order-observing
//! map iteration, ambient time or ambient randomness sneaks into the
//! simulation path.
//!
//! Heuristics, stated honestly: without type inference we cannot prove a
//! receiver is a `HashMap`. The engine therefore resolves receiver names
//! in two layers: a workspace-global table of *field* declarations
//! (`name: HashMap<..>` outside parentheses — so a hash field declared
//! in `sim` and iterated from `aas` is still caught), shadowed by a
//! per-file table of every local declaration — so a `Vec`-typed field
//! that merely shares its name with a hash field in some other crate is
//! not flagged.

use crate::lexer::{Lexed, Token, TokenKind};
use crate::pragma::Pragma;
use crate::scope::{after_let, classify, test_item_ranges, type_after_colon, Section};

/// Crates whose `src` feeds the golden digest: order-observing iteration
/// over hash containers there is a correctness bug unless proven safe.
/// `sweep` is held to the same bar — a re-run job and the aggregation
/// must reproduce the per-seed digests byte for byte. `stream` too:
/// its verdict snapshot must replay byte-identically from a recorded log.
/// `honeypot` builds Table 5, which feeds the golden digest, and `obs`
/// writes the metrics snapshot and the span-structure digest that the
/// tests pin.
pub const DIGEST_CRATES: &[&str] = &[
    "sim", "aas", "detect", "intervene", "analysis", "core", "sweep", "stream", "honeypot", "obs",
];

/// Crates allowed to touch wall-clock (`Instant`, `SystemTime`, `elapsed`).
/// `obs` owns the span tree and the Chrome-trace exporter; `bench` is the
/// perf harness. Everything else — including the rest of `sweep` — goes
/// through `footsteps_obs::Stopwatch` / spans.
pub const WALL_CLOCK_CRATES: &[&str] = &["obs", "bench"];

/// Single files (outside [`WALL_CLOCK_CRATES`]) allowed to touch
/// wall-clock. `sweep`'s manifest stamps job transitions with unix times,
/// bookkeeping for humans that never feeds a digest. The sweep's per-job
/// trace writes and ETA lines, and the study's detector timing, need no
/// exemption: they use `footsteps_obs::Stopwatch` and the obs exporter.
/// The stream event log carries no wall-clock stamp, so a recording
/// depends only on its scenario.
pub const WALL_CLOCK_FILES: &[&str] = &["crates/sweep/src/manifest.rs"];

/// The only file allowed to construct RNGs from raw seeds in non-test code.
pub const RNG_MODULE: &str = "crates/sim/src/rng.rs";

/// Files (beyond `crates/obs`) allowed to read the environment: the
/// bench harness's scenario selection (`FOOTSTEPS_SEED`/`FOOTSTEPS_SMOKE`).
/// (`FOOTSTEPS_TRACE_OUT`/`FOOTSTEPS_QUIET` live in `crates/obs`.)
pub const ENV_READ_FILES: &[&str] = &["crates/bench/src/lib.rs"];

const AMBIENT_RNG_BANNED: &[&str] = &["thread_rng", "from_entropy", "from_rng"];
const ORDER_METHODS_ANY_RECEIVER: &[&str] =
    &["keys", "values", "values_mut", "into_keys", "into_values"];
const ORDER_METHODS_KNOWN_RECEIVER: &[&str] =
    &["iter", "iter_mut", "into_iter", "drain"];

/// Primitive type names recorded in declaration tables, so a local
/// `count: u64` or `mean: f64` shadows a global hash name.
const PRIMITIVES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    "f32", "f64", "bool", "char", "str",
];

/// The lint rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Order-observing iteration over a hash container in digest code.
    NondetIter,
    /// Wall-clock access outside `crates/obs` / `crates/bench`.
    WallClock,
    /// Ambient or raw-seeded randomness outside `sim::rng`.
    AmbientRng,
    /// `std::env::var` outside the designated config/obs entry points.
    EnvRead,
    /// A problem with a pragma itself (missing reason, unknown rule, stale).
    Pragma,
}

impl Rule {
    /// Every rule, in severity-agnostic display order.
    pub const ALL: &'static [Rule] = &[
        Rule::NondetIter,
        Rule::WallClock,
        Rule::AmbientRng,
        Rule::EnvRead,
        Rule::Pragma,
    ];

    /// The kebab-case name used in pragmas, findings, and docs.
    pub fn name(&self) -> &'static str {
        match self {
            Rule::NondetIter => "nondet-iter",
            Rule::WallClock => "wall-clock",
            Rule::AmbientRng => "ambient-rng",
            Rule::EnvRead => "env-read",
            Rule::Pragma => "pragma",
        }
    }
}

/// Pragma situation of a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PragmaStatus {
    /// No applicable pragma: the finding is a violation.
    None,
    /// Suppressed by a valid pragma (reason recorded). Not a violation, but
    /// still counted in the report so annotations stay auditable.
    Allowed(String),
    /// A pragma exists but carries no reason.
    MissingReason,
    /// A pragma failed to parse (message recorded).
    Malformed(String),
    /// A valid pragma that suppressed nothing — stale, remove it.
    Unused,
}

/// One finding: a rule match (allowed or not) or a pragma problem.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The trimmed source line.
    pub snippet: String,
    /// Human-readable explanation.
    pub message: String,
    /// Pragma situation.
    pub pragma: PragmaStatus,
}

impl Finding {
    /// Does this finding fail the build?
    pub fn is_violation(&self) -> bool {
        !matches!(self.pragma, PragmaStatus::Allowed(_))
    }
}

/// Container-family classification of one declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decl {
    /// `HashMap` / `HashSet`: iteration order is arbitrary.
    Hash,
    /// `BTreeMap` / `BTreeSet`: iteration order is deterministic.
    Btree,
    /// Any other concrete type: known not-a-hash.
    Other,
}

fn container_class(ty: &str) -> Option<Decl> {
    match ty {
        "HashMap" | "HashSet" => Some(Decl::Hash),
        "BTreeMap" | "BTreeSet" => Some(Decl::Btree),
        _ => None,
    }
}

/// Hash beats btree beats other when one name is declared several ways
/// in the same file (conservative: the use gets flagged).
fn decl_rank(d: Decl) -> u8 {
    match d {
        Decl::Hash => 2,
        Decl::Btree => 1,
        Decl::Other => 0,
    }
}

/// Workspace-global table of *field* names declared with hash / btree
/// types: `name: HashMap<..>` at parenthesis depth zero and not
/// `let`-bound. Built over every scanned file before any file is checked,
/// so a hash field declared in `sim` and iterated from `aas` is caught.
/// `let` bindings and parameters are deliberately excluded — their uses are
/// file-local and the per-file local table sees them with full context.
/// Declarations inside `#[cfg(test)]` / `#[test]` items are skipped: the
/// rules never check test code, so its types must not type product names.
/// On a collision, the riskier class wins (conservative).
#[derive(Debug, Default)]
pub struct SymbolTable {
    hash_names: Vec<String>,
    btree_names: Vec<String>,
}

impl SymbolTable {
    /// Record field declarations from one lexed file.
    pub fn collect(&mut self, lexed: &Lexed) {
        let tokens = &lexed.tokens;
        let test_ranges = test_item_ranges(tokens);
        let mut paren = 0i32;
        for i in 0..tokens.len() {
            let t = &tokens[i];
            if t.is_punct("(") {
                paren += 1;
            } else if t.is_punct(")") {
                paren -= 1;
            }
            if paren > 0
                || in_ranges(&test_ranges, i)
                || t.kind != TokenKind::Ident
                || !tokens.get(i + 1).is_some_and(|n| n.is_punct(":"))
                || after_let(tokens, i)
            {
                continue;
            }
            let Some(ty) = type_after_colon(tokens, i + 1) else { continue };
            let names = match container_class(&ty.text) {
                Some(Decl::Hash) => &mut self.hash_names,
                Some(Decl::Btree) => &mut self.btree_names,
                _ => continue,
            };
            if !names.contains(&t.text) {
                names.push(t.text.clone());
            }
        }
    }

    fn is_hash(&self, name: &str) -> bool {
        self.hash_names.iter().any(|n| n == name)
    }

    /// Known BTree-typed and *not* also hash-typed anywhere.
    fn is_btree_only(&self, name: &str) -> bool {
        self.btree_names.iter().any(|n| n == name) && !self.is_hash(name)
    }
}

/// Per-file declaration table. Records every `name: Type` declaration
/// (field, parameter, or `let` — concrete CamelCase types and
/// primitives) and every `name = HashMap::new()`-shaped binding, outside
/// test items. Local declarations *shadow* the global field table: a
/// file whose `accounts` is a `Vec` arena is not flagged just because
/// some other crate has a `HashSet` parameter of the same name.
#[derive(Debug, Default)]
struct LocalTable {
    names: Vec<(String, Decl)>,
}

impl LocalTable {
    fn record(&mut self, name: &str, decl: Decl) {
        match self.names.iter_mut().find(|(n, _)| n == name) {
            Some((_, existing)) => {
                if decl_rank(decl) > decl_rank(*existing) {
                    *existing = decl;
                }
            }
            None => self.names.push((name.to_string(), decl)),
        }
    }

    fn get(&self, name: &str) -> Option<Decl> {
        self.names.iter().find(|(n, _)| n == name).map(|(_, d)| *d)
    }
}

fn local_table(tokens: &[Token]) -> LocalTable {
    let mut table = LocalTable::default();
    let test_ranges = test_item_ranges(tokens);
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || in_ranges(&test_ranges, i) {
            continue;
        }
        let Some(next) = tokens.get(i + 1) else { break };
        if next.is_punct(":") {
            let Some(ty) = type_after_colon(tokens, i + 1) else { continue };
            match container_class(&ty.text) {
                Some(d) => table.record(&t.text, d),
                None if ty.text.starts_with(char::is_uppercase)
                    || PRIMITIVES.contains(&ty.text.as_str()) =>
                {
                    table.record(&t.text, Decl::Other);
                }
                None => {}
            }
        } else if next.is_punct("=") {
            // `name = [std::collections::]HashMap::new()` and friends. Only
            // container constructors are recorded — `name = some_call()`
            // tells us nothing about the type.
            let mut j = i + 2;
            while let Some(ft) = tokens.get(j) {
                if ft.kind != TokenKind::Ident {
                    break;
                }
                if let Some(d) = container_class(&ft.text) {
                    table.record(&t.text, d);
                    break;
                }
                if (ft.is_ident("std") || ft.is_ident("collections") || ft.is_ident("alloc"))
                    && tokens.get(j + 1).is_some_and(|p| p.is_punct("::"))
                {
                    j += 2;
                    continue;
                }
                break;
            }
        }
    }
    table
}

/// Whether token `i` lies inside one of the inclusive `ranges`.
fn in_ranges(ranges: &[(usize, usize)], i: usize) -> bool {
    ranges.iter().any(|&(s, e)| i >= s && i <= e)
}

/// Per-file name classifier: local declarations shadow the global field
/// table.
#[derive(Debug)]
struct NameClassifier<'a> {
    symbols: &'a SymbolTable,
    locals: LocalTable,
}

impl<'a> NameClassifier<'a> {
    fn new(symbols: &'a SymbolTable, tokens: &[Token]) -> Self {
        NameClassifier { symbols, locals: local_table(tokens) }
    }

    fn is_hash(&self, name: &str) -> bool {
        match self.locals.get(name) {
            Some(Decl::Hash) => true,
            Some(_) => false,
            None => self.symbols.is_hash(name),
        }
    }

    fn is_btree_only(&self, name: &str) -> bool {
        match self.locals.get(name) {
            Some(Decl::Btree) => true,
            Some(_) => false,
            None => self.symbols.is_btree_only(name),
        }
    }
}

/// A raw rule match before pragma resolution.
#[derive(Debug)]
pub(crate) struct RawMatch {
    pub(crate) rule: Rule,
    pub(crate) line: u32,
    pub(crate) message: String,
}

/// Lexical (per-file) rule matches. `symbols` must have been built over
/// the whole scan set.
pub(crate) fn lexical_matches(
    relpath: &str,
    lexed: &Lexed,
    symbols: &SymbolTable,
) -> Vec<RawMatch> {
    let class = classify(relpath);
    let tokens = &lexed.tokens;
    let names = NameClassifier::new(symbols, tokens);
    let test_ranges = test_item_ranges(tokens);
    let in_test =
        |i: usize| -> bool { class.section == Section::TestLike || in_ranges(&test_ranges, i) };
    let digest_src = |i: usize| -> bool {
        DIGEST_CRATES.contains(&class.krate.as_str())
            && class.section == Section::Src
            && !in_test(i)
    };

    let mut raw: Vec<RawMatch> = Vec::new();
    let push = |rule: Rule, line: u32, message: String, raw: &mut Vec<RawMatch>| {
        if !raw.iter().any(|m| m.rule == rule && m.line == line) {
            raw.push(RawMatch { rule, line, message });
        }
    };

    // --- nondet-iter ------------------------------------------------------
    for i in 0..tokens.len() {
        if !digest_src(i) {
            continue;
        }
        // Method calls: `.name(`.
        if tokens[i].is_punct(".")
            && i + 2 < tokens.len()
            && tokens[i + 1].kind == TokenKind::Ident
            && tokens[i + 2].is_punct("(")
        {
            let m = tokens[i + 1].text.as_str();
            let receiver = i
                .checked_sub(1)
                .map(|r| &tokens[r])
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.as_str());
            if ORDER_METHODS_ANY_RECEIVER.contains(&m) {
                let exempt = receiver.is_some_and(|r| names.is_btree_only(r));
                if !exempt {
                    push(
                        Rule::NondetIter,
                        tokens[i + 1].line,
                        format!("`.{m}()` observes hash-iteration order (receiver `{}`)",
                            receiver.unwrap_or("<expr>")),
                        &mut raw,
                    );
                }
            } else if ORDER_METHODS_KNOWN_RECEIVER.contains(&m) {
                if let Some(r) = receiver {
                    if names.is_hash(r) {
                        push(
                            Rule::NondetIter,
                            tokens[i + 1].line,
                            format!("`.{m}()` on `{r}`, which is HashMap/HashSet-typed in this workspace"),
                            &mut raw,
                        );
                    }
                }
            }
        }
        // `for … in <plain path ending in a hash-typed name> {`.
        if tokens[i].is_ident("for") {
            if let Some((line, name)) = for_in_hash_target(tokens, i, &names) {
                push(
                    Rule::NondetIter,
                    line,
                    format!("`for … in {name}` iterates a HashMap/HashSet-typed binding"),
                    &mut raw,
                );
            }
        }
    }

    // --- wall-clock -------------------------------------------------------
    if !WALL_CLOCK_CRATES.contains(&class.krate.as_str()) && !WALL_CLOCK_FILES.contains(&relpath) {
        for (i, t) in tokens.iter().enumerate() {
            if t.is_ident("Instant") || t.is_ident("SystemTime") {
                push(
                    Rule::WallClock,
                    t.line,
                    format!("`{}` outside crates/obs and crates/bench (use footsteps_obs spans/Stopwatch)", t.text),
                    &mut raw,
                );
            }
            if t.is_punct(".")
                && i + 2 < tokens.len()
                && tokens[i + 1].is_ident("elapsed")
                && tokens[i + 2].is_punct("(")
            {
                push(
                    Rule::WallClock,
                    tokens[i + 1].line,
                    "`.elapsed()` outside crates/obs and crates/bench".to_string(),
                    &mut raw,
                );
            }
        }
    }

    // --- ambient-rng ------------------------------------------------------
    if relpath != RNG_MODULE {
        for (i, t) in tokens.iter().enumerate() {
            if t.kind != TokenKind::Ident {
                continue;
            }
            if AMBIENT_RNG_BANNED.contains(&t.text.as_str()) {
                push(
                    Rule::AmbientRng,
                    t.line,
                    format!("`{}` is ambient randomness; derive streams via sim::rng", t.text),
                    &mut raw,
                );
            }
            // Raw seeding is how tests pin fixtures, so only non-test
            // product code is held to the sim::rng derivation.
            if t.text == "seed_from_u64" && !in_test(i) {
                push(
                    Rule::AmbientRng,
                    t.line,
                    "raw `seed_from_u64` outside sim::rng; derive seeds via RngFactory/decision_rng"
                        .to_string(),
                    &mut raw,
                );
            }
        }
    }

    // --- env-read ---------------------------------------------------------
    if class.krate != "obs" && !ENV_READ_FILES.contains(&relpath) {
        for i in 0..tokens.len() {
            if class.section != Section::Src || in_test(i) {
                continue;
            }
            if tokens[i].is_ident("env")
                && i + 2 < tokens.len()
                && tokens[i + 1].is_punct("::")
                && (tokens[i + 2].is_ident("var") || tokens[i + 2].is_ident("var_os"))
            {
                push(
                    Rule::EnvRead,
                    tokens[i + 2].line,
                    "`env::var` outside the designated config/obs entry points".to_string(),
                    &mut raw,
                );
            }
        }
    }

    raw
}

/// Apply pragmas to raw matches and report pragma problems.
pub(crate) fn resolve_pragmas(
    relpath: &str,
    source: &str,
    pragmas: &[Pragma],
    raw: Vec<RawMatch>,
) -> Vec<Finding> {
    let mut used = vec![false; pragmas.len()];
    let snippet = |line: u32| -> String {
        source
            .lines()
            .nth(line.saturating_sub(1) as usize)
            .unwrap_or("")
            .trim()
            .to_string()
    };

    let mut out: Vec<Finding> = Vec::new();
    let mut seen: Vec<(Rule, u32)> = Vec::new();
    for m in raw {
        if seen.contains(&(m.rule, m.line)) {
            continue;
        }
        seen.push((m.rule, m.line));
        let mut status = PragmaStatus::None;
        for (pi, p) in pragmas.iter().enumerate() {
            if p.covers != m.line || p.error.is_some() {
                continue;
            }
            if !p.rules.iter().any(|r| r == m.rule.name()) {
                continue;
            }
            match &p.reason {
                Some(reason) => {
                    status = PragmaStatus::Allowed(reason.clone());
                    used[pi] = true;
                }
                None => {
                    // Reason-less pragmas suppress nothing, but "used" is
                    // still marked so the error reported is the missing
                    // reason, not staleness.
                    status = PragmaStatus::None;
                    used[pi] = true;
                }
            }
            break;
        }
        out.push(Finding {
            rule: m.rule,
            file: relpath.to_string(),
            line: m.line,
            snippet: snippet(m.line),
            message: m.message,
            pragma: status,
        });
    }

    for (pi, p) in pragmas.iter().enumerate() {
        let (status, message) = if let Some(err) = &p.error {
            (PragmaStatus::Malformed(err.clone()), format!("malformed pragma: {err}"))
        } else if p.reason.is_none() {
            (
                PragmaStatus::MissingReason,
                "pragma without a reason; write `allow(<rule>) — <why this site is safe>`"
                    .to_string(),
            )
        } else if !used[pi] {
            (
                PragmaStatus::Unused,
                "stale pragma: it suppresses no finding on its line; remove it".to_string(),
            )
        } else {
            continue;
        };
        out.push(Finding {
            rule: Rule::Pragma,
            file: relpath.to_string(),
            line: p.line,
            snippet: snippet(p.line),
            message,
            pragma: status,
        });
    }

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// For a `for` keyword at `at`, return `(line, name)` when the iterated
/// expression is a plain path (`[&][mut] a.b::c.d`) whose final identifier
/// is hash-typed. Expressions containing calls, literals, or indexing are
/// left to the method-based detection.
fn for_in_hash_target(
    tokens: &[Token],
    at: usize,
    names: &NameClassifier<'_>,
) -> Option<(u32, String)> {
    // Locate `in` at pattern depth 0, bailing at `{`/`;` (e.g. `impl … for`).
    let mut depth = 0i32;
    let mut j = at + 1;
    let in_at = loop {
        let t = tokens.get(j)?;
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if (t.is_punct("{") || t.is_punct(";")) && depth <= 0 {
            return None;
        } else if t.is_ident("in") && depth == 0 {
            break j;
        }
        j += 1;
    };
    // Collect the expression up to the loop body `{`.
    let mut expr: Vec<&Token> = Vec::new();
    let mut k = in_at + 1;
    loop {
        let t = tokens.get(k)?;
        if t.is_punct("{") {
            break;
        }
        expr.push(t);
        k += 1;
    }
    let plain = expr.iter().all(|t| {
        t.kind == TokenKind::Ident || t.is_punct("&") || t.is_punct(".") || t.is_punct("::")
    });
    if !plain || expr.is_empty() {
        return None;
    }
    let last = expr.last()?;
    if last.kind == TokenKind::Ident && names.is_hash(&last.text) {
        Some((tokens[at].line, last.text.clone()))
    } else {
        None
    }
}
