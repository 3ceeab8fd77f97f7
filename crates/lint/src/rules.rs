//! The repo-specific rules: lexical token patterns plus the
//! interprocedural deny scopes built on [`crate::graph`] and
//! [`crate::effects`].
//!
//! Every lexical rule is a token-level pattern over [`crate::lexer`]
//! output plus a scope (which crates/sections/test-ness it applies to).
//! The rules encode the workspace's determinism contract (DESIGN.md §6):
//! the golden digest `0xce8aeb34fb9fe096` must be byte-identical on every
//! run, which only holds if no order-observing map iteration, ambient
//! time, ambient randomness, or metrics recording inside a plan path
//! sneaks into the simulation path.
//!
//! On top of the lexical layer, the shard deny scopes (the plan paths of
//! [`PLAN_FNS`], and `plan_parallel`'s threads) are *transitive*:
//! effects seeded by the same detectors are propagated over the
//! workspace call graph, so a helper that reads the wall clock and is
//! called from `plan_member` is flagged at the call site with its full
//! chain (`plan_member → log_outcome → Instant::now`).
//!
//! Heuristics, stated honestly: without type inference we cannot prove a
//! receiver is a `HashMap`. The engine therefore resolves receiver names
//! in two layers: a workspace-global table of *field* declarations
//! (`name: HashMap<..>` outside parentheses — so a hash field declared
//! in `sim` and iterated from `aas` is still caught), shadowed by a
//! per-file table of every local declaration — so a `Vec`-typed field
//! that merely shares its name with a hash field in some other crate is
//! not flagged. The call graph documents its own approximations in
//! [`crate::graph`]; `--stats` makes the unresolved remainder auditable.

use crate::effects::{bits, Effects, EffectTable};
use crate::graph::{
    after_let, classify, matching, test_item_ranges, type_after_colon, CallGraph, Resolution,
    Section,
};
use crate::lexer::{Lexed, Token, TokenKind};
use crate::pragma::Pragma;

/// Crates whose `src` feeds the golden digest: order-observing iteration
/// over hash containers there is a correctness bug unless proven safe.
/// `sweep` is held to the same bar — its checkpoint/resume and aggregation
/// paths must reproduce the per-seed digests byte for byte. `stream` too:
/// its verdict snapshot must replay byte-identically from a recorded log.
pub const DIGEST_CRATES: &[&str] =
    &["sim", "aas", "detect", "intervene", "analysis", "core", "sweep", "stream"];

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
/// `FOOTSTEPS_THREADS` entry point and the bench harness's scenario
/// selection (`FOOTSTEPS_SEED`/`FOOTSTEPS_SMOKE`).
/// (`FOOTSTEPS_TRACE_OUT`/`FOOTSTEPS_QUIET` live in `crates/obs`;
/// `FOOTSTEPS_PERF_TOLERANCE` is read by `scripts/ci.sh`, not Rust code.)
pub const ENV_READ_FILES: &[&str] =
    &["crates/core/src/scenario.rs", "crates/bench/src/lib.rs"];

/// Files allowed to contain `unsafe`. Deliberately empty — every crate
/// also carries `#![forbid(unsafe_code)]`; the lint is the belt to that
/// braces, and catches files the compiler attribute does not cover yet.
pub const UNSAFE_ALLOWLIST: &[&str] = &[];

/// Function names forming the shard paths: `plan_parallel`, whose
/// argument closures run on scoped threads (it renders the report's
/// sections), and the daily engine's plan paths. Those are the decision
/// phase (`plan_customer`, `plan_member`) and the collusion route phase
/// (`route_day`). They run on the study's thread,
/// but stay pure: a plan draws only from its account's own stream, and
/// the route output feeds the digest and must stay metrics-free so
/// plan/route moves never change the snapshot. The apply phase records
/// its metrics inline and is not listed. The bodies of these functions,
/// plus every argument list of a `plan_parallel(...)` call, must not
/// *reach* — directly or through any resolved call chain — observability
/// state, wall-clock, ambient RNG, environment reads, panic sites, or
/// order-observing iteration.
pub const PLAN_FNS: &[&str] = &[
    "plan_parallel",
    "plan_customer",
    "plan_member",
    "route_day",
];

/// Identifiers that indicate observability access inside a shard path.
pub(crate) const OBS_TOKENS: &[&str] = &[
    "footsteps_obs",
    "obs",
    "metrics",
    "timings",
    "trace",
    "progress",
    "Recorder",
];

/// Files whose functions *are* the metrics sink: calling into them from a
/// shard path is a `parallel-metrics` violation regardless of the binding
/// name at the call site. `span.rs` (Stopwatch/spans) is deliberately
/// absent — worker wall-time flows through it into quarantined
/// `TimingsSnapshot` lanes by design (DESIGN.md §5).
pub(crate) const OBS_RECORDING_FILES: &[&str] = &[
    "crates/obs/src/registry.rs",
    "crates/obs/src/progress.rs",
];

/// Functions declared panic-free for the `panic-in-shard` rule: their
/// `unwrap`/`expect`/macro sites are vetted (documented at the
/// definition) and the effect is stripped before propagation. Entries
/// are bare names or `Type::name` displays.
///
/// * `stable_bin` — asserts `bins > 0`; every product call site passes
///   the `NUM_BINS` constant (10), so the assert is an input-validation
///   invariant that cannot fire from a shard path.
pub const PANIC_FREE_FNS: &[&str] = &["stable_bin"];

/// Files holding the canonical-order merge helpers: float accumulation
/// there defines the reference summation order (`analysis::stats`
/// Welford/mean helpers), so the `float-accum-order` effect is stripped.
pub const CANONICAL_MERGE_FILES: &[&str] = &["crates/analysis/src/stats.rs"];

/// Function names forming the merge paths checked by `float-accum-order`
/// (the Welford and per-frame/per-seed `merge` folds): float accumulation
/// in (or reachable from) them must be routed through
/// [`CANONICAL_MERGE_FILES`].
pub const FLOAT_MERGE_FNS: &[&str] = &["merge"];

pub(crate) const AMBIENT_RNG_BANNED: &[&str] = &["thread_rng", "from_entropy", "from_rng"];
pub(crate) const ORDER_METHODS_ANY_RECEIVER: &[&str] =
    &["keys", "values", "values_mut", "into_keys", "into_values"];
pub(crate) const ORDER_METHODS_KNOWN_RECEIVER: &[&str] =
    &["iter", "iter_mut", "into_iter", "drain"];

/// Primitive type names recorded in declaration tables (so a local
/// `count: u64` both shadows a global hash name and proves non-float).
const PRIMITIVES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    "bool", "char", "str",
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
    /// Observability access inside a shard path ([`PLAN_FNS`]).
    ParallelMetrics,
    /// `unwrap`/`expect`/`panic!` reachable from a shard path ([`PLAN_FNS`]).
    PanicInShard,
    /// Float accumulation in a merge path outside the canonical helpers.
    FloatAccumOrder,
    /// `unsafe` outside the (empty) allowlist.
    UnsafeCode,
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
        Rule::ParallelMetrics,
        Rule::PanicInShard,
        Rule::FloatAccumOrder,
        Rule::UnsafeCode,
        Rule::Pragma,
    ];

    /// The kebab-case name used in pragmas, findings, and docs.
    pub fn name(&self) -> &'static str {
        match self {
            Rule::NondetIter => "nondet-iter",
            Rule::WallClock => "wall-clock",
            Rule::AmbientRng => "ambient-rng",
            Rule::EnvRead => "env-read",
            Rule::ParallelMetrics => "parallel-metrics",
            Rule::PanicInShard => "panic-in-shard",
            Rule::FloatAccumOrder => "float-accum-order",
            Rule::UnsafeCode => "unsafe-code",
            Rule::Pragma => "pragma",
        }
    }
}

/// One `--explain` entry; the same table feeds DESIGN.md §6.
#[derive(Debug)]
pub struct RuleDoc {
    /// The rule.
    pub rule: Rule,
    /// Why the rule exists (ties back to the determinism contract).
    pub rationale: &'static str,
    /// Where it applies.
    pub scope: &'static str,
    /// A pragma example with the mandatory reason.
    pub pragma: &'static str,
}

/// Rationale / scope / pragma example for every rule.
pub const EXPLANATIONS: &[RuleDoc] = &[
    RuleDoc {
        rule: Rule::NondetIter,
        rationale: "Hash-container iteration order varies across runs and platforms; any \
                    order-observing loop in digest code can change the golden digest.",
        scope: "src of the digest crates (sim, aas, detect, intervene, analysis, core, sweep), \
                outside tests; also transitively from the shard paths.",
        pragma: "// footsteps-lint: allow(nondet-iter) — feeds an order-insensitive sum",
    },
    RuleDoc {
        rule: Rule::WallClock,
        rationale: "Instant/SystemTime outside the observability crates lets timing leak into \
                    results; all timing flows through footsteps_obs spans/Stopwatch.",
        scope: "every crate except obs and bench (plus sweep's manifest stamps); transitively \
                from the shard paths.",
        pragma: "// footsteps-lint: allow(wall-clock) — log stamp, never feeds a digest",
    },
    RuleDoc {
        rule: Rule::AmbientRng,
        rationale: "thread_rng/from_entropy draw from process state; every stream must derive \
                    from the scenario seed via sim::rng so reruns replay bit-for-bit.",
        scope: "everywhere except crates/sim/src/rng.rs (raw seed_from_u64 allowed in tests); \
                transitively from the shard paths.",
        pragma: "// footsteps-lint: allow(ambient-rng) — test-only fixture pin",
    },
    RuleDoc {
        rule: Rule::EnvRead,
        rationale: "env::var makes behaviour depend on ambient process state; reads are \
                    confined to the FOOTSTEPS_* entry points.",
        scope: "src outside crates/obs, core::scenario, and the bench harness; transitively \
                from the shard paths.",
        pragma: "// footsteps-lint: allow(env-read) — documented FOOTSTEPS_* entry point",
    },
    RuleDoc {
        rule: Rule::ParallelMetrics,
        rationale: "Metrics/timings recording on plan_parallel's threads would make snapshots \
                    depend on thread interleaving, and inside plan_customer, plan_member or \
                    route_day it would tie the snapshot to how a day is planned and routed; \
                    callers record around these calls instead.",
        scope: "the body of plan_parallel and its argument lists, and the bodies of \
                plan_customer, plan_member and route_day, in digest-crate src, including \
                everything they reach through the call graph.",
        pragma: "// footsteps-lint: allow(parallel-metrics via log_outcome) — counter merged serially after join",
    },
    RuleDoc {
        rule: Rule::PanicInShard,
        rationale: "A panic inside plan_parallel's std::thread::scope poisons the whole scope; \
                    plan_customer, plan_member and route_day are held to the same bar, so a \
                    plan path returns errors instead of aborting the run mid-sweep. Indexing \
                    is exempt (bounds are invariants); PANIC_FREE_FNS lists vetted helpers.",
        scope: "unwrap/expect/panic!-family sites in, or reachable from, plan_parallel's body \
                and argument lists and the plan/route functions in digest-crate src.",
        pragma: "// footsteps-lint: allow(panic-in-shard) — join() surfaces worker panics, by design",
    },
    RuleDoc {
        rule: Rule::FloatAccumOrder,
        rationale: "Float addition is not associative: folding partial results (per-seed \
                    aggregates, Welford states) in another order would change digests. All \
                    float accumulation in merge paths goes through the canonical-order helpers \
                    in analysis::stats.",
        scope: "merge functions in digest-crate and obs src, and everything they reach, \
                except crates/analysis/src/stats.rs.",
        pragma: "// footsteps-lint: allow(float-accum-order) — single-shard path, order fixed",
    },
    RuleDoc {
        rule: Rule::UnsafeCode,
        rationale: "The workspace is #![forbid(unsafe_code)]; the lint is the belt to that \
                    braces for files the attribute does not cover yet.",
        scope: "every scanned file (the allowlist is empty).",
        pragma: "// footsteps-lint: allow(unsafe-code) — vetted FFI shim",
    },
    RuleDoc {
        rule: Rule::Pragma,
        rationale: "Pragmas are the in-source audit trail; reason-less, malformed, or stale \
                    annotations would rot into silent blanket waivers.",
        scope: "every footsteps-lint pragma comment.",
        pragma: "(not suppressible — fix the pragma instead)",
    },
];

/// Pragma situation of a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PragmaStatus {
    /// No applicable pragma: the finding is a violation.
    None,
    /// Suppressed by a valid pragma (reason recorded). Not a violation, but
    /// still reported in `--json` so annotations stay auditable.
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
    /// For transitive findings, the call chain from the shard root to the
    /// seed (`["plan_member", "log_outcome", "Instant::now"]`); empty for
    /// lexical findings.
    pub chain: Vec<String>,
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
    /// `f32` / `f64`: accumulation order changes the result.
    Float,
    /// Any other concrete type: known not-a-hash, known not-a-float.
    Other,
}

fn container_class(ty: &str) -> Option<Decl> {
    match ty {
        "HashMap" | "HashSet" => Some(Decl::Hash),
        "BTreeMap" | "BTreeSet" => Some(Decl::Btree),
        "f32" | "f64" => Some(Decl::Float),
        _ => None,
    }
}

/// Hash beats btree beats float beats other when one name is declared
/// several ways in the same file (conservative: the use gets flagged).
fn decl_rank(d: Decl) -> u8 {
    match d {
        Decl::Hash => 3,
        Decl::Btree => 2,
        Decl::Float => 1,
        Decl::Other => 0,
    }
}

/// Workspace-global table of *field* names declared with hash / btree /
/// float types: `name: HashMap<..>` at parenthesis depth zero and not
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
    float_names: Vec<String>,
    nonfloat_names: Vec<String>,
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
            match container_class(&ty.text) {
                Some(Decl::Hash) => {
                    if !self.hash_names.contains(&t.text) {
                        self.hash_names.push(t.text.clone());
                    }
                }
                Some(Decl::Btree) => {
                    if !self.btree_names.contains(&t.text) {
                        self.btree_names.push(t.text.clone());
                    }
                }
                Some(Decl::Float) => {
                    if !self.float_names.contains(&t.text) {
                        self.float_names.push(t.text.clone());
                    }
                }
                _ => {
                    if !self.nonfloat_names.contains(&t.text) {
                        self.nonfloat_names.push(t.text.clone());
                    }
                }
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

    /// Declared `f32`/`f64` somewhere and never anything else.
    fn is_float_exclusive(&self, name: &str) -> bool {
        self.float_names.iter().any(|n| n == name)
            && !self.nonfloat_names.iter().any(|n| n == name)
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
                    if d != Decl::Float {
                        table.record(&t.text, d);
                    }
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

/// Per-file name classifier shared by the lexical rules and the effect
/// seeding: local declarations shadow the global field table.
#[derive(Debug)]
pub(crate) struct NameClassifier<'a> {
    symbols: &'a SymbolTable,
    locals: LocalTable,
}

impl<'a> NameClassifier<'a> {
    pub(crate) fn new(symbols: &'a SymbolTable, tokens: &[Token]) -> Self {
        NameClassifier { symbols, locals: local_table(tokens) }
    }

    pub(crate) fn is_hash(&self, name: &str) -> bool {
        match self.locals.get(name) {
            Some(Decl::Hash) => true,
            Some(_) => false,
            None => self.symbols.is_hash(name),
        }
    }

    pub(crate) fn is_btree_only(&self, name: &str) -> bool {
        match self.locals.get(name) {
            Some(Decl::Btree) => true,
            Some(_) => false,
            None => self.symbols.is_btree_only(name),
        }
    }

    pub(crate) fn is_float(&self, name: &str) -> bool {
        match self.locals.get(name) {
            Some(Decl::Float) => true,
            Some(_) => false,
            None => self.symbols.is_float_exclusive(name),
        }
    }
}

/// A raw rule match before pragma resolution.
#[derive(Debug)]
pub(crate) struct RawMatch {
    pub(crate) rule: Rule,
    pub(crate) line: u32,
    pub(crate) message: String,
    pub(crate) chain: Vec<String>,
}

/// The deny rule a transitively-reached effect maps to inside a shard
/// path. `FLOAT_ACCUM` has its own root set, so it is not a shard rule.
pub(crate) fn deny_rule(bit: u8) -> Option<Rule> {
    match bit {
        bits::WALL_CLOCK => Some(Rule::WallClock),
        bits::AMBIENT_RNG => Some(Rule::AmbientRng),
        bits::ENV_READ => Some(Rule::EnvRead),
        bits::METRICS_WRITE => Some(Rule::ParallelMetrics),
        bits::PANICS => Some(Rule::PanicInShard),
        bits::ORDER_ITER => Some(Rule::NondetIter),
        _ => None,
    }
}

/// The rule a pragma must name to stop a *seed* from propagating.
pub(crate) fn seed_rule(bit: u8) -> Rule {
    deny_rule(bit).unwrap_or(Rule::FloatAccumOrder)
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
            raw.push(RawMatch { rule, line, message, chain: Vec::new() });
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
            if let Some((line, name)) =
                for_in_hash_target(tokens, i, &|n| names.is_hash(n))
            {
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

    // --- parallel-metrics -------------------------------------------------
    if DIGEST_CRATES.contains(&class.krate.as_str()) && class.section == Section::Src {
        for (s, e) in plan_regions(tokens) {
            for i in s..=e.min(tokens.len().saturating_sub(1)) {
                if in_test(i) {
                    continue;
                }
                let t = &tokens[i];
                if t.kind == TokenKind::Ident && OBS_TOKENS.contains(&t.text.as_str()) {
                    push(
                        Rule::ParallelMetrics,
                        t.line,
                        format!("`{}` inside a parallel decision-phase shard path; metrics/timings are serial-only", t.text),
                        &mut raw,
                    );
                }
            }
        }
    }

    // --- unsafe-code ------------------------------------------------------
    if !UNSAFE_ALLOWLIST.contains(&relpath) {
        for t in tokens {
            if t.is_ident("unsafe") {
                push(
                    Rule::UnsafeCode,
                    t.line,
                    "`unsafe` outside the allowlist".to_string(),
                    &mut raw,
                );
            }
        }
    }

    raw
}

/// Interprocedural matches: transitive effect reach from the shard roots,
/// own-body panic sites in shard roots, and float accumulation in the
/// merge paths. Returns `(file index, match)` pairs.
pub(crate) fn graph_matches(
    graph: &CallGraph,
    table: &EffectTable,
    refs: &[(&str, &Lexed)],
) -> Vec<(usize, RawMatch)> {
    let relpaths: Vec<&str> = refs.iter().map(|(rel, _)| *rel).collect();
    let mut out: Vec<(usize, RawMatch)> = Vec::new();
    for (id, f) in graph.fns.iter().enumerate() {
        let rel = relpaths[f.file];
        let class = classify(rel);
        let tokens = &refs[f.file].1.tokens;
        let digest_src =
            DIGEST_CRATES.contains(&class.krate.as_str()) && class.section == Section::Src;

        // Shard regions owned by this function: its own body when it is a
        // shard function, plus any `plan_parallel(...)` argument lists
        // (which hold the per-item closures).
        let mut regions: Vec<(usize, usize)> = Vec::new();
        if digest_src {
            if let Some(body) = f.body {
                if PLAN_FNS.contains(&f.name.as_str()) {
                    regions.push(body);
                }
                for i in (body.0 + 1)..body.1 {
                    if tokens[i].is_ident("plan_parallel")
                        && tokens.get(i + 1).is_some_and(|n| n.is_punct("("))
                    {
                        if let Some(end) = matching(tokens, i + 1, "(", ")") {
                            regions.push((i + 1, end));
                        }
                    }
                }
            }
        }
        let in_region =
            |at: usize| regions.iter().any(|&(s, e)| at > s && at < e);

        if !regions.is_empty() {
            // Transitive reach through resolved call edges.
            for site in &graph.calls[id] {
                if !in_region(site.at) {
                    continue;
                }
                let Resolution::Resolved(cands) = &site.resolution else { continue };
                let mut union = Effects::default();
                for &c in cands {
                    union = union.union(table.effects[c]);
                }
                for bit in union.iter() {
                    let Some(rule) = deny_rule(bit) else { continue };
                    let &c = cands
                        .iter()
                        .find(|&&c| table.effects[c].has(bit))
                        .expect("bit came from the union");
                    let mut chain = vec![f.display(), site.label.clone()];
                    chain.extend(table.chain(graph, c, bit));
                    let message = format!(
                        "shard path reaches {} via {}",
                        Effects::name(bit),
                        chain.join(" → ")
                    );
                    out.push((f.file, RawMatch { rule, line: site.line, message, chain }));
                }
            }
            // Own-body panic sites: `panic-in-shard` is purely graph-based,
            // so depth-0 seeds are reported here (the other effects'
            // depth-0 sites belong to the lexical rules).
            if !table.barred(graph, &relpaths, id, bits::PANICS) {
                for s in &table.seeds[id] {
                    if s.bit != bits::PANICS || !in_region(s.at) {
                        continue;
                    }
                    let chain = vec![f.display(), s.desc.clone()];
                    out.push((
                        f.file,
                        RawMatch {
                            rule: Rule::PanicInShard,
                            line: s.line,
                            message: format!(
                                "{} in a shard path ({}): plan paths and plan_parallel's \
                                 workers must not panic",
                                s.desc,
                                chain.join(" → ")
                            ),
                            chain,
                        },
                    ));
                }
            }
        }

        // --- float-accum-order ---------------------------------------
        let float_scope = (DIGEST_CRATES.contains(&class.krate.as_str())
            || class.krate == "obs")
            && class.section == Section::Src;
        if float_scope
            && FLOAT_MERGE_FNS.contains(&f.name.as_str())
            && !CANONICAL_MERGE_FILES.contains(&rel)
        {
            for s in &table.seeds[id] {
                if s.bit != bits::FLOAT_ACCUM {
                    continue;
                }
                let chain = vec![f.display(), s.desc.clone()];
                out.push((
                    f.file,
                    RawMatch {
                        rule: Rule::FloatAccumOrder,
                        line: s.line,
                        message: format!(
                            "{} in merge path `{}`: float accumulation outside the \
                             canonical-order helpers (analysis::stats) is order-sensitive",
                            s.desc,
                            f.display()
                        ),
                        chain,
                    },
                ));
            }
            for site in &graph.calls[id] {
                let Resolution::Resolved(cands) = &site.resolution else { continue };
                let Some(&c) =
                    cands.iter().find(|&&c| table.effects[c].has(bits::FLOAT_ACCUM))
                else {
                    continue;
                };
                let mut chain = vec![f.display(), site.label.clone()];
                chain.extend(table.chain(graph, c, bits::FLOAT_ACCUM));
                out.push((
                    f.file,
                    RawMatch {
                        rule: Rule::FloatAccumOrder,
                        line: site.line,
                        message: format!(
                            "merge path reaches order-sensitive float accumulation via {}",
                            chain.join(" → ")
                        ),
                        chain,
                    },
                ));
            }
        }
    }
    out
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
            let applies = p.rules.iter().any(|spec| {
                spec.rule == m.rule.name()
                    && match &spec.via {
                        None => true,
                        Some(via) => m.chain.iter().any(|link| {
                            link == via
                                || link.ends_with(&format!("::{via}"))
                                || link.starts_with(&format!("{via}::"))
                        }),
                    }
            });
            if !applies {
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
            chain: m.chain,
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
            chain: Vec::new(),
            pragma: status,
        });
    }

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Token ranges of the shard paths: bodies of [`PLAN_FNS`] functions and
/// the argument lists of `plan_parallel(...)` calls (which contain the
/// per-item closures).
fn plan_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].is_ident("fn")
            && i + 1 < tokens.len()
            && PLAN_FNS.contains(&tokens[i + 1].text.as_str())
        {
            // Find the body `{` at bracket depth 0, then its match.
            let mut depth = 0i32;
            let mut j = i + 2;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct("(") || t.is_punct("[") {
                    depth += 1;
                } else if t.is_punct(")") || t.is_punct("]") {
                    depth -= 1;
                } else if t.is_punct("{") && depth == 0 {
                    if let Some(end) = matching(tokens, j, "{", "}") {
                        out.push((j, end));
                    }
                    break;
                } else if t.is_punct(";") && depth == 0 {
                    break;
                }
                j += 1;
            }
        }
        if tokens[i].is_ident("plan_parallel")
            && i + 1 < tokens.len()
            && tokens[i + 1].is_punct("(")
        {
            if let Some(end) = matching(tokens, i + 1, "(", ")") {
                out.push((i + 1, end));
            }
        }
    }
    out
}

/// For a `for` keyword at `at`, return `(line, name)` when the iterated
/// expression is a plain path (`[&][mut] a.b::c.d`) whose final identifier
/// is hash-typed. Expressions containing calls, literals, or indexing are
/// left to the method-based detection.
pub(crate) fn for_in_hash_target(
    tokens: &[Token],
    at: usize,
    is_hash: &dyn Fn(&str) -> bool,
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
    if last.kind == TokenKind::Ident && is_hash(&last.text) {
        Some((tokens[at].line, last.text.clone()))
    } else {
        None
    }
}
