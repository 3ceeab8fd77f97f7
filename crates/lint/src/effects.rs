//! The effect lattice and its transitive propagation over the call graph.
//!
//! Each product-code function gets a bitset of effects seeded from the
//! same token patterns the lexical detectors use (wall-clock idents,
//! ambient RNG constructors, `env::var`, observability tokens, panic
//! sites, hash-order iteration, float accumulation). Seeds are then
//! propagated over resolved call edges — the union over callees, iterated
//! to a fixpoint — so `plan_member → log_outcome → Instant::now` is
//! visible at `plan_member` even though the clock read lives two files
//! away. Each function records a *witness* (the seed or the first call
//! edge that introduced a bit), which is enough to reconstruct the full
//! chain printed in findings.
//!
//! Three deliberate asymmetries with the lexical rules:
//!
//! * files that are lexically *allowed* an effect (obs/bench for
//!   wall-clock, `sim::rng` for seeding, the env entry points) do not
//!   seed it — reaching a sanctioned helper is not a violation;
//! * a seed whose own line carries a valid pragma for the corresponding
//!   rule does not propagate: the annotation vouches for the site, and
//!   callers should not have to re-justify an audited sink;
//! * barrier functions ([`crate::rules::PANIC_FREE_FNS`], the canonical
//!   merge helpers) have the corresponding bit stripped after every
//!   round, so routing through them launders the effect by design.

use crate::graph::{CallGraph, FnId, Resolution};
use crate::lexer::{Lexed, Token, TokenKind};
use crate::rules::{self, NameClassifier, SymbolTable};

/// Bit indices of the effect lattice.
pub mod bits {
    /// `Instant`/`SystemTime`/`.elapsed()` outside the sanctioned crates.
    pub const WALL_CLOCK: u8 = 0;
    /// `thread_rng`/`from_entropy`/`from_rng`/raw `seed_from_u64`.
    pub const AMBIENT_RNG: u8 = 1;
    /// `env::var` / `env::var_os` outside the entry points.
    pub const ENV_READ: u8 = 2;
    /// Observability access (metrics/timings/trace/progress recorders).
    pub const METRICS_WRITE: u8 = 3;
    /// `unwrap`/`expect`/`panic!`-family reachability.
    pub const PANICS: u8 = 4;
    /// Order-observing iteration over hash containers.
    pub const ORDER_ITER: u8 = 5;
    /// `f32`/`f64` `+=` / `.sum::<f32|f64>()` accumulation.
    pub const FLOAT_ACCUM: u8 = 6;
    /// Number of bits in the lattice.
    pub const COUNT: usize = 7;
}

/// A small bitset over the effect lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Effects(pub u16);

impl Effects {
    /// Set one bit.
    pub fn set(&mut self, bit: u8) {
        self.0 |= 1 << bit;
    }

    /// Is one bit set?
    pub fn has(self, bit: u8) -> bool {
        self.0 & (1 << bit) != 0
    }

    /// Bits present in `self` but not in `other`.
    pub fn minus(self, other: Effects) -> Effects {
        Effects(self.0 & !other.0)
    }

    /// Union.
    pub fn union(self, other: Effects) -> Effects {
        Effects(self.0 | other.0)
    }

    /// No bits set?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterate over the set bit indices.
    pub fn iter(self) -> impl Iterator<Item = u8> {
        (0..bits::COUNT as u8).filter(move |b| self.has(*b))
    }

    /// Human-readable lattice name of one bit.
    pub fn name(bit: u8) -> &'static str {
        match bit {
            bits::WALL_CLOCK => "WallClock",
            bits::AMBIENT_RNG => "AmbientRng",
            bits::ENV_READ => "EnvRead",
            bits::METRICS_WRITE => "MetricsWrite",
            bits::PANICS => "Panics",
            bits::ORDER_ITER => "OrderSensitiveIter",
            _ => "FloatAccumOrder",
        }
    }
}

/// One effect seed found in a function body.
#[derive(Debug)]
pub struct Seed {
    /// Lattice bit.
    pub bit: u8,
    /// 1-based source line.
    pub line: u32,
    /// Token index (for shard-region membership tests).
    pub at: usize,
    /// Chain-terminal description (`Instant::now`, `.unwrap()`, …).
    pub desc: String,
    /// A valid pragma covers this line for the corresponding rule: the
    /// seed is still reported locally but does not propagate.
    pub allowed: bool,
}

/// Why a function carries a bit: its own seed, or the first call edge
/// that introduced it.
#[derive(Debug, Clone)]
pub enum Witness {
    /// Index into the function's own seed list.
    Seed(usize),
    /// Call edge: display label and the callee it came from.
    Call {
        /// Call-site display label.
        label: String,
        /// Callee the bit was inherited from.
        callee: FnId,
    },
}

/// Per-function effects after propagation, with witnesses and raw seeds.
#[derive(Debug)]
pub struct EffectTable {
    /// Fixpoint effects per function (pragma-allowed seeds excluded).
    pub effects: Vec<Effects>,
    /// All seeds per function, including pragma-allowed ones.
    pub seeds: Vec<Vec<Seed>>,
    /// Witness per function per bit, parallel to `effects`.
    pub witness: Vec<Vec<Option<Witness>>>,
    /// Propagation rounds until the fixpoint was reached.
    pub iterations: usize,
}

impl EffectTable {
    /// Reconstruct the call chain that gives `from` the bit, as display
    /// labels ending in the seed description. Empty if `from` lacks it.
    pub fn chain(&self, graph: &CallGraph, from: FnId, bit: u8) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = from;
        let mut hops = 0usize;
        loop {
            match &self.witness[cur][bit as usize] {
                Some(Witness::Seed(idx)) => {
                    out.push(self.seeds[cur][*idx].desc.clone());
                    break;
                }
                Some(Witness::Call { label, callee }) => {
                    out.push(label.clone());
                    cur = *callee;
                }
                None => break,
            }
            hops += 1;
            if hops > graph.fns.len() {
                break; // cycle guard; witnesses are acyclic by construction
            }
        }
        out
    }

    /// Does the barrier list strip `bit` from function `f`? (Used by the
    /// rule passes so own-body seeds of barrier functions are skipped.)
    pub fn barred(&self, graph: &CallGraph, relpaths: &[&str], f: FnId, bit: u8) -> bool {
        barrier(relpaths[graph.fns[f].file], &graph.fns[f]).has(bit)
    }
}

/// Bits stripped from a function after every propagation round.
fn barrier(relpath: &str, f: &crate::graph::FnDef) -> Effects {
    let mut out = Effects::default();
    if rules::CANONICAL_MERGE_FILES.contains(&relpath) {
        out.set(bits::FLOAT_ACCUM);
    }
    let display = f.display();
    if rules::PANIC_FREE_FNS.iter().any(|p| *p == f.name || *p == display) {
        out.set(bits::PANICS);
    }
    out
}

/// Compute seeds and propagate to a fixpoint. `refs` pairs each scanned
/// file's relative path with its lexed tokens; `seed_allowed(file, line,
/// bit)` reports whether a valid pragma covers the seed's line for the
/// bit's rule.
pub(crate) fn compute(
    graph: &CallGraph,
    refs: &[(&str, &Lexed)],
    symbols: &SymbolTable,
    seed_allowed: &dyn Fn(usize, u32, u8) -> bool,
) -> EffectTable {
    let classifiers: Vec<NameClassifier<'_>> =
        refs.iter().map(|(_, l)| NameClassifier::new(symbols, &l.tokens)).collect();

    let n = graph.fns.len();
    let mut effects = vec![Effects::default(); n];
    let mut seeds: Vec<Vec<Seed>> = Vec::with_capacity(n);
    let mut witness: Vec<Vec<Option<Witness>>> = vec![vec![None; bits::COUNT]; n];

    for (id, f) in graph.fns.iter().enumerate() {
        let (rel, lexed) = refs[f.file];
        let mut own = collect_seeds(rel, &lexed.tokens, f, &classifiers[f.file]);
        let bar = barrier(rel, f);
        for k in 0..own.len() {
            own[k].allowed = seed_allowed(f.file, own[k].line, own[k].bit);
            let bit = own[k].bit;
            if !own[k].allowed && !bar.has(bit) && !effects[id].has(bit) {
                effects[id].set(bit);
                witness[id][bit as usize] = Some(Witness::Seed(k));
            }
        }
        seeds.push(own);
    }

    // Fixpoint: union over resolved call edges, barriers re-applied each
    // round. Monotone over a finite lattice, so termination is immediate.
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        let mut changed = false;
        for id in 0..n {
            let bar = barrier(refs[graph.fns[id].file].0, &graph.fns[id]);
            for site in &graph.calls[id] {
                let Resolution::Resolved(cands) = &site.resolution else { continue };
                for &c in cands {
                    let new_bits = effects[c].minus(effects[id]).minus(bar);
                    if new_bits.is_empty() {
                        continue;
                    }
                    for bit in new_bits.iter() {
                        witness[id][bit as usize] =
                            Some(Witness::Call { label: site.label.clone(), callee: c });
                    }
                    effects[id] = effects[id].union(new_bits);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    EffectTable { effects, seeds, witness, iterations }
}

/// Chain-terminal description for an identifier seed: `Ident::next` when
/// the token starts a path, the bare text otherwise.
fn path_desc(tokens: &[Token], i: usize) -> String {
    if tokens.get(i + 1).is_some_and(|t| t.is_punct("::"))
        && tokens.get(i + 2).is_some_and(|t| t.kind == TokenKind::Ident)
    {
        format!("{}::{}", tokens[i].text, tokens[i + 2].text)
    } else {
        tokens[i].text.clone()
    }
}

/// Macro names whose invocation can panic (debug_assert* excluded: absent
/// in release, which is what the digest gate runs).
const PANIC_MACROS: &[&str] =
    &["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];

/// Scan one function body for effect seeds.
fn collect_seeds(
    relpath: &str,
    tokens: &[Token],
    f: &crate::graph::FnDef,
    names: &NameClassifier<'_>,
) -> Vec<Seed> {
    let mut out: Vec<Seed> = Vec::new();
    let Some((open, close)) = f.body else { return out };
    let class = crate::graph::classify(relpath);
    let wall_clock_ok = rules::WALL_CLOCK_CRATES.contains(&class.krate.as_str())
        || rules::WALL_CLOCK_FILES.contains(&relpath);
    let env_ok = class.krate == "obs" || rules::ENV_READ_FILES.contains(&relpath);
    let metrics_src = rules::OBS_RECORDING_FILES.contains(&relpath);
    let push = |bit: u8, line: u32, at: usize, desc: String, out: &mut Vec<Seed>| {
        if !out.iter().any(|s| s.bit == bit && s.at == at) {
            out.push(Seed { bit, line, at, desc, allowed: false });
        }
    };

    // Functions defined in the obs recording modules *are* the metrics
    // sink: give them the bit at their own definition so a shard calling
    // `reg.incr(…)` through any binding name is caught.
    if metrics_src {
        push(
            bits::METRICS_WRITE,
            f.line,
            f.sig,
            format!("{} (obs recorder)", f.display()),
            &mut out,
        );
    }

    for i in (open + 1)..close {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident {
            if !wall_clock_ok && (t.text == "Instant" || t.text == "SystemTime") {
                push(bits::WALL_CLOCK, t.line, i, path_desc(tokens, i), &mut out);
            }
            if relpath != rules::RNG_MODULE {
                if rules::AMBIENT_RNG_BANNED.contains(&t.text.as_str()) {
                    push(bits::AMBIENT_RNG, t.line, i, t.text.clone(), &mut out);
                }
                if t.text == "seed_from_u64" {
                    push(bits::AMBIENT_RNG, t.line, i, "seed_from_u64".to_string(), &mut out);
                }
            }
            if !env_ok
                && t.text == "env"
                && tokens.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && tokens
                    .get(i + 2)
                    .is_some_and(|n| n.is_ident("var") || n.is_ident("var_os"))
            {
                push(bits::ENV_READ, tokens[i + 2].line, i + 2, "env::var".to_string(), &mut out);
            }
            if !metrics_src && rules::OBS_TOKENS.contains(&t.text.as_str()) {
                push(bits::METRICS_WRITE, t.line, i, format!("`{}`", t.text), &mut out);
            }
            if PANIC_MACROS.contains(&t.text.as_str())
                && tokens.get(i + 1).is_some_and(|n| n.is_punct("!"))
            {
                push(bits::PANICS, t.line, i, format!("{}!", t.text), &mut out);
            }
        }
        // `.unwrap(` / `.expect(` / `.elapsed(` / order-observing methods.
        if t.is_punct(".")
            && tokens.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident)
            && tokens.get(i + 2).is_some_and(|n| n.is_punct("("))
        {
            let m = tokens[i + 1].text.as_str();
            let line = tokens[i + 1].line;
            if m == "unwrap" || m == "expect" {
                push(bits::PANICS, line, i + 1, format!(".{m}()"), &mut out);
            }
            if !wall_clock_ok && m == "elapsed" {
                push(bits::WALL_CLOCK, line, i + 1, ".elapsed()".to_string(), &mut out);
            }
            let receiver = i
                .checked_sub(1)
                .map(|r| &tokens[r])
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.as_str());
            if rules::ORDER_METHODS_ANY_RECEIVER.contains(&m) {
                if !receiver.is_some_and(|r| names.is_btree_only(r)) {
                    push(bits::ORDER_ITER, line, i + 1, format!(".{m}()"), &mut out);
                }
            } else if rules::ORDER_METHODS_KNOWN_RECEIVER.contains(&m)
                && receiver.is_some_and(|r| names.is_hash(r))
            {
                push(bits::ORDER_ITER, line, i + 1, format!(".{m}()"), &mut out);
            }
            // `.sum::<f32|f64>()` — but the pattern above requires `(`
            // right after the ident, so the turbofish form is separate.
        }
        if t.is_punct(".")
            && tokens.get(i + 1).is_some_and(|n| n.is_ident("sum"))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct("::"))
            && tokens
                .get(i + 4)
                .is_some_and(|n| n.is_ident("f32") || n.is_ident("f64"))
        {
            push(
                bits::FLOAT_ACCUM,
                tokens[i + 1].line,
                i + 1,
                format!(".sum::<{}>()", tokens[i + 4].text),
                &mut out,
            );
        }
        // `for … in <hash-typed binding>`.
        if t.is_ident("for") {
            if let Some((line, name)) =
                rules::for_in_hash_target(tokens, i, &|n| names.is_hash(n))
            {
                push(bits::ORDER_ITER, line, i, format!("for … in {name}"), &mut out);
            }
        }
        // Float accumulation: `lhs += …` where `lhs` is exclusively
        // float-declared in scope.
        if t.is_punct("+")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("="))
            && i > 0
            && tokens[i - 1].kind == TokenKind::Ident
            && names.is_float(&tokens[i - 1].text)
        {
            push(
                bits::FLOAT_ACCUM,
                t.line,
                i,
                format!("`{} +=` (f32/f64)", tokens[i - 1].text),
                &mut out,
            );
        }
    }
    out
}
