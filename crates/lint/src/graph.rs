//! Workspace symbol table and call graph, built from lexed token streams.
//!
//! The interprocedural rules (DESIGN.md §6) need to know *what calls what*
//! so effects seeded by the lexical detectors can be propagated
//! transitively: a helper that reads the wall clock and is called from
//! `plan_member` is a violation even though neither file shows the whole
//! story. Without `syn` the graph is a token-level approximation; its
//! resolution policy is deliberately explicit so coverage is auditable
//! via `--stats`:
//!
//! * free calls `f(...)` resolve to free functions — same file first,
//!   then same crate, then anywhere in the workspace;
//! * `Type::m(...)` and `recv.m(...)` with a known receiver type (from the
//!   per-function variable/parameter table, or `self`) resolve to that
//!   type's inherent and trait-impl methods;
//! * `Trait::m(...)` / `dyn Trait` receivers conservatively merge *every*
//!   `impl Trait for _` method of that name (counted as trait-merged);
//! * method calls on unknown receivers resolve only when exactly one
//!   method of that name exists in the workspace; more than one is
//!   **unresolved** — treated as no-effect but counted, so the gap is
//!   visible in `--stats`;
//! * everything else (std, `vendor/` work-alikes, macros) is **opaque**:
//!   assumed effect-free, never an error.
//!
//! Only product code (`crates/<k>/src`, outside `#[test]`/`#[cfg(test)]`
//! items) is indexed; test-like sections never contribute nodes or edges.

use crate::lexer::{Lexed, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// Where a file sits in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// `crates/<k>/src` — product code.
    Src,
    /// `crates/<k>/{tests,examples,benches}` or the `tests/` member.
    TestLike,
}

/// Crate + section of one scanned file.
#[derive(Debug)]
pub struct FileClass {
    /// Crate name (`"tests"` for the integration member).
    pub krate: String,
    /// Product code or test-like.
    pub section: Section,
}

/// Classify a workspace-relative path.
pub fn classify(relpath: &str) -> FileClass {
    let parts: Vec<&str> = relpath.split('/').collect();
    match parts.as_slice() {
        ["crates", k, "src", ..] => FileClass { krate: (*k).to_string(), section: Section::Src },
        ["crates", k, ..] => FileClass { krate: (*k).to_string(), section: Section::TestLike },
        _ => FileClass { krate: "tests".to_string(), section: Section::TestLike },
    }
}

/// Index of the token matching the opener at `open_at` (which must hold
/// `open`), honouring nesting.
pub fn matching(tokens: &[Token], open_at: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in tokens.iter().enumerate().skip(open_at) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Token-index ranges of items marked `#[test]` / `#[cfg(test)]` (and any
/// `cfg` attribute mentioning `test`, e.g. `cfg(all(test, unix))`). A
/// file-level inner `#![cfg(test)]` (modules included via `mod x;`, like
/// `sim::proptests`) marks the whole file.
pub fn test_item_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    // Inner attributes first: `#![cfg(test)]` anywhere gates the file.
    let mut i = 0usize;
    while i + 3 < tokens.len() {
        if tokens[i].is_punct("#") && tokens[i + 1].is_punct("!") && tokens[i + 2].is_punct("[")
        {
            if let Some(end) = matching(tokens, i + 2, "[", "]") {
                let attr = &tokens[i + 3..end];
                if attr.first().is_some_and(|t| t.is_ident("cfg"))
                    && attr.iter().any(|t| t.is_ident("test"))
                {
                    return vec![(0, tokens.len().saturating_sub(1))];
                }
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }

    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !(tokens[i].is_punct("#") && i + 1 < tokens.len() && tokens[i + 1].is_punct("[")) {
            i += 1;
            continue;
        }
        let attr_start = i;
        let Some(attr_end) = matching(tokens, i + 1, "[", "]") else {
            break;
        };
        let attr = &tokens[i + 2..attr_end];
        let is_test_attr = match attr.first() {
            Some(t) if t.is_ident("test") => attr.len() == 1,
            Some(t) if t.is_ident("cfg") => attr.iter().any(|t| t.is_ident("test")),
            _ => false,
        };
        if !is_test_attr {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes, then span the annotated item.
        let mut j = attr_end + 1;
        while j + 1 < tokens.len() && tokens[j].is_punct("#") && tokens[j + 1].is_punct("[") {
            match matching(tokens, j + 1, "[", "]") {
                Some(e) => j = e + 1,
                None => break,
            }
        }
        let mut depth = 0i32;
        let mut end = tokens.len().saturating_sub(1);
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            } else if t.is_punct("{") && depth == 0 {
                end = matching(tokens, j, "{", "}").unwrap_or(end);
                break;
            } else if t.is_punct(";") && depth == 0 {
                end = j;
                break;
            }
            j += 1;
        }
        out.push((attr_start, end));
        i = end + 1;
    }
    out
}

/// Resolve the type identifier that follows a declaration `:`: skip
/// `&`/`mut`/`dyn`/`impl`/lifetime noise, then follow the path
/// (`std::collections::HashMap<..>`) to its final segment before any
/// generics.
pub fn type_after_colon(tokens: &[Token], colon: usize) -> Option<&Token> {
    let mut j = colon + 1;
    while tokens.get(j).is_some_and(|t| {
        t.is_punct("&")
            || t.is_ident("mut")
            || t.is_ident("dyn")
            || t.is_ident("impl")
            || t.kind == TokenKind::Lifetime
    }) {
        j += 1;
    }
    if tokens.get(j)?.kind != TokenKind::Ident {
        return None;
    }
    let mut last = j;
    while tokens.get(last + 1).is_some_and(|t| t.is_punct("::"))
        && tokens.get(last + 2).is_some_and(|t| t.kind == TokenKind::Ident)
    {
        last += 2;
    }
    Some(&tokens[last])
}

/// Is the identifier at `i` the start of a `let [mut] name` binding?
pub(crate) fn after_let(tokens: &[Token], i: usize) -> bool {
    match i.checked_sub(1).map(|p| &tokens[p]) {
        Some(p) if p.is_ident("let") => true,
        Some(p) if p.is_ident("mut") => i >= 2 && tokens[i - 2].is_ident("let"),
        _ => false,
    }
}

/// Identifier of a function in the [`CallGraph`] (index into its `fns`).
pub type FnId = usize;

/// One indexed function definition (product code only).
#[derive(Debug)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// `impl` self type for inherent and trait-impl methods.
    pub self_ty: Option<String>,
    /// Trait name for `impl Trait for T` methods and trait defaults.
    pub trait_name: Option<String>,
    /// Index of the defining file in the scan set.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword (start of the signature).
    pub sig: usize,
    /// Token range of the body `{ … }` (inclusive braces), if present.
    pub body: Option<(usize, usize)>,
}

impl FnDef {
    /// Display name: `Type::name` for methods, bare `name` otherwise.
    pub fn display(&self) -> String {
        match self.self_ty.as_ref().or(self.trait_name.as_ref()) {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// How one call site resolved against the workspace index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// Candidate callees in the workspace index.
    Resolved(Vec<FnId>),
    /// A method name defined more than once with an unknown receiver type:
    /// a genuine coverage gap, counted in [`GraphStats::unresolved_calls`].
    Unresolved,
    /// Not in the index at all (std, `vendor/`, macros): assumed
    /// effect-free.
    Opaque,
}

/// One call site inside a function body.
#[derive(Debug)]
pub struct CallSite {
    /// 1-based line of the callee-name token.
    pub line: u32,
    /// Token index of the callee-name token.
    pub at: usize,
    /// Display label for chain reporting (`log_outcome`, `Stopwatch::start`).
    pub label: String,
    /// Resolution against the workspace index.
    pub resolution: Resolution,
}

/// Coverage statistics for the `--stats` view.
#[derive(Debug, Default, Clone)]
pub struct GraphStats {
    /// Files scanned (all sections).
    pub files: usize,
    /// Product-code functions indexed.
    pub functions: usize,
    /// Resolved call edges (site → candidate pairs).
    pub edges: usize,
    /// Call sites that resolved to at least one candidate.
    pub resolved_calls: usize,
    /// Ambiguous method calls treated as no-effect: the audit surface.
    pub unresolved_calls: usize,
    /// Call sites assumed external and effect-free (std, vendor, macros).
    pub opaque_calls: usize,
    /// Resolved sites that needed conservative trait-name merging.
    pub trait_merged_calls: usize,
    /// Effect-propagation rounds until fixpoint (filled by the effects
    /// pass).
    pub fixpoint_iterations: usize,
}

/// The workspace call graph: indexed functions plus, for each, its call
/// sites and their resolutions.
#[derive(Debug)]
pub struct CallGraph {
    /// Indexed product-code functions.
    pub fns: Vec<FnDef>,
    /// Call sites per function, parallel to `fns`.
    pub calls: Vec<Vec<CallSite>>,
    /// Resolution coverage counters.
    pub stats: GraphStats,
}

/// Keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "move", "as", "where", "unsafe",
    "else", "let", "mut", "ref", "dyn", "use", "pub", "crate", "super", "fn", "true", "false",
    "struct", "enum", "union", "trait", "type", "mod", "static", "const", "await", "async",
    "break", "continue", "yield", "box",
];

/// One `impl`/`trait` block: token range of its body plus the resolved
/// context names.
#[derive(Debug)]
struct ItemCtx {
    start: usize,
    end: usize,
    self_ty: Option<String>,
    trait_name: Option<String>,
}

impl CallGraph {
    /// Build the graph over `(workspace-relative path, lexed)` files.
    pub fn build(files: &[(&str, &Lexed)]) -> CallGraph {
        let classes: Vec<FileClass> = files.iter().map(|(rel, _)| classify(rel)).collect();
        let stems: Vec<String> = files
            .iter()
            .map(|(rel, _)| {
                rel.rsplit('/').next().unwrap_or(rel).trim_end_matches(".rs").to_string()
            })
            .collect();

        // Pass 1: collect function definitions with impl/trait context.
        let mut fns: Vec<FnDef> = Vec::new();
        let mut trait_names: BTreeSet<String> = BTreeSet::new();
        for (fi, (_, lexed)) in files.iter().enumerate() {
            if classes[fi].section != Section::Src {
                continue;
            }
            let tokens = &lexed.tokens;
            let test_ranges = test_item_ranges(tokens);
            let in_test = |i: usize| test_ranges.iter().any(|&(s, e)| i >= s && i <= e);
            let ctxs = item_contexts(tokens, &mut trait_names);
            for i in 0..tokens.len() {
                if !tokens[i].is_ident("fn")
                    || !tokens.get(i + 1).is_some_and(|t| t.kind == TokenKind::Ident)
                    || in_test(i)
                {
                    continue;
                }
                let (body, _) = fn_body(tokens, i);
                let ctx = ctxs
                    .iter()
                    .filter(|c| c.start <= i && i <= c.end)
                    .min_by_key(|c| c.end - c.start);
                fns.push(FnDef {
                    name: tokens[i + 1].text.clone(),
                    self_ty: ctx.and_then(|c| c.self_ty.clone()),
                    trait_name: ctx.and_then(|c| c.trait_name.clone()),
                    file: fi,
                    line: tokens[i].line,
                    sig: i,
                    body,
                });
            }
        }

        // Pass 2: name indexes.
        let mut free: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        let mut by_type: BTreeMap<(&str, &str), Vec<FnId>> = BTreeMap::new();
        let mut by_trait: BTreeMap<(&str, &str), Vec<FnId>> = BTreeMap::new();
        let mut by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        let mut type_names: BTreeSet<&str> = BTreeSet::new();
        for (id, f) in fns.iter().enumerate() {
            match (&f.self_ty, &f.trait_name) {
                (None, None) => free.entry(&f.name).or_default().push(id),
                (self_ty, trait_name) => {
                    if let Some(t) = self_ty {
                        by_type.entry((t, &f.name)).or_default().push(id);
                        type_names.insert(t);
                    }
                    if let Some(t) = trait_name {
                        by_trait.entry((t, &f.name)).or_default().push(id);
                        trait_names.insert(t.clone());
                    }
                    by_name.entry(&f.name).or_default().push(id);
                }
            }
        }

        // Pass 3: call extraction + resolution.
        let mut stats = GraphStats { files: files.len(), functions: fns.len(), ..Default::default() };
        let mut calls: Vec<Vec<CallSite>> = Vec::with_capacity(fns.len());
        for f in &fns {
            let mut sites = Vec::new();
            let Some((open, close)) = f.body else {
                calls.push(sites);
                continue;
            };
            let tokens = &files[f.file].1.tokens;
            let vars = var_types(tokens, f.sig, close, f.self_ty.as_deref());
            for i in (open + 1)..close {
                let t = &tokens[i];
                if t.kind != TokenKind::Ident
                    || !tokens.get(i + 1).is_some_and(|n| n.is_punct("("))
                    || NON_CALL_KEYWORDS.contains(&t.text.as_str())
                {
                    continue;
                }
                let prev = i.checked_sub(1).map(|p| &tokens[p]);
                if prev.is_some_and(|p| p.is_ident("fn")) {
                    continue; // nested definition, not a call
                }
                let name = t.text.as_str();
                let (label, resolution) = if prev.is_some_and(|p| p.is_punct(".")) {
                    resolve_method(tokens, i, name, f, &vars, &by_type, &by_trait, &by_name, &trait_names, &fns, &mut stats)
                } else if prev.is_some_and(|p| p.is_punct("::")) {
                    resolve_qualified(tokens, i, name, f, &free, &by_type, &by_trait, &trait_names, &classes, &stems, &fns, &mut stats)
                } else {
                    resolve_free(name, f, &free, &classes, &fns)
                };
                match &resolution {
                    Resolution::Resolved(c) => {
                        stats.resolved_calls += 1;
                        stats.edges += c.len();
                    }
                    Resolution::Unresolved => stats.unresolved_calls += 1,
                    Resolution::Opaque => stats.opaque_calls += 1,
                }
                sites.push(CallSite { line: t.line, at: i, label, resolution });
            }
            calls.push(sites);
        }

        CallGraph { fns, calls, stats }
    }
}

/// Skip a generic-argument list starting at `<` (if present), tolerating
/// `->` inside fn-pointer types.
fn skip_generics(tokens: &[Token], j: &mut usize) {
    if !tokens.get(*j).is_some_and(|t| t.is_punct("<")) {
        return;
    }
    let mut depth = 0i32;
    while *j < tokens.len() {
        let t = &tokens[*j];
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(">") {
            depth -= 1;
            if depth == 0 {
                *j += 1;
                return;
            }
        } else if t.is_punct("-") && tokens.get(*j + 1).is_some_and(|n| n.is_punct(">")) {
            *j += 1;
        }
        *j += 1;
    }
}

/// Read a type/trait path at `*j`, returning its final segment and
/// advancing past the path and any generic arguments.
fn read_path_name(tokens: &[Token], j: &mut usize) -> Option<String> {
    while tokens.get(*j).is_some_and(|t| {
        t.is_punct("&") || t.is_ident("mut") || t.is_ident("dyn") || t.kind == TokenKind::Lifetime
    }) {
        *j += 1;
    }
    if tokens.get(*j)?.kind != TokenKind::Ident {
        return None;
    }
    let mut last = tokens[*j].text.clone();
    *j += 1;
    while tokens.get(*j).is_some_and(|t| t.is_punct("::"))
        && tokens.get(*j + 1).is_some_and(|t| t.kind == TokenKind::Ident)
    {
        last = tokens[*j + 1].text.clone();
        *j += 2;
    }
    skip_generics(tokens, j);
    Some(last)
}

/// Parse `impl`/`trait` block contexts; trait declarations also register
/// their names.
fn item_contexts(tokens: &[Token], trait_names: &mut BTreeSet<String>) -> Vec<ItemCtx> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        let is_impl = t.is_ident("impl");
        let is_trait = t.is_ident("trait")
            && tokens.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident);
        if !is_impl && !is_trait {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let (self_ty, trait_name);
        if is_trait {
            let name = tokens[i + 1].text.clone();
            trait_names.insert(name.clone());
            self_ty = None;
            trait_name = Some(name);
            j = i + 2;
        } else {
            skip_generics(tokens, &mut j);
            let first = read_path_name(tokens, &mut j);
            if tokens.get(j).is_some_and(|t| t.is_ident("for")) {
                j += 1;
                let second = read_path_name(tokens, &mut j);
                self_ty = second;
                trait_name = first;
            } else {
                self_ty = first;
                trait_name = None;
            }
        }
        // Find the body `{` at bracket depth 0 (where-clauses carry
        // parens/brackets but no braces); `;` means no body.
        let mut depth = 0i32;
        let mut advanced = false;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            } else if t.is_punct("{") && depth == 0 {
                if let Some(end) = matching(tokens, j, "{", "}") {
                    out.push(ItemCtx { start: j, end, self_ty, trait_name });
                }
                i = j + 1;
                advanced = true;
                break;
            } else if t.is_punct(";") && depth == 0 {
                i = j + 1;
                advanced = true;
                break;
            }
            j += 1;
        }
        if !advanced {
            break;
        }
    }
    out
}

/// Body token range of the `fn` at `fn_at`, or `None` for a bodyless
/// signature. Also returns the token index just past the item.
fn fn_body(tokens: &[Token], fn_at: usize) -> (Option<(usize, usize)>, usize) {
    let mut depth = 0i32;
    let mut j = fn_at + 2;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if t.is_punct("{") && depth == 0 {
            return match matching(tokens, j, "{", "}") {
                Some(end) => (Some((j, end)), end + 1),
                None => (None, tokens.len()),
            };
        } else if t.is_punct(";") && depth == 0 {
            return (None, j + 1);
        }
        j += 1;
    }
    (None, tokens.len())
}

/// Per-function variable → type table: `name: Type` declarations
/// (parameters and annotated `let`s), `name = Type::ctor(…)` / `name =
/// Type { … }` bindings, and `self` from the impl context. Only concrete
/// CamelCase types are recorded.
fn var_types(
    tokens: &[Token],
    sig: usize,
    body_end: usize,
    self_ty: Option<&str>,
) -> BTreeMap<String, String> {
    let mut vars = BTreeMap::new();
    if let Some(t) = self_ty {
        vars.insert("self".to_string(), t.to_string());
    }
    for i in sig..=body_end.min(tokens.len().saturating_sub(1)) {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let Some(next) = tokens.get(i + 1) else { break };
        if next.is_punct(":") {
            if let Some(ty) = type_after_colon(tokens, i + 1) {
                if ty.text.starts_with(char::is_uppercase) {
                    vars.insert(t.text.clone(), ty.text.clone());
                }
            }
        } else if next.is_punct("=") && !tokens.get(i + 2).is_some_and(|n| n.is_punct("=")) {
            // `x = [mods::]Type::ctor(…)` or `x = Type { … }`.
            let mut j = i + 2;
            while tokens.get(j).is_some_and(|t2| {
                t2.kind == TokenKind::Ident && t2.text.starts_with(char::is_lowercase)
            }) && tokens.get(j + 1).is_some_and(|p| p.is_punct("::"))
            {
                j += 2;
            }
            if let Some(ty) = tokens.get(j) {
                if ty.kind == TokenKind::Ident
                    && ty.text.starts_with(char::is_uppercase)
                    && tokens.get(j + 1).is_some_and(|n| n.is_punct("::") || n.is_punct("{"))
                {
                    vars.insert(t.text.clone(), ty.text.clone());
                }
            }
        }
    }
    vars
}

/// Resolve a method call site on a known type name.
fn on_type(
    ty: &str,
    name: &str,
    by_type: &BTreeMap<(&str, &str), Vec<FnId>>,
    by_trait: &BTreeMap<(&str, &str), Vec<FnId>>,
    trait_names: &BTreeSet<String>,
    stats: &mut GraphStats,
) -> Resolution {
    if let Some(c) = by_type.get(&(ty, name)) {
        return Resolution::Resolved(c.clone());
    }
    if trait_names.contains(ty) {
        return match by_trait.get(&(ty, name)) {
            Some(c) => {
                stats.trait_merged_calls += 1;
                Resolution::Resolved(c.clone())
            }
            None => Resolution::Opaque,
        };
    }
    Resolution::Opaque
}

/// Unknown-receiver fallback: resolve only when exactly one method of
/// this name exists anywhere in the workspace.
fn by_name_fallback(
    name: &str,
    by_name: &BTreeMap<&str, Vec<FnId>>,
    fns: &[FnDef],
) -> (String, Resolution) {
    match by_name.get(name) {
        None => (name.to_string(), Resolution::Opaque),
        Some(c) if c.len() == 1 => (fns[c[0]].display(), Resolution::Resolved(c.clone())),
        Some(_) => (name.to_string(), Resolution::Unresolved),
    }
}

#[allow(clippy::too_many_arguments)]
fn resolve_method(
    tokens: &[Token],
    i: usize,
    name: &str,
    f: &FnDef,
    vars: &BTreeMap<String, String>,
    by_type: &BTreeMap<(&str, &str), Vec<FnId>>,
    by_trait: &BTreeMap<(&str, &str), Vec<FnId>>,
    by_name: &BTreeMap<&str, Vec<FnId>>,
    trait_names: &BTreeSet<String>,
    fns: &[FnDef],
    stats: &mut GraphStats,
) -> (String, Resolution) {
    let receiver = i
        .checked_sub(2)
        .map(|r| &tokens[r])
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str());
    let ty = receiver.and_then(|r| {
        if r == "self" { f.self_ty.as_deref() } else { vars.get(r).map(String::as_str) }
    });
    match ty {
        Some(t) => (format!("{t}::{name}"), on_type(t, name, by_type, by_trait, trait_names, stats)),
        None => by_name_fallback(name, by_name, fns),
    }
}

#[allow(clippy::too_many_arguments)]
fn resolve_qualified(
    tokens: &[Token],
    i: usize,
    name: &str,
    f: &FnDef,
    free: &BTreeMap<&str, Vec<FnId>>,
    by_type: &BTreeMap<(&str, &str), Vec<FnId>>,
    by_trait: &BTreeMap<(&str, &str), Vec<FnId>>,
    trait_names: &BTreeSet<String>,
    classes: &[FileClass],
    stems: &[String],
    fns: &[FnDef],
    stats: &mut GraphStats,
) -> (String, Resolution) {
    let qualifier = i
        .checked_sub(2)
        .map(|q| &tokens[q])
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str());
    let Some(q) = qualifier else {
        // `<T as Trait>::m(...)`, `Vec::<u8>::new(...)` — out of scope.
        return (name.to_string(), Resolution::Opaque);
    };
    if q == "Self" {
        return match &f.self_ty {
            Some(t) => {
                (format!("{t}::{name}"), on_type(t, name, by_type, by_trait, trait_names, stats))
            }
            None => (name.to_string(), Resolution::Opaque),
        };
    }
    if q == "self" || q == "crate" || q == "super" {
        return resolve_free(name, f, free, classes, fns);
    }
    if q.starts_with(char::is_uppercase) {
        return (format!("{q}::{name}"), on_type(q, name, by_type, by_trait, trait_names, stats));
    }
    // Module-qualified free call: resolve only when the qualifier names
    // the candidate's defining file or crate — `mem::take`-style std
    // paths must not link to same-named workspace functions.
    match free.get(name) {
        None => (format!("{q}::{name}"), Resolution::Opaque),
        Some(cands) => {
            let picked: Vec<FnId> = cands
                .iter()
                .copied()
                .filter(|&id| {
                    let krate = classes[fns[id].file].krate.as_str();
                    stems[fns[id].file] == q
                        || krate == q
                        || q.strip_prefix("footsteps_") == Some(krate)
                })
                .collect();
            if picked.is_empty() {
                (format!("{q}::{name}"), Resolution::Opaque)
            } else {
                (format!("{q}::{name}"), Resolution::Resolved(picked))
            }
        }
    }
}

fn resolve_free(
    name: &str,
    f: &FnDef,
    free: &BTreeMap<&str, Vec<FnId>>,
    classes: &[FileClass],
    fns: &[FnDef],
) -> (String, Resolution) {
    match free.get(name) {
        None => (name.to_string(), Resolution::Opaque),
        Some(cands) => {
            let same_file: Vec<FnId> =
                cands.iter().copied().filter(|&id| fns[id].file == f.file).collect();
            let picked = if !same_file.is_empty() {
                same_file
            } else {
                let krate = classes[f.file].krate.as_str();
                let same_crate: Vec<FnId> = cands
                    .iter()
                    .copied()
                    .filter(|&id| classes[fns[id].file].krate == krate)
                    .collect();
                if !same_crate.is_empty() { same_crate } else { cands.clone() }
            };
            (name.to_string(), Resolution::Resolved(picked))
        }
    }
}
