//! The scoping helpers the rules share: where a file sits (its crate and
//! section), which token ranges are test items, and the token-shape
//! readers (the type after a declaration's `:`, `let` bindings) the
//! declaration tables are built from.

use crate::lexer::{Token, TokenKind};

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
fn matching(tokens: &[Token], open_at: usize, open: &str, close: &str) -> Option<usize> {
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
