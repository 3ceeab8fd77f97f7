//! The `footsteps-lint` allow-pragma: grammar, parsing, and matching.
//!
//! Grammar (line comments only):
//!
//! ```text
//! // footsteps-lint: allow(<rule>[, <rule>]*) — <reason>
//! ```
//!
//! * `<rule>` is one of the rule names in [`crate::rules::Rule::ALL`];
//! * the reason separator may be an em/en dash, `--`, `-`, or `:`;
//! * `<reason>` is mandatory, non-empty prose: the pragma is the in-source,
//!   re-checkable replacement for out-of-band audit notes, so a bare
//!   `allow(...)` with no justification is itself a finding;
//! * a pragma trailing code covers findings on its own line; a pragma on a
//!   line of its own covers findings on the next line (for multi-line
//!   method chains, put it directly above the offending line).
//!
//! Unknown rule names, missing reasons, and pragmas that suppress nothing
//! are all reported as `pragma` findings — stale annotations must not
//! accumulate.

use crate::lexer::Comment;

/// The marker that introduces a pragma inside a line comment.
pub const MARKER: &str = "footsteps-lint:";

/// A parsed pragma, valid or not.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// 1-based line of the comment.
    pub line: u32,
    /// Lines this pragma covers (its own, or the next for own-line pragmas).
    pub covers: u32,
    /// Rule names inside `allow(...)`, as written.
    pub rules: Vec<String>,
    /// The reason text, if present and non-empty.
    pub reason: Option<String>,
    /// Parse problem, if any (a malformed pragma suppresses nothing).
    pub error: Option<String>,
}

/// Extract pragmas from a file's comments. Non-pragma comments are ignored.
pub fn collect(comments: &[Comment]) -> Vec<Pragma> {
    let mut out = Vec::new();
    for c in comments {
        let trimmed = c.text.trim();
        let Some(rest) = trimmed.strip_prefix(MARKER) else {
            continue;
        };
        let covers = if c.own_line { c.line + 1 } else { c.line };
        if !c.is_line {
            out.push(Pragma {
                line: c.line,
                covers,
                rules: Vec::new(),
                reason: None,
                error: Some("pragmas must be `//` line comments".to_string()),
            });
            continue;
        }
        out.push(parse_body(rest.trim(), c.line, covers));
    }
    out
}

/// Parse the text after `footsteps-lint:`.
fn parse_body(body: &str, line: u32, covers: u32) -> Pragma {
    let fail = |error: &str| Pragma {
        line,
        covers,
        rules: Vec::new(),
        reason: None,
        error: Some(error.to_string()),
    };
    let Some(rest) = body.strip_prefix("allow") else {
        return fail("expected `allow(<rule>)` after `footsteps-lint:`");
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return fail("expected `(` after `allow`");
    };
    let Some(close) = rest.find(')') else {
        return fail("unclosed `allow(`");
    };
    let mut rules: Vec<String> = Vec::new();
    for part in rest[..close].split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if part.contains(char::is_whitespace) {
            return fail(&format!("expected `<rule>`, got `{part}`"));
        }
        if !crate::rules::Rule::ALL.iter().any(|k| k.name() == part) {
            return fail(&format!("unknown rule `{part}` in `allow(...)`"));
        }
        rules.push(part.to_string());
    }
    if rules.is_empty() {
        return fail("empty rule list in `allow()`");
    }
    let mut reason = rest[close + 1..].trim();
    for sep in ["—", "–", "--", "-", ":"] {
        if let Some(r) = reason.strip_prefix(sep) {
            reason = r.trim();
            break;
        }
    }
    Pragma {
        line,
        covers,
        rules,
        reason: (!reason.is_empty()).then(|| reason.to_string()),
        error: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn pragmas(src: &str) -> Vec<Pragma> {
        collect(&lex(src).comments)
    }

    #[test]
    fn trailing_pragma_covers_its_own_line() {
        let p = &pragmas(
            "let x = m.values(); // footsteps-lint: allow(nondet-iter) — feeds a sum\n",
        )[0];
        assert!(p.error.is_none());
        assert_eq!(p.rules, ["nondet-iter"]);
        assert_eq!(p.reason.as_deref(), Some("feeds a sum"));
        assert_eq!(p.covers, 1);
    }

    #[test]
    fn own_line_pragma_covers_next_line() {
        let src = "\n// footsteps-lint: allow(wall-clock) - bench only\nlet t = x;\n";
        let p = &pragmas(src)[0];
        assert!(p.error.is_none());
        assert_eq!(p.line, 2);
        assert_eq!(p.covers, 3);
    }

    #[test]
    fn missing_reason_is_detected() {
        let p = &pragmas("// footsteps-lint: allow(unsafe-code)\n")[0];
        assert!(p.error.is_none());
        assert!(p.reason.is_none());
    }

    #[test]
    fn unknown_rule_is_malformed() {
        let p = &pragmas("// footsteps-lint: allow(no-such-rule) — hmm\n")[0];
        assert!(p.error.is_some());
    }

    #[test]
    fn multiple_rules_parse() {
        let p = &pragmas(
            "// footsteps-lint: allow(nondet-iter, env-read) — fixture exercising both\n",
        )[0];
        assert!(p.error.is_none());
        assert_eq!(p.rules.len(), 2);
    }

    #[test]
    fn bad_via_clause_is_malformed() {
        // A rule entry is one name, so a `via` qualifier is malformed.
        for src in [
            "// footsteps-lint: allow(wall-clock via f) — x\n",
            "// footsteps-lint: allow(wall-clock via) — x\n",
            "// footsteps-lint: allow(wall-clock thru f) — x\n",
        ] {
            assert!(pragmas(src)[0].error.is_some(), "{src}");
        }
    }

    #[test]
    fn non_pragma_comments_are_ignored() {
        assert!(pragmas("// just words\n/* footsteps elsewhere */\n").is_empty());
    }
}
