//! A minimal comment- and string-aware lexer for Rust source.
//!
//! The rules in this crate are *token-level* heuristics: they must never
//! fire on text inside string literals, comments, or doc comments (the sim
//! crate's module docs legitimately mention `thread_rng`, for instance).
//! `syn` would give us real syntax trees, but the vendored registry is
//! offline and the lint has to stay dependency-free, so this module
//! implements the small slice of Rust lexing the rules need:
//!
//! * identifiers, numbers, lifetimes, single/compound punctuation
//!   (only `::` is fused; everything else is one char per token);
//! * string literals: `"…"`, `r"…"`, `r#"…"#` (any number of `#`),
//!   byte/C variants (`b"…"`, `br#"…"#`, `c"…"`, `cr"…"`), with escapes;
//! * char and byte-char literals, disambiguated from lifetimes;
//! * line comments (kept — pragmas live there) and nested block comments.
//!
//! Every token and comment carries its 1-based source line so findings and
//! pragmas can be matched up.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal.
    Number,
    /// String literal (any flavour).
    Str,
    /// Char or byte-char literal.
    Char,
    /// Lifetime (`'a`).
    Lifetime,
    /// Punctuation; `::` is a single token, everything else one char.
    Punct,
}

/// One source token.
#[derive(Debug, Clone)]
pub struct Token {
    /// Lexeme class.
    pub kind: TokenKind,
    /// Raw text (for `Str`, the quoted content is not unescaped).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
}

impl Token {
    /// Is this an identifier with exactly this text?
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// Is this punctuation with exactly this text?
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == text
    }
}

/// One comment (line or block). Pragmas are recognised in line comments.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Text after the `//` (line) or between the delimiters (block).
    pub text: String,
    /// 1-based line of the comment's start.
    pub line: u32,
    /// True when only whitespace precedes the comment on its line. Own-line
    /// pragmas cover the *next* source line; trailing pragmas cover their
    /// own.
    pub own_line: bool,
    /// True for `//` comments (the only kind pragmas may use).
    pub is_line: bool,
}

/// The output of [`lex`]: code tokens and comments, in source order.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens.
    pub tokens: Vec<Token>,
    /// All comments.
    pub comments: Vec<Comment>,
}

/// Lex `source` into tokens and comments. Invalid input never panics: the
/// lexer degrades to single-char punct tokens on anything it does not
/// recognise, which is safe for the token-pattern rules built on top.
pub fn lex(source: &str) -> Lexed {
    let chars: Vec<char> = source.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    // Whether a code token has appeared on the current line (for
    // `Comment::own_line`).
    let mut line_has_code = false;

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            line_has_code = false;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < chars.len() {
            match chars[i + 1] {
                '/' => {
                    let start = i + 2;
                    let mut j = start;
                    while j < chars.len() && chars[j] != '\n' {
                        j += 1;
                    }
                    out.comments.push(Comment {
                        text: chars[start..j].iter().collect(),
                        line,
                        own_line: !line_has_code,
                        is_line: true,
                    });
                    i = j;
                    continue;
                }
                '*' => {
                    let start_line = line;
                    let own = !line_has_code;
                    let mut depth = 1u32;
                    let mut j = i + 2;
                    let text_start = j;
                    while j < chars.len() && depth > 0 {
                        if chars[j] == '\n' {
                            line += 1;
                            line_has_code = false;
                        } else if chars[j] == '/' && j + 1 < chars.len() && chars[j + 1] == '*' {
                            depth += 1;
                            j += 1;
                        } else if chars[j] == '*' && j + 1 < chars.len() && chars[j + 1] == '/' {
                            depth -= 1;
                            j += 1;
                        }
                        j += 1;
                    }
                    let text_end = j.saturating_sub(2).max(text_start);
                    out.comments.push(Comment {
                        text: chars[text_start..text_end].iter().collect(),
                        line: start_line,
                        own_line: own,
                        is_line: false,
                    });
                    i = j;
                    continue;
                }
                _ => {}
            }
        }
        // Strings (plain; raw/byte prefixes are handled from the ident path).
        if c == '"' {
            i = consume_string(&chars, i, &mut line, &mut out, TokenKind::Str);
            line_has_code = true;
            continue;
        }
        // Char literal or lifetime.
        if c == '\'' {
            let next = chars.get(i + 1).copied();
            match next {
                Some('\\') => {
                    // Escaped char literal: '\n', '\'', '\u{…}'.
                    let mut j = i + 2;
                    if j < chars.len() {
                        j += 1; // the escaped char (or 'u' of \u{…})
                    }
                    while j < chars.len() && chars[j] != '\'' {
                        j += 1;
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Char,
                        text: chars[i..(j + 1).min(chars.len())].iter().collect(),
                        line,
                    });
                    i = (j + 1).min(chars.len());
                    line_has_code = true;
                    continue;
                }
                // Any single char closed by a quote — 'a', '"', '(' — is a
                // char literal; checked before the lifetime case so that
                // 'a' does not lex as a lifetime.
                Some(_) if chars.get(i + 2) == Some(&'\'') => {
                    out.tokens.push(Token {
                        kind: TokenKind::Char,
                        text: chars[i..=i + 2].iter().collect(),
                        line,
                    });
                    i += 3;
                    line_has_code = true;
                    continue;
                }
                Some(n) if n == '_' || n.is_alphanumeric() => {
                    // A lifetime ('a, 'static).
                    let mut j = i + 2;
                    while j < chars.len() && (chars[j] == '_' || chars[j].is_alphanumeric()) {
                        j += 1;
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        text: chars[i..j].iter().collect(),
                        line,
                    });
                    i = j;
                    line_has_code = true;
                    continue;
                }
                _ => {
                    out.tokens.push(Token {
                        kind: TokenKind::Punct,
                        text: "'".to_string(),
                        line,
                    });
                    i += 1;
                    line_has_code = true;
                    continue;
                }
            }
        }
        // Numbers.
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < chars.len() {
                let d = chars[j];
                let fraction = d == '.' && j + 1 < chars.len() && chars[j + 1].is_ascii_digit();
                if d == '_' || d.is_ascii_alphanumeric() || fraction {
                    j += 1;
                } else {
                    break;
                }
            }
            out.tokens.push(Token {
                kind: TokenKind::Number,
                text: chars[i..j].iter().collect(),
                line,
            });
            i = j;
            line_has_code = true;
            continue;
        }
        // Identifiers (and raw/byte string prefixes).
        if c == '_' || c.is_alphabetic() {
            let mut j = i + 1;
            while j < chars.len() && (chars[j] == '_' || chars[j].is_alphanumeric()) {
                j += 1;
            }
            let text: String = chars[i..j].iter().collect();
            let next = chars.get(j).copied();
            let raw_prefix = matches!(text.as_str(), "r" | "br" | "cr");
            let plain_prefix = matches!(text.as_str(), "b" | "c");
            if raw_prefix && matches!(next, Some('"') | Some('#')) {
                i = consume_raw_string(&chars, j, &mut line, &mut out);
                line_has_code = true;
                continue;
            }
            if plain_prefix && next == Some('"') {
                i = consume_string(&chars, j, &mut line, &mut out, TokenKind::Str);
                line_has_code = true;
                continue;
            }
            if text == "b" && next == Some('\'') {
                // Byte char literal b'x' / b'\n'.
                let mut k = j + 1;
                if chars.get(k) == Some(&'\\') {
                    k += 2;
                }
                while k < chars.len() && chars[k] != '\'' {
                    k += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Char,
                    text: chars[i..(k + 1).min(chars.len())].iter().collect(),
                    line,
                });
                i = (k + 1).min(chars.len());
                line_has_code = true;
                continue;
            }
            out.tokens.push(Token {
                kind: TokenKind::Ident,
                text,
                line,
            });
            i = j;
            line_has_code = true;
            continue;
        }
        // `::` is fused; all other punctuation is one char per token.
        if c == ':' && chars.get(i + 1) == Some(&':') {
            out.tokens.push(Token {
                kind: TokenKind::Punct,
                text: "::".to_string(),
                line,
            });
            i += 2;
            line_has_code = true;
            continue;
        }
        out.tokens.push(Token {
            kind: TokenKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
        line_has_code = true;
    }
    out
}

/// Consume a `"…"` string starting at the quote at `chars[at]`; returns the
/// index just past the closing quote.
fn consume_string(
    chars: &[char],
    at: usize,
    line: &mut u32,
    out: &mut Lexed,
    kind: TokenKind,
) -> usize {
    let start_line = *line;
    debug_assert_eq!(chars[at], '"');
    let mut j = at + 1;
    while j < chars.len() {
        match chars[j] {
            '\\' => j += 2,
            '"' => {
                j += 1;
                break;
            }
            '\n' => {
                *line += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    out.tokens.push(Token {
        kind,
        text: chars[at..j.min(chars.len())].iter().collect(),
        line: start_line,
    });
    j.min(chars.len())
}

/// Consume a raw string whose `#`s/quote start at `chars[at]` (the prefix
/// ident has already been consumed); returns the index past the terminator.
fn consume_raw_string(chars: &[char], at: usize, line: &mut u32, out: &mut Lexed) -> usize {
    let start_line = *line;
    let mut j = at;
    let mut hashes = 0usize;
    while j < chars.len() && chars[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) != Some(&'"') {
        // Not actually a raw string (e.g. `r#foo` raw identifier); emit the
        // `#`s as punctuation and continue.
        for _ in 0..hashes {
            out.tokens.push(Token {
                kind: TokenKind::Punct,
                text: "#".to_string(),
                line: *line,
            });
        }
        return j;
    }
    j += 1;
    let content_start = j;
    'outer: while j < chars.len() {
        if chars[j] == '\n' {
            *line += 1;
            j += 1;
            continue;
        }
        if chars[j] == '"' {
            let mut k = 0usize;
            while k < hashes {
                if chars.get(j + 1 + k) != Some(&'#') {
                    j += 1;
                    continue 'outer;
                }
                k += 1;
            }
            let end = j + 1 + hashes;
            out.tokens.push(Token {
                kind: TokenKind::Str,
                text: chars[content_start..j].iter().collect(),
                line: start_line,
            });
            return end;
        }
        j += 1;
    }
    out.tokens.push(Token {
        kind: TokenKind::Str,
        text: chars[content_start..j].iter().collect(),
        line: start_line,
    });
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_identifiers() {
        let src = r##"
            // thread_rng in a comment
            /* SystemTime in /* a nested */ block */
            let x = "thread_rng"; // trailing
            let y = r#"SystemTime"#;
            let z = b"unsafe";
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"thread_rng".to_string()));
        assert!(!ids.contains(&"SystemTime".to_string()));
        assert!(!ids.contains(&"unsafe".to_string()));
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let chars: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .collect();
        assert_eq!(chars.len(), 1);
        assert_eq!(chars[0].text, "'x'");
    }

    #[test]
    fn line_numbers_and_own_line_flags() {
        let src = "let a = 1;\n  // own-line\nlet b = 2; // trailing\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0].line, 2);
        assert!(lexed.comments[0].own_line);
        assert_eq!(lexed.comments[1].line, 3);
        assert!(!lexed.comments[1].own_line);
        let b = lexed.tokens.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn double_colon_is_one_token() {
        let lexed = lex("std::env::var(\"X\")");
        let texts: Vec<_> = lexed.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["std", "::", "env", "::", "var", "(", "\"X\"", ")"]);
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let lexed = lex(r#"let s = "a\"b"; let t = 1;"#);
        assert!(lexed.tokens.iter().any(|t| t.is_ident("t")));
        let strs: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .collect();
        assert_eq!(strs.len(), 1);
    }
}
