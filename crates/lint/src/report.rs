//! Finding rendering: human-readable text and hand-rolled JSON (the crate
//! is dependency-free, so no serde here).
//!
//! The JSON document carries a top-level `"schema_version"` so downstream
//! consumers (CI artifact diffing, dashboards) can detect format changes;
//! bump [`JSON_SCHEMA_VERSION`] whenever a field is added, removed, or
//! changes meaning.

use crate::rules::{Finding, PragmaStatus};

/// Version of the JSON report format. 3 = lexical findings only: the
/// per-finding `"chain"` array and the top-level `"stats"` object of
/// version 2 are gone.
pub const JSON_SCHEMA_VERSION: u32 = 3;

/// Human-readable report of the violations (allowed findings summarised).
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    let violations: Vec<&Finding> = findings.iter().filter(|f| f.is_violation()).collect();
    for f in &violations {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n    {}\n",
            f.file,
            f.line,
            f.rule.name(),
            f.message,
            f.snippet
        ));
    }
    let allowed = findings.len() - violations.len();
    out.push_str(&format!(
        "footsteps-lint: {} violation(s), {} allowed by pragma\n",
        violations.len(),
        allowed
    ));
    out
}

/// Machine-readable report: every finding (including pragma-allowed ones,
/// so the annotation inventory stays auditable), plus counts.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = format!(
        "{{\n  \"schema_version\": {JSON_SCHEMA_VERSION},\n  \"findings\": [\n"
    );
    for (i, f) in findings.iter().enumerate() {
        let (status, detail) = match &f.pragma {
            PragmaStatus::None => ("none", None),
            PragmaStatus::Allowed(reason) => ("allowed", Some(reason.as_str())),
            PragmaStatus::MissingReason => ("missing-reason", None),
            PragmaStatus::Malformed(err) => ("malformed", Some(err.as_str())),
            PragmaStatus::Unused => ("unused", None),
        };
        out.push_str("    {");
        out.push_str(&format!("\"rule\": {}, ", json_str(f.rule.name())));
        out.push_str(&format!("\"file\": {}, ", json_str(&f.file)));
        out.push_str(&format!("\"line\": {}, ", f.line));
        out.push_str(&format!("\"snippet\": {}, ", json_str(&f.snippet)));
        out.push_str(&format!("\"message\": {}, ", json_str(&f.message)));
        out.push_str(&format!("\"pragma\": {}", json_str(status)));
        if let Some(d) = detail {
            out.push_str(&format!(", \"pragma_detail\": {}", json_str(d)));
        }
        out.push('}');
        if i + 1 < findings.len() {
            out.push(',');
        }
        out.push('\n');
    }
    let violations = findings.iter().filter(|f| f.is_violation()).count();
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"counts\": {{\"total\": {}, \"violations\": {}, \"allowed\": {}}}\n",
        findings.len(),
        violations,
        findings.len() - violations
    ));
    out.push_str("}\n");
    out
}

/// JSON string literal with the escapes the findings can actually contain.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;

    fn finding(pragma: PragmaStatus) -> Finding {
        Finding {
            rule: Rule::NondetIter,
            file: "crates/x/src/lib.rs".to_string(),
            line: 3,
            snippet: "m.values() // \"quoted\"".to_string(),
            message: "msg".to_string(),
            pragma,
        }
    }

    #[test]
    fn json_escapes_quotes_and_is_well_formed() {
        let json = render_json(&[finding(PragmaStatus::None)]);
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"violations\": 1"));
        assert!(json.contains("\"schema_version\": 3"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn allowed_findings_do_not_count_as_violations() {
        let json = render_json(&[finding(PragmaStatus::Allowed("sorted later".into()))]);
        assert!(json.contains("\"violations\": 0"));
        assert!(json.contains("\"pragma_detail\": \"sorted later\""));
        let text = render_text(&[finding(PragmaStatus::Allowed("sorted later".into()))]);
        assert!(text.contains("0 violation(s), 1 allowed"));
    }
}
