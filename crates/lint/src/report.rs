//! Finding rendering: human-readable text and hand-rolled JSON (the crate
//! is dependency-free, so no serde here).
//!
//! The JSON document carries a top-level `"schema_version"` so downstream
//! consumers (CI artifact diffing, dashboards) can detect format changes;
//! bump [`JSON_SCHEMA_VERSION`] whenever a field is added, removed, or
//! changes meaning.

use crate::graph::GraphStats;
use crate::rules::{Finding, PragmaStatus};

/// Version of the JSON report format. 2 = interprocedural findings:
/// per-finding `"chain"` array, optional top-level `"stats"` object.
pub const JSON_SCHEMA_VERSION: u32 = 2;

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
        if !f.chain.is_empty() {
            out.push_str(&format!("    chain: {}\n", f.chain.join(" → ")));
        }
    }
    let allowed = findings.len() - violations.len();
    out.push_str(&format!(
        "footsteps-lint: {} violation(s), {} allowed by pragma\n",
        violations.len(),
        allowed
    ));
    out
}

/// Human-readable `--stats` coverage view.
pub fn render_stats(stats: &GraphStats) -> String {
    format!(
        "footsteps-lint call-graph coverage:\n\
         \x20 files scanned:        {}\n\
         \x20 functions indexed:    {}\n\
         \x20 call edges:           {}\n\
         \x20 resolved calls:       {}\n\
         \x20 unresolved calls:     {}\n\
         \x20 opaque calls:         {}\n\
         \x20 trait-merged calls:   {}\n\
         \x20 fixpoint iterations:  {}\n",
        stats.files,
        stats.functions,
        stats.edges,
        stats.resolved_calls,
        stats.unresolved_calls,
        stats.opaque_calls,
        stats.trait_merged_calls,
        stats.fixpoint_iterations,
    )
}

/// Machine-readable report: every finding (including pragma-allowed ones,
/// so the annotation inventory stays auditable), plus counts and, when
/// provided, the call-graph coverage statistics.
pub fn render_json(findings: &[Finding], stats: Option<&GraphStats>) -> String {
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
        out.push_str("\"chain\": [");
        for (j, link) in f.chain.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(link));
        }
        out.push_str("], ");
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
    if let Some(s) = stats {
        out.push_str(&format!(
            "  \"stats\": {{\"files\": {}, \"functions\": {}, \"edges\": {}, \
             \"resolved_calls\": {}, \"unresolved_calls\": {}, \"opaque_calls\": {}, \
             \"trait_merged_calls\": {}, \"fixpoint_iterations\": {}}},\n",
            s.files,
            s.functions,
            s.edges,
            s.resolved_calls,
            s.unresolved_calls,
            s.opaque_calls,
            s.trait_merged_calls,
            s.fixpoint_iterations,
        ));
    }
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
            chain: Vec::new(),
            pragma,
        }
    }

    #[test]
    fn json_escapes_quotes_and_is_well_formed() {
        let json = render_json(&[finding(PragmaStatus::None)], None);
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"violations\": 1"));
        assert!(json.contains("\"schema_version\": 2"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn allowed_findings_do_not_count_as_violations() {
        let json = render_json(&[finding(PragmaStatus::Allowed("sorted later".into()))], None);
        assert!(json.contains("\"violations\": 0"));
        assert!(json.contains("\"pragma_detail\": \"sorted later\""));
        let text = render_text(&[finding(PragmaStatus::Allowed("sorted later".into()))]);
        assert!(text.contains("0 violation(s), 1 allowed"));
    }

    #[test]
    fn chain_is_rendered_in_text_and_json() {
        let mut f = finding(PragmaStatus::None);
        f.chain = vec!["plan_member".into(), "log_outcome".into(), "Instant::now".into()];
        let text = render_text(&[f.clone()]);
        assert!(text.contains("chain: plan_member → log_outcome → Instant::now"));
        let json = render_json(&[f], None);
        assert!(json.contains("\"chain\": [\"plan_member\", \"log_outcome\", \"Instant::now\"]"));
    }

    #[test]
    fn stats_block_is_emitted_when_present() {
        let stats = GraphStats { functions: 7, edges: 9, ..Default::default() };
        let json = render_json(&[], Some(&stats));
        assert!(json.contains("\"functions\": 7"));
        assert!(json.contains("\"edges\": 9"));
        let text = render_stats(&stats);
        assert!(text.contains("functions indexed:    7"));
    }
}
