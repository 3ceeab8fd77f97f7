//! The text report: what a failing `workspace_is_lint_clean` prints.

use crate::rules::Finding;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{PragmaStatus, Rule};

    fn finding(pragma: PragmaStatus) -> Finding {
        Finding {
            rule: Rule::NondetIter,
            file: "crates/x/src/lib.rs".to_string(),
            line: 3,
            snippet: "m.values()".to_string(),
            message: "msg".to_string(),
            pragma,
        }
    }

    #[test]
    fn violations_print_file_line_rule_and_snippet() {
        let text = render_text(&[finding(PragmaStatus::None)]);
        assert_eq!(
            text,
            "crates/x/src/lib.rs:3: [nondet-iter] msg\n    m.values()\n\
             footsteps-lint: 1 violation(s), 0 allowed by pragma\n"
        );
    }

    #[test]
    fn allowed_findings_do_not_count_as_violations() {
        let text = render_text(&[finding(PragmaStatus::Allowed("sorted later".into()))]);
        assert!(text.contains("0 violation(s), 1 allowed"));
    }
}
