//! The `footsteps-lint` CI gate binary.
//!
//! ```text
//! footsteps-lint [--root <DIR>] [--json] [--json-out <PATH>] [--quiet]
//!                [--explain <rule>]
//! ```
//!
//! * `--root <DIR>`    workspace root (default: auto-detected from the
//!   current directory by walking up to a `[workspace]` manifest);
//! * `--json`          print the machine-readable findings to stdout;
//! * `--json-out <P>`  also write the JSON findings to a file (CI points
//!   this at its scratch directory, next to the perf reports);
//! * `--quiet`         suppress the human-readable report;
//! * `--explain <r>`   print one rule's rationale, scope, and pragma
//!   example (the same table DESIGN.md §6 is written from), then exit.
//!
//! Exit status: `0` when the workspace is clean (pragma-allowed findings
//! are clean), `1` on any violation, `2` on usage or I/O errors.

#![forbid(unsafe_code)]

use footsteps_lint::{analyze_workspace, report, violation_count, Rule, EXPLANATIONS};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut json_out: Option<PathBuf> = None;
    let mut quiet = false;
    let mut explain: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => return usage("--root needs a directory"),
            },
            "--json" => json = true,
            "--json-out" => match args.next() {
                Some(p) => json_out = Some(PathBuf::from(p)),
                None => return usage("--json-out needs a path"),
            },
            "--quiet" => quiet = true,
            "--explain" => match args.next() {
                Some(r) => explain = Some(r),
                None => return usage("--explain needs a rule name"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    if let Some(rule) = explain {
        return explain_rule(&rule);
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("footsteps-lint: cannot read cwd: {e}");
                    return ExitCode::from(2);
                }
            };
            match footsteps_lint::walker::find_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("footsteps-lint: no [workspace] manifest above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let findings = match analyze_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("footsteps-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    let json_text = if json || json_out.is_some() {
        Some(report::render_json(&findings))
    } else {
        None
    };
    if let (Some(path), Some(text)) = (&json_out, &json_text) {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("footsteps-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if json {
        print!("{}", json_text.as_deref().unwrap_or(""));
    }
    if !quiet && !json {
        print!("{}", report::render_text(&findings));
    }

    if violation_count(&findings) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn explain_rule(name: &str) -> ExitCode {
    match EXPLANATIONS.iter().find(|d| d.rule.name() == name) {
        Some(doc) => {
            println!("{}", doc.rule.name());
            println!("  rationale: {}", doc.rationale);
            println!("  scope:     {}", doc.scope);
            println!("  pragma:    {}", doc.pragma);
            ExitCode::SUCCESS
        }
        None => {
            let names: Vec<&str> = Rule::ALL.iter().map(|r| r.name()).collect();
            eprintln!(
                "footsteps-lint: unknown rule `{name}`; known rules: {}",
                names.join(", ")
            );
            ExitCode::from(2)
        }
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("footsteps-lint: {err}");
    eprintln!(
        "usage: footsteps-lint [--root <DIR>] [--json] [--json-out <PATH>] [--quiet] \
         [--explain <rule>]"
    );
    ExitCode::from(2)
}
