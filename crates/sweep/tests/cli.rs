//! `sweep`'s command line: a flag the command does not take, a stray
//! argument or a flag without its value is refused with the usage line
//! and exit code 1, before the sweep directory is created.

use std::process::Command;

const USAGE: &str = "usage:
  sweep run    --dir DIR --seeds N [--base-seed S] [--scenario quick|smoke|paper|scaled] [--workers W]
  sweep resume --dir DIR [--workers W]
  sweep report --dir DIR";

/// Run `sweep` with `args`, where `DIR` stands for a fresh directory path,
/// and require a refusal: exit code 1, nothing on stdout, on stderr
/// exactly `sweep: {message}` and the usage line, and no directory.
fn refused(args: &[&str], message: &str) {
    let dir = std::env::temp_dir().join(format!("footsteps-sweep-cli-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    let args: Vec<&str> = args.iter().map(|&a| if a == "DIR" { dir_arg } else { a }).collect();
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(&args)
        .output()
        .expect("sweep runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a summary");
    assert_eq!(stderr, format!("sweep: {message}\n{USAGE}\n"), "{args:?}");
    assert!(!dir.exists(), "{args:?} created {}", dir.display());
}

#[test]
fn sweep_refuses_unknown_flags_and_stray_arguments() {
    refused(
        &["run", "--dir", "DIR", "--seeds", "1", "--scenario", "smoke", "--wrokers", "4"],
        "unknown flag: --wrokers",
    );
    refused(&["run", "--dir", "DIR", "--seeds", "1", "--base_seed", "9"], "unknown flag: --base_seed");
    refused(&["run", "--dir", "DIR", "--seeds", "1", "smoke"], "unexpected argument: smoke");
    refused(&["run", "--dir", "DIR", "--seeds"], "--seeds needs a value");
    // Each command takes only its own flags.
    refused(&["resume", "--dir", "DIR", "--seeds", "2"], "unknown flag: --seeds");
    refused(&["report", "--dir", "DIR", "--workers", "2"], "unknown flag: --workers");
}
