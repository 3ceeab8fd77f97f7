//! `stream-replay`'s command line: an unknown flag or a stray argument is
//! refused with the usage line and exit code 1, before any file is opened.

use std::process::Command;

/// Run `stream-replay` with `args` and require a refusal: exit code 1,
/// nothing on stdout, and on stderr exactly `stream-replay: {message}`
/// followed by the usage line (so no log was opened or read).
fn refused(args: &[&str], message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_stream-replay"))
        .args(args)
        .output()
        .expect("stream-replay runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a report");
    assert_eq!(
        stderr,
        format!("stream-replay: {message}\nusage: stream-replay LOG.jsonl\n"),
        "{args:?}"
    );
}

#[test]
fn unknown_flags_and_stray_arguments_are_refused() {
    // A flag before the path is named, not mistaken for the path.
    refused(&["--json", "LOG"], "unknown flag: --json");
    refused(&["--verbose"], "unknown flag: --verbose");
    refused(&["LOG", "extra"], "unexpected argument: extra");
    refused(&[], "missing LOG.jsonl");
}
