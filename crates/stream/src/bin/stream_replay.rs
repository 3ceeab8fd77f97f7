//! `stream-replay` — re-run a recorded platform event log through the
//! online detector, offline.
//!
//! ```text
//! stream-replay LOG.jsonl
//! ```
//!
//! Prints the replayed verdict digest (and summary counters). The digest
//! is byte-identical to the digest the inline run froze while recording
//! the log — CI's stream gate asserts exactly that.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: stream-replay LOG.jsonl";

/// Parse the arguments after the program name: `Ok(None)` asks for help.
/// Any other argument starting with `-` is an unknown flag, refused before
/// a file is opened.
fn parse(args: impl IntoIterator<Item = String>) -> Result<Option<PathBuf>, String> {
    let mut path = None;
    for arg in args {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            flag if flag.starts_with('-') => return Err(format!("unknown flag: {flag}")),
            other if path.is_none() => path = Some(PathBuf::from(other)),
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    path.map(Some).ok_or_else(|| "missing LOG.jsonl".to_owned())
}

fn main() -> ExitCode {
    let path = match parse(std::env::args().skip(1)) {
        Ok(Some(path)) => path,
        Ok(None) => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("stream-replay: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let outcome = match footsteps_stream::replay(&path) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("stream-replay: {e}");
            return ExitCode::FAILURE;
        }
    };

    let verdicts = &outcome.verdicts;
    println!("schema_version: {}", verdicts.schema_version);
    println!("frozen_on: day {}", verdicts.frozen_on.0);
    println!("batches: {}", outcome.batches);
    println!("events: {}", outcome.events_processed);
    println!("signatures: {}", verdicts.signatures.len());
    for sig in &verdicts.signatures {
        println!(
            "  {}: {} asn(s), {} fingerprint(s){}",
            sig.service.slug(),
            sig.asns.len(),
            sig.fingerprints.len(),
            if sig.collusion { ", collusion" } else { "" }
        );
    }
    println!("thresholds: {}", verdicts.thresholds.len());
    println!("verdict_digest: 0x{:016x}", outcome.verdict_digest);
    ExitCode::SUCCESS
}
