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

fn main() -> ExitCode {
    let mut path: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => {
                eprintln!("usage: stream-replay LOG.jsonl");
                return ExitCode::SUCCESS;
            }
            other if path.is_none() => path = Some(PathBuf::from(other)),
            other => {
                eprintln!("unexpected argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: stream-replay LOG.jsonl");
        return ExitCode::FAILURE;
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
