//! Streaming detection contract (DESIGN.md §8): attaching the recorder
//! never moves the golden digest, record→replay reproduces the inline
//! verdicts byte for byte, and the online verdicts agree with the batch
//! classifier at the end of the window.

use footsteps_core::{results, Scenario, Study};
use std::path::PathBuf;

/// FNV-1a digest of `StudyResults::to_json()` for `Scenario::smoke(7)` —
/// the same golden value `determinism.rs` pins for the plain run.
const GOLDEN_SMOKE_DIGEST: u64 = 0xce8a_eb34_fb9f_e096;

/// Byte length and FNV-1a digest of the batch `DetectionPipeline`'s compact
/// JSON for `Scenario::smoke(7)`.
const SMOKE_PIPELINE: (usize, u64) = (128_019, 0xb4ce_40cb_3464_2640);

/// The online detector's frozen verdict digest for `Scenario::smoke(7)`,
/// with the records and day batches it consumed.
const SMOKE_VERDICTS: (u64, u64, u64) = (0x42ef_cf79_8ec8_490b, 158_902, 24);

fn tmp_log(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("footsteps_stream_it_{}_{name}.jsonl", std::process::id()));
    p
}

/// Characterize smoke(7) with the stream attached (recording when `log`
/// is given), returning the study.
fn characterized_with_stream(seed: u64, log: Option<&PathBuf>) -> Study {
    let mut study = Study::new(Scenario::smoke(seed));
    study
        .attach_stream(log.map(|p| p.as_path()))
        .expect("stream attaches");
    study.run_characterization();
    study
}

#[test]
fn golden_digest_is_unchanged_with_recorder_attached() {
    let log = tmp_log("golden");
    let study = characterized_with_stream(7, Some(&log));
    let digest = results::StudyResults::collect(&study).digest();
    assert_eq!(
        digest, GOLDEN_SMOKE_DIGEST,
        "attaching the stream recorder must not move the golden digest"
    );
    assert!(study.stream.is_some(), "outcome frozen at characterization");
    std::fs::remove_file(&log).unwrap();
}

#[test]
fn record_then_replay_reproduces_pinned_verdicts() {
    let log = tmp_log("replay");
    let study = characterized_with_stream(7, Some(&log));
    let inline = study.stream.as_ref().expect("inline outcome");
    assert_eq!(inline.log_path.as_deref(), Some(log.as_path()));

    // Both detectors' outputs are pinned, not only compared with
    // themselves: the batch pipeline's wire bytes and the inline verdicts.
    let pipeline = serde_json::to_string(study.pipeline()).expect("pipeline serializes");
    assert_eq!(
        (pipeline.len(), footsteps_obs::tree::fnv1a(pipeline.as_bytes())),
        SMOKE_PIPELINE,
        "batch detection pipeline drifted"
    );
    assert_eq!(
        (inline.verdict_digest, inline.events_processed, inline.batches),
        SMOKE_VERDICTS,
        "online verdicts drifted"
    );

    let replayed = footsteps_stream::replay(&log).expect("replay succeeds");
    assert_eq!(
        replayed.verdict_digest, inline.verdict_digest,
        "replay must reproduce the inline verdicts byte for byte"
    );
    assert_eq!(replayed.batches, inline.batches);
    assert_eq!(replayed.events_processed, inline.events_processed);
    assert_eq!(
        replayed.verdicts.to_json(),
        inline.verdicts.to_json(),
        "digest equality must reflect snapshot equality"
    );
    std::fs::remove_file(&log).unwrap();
}

#[test]
fn online_and_batch_verdicts_agree_at_end_of_window() {
    let study = characterized_with_stream(7, None);
    let outcome = study.stream.as_ref().expect("outcome");
    let online = &outcome.verdicts;
    let batch = study.pipeline();

    // Signatures converge exactly: honeypots enroll on day 0 and the
    // services drive them from their full infrastructure within the
    // window, so the incremental sets reach the batch sets.
    assert_eq!(online.signatures.len(), batch.signatures.len());
    for sig in &online.signatures {
        let batch_sig = batch
            .signature_of(sig.service)
            .expect("batch learned the same services");
        assert_eq!(sig, batch_sig, "{} signature", sig.service);
    }

    // Online classification is a subset of batch (the online detector
    // cannot match days before a signature element was learned)...
    let mut online_only = 0usize;
    let mut batch_only = 0usize;
    for (service, accounts) in &online.classification.customers {
        let batch_set = &batch.classification.customers[service];
        online_only += accounts.difference(batch_set).count();
    }
    for (service, accounts) in &batch.classification.customers {
        let empty = std::collections::BTreeSet::new();
        let online_set = online
            .classification
            .customers
            .get(service)
            .unwrap_or(&empty);
        batch_only += accounts.difference(online_set).count();
    }
    assert_eq!(online_only, 0, "online verdicts must be a subset of batch");
    // ... and on smoke(7) the gap is pinned at zero: every batch customer
    // is still active after the signatures converge, so the online
    // detector catches all of them by the end of the window. If this pin
    // moves, document the new deviation here and in DESIGN.md §8.
    assert_eq!(batch_only, 0, "no batch-only customers on smoke(7)");

    // Thresholds: same table, built from the same calibration window with
    // the same classification (batch_only == 0 makes the is_abusive
    // filters identical).
    let online_table = online.threshold_table();
    assert_eq!(online_table.len(), batch.thresholds.len());
    for (&(asn, ty, direction), &v) in batch.thresholds.iter() {
        assert_eq!(
            online_table.get(asn, ty, direction),
            Some(v),
            "threshold for ({asn:?}, {ty:?}, {direction:?})"
        );
    }
    for (&asn, &kind) in batch.thresholds.asn_kinds.iter() {
        let online_kind = online
            .asn_kinds
            .iter()
            .find(|&&(a, _)| a == asn)
            .map(|&(_, k)| k);
        assert_eq!(online_kind, Some(kind), "asn kind for {asn:?}");
    }

    // Latency: with full agreement the per-service latency is finite and
    // the report covers every service the batch classifier attributed.
    let latency = study.detection_latency().expect("latency report");
    assert_eq!(
        latency.rows.len(),
        batch.classification.customers.len(),
        "one latency row per service with verdicts"
    );
    for row in &latency.rows {
        assert_eq!(row.score.fp, 0, "{}: online-only accounts", row.service);
        assert_eq!(row.score.fn_, 0, "{}: batch-only accounts", row.service);
        assert!(row.mean_days >= 0.0);
        assert!(u64::from(row.max_days) <= 90, "{}: latency bounded by window", row.service);
    }
}

#[test]
fn whole_run_log_replays_to_the_inline_verdicts() {
    let log = tmp_log("whole_run");
    let mut study = characterized_with_stream(7, Some(&log));
    study.run_narrow();
    study.run_broad();
    study.run_epilogue();
    let inline = study.stream.as_ref().expect("inline outcome");
    assert_eq!(
        (inline.verdict_digest, inline.events_processed, inline.batches),
        SMOKE_VERDICTS
    );

    // The log holds every day of all four phases, and replay still stops
    // ingesting at the freeze day.
    let mut reader = footsteps_stream::EventLogReader::open(&log).expect("log opens");
    let mut days = 0;
    while reader.next_batch().expect("day line decodes").is_some() {
        days += 1;
    }
    assert_eq!(days, study.timeline.end.0);
    let replayed = footsteps_stream::replay(&log).expect("replay succeeds");
    assert_eq!(
        (replayed.verdict_digest, replayed.events_processed, replayed.batches),
        SMOKE_VERDICTS
    );
    std::fs::remove_file(&log).unwrap();
}
