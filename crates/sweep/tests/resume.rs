//! The tentpole guarantee: a study resumed from **any** phase-boundary
//! checkpoint reproduces the uninterrupted run's `StudyResults` digests
//! byte-for-byte.
//!
//! The characterization-point digest is the same golden value the
//! determinism suite pins (`tests/tests/determinism.rs`); the post-
//! characterization boundaries are compared against the uninterrupted
//! run's final-state digest computed in this test (results are *not*
//! phase-stable — cumulative login counters feed Figure 2 — so each
//! boundary is checked at the phase where its digest is defined).

use std::path::PathBuf;

use footsteps_core::results::StudyResults;
use footsteps_core::{Phase, Scenario, Study};
use footsteps_sweep::checkpoint;
use footsteps_sweep::scheduler::log_path;
use footsteps_sweep::SweepError;

/// The determinism suite's golden digest for `Scenario::smoke(7)`. It is
/// worker-thread invariant (pinned by `tests/tests/determinism.rs`), so
/// this suite runs on four threads for wall time.
const GOLDEN_SMOKE_DIGEST: u64 = 0xce8a_eb34_fb9f_e096;

fn smoke(seed: u64) -> Scenario {
    let mut s = Scenario::smoke(seed);
    s.worker_threads = 4;
    s
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("footsteps-resume-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn resume_from_every_phase_boundary_reproduces_uninterrupted_digests() {
    let dir = tmp_dir("boundaries");
    let sc = smoke(7);
    let ckpt = |phase| checkpoint::path_for(&dir, "smoke", 7, phase);

    // Uninterrupted run, checkpointing at all five boundaries.
    let mut study = Study::new(sc.clone());
    checkpoint::save(&study, &ckpt(Phase::Setup)).expect("save setup");
    study.run_characterization();
    checkpoint::save(&study, &ckpt(Phase::Characterized)).expect("save characterized");
    assert_eq!(
        StudyResults::collect(&study).digest(),
        GOLDEN_SMOKE_DIGEST,
        "uninterrupted characterization digest must match the determinism suite"
    );
    study.run_narrow();
    checkpoint::save(&study, &ckpt(Phase::NarrowDone)).expect("save narrow-done");
    study.run_broad();
    checkpoint::save(&study, &ckpt(Phase::BroadDone)).expect("save broad-done");
    study.run_epilogue();
    checkpoint::save(&study, &ckpt(Phase::Finished)).expect("save finished");
    let final_digest = StudyResults::collect(&study).digest();
    drop(study);

    // Setup boundary: the whole characterization replays identically.
    let mut resumed = checkpoint::load(&ckpt(Phase::Setup), &sc).expect("load setup");
    assert_eq!(resumed.phase, Phase::Setup);
    resumed.run_characterization();
    assert_eq!(StudyResults::collect(&resumed).digest(), GOLDEN_SMOKE_DIGEST);

    // Characterized boundary: the golden digest is readable immediately,
    // and the remaining phases replay to the uninterrupted end state.
    let mut resumed = checkpoint::load(&ckpt(Phase::Characterized), &sc).expect("load characterized");
    assert_eq!(resumed.phase, Phase::Characterized);
    assert_eq!(StudyResults::collect(&resumed).digest(), GOLDEN_SMOKE_DIGEST);
    resumed.run_narrow();
    resumed.run_broad();
    resumed.run_epilogue();
    assert_eq!(StudyResults::collect(&resumed).digest(), final_digest);

    // NarrowDone boundary.
    let mut resumed = checkpoint::load(&ckpt(Phase::NarrowDone), &sc).expect("load narrow-done");
    assert_eq!(resumed.phase, Phase::NarrowDone);
    resumed.run_broad();
    resumed.run_epilogue();
    assert_eq!(StudyResults::collect(&resumed).digest(), final_digest);

    // BroadDone boundary.
    let mut resumed = checkpoint::load(&ckpt(Phase::BroadDone), &sc).expect("load broad-done");
    assert_eq!(resumed.phase, Phase::BroadDone);
    resumed.run_epilogue();
    assert_eq!(StudyResults::collect(&resumed).digest(), final_digest);

    // Finished boundary: pure state restoration.
    let resumed = checkpoint::load(&ckpt(Phase::Finished), &sc).expect("load finished");
    assert_eq!(resumed.phase, Phase::Finished);
    assert_eq!(StudyResults::collect(&resumed).digest(), final_digest);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_and_mismatched_checkpoints_fail_with_typed_errors() {
    let dir = tmp_dir("corruption");
    let sc = smoke(3);
    let study = Study::new(sc.clone());
    let path = dir.join("ckpt.json");
    checkpoint::save(&study, &path).expect("save");
    let good = std::fs::read_to_string(&path).expect("read back");

    // Sanity: the pristine file loads.
    checkpoint::load(&path, &sc).expect("pristine checkpoint loads");

    // Truncated write (what a kill without the atomic rename would leave).
    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    match checkpoint::load(&path, &sc) {
        Err(SweepError::Corrupt { .. }) => {}
        other => panic!("truncated file: expected Corrupt, got {other:?}"),
    }

    // Outright garbage.
    std::fs::write(&path, "not json at all {").unwrap();
    assert!(matches!(checkpoint::load(&path, &sc), Err(SweepError::Corrupt { .. })));

    // Foreign schema version, with a readable message.
    let version_field = format!("\"schema_version\":{}", checkpoint::SCHEMA_VERSION);
    std::fs::write(&path, good.replacen(&version_field, "\"schema_version\":999", 1))
        .unwrap();
    match checkpoint::load(&path, &sc) {
        Err(e @ SweepError::VersionMismatch { found: 999, .. }) => {
            let msg = e.to_string();
            assert!(msg.contains("v999"), "message should name the version: {msg}");
        }
        other => panic!("foreign version: expected VersionMismatch, got {other:?}"),
    }

    // Right file, wrong scenario (a different seed).
    std::fs::write(&path, &good).unwrap();
    match checkpoint::load(&path, &smoke(4)) {
        Err(e @ SweepError::ScenarioMismatch { .. }) => {
            assert!(e.to_string().contains("scenario"), "message: {e}");
        }
        other => panic!("wrong scenario: expected ScenarioMismatch, got {other:?}"),
    }

    // Envelope phase marker disagreeing with the embedded study.
    std::fs::write(&path, good.replacen("\"phase\":\"Setup\"", "\"phase\":\"Finished\"", 1))
        .unwrap();
    match checkpoint::load(&path, &sc) {
        Err(SweepError::Corrupt { detail, .. }) => {
            assert!(detail.contains("Finished"), "detail: {detail}");
        }
        other => panic!("phase mismatch: expected Corrupt, got {other:?}"),
    }

    // Missing file.
    std::fs::remove_file(&path).unwrap();
    assert!(matches!(checkpoint::load(&path, &sc), Err(SweepError::Io { .. })));

    std::fs::remove_dir_all(&dir).ok();
}

/// Run the phase after `study`'s.
fn run_next_phase(study: &mut Study) {
    match study.phase {
        Phase::Setup => study.run_characterization(),
        Phase::Characterized => study.run_narrow(),
        Phase::NarrowDone => study.run_broad(),
        Phase::BroadDone => study.run_epilogue(),
        Phase::Finished => panic!("the study is finished"),
    }
}

/// Run the phases after `study`'s, returning the results digest at the
/// `Characterized` boundary (if this run crossed it) and at the end.
fn finish(study: &mut Study) -> (Option<u64>, u64) {
    let mut characterized = None;
    while study.phase < Phase::Finished {
        run_next_phase(study);
        if study.phase == Phase::Characterized {
            characterized = Some(StudyResults::collect(study).digest());
        }
    }
    (characterized, StudyResults::collect(study).digest())
}

#[test]
fn recorded_resume_from_every_boundary_reproduces_digests_and_log() {
    let dir = tmp_dir("recorded");
    let sc = smoke(7);
    let ckpt = |phase| checkpoint::path_for(&dir, "smoke", 7, phase);
    let log = log_path(&dir, "smoke", 7);
    let boundaries =
        [Phase::Setup, Phase::Characterized, Phase::NarrowDone, Phase::BroadDone, Phase::Finished];

    // Uninterrupted run with the recorder on, checkpointing at all five
    // boundaries as the sweep does.
    let mut study = Study::new(sc.clone());
    study.attach_stream(Some(&log)).expect("recorder attaches");
    checkpoint::save(&study, &ckpt(Phase::Setup)).expect("save setup");
    while study.phase < Phase::Finished {
        run_next_phase(&mut study);
        checkpoint::save(&study, &ckpt(study.phase)).expect("save");
        if study.phase == Phase::Characterized {
            assert_eq!(StudyResults::collect(&study).digest(), GOLDEN_SMOKE_DIGEST);
        }
    }
    let final_digest = StudyResults::collect(&study).digest();
    drop(study);
    let whole_log = std::fs::read(&log).expect("log recorded");
    assert_eq!(
        whole_log.iter().filter(|&&b| b == b'\n').count(),
        1 + sc.characterization_days as usize
            + (sc.narrow_days + sc.broad_days + sc.epilogue_days) as usize,
        "one header line and one line per day of all four phases"
    );
    // Past Setup a checkpoint embeds no day, so it is far smaller than the log.
    let finished_size = std::fs::metadata(ckpt(Phase::Finished)).unwrap().len();
    assert!(finished_size < whole_log.len() as u64 / 4, "finished checkpoint is {finished_size} B");

    for phase in boundaries {
        // What a kill mid-phase leaves after the boundary's prefix: whole
        // day lines of the later phases, then a torn one.
        let mut torn = whole_log.clone();
        torn.extend_from_slice(b"{\"day\":999,\"outbound\":[[");
        std::fs::write(&log, &torn).unwrap();

        let mut resumed = checkpoint::load(&ckpt(phase), &sc).expect("load");
        assert_eq!(resumed.phase, phase);
        if phase == Phase::Characterized {
            assert_eq!(StudyResults::collect(&resumed).digest(), GOLDEN_SMOKE_DIGEST);
        }
        let (characterized, end) = finish(&mut resumed);
        if phase == Phase::Setup {
            assert_eq!(characterized, Some(GOLDEN_SMOKE_DIGEST));
        }
        assert_eq!(end, final_digest, "resumed at {phase:?}");
        drop(resumed);
        assert!(
            std::fs::read(&log).unwrap() == whole_log,
            "resumed at {phase:?}: the log differs from the uninterrupted one"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_short_altered_or_foreign_logs_are_typed_errors() {
    let dir = tmp_dir("bad-logs");
    let sc = smoke(3);
    let path = dir.join("ckpt.json");
    let log = dir.join("log.jsonl");
    let mut study = Study::new(sc.clone());
    study.attach_stream(Some(&log)).expect("recorder attaches");
    study.run_characterization();
    checkpoint::save(&study, &path).expect("save");
    drop(study);
    let good = std::fs::read(&log).expect("log recorded");
    checkpoint::load(&path, &sc).expect("pristine checkpoint and log load");

    let with_log = |bytes: &[u8]| {
        std::fs::write(&log, bytes).unwrap();
        checkpoint::load(&path, &sc)
    };
    let names_log = |e: &SweepError| e.to_string().starts_with(&log.display().to_string());

    // Shorter than the prefix.
    match with_log(&good[..good.len() - 100]) {
        Err(e @ SweepError::Corrupt { .. }) => assert!(names_log(&e), "{e}"),
        other => panic!("short log: expected Corrupt, got {other:?}"),
    }

    // One byte altered inside the prefix: the last digit of the last login
    // count, so the line still parses and only the digest can tell.
    let count = b"\"count\":";
    let mut at = good.windows(count.len()).rposition(|w| w == count).expect("a login");
    at += count.len();
    while good[at + 1].is_ascii_digit() {
        at += 1;
    }
    let mut altered = good.clone();
    altered[at] = if altered[at] == b'9' { b'8' } else { altered[at] + 1 };
    match with_log(&altered) {
        Err(SweepError::Corrupt { detail, .. }) => assert!(detail.contains("FNV-1a"), "{detail}"),
        other => panic!("altered log: expected Corrupt, got {other:?}"),
    }

    // A header from a foreign stream schema.
    let version = format!("\"schema_version\":{}", footsteps_stream::STREAM_SCHEMA_VERSION);
    let text = String::from_utf8(good.clone()).unwrap();
    let foreign = text.replacen(&version, "\"schema_version\":99", 1);
    match with_log(foreign.as_bytes()) {
        Err(e @ SweepError::VersionMismatch { found: 99, .. }) => assert!(names_log(&e), "{e}"),
        other => panic!("foreign log: expected VersionMismatch, got {other:?}"),
    }

    // Missing.
    std::fs::remove_file(&log).unwrap();
    match checkpoint::load(&path, &sc) {
        Err(SweepError::Io { path, .. }) => assert_eq!(path, log),
        other => panic!("missing log: expected Io, got {other:?}"),
    }

    std::fs::remove_dir_all(&dir).ok();
}
