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
use footsteps_obs::tree::fnv1a;
use footsteps_sim::prelude::Day;
use footsteps_stream::{EventLogReader, LogHeader, StreamError, STREAM_SCHEMA_VERSION};
use footsteps_sweep::checkpoint;
use footsteps_sweep::scheduler::log_path;
use footsteps_sweep::SweepError;
use serde_json::Value;

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

    // One flipped byte that breaks UTF-8, as bit rot would.
    let mut flipped = good.clone().into_bytes();
    flipped[good.len() / 2] = 0xFF;
    std::fs::write(&path, flipped).unwrap();
    match checkpoint::load(&path, &sc) {
        Err(SweepError::Corrupt { detail, .. }) => assert!(detail.contains("utf-8"), "{detail}"),
        other => panic!("invalid UTF-8: expected Corrupt, got {other:?}"),
    }

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
    // Past Setup a checkpoint embeds no day: the log holds every one.
    for phase in &boundaries[1..] {
        let text = std::fs::read_to_string(ckpt(*phase)).unwrap();
        let doc = serde_json::parse(&text).expect("the checkpoint parses");
        let days = ["study", "platform", "log", "days"]
            .iter()
            .try_fold(&doc, |v, name| v.get_field(name))
            .expect("the checkpoint has study.platform.log.days");
        assert_eq!(days, &Value::Seq(Vec::new()), "the {phase:?} checkpoint embeds days");
    }

    // The wire form of every boundary: (length in bytes, FNV-1a) of each
    // checkpoint. The `Finished` envelope names the length and FNV-1a of
    // the whole-run log, so its pin covers the log as well. A change to
    // the bytes `save` writes for the same study state moves these pins
    // and needs a `SCHEMA_VERSION` bump, so old checkpoints are refused
    // instead of resumed wrongly.
    const CHECKPOINT_PINS: [(Phase, usize, u64); 5] = [
        (Phase::Setup, 1_966_887, 0x0489_447e_70a1_daaa),
        (Phase::Characterized, 3_060_002, 0x3885_ad3b_8b19_df2b),
        (Phase::NarrowDone, 3_516_258, 0xd3ab_1835_1f97_ff09),
        (Phase::BroadDone, 4_071_766, 0xf595_b663_61c3_8aec),
        (Phase::Finished, 6_566_046, 0x4f89_8a3d_f591_40a5),
    ];
    let wire: Vec<(Phase, usize, u64)> = boundaries
        .iter()
        .map(|&phase| {
            let bytes = std::fs::read(ckpt(phase)).unwrap();
            (phase, bytes.len(), fnv1a(&bytes))
        })
        .collect();
    let lines: Vec<String> = wire
        .iter()
        .zip(CHECKPOINT_PINS)
        .map(|(&(phase, len, hash), pin)| {
            let moved = if (phase, len, hash) == pin { "" } else { " // moved" };
            format!("    (Phase::{phase:?}, {len}, {hash:#018x}),{moved}")
        })
        .collect();
    assert!(
        wire == CHECKPOINT_PINS,
        "the checkpoints' wire form moved. If the format changed, bump SCHEMA_VERSION in \
         crates/sweep/src/checkpoint.rs and update CHECKPOINT_PINS; if only simulated values \
         moved, update CHECKPOINT_PINS alone. Found:\n{}",
        lines.join("\n")
    );

    let resaved = dir.join("resaved.json");
    for phase in boundaries {
        // What a kill mid-phase leaves after the boundary's prefix: whole
        // day lines of the later phases, then a torn one.
        let mut torn = whole_log.clone();
        torn.extend_from_slice(b"{\"day\":999,\"outbound\":[[");
        std::fs::write(&log, &torn).unwrap();

        let mut resumed = checkpoint::load(&ckpt(phase), &sc).expect("load");
        assert_eq!(resumed.phase, phase);
        // Saving the loaded study writes the checkpoint's bytes again, so
        // the pins above stand for everything `load` reads back.
        checkpoint::save(&resumed, &resaved).expect("save the loaded study");
        assert!(
            std::fs::read(&resaved).unwrap() == std::fs::read(ckpt(phase)).unwrap(),
            "load → save of the {phase:?} checkpoint wrote other bytes: \
             the format does not round-trip"
        );
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
    // row's count (`…,[account,asn,count]]`), so the line still parses and
    // only the digest can tell.
    let logins = b"\"logins\":[[";
    let rows = good.windows(logins.len()).rposition(|w| w == logins).expect("a login");
    let at = rows + good[rows..].windows(2).position(|w| w == b"]]").expect("the rows end") - 1;
    assert!(good[at].is_ascii_digit(), "a count ends at byte {at}");
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

/// The value of field `name` of a JSON object.
fn field<'a>(v: &'a mut Value, name: &str) -> &'a mut Value {
    let Value::Map(pairs) = v else { panic!("`{name}` of a non-object") };
    let key = Value::Str(name.to_string());
    pairs.iter_mut().find(|(k, _)| *k == key).map(|(_, v)| v).expect(name)
}

fn items(v: &mut Value) -> &mut Vec<Value> {
    let Value::Seq(items) = v else { panic!("not an array") };
    items
}

/// Day 0 of a `Setup` checkpoint, the one day it embeds.
fn day0(checkpoint: &mut Value) -> &mut Value {
    let mut v = checkpoint;
    for name in ["study", "platform", "log", "days"] {
        v = field(v, name);
    }
    &mut items(v)[0]
}

/// The first outbound row of a day: `[key, counts]`.
fn first_outbound(day: &mut Value) -> &mut Vec<Value> {
    items(&mut items(field(day, "outbound"))[0])
}

fn counts(day: &mut Value) -> &mut Vec<Value> {
    items(&mut first_outbound(day)[1])
}

/// What a malformed-row case does, its edit of a day, and a fragment of
/// the error it must give.
type RowEdit = (&'static str, fn(&mut Value), &'static str);

/// An event row at day 0 with the given outcome tag.
fn event_row(outcome: &str) -> Value {
    let tag = |s: &str| Value::Str(s.to_string());
    Value::Seq(vec![
        Value::U64(7),
        Value::U64(1),
        tag("Like"),
        tag("SelfContent"),
        Value::U64(2),
        Value::U64(3),
        tag("OfficialApp"),
        tag(outcome),
    ])
}

#[test]
fn malformed_day_rows_are_typed_errors() {
    let dir = tmp_dir("malformed-rows");
    let sc = smoke(3);
    let path = dir.join("ckpt.json");
    checkpoint::save(&Study::new(sc.clone()), &path).expect("save");
    let good = serde_json::parse(&std::fs::read_to_string(&path).unwrap()).expect("parses");
    // The checkpoint re-encoded from its document loads: each failure
    // below comes from its edit.
    std::fs::write(&path, serde_json::to_string(&good).unwrap()).unwrap();
    checkpoint::load(&path, &sc).expect("the re-encoded checkpoint loads");

    // Day 0 as the one day line of a log.
    let log = dir.join("log.jsonl");
    let header = LogHeader {
        schema_version: STREAM_SCHEMA_VERSION,
        seed: 3,
        calibration_start: Day(0),
        calibration_end: Day(1),
        window_days: 1,
        roster: Vec::new(),
    };
    let read_day0 = |doc: &mut Value| {
        let header = serde_json::to_string(&header).unwrap();
        let day = serde_json::to_string(day0(doc)).unwrap();
        std::fs::write(&log, format!("{header}\n{day}\n")).unwrap();
        EventLogReader::open(&log).expect("the header reads").next_batch()
    };
    let mut with_event = good.clone();
    items(field(day0(&mut with_event), "events")).push(event_row("Delivered"));
    assert!(read_day0(&mut with_event).expect("day 0 reads").is_some());

    let edits: [RowEdit; 5] = [
        ("a 14-cell counts row", |day| drop(counts(day).pop()), "length 15"),
        ("a 16-cell counts row", |day| counts(day).push(Value::U64(0)), "length 15"),
        (
            "a counts row whose like cells overflow u32",
            |day| {
                let cells = counts(day);
                cells[0] = Value::U64(u32::MAX.into());
                cells[5] = Value::U64(1);
            },
            "like counts overflow u32",
        ),
        (
            "a 2-element outbound key",
            |day| drop(items(&mut first_outbound(day)[0]).pop()),
            "length 3",
        ),
        (
            "a RateLimited event",
            |day| items(field(day, "events")).push(event_row("RateLimited")),
            "unknown variant `RateLimited`",
        ),
    ];
    for (what, edit, error) in edits {
        let mut doc = good.clone();
        edit(day0(&mut doc));
        match read_day0(&mut doc) {
            Err(StreamError::Corrupt(msg)) => {
                assert!(msg.starts_with("line 2: ") && msg.contains(error), "{what}: {msg}");
            }
            other => panic!("{what}: expected a corrupt line 2, got {other:?}"),
        }
        std::fs::write(&path, serde_json::to_string(&doc).unwrap()).unwrap();
        match checkpoint::load(&path, &sc) {
            Err(SweepError::Corrupt { detail, .. }) => {
                assert!(detail.contains(error), "{what}: {detail}");
            }
            other => panic!("{what} in a Setup checkpoint: expected Corrupt, got {other:?}"),
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}
