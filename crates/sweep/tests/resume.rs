//! The tentpole guarantee: a sweep job that a kill interrupted after
//! **any** phase boundary resumes by running again, and writes the
//! uninterrupted job's results, metrics, latency and log bytes and its
//! manifest digest.
//!
//! The manifest digest is the characterization-point results digest, the
//! same golden value the determinism suite pins
//! (`tests/tests/determinism.rs`).

use std::path::{Path, PathBuf};

use footsteps_core::{Phase, Scenario, Study};
use footsteps_stream::{EventLogReader, StreamError};
use footsteps_sweep::manifest::{JobStatus, Manifest};
use footsteps_sweep::scheduler::{
    latency_path, log_path, manifest_path, metrics_path, results_path, resume_sweep, run_sweep,
    SweepConfig,
};
use serde_json::Value;

/// The determinism suite's golden digest for `Scenario::smoke(7)`.
const GOLDEN_SMOKE_DIGEST: u64 = 0xce8a_eb34_fb9f_e096;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("footsteps-resume-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The first `n` (at least one) lines of `text`, each with its newline.
fn first_lines(text: &[u8], n: usize) -> &[u8] {
    let mut newlines = text.iter().enumerate().filter(|&(_, &b)| b == b'\n');
    let (end, _) = newlines.nth(n - 1).expect("the text has n lines");
    &text[..=end]
}

#[test]
fn recorded_resume_from_every_boundary_reproduces_digests_and_log() {
    let dir = tmp_dir("boundaries");
    let sc = Scenario::smoke(7);
    let cfg = SweepConfig {
        dir: dir.clone(),
        variants: vec![("smoke".into(), sc.clone())],
        seeds: vec![7],
        workers: 1,
    };
    let done = run_sweep(&cfg).expect("uninterrupted sweep");
    assert_eq!(done.manifest.job("smoke", 7).unwrap().digest, Some(GOLDEN_SMOKE_DIGEST));

    let per_seed: [PathBuf; 3] = [
        results_path(&dir, "smoke", 7),
        metrics_path(&dir, "smoke", 7),
        latency_path(&dir, "smoke", 7),
    ];
    let log = log_path(&dir, "smoke", 7);
    let read = |p: &Path| std::fs::read(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
    let whole: Vec<Vec<u8>> = per_seed.iter().map(|p| read(p)).collect();
    let whole_log = read(&log);
    let (c, n, b, e) = (sc.characterization_days, sc.narrow_days, sc.broad_days, sc.epilogue_days);
    assert_eq!(
        whole_log.iter().filter(|&&b| b == b'\n').count(),
        1 + (c + n + b + e) as usize,
        "one header line and one line per day of all four phases"
    );
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(!names.iter().any(|name| name.starts_with("ckpt_")), "{names:?}");

    // Each boundary and the days the log holds when the job reaches it.
    let boundaries = [
        (Phase::Setup, 0),
        (Phase::Characterized, c),
        (Phase::NarrowDone, c + n),
        (Phase::BroadDone, c + n + b),
        (Phase::Finished, c + n + b + e),
    ];
    let mpath = manifest_path(&dir);
    for (phase, days) in boundaries {
        // What a kill after `phase` leaves: the manifest has the job
        // running at that phase, the log holds the header and the days
        // before the boundary, then a torn line, and the per-seed files
        // exist once characterization has written them.
        let mut m = Manifest::load(&mpath).expect("load manifest");
        let job = m.job_mut("smoke", 7);
        job.status = JobStatus::Running;
        job.phase = phase;
        job.digest = (phase >= Phase::Characterized).then_some(GOLDEN_SMOKE_DIGEST);
        m.save(&mpath).expect("save manifest");
        let mut torn = first_lines(&whole_log, 1 + days as usize).to_vec();
        torn.extend_from_slice(format!("{{\"day\":{days},\"outbound\":[[").as_bytes());
        std::fs::write(&log, torn).unwrap();
        for (path, bytes) in per_seed.iter().zip(&whole) {
            if phase >= Phase::Characterized {
                std::fs::write(path, bytes).unwrap();
            } else {
                std::fs::remove_file(path).unwrap();
            }
        }

        let out = resume_sweep(&dir, 1).unwrap_or_else(|e| panic!("resume after {phase:?}: {e}"));
        assert_eq!((out.ran, out.skipped), (1, 0), "resume after {phase:?}");
        let job = out.manifest.job("smoke", 7).unwrap();
        assert_eq!(
            (job.status, job.phase, job.digest),
            (JobStatus::Done, Phase::Finished, Some(GOLDEN_SMOKE_DIGEST)),
            "resume after {phase:?}"
        );
        for (path, bytes) in per_seed.iter().zip(&whole) {
            assert!(
                read(path) == *bytes,
                "resume after {phase:?}: {} differs from the uninterrupted job's",
                path.display()
            );
        }
        assert!(
            read(&log) == whole_log,
            "resume after {phase:?}: the log differs from the uninterrupted job's"
        );
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
    let log = dir.join("log.jsonl");
    let mut study = Study::new(Scenario::quick(3));
    study.attach_stream(Some(&log)).expect("recorder attaches");
    study.run_characterization();
    drop(study);
    let text = std::fs::read_to_string(&log).expect("log recorded");
    let mut lines = text.lines();
    let header = lines.next().expect("a header line").to_owned();
    let good = serde_json::parse(lines.next().expect("a day 0 line")).expect("day 0 parses");

    // Day 0 as the one day line of a log.
    let read_day0 = |day: &Value| {
        let day = serde_json::to_string(day).unwrap();
        std::fs::write(&log, format!("{header}\n{day}\n")).unwrap();
        EventLogReader::open(&log).expect("the header reads").next_batch()
    };
    // The line re-encoded from its document reads, and so does one more
    // event: each failure below comes from its edit.
    assert!(read_day0(&good).expect("day 0 reads").is_some());
    let mut with_event = good.clone();
    items(field(&mut with_event, "events")).push(event_row("Delivered"));
    assert!(read_day0(&with_event).expect("day 0 reads").is_some());

    let edits: [RowEdit; 10] = [
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
        (
            "two outbound rows swapped",
            |day| items(field(day, "outbound")).swap(0, 1),
            "outbound row 1 does not follow row 0",
        ),
        (
            "an outbound row repeated",
            |day| {
                let rows = items(field(day, "outbound"));
                rows.insert(1, rows[0].clone());
            },
            "outbound row 1 does not follow row 0",
        ),
        (
            "two inbound rows swapped",
            |day| items(field(day, "inbound")).swap(0, 1),
            "inbound row 1 does not follow row 0",
        ),
        (
            "a login row repeated",
            |day| {
                let rows = items(field(day, "logins"));
                rows.insert(1, rows[0].clone());
            },
            "logins row 1 does not follow row 0",
        ),
        (
            "a photo_likes key repeated",
            |day| {
                let Value::Map(entries) = field(day, "photo_likes") else {
                    panic!("photo_likes is an object")
                };
                entries.insert(1, entries[0].clone());
            },
            "duplicate map key \"",
        ),
    ];
    for (what, edit, error) in edits {
        let mut day = good.clone();
        edit(&mut day);
        match read_day0(&day) {
            Err(StreamError::Corrupt(msg)) => {
                assert!(msg.starts_with("line 2: ") && msg.contains(error), "{what}: {msg}");
            }
            other => panic!("{what}: expected a corrupt line 2, got {other:?}"),
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}
