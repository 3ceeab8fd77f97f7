//! The JSON codec contract (DESIGN.md §9): recorded artifacts keep their
//! exact bytes and decode back to the values that wrote them, strings and
//! numbers follow RFC 8259, nesting is bounded, and malformed input is an
//! error, never a panic.

use footsteps_core::{Scenario, Study};
use footsteps_detect::{AsnTraffic, Classification, ServiceSignature};
use footsteps_obs::tree::fnv1a;
use footsteps_sim::prelude::{
    ActionType, AsnId, ClientFingerprint, Day, DayLog, Direction, ServiceId,
};
use footsteps_stream::{
    EventLogReader, EventLogWriter, LogHeader, StreamError, VerdictSnapshot,
    STREAM_SCHEMA_VERSION, VERDICT_SCHEMA_VERSION,
};
use proptest::prelude::*;
use serde_json::Value;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::OnceLock;

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("footsteps_json_codec_{}_{name}", std::process::id()))
}

/// The event log `Scenario::quick(7)` at one worker thread records over
/// characterization.
struct QuickRun {
    log: String,
}

impl QuickRun {
    /// The log's day lines (every line after the header).
    fn batch_lines(&self) -> Vec<&str> {
        self.log.lines().skip(1).collect()
    }
}

fn quick_run() -> &'static QuickRun {
    static RUN: OnceLock<QuickRun> = OnceLock::new();
    RUN.get_or_init(|| {
        let mut scenario = Scenario::quick(7);
        scenario.worker_threads = 1;
        let mut study = Study::new(scenario);
        let log = tmp_path("quick7.jsonl");
        study.attach_stream(Some(&log)).expect("recorder attaches");
        study.run_characterization();
        drop(study);
        let log_text = std::fs::read_to_string(&log).expect("log was recorded");
        std::fs::remove_file(&log).ok();
        QuickRun { log: log_text }
    })
}

#[test]
fn verdict_snapshot_encodes_a_benign_asn() {
    // No smoke(7) run freezes a benign signature ASN: every one carries
    // abusive traffic. A hand-built snapshot pins that variant's bytes.
    let snapshot = VerdictSnapshot {
        schema_version: VERDICT_SCHEMA_VERSION,
        frozen_on: Day(10),
        signatures: Vec::new(),
        classification: Classification::default(),
        thresholds: vec![((AsnId(3), ActionType::Follow, Direction::Outbound), 40)],
        asn_kinds: vec![(AsnId(3), AsnTraffic::Benign)],
    };
    assert_eq!(
        snapshot.to_json(),
        r#"{"schema_version":1,"frozen_on":10,"signatures":[],"classification":{"customers":{},"first_seen":{},"last_seen":{},"active_days":{}},"thresholds":[[[3,"Follow","Outbound"],40]],"asn_kinds":[[3,"Benign"]]}"#
    );
    let table = snapshot.threshold_table();
    assert_eq!(table.asn_kinds.get(&AsnId(3)), Some(&AsnTraffic::Benign));
    assert_eq!(table.get(AsnId(3), ActionType::Follow, Direction::Outbound), Some(40));
}

/// A signature's sets are written in their elements' order, not their
/// insertion order: ASNs by number, and `OfficialApp` before every
/// `SpoofedMobile`, the spoofed clients by `variant`. No smoke pin has a
/// signature with more than one fingerprint, so this pin is the one that
/// fixes the fingerprint order in the verdict snapshot.
#[test]
fn service_signature_sets_are_written_in_element_order() {
    let sig = ServiceSignature {
        service: ServiceId::Hublaagram,
        asns: BTreeSet::from([AsnId(12), AsnId(3)]),
        fingerprints: BTreeSet::from([
            ClientFingerprint::SpoofedMobile { variant: 2 },
            ClientFingerprint::OfficialApp,
            ClientFingerprint::SpoofedMobile { variant: 1 },
        ]),
        collusion: true,
    };
    assert_eq!(
        serde_json::to_string(&sig).unwrap(),
        r#"{"service":"Hublaagram","asns":[3,12],"fingerprints":["OfficialApp",{"SpoofedMobile":{"variant":1}},{"SpoofedMobile":{"variant":2}}],"collusion":true}"#
    );
}

#[test]
fn recorded_quick_log_keeps_its_wire_bytes() {
    let run = quick_run();
    let log = &run.log;
    // The header is a pure function of the scenario, so the whole file is
    // pinned.
    assert_eq!((log.len(), fnv1a(log.as_bytes())), (7_652_963, 0x3acc_cdd3_61c7_8e51));
    let header_line = log.lines().next().expect("header line");
    let header: LogHeader = serde_json::from_str(header_line).expect("header decodes");
    assert_eq!(serde_json::to_string(&header).unwrap(), header_line);
    let lines = run.batch_lines();
    assert_eq!(lines.len(), 16);
    for (i, line) in lines.iter().enumerate() {
        let day: DayLog = serde_json::from_str(line).expect("batch line decodes");
        let again = serde_json::to_string(&day).expect("batch encodes");
        assert!(&again == line, "decode + encode changed batch line {i}");
    }
}

#[test]
fn strings_and_numbers_follow_rfc_8259() {
    let s = |x: &str| Some(Value::Str(x.to_string()));
    // (input, the value it must parse to, or None for an error)
    let cases: Vec<(&str, Option<Value>)> = vec![
        (r#""A""#, s("A")),
        (r#""\u0041\u00e9é""#, s("Aéé")),
        (r#""\u+041""#, None),
        (r#""\u-041""#, None),
        (r#""\u041""#, None),
        (r#""\u004g""#, None),
        (r#""\ud83d\ude00""#, s("😀")),
        (r#""\uD83D\uDE00x""#, s("😀x")),
        (r#""\ud83d""#, None),
        (r#""\ud83dx""#, None),
        (r#""\ud83dA""#, None),
        (r#""\ud83d\u0041""#, None),
        (r#""\ude00""#, None),
        (r#""\ude00\ud83d""#, None),
        ("\"a\u{1}b\"", None),
        ("\"a\nb\"", None),
        ("\"a\tb\"", None),
        ("\"\u{1f}\"", None),
        ("\"\u{7f}\u{e9}\"", s("\u{7f}é")),
        (r#""\/\b\f\n\r\t\"\\""#, s("/\u{8}\u{c}\n\r\t\"\\")),
        (r#""\x""#, None),
        ("0", Some(Value::U64(0))),
        ("-0", Some(Value::I64(0))),
        ("10", Some(Value::U64(10))),
        ("-12", Some(Value::I64(-12))),
        ("1.5", Some(Value::F64(1.5))),
        ("0.25", Some(Value::F64(0.25))),
        ("1e3", Some(Value::F64(1000.0))),
        ("2E-2", Some(Value::F64(0.02))),
        ("-1.5e+2", Some(Value::F64(-150.0))),
        ("01", None),
        ("-01", None),
        ("00", None),
        ("1.", None),
        ("1.e5", None),
        (".5", None),
        ("-", None),
        ("+1", None),
        ("1e", None),
        ("1e+", None),
        ("0x10", None),
    ];
    for (input, want) in &cases {
        match (serde_json::parse(input), want) {
            (Ok(got), Some(want)) => assert_eq!(&got, want, "{input:?}"),
            (Err(_), None) => {}
            (got, want) => panic!("{input:?}: got {got:?}, want {want:?}"),
        }
    }
    // Typed reads apply the same rules.
    assert!(serde_json::from_str::<u32>("01").is_err());
    assert!(serde_json::from_str::<f64>("1.").is_err());
    assert!(serde_json::from_str::<String>(r#""\u+041""#).is_err());
    assert_eq!(serde_json::from_str::<String>(r#""\ud83d\ude00""#).unwrap(), "😀");
    // The writer escapes control characters, so its strings read back.
    let text = serde_json::to_string("a\u{1}\u{1f}\n😀").unwrap();
    assert_eq!(text, r#""a\u0001\u001f\n😀""#);
    assert_eq!(serde_json::from_str::<String>(&text).unwrap(), "a\u{1}\u{1f}\n😀");
}

#[test]
fn nesting_deeper_than_the_limit_is_an_error() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(serde_json::parse(&nested(128)).is_ok());
    assert!(serde_json::parse(&nested(129)).is_err());

    let deep = "[".repeat(100_000);
    assert!(serde_json::parse(&deep).is_err());
    assert!(serde_json::from_str::<DayLog>(&deep).is_err());
    // The same depth under a key a batch does not have: the skip path.
    let under_unknown_key = format!("{{\"day\":0,\"extra\":{deep}}}");
    assert!(serde_json::from_str::<DayLog>(&under_unknown_key).is_err());
}

#[test]
fn deeply_nested_log_line_is_corrupt() {
    let path = tmp_path("deep.jsonl");
    let header = LogHeader {
        schema_version: STREAM_SCHEMA_VERSION,
        seed: 7,
        calibration_start: Day(2),
        calibration_end: Day(10),
        window_days: 8,
        roster: Vec::new(),
    };
    EventLogWriter::create(&path, &header).unwrap().finish().unwrap();
    let mut text = std::fs::read_to_string(&path).unwrap();
    text.push_str(&"[".repeat(100_000));
    text.push('\n');
    std::fs::write(&path, text).unwrap();
    let mut reader = EventLogReader::open(&path).unwrap();
    match reader.next_batch() {
        Err(StreamError::Corrupt(msg)) => assert!(msg.contains("line 2"), "{msg}"),
        other => panic!("expected a corrupt line, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

/// A real batch line cut down to a few records of every kind, so that
/// each property case decodes it quickly.
fn small_batch_line() -> &'static str {
    static LINE: OnceLock<String> = OnceLock::new();
    LINE.get_or_init(|| {
        let run = quick_run();
        let Value::Map(mut fields) = serde_json::parse(run.batch_lines()[9]).unwrap() else {
            panic!("a batch line is an object");
        };
        for (_, value) in &mut fields {
            match value {
                Value::Seq(rows) => rows.truncate(3),
                Value::Map(rows) => rows.truncate(3),
                _ => {}
            }
        }
        let text = serde_json::to_string(&Value::Map(fields)).unwrap();
        let day: DayLog = serde_json::from_str(&text).expect("the cut line decodes");
        assert!(
            day.inbound().next().is_some() && !day.logins().is_empty() && !day.events.is_empty(),
            "the sample line should carry every record kind"
        );
        serde_json::to_string(&day).unwrap()
    })
}

/// Bytes JSON is made of, so random documents reach deep into the reader.
const JSON_ALPHABET: &[u8] = b"[]{}[]{},:\"\"\\\\/u0123456789-+.eEtrufalsn \n\tAzd8DE\x01\xc3\xa9";

proptest! {
    /// Arbitrary bytes never panic the reader.
    #[test]
    fn arbitrary_bytes_decode_or_fail(bytes in prop::collection::vec(any::<u8>(), 0..48)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = serde_json::from_str::<Value>(&text);
        let _ = serde_json::from_str::<DayLog>(&text);
    }

    /// Random JSON-alphabet text never panics the reader, and whatever
    /// parses as a document encodes to text that parses again.
    #[test]
    fn json_alphabet_soup_decodes_or_fails(picks in prop::collection::vec(0usize..1000, 0..64)) {
        let bytes: Vec<u8> = picks.iter().map(|&i| JSON_ALPHABET[i % JSON_ALPHABET.len()]).collect();
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(value) = serde_json::from_str::<Value>(&text) {
            let again = serde_json::to_string(&value).unwrap();
            prop_assert!(serde_json::parse(&again).is_ok(), "{again}");
        }
        let _ = serde_json::from_str::<DayLog>(&text);
    }

    /// Every strict prefix of a batch line is an error.
    #[test]
    fn truncated_batch_line_is_an_error(cut in 0usize..4096) {
        let line = small_batch_line();
        let prefix = String::from_utf8_lossy(&line.as_bytes()[..cut % line.len()]);
        prop_assert!(serde_json::from_str::<DayLog>(&prefix).is_err());
        let _ = serde_json::from_str::<Value>(&prefix);
    }

    /// Flipped bytes in a batch line decode or fail, never panic.
    #[test]
    fn flipped_batch_line_decodes_or_fails(flips in prop::collection::vec((0usize..4096, any::<u8>()), 1..4)) {
        let mut bytes = small_batch_line().as_bytes().to_vec();
        let len = bytes.len();
        for (pos, byte) in flips {
            bytes[pos % len] = byte;
        }
        let text = String::from_utf8_lossy(&bytes);
        let _ = serde_json::from_str::<DayLog>(&text);
        let _ = serde_json::from_str::<Value>(&text);
    }
}
