//! The JSON codec contract (DESIGN.md §9): recorded artifacts keep their
//! exact bytes and decode back to the values that wrote them, strings and
//! numbers follow RFC 8259, nesting is bounded, and malformed input is an
//! error, never a panic.

use footsteps_aas::Service;
use footsteps_core::{Scenario, Study};
use footsteps_detect::{AsnTraffic, ThresholdTable};
use footsteps_obs::tree::fnv1a;
use footsteps_sim::prelude::{ActionType, AsnId, Day, DayLog, Direction};
use footsteps_stream::{
    EventLogReader, EventLogWriter, LogHeader, StreamError, STREAM_SCHEMA_VERSION,
};
use proptest::prelude::*;
use serde_json::Value;
use std::path::PathBuf;
use std::sync::OnceLock;

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("footsteps_json_codec_{}_{name}", std::process::id()))
}

/// `Scenario::quick(7)` at one worker thread: the study before and after
/// characterization with the pins of its components, and the event log
/// recorded meanwhile.
struct QuickRun {
    fresh: String,
    fresh_parts: Vec<Pin>,
    characterized: String,
    characterized_parts: Vec<Pin>,
    log: String,
}

impl QuickRun {
    /// The log's day lines (every line after the header).
    fn batch_lines(&self) -> Vec<&str> {
        self.log.lines().skip(1).collect()
    }
}

/// A component's name and the (bytes, FNV-1a) of its encoding.
type Pin = (&'static str, (usize, u64));

fn pin<T: serde::Serialize>(name: &'static str, value: &T) -> Pin {
    let doc = serde_json::to_string(value).expect("component encodes");
    (name, (doc.len(), fnv1a(doc.as_bytes())))
}

/// Every public `Study` field, the services one engine at a time by slug.
/// A wire change must move only the pins of the components it changes.
fn component_pins(study: &Study) -> Vec<Pin> {
    let mut pins = vec![
        pin("scenario", &study.scenario),
        pin("timeline", &study.timeline),
        pin("phase", &study.phase),
        pin("platform", &study.platform),
        pin("residential", &study.residential),
        pin("population", &study.population),
        pin("layout", &study.layout),
    ];
    for service in &study.services {
        pins.push(match service {
            Service::Reciprocity(s) => pin(service.id().slug(), s),
            Service::Collusion(s) => pin(service.id().slug(), s),
        });
    }
    pins.extend([
        pin("framework", &study.framework),
        pin("ledger", &study.ledger),
        pin("campaigns", &study.campaigns),
        pin("pipeline", &study.pipeline),
        pin("narrow_plan", &study.narrow_plan),
        pin("broad_plan", &study.broad_plan),
    ]);
    pins
}

fn quick_run() -> &'static QuickRun {
    static RUN: OnceLock<QuickRun> = OnceLock::new();
    RUN.get_or_init(|| {
        let mut scenario = Scenario::quick(7);
        scenario.worker_threads = 1;
        let mut study = Study::new(scenario);
        let fresh = serde_json::to_string(&study).expect("study encodes");
        let fresh_parts = component_pins(&study);
        let log = tmp_path("quick7.jsonl");
        study.attach_stream(Some(&log)).expect("recorder attaches");
        study.run_characterization();
        let characterized = serde_json::to_string(&study).expect("study encodes");
        let characterized_parts = component_pins(&study);
        drop(study);
        let log_text = std::fs::read_to_string(&log).expect("log was recorded");
        std::fs::remove_file(&log).ok();
        QuickRun {
            fresh,
            fresh_parts,
            characterized,
            characterized_parts,
            log: log_text,
        }
    })
}

/// Decode a pinned study document and encode it again: same bytes.
fn assert_study_reencodes(doc: &str) {
    let study: Study = serde_json::from_str(doc).expect("pinned study decodes");
    let again = serde_json::to_string(&study).expect("study encodes");
    assert!(again == doc, "decode + encode changed the study's bytes");
}

#[test]
fn fresh_quick_study_keeps_its_wire_bytes() {
    let doc = &quick_run().fresh;
    assert_eq!((doc.len(), fnv1a(doc.as_bytes())), (1_109_777, 0x9f8a_ad91_2e9a_7279));
    assert_study_reencodes(doc);
}

#[test]
fn characterized_quick_study_keeps_its_wire_bytes() {
    let doc = &quick_run().characterized;
    assert_eq!((doc.len(), fnv1a(doc.as_bytes())), (1_798_334, 0x3e69_40ba_db14_15ca));
    assert_study_reencodes(doc);
}

#[test]
fn fresh_quick_study_components_keep_their_wire_bytes() {
    let expected: Vec<Pin> = vec![
        ("scenario", (345, 0x08a0_538a_7bf2_64a5)),
        ("timeline", (80, 0x1473_1fc6_457b_c4a0)),
        ("phase", (7, 0x916b_1363_3cc8_01bc)),
        ("platform", (936_326, 0xc6fa_eb60_dbc4_d1a6)),
        ("residential", (155, 0xedf1_4d08_ed15_aee8)),
        ("population", (8_903, 0x6d43_f58a_bcdf_e79a)),
        ("layout", (141, 0x5c96_cc67_f640_bb5c)),
        ("instalex", (10_630, 0xa1bd_0d54_a477_d94e)),
        ("instazood", (12_843, 0x275e_fe23_4479_0959)),
        ("boostgram", (8_747, 0xd244_a59e_0307_5fba)),
        ("hublaagram", (108_194, 0x24e4_f1ef_d61c_bbd8)),
        ("followersgratis", (5_468, 0xfe3c_ed0e_17b0_5ab2)),
        ("framework", (11_385, 0x9ebc_149c_1710_37ff)),
        ("ledger", (4_873, 0x03f7_37c5_2e17_b323)),
        ("campaigns", (776, 0xeb9d_2f48_72cb_5229)),
        ("pipeline", (4, 0x5b9b_c4ba_5281_08e4)),
        ("narrow_plan", (166, 0x314a_d248_593e_9779)),
        ("broad_plan", (264, 0xe312_3d1b_3549_2c8c)),
    ];
    assert_eq!(quick_run().fresh_parts, expected);
}

#[test]
fn characterized_quick_study_components_keep_their_wire_bytes() {
    let expected: Vec<Pin> = vec![
        ("scenario", (345, 0x08a0_538a_7bf2_64a5)),
        ("timeline", (80, 0x1473_1fc6_457b_c4a0)),
        ("phase", (15, 0x71c7_54d1_afb4_6d90)),
        ("platform", (1_420_696, 0x03a4_f3aa_67a9_674e)),
        ("residential", (155, 0xedf1_4d08_ed15_aee8)),
        ("population", (8_903, 0x6d43_f58a_bcdf_e79a)),
        ("layout", (141, 0x5c96_cc67_f640_bb5c)),
        ("instalex", (14_008, 0x3b4d_f8b4_983f_5494)),
        ("instazood", (15_762, 0x4ced_eda3_1315_b1b2)),
        ("boostgram", (9_918, 0x31b9_23e5_b34d_2bc8)),
        ("hublaagram", (174_158, 0xa01b_1659_9192_4413)),
        ("followersgratis", (8_747, 0xdf3c_a305_246e_d3d0)),
        ("framework", (11_385, 0x9ebc_149c_1710_37ff)),
        ("ledger", (34_811, 0xfa24_0aa8_7c67_5a43)),
        ("campaigns", (776, 0xeb9d_2f48_72cb_5229)),
        ("pipeline", (97_534, 0x47e6_6501_1721_447d)),
        ("narrow_plan", (166, 0x314a_d248_593e_9779)),
        ("broad_plan", (264, 0xe312_3d1b_3549_2c8c)),
    ];
    assert_eq!(quick_run().characterized_parts, expected);

    // No checkpoint pin encodes `AsnTraffic::Benign` (DESIGN.md §7): every
    // signature ASN of a smoke(7) run carries abusive traffic. A hand-built
    // threshold table pins that variant.
    let mut table = ThresholdTable::default();
    table.set(AsnId(3), ActionType::Follow, Direction::Outbound, 40);
    table.asn_kinds.insert(AsnId(3), AsnTraffic::Benign);
    let doc = serde_json::to_string(&table).expect("table encodes");
    assert_eq!(
        doc,
        r#"{"thresholds":[[[3,"Follow","Outbound"],40]],"asn_kinds":{"3":"Benign"}}"#
    );
    let back: ThresholdTable = serde_json::from_str(&doc).expect("table decodes");
    assert_eq!(serde_json::to_string(&back).expect("table encodes"), doc);
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
