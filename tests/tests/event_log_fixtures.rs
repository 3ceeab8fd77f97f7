//! Golden event-log fixtures, one per stream schema version (DESIGN.md §8).
//!
//! `tests/fixtures/event_log_v3.jsonl` is what [`EventLogWriter`] writes
//! for the hand-built days below, and `event_log_v2.jsonl` is what the v2
//! writer wrote for the same days, before the day rows became positional.
//! The current reader must keep the v3 file's exact bytes and refuse the
//! v2 file by its version alone. A change to the line format bumps
//! `STREAM_SCHEMA_VERSION` and adds the next fixture.

use footsteps_sim::prelude::*;
use footsteps_stream::{
    EventLogReader, EventLogWriter, LogHeader, RosterEntry, StreamError, STREAM_SCHEMA_VERSION,
};
use std::path::{Path, PathBuf};

const V3: &str = include_str!("../fixtures/event_log_v3.jsonl");

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name)
}

/// A two-account roster over days 0–1.
fn header() -> LogHeader {
    LogHeader {
        schema_version: STREAM_SCHEMA_VERSION,
        seed: 7,
        calibration_start: Day(0),
        calibration_end: Day(2),
        window_days: 2,
        roster: vec![
            RosterEntry {
                account: AccountId(1),
                home_asn: AsnId(2),
                service: ServiceId::Instalex,
            },
            RosterEntry {
                account: AccountId(4),
                home_asn: AsnId(3),
                service: ServiceId::Boostgram,
            },
        ],
    }
}

fn event(
    at: SimTime,
    actor: u32,
    action: ActionType,
    target: ActionTarget,
    fingerprint: ClientFingerprint,
    outcome: ActionOutcome,
) -> ActionEvent {
    ActionEvent {
        at,
        actor: AccountId(actor),
        action,
        target,
        ip: IpAddr4(0x0a00_0001 + actor),
        asn: AsnId(2 + actor % 4),
        fingerprint,
        outcome,
    }
}

/// Three sealed days in which every row kind appears: outbound keys with
/// both fingerprint kinds, inbound rows with and without a source ASN,
/// delivered, blocked and deferred cells, photo likes, logins, and events
/// at an account, a photo and the actor's own account.
fn days() -> Vec<DayLog> {
    use ActionOutcome::{Blocked, DeferredRemoval, Delivered};
    use ActionTarget::{Account, Media, SelfContent};
    use ActionType::{Comment, Follow, Like, Post, Unfollow};
    let app = ClientFingerprint::OfficialApp;
    let spoof = |variant| ClientFingerprint::SpoofedMobile { variant };
    let (a1, a4, a7) = (AccountId(1), AccountId(4), AccountId(7));
    let mut log = ActionLog::new();
    log.track_events_for(a1);
    log.track_events_for(a4);

    log.record_outbound(Day(0), a1, AsnId(2), app, Like, Delivered, 17);
    log.record_outbound(Day(0), a1, AsnId(2), app, Follow, Blocked, 3);
    log.record_outbound(Day(0), a1, AsnId(5), spoof(1), Follow, DeferredRemoval, 4);
    log.record_outbound(Day(0), a7, AsnId(5), spoof(2), Comment, Delivered, 2);
    log.record_inbound(Day(0), a1, Some(AsnId(5)), Like, 11);
    log.record_inbound_with(Day(0), a4, None, Follow, Blocked, 6);
    log.record_inbound_with(Day(0), a4, Some(AsnId(5)), Follow, DeferredRemoval, 2);
    log.record_photo_likes(Day(0), MediaId(12), 300, 170);
    log.record_login(Day(0), a1, AsnId(2));
    log.record_login(Day(0), a1, AsnId(2));
    log.record_login(Day(0), a4, AsnId(3));
    let t0 = Day(0).start();
    log.push_event(event(t0.plus_hours(3), 1, Like, Media(MediaId(12)), app, Delivered));
    log.push_event(event(t0.plus_hours(5), 7, Follow, Account(a4), spoof(2), Blocked));
    log.push_event(event(t0.plus_hours(9), 4, Post, SelfContent, app, Delivered));

    log.record_outbound(Day(1), a4, AsnId(3), app, Unfollow, Delivered, 1);
    log.record_outbound(Day(1), a4, AsnId(3), app, Post, Delivered, 2);
    log.record_outbound(Day(1), a1, AsnId(5), spoof(1), Like, Blocked, 9);
    log.record_outbound(Day(1), a1, AsnId(5), spoof(1), Like, DeferredRemoval, 1);
    log.record_inbound(Day(1), a1, None, Follow, 5);
    log.record_photo_likes(Day(1), MediaId(12), 40, 20);
    log.record_photo_likes(Day(1), MediaId(3), 250, 250);
    log.record_login(Day(1), a4, AsnId(3));
    let t1 = Day(1).start();
    log.push_event(event(t1.plus_hours(2), 1, Follow, Account(a7), spoof(1), DeferredRemoval));
    log.push_event(event(t1.plus_hours(4), 4, Unfollow, Account(a1), app, Delivered));

    log.record_login(Day(2), a1, AsnId(2));
    (0..3).map(|d| log.seal(Day(d)).clone()).collect()
}

#[test]
fn v3_lines_decode_and_reencode_to_their_bytes() {
    let mut lines = V3.lines();
    let header_line = lines.next().expect("a header line");
    let header: LogHeader = serde_json::from_str(header_line).expect("the header decodes");
    assert_eq!(header.schema_version, 3);
    assert_eq!(serde_json::to_string(&header).unwrap(), header_line);
    let mut n = 0;
    for line in lines {
        let day: DayLog = serde_json::from_str(line).expect("a day line decodes");
        assert_eq!(serde_json::to_string(&day).unwrap(), line, "day {n}");
        n += 1;
    }
    assert_eq!(n, 3);
    let mut reader = EventLogReader::open(&fixture("event_log_v3.jsonl")).expect("v3 opens");
    while reader.next_batch().expect("every v3 day reads").is_some() {}
}

#[test]
fn writing_the_fixture_days_reproduces_v3() {
    let path = std::env::temp_dir()
        .join(format!("footsteps_event_log_fixture_{}.jsonl", std::process::id()));
    let mut writer = EventLogWriter::create(&path, &header()).unwrap();
    for day in days() {
        writer.append(&day).unwrap();
    }
    writer.finish().unwrap();
    let written = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(written == V3, "the writer's output differs from event_log_v3.jsonl:\n{written}");
}

#[test]
fn v2_is_refused_by_its_version() {
    match EventLogReader::open(&fixture("event_log_v2.jsonl")) {
        Err(StreamError::VersionMismatch { found: 2, expected: 3 }) => {}
        other => panic!("expected VersionMismatch {{ found: 2, expected: 3 }}, got {other:?}"),
    }
}
