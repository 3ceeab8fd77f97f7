//! The recorded event-log envelope: a versioned JSONL file with one
//! header line followed by one [`EventBatch`] line per simulated day.
//!
//! The format is deliberately close to the sweep checkpoint discipline
//! (DESIGN.md §7): a `schema_version` field guards every read, writes go
//! to a `.tmp` sibling and are atomically renamed into place on finish,
//! and corruption surfaces as a typed error instead of a panic. The
//! header carries everything a replay needs to rebuild the online
//! detector from scratch — the honeypot roster, the calibration window,
//! and the seed — so a recorded log is self-contained.
//!
//! The `recorded_unix` stamp is wall-clock bookkeeping for humans (like
//! the sweep manifest's job stamps); it never feeds a digest or a
//! detector decision, which is why this file carries the scoped
//! wall-clock lint exemption.

use footsteps_detect::DayRecords;
pub use footsteps_detect::RosterEntry;
use footsteps_sim::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::{self, File};
use std::io::{BufRead, BufReader, BufWriter, Write as _};
use std::path::{Path, PathBuf};

/// Version stamp written into every log header. Bump on any change to the
/// header or batch schema; readers refuse mismatched logs.
pub const STREAM_SCHEMA_VERSION: u32 = 1;

/// Errors from recording or replaying an event log.
#[derive(Debug)]
pub enum StreamError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// The file exists but does not parse as a log of the expected shape.
    Corrupt(String),
    /// The log was written by a different schema version.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this binary understands.
        expected: u32,
    },
    /// The stream ended before the calibration window closed, so there are
    /// no frozen verdicts to hand back.
    Incomplete {
        /// The first day the detector never received.
        reached: Day,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "event-log I/O error: {e}"),
            StreamError::Corrupt(msg) => write!(f, "corrupt event log: {msg}"),
            StreamError::VersionMismatch { found, expected } => write!(
                f,
                "event-log schema version {found}, this binary expects {expected}"
            ),
            StreamError::Incomplete { reached } => write!(
                f,
                "stream ended at day {} before the calibration window closed",
                reached.0
            ),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e)
    }
}

/// The first line of a recorded log: everything replay needs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogHeader {
    /// Schema stamp, checked on read.
    pub schema_version: u32,
    /// Scenario seed, for provenance.
    pub seed: u64,
    /// First day of the threshold calibration window.
    pub calibration_start: Day,
    /// End (exclusive) of the calibration window; the detector freezes its
    /// verdicts when this day is reached.
    pub calibration_end: Day,
    /// Length of the sliding sample window, in days.
    pub window_days: u32,
    /// The honeypot roster the detector matches signatures from.
    pub roster: Vec<RosterEntry>,
    /// Unix seconds when recording started. Human bookkeeping only.
    pub recorded_unix: u64,
}

impl LogHeader {
    /// A header for a fresh recording, stamped with the current wall time.
    pub fn new(
        seed: u64,
        calibration_start: Day,
        calibration_end: Day,
        window_days: u32,
        roster: Vec<RosterEntry>,
    ) -> Self {
        let recorded_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        Self {
            schema_version: STREAM_SCHEMA_VERSION,
            seed,
            calibration_start,
            calibration_end,
            window_days,
            roster,
            recorded_unix,
        }
    }
}

/// One login observation aggregated per day: `account` logged in via
/// `asn` `count` times during the batch's day.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoginRecord {
    /// The account that logged in.
    pub account: AccountId,
    /// The ASN the login came from.
    pub asn: AsnId,
    /// Number of logins that day.
    pub count: u32,
}

/// Everything the platform emitted for one day, in canonical (sorted) key
/// order so the recorded bytes — and therefore the replayed verdicts —
/// are identical for any `FOOTSTEPS_THREADS`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EventBatch {
    /// The day this batch covers.
    pub day: Day,
    /// Per `(account, asn, fingerprint)` outbound tallies, sorted by key.
    /// [`TypeCounts`] carries the enforcement outcome of every attempt
    /// (delivered/blocked/deferred/rate-limited) per action type.
    pub outbound: Vec<(OutboundKey, TypeCounts)>,
    /// Per `(recipient, source)` inbound tallies, sorted by key.
    pub inbound: Vec<((AccountId, Option<AsnId>), TypeCounts)>,
    /// Logins observed during the day, sorted by `(account, asn)`.
    pub logins: Vec<LoginRecord>,
    /// Full events of tracked (honeypot) accounts, in platform submission
    /// order — already thread-invariant by the engine's digest contract.
    pub events: Vec<ActionEvent>,
}

impl EventBatch {
    /// Build a canonical batch from a sealed-or-open [`DayLog`] plus the
    /// day's aggregated logins. `log == None` means a day with no activity.
    pub fn from_day(day: Day, log: Option<&DayLog>, logins: Vec<LoginRecord>) -> Self {
        let mut batch = EventBatch { day, logins, ..EventBatch::default() };
        if let Some(log) = log {
            batch.outbound = log.outbound().map(|(k, c)| (*k, *c)).collect();
            batch.outbound.sort_unstable_by_key(|(k, _)| *k);
            batch.inbound = log.inbound().map(|(k, c)| (*k, *c)).collect();
            batch.inbound.sort_unstable_by_key(|(k, _)| *k);
            batch.events = log.events.clone();
        }
        batch
    }

    /// The batch as the detection stages read a day.
    pub fn records(&self) -> DayRecords<'_> {
        DayRecords {
            day: self.day,
            outbound: &self.outbound,
            inbound: &self.inbound,
            events: &self.events,
        }
    }

    /// Number of records in this batch (outbound + inbound + logins +
    /// events) — the unit the perf harness reports events/sec over.
    pub fn record_count(&self) -> u64 {
        (self.outbound.len() + self.inbound.len() + self.logins.len() + self.events.len()) as u64
    }
}

/// Incremental writer: header + one line per batch, staged in a `.tmp`
/// sibling until [`EventLogWriter::finish`] renames it into place. Every
/// line is encoded into one reused buffer.
#[derive(Debug)]
pub struct EventLogWriter {
    out: BufWriter<File>,
    line: String,
    tmp: PathBuf,
    path: PathBuf,
}

impl EventLogWriter {
    /// Start a recording at `path` (staged at `path.tmp` until finished).
    pub fn create(path: &Path, header: &LogHeader) -> Result<Self, StreamError> {
        let tmp = footsteps_obs::atomic::tmp_sibling(path);
        let file = File::create(&tmp)?;
        let mut writer =
            Self { out: BufWriter::new(file), line: String::new(), tmp, path: path.to_path_buf() };
        writer.write_line(header)?;
        Ok(writer)
    }

    /// Append one day's batch.
    pub fn append(&mut self, batch: &EventBatch) -> Result<(), StreamError> {
        self.write_line(batch)
    }

    fn write_line<T: Serialize>(&mut self, value: &T) -> Result<(), StreamError> {
        let mut w = serde::Writer::with_buffer(std::mem::take(&mut self.line), false);
        value.serialize(&mut w);
        self.line = w.into_string();
        self.line.push('\n');
        self.out.write_all(self.line.as_bytes())?;
        Ok(())
    }

    /// Flush and atomically move the staged file to its final path.
    pub fn finish(mut self) -> Result<PathBuf, StreamError> {
        self.out.flush()?;
        drop(self.out);
        fs::rename(&self.tmp, &self.path)?;
        Ok(self.path)
    }
}

/// Reader over a finished log: validates the header, then yields batches.
///
/// The writer never writes a blank line. Blank lines at the end of the
/// file are tolerated; a blank line with batches after it is corruption,
/// since stopping there would silently drop the rest of the log.
///
/// The platform drains days in order from day 0, so batch `n` is day `n`.
/// A batch for any other day (a gap, a swapped or a repeated line) is
/// corruption too.
#[derive(Debug)]
pub struct EventLogReader {
    lines: LineBuffer,
    header: LogHeader,
    next_day: Day,
}

impl EventLogReader {
    /// Open `path`, parse and validate the header line.
    pub fn open(path: &Path) -> Result<Self, StreamError> {
        let mut lines =
            LineBuffer { input: BufReader::new(File::open(path)?), line: Vec::new(), line_no: 0 };
        let Some((_, first)) = lines.next()? else {
            return Err(StreamError::Corrupt("empty file (no header line)".into()));
        };
        let header: LogHeader = serde_json::from_str(first)
            .map_err(|e| StreamError::Corrupt(format!("header line: {e}")))?;
        if header.schema_version != STREAM_SCHEMA_VERSION {
            return Err(StreamError::VersionMismatch {
                found: header.schema_version,
                expected: STREAM_SCHEMA_VERSION,
            });
        }
        Ok(Self { lines, header, next_day: Day(0) })
    }

    /// The validated header.
    pub fn header(&self) -> &LogHeader {
        &self.header
    }

    /// The next day's batch, or `None` at end of log.
    pub fn next_batch(&mut self) -> Result<Option<EventBatch>, StreamError> {
        let Some((line_no, text)) = self.lines.next()? else { return Ok(None) };
        if text.trim().is_empty() {
            while let Some((_, rest)) = self.lines.next()? {
                if !rest.trim().is_empty() {
                    return Err(StreamError::Corrupt(format!(
                        "line {line_no}: blank line before the end of the log"
                    )));
                }
            }
            return Ok(None);
        }
        let batch: EventBatch = serde_json::from_str(text)
            .map_err(|e| StreamError::Corrupt(format!("line {line_no}: {e}")))?;
        if batch.day != self.next_day {
            return Err(StreamError::Corrupt(format!(
                "line {line_no}: {} where {} was expected",
                batch.day, self.next_day
            )));
        }
        self.next_day = batch.day.next();
        Ok(Some(batch))
    }
}

/// Lines of a file, each read into the same buffer.
#[derive(Debug)]
struct LineBuffer {
    input: BufReader<File>,
    line: Vec<u8>,
    line_no: usize,
}

impl LineBuffer {
    /// The next line and its 1-based number, or `None` at end of file.
    fn next(&mut self) -> Result<Option<(usize, &str)>, StreamError> {
        self.line.clear();
        if self.input.read_until(b'\n', &mut self.line)? == 0 {
            return Ok(None);
        }
        self.line_no += 1;
        match std::str::from_utf8(&self.line) {
            Ok(text) => Ok(Some((self.line_no, text))),
            Err(e) => Err(StreamError::Corrupt(format!("line {}: {e}", self.line_no))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("footsteps_stream_env_{}_{name}.jsonl", std::process::id()));
        p
    }

    fn sample_header() -> LogHeader {
        LogHeader::new(
            7,
            Day(2),
            Day(10),
            8,
            vec![RosterEntry { account: AccountId(3), home_asn: AsnId(1), service: ServiceId::Boostgram }],
        )
    }

    #[test]
    fn roundtrip_header_and_batches() {
        let path = tmp_path("roundtrip");
        let header = sample_header();
        let mut w = EventLogWriter::create(&path, &header).unwrap();
        let mut b0 = EventBatch { day: Day(0), ..EventBatch::default() };
        b0.logins.push(LoginRecord { account: AccountId(3), asn: AsnId(1), count: 2 });
        w.append(&b0).unwrap();
        let b1 = EventBatch { day: Day(1), ..EventBatch::default() };
        w.append(&b1).unwrap();
        let final_path = w.finish().unwrap();
        assert_eq!(final_path, path);

        let mut r = EventLogReader::open(&path).unwrap();
        assert_eq!(r.header().schema_version, STREAM_SCHEMA_VERSION);
        assert_eq!(r.header().seed, 7);
        assert_eq!(r.header().roster.len(), 1);
        assert_eq!(r.next_batch().unwrap().unwrap(), b0);
        assert_eq!(r.next_batch().unwrap().unwrap(), b1);
        assert!(r.next_batch().unwrap().is_none());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unfinished_recording_leaves_no_final_file() {
        let path = tmp_path("unfinished");
        let w = EventLogWriter::create(&path, &sample_header()).unwrap();
        assert!(!path.exists(), "final path must not exist before finish()");
        drop(w);
        let tmp = PathBuf::from(format!("{}.tmp", path.display()));
        assert!(tmp.exists());
        fs::remove_file(&tmp).unwrap();
    }

    #[test]
    fn version_mismatch_is_typed() {
        let path = tmp_path("version");
        let mut header = sample_header();
        header.schema_version = 99;
        let w = EventLogWriter::create(&path, &header).unwrap();
        w.finish().unwrap();
        match EventLogReader::open(&path) {
            Err(StreamError::VersionMismatch { found: 99, expected }) => {
                assert_eq!(expected, STREAM_SCHEMA_VERSION);
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn blank_line_between_batches_is_corrupt() {
        let path = tmp_path("blank");
        let mut w = EventLogWriter::create(&path, &sample_header()).unwrap();
        let b0 = EventBatch { day: Day(0), ..EventBatch::default() };
        let b1 = EventBatch { day: Day(1), ..EventBatch::default() };
        w.append(&b0).unwrap();
        w.append(&b1).unwrap();
        w.finish().unwrap();
        // Splice an empty line between the two batch lines (line 3).
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        fs::write(&path, format!("{}\n{}\n\n{}\n", lines[0], lines[1], lines[2])).unwrap();
        let mut r = EventLogReader::open(&path).unwrap();
        assert_eq!(r.next_batch().unwrap().unwrap(), b0);
        match r.next_batch() {
            Err(StreamError::Corrupt(msg)) => assert!(msg.contains("line 3"), "{msg}"),
            other => panic!("expected corrupt error, got {other:?}"),
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn trailing_blank_lines_end_the_log() {
        let path = tmp_path("trailing");
        let mut w = EventLogWriter::create(&path, &sample_header()).unwrap();
        let b0 = EventBatch { day: Day(0), ..EventBatch::default() };
        w.append(&b0).unwrap();
        w.finish().unwrap();
        let mut contents = fs::read_to_string(&path).unwrap();
        contents.push_str("\n \n");
        fs::write(&path, contents).unwrap();
        let mut r = EventLogReader::open(&path).unwrap();
        assert_eq!(r.next_batch().unwrap().unwrap(), b0);
        assert!(r.next_batch().unwrap().is_none());
        assert!(r.next_batch().unwrap().is_none());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_batch_line_is_typed() {
        let path = tmp_path("corrupt");
        let w = EventLogWriter::create(&path, &sample_header()).unwrap();
        w.finish().unwrap();
        let mut contents = fs::read_to_string(&path).unwrap();
        contents.push_str("{not json\n");
        fs::write(&path, contents).unwrap();
        let mut r = EventLogReader::open(&path).unwrap();
        match r.next_batch() {
            Err(StreamError::Corrupt(msg)) => assert!(msg.contains("line 2"), "{msg}"),
            other => panic!("expected corrupt error, got {other:?}"),
        }
        fs::remove_file(&path).unwrap();
    }
}
