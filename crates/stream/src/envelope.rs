//! The recorded event log: a versioned JSONL file with one header line
//! followed by one sealed [`DayLog`] line per simulated day, day 0 first.
//! A day line is an object of row lists whose rows are positional arrays
//! (`footsteps_sim::log` writes them; DESIGN.md §8).
//!
//! The header carries everything a replay needs to rebuild the online
//! detector — the honeypot roster, the calibration window and the seed —
//! and nothing else, so a recording of the same world has the same bytes.
//!
//! A study appends each day as it seals, straight to the final path, and
//! flushes the log at every phase boundary. Nothing reads a log back to
//! resume a study: a sweep job that a kill interrupted runs again and
//! records its log anew (DESIGN.md §7). A `schema_version` field guards
//! every read, and corruption surfaces as a typed error instead of a
//! panic.

pub use footsteps_detect::RosterEntry;
use footsteps_sim::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write as _};
use std::path::{Path, PathBuf};

/// Version stamp written into every log header. Bump on any change to the
/// header or batch schema; readers refuse mismatched logs.
///
/// v2: a batch line is the sealed `DayLog` itself, which adds its
/// `photo_likes`, and the header lost its wall-clock `recorded_unix`.
///
/// v3: the day's rows are positional arrays, and a counts row holds 15
/// cells (`delivered`, `blocked`, `deferred`) with `attempted` recomputed
/// on read; `rate_limited` is gone (DESIGN.md §8).
pub const STREAM_SCHEMA_VERSION: u32 = 3;

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
    /// Schema stamp ([`STREAM_SCHEMA_VERSION`]), checked on read.
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
}

/// Appends a header and then one line per sealed day to a log file. Every
/// line is encoded into one reused buffer.
#[derive(Debug)]
pub struct EventLogWriter {
    out: BufWriter<File>,
    line: String,
    path: PathBuf,
}

impl EventLogWriter {
    /// Start a recording at `path`, replacing any file there. The header
    /// is on disk when this returns.
    pub fn create(path: &Path, header: &LogHeader) -> Result<Self, StreamError> {
        let out = BufWriter::new(File::create(path)?);
        let mut writer = Self { out, line: String::new(), path: path.to_path_buf() };
        writer.write_line(header)?;
        writer.flush()?;
        Ok(writer)
    }

    /// Append one sealed day.
    pub fn append(&mut self, day: &DayLog) -> Result<(), StreamError> {
        self.write_line(day)
    }

    fn write_line<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), StreamError> {
        let mut w = serde::Writer::with_buffer(std::mem::take(&mut self.line), false);
        value.serialize(&mut w);
        self.line = w.into_string();
        self.line.push('\n');
        self.out.write_all(self.line.as_bytes())?;
        Ok(())
    }

    /// Push everything appended so far to the file.
    pub fn flush(&mut self) -> Result<(), StreamError> {
        Ok(self.out.flush()?)
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Flush and close the log, returning its path.
    pub fn finish(mut self) -> Result<PathBuf, StreamError> {
        self.flush()?;
        Ok(self.path)
    }
}

/// Reader over a log: validates the header, then yields its days.
///
/// The writer never writes a blank line. Blank lines at the end of the
/// file are tolerated; a blank line with batches after it is corruption,
/// since stopping there would silently drop the rest of the log.
///
/// Days are recorded in order from day 0, so batch `n` is day `n`. A
/// batch for any other day (a gap, a swapped or a repeated line) is
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

    /// The next day, or `None` at end of log.
    pub fn next_batch(&mut self) -> Result<Option<DayLog>, StreamError> {
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
        let day: DayLog = serde_json::from_str(text)
            .map_err(|e| StreamError::Corrupt(format!("line {line_no}: {e}")))?;
        if day.day() != self.next_day {
            return Err(StreamError::Corrupt(format!(
                "line {line_no}: {} where {} was expected",
                day.day(),
                self.next_day
            )));
        }
        self.next_day = day.day().next();
        Ok(Some(day))
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
    use std::fs;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("footsteps_stream_env_{}_{name}.jsonl", std::process::id()));
        p
    }

    fn sample_header() -> LogHeader {
        LogHeader {
            schema_version: STREAM_SCHEMA_VERSION,
            seed: 7,
            calibration_start: Day(2),
            calibration_end: Day(10),
            window_days: 8,
            roster: vec![RosterEntry {
                account: AccountId(3),
                home_asn: AsnId(1),
                service: ServiceId::Boostgram,
            }],
        }
    }

    /// Days `0..n`, sealed, with one login on day 0.
    fn days(n: u32) -> Vec<DayLog> {
        let mut log = ActionLog::new();
        log.record_login(Day(0), AccountId(3), AsnId(1));
        log.record_login(Day(0), AccountId(3), AsnId(1));
        (0..n).map(|d| log.seal(Day(d)).clone()).collect()
    }

    fn json(day: &DayLog) -> String {
        serde_json::to_string(day).unwrap()
    }

    /// Record `days` at `path`.
    fn record(path: &Path, days: &[DayLog]) {
        let mut w = EventLogWriter::create(path, &sample_header()).unwrap();
        for day in days {
            w.append(day).unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn roundtrip_header_and_batches() {
        let path = tmp_path("roundtrip");
        let days = days(2);
        let login = LoginRecord { account: AccountId(3), asn: AsnId(1), count: 2 };
        assert_eq!(days[0].logins(), [login]);
        record(&path, &days);
        let header = serde_json::to_string(&sample_header()).unwrap();
        let lines = [header, json(&days[0]), json(&days[1])];
        assert_eq!(fs::read_to_string(&path).unwrap(), lines.join("\n") + "\n");

        let mut r = EventLogReader::open(&path).unwrap();
        assert_eq!(r.header().schema_version, STREAM_SCHEMA_VERSION);
        assert_eq!(r.header().seed, 7);
        assert_eq!(r.header().roster.len(), 1);
        assert_eq!(json(&r.next_batch().unwrap().unwrap()), json(&days[0]));
        assert_eq!(json(&r.next_batch().unwrap().unwrap()), json(&days[1]));
        assert!(r.next_batch().unwrap().is_none());
        fs::remove_file(&path).unwrap();
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
        let days = days(2);
        record(&path, &days);
        // Splice an empty line between the two batch lines (line 3).
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        fs::write(&path, format!("{}\n{}\n\n{}\n", lines[0], lines[1], lines[2])).unwrap();
        let mut r = EventLogReader::open(&path).unwrap();
        assert_eq!(json(&r.next_batch().unwrap().unwrap()), json(&days[0]));
        match r.next_batch() {
            Err(StreamError::Corrupt(msg)) => assert!(msg.contains("line 3"), "{msg}"),
            other => panic!("expected corrupt error, got {other:?}"),
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn trailing_blank_lines_end_the_log() {
        let path = tmp_path("trailing");
        let days = days(1);
        record(&path, &days);
        let mut contents = fs::read_to_string(&path).unwrap();
        contents.push_str("\n \n");
        fs::write(&path, contents).unwrap();
        let mut r = EventLogReader::open(&path).unwrap();
        assert_eq!(json(&r.next_batch().unwrap().unwrap()), json(&days[0]));
        assert!(r.next_batch().unwrap().is_none());
        assert!(r.next_batch().unwrap().is_none());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_batch_line_is_typed() {
        let path = tmp_path("corrupt");
        record(&path, &[]);
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
