//! Host-speed calibration.
//!
//! The shared hosts this benchmark runs on change speed by up to a factor
//! of two for stretches of seconds to minutes: other tenants contend for
//! caches and memory bandwidth. CPU time rises with wall time in those
//! stretches, so measuring CPU time instead does not help, and neither
//! does a run's fastest repetition once a stretch covers a whole run (see
//! the README's noise study).
//!
//! A fixed kernel owned by the benchmark therefore calibrates the host
//! before the first repetition of a loop and after every repetition. A
//! calibration first lets the host settle: it runs the kernel untimed, at
//! least once and for 5% of the repetition's wall time. The first run
//! after a repetition finds the kernel's data evicted, and right after a
//! repetition that touched much memory the kernel runs slower than a
//! moment later. The calibration then times three runs and takes their
//! median.
//! Each repetition's wall time is divided by the mean of the two
//! calibrations that bracket it and
//! multiplied by [`REFERENCE_SECS`], a fixed figure near the kernel's time
//! on the reference host when that host is quiet, so a timing reads
//! roughly as seconds on that host. The kernel never calls the program: a
//! change to the program moves the quotient by the change in its own time,
//! while a slower host moves both sides of it.
//!
//! The kernel mixes the two kinds of work the workloads spend their time
//! on: scanning JSON-lines text byte by byte (the event-log parser) and
//! probing a hash table at random (the simulator's maps). It allocates
//! nothing after construction, and its working set is about 5 MB.

use footsteps_obs::Stopwatch;

use crate::stats;

/// The kernel's reference time, in seconds: a round figure near its
/// fastest times on the reference host (2 vCPUs of an Intel Xeon at
/// 2.1 GHz), so that timings read roughly as seconds on that host when it
/// is quiet.
pub(crate) const REFERENCE_SECS: f64 = 0.02;

/// Lines of generated JSON-lines text (about 1.3 MB).
const TEXT_LINES: u64 = 16_000;
/// Passes over the text per kernel run.
const SCAN_PASSES: usize = 4;
/// Slots of the open-addressing table (a power of two; 4 MB of `u64`).
const TABLE_BITS: u32 = 19;
/// Distinct keys inserted, so the table ends about 38% full.
const KEYS: u64 = 200_000;
/// Inserts or lookups per kernel run.
const PROBES: usize = 800_000;

/// Timed kernel runs per calibration.
const RUNS: usize = 3;
/// Share of a repetition's wall time to let the host settle after it.
const SETTLE_SHARE: f64 = 0.05;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FIBONACCI: u64 = 0x9e37_79b9_7f4a_7c15;

/// The calibration kernel, its inputs and every time it has taken.
#[derive(Debug)]
pub(crate) struct Calibration {
    text: Vec<u8>,
    table: Vec<u64>,
    /// The calibration that ended last: the "before" side of the next
    /// repetition.
    last_secs: f64,
    secs: Vec<f64>,
}

impl Calibration {
    /// Build the kernel's inputs and calibrate.
    pub(crate) fn new() -> Self {
        let mut text = String::new();
        for i in 0..TEXT_LINES {
            text.push_str(&format!(
                "{{\"day\":{},\"account\":\"acct{}\",\"asn\":{},\"actions\":[{},{},{}],\"kind\":\"follow\"}}\n",
                i % 206,
                i.wrapping_mul(7919) % 100_000,
                i.wrapping_mul(31) % 65_000,
                i % 7,
                i % 13,
                i % 29
            ));
        }
        let mut calibration = Calibration {
            text: text.into_bytes(),
            table: vec![0; 1 << TABLE_BITS],
            last_secs: 0.0,
            secs: Vec::new(),
        };
        calibration.recalibrate();
        calibration
    }

    /// Calibrate now, so that the next repetition is bracketed by a fresh
    /// calibration. Call it before the first repetition of a loop.
    pub(crate) fn recalibrate(&mut self) {
        self.calibrate(0.0);
    }

    /// Calibrate after a repetition that took `wall_s` seconds, and return
    /// that wall time in reference seconds.
    pub(crate) fn scale(&mut self, wall_s: f64) -> f64 {
        let before = self.last_secs;
        self.calibrate(SETTLE_SHARE * wall_s);
        wall_s * REFERENCE_SECS / ((before + self.last_secs) / 2.0)
    }

    /// Run the kernel untimed for `settle_secs` (at least once), then time
    /// `RUNS` runs and keep their median as the last calibration.
    fn calibrate(&mut self, settle_secs: f64) {
        let settle = Stopwatch::start();
        loop {
            std::hint::black_box(self.kernel());
            if settle.elapsed_secs() >= settle_secs {
                break;
            }
        }
        let times: Vec<f64> = (0..RUNS)
            .map(|_| {
                let watch = Stopwatch::start();
                std::hint::black_box(self.kernel());
                watch.elapsed_secs()
            })
            .collect();
        self.last_secs = stats::median(&times);
        self.secs.extend(times);
    }

    /// Median timed kernel run so far: how fast the host ran.
    pub(crate) fn median_secs(&self) -> f64 {
        stats::median(&self.secs)
    }

    fn kernel(&mut self) -> u64 {
        let mut acc = 0u64;
        let text = std::hint::black_box(self.text.as_slice());
        for _ in 0..SCAN_PASSES {
            let (mut number, mut hash) = (0u64, FNV_OFFSET);
            for &b in text {
                match b {
                    b'0'..=b'9' => {
                        number = number.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
                    }
                    b'a'..=b'z' | b'A'..=b'Z' => {
                        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
                    }
                    b'\n' => {
                        acc = acc.wrapping_add(number ^ hash);
                        (number, hash) = (0, FNV_OFFSET);
                    }
                    _ => acc = acc.rotate_left(1) ^ u64::from(b),
                }
            }
        }

        // Every run starts from an empty table, so every run does the
        // same inserts and lookups.
        self.table.fill(0);
        let mask = self.table.len() - 1;
        let mut x = std::hint::black_box(0x2545_f491_4f6c_dd1du64);
        for _ in 0..PROBES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % KEYS + 1;
            let mut slot = (key.wrapping_mul(FIBONACCI) >> (64 - TABLE_BITS)) as usize;
            while self.table[slot] != 0 && self.table[slot] != key {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = key;
            acc = acc.wrapping_add(slot as u64);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_repeats_the_same_work() {
        let mut c = Calibration::new();
        let first = c.kernel();
        assert_eq!(c.kernel(), first);
        assert!(c.table.iter().filter(|&&k| k != 0).count() as u64 <= KEYS);
    }

    #[test]
    fn scale_divides_by_the_bracketing_calibrations() {
        let mut c = Calibration::new();
        let before = c.last_secs;
        let scaled = c.scale(1.0);
        let expected = REFERENCE_SECS / ((before + c.last_secs) / 2.0);
        assert!((scaled - expected).abs() <= 1e-12 * expected);
        assert_eq!(c.secs.len(), 2 * RUNS);
        assert_eq!(c.last_secs, stats::median(&c.secs[RUNS..]));
    }
}
