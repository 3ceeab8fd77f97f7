//! Simulated time.
//!
//! The study is organised around *days* (the measurement pipeline aggregates
//! per-account activity daily, and thresholds/countermeasures are defined on
//! daily counts), but several mechanisms need sub-day resolution:
//!
//! * Hublaagram's free tier is limited to two requests per **hour** and paid
//!   customers are identified by exceeding **160 likes per hour** on a photo;
//! * trial periods end mid-day ("no more than 12 hours beyond the expected
//!   end time", §4.2);
//! * honeypot event streams carry timestamps.
//!
//! We therefore model time as whole **seconds** since the simulation epoch,
//! with convenience types for days and hours layered on top. There is no
//! wall-clock anywhere: time only advances when the engine steps it.

use serde::{Deserialize, Serialize};

/// Seconds in a minute/hour/day, as plain constants to keep arithmetic
/// readable at call sites.
pub const SECS_PER_MINUTE: u64 = 60;
/// Seconds per hour.
pub const SECS_PER_HOUR: u64 = 3_600;
/// Seconds per day.
pub const SECS_PER_DAY: u64 = 86_400;
/// Hours per day.
pub const HOURS_PER_DAY: u64 = 24;

/// An instant in simulated time: whole seconds since the simulation epoch.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The simulation epoch (midnight of day 0).
    pub const EPOCH: SimTime = SimTime(0);

    /// Construct from a day number and a second-of-day offset.
    pub fn from_day_offset(day: Day, offset_secs: u64) -> Self {
        debug_assert!(offset_secs < SECS_PER_DAY, "offset must be within a day");
        SimTime(day.0 as u64 * SECS_PER_DAY + offset_secs)
    }

    /// The day this instant falls in.
    #[inline]
    pub fn day(self) -> Day {
        Day((self.0 / SECS_PER_DAY) as u32)
    }

    /// The hour-of-day (0..24) this instant falls in.
    #[inline]
    pub fn hour_of_day(self) -> u8 {
        ((self.0 % SECS_PER_DAY) / SECS_PER_HOUR) as u8
    }

    /// Seconds elapsed since the start of the day.
    #[inline]
    pub fn second_of_day(self) -> u64 {
        self.0 % SECS_PER_DAY
    }

    /// This instant shifted forward by `secs` seconds.
    #[inline]
    pub fn plus_secs(self, secs: u64) -> Self {
        SimTime(self.0 + secs)
    }

    /// This instant shifted forward by `hours` hours.
    #[inline]
    pub fn plus_hours(self, hours: u64) -> Self {
        SimTime(self.0 + hours * SECS_PER_HOUR)
    }

    /// Whole seconds between two instants (`self - earlier`), saturating.
    #[inline]
    pub fn secs_since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let d = self.day().0;
        let s = self.second_of_day();
        write!(
            f,
            "d{}+{:02}:{:02}:{:02}",
            d,
            s / SECS_PER_HOUR,
            (s % SECS_PER_HOUR) / SECS_PER_MINUTE,
            s % SECS_PER_MINUTE
        )
    }
}

/// A whole simulated day (0-based since the epoch).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct Day(pub u32);

impl Day {
    /// Midnight at the start of this day.
    #[inline]
    pub fn start(self) -> SimTime {
        SimTime(self.0 as u64 * SECS_PER_DAY)
    }

    /// Midnight at the start of the next day (exclusive end of this day).
    #[inline]
    pub fn end(self) -> SimTime {
        SimTime((self.0 as u64 + 1) * SECS_PER_DAY)
    }

    /// The following day.
    #[inline]
    pub fn next(self) -> Day {
        Day(self.0 + 1)
    }

    /// This day shifted forward by `n` days.
    #[inline]
    pub fn plus(self, n: u32) -> Day {
        Day(self.0 + n)
    }

    /// Whole days between two days (`self - earlier`), saturating at zero.
    #[inline]
    pub fn days_since(self, earlier: Day) -> u32 {
        self.0.saturating_sub(earlier.0)
    }

    /// Iterate all days in `[start, end)`.
    pub fn range(start: Day, end: Day) -> impl Iterator<Item = Day> {
        (start.0..end.0).map(Day)
    }
}

impl std::fmt::Display for Day {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "day {}", self.0)
    }
}

/// The simulation clock.
///
/// The clock is owned by the platform engine; components read it and only the
/// engine advances it. Advancing backwards is a programming error and panics
/// in debug builds.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: SimTime,
}

impl SimClock {
    /// A clock at the simulation epoch.
    pub fn new() -> Self {
        Self { now: SimTime::EPOCH }
    }

    /// Current instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Current day.
    #[inline]
    pub fn today(&self) -> Day {
        self.now.day()
    }

    /// Advance the clock to `t`. Must not move backwards.
    pub fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.now, "clock moved backwards: {} -> {}", self.now, t);
        self.now = t;
    }

    /// Jump to the start of the given day (must not move backwards).
    pub fn advance_to_day(&mut self, day: Day) {
        self.advance_to(day.start());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_and_hour_extraction() {
        let t = SimTime::from_day_offset(Day(3), 7 * SECS_PER_HOUR + 125);
        assert_eq!(t.day(), Day(3));
        assert_eq!(t.hour_of_day(), 7);
        assert_eq!(t.second_of_day(), 7 * SECS_PER_HOUR + 125);
    }

    #[test]
    fn day_boundaries_are_half_open() {
        let d = Day(5);
        assert_eq!(d.start().day(), d);
        assert_eq!(d.end(), d.next().start());
        // The last second of day 5 is still day 5.
        assert_eq!(SimTime(d.end().0 - 1).day(), d);
    }

    #[test]
    fn arithmetic_helpers() {
        let t = Day(2).start().plus_hours(3).plus_secs(4);
        assert_eq!(t.0, 2 * SECS_PER_DAY + 3 * SECS_PER_HOUR + 4);
        assert_eq!(t.secs_since(Day(2).start()), 3 * SECS_PER_HOUR + 4);
        assert_eq!(SimTime::EPOCH.secs_since(t), 0, "saturates");
        assert_eq!(Day(10).days_since(Day(4)), 6);
        assert_eq!(Day(4).days_since(Day(10)), 0, "saturates");
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = SimClock::new();
        c.advance_to(SimTime(10));
        c.advance_to_day(Day(1));
        assert_eq!(c.today(), Day(1));
        assert_eq!(c.now(), Day(1).start());
    }

    #[test]
    #[should_panic(expected = "clock moved backwards")]
    #[cfg(debug_assertions)]
    fn clock_rejects_backwards() {
        let mut c = SimClock::new();
        c.advance_to_day(Day(2));
        c.advance_to(SimTime::EPOCH);
    }

    #[test]
    fn display_formats() {
        let t = SimTime::from_day_offset(Day(1), 3_723);
        assert_eq!(t.to_string(), "d1+01:02:03");
        assert_eq!(Day(7).to_string(), "day 7");
    }

    #[test]
    fn day_range_iterates_half_open() {
        let days: Vec<Day> = Day::range(Day(2), Day(5)).collect();
        assert_eq!(days, vec![Day(2), Day(3), Day(4)]);
        assert_eq!(Day::range(Day(3), Day(3)).count(), 0);
    }
}
