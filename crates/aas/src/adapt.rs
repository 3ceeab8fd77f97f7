//! Adversarial adaptation: block detection and volume control.
//!
//! The central empirical finding of §6 is *how* services react to
//! countermeasures: synchronous blocking is detected almost immediately
//! (the paper found an openly available implementation of one service with
//! block-detection logic) and answered by dropping action volume below the
//! enforcement threshold and probing it thereafter, while delayed removal
//! goes unnoticed. In the epilogue (§6.4), persistent blocking drives ASN
//! migration — one service adopting "an extensive proxy network".
//!
//! This module implements that feedback loop as a genuine controller over
//! *observable* signals only (visible failure rates of the service's own
//! actions). Nothing here reads platform internals; the figures emerge from
//! the control loop meeting the enforcement policy.

use footsteps_sim::prelude::Day;

/// Controller tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptationConfig {
    /// Visible failure rate above which the service considers itself
    /// blocked. Normal operation has near-zero failures, so 5% is a loud
    /// signal.
    pub failure_rate_trigger: f64,
    /// Days of sustained failures before the service *reacts*. Zero for the
    /// follow controllers (the reaction was immediate); Hublaagram's like
    /// controller took ~3 weeks, "perhaps because it had to implement
    /// blocked like detection" (§6.3).
    pub detection_lag_days: u32,
    /// Safety margin under the estimated threshold when backing off
    /// (cap = estimate × (1 − margin)).
    pub backoff_margin: f64,
    /// Days between upward probes while throttled.
    pub probe_interval_days: u32,
    /// Relative cap increase per probe.
    pub probe_step: f64,
    /// Days of continued blocking (post-reaction) before the service
    /// migrates its traffic to a fresh network (§6.4 epilogue). `u32::MAX`
    /// disables migration.
    pub migrate_after_days: u32,
}

impl Default for AdaptationConfig {
    fn default() -> Self {
        Self {
            failure_rate_trigger: 0.05,
            detection_lag_days: 0,
            backoff_margin: 0.08,
            probe_interval_days: 4,
            probe_step: 0.08,
            migrate_after_days: 30,
        }
    }
}

/// What the controller decided at the end of a day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerAction {
    /// Keep operating as-is.
    None,
    /// Blocking detected: engage a per-account daily cap.
    Throttle,
    /// Raise the cap to probe where the limit sits.
    ProbeUp,
    /// A probe hit the limit again: lower the cap back.
    BackOff,
    /// Persistent blocking: move traffic to a different network.
    Migrate,
}

/// Controller state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    /// No blocking observed.
    Normal,
    /// Operating under a self-imposed per-account daily cap.
    Throttled {
        cap: f64,
        engaged_on: Day,
        last_probe: Day,
    },
}

/// Daily observation the service feeds its controller: the outcome of its
/// *own* traffic for one action type, which is all an adversary can see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DayObservation {
    /// Day being reported.
    pub day: Day,
    /// Actions the service attempted.
    pub attempted: u64,
    /// Actions that visibly failed (blocked). Deferred removals are *not*
    /// here — the service cannot see them, which is the entire asymmetry
    /// the paper demonstrates.
    pub visible_failed: u64,
    /// Median per-account *successful* daily action count — the service's
    /// best estimate of where the enforcement threshold sits.
    pub median_success_per_account: f64,
}

impl DayObservation {
    /// Visible failure rate (zero when idle).
    pub fn failure_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.visible_failed as f64 / self.attempted as f64
        }
    }
}

/// Per-action-type feedback controller for one service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VolumeController {
    config: AdaptationConfig,
    state: State,
    /// Consecutive days with failure above trigger (drives detection lag).
    failing_streak: u32,
    /// Days with failures since throttling engaged (drives migration).
    blocked_days_since_engaged: u32,
}

impl VolumeController {
    /// New controller in the normal state.
    pub fn new(config: AdaptationConfig) -> Self {
        Self {
            config,
            state: State::Normal,
            failing_streak: 0,
            blocked_days_since_engaged: 0,
        }
    }

    /// Current per-account daily cap, if the controller is throttling.
    pub fn cap(&self) -> Option<f64> {
        match self.state {
            State::Normal => None,
            State::Throttled { cap, .. } => Some(cap),
        }
    }

    /// Whether the controller has reacted to blocking.
    pub fn is_throttled(&self) -> bool {
        matches!(self.state, State::Throttled { .. })
    }

    /// Feed the end-of-day observation; returns the decision taken.
    pub fn observe(&mut self, obs: DayObservation) -> ControllerAction {
        let failing = obs.failure_rate() > self.config.failure_rate_trigger;
        match self.state {
            State::Normal => {
                if !failing {
                    self.failing_streak = 0;
                    return ControllerAction::None;
                }
                self.failing_streak += 1;
                if self.failing_streak <= self.config.detection_lag_days {
                    // Still inside the implementation/detection lag.
                    return ControllerAction::None;
                }
                // Engage: cap just below the observed success level.
                let cap = (obs.median_success_per_account
                    * (1.0 - self.config.backoff_margin))
                    .max(1.0);
                self.state = State::Throttled {
                    cap,
                    engaged_on: obs.day,
                    last_probe: obs.day,
                };
                self.blocked_days_since_engaged = 0;
                ControllerAction::Throttle
            }
            State::Throttled {
                cap,
                engaged_on,
                last_probe,
            } => {
                if failing {
                    self.blocked_days_since_engaged += 1;
                    if self.blocked_days_since_engaged >= self.config.migrate_after_days {
                        // Give up on this network entirely.
                        self.state = State::Normal;
                        self.failing_streak = 0;
                        self.blocked_days_since_engaged = 0;
                        return ControllerAction::Migrate;
                    }
                    // A probe (or the initial cap estimate) hit the limit:
                    // step back down.
                    let new_cap = (cap / (1.0 + self.config.probe_step)
                        * (1.0 - self.config.backoff_margin / 2.0))
                        .max(1.0);
                    self.state = State::Throttled {
                        cap: new_cap,
                        engaged_on,
                        last_probe: obs.day,
                    };
                    return ControllerAction::BackOff;
                }
                if obs.day.days_since(last_probe) >= self.config.probe_interval_days {
                    let new_cap = cap * (1.0 + self.config.probe_step);
                    self.state = State::Throttled {
                        cap: new_cap,
                        engaged_on,
                        last_probe: obs.day,
                    };
                    return ControllerAction::ProbeUp;
                }
                ControllerAction::None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(day: u32, attempted: u64, failed: u64, median: f64) -> DayObservation {
        DayObservation {
            day: Day(day),
            attempted,
            visible_failed: failed,
            median_success_per_account: median,
        }
    }

    #[test]
    fn quiet_days_keep_normal_state() {
        let mut c = VolumeController::new(AdaptationConfig::default());
        for d in 0..10 {
            assert_eq!(c.observe(obs(d, 10_000, 10, 200.0)), ControllerAction::None);
        }
        assert!(!c.is_throttled());
        assert_eq!(c.cap(), None);
    }

    #[test]
    fn blocking_triggers_immediate_throttle_without_lag() {
        let mut c = VolumeController::new(AdaptationConfig::default());
        assert_eq!(
            c.observe(obs(0, 10_000, 4_000, 120.0)),
            ControllerAction::Throttle
        );
        let cap = c.cap().unwrap();
        assert!(cap < 120.0, "cap {cap} must sit below observed success");
        assert!(cap > 100.0);
    }

    #[test]
    fn detection_lag_delays_reaction() {
        let cfg = AdaptationConfig {
            detection_lag_days: 21,
            ..AdaptationConfig::default()
        };
        let mut c = VolumeController::new(cfg);
        for d in 0..21 {
            assert_eq!(
                c.observe(obs(d, 10_000, 5_000, 150.0)),
                ControllerAction::None,
                "day {d} still inside the lag"
            );
        }
        assert_eq!(
            c.observe(obs(21, 10_000, 5_000, 150.0)),
            ControllerAction::Throttle
        );
    }

    #[test]
    fn lag_counter_resets_on_quiet_day() {
        let cfg = AdaptationConfig {
            detection_lag_days: 3,
            ..AdaptationConfig::default()
        };
        let mut c = VolumeController::new(cfg);
        for d in 0..3 {
            c.observe(obs(d, 100, 50, 10.0));
        }
        // A quiet day resets the streak…
        c.observe(obs(3, 100, 0, 10.0));
        // …so three more failing days are still inside the lag.
        for d in 4..7 {
            assert_eq!(c.observe(obs(d, 100, 50, 10.0)), ControllerAction::None);
        }
        assert_eq!(c.observe(obs(7, 100, 50, 10.0)), ControllerAction::Throttle);
    }

    #[test]
    fn throttled_controller_probes_and_backs_off() {
        let cfg = AdaptationConfig {
            probe_interval_days: 4,
            ..AdaptationConfig::default()
        };
        let mut c = VolumeController::new(cfg);
        c.observe(obs(0, 1_000, 600, 100.0));
        let cap0 = c.cap().unwrap();
        // Quiet days until the probe interval elapses.
        for d in 1..4 {
            assert_eq!(c.observe(obs(d, 1_000, 0, 90.0)), ControllerAction::None);
        }
        assert_eq!(c.observe(obs(4, 1_000, 0, 90.0)), ControllerAction::ProbeUp);
        let cap1 = c.cap().unwrap();
        assert!(cap1 > cap0);
        // Probe hit the limit: failures reappear, cap steps back down.
        assert_eq!(c.observe(obs(5, 1_000, 200, 90.0)), ControllerAction::BackOff);
        let cap2 = c.cap().unwrap();
        assert!(cap2 < cap1);
    }

    #[test]
    fn persistent_blocking_drives_migration() {
        let cfg = AdaptationConfig {
            migrate_after_days: 5,
            ..AdaptationConfig::default()
        };
        let mut c = VolumeController::new(cfg);
        c.observe(obs(0, 1_000, 600, 100.0));
        let mut migrated = false;
        for d in 1..20 {
            if c.observe(obs(d, 1_000, 600, 80.0)) == ControllerAction::Migrate {
                migrated = true;
                assert!(!c.is_throttled(), "fresh network starts unthrottled");
                break;
            }
        }
        assert!(migrated);
    }

    #[test]
    fn cap_never_collapses_below_one() {
        let mut c = VolumeController::new(AdaptationConfig::default());
        c.observe(obs(0, 100, 99, 0.5));
        for d in 1..50 {
            c.observe(obs(d, 100, 99, 0.5));
        }
        if let Some(cap) = c.cap() {
            assert!(cap >= 1.0);
        }
    }
}
