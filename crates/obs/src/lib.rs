//! footsteps-obs: observability substrate for the study pipeline.
//!
//! Two facilities with one hard rule between them:
//!
//! * [`MetricsRegistry`] — named counters, gauges, and fixed-bucket
//!   histograms, grouped by study phase. **Deterministic**: values are a
//!   pure function of the simulation decision stream, so the serialized
//!   [`MetricsSnapshot`] is byte-identical run to run.
//! * [`Timings`] — a hierarchical span tree (see [`tree`]) of wall-clock
//!   timers: phases, days, engine stages, and explicit worker lanes for
//!   parallel regions. Durations are **non-deterministic by nature**,
//!   therefore quarantined in [`TimingsSnapshot`] / the Chrome-trace
//!   sidecar; the span *structure* (names, nesting, lane kinds, counts)
//!   is deterministic, the same for a traced and an untraced run.
//!
//! `FOOTSTEPS_TRACE_OUT=<path>` additionally turns on span-event
//! collection and, at the end of the run, exports a Chrome-trace /
//! Perfetto `trace.json` (see [`export`]) with per-lane timelines and
//! phase-boundary counter samples.
//!
//! [`Recorder`] bundles the pieces for convenient ownership by the
//! platform. The `progress!` macro (see [`progress`]) replaces ad-hoc
//! status `eprintln!`s, respects `FOOTSTEPS_QUIET`, and frames each line
//! through a mutex so concurrent emitters never tear output.

pub mod atomic;
pub mod export;
pub mod progress;
pub mod registry;
pub mod span;
pub mod tree;

pub use registry::{Frame, Histogram, MetricKey, MetricsRegistry, MetricsSnapshot};
pub use span::{SpanStats, SpanTimer, Stopwatch, Timings, TimingsSnapshot};
pub use tree::{
    CounterSample, LaneKind, SpanEvent, SpanTree, StructureNode, StructureSnapshot, WorkerSpan,
};

use std::path::{Path, PathBuf};

/// Counters worth a Chrome-trace track: the platform-level delivery and
/// enforcement headline numbers (the full registry would be hundreds of
/// tracks; everything is still in the metrics snapshot).
const SAMPLED_COUNTER_PREFIX: &str = "platform.";

/// The full observability kit: deterministic metrics and the quarantined
/// wall-clock span tree.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    pub metrics: MetricsRegistry,
    pub timings: Timings,
    /// Where to export the Chrome trace (`FOOTSTEPS_TRACE_OUT`), if set.
    pub trace_out: Option<PathBuf>,
}

impl Recorder {
    /// A recorder with span-event collection off regardless of the
    /// environment.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// A recorder whose span tree collects exportable events when
    /// `FOOTSTEPS_TRACE_OUT` names a destination file.
    pub fn from_env() -> Self {
        let trace_out = std::env::var("FOOTSTEPS_TRACE_OUT")
            .ok()
            .map(|v| v.trim().to_string())
            .filter(|v| !v.is_empty())
            .map(PathBuf::from);
        let mut timings = Timings::new();
        if trace_out.is_some() {
            timings.enable_events();
        }
        Recorder {
            metrics: MetricsRegistry::new(),
            timings,
            trace_out,
        }
    }

    /// Open a new metrics phase frame. When span events are being
    /// collected, the closing phase's cumulative headline counters are
    /// sampled onto the span timeline first (exported as `C` events).
    pub fn begin_phase(&mut self, name: &str) {
        self.sample_phase_counters();
        self.metrics.begin_phase(name);
    }

    /// Sample cumulative headline counters at a phase boundary.
    fn sample_phase_counters(&mut self) {
        if !self.timings.events_enabled() {
            return;
        }
        let snap = self.metrics.snapshot();
        let counters: Vec<(String, u64)> = snap
            .totals
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with(SAMPLED_COUNTER_PREFIX))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        let phase = self.metrics.current_phase().to_string();
        self.timings.sample_counters(&phase, counters);
    }

    /// Export the Chrome trace to `trace_out`, if configured. Takes a
    /// final counter sample so the last phase's totals appear too.
    /// Returns the path written, or `None` when exporting is off.
    pub fn export_trace(&mut self) -> std::io::Result<Option<PathBuf>> {
        let Some(path) = self.trace_out.clone() else {
            return Ok(None);
        };
        self.sample_phase_counters();
        export::write_chrome_trace(self.timings.tree(), &path)?;
        Ok(Some(path))
    }

    /// Export the trace to an explicit path regardless of `trace_out`
    /// (the sweep writes one file per job).
    pub fn export_trace_to(&mut self, path: &Path) -> std::io::Result<()> {
        self.sample_phase_counters();
        export::write_chrome_trace(self.timings.tree(), path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_default_trace_is_disabled() {
        let rec = Recorder::new();
        assert!(rec.trace_out.is_none());
        assert!(!rec.timings.events_enabled());
    }

    #[test]
    fn recorder_phases_flow_through() {
        let mut rec = Recorder::new();
        rec.metrics.incr("pre");
        rec.begin_phase("characterization");
        rec.metrics.incr("post");
        let snap = rec.metrics.snapshot();
        assert_eq!(snap.phases.len(), 2);
        assert_eq!(snap.counter("pre"), 1);
        assert_eq!(snap.counter("post"), 1);
    }

    #[test]
    fn phase_boundaries_sample_headline_counters_when_collecting() {
        let mut rec = Recorder::new();
        rec.timings.enable_events();
        rec.metrics.add("platform.inbound.delivered", 7);
        rec.metrics.add("detect.signatures", 3); // not a headline counter
        rec.begin_phase("characterization");
        let samples = rec.timings.tree().counter_samples();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].phase, "setup");
        assert_eq!(
            samples[0].counters,
            vec![("platform.inbound.delivered".to_string(), 7)]
        );
    }

    #[test]
    fn export_is_a_noop_without_trace_out() {
        let mut rec = Recorder::new();
        assert!(rec.export_trace().expect("no-op export").is_none());
    }

    #[test]
    fn export_trace_to_writes_a_valid_file() {
        let mut rec = Recorder::new();
        rec.timings.enable_events();
        let t = rec.timings.start("phase.test");
        rec.metrics.add("platform.outbound.delivered", 1);
        rec.timings.finish(t);
        let dir = std::env::temp_dir().join("footsteps_obs_recorder_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job_trace.json");
        rec.export_trace_to(&path).expect("export writes");
        let body = std::fs::read_to_string(&path).unwrap();
        export::validate_chrome_trace(&body).expect("exported trace validates");
        std::fs::remove_file(&path).ok();
    }
}
