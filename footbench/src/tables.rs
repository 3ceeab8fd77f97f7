//! The benchmark's names: workloads, end-to-end metrics and per-layer
//! metrics. `BENCHMARK.json` at the repository root lists the same names
//! (the `bench_file_matches_tables` test keeps the two in step).

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `report_all` flow at smoke scale.
    ReportSmoke,
    /// Repeated offline replays of a recorded smoke event log.
    ReplaySmoke,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 2] = [Workload::ReportSmoke, Workload::ReplaySmoke];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReportSmoke => "report-smoke",
            Workload::ReplaySmoke => "replay-smoke",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// An end-to-end metric. All three are reported on every workload, and a
/// lower value is better for each.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

/// The end-to-end metrics, in output order.
///
/// A timing is the median over the run's repetitions of each one's wall
/// time in reference seconds: divided by the host-speed calibration that
/// brackets it and scaled to the reference host (see `calibrate.rs`). The
/// shared hosts this runs on change speed by up to a factor of two for
/// stretches of seconds to minutes, which moves raw wall times from run to
/// run by far more than the bounds allow.
pub const END_TO_END: [EndToEnd; 3] = [
    // Time of one operation: one full report or one replay of the event
    // log.
    EndToEnd {
        name: "op_s",
        unit: "s",
    },
    // Time of the workload's set-up (building the run's worlds, or
    // recording the event log), repeated for at least four seconds and at
    // least three times.
    EndToEnd {
        name: "setup_s",
        unit: "s",
    },
    // `VmHWM` of the workload's process.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
    },
];

/// A per-layer metric, reported by traced runs.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// The end-to-end metric this layer should move.
    pub feeds: &'static str,
    /// The workloads that measure it; it reads 0 on the others.
    pub workloads: &'static [Workload],
    /// The layer whose wall time this one is a share of; empty for counts,
    /// rates and times measured outside the operation.
    pub share_of: &'static str,
}

const ALL: &[Workload] = &Workload::ALL;
const REPORT: &[Workload] = &[Workload::ReportSmoke];
const REPLAY: &[Workload] = &[Workload::ReplaySmoke];

const OP: &str = "bench.op_median_s";

const fn time(name: &'static str, feeds: &'static str, workloads: &'static [Workload]) -> Layer {
    Layer {
        name,
        unit: "s",
        higher_is_better: false,
        feeds,
        workloads,
        share_of: OP,
    }
}

/// A time that is no share of the median operation: measured outside the
/// operations (set-up, calibration, or after the window), or in reference
/// seconds.
const fn outside(name: &'static str, feeds: &'static str, workloads: &'static [Workload]) -> Layer {
    Layer {
        name,
        unit: "s",
        higher_is_better: false,
        feeds,
        workloads,
        share_of: "",
    }
}

const fn count(
    name: &'static str,
    unit: &'static str,
    feeds: &'static str,
    workloads: &'static [Workload],
) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: false,
        feeds,
        workloads,
        share_of: "",
    }
}

const fn rate(
    name: &'static str,
    unit: &'static str,
    feeds: &'static str,
    workloads: &'static [Workload],
) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: true,
        feeds,
        workloads,
        share_of: "",
    }
}

/// The per-layer metrics, in output order. Times are wall seconds per
/// operation, medians over the run's operations, unless noted.
pub const LAYERS: &[Layer] = &[
    // Every workload: `op_s` as traced (its difference from the untraced
    // `op_s` is the tracing overhead), the median operation's wall time
    // (the base of the other layers' shares), the operation count and the
    // median time of the host-speed calibration kernel, which divides
    // every end-to-end timing. `bench.op_s` is in reference seconds, so it
    // is no share of a wall time.
    outside("bench.op_s", "op_s", ALL),
    time("bench.op_median_s", "op_s", ALL),
    rate("bench.ops", "count", "op_s", ALL),
    outside("bench.calibration_s", "op_s, setup_s (divisor)", ALL),
    time("bench.unattributed_s", "op_s", ALL),
    time("obs.self_s", "op_s", ALL),
    // report-smoke: timed from outside around the public calls.
    time("core.study_new_s", "setup_s", REPORT),
    time("core.characterization_s", "op_s", REPORT),
    time("core.narrow_s", "op_s", REPORT),
    time("core.broad_s", "op_s", REPORT),
    time("core.epilogue_s", "op_s", REPORT),
    rate("core.days_per_s", "days/s", "op_s", REPORT),
    time("analysis.results_collect_s", "op_s", REPORT),
    time("analysis.render_s", "op_s", REPORT),
    // report-smoke: read from the study's own span tree.
    time("sim.background_s", "op_s", REPORT),
    time("core.step_day_self_s", "op_s", REPORT),
    time("aas.instalex.decision_s", "op_s", REPORT),
    time("aas.instazood.decision_s", "op_s", REPORT),
    time("aas.boostgram.decision_s", "op_s", REPORT),
    time("aas.hublaagram.decision_s", "op_s", REPORT),
    time("aas.followersgratis.decision_s", "op_s", REPORT),
    time("aas.instalex.route_s", "op_s", REPORT),
    time("aas.instazood.route_s", "op_s", REPORT),
    time("aas.boostgram.route_s", "op_s", REPORT),
    time("aas.hublaagram.route_s", "op_s", REPORT),
    time("aas.followersgratis.route_s", "op_s", REPORT),
    time("aas.hublaagram.apply_s", "op_s", REPORT),
    time("aas.followersgratis.apply_s", "op_s", REPORT),
    time("detect.pipeline_build_s", "op_s", REPORT),
    time("stream.inline_ingest_s", "op_s", REPORT),
    // report-smoke: exact counts, which explain a throughput shift that comes
    // from changed behaviour rather than changed speed.
    count("core.days", "count", "op_s", REPORT),
    count("sim.actions", "count", "op_s", REPORT),
    count("sim.delivered", "count", "op_s", REPORT),
    count("intervene.blocked", "count", "op_s", REPORT),
    count("intervene.deferred", "count", "op_s", REPORT),
    // replay-smoke.
    outside("stream.record_s", "setup_s", REPLAY),
    time("stream.parse_s", "op_s", REPLAY),
    rate("stream.parse_mb_per_s", "MB/s", "op_s", REPLAY),
    time("stream.ingest_s", "op_s", REPLAY),
    outside("stream.append_s", "setup_s", REPLAY),
    outside("stream.finish_s", "setup_s", REPLAY),
    outside("stream.log_write_s", "setup_s", REPLAY),
    count("stream.records", "count", "op_s", REPLAY),
    count("stream.batches", "count", "op_s", REPLAY),
    count("stream.log_bytes", "bytes", "op_s", REPLAY),
];
