//! `report-smoke`: the `report_all` flow.
//!
//! One operation is what a researcher runs to regenerate EXPERIMENTS.md:
//! build the world, attach the streaming detector, run the four phases,
//! collect the results and render all 21 report sections plus the obs
//! tables. It exercises the simulation, intervention and batch-detection
//! engines and the analysis rendering, and no checkpoint or event-log I/O.
//! It runs on one worker thread: on a two-CPU shared host a second lane
//! makes operation times swing by a third from run to run (see the
//! README), so the thread count is only checked, not measured.

use footsteps_bench::render;
use footsteps_core::results::StudyResults;
use footsteps_core::{Phase, Scenario, Study};
use footsteps_obs::tree::fnv1a;
use footsteps_obs::Stopwatch;

use crate::{BenchError, Config, Run};

/// Report sections in `report_all` order.
const SECTIONS: [&str; 21] = [
    "franchise_note",
    "table01",
    "table02",
    "table03",
    "table04",
    "table05",
    "detection_quality",
    "table06",
    "table07",
    "table08",
    "table09",
    "table10",
    "table11",
    "figure02",
    "figures0304",
    "figure05",
    "figure06",
    "figure07",
    "section51",
    "epilogue",
    "detection_latency",
];

fn section(i: usize, study: &Study) -> String {
    match i {
        0 => render::franchise_note(),
        1 => render::table01(),
        2 => render::table02(Some(study)),
        3 => render::table03(),
        4 => render::table04(),
        5 => render::table05(study),
        6 => render::detection_quality(study),
        7 => render::table06(study),
        8 => render::table07(study),
        9 => render::table08(study),
        10 => render::table09(study),
        11 => render::table10(study),
        12 => render::table11(study),
        13 => render::figure02(study),
        14 => render::figures0304(study),
        15 => render::figure05(study),
        16 => render::figure06(study),
        17 => render::figure07(study),
        18 => render::section51(study),
        19 => render::epilogue(study),
        20 => render::detection_latency(study),
        _ => unreachable!("section index out of range"),
    }
}

/// The services in the study's day loop, and whether each has a sharded
/// apply phase (only the collusion services do).
const SERVICES: [(&str, bool); 5] = [
    ("instalex", false),
    ("instazood", false),
    ("boostgram", false),
    ("hublaagram", true),
    ("followersgratis", true),
];

/// Worlds per run. Operations cycle through them, so a run's numbers do
/// not hang on one seed's world: the peak RSS of a single smoke world
/// differs by up to 13% from seed to seed.
const WORLDS: u64 = 8;

/// Run the workload.
pub(crate) fn run(cfg: &Config, run: &mut Run) -> Result<(), BenchError> {
    let scenarios: Vec<Scenario> = (0..WORLDS)
        .map(|i| cfg.scenario(cfg.seed.wrapping_mul(WORLDS).wrapping_add(i)))
        .collect();
    // One set-up builds every world of the run, one at a time: a median
    // over single worlds of different sizes jumps between them.
    let mut setup = run.setup_window();
    while setup.next_op() {
        let mut secs = 0.0;
        for scenario in &scenarios {
            let (study, s) = run
                .probe
                .time("setup.study_new", || Study::new(scenario.clone()));
            drop(study);
            secs += s;
        }
        run.push_time("setup_s", secs);
    }
    check_thread_invariance(cfg, run);

    let mut first: Vec<Option<(u64, u64)>> = vec![None; scenarios.len()];
    let mut window = run.measure_window(cfg.seconds);
    while window.next_op() {
        let op = window.op_index();
        let world = op % scenarios.len();
        let (digest, report_hash) = operation(&scenarios[world], run)?;
        match first[world] {
            None => first[world] = Some((digest, report_hash)),
            Some((d, h)) => {
                run.checks.check(digest == d, || {
                    format!("operation {op}: results digest {digest:#018x}, first on this world {d:#018x}")
                });
                run.checks.check(report_hash == h, || {
                    format!("operation {op}: rendered report differs from the first on this world")
                });
            }
        }
    }
    Ok(())
}

/// One full report; returns the results digest and a hash of the text.
fn operation(scenario: &Scenario, run: &mut Run) -> Result<(u64, u64), BenchError> {
    let watch = Stopwatch::start();
    let root = run.probe.open("op");
    let (mut study, new_s) = run
        .probe
        .time("core.study_new", || Study::new(scenario.clone()));
    let (attached, attach_s) = run
        .probe
        .time("stream.attach", || study.attach_stream(None));
    attached?;
    let (_, char_s) = run
        .probe
        .time("core.characterization", || study.run_characterization());
    let (_, narrow_s) = run.probe.time("core.narrow", || study.run_narrow());
    let (_, broad_s) = run.probe.time("core.broad", || study.run_broad());
    let (_, epilogue_s) = run.probe.time("core.epilogue", || study.run_epilogue());
    let (results, collect_s) = run
        .probe
        .time("analysis.results_collect", || StudyResults::collect(&study));
    let (report, render_s) = render_report(&study, run);
    run.probe.close(root);
    let op_s = watch.elapsed_secs();

    run.checks.check(study.phase == Phase::Finished, || {
        format!("study ended at {:?}, not Finished", study.phase)
    });
    run.checks.check(study.stream.is_some(), || {
        "no frozen stream outcome".to_string()
    });
    run.push_time("op_s", op_s);

    if run.probe.tracing() {
        let phases_s = char_s + narrow_s + broad_s + epilogue_s;
        let named = new_s + attach_s + phases_s + collect_s + render_s;
        let l = &mut run.layers;
        l.push("core.study_new_s", new_s);
        l.push("core.characterization_s", char_s);
        l.push("core.narrow_s", narrow_s);
        l.push("core.broad_s", broad_s);
        l.push("core.epilogue_s", epilogue_s);
        l.push(
            "core.days_per_s",
            f64::from(study.timeline.end.0) / phases_s,
        );
        l.push("analysis.results_collect_s", collect_s);
        l.push("analysis.render_s", render_s);
        l.push("bench.unattributed_s", op_s - named);
        study_layers(&study, run);
    }
    Ok((results.digest(), fnv1a(report.as_bytes())))
}

/// Render every section (through the same fork-join as `report_all`,
/// joined in fixed order) and the obs tables. A traced run attaches each
/// section's interval to the render span.
fn render_report(study: &Study, run: &mut Run) -> (String, f64) {
    let span = run.probe.open("analysis.render");
    let watch = Stopwatch::start();
    let region_start = run.probe.now();
    let indices: Vec<usize> = (0..SECTIONS.len()).collect();
    let threads = study.platform.config.worker_threads;
    let sections = footsteps_aas::plan_parallel(&indices, threads, |&i| {
        let start = watch.elapsed_secs();
        let text = section(i, study);
        (text, start, watch.elapsed_secs())
    });
    let obs_start = watch.elapsed_secs();
    let obs = render::obs(study);
    let secs = watch.elapsed_secs();
    for (name, (_, start, end)) in SECTIONS.iter().zip(&sections) {
        run.probe.attach(
            &format!("analysis.render.{name}"),
            region_start,
            *start,
            *end,
        );
    }
    run.probe
        .attach("analysis.render.obs", region_start, obs_start, secs);
    run.probe.close(span);

    let mut report = String::new();
    for (text, _, _) in &sections {
        report.push_str(text);
        report.push('\n');
    }
    report.push_str(&obs);
    (report, secs)
}

/// Layers that exist only inside the study's day loop, read from the span
/// tree the study records, plus its exact behaviour counts.
fn study_layers(study: &Study, run: &mut Run) {
    let timings = study.platform.obs.timings.snapshot();
    let total = |name: &str| timings.get(name).map_or(0.0, |s| s.total_secs);
    let l = &mut run.layers;

    let background = total("engine.background");
    l.push("sim.background_s", background);
    let mut named = background;
    for (service, sharded) in SERVICES {
        let decision = total(&format!("aas.{service}.decision"));
        let route = total(&format!("aas.{service}.route"));
        l.push(format!("aas.{service}.decision_s"), decision);
        l.push(format!("aas.{service}.route_s"), route);
        named += decision + route;
        if sharded {
            let apply = total(&format!("aas.{service}.apply"));
            l.push(format!("aas.{service}.apply_s"), apply);
            named += apply;
        }
    }
    // What `engine.step_day` spends outside its named children: day
    // boundaries, the event-sink drain and the glue between services.
    l.push("core.step_day_self_s", total("engine.step_day") - named);
    l.push("detect.pipeline_build_s", total("detect.pipeline_build"));
    l.push(
        "stream.inline_ingest_s",
        study.stream.as_ref().map_or(0.0, |s| s.detector_secs),
    );
    l.push(
        "obs.self_s",
        study.platform.obs.timings.tree().obs_self_secs(),
    );

    let metrics = study.platform.obs.metrics.snapshot();
    let counter = |name: &str| metrics.counter(name) as f64;
    let outbound = |outcome: &str| counter(&format!("platform.outbound.{outcome}"));
    let both = |outcome: &str| outbound(outcome) + counter(&format!("platform.inbound.{outcome}"));
    l.push("core.days", f64::from(study.timeline.end.0));
    l.push(
        "sim.actions",
        [
            "delivered",
            "blocked",
            "deferred",
            "rate_limited",
            "edge_blocked",
        ]
        .iter()
        .map(|o| outbound(o))
        .sum(),
    );
    l.push("sim.delivered", outbound("delivered"));
    l.push("intervene.blocked", both("blocked"));
    l.push("intervene.deferred", both("deferred"));
}

/// Results must not depend on the worker-thread count: characterize the
/// quick scenario on one thread and on two, and compare digests.
fn check_thread_invariance(cfg: &Config, run: &mut Run) {
    let digest = |t: usize| {
        let mut scenario = Scenario::quick(cfg.seed);
        scenario.worker_threads = t;
        let mut study = Study::new(scenario);
        study.run_characterization();
        StudyResults::collect(&study).digest()
    };
    let (one, two) = (digest(1), digest(2));
    run.checks.check(one == two, || {
        format!("quick scenario digest {one:#018x} on 1 thread, {two:#018x} on 2")
    });
}
