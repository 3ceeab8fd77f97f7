//! The study orchestrator: the paper's methodology end to end.
//!
//! A [`Study`] wires the platform substrate, the five service engines, the
//! honeypot framework, organic background traffic, the detection pipeline
//! and the intervention machinery through the paper's phases:
//!
//! 1. **setup** — world construction, honeypot campaigns, customer seeding;
//! 2. **characterization** (§4/§5) — 90 days of unhindered operation;
//! 3. **pipeline** — signatures, classification and frozen thresholds from
//!    the calibration tail;
//! 4. **narrow intervention** (§6.3) — six weeks, block/delay/control bins;
//! 5. **broad intervention** (§6.4) — one week delay, one week block, 90%;
//! 6. **epilogue** (§6.4) — months of continued enforcement (block likes,
//!    delay follows) during which the services migrate or fold.
//!
//! Which bin assignment is in force on which day is one calendar,
//! [`Timeline::bins_on`], read by the phase runners and by Figures 5–7.

use crate::scenario::Scenario;
use crate::world::AsnLayout;
use footsteps_aas::{presets, CollusionService, PaymentLedger, ReciprocityService, Service};
use footsteps_detect::DetectionPipeline;
use footsteps_honeypot::{run_campaign, CampaignReport, HoneypotFramework};
use footsteps_intervene::{BinAssignment, BinPolicy, ExperimentPolicy};
use footsteps_obs::Stopwatch;
use footsteps_sim::background::{run_background_day, BackgroundConfig};
use footsteps_sim::population::{synthesize, PopulationConfig, ResidentialIndex};
use footsteps_sim::prelude::*;
use footsteps_stream::{
    roster, EventLogWriter, LogHeader, OnlineDetector, StreamConfig, StreamError, StreamOutcome,
    STREAM_SCHEMA_VERSION,
};
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::path::Path;

/// Days of the broad experiment's delay week, before it switches to
/// blocking (§6.4).
const BROAD_DELAY_DAYS: u32 = 7;

/// The study's calendar: its phase boundaries, in days, and the §6 bin
/// assignment in force on each day ([`Timeline::bins_on`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeline {
    /// Characterization start (always day 0).
    pub char_start: Day,
    /// Characterization end / narrow start.
    pub narrow_start: Day,
    /// Narrow end / broad start.
    pub broad_start: Day,
    /// The broad experiment's switch from its delay week to blocking.
    pub broad_switch: Day,
    /// Broad end / epilogue start.
    pub epilogue_start: Day,
    /// Epilogue end (end of the study).
    pub end: Day,
}

impl Timeline {
    fn from_scenario(s: &Scenario) -> Self {
        let char_start = Day(0);
        let narrow_start = char_start.plus(s.characterization_days);
        let broad_start = narrow_start.plus(s.narrow_days);
        let broad_switch = broad_start.plus(BROAD_DELAY_DAYS);
        let epilogue_start = broad_start.plus(s.broad_days);
        let end = epilogue_start.plus(s.epilogue_days);
        Self { char_start, narrow_start, broad_start, broad_switch, epilogue_start, end }
    }

    /// The bin assignment in force on `day`: none during characterization,
    /// the narrow design (§6.3) until `broad_start`, 90% delayed removal
    /// until `broad_switch`, 90% blocking until `epilogue_start`, and the
    /// epilogue treatment (block likes, delay follows) from then on (§6.4).
    pub fn bins_on(&self, day: Day) -> Option<BinAssignment> {
        let treatment = match day {
            d if d < self.narrow_start => return None,
            d if d < self.broad_start => return Some(BinAssignment::narrow()),
            d if d >= self.epilogue_start => BinPolicy::Epilogue,
            d if d < self.broad_switch => BinPolicy::Delay,
            _ => BinPolicy::Block,
        };
        Some(BinAssignment::broad(treatment))
    }

    /// The calibration window used to build the detection pipeline.
    pub fn calibration(&self, tail_days: u32) -> (Day, Day) {
        let start = Day(self.narrow_start.0.saturating_sub(tail_days));
        (start, self.narrow_start)
    }
}

/// How far a study has progressed. Ordered: later phases compare greater.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Phase {
    /// Constructed, nothing run.
    Setup,
    /// Characterization complete, pipeline built.
    Characterized,
    /// Narrow intervention complete.
    NarrowDone,
    /// Broad intervention complete.
    BroadDone,
    /// Epilogue complete.
    Finished,
}

/// A full study world.
///
/// A study is deterministic in its scenario: every draw comes from a
/// labelled stream of [`RngFactory`], so two studies built from the same
/// scenario run byte-identical days. That is how a sweep job resumes: it
/// runs again from [`Study::new`] (`footsteps-sweep`).
#[derive(Debug)]
pub struct Study {
    /// The configuration this study was built from.
    pub scenario: Scenario,
    /// Phase boundaries.
    pub timeline: Timeline,
    /// Progress marker.
    pub phase: Phase,
    /// The platform substrate.
    pub platform: Platform,
    /// Residential-ASN index for account creation.
    pub residential: ResidentialIndex,
    /// The organic population.
    pub population: Population,
    /// Network layout.
    pub layout: AsnLayout,
    /// The five service engines, in [`ServiceId::ALL`] order (see
    /// [`Study::reciprocity`] and [`Study::collusion`]).
    pub services: Vec<Service>,
    /// The honeypot framework.
    pub framework: HoneypotFramework,
    /// Ground-truth payments across all services.
    pub ledger: PaymentLedger,
    /// Campaign reports from registration.
    pub campaigns: Vec<CampaignReport>,
    /// The detection pipeline, once built.
    pub pipeline: Option<DetectionPipeline>,
    /// The streaming detection outcome, frozen at the calibration
    /// boundary when a detector was attached via [`Study::attach_stream`].
    /// Observability-plus-analysis state: excluded from every digest.
    pub stream: Option<StreamOutcome>,
    /// The online detector until it freezes, with the seconds spent in it.
    detector: Option<(OnlineDetector, f64)>,
    /// The event-log recorder, when recording.
    recorder: Option<EventLogWriter>,
    background: BackgroundConfig,
    bg_rng: SmallRng,
}

impl Study {
    /// Build the world and register all honeypot campaigns. Deterministic in
    /// the scenario.
    pub fn new(scenario: Scenario) -> Self {
        assert!(scenario.is_valid(), "invalid scenario");
        let timeline = Timeline::from_scenario(&scenario);
        let rngs = RngFactory::new(scenario.seed);
        let mut registry = AsnRegistry::new();
        let layout = AsnLayout::build(&mut registry);
        let residential = ResidentialIndex::build(&registry);
        let mut platform = Platform::new(
            registry,
            PlatformConfig {
                worker_threads: scenario.worker_threads,
                ..PlatformConfig::default()
            },
            rngs.stream("platform"),
        );
        // World construction is timed from here, the first point where the
        // platform's recorder exists; `phase.setup` (day 0) follows it.
        let world_timer = platform.obs.timings.start("phase.world");
        let population_timer = platform.obs.timings.start("world.population");
        let mut pop_rng = rngs.stream("population");
        let population = synthesize(
            &mut platform.accounts,
            &residential,
            &PopulationConfig {
                size: scenario.population_size,
                ..PopulationConfig::default()
            },
            &mut pop_rng,
        );
        platform.obs.timings.finish(population_timer);

        // --- services -------------------------------------------------------
        let services_timer = platform.obs.timings.start("world.services");
        // The franchises share their parent's automation stack: one
        // fingerprint variant and one hosting network, which is exactly why
        // the paper cannot tell them apart ("Insta*").
        let mut instalex_cfg = presets::instalex_config(scenario.scale);
        instalex_cfg.fingerprint_variant = 1;
        let mut instazood_cfg = presets::instazood_config(scenario.scale);
        instazood_cfg.fingerprint_variant = 1;
        let scale_pool = |size: usize| size.min(scenario.population_size as usize / 4);
        // Instalex curates on the follow-from-like trait, which only ~12% of
        // the population carries; cap its pool by that supply or the
        // curation degenerates to uniform filling and the Table-5 anomaly
        // (and Figures 3/4 bias) washes out at small scales.
        instalex_cfg.pool_size = scale_pool(instalex_cfg.pool_size)
            .min(scenario.population_size as usize / 12);
        instazood_cfg.pool_size = scale_pool(instazood_cfg.pool_size);
        let mut boostgram_cfg = presets::boostgram_config(scenario.scale);
        boostgram_cfg.pool_size = scale_pool(boostgram_cfg.pool_size);
        let reciprocity = |cfg, rotation, label| {
            Service::Reciprocity(ReciprocityService::new(
                cfg,
                &platform.accounts,
                &population,
                rotation,
                rngs.stream(label),
            ))
        };
        let services = vec![
            reciprocity(instalex_cfg, layout.insta_rotation(), "aas.instalex"),
            reciprocity(instazood_cfg, layout.insta_rotation(), "aas.instazood"),
            reciprocity(boostgram_cfg, layout.boost_rotation(), "aas.boostgram"),
            Service::Collusion(CollusionService::with_active_asns(
                presets::hublaagram_config(scenario.scale),
                layout.hubla_asns.clone(),
                layout.hubla_asns.len(),
                rngs.stream("aas.hublaagram"),
            )),
            Service::Collusion(CollusionService::new(
                presets::followersgratis_config(scenario.scale),
                vec![layout.fg_asn],
                rngs.stream("aas.followersgratis"),
            )),
        ];
        debug_assert!(services.iter().map(Service::id).eq(ServiceId::ALL));
        platform.obs.timings.finish(services_timer);

        let framework = HoneypotFramework::new(layout.honeypot_home, rngs.stream("honeypot"));
        let background = BackgroundConfig {
            daily_actors: scenario.background_daily_actors,
            blend: vec![(layout.insta_primary, scenario.background_blend_actors)],
            ..BackgroundConfig::default()
        };
        let bg_rng = rngs.stream("background");
        platform.obs.timings.finish(world_timer);

        let mut study = Self {
            scenario,
            timeline,
            phase: Phase::Setup,
            platform,
            residential,
            population,
            layout,
            services,
            framework,
            ledger: PaymentLedger::new(),
            campaigns: Vec::new(),
            pipeline: None,
            stream: None,
            detector: None,
            recorder: None,
            background,
            bg_rng,
        };
        study.setup();
        study
    }

    /// Day-0 setup: celebrities, baseline honeypots, customer stock,
    /// registration campaigns.
    fn setup(&mut self) {
        // The metrics registry opens on an implicit "setup" frame, so
        // everything below lands there without an explicit begin_phase.
        let timer = self.platform.obs.timings.start("phase.setup");
        self.platform.begin_day(Day(0));
        self.framework.setup_celebrities(&mut self.platform, 25);
        self.framework
            .create_baseline(&mut self.platform, self.scenario.baseline_accounts);
        for service in &mut self.services {
            service.seed_initial_customers(
                &mut self.platform,
                &self.residential,
                &mut self.ledger,
                Day(0),
            );
        }
        let per = self.scenario.honeypots_per_type;
        let paid = self.scenario.paid_honeypots_per_type;
        self.campaigns = self
            .services
            .iter_mut()
            .map(|service| {
                run_campaign(
                    &mut self.framework,
                    &mut self.platform,
                    service,
                    &mut self.ledger,
                    Day(0),
                    per,
                    paid,
                )
            })
            .collect();
        self.platform.obs.timings.finish(timer);
    }

    /// Advance the world through one day: day boundary, background traffic,
    /// every service, then the finished day to the stream.
    fn step_day(&mut self, day: Day) {
        let timer = self.platform.obs.timings.start("engine.step_day");
        let begin_timer = self.platform.obs.timings.start("engine.begin_day");
        self.platform.begin_day(day);
        self.platform.obs.timings.finish(begin_timer);
        let bg_timer = self.platform.obs.timings.start("engine.background");
        run_background_day(
            &mut self.platform,
            &self.population,
            &self.background,
            &mut self.bg_rng,
        );
        self.platform.obs.timings.finish(bg_timer);
        for service in &mut self.services {
            service.run_day(&mut self.platform, &self.residential, &mut self.ledger, day);
        }
        let seal_timer = self.platform.obs.timings.start("engine.seal");
        self.record_day(day);
        self.platform.obs.timings.finish(seal_timer);
        self.platform.obs.timings.finish(timer);
    }

    /// Seal the finished `day`, which makes it final, feed it to the
    /// online detector (which is dropped once it freezes, its outcome kept
    /// in `self.stream`) and append it to the event log.
    ///
    /// # Panics
    /// Panics if the event log cannot be written.
    fn record_day(&mut self, day: Day) {
        let sealed = self.platform.log.seal(day);
        if let Some((detector, secs)) = &mut self.detector {
            let sw = Stopwatch::start();
            detector.ingest(sealed);
            *secs += sw.elapsed_secs();
        }
        if let Some(recorder) = &mut self.recorder {
            let appended = recorder.append(sealed);
            appended.unwrap_or_else(|e| panic!("event log {}: {e}", recorder.path().display()));
        }
        if let Some((detector, secs)) = self.detector.take_if(|(d, _)| d.frozen().is_some()) {
            let log_path = self.recorder.as_ref().map(|r| r.path().to_path_buf());
            let outcome = detector.into_outcome(secs, log_path).expect("the detector froze");
            let customers = outcome.verdicts.classification.customers.values();
            let metrics = &mut self.platform.obs.metrics;
            metrics.add("stream.events", outcome.events_processed);
            metrics.add("stream.batches", outcome.batches);
            metrics.add("stream.customers", customers.map(|s| s.len() as u64).sum());
            self.stream = Some(outcome);
        }
    }

    /// Flush the event log at a phase boundary, so the log on disk holds
    /// every day the study has run. Panics like [`Study::record_day`].
    fn flush_log(&mut self) {
        if let Some(recorder) = &mut self.recorder {
            let flushed = recorder.flush();
            flushed.unwrap_or_else(|e| panic!("event log {}: {e}", recorder.path().display()));
        }
    }

    /// Run the characterization phase (§4/§5) and build the detection
    /// pipeline from the calibration tail.
    pub fn run_characterization(&mut self) {
        assert_eq!(self.phase, Phase::Setup, "phases must run in order");
        self.platform.obs.begin_phase("characterization");
        let timer = self.platform.obs.timings.start("phase.characterization");
        for day in Day::range(self.timeline.char_start, self.timeline.narrow_start) {
            self.step_day(day);
        }
        let (cal_start, cal_end) = self
            .timeline
            .calibration(self.scenario.calibration_tail_days);
        let build_timer = self.platform.obs.timings.start("detect.pipeline_build");
        let pipeline = DetectionPipeline::build_windows(
            &self.framework,
            &self.platform,
            self.timeline.char_start,
            self.timeline.narrow_start,
            cal_start,
            cal_end,
        );
        pipeline.record_obs(&mut self.platform.obs);
        self.platform.obs.timings.finish(build_timer);
        self.pipeline = Some(pipeline);
        // The online detector froze on the last day above, at the same
        // boundary the batch pipeline was just built on (DESIGN.md §8).
        debug_assert!(self.detector.is_none(), "the online detector freezes at the boundary");
        self.flush_log();
        self.platform.obs.timings.finish(timer);
        self.phase = Phase::Characterized;
    }

    /// Install the streaming detection harness (DESIGN.md §8): an online
    /// detector fed each day as it seals, and, with `record_to`, the event
    /// log of the whole run (every day of all four phases, one sealed
    /// `DayLog` per line). Call before [`Study::run_characterization`];
    /// the frozen [`StreamOutcome`] lands in `self.stream` on the last day
    /// of that phase.
    ///
    /// Observability-only: neither feeds back into simulation decisions,
    /// so the golden digest is unchanged with them installed.
    pub fn attach_stream(&mut self, record_to: Option<&Path>) -> Result<(), StreamError> {
        assert_eq!(
            self.phase,
            Phase::Setup,
            "attach the stream before characterization"
        );
        let (cal_start, cal_end) = self
            .timeline
            .calibration(self.scenario.calibration_tail_days);
        let config = StreamConfig {
            calibration_start: cal_start,
            calibration_end: cal_end,
            window_days: self.scenario.calibration_tail_days,
        };
        let roster = roster(&self.framework, &self.platform);
        self.recorder = match record_to {
            Some(path) => {
                let header = LogHeader {
                    schema_version: STREAM_SCHEMA_VERSION,
                    seed: self.scenario.seed,
                    calibration_start: cal_start,
                    calibration_end: cal_end,
                    window_days: config.window_days,
                    roster: roster.clone(),
                };
                Some(EventLogWriter::create(path, &header)?)
            }
            None => None,
        };
        self.detector = Some((OnlineDetector::new(config, &roster), 0.0));
        Ok(())
    }

    /// Detection latency of the online verdicts against the batch
    /// classifier. `None` until both the stream outcome and the pipeline
    /// exist (i.e. a detector was attached and characterization has run).
    pub fn detection_latency(&self) -> Option<footsteps_stream::LatencyReport> {
        let stream = self.stream.as_ref()?;
        let pipeline = self.pipeline.as_ref()?;
        Some(footsteps_stream::latency_report(
            &stream.verdicts.classification,
            &pipeline.classification,
        ))
    }

    /// Run the narrow intervention (§6.3).
    pub fn run_narrow(&mut self) {
        assert_eq!(self.phase, Phase::Characterized, "characterize first");
        self.run_intervention("narrow", self.timeline.narrow_start, self.timeline.broad_start);
        self.phase = Phase::NarrowDone;
    }

    /// Run the broad intervention (§6.4): delay week, then block week.
    pub fn run_broad(&mut self) {
        assert_eq!(self.phase, Phase::NarrowDone, "narrow first");
        self.run_intervention("broad", self.timeline.broad_start, self.timeline.epilogue_start);
        self.phase = Phase::BroadDone;
    }

    /// Run the epilogue (§6.4): months of continued enforcement (block
    /// likes, delay follows) during which the services adapt or fold.
    pub fn run_epilogue(&mut self) {
        assert_eq!(self.phase, Phase::BroadDone, "broad first");
        self.run_intervention("epilogue", self.timeline.epilogue_start, self.timeline.end);
        self.phase = Phase::Finished;
    }

    /// Run the intervention phase `name` over the days `[start, end)`,
    /// installing an [`ExperimentPolicy`] on each day the calendar's bin
    /// assignment changes, then flush the event log.
    fn run_intervention(&mut self, name: &str, start: Day, end: Day) {
        self.platform.obs.begin_phase(name);
        let timer = self.platform.obs.timings.start(&format!("phase.{name}"));
        let mut installed = None;
        for day in Day::range(start, end) {
            let bins = self.timeline.bins_on(day);
            if bins != installed {
                let bins = bins.expect("the calendar assigns bins on every intervention day");
                let thresholds = self.pipeline().thresholds.clone();
                self.platform
                    .set_policy(Box::new(ExperimentPolicy::new(thresholds, bins)));
                installed = Some(bins);
            }
            self.step_day(day);
        }
        self.flush_log();
        self.platform.obs.timings.finish(timer);
    }

    /// Run every phase in order, then export the Chrome trace if
    /// `FOOTSTEPS_TRACE_OUT` configured one (exporting is observability
    /// only — failures are reported, never fatal).
    pub fn run_to_completion(&mut self) {
        self.run_characterization();
        self.run_narrow();
        self.run_broad();
        self.run_epilogue();
        match self.platform.obs.export_trace() {
            Ok(Some(path)) => {
                footsteps_obs::progress!("chrome trace written to {}", path.display());
            }
            Ok(None) => {}
            Err(err) => footsteps_obs::progress!("chrome trace export failed: {err}"),
        }
    }

    /// The detection pipeline.
    ///
    /// # Panics
    /// Panics before `run_characterization`.
    pub fn pipeline(&self) -> &DetectionPipeline {
        self.pipeline
            .as_ref()
            .expect("pipeline is built by run_characterization")
    }

    /// The signature ASNs of a business group (where its traffic was seen
    /// during calibration).
    pub fn group_asns(&self, group: ServiceGroup) -> BTreeSet<AsnId> {
        self.pipeline()
            .signatures
            .iter()
            .filter(|s| group.members().contains(&s.service))
            .flat_map(|s| s.asns.iter().copied())
            .collect()
    }

    /// The reciprocity service engine for an id.
    ///
    /// # Panics
    /// Panics for collusion services.
    pub fn reciprocity(&self, id: ServiceId) -> &ReciprocityService {
        match &self.services[id.index()] {
            Service::Reciprocity(s) => s,
            Service::Collusion(_) => panic!("{id} is not a reciprocity service"),
        }
    }

    /// The collusion service engine for an id.
    ///
    /// # Panics
    /// Panics for reciprocity services.
    pub fn collusion(&self, id: ServiceId) -> &CollusionService {
        match &self.services[id.index()] {
            Service::Collusion(s) => s,
            Service::Reciprocity(_) => panic!("{id} is not a collusion service"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_registers_expected_honeypot_counts() {
        let study = Study::new(Scenario::smoke(11));
        // Offered types: Instalex 4, Instazood 5, Boostgram 4, Hublaagram 3,
        // Followersgratis 2 → 18 types × 4 accounts.
        let total: usize = study.campaigns.iter().map(|c| c.total_accounts()).sum();
        assert_eq!(total, 18 * 4);
        // Baseline accounts exist on top.
        assert_eq!(
            study.framework.records().len(),
            total + study.scenario.baseline_accounts
        );
        assert_eq!(study.phase, Phase::Setup);
    }

    #[test]
    fn timeline_phases_are_contiguous() {
        let s = Scenario::smoke(1);
        let t = Timeline::from_scenario(&s);
        assert_eq!(t.char_start, Day(0));
        assert_eq!(t.narrow_start, Day(s.characterization_days));
        assert_eq!(t.broad_start.0, s.characterization_days + s.narrow_days);
        assert_eq!(
            t.end.0,
            s.characterization_days + s.narrow_days + s.broad_days + s.epilogue_days
        );
        let (cal_start, cal_end) = t.calibration(s.calibration_tail_days);
        assert_eq!(cal_end, t.narrow_start);
        assert_eq!(cal_end.days_since(cal_start), s.calibration_tail_days);
    }

    /// Every day of the smoke timeline through the calendar, and Figure 7's
    /// switch day read from it.
    #[test]
    fn calendar_assigns_each_smoke_day_its_phase() {
        use footsteps_intervene::CONTROL_BIN;
        let mut study = Study::new(Scenario::smoke(4));
        let t = study.timeline;
        // Smoke: 24 characterization days, 14 narrow, 14 broad, 70 epilogue.
        assert_eq!(t.narrow_start, Day(24));
        assert_eq!(t.broad_switch, Day(45));
        let mut runs: Vec<(Option<BinAssignment>, u32)> = Vec::new();
        for day in Day::range(t.char_start, t.end) {
            let bins = t.bins_on(day);
            if let Some(bins) = bins {
                let control = bins.policy_of_bin(CONTROL_BIN);
                for ty in [ActionType::Follow, ActionType::Like] {
                    assert_eq!(control.countermeasure(ty), Countermeasure::None, "{day:?}");
                }
            }
            match runs.last_mut() {
                Some((last, n)) if *last == bins => *n += 1,
                _ => runs.push((bins, 1)),
            }
        }
        let narrow = BinAssignment::narrow();
        assert_eq!(narrow.bins_with(BinPolicy::Block).len(), 1);
        assert_eq!(narrow.bins_with(BinPolicy::Delay).len(), 1);
        assert_eq!(narrow.bins_with(BinPolicy::Untreated).len(), 7);
        let broad = |treatment| Some(BinAssignment::broad(treatment));
        assert_eq!(
            runs,
            vec![
                (None, 24),
                (Some(narrow), 14),
                (broad(BinPolicy::Delay), 7),
                (broad(BinPolicy::Block), 7),
                (broad(BinPolicy::Epilogue), 70),
            ]
        );
        study.run_characterization();
        study.run_narrow();
        study.run_broad();
        assert_eq!(crate::results::figure7(&study).switch_day, t.broad_switch);
    }

    #[test]
    #[should_panic(expected = "phases must run in order")]
    fn phases_enforce_order() {
        let mut study = Study::new(Scenario::smoke(2));
        study.run_characterization();
        study.run_characterization();
    }

    #[test]
    fn franchises_share_fingerprint_and_network() {
        let study = Study::new(Scenario::smoke(3));
        let like_asn = |id| study.reciprocity(id).current_asn(ActionType::Like);
        assert_eq!(
            like_asn(ServiceId::Instalex),
            like_asn(ServiceId::Instazood)
        );
    }
}
