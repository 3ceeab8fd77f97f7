//! Typed results for every table and figure, computed from a [`Study`].
//!
//! Each function takes the study at the phase it needs (asserted) and
//! returns a serde-serialisable value the experiment binaries render.

use crate::study::{Phase, Study};
use footsteps_aas::ledger::PaymentKind;
use footsteps_analysis as analysis;
use footsteps_analysis::{
    ActionMixRow, CountryDistribution, CustomerBaseRow, HublaagramRevenue, NewVsPreexisting,
    ReciprocityRevenueRow, StabilityReport, TargetingFigures,
};
use footsteps_honeypot::reciprocation::{measure, Table5Row};
use footsteps_intervene::{
    eligible_proportion, median_actions_per_user, BinPolicy, DailySeries,
};
use footsteps_sim::enforcement::Direction;
use footsteps_sim::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Table 5: the measured reciprocation matrix.
pub fn table5(study: &Study) -> Vec<Table5Row> {
    assert!(study.phase >= Phase::Characterized);
    measure(
        &study.framework,
        &study.platform,
        &ServiceId::RECIPROCITY,
        study.timeline.char_start,
        study.timeline.narrow_start,
    )
}

/// The classification with the study's own honeypot accounts removed — the
/// customer-base, geography and revenue analyses describe the services'
/// *real* clientele. (At the paper's scale 150 honeypots among a million
/// customers vanish; at 1/50 they would visibly skew the smaller services.)
pub fn business_classification(study: &Study) -> footsteps_detect::Classification {
    let own: IdSet<AccountId> = study
        .framework
        .records()
        .iter()
        .map(|r| r.account)
        .collect();
    study.pipeline().classification.without_accounts(&own)
}

/// Table 6: customer bases and long/short-term splits.
pub fn table6(study: &Study) -> Vec<CustomerBaseRow> {
    assert!(study.phase >= Phase::Characterized);
    let class = business_classification(study);
    ServiceGroup::BUSINESS
        .iter()
        .map(|&g| analysis::customer_base(&class, g))
        .collect()
}

/// Table 7: operating country vs observed ASN countries.
pub fn table7(study: &Study) -> Vec<analysis::ServiceLocationRow> {
    assert!(study.phase >= Phase::Characterized);
    ServiceGroup::BUSINESS
        .iter()
        .map(|&g| analysis::service_location(&study.platform, &study.pipeline().signatures, g))
        .collect()
}

/// The revenue month: the last 30 days of the characterization window
/// (clamped for compressed test scenarios).
pub fn revenue_month(study: &Study) -> (Day, Day) {
    let end = study.timeline.narrow_start;
    let days = 30.min(study.scenario.characterization_days);
    (Day(end.0 - days), end)
}

/// Table 8 with ground truth: estimated revenue rows plus the ledger's
/// actual take over the same window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table8 {
    /// Estimated rows: Boostgram, Insta* (Low), Insta* (High).
    pub rows: Vec<ReciprocityRevenueRow>,
    /// Ground truth from the ledgers: (Boostgram cents, Insta* cents).
    pub truth_cents: (u64, u64),
}

/// Table 8: reciprocity-service revenue estimates.
pub fn table8(study: &Study) -> Table8 {
    assert!(study.phase >= Phase::Characterized);
    let (start, end) = revenue_month(study);
    let class = business_classification(study);
    let rows = vec![
        analysis::reciprocity_revenue(&class, ServiceGroup::Boostgram, ServiceId::Boostgram, start, end),
        analysis::reciprocity_revenue(&class, ServiceGroup::InstaStar, ServiceId::Instazood, start, end),
        analysis::reciprocity_revenue(&class, ServiceGroup::InstaStar, ServiceId::Instalex, start, end),
    ];
    let truth_boost = study.ledger.gross_in(ServiceId::Boostgram, start, end);
    let truth_insta = study.ledger.gross_in(ServiceId::Instalex, start, end)
        + study.ledger.gross_in(ServiceId::Instazood, start, end);
    Table8 { rows, truth_cents: (truth_boost, truth_insta) }
}

/// Table 9 with ground truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table9 {
    /// The activity-based estimate.
    pub estimate: HublaagramRevenue,
    /// Ledger truth over the same window, by payment kind, cents:
    /// (no-outbound, monthly, one-time, ads).
    pub truth_cents: (u64, u64, u64, u64),
}

/// Table 9: the Hublaagram revenue accounting.
pub fn table9(study: &Study) -> Table9 {
    assert!(study.phase >= Phase::Characterized);
    let (start, end) = revenue_month(study);
    let asns = study.group_asns(ServiceGroup::Hublaagram);
    let class = business_classification(study);
    let estimate = analysis::hublaagram_revenue_windows(
        &study.platform,
        &class,
        &asns,
        start,
        end,
        study.timeline.char_start,
        study.timeline.narrow_start,
    );
    let s = ServiceId::Hublaagram;
    let truth = (
        study.ledger.gross_kind_in(s, PaymentKind::NoOutbound, start, end),
        study.ledger.gross_kind_in(s, PaymentKind::MonthlyLikes, start, end),
        study.ledger.gross_kind_in(s, PaymentKind::OneTimeLikes, start, end),
        study.ledger.gross_kind_in(s, PaymentKind::Ads, start, end),
    );
    Table9 { estimate, truth_cents: truth }
}

/// Table 10 with ground truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table10Row {
    /// Business group.
    pub group: ServiceGroup,
    /// Activity-based estimate.
    pub estimate: NewVsPreexisting,
    /// Ledger truth (new share, preexisting share).
    pub truth: (f64, f64),
}

/// Table 10: new vs preexisting payer revenue split.
pub fn table10(study: &Study) -> Vec<Table10Row> {
    assert!(study.phase >= Phase::Characterized);
    let (start, end) = revenue_month(study);
    let class = business_classification(study);
    ServiceGroup::BUSINESS
        .iter()
        .map(|&group| {
            let estimate = analysis::new_vs_preexisting(&class, group, start, end);
            let mut new = 0u64;
            let mut pre = 0u64;
            for &s in group.members() {
                let (n, p) = study.ledger.new_vs_preexisting(s, start, end);
                new += n;
                pre += p;
            }
            let total = (new + pre).max(1) as f64;
            Table10Row {
                group,
                estimate,
                truth: (new as f64 / total, pre as f64 / total),
            }
        })
        .collect()
}

/// Table 11: action mixes.
pub fn table11(study: &Study) -> Vec<ActionMixRow> {
    assert!(study.phase >= Phase::Characterized);
    ServiceGroup::BUSINESS
        .iter()
        .map(|&g| {
            analysis::action_mix(
                &study.platform,
                &study.pipeline().signatures,
                g,
                study.timeline.char_start,
                study.timeline.narrow_start,
            )
        })
        .collect()
}

/// Figure 2: customer country distributions (≥5% buckets).
pub fn figure2(study: &Study) -> Vec<CountryDistribution> {
    assert!(study.phase >= Phase::Characterized);
    let class = business_classification(study);
    ServiceGroup::BUSINESS
        .iter()
        .map(|&g| analysis::customer_countries(&study.platform, &class, g, 0.05))
        .collect()
}

/// Figures 3/4: target-degree CDFs for the reciprocity groups vs baseline.
pub fn figures34(study: &Study) -> TargetingFigures {
    assert!(study.phase >= Phase::Characterized);
    let mut rng = RngFactory::new(study.scenario.seed).stream("analysis.targeting");
    let n = 1_000;
    let targets = |id| study.reciprocity(id).pool().members();
    let boost = analysis::sample_targets(targets(ServiceId::Boostgram), n, &mut rng);
    let insta = analysis::sample_targets(targets(ServiceId::Instalex), n, &mut rng);
    let base = analysis::sample_baseline(&study.population, n, &mut rng);
    TargetingFigures {
        services: vec![
            analysis::DegreeSample::from_accounts("Boostgram targets", &study.platform.accounts, &boost),
            analysis::DegreeSample::from_accounts("Insta* targets", &study.platform.accounts, &insta),
        ],
        baseline: analysis::DegreeSample::from_accounts("All Instagram", &study.platform.accounts, &base),
    }
}

/// Customers of a group active in a specific window, identified by running
/// the signature classifier over that window. The paper's pipeline
/// attributed customers *continuously*; the intervention figures must
/// include accounts that enrolled after the characterization window closed.
fn customers_in_window(
    study: &Study,
    group: ServiceGroup,
    start: Day,
    end: Day,
) -> BTreeSet<AccountId> {
    let windowed = footsteps_detect::classify(
        &study.platform,
        &study.pipeline().signatures,
        start,
        end,
    );
    windowed.customers_of_group(group)
}

/// Figure 5 data: per-bin median follows/user/day for Boostgram over the
/// narrow window, plus the threshold line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure5 {
    /// The frozen follow threshold on Boostgram's ASN.
    pub threshold: u32,
    /// Median series for the blocked bin.
    pub block: DailySeries,
    /// Median series for the delay bin.
    pub delay: DailySeries,
    /// Median series for the control bin.
    pub control: DailySeries,
}

/// Figure 5: Boostgram follows under the narrow intervention.
pub fn figure5(study: &Study) -> Figure5 {
    assert!(study.phase >= Phase::NarrowDone);
    let asns = study.group_asns(ServiceGroup::Boostgram);
    let threshold = asns
        .iter()
        .filter_map(|&a| {
            study
                .pipeline()
                .thresholds
                .get(a, ActionType::Follow, Direction::Outbound)
        })
        .max()
        .expect("Boostgram follow threshold");
    let customers = customers_in_window(
        study,
        ServiceGroup::Boostgram,
        study.timeline.narrow_start,
        study.timeline.broad_start,
    );
    let bins = study
        .timeline
        .bins_on(study.timeline.narrow_start)
        .expect("the calendar assigns the narrow bins");
    let series = |policy| {
        median_actions_per_user(
            &study.platform,
            &customers,
            &bins,
            policy,
            &asns,
            ActionType::Follow,
            Direction::Outbound,
            study.timeline.narrow_start,
            study.timeline.broad_start,
        )
    };
    Figure5 {
        threshold,
        block: series(BinPolicy::Block),
        delay: series(BinPolicy::Delay),
        control: series(BinPolicy::Control),
    }
}

/// Figure 6 data: daily share of Hublaagram likes eligible for a
/// countermeasure, in the treated (block) bin, over the narrow window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure6 {
    /// The inbound like threshold used.
    pub threshold: u32,
    /// Eligible proportion, blocked bin.
    pub block: DailySeries,
    /// Eligible proportion, control bin (no reaction expected).
    pub control: DailySeries,
}

/// Figure 6: Hublaagram's like-eligibility collapse after ~3 weeks.
pub fn figure6(study: &Study) -> Figure6 {
    assert!(study.phase >= Phase::NarrowDone);
    let asns = study.group_asns(ServiceGroup::Hublaagram);
    let threshold = asns
        .iter()
        .filter_map(|&a| {
            study
                .pipeline()
                .thresholds
                .get(a, ActionType::Like, Direction::Inbound)
        })
        .max()
        .expect("Hublaagram like threshold");
    let customers = customers_in_window(
        study,
        ServiceGroup::Hublaagram,
        study.timeline.narrow_start,
        study.timeline.broad_start,
    );
    let bins = study
        .timeline
        .bins_on(study.timeline.narrow_start)
        .expect("the calendar assigns the narrow bins");
    let series = |policies: &[BinPolicy]| {
        eligible_proportion(
            &study.platform,
            &customers,
            &bins,
            policies,
            &asns,
            ActionType::Like,
            Direction::Inbound,
            threshold,
            study.timeline.narrow_start,
            study.timeline.broad_start,
        )
    };
    Figure6 {
        threshold,
        block: series(&[BinPolicy::Block]),
        control: series(&[BinPolicy::Control]),
    }
}

/// Figure 7 data: Boostgram follow eligibility through the broad experiment
/// (delay week then block week).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure7 {
    /// The outbound follow threshold used.
    pub threshold: u32,
    /// Day the countermeasure switched from delay to block.
    pub switch_day: Day,
    /// Eligible proportion among the treated 90%.
    pub treated: DailySeries,
    /// Eligible proportion in the 10% control bin.
    pub control: DailySeries,
}

/// Figure 7: broad intervention on Boostgram follows.
pub fn figure7(study: &Study) -> Figure7 {
    assert!(study.phase >= Phase::BroadDone);
    let asns = study.group_asns(ServiceGroup::Boostgram);
    let threshold = asns
        .iter()
        .filter_map(|&a| {
            study
                .pipeline()
                .thresholds
                .get(a, ActionType::Follow, Direction::Outbound)
        })
        .max()
        .expect("Boostgram follow threshold");
    let customers = customers_in_window(
        study,
        ServiceGroup::Boostgram,
        study.timeline.broad_start,
        study.timeline.epilogue_start,
    );
    // Week-1 assignment identifies treated accounts (the set is identical in
    // week 2; only the countermeasure changes).
    let bins = study
        .timeline
        .bins_on(study.timeline.broad_start)
        .expect("the calendar assigns the broad bins");
    let series = |policies: &[BinPolicy]| {
        eligible_proportion(
            &study.platform,
            &customers,
            &bins,
            policies,
            &asns,
            ActionType::Follow,
            Direction::Outbound,
            threshold,
            study.timeline.broad_start,
            study.timeline.epilogue_start,
        )
    };
    Figure7 {
        threshold,
        switch_day: study.timeline.broad_switch,
        treated: series(&[BinPolicy::Delay, BinPolicy::Block]),
        control: series(&[BinPolicy::Control]),
    }
}

/// §5.1 prose numbers: stability, conversion, overlap, long-term action
/// shares.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Section51 {
    /// Per-group long-term stability dynamics.
    pub stability: Vec<StabilityReport>,
    /// Per-group first-month conversion rate.
    pub conversion: Vec<(ServiceGroup, f64)>,
    /// Per-group share of actions from long-term customers.
    pub long_term_action_share: Vec<(ServiceGroup, f64)>,
    /// Cross-group customer overlaps.
    pub overlaps: Vec<(ServiceGroup, ServiceGroup, usize)>,
}

/// §5.1: user-stability analysis.
pub fn section51(study: &Study) -> Section51 {
    assert!(study.phase >= Phase::Characterized);
    let class = business_classification(study);
    let class = &class;
    let (start, end) = (study.timeline.char_start, study.timeline.narrow_start);
    let stability = ServiceGroup::BUSINESS
        .iter()
        .map(|&g| analysis::stability(class, g, start, end))
        .collect();
    // The conversion cohort starts on day 1: day-0 first-activity is the
    // pre-existing stock, not new users.
    let cohort_start = start.plus(1);
    let cohort_end = Day((cohort_start.0 + 30).min(end.0));
    let conversion = ServiceGroup::BUSINESS
        .iter()
        .map(|&g| (g, analysis::conversion_rate(class, g, cohort_start, cohort_end)))
        .collect();
    let long_term_action_share = ServiceGroup::BUSINESS
        .iter()
        .map(|&g| {
            let asns = study.group_asns(g);
            (
                g,
                analysis::long_term_action_share(&study.platform, class, g, &asns, start, end),
            )
        })
        .collect();
    let overlaps = vec![
        (
            ServiceGroup::InstaStar,
            ServiceGroup::Boostgram,
            analysis::overlap(class, ServiceGroup::InstaStar, ServiceGroup::Boostgram),
        ),
        (
            ServiceGroup::InstaStar,
            ServiceGroup::Hublaagram,
            analysis::overlap(class, ServiceGroup::InstaStar, ServiceGroup::Hublaagram),
        ),
        (
            ServiceGroup::Boostgram,
            ServiceGroup::Hublaagram,
            analysis::overlap(class, ServiceGroup::Boostgram, ServiceGroup::Hublaagram),
        ),
    ];
    Section51 { stability, conversion, long_term_action_share, overlaps }
}

/// Epilogue report (§6.4): who migrated, who folded, who drifted home.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpilogueReport {
    /// ASN migrations per reciprocity service.
    pub reciprocity_migrations: Vec<(ServiceId, u32)>,
    /// Whether Insta* ended with its like traffic on a proxy network.
    pub insta_likes_on_proxy: bool,
    /// Whether Insta* ended with its follow traffic back on the primary ASN.
    pub insta_follows_back_home: bool,
    /// Hublaagram's migration count.
    pub hublaagram_migrations: u32,
    /// The day Hublaagram stopped selling, if it did.
    pub hublaagram_out_of_stock_on: Option<Day>,
}

/// Epilogue: the end-state of the arms race.
pub fn epilogue(study: &Study) -> EpilogueReport {
    assert!(study.phase >= Phase::Finished);
    let instalex = study.reciprocity(ServiceId::Instalex);
    let hublaagram = study.collusion(ServiceId::Hublaagram);
    EpilogueReport {
        reciprocity_migrations: ServiceId::RECIPROCITY
            .into_iter()
            .map(|id| (id, study.reciprocity(id).migrations()))
            .collect(),
        insta_likes_on_proxy: study
            .layout
            .insta_proxies
            .contains(&instalex.current_asn(ActionType::Like)),
        insta_follows_back_home: instalex.current_asn(ActionType::Follow)
            == study.layout.insta_primary,
        hublaagram_migrations: hublaagram.migrations(),
        hublaagram_out_of_stock_on: hublaagram.out_of_stock_on(),
    }
}

/// Canonical per-service classification summary: customer lists sorted by
/// account id, services in declaration order. Unlike the raw
/// [`footsteps_detect::Classification`] (hash maps, iteration order
/// unspecified), this serializes byte-identically for identical results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassificationSummary {
    /// The classified service.
    pub service: ServiceId,
    /// Attributed customer accounts, ascending.
    pub customers: Vec<AccountId>,
}

/// The serializable aggregate of a characterized study's headline results.
///
/// This is the reproducibility artifact of the daily engine (DESIGN.md
/// §4): for a given scenario seed, [`StudyResults::to_json`] is
/// byte-identical on every run, which the determinism suite asserts with
/// a recorded digest. Every collection inside is either naturally ordered
/// (vectors built in fixed service/row order) or explicitly sorted here —
/// no hash-iteration order escapes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StudyResults {
    /// Scenario seed the study ran with.
    pub seed: u64,
    /// Table 5: reciprocation matrix.
    pub table5: Vec<Table5Row>,
    /// Table 6: customer bases.
    pub table6: Vec<CustomerBaseRow>,
    /// Table 7: service locations.
    pub table7: Vec<analysis::ServiceLocationRow>,
    /// Table 8: reciprocity revenue with ground truth.
    pub table8: Table8,
    /// Table 9: Hublaagram revenue with ground truth.
    pub table9: Table9,
    /// Table 10: intervention eligibility.
    pub table10: Vec<Table10Row>,
    /// Table 11: action mix per group.
    pub table11: Vec<ActionMixRow>,
    /// Figure 2: customer geography.
    pub figure2: Vec<CountryDistribution>,
    /// Figures 3/4: targeting bias.
    pub figures34: TargetingFigures,
    /// Per-service attributed customers, canonically sorted.
    pub classification: Vec<ClassificationSummary>,
    /// Deterministic metrics snapshot from the study's obs registry.
    /// `#[serde(skip)]`: the snapshot has its own serialization
    /// ([`footsteps_obs::MetricsSnapshot::to_json`]) and is deliberately
    /// excluded from `to_json()`/`digest()` so the golden digest predates
    /// and outlives the obs layer.
    #[serde(skip)]
    pub metrics: Option<footsteps_obs::MetricsSnapshot>,
}

/// The canonical classification summary of a study (sorted customer lists,
/// services in declaration order).
fn classification_summaries(study: &Study) -> Vec<ClassificationSummary> {
    let class = business_classification(study);
    ServiceId::ALL
        .iter()
        .map(|&service| {
            let mut customers: Vec<AccountId> = class.customers_of(service).collect();
            customers.sort_unstable();
            ClassificationSummary { service, customers }
        })
        .collect()
}

impl StudyResults {
    /// Collect every characterization-phase artifact from `study`, one
    /// builder after another, in field order.
    pub fn collect(study: &Study) -> Self {
        assert!(study.phase >= Phase::Characterized);
        Self {
            seed: study.scenario.seed,
            table5: table5(study),
            table6: table6(study),
            table7: table7(study),
            table8: table8(study),
            table9: table9(study),
            table10: table10(study),
            table11: table11(study),
            figure2: figure2(study),
            figures34: figures34(study),
            classification: classification_summaries(study),
            metrics: Some(study.platform.obs.metrics.snapshot()),
        }
    }

    /// Serialize to pretty JSON. Byte-identical across runs for the same
    /// scenario.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("StudyResults serializes")
    }

    /// Stable FNV-1a digest of the JSON bytes — the recorded golden value
    /// the determinism suite checks. Not a cryptographic hash; it only has
    /// to be stable across platforms and sensitive to any byte change.
    pub fn digest(&self) -> u64 {
        footsteps_obs::tree::fnv1a(self.to_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "study.phase >= Phase::Characterized")]
    fn results_require_their_phase() {
        let study = Study::new(crate::scenario::Scenario::smoke(5));
        // Not characterized yet: accessors panic rather than mislead.
        let _ = table6(&study);
    }

    #[test]
    fn revenue_month_clamps_to_short_scenarios() {
        let study = Study::new(crate::scenario::Scenario::smoke(6));
        let (start, end) = revenue_month(&study);
        assert_eq!(end, study.timeline.narrow_start);
        assert!(end.days_since(start) <= 30);
        assert!(end.days_since(start) > 0);
    }
}
