//! Render functions: one per table/figure, producing the text that the
//! experiment binaries print and that EXPERIMENTS.md embeds.

use footsteps_aas::catalog::{
    self, fmt_dollars, followersgratis_catalog, hublaagram_catalog, offerings,
    reciprocity_pricing,
};
use footsteps_analysis::{pct, thousands, Table};
use footsteps_core::{paper, results, Study};
use footsteps_intervene::DailySeries;
use footsteps_sim::prelude::*;

/// Table 1: the offerings matrix (static catalog).
pub fn table01() -> String {
    let mut t = Table::new(
        "Table 1 — services offered to customers",
        &["Service", "Type", "Like", "Follow", "Comment", "Post", "Unfollow"],
    );
    for s in ServiceId::ALL {
        let o = offerings(s);
        let mark = |b: bool| if b { "*" } else { "" }.to_string();
        t.row(&[
            s.name().to_string(),
            if s.is_reciprocity() { "reciprocity" } else { "collusion" }.to_string(),
            mark(o.like),
            mark(o.follow),
            mark(o.comment),
            mark(o.post),
            mark(o.unfollow),
        ]);
    }
    t.render()
}

/// Table 2: reciprocity trial/pricing, with the honeypot-measured trial
/// length next to the advertised one when a study is supplied.
pub fn table02(study: Option<&Study>) -> String {
    let mut t = Table::new(
        "Table 2 — reciprocity AAS trials and pricing",
        &["Service", "Advertised trial", "Measured trial", "Min paid", "Cost"],
    );
    for s in ServiceId::RECIPROCITY {
        let p = reciprocity_pricing(s);
        let measured = study
            .and_then(|st| {
                footsteps_honeypot::observed_trial_days(
                    &st.framework,
                    &st.platform,
                    s,
                    st.timeline.narrow_start,
                )
            })
            .map(|d| format!("{d} days"))
            .unwrap_or_else(|| "-".to_string());
        t.row(&[
            s.name().to_string(),
            format!("{} days", p.advertised_trial_days),
            measured,
            format!("{} days", p.min_paid_days),
            fmt_dollars(p.min_paid_cents),
        ]);
    }
    t.render()
}

/// Table 3: Hublaagram's price list (static catalog).
pub fn table03() -> String {
    let c = hublaagram_catalog();
    let mut t = Table::new(
        "Table 3 — Hublaagram per-account costs",
        &["Description", "Cost", "Duration"],
    );
    t.row(&[
        "No collusion network".to_string(),
        fmt_dollars(c.no_outbound_cents),
        "Life".to_string(),
    ]);
    for p in &c.one_time {
        t.row(&[
            format!("{} likes", thousands(u64::from(p.likes))),
            fmt_dollars(p.cents),
            "Immediate".to_string(),
        ]);
    }
    for m in &c.monthly {
        t.row(&[
            format!("{}-{} likes", thousands(u64::from(m.min_likes)), thousands(u64::from(m.max_likes))),
            fmt_dollars(m.monthly_cents),
            "Month".to_string(),
        ]);
    }
    t.render()
}

/// Table 4: Followersgratis packages (static catalog).
pub fn table04() -> String {
    let mut t = Table::new(
        "Table 4 — Followersgratis payment options",
        &["Description", "Cost", "Duration"],
    );
    for p in followersgratis_catalog() {
        t.row(&[p.description.clone(), fmt_dollars(p.cents), p.duration.clone()]);
    }
    t.render()
}

/// Table 5: reciprocation probabilities, paper vs measured.
pub fn table05(study: &Study) -> String {
    let rows = results::table5(study);
    let mut t = Table::new(
        "Table 5 — P(inbound reciprocation | outbound action)  [paper / measured]",
        &["Service", "Profile", "Outbound", "Likes", "Follows"],
    );
    for &(service, lived_in, outbound_likes, p_like, p_follow) in &paper::TABLE5 {
        let outbound = if outbound_likes { ActionType::Like } else { ActionType::Follow };
        let measured = footsteps_honeypot::find_row(&rows, service, outbound, lived_in);
        let fmt_cell = |paper_pct: f64, measured: Option<f64>| match measured {
            Some(m) => format!("{paper_pct:.1}% / {:.1}%", 100.0 * m),
            None => format!("{paper_pct:.1}% / -"),
        };
        t.row(&[
            service.name().to_string(),
            if lived_in { "lived-in" } else { "empty" }.to_string(),
            outbound.name().to_string(),
            fmt_cell(p_like, measured.map(|r| r.cell.like_rate())),
            fmt_cell(p_follow, measured.map(|r| r.cell.follow_rate())),
        ]);
    }
    t.render()
}

/// Table 6: customer bases, paper vs measured (with the scale factor applied
/// to the paper's counts for comparability).
pub fn table06(study: &Study) -> String {
    let scale = study.scenario.scale;
    let mut t = Table::new(
        format!(
            "Table 6 — customers over the {}-day window  [paper x{scale} / measured]",
            study.scenario.characterization_days
        ),
        &["Group", "Customers", "Long-term", "LT share (paper/measured)"],
    );
    for row in results::table6(study) {
        let p = paper::TABLE6.iter().find(|(g, _, _)| *g == row.group);
        let (pc, plt) = p.map(|(_, c, lt)| (*c, *lt)).unwrap_or((0, 0));
        t.row(&[
            row.group.to_string(),
            format!("{} / {}", thousands((pc as f64 * scale) as u64), thousands(row.customers)),
            format!("{} / {}", thousands((plt as f64 * scale) as u64), thousands(row.long_term)),
            format!(
                "{} / {}",
                pct(plt as f64 / pc.max(1) as f64),
                pct(row.long_term_share())
            ),
        ]);
    }
    t.render()
}

/// Table 7: operating vs observed locations.
pub fn table07(study: &Study) -> String {
    let mut t = Table::new(
        "Table 7 — service operating country and observed ASN locations",
        &["Group", "Operating country", "ASN locations (observed)"],
    );
    for row in results::table7(study) {
        let asn_list: Vec<&str> = row.asn_countries.iter().map(|c| c.code()).collect();
        t.row(&[
            row.group.to_string(),
            row.operating_country.name().to_string(),
            asn_list.join(", "),
        ]);
    }
    t.render()
}

/// Table 8: reciprocity revenue, estimate vs ledger truth vs scaled paper.
pub fn table08(study: &Study) -> String {
    let t8 = results::table8(study);
    let scale = study.scenario.scale;
    let mut t = Table::new(
        "Table 8 — estimated monthly gross revenue (reciprocity AASs)",
        &["Pricing", "Paid accounts (paper-scaled/measured)", "Revenue (paper-scaled/measured)"],
    );
    let labels = ["Boostgram", "Insta* (Low)", "Insta* (High)"];
    for (i, row) in t8.rows.iter().enumerate() {
        let (_, p_accounts, p_cents) = paper::TABLE8[i];
        t.row(&[
            labels[i].to_string(),
            format!(
                "{} / {}",
                thousands((p_accounts as f64 * scale) as u64),
                thousands(row.paid_accounts)
            ),
            format!(
                "{} / {}",
                fmt_dollars((p_cents as f64 * scale) as u64),
                fmt_dollars(row.revenue_cents)
            ),
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "ground truth (ledgers): Boostgram {}, Insta* {}\n",
        fmt_dollars(t8.truth_cents.0),
        fmt_dollars(t8.truth_cents.1)
    ));
    out
}

/// Table 9: the Hublaagram accounting, estimate vs truth vs scaled paper.
pub fn table09(study: &Study) -> String {
    let t9 = results::table9(study);
    let scale = study.scenario.scale;
    let e = &t9.estimate;
    let mut t = Table::new(
        "Table 9 — Hublaagram gross revenue accounting",
        &["Line", "Accounts (paper-scaled/measured)", "Revenue (paper-scaled/measured)"],
    );
    let s = |v: u64| thousands((v as f64 * scale) as u64);
    let d = |v: u64| fmt_dollars((v as f64 * scale) as u64);
    t.row(&[
        "No outbound (one-time)".to_string(),
        format!("{} / {}", s(paper::TABLE9_NO_OUTBOUND.0), thousands(e.no_outbound_accounts)),
        format!("{} / {}", d(paper::TABLE9_NO_OUTBOUND.1), fmt_dollars(e.no_outbound_cents)),
    ]);
    for (i, tier) in hublaagram_catalog().monthly.iter().enumerate() {
        let (p_accounts, p_cents) = paper::TABLE9_MONTHLY_TIERS[i];
        t.row(&[
            format!("{}-{} likes/photo", tier.min_likes, tier.max_likes),
            format!("{} / {}", s(p_accounts), thousands(e.monthly_tier_accounts[i])),
            format!("{} / {}", d(p_cents), fmt_dollars(e.monthly_tier_cents[i])),
        ]);
    }
    t.row(&[
        "2,000 likes once".to_string(),
        format!("{} / {}", s(paper::TABLE9_ONE_TIME.0), thousands(e.one_time_accounts)),
        format!("{} / {}", d(paper::TABLE9_ONE_TIME.1), fmt_dollars(e.one_time_cents)),
    ]);
    t.row(&[
        "Ads shown (low-high CPM)".to_string(),
        format!("{} / {}", s(paper::TABLE9_ADS.0), thousands(e.ad_impressions)),
        format!(
            "{}-{} / {}-{}",
            d(paper::TABLE9_ADS.1),
            d(paper::TABLE9_ADS.2),
            fmt_dollars(e.ads_low_cents),
            fmt_dollars(e.ads_high_cents)
        ),
    ]);
    let mut out = t.render();
    out.push_str(&format!(
        "monthly total: paper-scaled {}-{} / measured {}-{}\n",
        d(paper::TABLE9_TOTAL_RANGE.0),
        d(paper::TABLE9_TOTAL_RANGE.1),
        fmt_dollars(e.monthly_total_low()),
        fmt_dollars(e.monthly_total_high())
    ));
    out.push_str(&format!(
        "ground truth (ledger, month): no-outbound {}, monthly {}, one-time {}, ads {}\n",
        fmt_dollars(t9.truth_cents.0),
        fmt_dollars(t9.truth_cents.1),
        fmt_dollars(t9.truth_cents.2),
        fmt_dollars(t9.truth_cents.3)
    ));
    out
}

/// Table 10: new vs preexisting payer revenue shares.
pub fn table10(study: &Study) -> String {
    let mut t = Table::new(
        "Table 10 — revenue share: new vs preexisting payers  [paper / estimated / ledger]",
        &["Group", "New", "Preexisting"],
    );
    for row in results::table10(study) {
        let p = paper::TABLE10.iter().find(|(g, _, _)| *g == row.group);
        let (pn, pp) = p.map(|(_, n, p)| (*n, *p)).unwrap_or((0.0, 0.0));
        t.row(&[
            row.group.to_string(),
            format!("{} / {} / {}", pct(pn), pct(row.estimate.new_share), pct(row.truth.0)),
            format!(
                "{} / {} / {}",
                pct(pp),
                pct(row.estimate.preexisting_share),
                pct(row.truth.1)
            ),
        ]);
    }
    t.render()
}

/// Table 11: action mixes.
pub fn table11(study: &Study) -> String {
    let mut t = Table::new(
        "Table 11 — action types performed per service  [paper / measured]",
        &["Group", "Likes", "Follows", "Comments", "Unfollows"],
    );
    for row in results::table11(study) {
        let p = paper::TABLE11.iter().find(|(g, ..)| *g == row.group);
        let (pl, pf, pc, pu) = p.map(|(_, a, b, c, d)| (*a, *b, *c, *d)).unwrap_or_default();
        let cell = |paper_v: f64, measured: f64| format!("{} / {}", pct(paper_v), pct(measured));
        t.row(&[
            row.group.to_string(),
            cell(pl, row.share_of(ActionType::Like)),
            cell(pf, row.share_of(ActionType::Follow)),
            cell(pc, row.share_of(ActionType::Comment)),
            cell(pu, row.share_of(ActionType::Unfollow)),
        ]);
    }
    t.render()
}

/// Figure 2: customer country distributions.
pub fn figure02(study: &Study) -> String {
    let mut out = String::from("Figure 2 — customer account locations by country (>=5% shown)\n");
    for d in results::figure2(study) {
        let shares: Vec<String> = d
            .shares
            .iter()
            .filter(|(_, s)| *s > 0.0005)
            .map(|(c, s)| format!("{}={}", c.code(), pct(*s)))
            .collect();
        out.push_str(&format!("  {:<11} {}\n", d.group.to_string(), shares.join("  ")));
    }
    out.push_str(
        "  paper:      Insta* RU-led with dominant OTHER; Boostgram US-led; Hublaagram ID-led\n",
    );
    out
}

/// Figures 3 and 4: degree CDFs (medians plus a CDF series sample).
pub fn figures0304(study: &Study) -> String {
    let f = results::figures34(study);
    let mut t = Table::new(
        "Figures 3/4 — target degrees  [paper median / measured median]",
        &["Sample", "Following (fig 3)", "Followers (fig 4)"],
    );
    for s in f.services.iter().chain(std::iter::once(&f.baseline)) {
        let p = paper::FIGURE34_MEDIANS
            .iter()
            .find(|(label, _, _)| *label == s.label)
            .map(|(_, o, i)| (*o, *i))
            .unwrap_or((0.0, 0.0));
        t.row(&[
            s.label.clone(),
            format!("{:.0} / {}", p.0, s.median_following()),
            format!("{:.0} / {}", p.1, s.median_followers()),
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!("bias holds (services follow-more/followed-less than baseline): {}\n", f.bias_holds()));
    // Compact CDF series for the figures themselves.
    out.push_str("\nfig3 CDF P(following <= x):\n");
    let grid = f.baseline.following.log_grid(2);
    for s in f.services.iter().chain(std::iter::once(&f.baseline)) {
        let series: Vec<String> = s
            .following
            .series(&grid)
            .into_iter()
            .map(|(x, p)| format!("{x}:{p:.2}"))
            .collect();
        out.push_str(&format!("  {:<18} {}\n", s.label, series.join(" ")));
    }
    out.push_str("\nfig4 CDF P(followers <= x):\n");
    let grid = f.baseline.followers.log_grid(2);
    for s in f.services.iter().chain(std::iter::once(&f.baseline)) {
        let series: Vec<String> = s
            .followers
            .series(&grid)
            .into_iter()
            .map(|(x, p)| format!("{x}:{p:.2}"))
            .collect();
        out.push_str(&format!("  {:<18} {}\n", s.label, series.join(" ")));
    }
    out
}

/// Render a daily series as a sparkline-ish row of values.
fn series_row(label: &str, s: &DailySeries, every: usize) -> String {
    let values: Vec<String> = s
        .values
        .iter()
        .step_by(every.max(1))
        .map(|v| format!("{v:>5.1}"))
        .collect();
    format!("  {label:<9} {}\n", values.join(" "))
}

/// Figure 5: Boostgram follows under the narrow intervention.
pub fn figure05(study: &Study) -> String {
    let f = results::figure5(study);
    let mut out = format!(
        "Figure 5 — median follows per Boostgram user per day (narrow intervention)\n  threshold {}\n",
        f.threshold
    );
    out.push_str(&series_row("block", &f.block, 2));
    out.push_str(&series_row("delay", &f.delay, 2));
    out.push_str(&series_row("control", &f.control, 2));
    let late_start = Day(study.timeline.broad_start.0.saturating_sub(14));
    let end = study.timeline.broad_start;
    out.push_str(&format!(
        "  last-two-week means: block {:.0} (pinned at threshold), delay {:.0}, control {:.0}\n",
        f.block.mean_over(late_start, end),
        f.delay.mean_over(late_start, end),
        f.control.mean_over(late_start, end)
    ));
    out.push_str("  paper: blocked bin drops to the threshold and probes it; delay bin tracks control\n");
    out
}

/// Figure 6: Hublaagram like eligibility and the ~3-week reaction.
pub fn figure06(study: &Study) -> String {
    let f = results::figure6(study);
    let mut out = format!(
        "Figure 6 — share of Hublaagram likes eligible for countermeasure (blocked bin)\n  inbound threshold {}\n",
        f.threshold
    );
    out.push_str(&series_row("block", &f.block, 2));
    out.push_str(&series_row("control", &f.control, 2));
    let ns = study.timeline.narrow_start.0;
    let early = f.block.mean_over(Day(ns), Day(ns + 14));
    let late = f.block.mean_over(Day(ns + 28), study.timeline.broad_start);
    // First day the blocked share falls below half its early level.
    let reaction = f
        .block
        .values
        .iter()
        .position(|&v| v < early / 2.0)
        .map(|d| d as u32);
    out.push_str(&format!(
        "  blocked bin: weeks 1-2 {:.0}%, weeks 5-6 {:.0}%; control stays ~{:.0}%\n",
        100.0 * early,
        100.0 * late,
        100.0 * f.control.mean_over(Day(ns + 28), study.timeline.broad_start)
    ));
    out.push_str(&format!(
        "  reaction day (relative): {:?}  (paper: ~day {} — the service had to implement blocked-like detection)\n",
        reaction,
        paper::HUBLAAGRAM_REACTION_LAG_DAYS
    ));
    out
}

/// Figure 7: the broad intervention (delay week then block week).
pub fn figure07(study: &Study) -> String {
    let f = results::figure7(study);
    let mut out = format!(
        "Figure 7 — share of Boostgram follows eligible (broad intervention, 90% treated)\n  threshold {}, delay->block switch on day {}\n",
        f.threshold, f.switch_day.0
    );
    out.push_str(&series_row("treated", &f.treated, 1));
    out.push_str(&series_row("control", &f.control, 1));
    let bs = study.timeline.broad_start;
    let es = study.timeline.epilogue_start;
    out.push_str(&format!(
        "  treated means: delay week {:.0}%, block week {:.0}%; control {:.0}%\n",
        100.0 * f.treated.mean_over(bs, f.switch_day),
        100.0 * f.treated.mean_over(f.switch_day, es),
        100.0 * f.control.mean_over(bs, es)
    ));
    out.push_str("  paper: no reaction to the delay week; immediate adaptation once blocking starts\n");
    out
}

/// §5.1 prose numbers.
pub fn section51(study: &Study) -> String {
    let s = results::section51(study);
    let mut out = String::from("Section 5.1 — user stability  [paper / measured]\n");
    for (g, c) in &s.conversion {
        let p = paper::CONVERSION_RATE.iter().find(|(pg, _)| pg == g).map(|(_, v)| *v).unwrap_or(0.0);
        out.push_str(&format!("  {:<11} first-month LT conversion: {} / {}\n", g.to_string(), pct(p), pct(*c)));
    }
    for (g, c) in &s.long_term_action_share {
        let p = paper::LONG_TERM_ACTION_SHARE.iter().find(|(pg, _)| pg == g).map(|(_, v)| *v).unwrap_or(0.0);
        out.push_str(&format!("  {:<11} LT share of actions:       {} / {}\n", g.to_string(), pct(p), pct(*c)));
    }
    for r in &s.stability {
        out.push_str(&format!(
            "  {:<11} LT daily actives {} -> {} (growth {:+.1}%), births {:.1}/day, deaths {:.1}/day\n",
            r.group.to_string(),
            r.daily_active_long_term.first().copied().unwrap_or(0),
            r.daily_active_long_term.last().copied().unwrap_or(0),
            100.0 * r.growth,
            r.births_per_day,
            r.deaths_per_day
        ));
    }
    for (a, b, n) in &s.overlaps {
        out.push_str(&format!("  overlap {a} ∩ {b}: {n} accounts\n"));
    }
    out.push_str("  paper: overlap small; Insta* grew ~10%, others shrank slightly\n");
    out
}

/// Epilogue (§6.4).
pub fn epilogue(study: &Study) -> String {
    let e = results::epilogue(study);
    let mut out = String::from("Epilogue (§6.4) — months of continued enforcement\n");
    for (s, n) in &e.reciprocity_migrations {
        out.push_str(&format!("  {s}: {n} ASN migration(s)\n"));
    }
    out.push_str(&format!(
        "  Insta* like traffic on proxy network: {} (paper: \"an extensive proxy network\")\n",
        e.insta_likes_on_proxy
    ));
    out.push_str(&format!(
        "  Insta* follow traffic back on original ASN: {} (paper: moved follows back — delay was invisible)\n",
        e.insta_follows_back_home
    ));
    out.push_str(&format!(
        "  Hublaagram: {} migration(s), out of stock on day {:?} (paper: listed all services \"out of stock\")\n",
        e.hublaagram_migrations, e.hublaagram_out_of_stock_on.map(|d| d.0)
    ));
    out
}

/// Detection-pipeline quality (not a paper table, but the validation the
/// simulator makes possible).
pub fn detection_quality(study: &Study) -> String {
    let mut t = Table::new(
        "Detection pipeline vs ground truth (classification window)",
        &["Group", "Classified", "Precision", "Recall"],
    );
    // Restrict to accounts that existed when the classification window
    // closed; ground truth keeps accumulating during the interventions.
    let cutoff = study.timeline.narrow_start.start();
    for group in ServiceGroup::BUSINESS {
        let score = footsteps_detect::score_group_before(
            &study.platform,
            &study.pipeline().classification,
            group,
            cutoff,
        );
        t.row(&[
            group.to_string(),
            thousands((score.tp + score.fp) as u64),
            pct(score.precision()),
            pct(score.recall()),
        ]);
    }
    t.render()
}

/// Detection latency (DESIGN.md §8): how many days the online detector
/// trails the batch classifier per service, with online-vs-batch
/// precision/recall. Needs a study run with the stream attached
/// ([`crate::study_to_with_stream`]); renders a placeholder otherwise.
pub fn detection_latency(study: &Study) -> String {
    let (Some(outcome), Some(report)) = (study.stream.as_ref(), study.detection_latency()) else {
        return "Detection latency — skipped (no streaming detector attached to this study)\n"
            .to_string();
    };
    let mut t = Table::new(
        "Detection latency — online detector vs batch classifier",
        &["Service", "Matched", "Latency (mean ± std days)", "Max", "Precision", "Recall"],
    );
    for row in &report.rows {
        t.row(&[
            row.service.name().to_string(),
            thousands(row.matched),
            format!("{:.2} ± {:.2}", row.mean_days, row.std_days),
            row.max_days.to_string(),
            pct(row.score.precision()),
            pct(row.score.recall()),
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "  overall: {:.2} days mean latency (matched-weighted); online detector \
         consumed {} day-batches / {} records; verdict digest 0x{:016x}\n",
        report.overall_mean_days(),
        outcome.batches,
        outcome.events_processed,
        outcome.verdict_digest,
    ));
    out
}

/// The observability report: deterministic counters from the study's obs
/// registry (action mix by service, enforcement outcomes by phase, per-bin
/// attributions, detection tallies). Byte-identical for any worker-thread
/// count, so it can ride in EXPERIMENTS.md; the non-deterministic
/// wall-clock spans live in [`obs_timings`], which `report_all` keeps off
/// stdout.
pub fn obs(study: &Study) -> String {
    let snap = study.platform.obs.metrics.snapshot();
    let mut out = String::new();

    // --- attempted actions by service -----------------------------------
    let mut t = Table::new(
        "Obs — attempted actions by service (all phases)",
        &["Service", "Like", "Follow", "Comment", "Post", "Unfollow"],
    );
    let rows: Vec<(String, &str)> = ServiceId::ALL
        .iter()
        .map(|s| (s.name().to_string(), s.slug()))
        .chain(std::iter::once(("Organic".to_string(), "organic")))
        .collect();
    for (name, slug) in rows {
        t.row(&[
            name,
            thousands(snap.counter(&format!("actions.{slug}.like"))),
            thousands(snap.counter(&format!("actions.{slug}.follow"))),
            thousands(snap.counter(&format!("actions.{slug}.comment"))),
            thousands(snap.counter(&format!("actions.{slug}.post"))),
            thousands(snap.counter(&format!("actions.{slug}.unfollow"))),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    // --- enforcement outcomes by phase ----------------------------------
    let phase_names: Vec<String> = snap.phases.iter().map(|(n, _)| n.clone()).collect();
    let mut header: Vec<&str> = vec!["Counter"];
    header.extend(phase_names.iter().map(String::as_str));
    header.push("Total");
    let mut t = Table::new("Obs — platform outcomes by phase", &header);
    for key in [
        "platform.outbound.delivered",
        "platform.outbound.blocked",
        "platform.outbound.deferred",
        "platform.outbound.edge_blocked",
        "platform.inbound.delivered",
        "platform.inbound.blocked",
        "platform.inbound.deferred",
        "platform.removed_follows",
    ] {
        let mut cells = vec![key.to_string()];
        for (_, frame) in &snap.phases {
            cells.push(thousands(frame.counters.get(key).copied().unwrap_or(0)));
        }
        cells.push(thousands(snap.counter(key)));
        t.row(&cells);
    }
    out.push_str(&t.render());
    out.push('\n');

    // --- per-bin enforcement attribution (intervention phases) -----------
    let bin_rows: Vec<(String, u64, u64, u64)> = (0..16u32)
        .filter_map(|b| {
            let del = snap.counter(&format!("enforce.bin{b}.delivered"));
            let blk = snap.counter(&format!("enforce.bin{b}.blocked"));
            let dfr = snap.counter(&format!("enforce.bin{b}.deferred"));
            (del + blk + dfr > 0).then(|| (format!("bin {b}"), del, blk, dfr))
        })
        .collect();
    if !bin_rows.is_empty() {
        let mut t = Table::new(
            "Obs — enforcement outcomes by intervention bin",
            &["Bin", "Delivered", "Blocked", "Deferred"],
        );
        for (name, del, blk, dfr) in bin_rows {
            t.row(&[name, thousands(del), thousands(blk), thousands(dfr)]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }

    // --- detection tallies ------------------------------------------------
    let mut t = Table::new(
        "Obs — detection pipeline tallies",
        &["Counter", "Value"],
    );
    for (key, value) in snap.counters_with_prefix("detect.") {
        t.row(&[key.to_string(), thousands(value)]);
    }
    out.push_str(&t.render());
    out
}

/// The quarantined wall-clock span timings, rendered as a table (empty
/// string when nothing was timed). Non-deterministic by nature — varies
/// run to run and with the worker-thread count — so `report_all` prints
/// it to stderr only, keeping stdout (and EXPERIMENTS.md regeneration)
/// byte-reproducible.
pub fn obs_timings(study: &Study) -> String {
    let timings = study.platform.obs.timings.snapshot();
    if timings.is_empty() {
        return String::new();
    }
    let mut t = Table::new(
        "Obs — wall-clock span timings (NON-DETERMINISTIC, excluded from digests)",
        &["Span", "Count", "Total s", "Mean ms", "Max ms"],
    );
    for (name, s) in &timings.spans {
        t.row(&[
            name.clone(),
            thousands(s.count),
            format!("{:.3}", s.total_secs),
            format!("{:.3}", s.mean_secs() * 1e3),
            format!("{:.3}", s.max_secs * 1e3),
        ]);
    }
    t.render()
}

/// The hierarchical flamegraph-style span report (the `obs-report` bin's
/// output, embedded here so `report_all` carries it too). Wall-clock —
/// non-deterministic — so it rides the same stderr-only channel as
/// [`obs_timings`]. Empty string when nothing was timed.
pub fn obs_flame(study: &Study, top_k: usize) -> String {
    let timings = &study.platform.obs.timings;
    if timings.snapshot().is_empty() {
        return String::new();
    }
    format!(
        "Obs — hierarchical span profile (NON-DETERMINISTIC, excluded from digests)\n\
         structure digest: {}\n{}",
        timings.structure_digest(),
        timings.flame_report(top_k)
    )
}

/// The franchise note (§3.3): Instalex and Instazood share a parent.
pub fn franchise_note() -> String {
    let (lo, hi) = catalog::FRANCHISE_FEE_RANGE_CENTS;
    format!(
        "Instalex and Instazood are independently operated franchisees of one parent \
         (franchise packages {}-{} per month); their platform traffic is \
         indistinguishable and is analysed as \"Insta*\".\n",
        fmt_dollars(lo),
        fmt_dollars(hi)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One smoke-scale study pushed through every renderer: guards the
    /// whole results→render path against panics and empty output.
    #[test]
    fn all_renders_survive_a_smoke_study() {
        let mut study = footsteps_core::Study::new(footsteps_core::Scenario::smoke(31));
        study.run_to_completion();
        let sections = [
            table02(Some(&study)),
            table05(&study),
            table06(&study),
            table07(&study),
            table08(&study),
            table09(&study),
            table10(&study),
            table11(&study),
            figure02(&study),
            figures0304(&study),
            figure05(&study),
            figure06(&study),
            figure07(&study),
            section51(&study),
            epilogue(&study),
            detection_quality(&study),
            obs(&study),
            obs_timings(&study),
        ];
        for (i, s) in sections.iter().enumerate() {
            assert!(s.len() > 80, "section {i} suspiciously short: {s:?}");
            assert!(!s.contains("NaN"), "section {i} contains NaN");
        }
    }

    #[test]
    fn static_tables_render_paper_values() {
        let t1 = table01();
        assert!(t1.contains("Instalex"));
        assert!(t1.contains("Followersgratis"));
        let t2 = table02(None);
        assert!(t2.contains("$3.15"));
        assert!(t2.contains("$0.34"));
        assert!(t2.contains("$99"));
        let t3 = table03();
        assert!(t3.contains("$15"));
        assert!(t3.contains("2,000 likes"));
        assert!(t3.contains("Month"));
        let t4 = table04();
        assert!(t4.contains("500 Follows"));
        let note = franchise_note();
        assert!(note.contains("$1,990") || note.contains("$1990"));
    }
}
