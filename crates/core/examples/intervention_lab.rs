//! Intervention lab (§6): run the narrow and broad experiments and watch
//! the services react (or fail to) — the block-vs-delay asymmetry that is
//! the paper's headline finding.
//!
//! ```text
//! cargo run --release --example intervention_lab
//! ```

use footsteps_core::{results, Scenario, Study};
use footsteps_obs::progress;
use footsteps_sim::prelude::*;

fn bar(v: f64, scale: f64) -> String {
    let n = ((v * scale).round() as usize).min(60);
    "#".repeat(n)
}

fn main() {
    let mut study = Study::new(Scenario::default_scaled(7));
    progress!("characterizing ({} days)…", study.scenario.characterization_days);
    study.run_characterization();
    progress!("narrow intervention ({} days)…", study.scenario.narrow_days);
    study.run_narrow();

    let fig5 = results::figure5(&study);
    println!(
        "\nBoostgram median follows/user/day (narrow window; threshold = {}):",
        fig5.threshold
    );
    println!("{:>4} {:>8} {:>8} {:>8}", "day", "block", "delay", "control");
    for (i, day) in Day::range(study.timeline.narrow_start, study.timeline.broad_start)
        .enumerate()
        .filter(|(i, _)| i % 3 == 0)
    {
        let _ = i;
        let b = fig5.block.on(day).unwrap_or(0.0);
        let d = fig5.delay.on(day).unwrap_or(0.0);
        let c = fig5.control.on(day).unwrap_or(0.0);
        println!("{:>4} {b:>8.0} {d:>8.0} {c:>8.0}   block: {}", day.0, bar(b, 0.3));
    }
    println!(
        "\nservice state: Boostgram follow detection active = {}, throttled customers = {}",
        study
            .reciprocity(ServiceId::Boostgram)
            .detection_active(ActionType::Follow),
        study
            .reciprocity(ServiceId::Boostgram)
            .throttled_customer_count(ActionType::Follow)
    );

    let fig6 = results::figure6(&study);
    println!("\nHublaagram eligible-like share (blocked bin) — watch week 3:");
    for (i, v) in fig6.block.values.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
        println!("  day {:>2}  {:>5.1}%  {}", i, 100.0 * v, bar(*v, 40.0));
    }

    progress!("broad intervention ({} days)…", study.scenario.broad_days);
    study.run_broad();
    let fig7 = results::figure7(&study);
    println!("\nBoostgram eligible-follow share, 90% treated (delay week then block week):");
    for (i, v) in fig7.treated.values.iter().enumerate() {
        let day = study.timeline.broad_start.0 + i as u32;
        let marker = if day == fig7.switch_day.0 { "  <- switch to block" } else { "" };
        println!("  day {:>3}  {:>5.1}%  {}{}", day, 100.0 * v, bar(*v, 100.0), marker);
    }

    progress!("epilogue ({} days)…", study.scenario.epilogue_days);
    study.run_epilogue();
    let ep = results::epilogue(&study);
    println!("\noutcome of the arms race:");
    for (s, n) in &ep.reciprocity_migrations {
        println!("  {s}: {n} ASN migration(s)");
    }
    println!("  Insta* likes on proxy network: {}", ep.insta_likes_on_proxy);
    println!("  Insta* follows back on original ASN: {}", ep.insta_follows_back_home);
    println!(
        "  Hublaagram out of stock: {:?}",
        ep.hublaagram_out_of_stock_on.map(|d| format!("day {}", d.0))
    );
}
