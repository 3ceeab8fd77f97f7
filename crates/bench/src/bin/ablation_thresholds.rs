//! Ablation: the §6.2 threshold design.
//!
//! The paper picks the daily **99th percentile** of benign per-account
//! activity on mixed ASNs ("an upper bound of 1% false positives") and the
//! **25th percentile** of abusive activity on pure ASNs. This harness sweeps
//! both choices and reports the trade-off they encode:
//!
//! * mixed percentile ↓ ⇒ more abusive volume eligible, more benign
//!   account-days falsely eligible;
//! * pure percentile ↑ ⇒ less abusive volume eligible (the countermeasure
//!   gives more of the service's action budget away).

use footsteps_core::Phase;
use footsteps_detect::{percentile_u32, Classification};
use footsteps_sim::prelude::*;
use std::collections::HashMap;

/// Per-account daily follow counts on one ASN, split benign/abusive.
fn daily_counts(
    platform: &Platform,
    classification: &Classification,
    asn: AsnId,
    start: Day,
    end: Day,
) -> (Vec<u32>, Vec<u32>) {
    let mut benign = Vec::new();
    let mut abusive = Vec::new();
    for log in platform.log.iter_range(start, end) {
        let mut per: HashMap<AccountId, (u32, bool)> = HashMap::new();
        for (key, counts) in log.outbound() {
            if key.asn != asn {
                continue;
            }
            let n = counts.attempted_of(ActionType::Follow);
            if n == 0 {
                continue;
            }
            let e = per.entry(key.account).or_insert((0, false));
            e.0 += n;
            e.1 |= classification.is_abusive(key.account);
        }
        for (_, (n, abus)) in per {
            if abus {
                abusive.push(n);
            } else {
                benign.push(n);
            }
        }
    }
    (benign, abusive)
}

fn eligible_share(samples: &[u32], threshold: u32) -> f64 {
    let total: u64 = samples.iter().map(|&n| u64::from(n)).sum();
    if total == 0 {
        return 0.0;
    }
    let over: u64 = samples.iter().map(|&n| u64::from(n.saturating_sub(threshold))).sum();
    over as f64 / total as f64
}

fn over_rate(samples: &[u32], threshold: u32) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|&&n| n > threshold).count() as f64 / samples.len() as f64
}

fn main() {
    let study = footsteps_bench::study_to(Phase::Characterized);
    let (cal_start, cal_end) = study
        .timeline
        .calibration(study.scenario.calibration_tail_days);
    let class = &study.pipeline().classification;

    println!("Ablation — §6.2 threshold percentiles (follows, calibration tail)\n");

    // Mixed ASN (Insta*): sweep the benign percentile.
    let mixed = study.layout.insta_primary;
    let (mut benign, abusive) = daily_counts(&study.platform, class, mixed, cal_start, cal_end);
    println!(
        "mixed ASN (Insta* + benign blend): {} benign / {} abusive account-days",
        benign.len(),
        abusive.len()
    );
    println!("{:>10} {:>10} {:>22} {:>22}", "pctile", "threshold", "abusive vol eligible", "benign acct-days hit");
    for p in [0.90, 0.95, 0.99, 0.999] {
        let thr = percentile_u32(&mut benign, p).unwrap_or(0);
        println!(
            "{:>10} {:>10} {:>21.1}% {:>21.2}%",
            format!("p{:.1}", p * 100.0),
            thr,
            100.0 * eligible_share(&abusive, thr),
            100.0 * over_rate(&benign, thr),
        );
    }
    println!("  paper's choice: p99 — bounds benign exposure at 1% of account-days\n");

    // Pure ASN (Boostgram): sweep the abusive percentile.
    let pure = study.layout.boost_primary;
    let (_, mut abusive) = daily_counts(&study.platform, class, pure, cal_start, cal_end);
    println!("pure ASN (Boostgram): {} abusive account-days", abusive.len());
    println!("{:>10} {:>10} {:>22}", "pctile", "threshold", "abusive vol eligible");
    for p in [0.10, 0.25, 0.50, 0.75] {
        let thr = percentile_u32(&mut abusive, p).unwrap_or(0);
        println!(
            "{:>10} {:>10} {:>21.1}%",
            format!("p{:.0}", p * 100.0),
            thr,
            100.0 * eligible_share(&abusive, thr),
        );
    }
    println!("  paper's choice: p25 — most of the service's volume stays eligible");
}
