//! Revenue estimation (§5.2, Tables 8–10).
//!
//! The paper estimates service revenue purely from *observed activity*; our
//! simulation additionally has the services' ground-truth payment ledgers,
//! so every estimator here can be scored against the truth — a validation
//! the paper could not perform (EXPERIMENTS.md reports both).

use crate::customers::long_term_min_consecutive_days;
use footsteps_aas::catalog::{hublaagram_catalog, reciprocity_pricing, Cents};
use footsteps_detect::Classification;
use footsteps_sim::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Table 8 row: a reciprocity service's estimated monthly gross revenue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReciprocityRevenueRow {
    /// Service priced (Insta* gets two rows: Instazood-rate low, Instalex-
    /// rate high).
    pub service: ServiceId,
    /// Accounts identified as paying (active beyond trial) in the window.
    pub paid_accounts: u64,
    /// Estimated gross revenue over the window, in cents.
    pub revenue_cents: Cents,
}

/// Days each classified customer of `group` was active beyond the service's
/// trial period, within `[start, end)`.
///
/// §5.2: "we know the account is paid when it is active in the AAS for
/// longer than the trial period. For each paid account we estimate the
/// amount of money paid to the service by measuring the number of days the
/// account is active beyond a trial period."
pub fn paid_days_beyond_trial(
    classification: &Classification,
    group: ServiceGroup,
    trial_days: u32,
    start: Day,
    end: Day,
) -> HashMap<AccountId, u32> {
    let mut result = HashMap::new();
    for &account in &classification.customers_of_group(group) {
        // Union of active days across the group's member services,
        // restricted to the window.
        let mut days: Vec<Day> = group
            .members()
            .iter()
            .flat_map(|&s| {
                classification
                    .active_days
                    .get(&(s, account))
                    .into_iter()
                    .flatten()
                    .copied()
            })
            .filter(|&d| d >= start && d < end)
            .collect();
        days.sort_unstable();
        days.dedup();
        // An account is paying once its *total tenure* exceeds the trial;
        // everything after the first `trial_days` active days is paid time.
        if days.len() as u32 > trial_days {
            result.insert(account, days.len() as u32 - trial_days);
        }
    }
    result
}

/// Estimate a reciprocity service's monthly revenue using its minimum paid
/// duration as the conversion from paid days to money.
pub fn reciprocity_revenue(
    classification: &Classification,
    group: ServiceGroup,
    priced_as: ServiceId,
    start: Day,
    end: Day,
) -> ReciprocityRevenueRow {
    let pricing = reciprocity_pricing(priced_as);
    let paid = paid_days_beyond_trial(
        classification,
        group,
        pricing.delivered_trial_days,
        start,
        end,
    );
    let mut revenue = 0u64;
    // footsteps-lint: allow(nondet-iter) — revenue is a sum over paid blocks, order-insensitive
    for &days in paid.values() {
        // Paid time is purchased in blocks of the minimum duration.
        let blocks = days.div_ceil(pricing.min_paid_days.max(1));
        revenue += u64::from(blocks) * pricing.min_paid_cents;
    }
    ReciprocityRevenueRow {
        service: priced_as,
        paid_accounts: paid.len() as u64,
        revenue_cents: revenue,
    }
}

/// Table 9: the Hublaagram revenue accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HublaagramRevenue {
    /// Accounts that paid the lifetime no-outbound fee (receive-only).
    pub no_outbound_accounts: u64,
    /// One-time revenue from no-outbound fees, cents.
    pub no_outbound_cents: Cents,
    /// Accounts per monthly tier index (Table 3 order).
    pub monthly_tier_accounts: Vec<u64>,
    /// Monthly revenue per tier, cents.
    pub monthly_tier_cents: Vec<Cents>,
    /// Accounts that bought one-time like packages.
    pub one_time_accounts: u64,
    /// One-time like revenue, cents.
    pub one_time_cents: Cents,
    /// Estimated ad impressions over the window.
    pub ad_impressions: u64,
    /// Ad revenue at the low CPM bound, cents.
    pub ads_low_cents: Cents,
    /// Ad revenue at the high CPM bound, cents.
    pub ads_high_cents: Cents,
}

impl HublaagramRevenue {
    /// Total monthly revenue, low CPM bound.
    pub fn monthly_total_low(&self) -> Cents {
        self.monthly_tier_cents.iter().sum::<u64>() + self.one_time_cents + self.ads_low_cents
    }

    /// Total monthly revenue, high CPM bound.
    pub fn monthly_total_high(&self) -> Cents {
        self.monthly_tier_cents.iter().sum::<u64>() + self.one_time_cents + self.ads_high_cents
    }
}

/// Run the paper's Hublaagram accounting over `[start, end)` (§5.2).
///
/// * **No-outbound**: accounts that only receive inbound actions from the
///   service and never produce outbound ones.
/// * **Paid likes**: accounts with any photo exceeding 160 likes/hour.
/// * **One-time vs monthly**: photos with >2,000 likes in a day on accounts
///   whose daily median likes/photo is <250 count as one-time purchases;
///   otherwise the account's median likes/photo maps into the monthly tiers.
/// * **Ads**: every ≈80 free likes / ≈40 free follows delivered corresponds
///   to one free request showing at least one pop-under (conservatively one).
pub fn hublaagram_revenue(
    platform: &Platform,
    classification: &Classification,
    service_asns: &BTreeSet<AsnId>,
    start: Day,
    end: Day,
) -> HublaagramRevenue {
    hublaagram_revenue_windows(platform, classification, service_asns, start, end, start, end)
}

/// [`hublaagram_revenue`] with a separate accounting window for the
/// *lifetime* no-outbound fee: the paper counts no-outbound payers over its
/// whole measurement period while pricing like services monthly.
#[allow(clippy::too_many_arguments)]
pub fn hublaagram_revenue_windows(
    platform: &Platform,
    classification: &Classification,
    service_asns: &BTreeSet<AsnId>,
    start: Day,
    end: Day,
    period_start: Day,
    period_end: Day,
) -> HublaagramRevenue {
    let catalog = hublaagram_catalog();
    let customers = classification.customers_of_group(ServiceGroup::Hublaagram);

    // Per-account aggregates over the window.
    let mut inbound_like_total: HashMap<AccountId, u64> = HashMap::new();
    let mut inbound_follow_total: HashMap<AccountId, u64> = HashMap::new();
    // Per-account per-photo-day like stats.
    let mut photo_day_likes: HashMap<AccountId, Vec<(u32, u32)>> = HashMap::new(); // (total, max_hourly)
    for log in platform.log.iter_range(start, end) {
        for ((account, source), counts) in log.inbound() {
            let Some(asn) = source else { continue };
            if customers.contains(account) && service_asns.contains(asn) {
                *inbound_like_total.entry(*account).or_insert(0) +=
                    u64::from(counts.delivered[ActionType::Like.index()]);
                *inbound_follow_total.entry(*account).or_insert(0) +=
                    u64::from(counts.delivered[ActionType::Follow.index()]);
            }
        }
        for (media, stats) in &log.photo_likes {
            let owner = platform.accounts.media(*media).owner;
            if customers.contains(&owner) {
                photo_day_likes
                    .entry(owner)
                    .or_default()
                    .push((stats.total, stats.max_hourly));
            }
        }
    }

    // --- no-outbound accounts (over the full measurement period) -----------
    let mut period_inbound: HashSet<AccountId> = HashSet::new();
    let mut period_outbound: HashSet<AccountId> = HashSet::new();
    for log in platform.log.iter_range(period_start, period_end) {
        for (key, counts) in log.outbound() {
            if customers.contains(&key.account)
                && service_asns.contains(&key.asn)
                && counts.total_attempted() > 0
            {
                period_outbound.insert(key.account);
            }
        }
        for ((account, source), counts) in log.inbound() {
            let Some(asn) = source else { continue };
            if customers.contains(account)
                && service_asns.contains(asn)
                && counts.total_attempted() > 0
            {
                period_inbound.insert(*account);
            }
        }
    }
    let no_outbound_accounts = period_inbound
        // footsteps-lint: allow(nondet-iter) — order-insensitive count
        .iter()
        .filter(|a| !period_outbound.contains(a))
        .count() as u64;
    let no_outbound_cents = no_outbound_accounts * catalog.no_outbound_cents;

    // --- paid like accounts ----------------------------------------------------
    let mut monthly_tier_accounts = vec![0u64; catalog.monthly.len()];
    let mut one_time_accounts = 0u64;
    let mut one_time_cents = 0u64;
    let mut paid_like_delivered = 0u64;
    // footsteps-lint: allow(nondet-iter) — per-account tier counters; totals do not depend on visit order
    for days in photo_day_likes.values() {
        let paid = days.iter().any(|&(_, hourly)| hourly > catalog.free_likes_per_hour_cap);
        if !paid {
            continue;
        }
        paid_like_delivered += days.iter().map(|&(t, _)| u64::from(t)).sum::<u64>();
        // Median likes/photo over *paid-rate* delivery days: mixing in
        // free-tier days would drag subscription accounts into lower tiers.
        let paid_totals: Vec<u32> = days
            .iter()
            .filter(|&&(_, hourly)| hourly > catalog.free_likes_per_hour_cap)
            .map(|&(t, _)| t)
            .collect();
        let median = crate::stats::median_u32(&paid_totals).unwrap_or(0.0);
        // One-time: a ≥2,000-like burst on an account whose *overall* daily
        // median is below the smallest monthly tier (a subscriber's photos
        // routinely exceed the tier floor; a one-off buyer's do not).
        let all_totals: Vec<u32> = days.iter().map(|&(t, _)| t).collect();
        let all_median = crate::stats::median_u32(&all_totals).unwrap_or(0.0);
        if all_median < f64::from(catalog.monthly[0].min_likes)
            && paid_totals.iter().any(|&t| t >= catalog.one_time[0].likes)
        {
            one_time_accounts += 1;
            one_time_cents += catalog.one_time[0].cents;
            continue;
        }
        // Monthly: map the median likes/photo into a tier.
        for (i, tier) in catalog.monthly.iter().enumerate() {
            let upper_open = i + 1 == catalog.monthly.len();
            if median >= f64::from(tier.min_likes)
                && (upper_open || median < f64::from(tier.max_likes))
            {
                monthly_tier_accounts[i] += 1;
                break;
            }
        }
    }
    let monthly_tier_cents: Vec<Cents> = monthly_tier_accounts
        .iter()
        .zip(&catalog.monthly)
        .map(|(&n, t)| n * t.monthly_cents)
        .collect();

    // --- ads -------------------------------------------------------------------
    // Free deliveries = everything not attributed to paid like service.
    // footsteps-lint: allow(nondet-iter) — order-insensitive sum
    let total_likes: u64 = inbound_like_total.values().sum();
    let free_likes = total_likes.saturating_sub(paid_like_delivered);
    // footsteps-lint: allow(nondet-iter) — order-insensitive sum
    let free_follows: u64 = inbound_follow_total.values().sum();
    let ad_impressions = free_likes / u64::from(catalog.free_likes_per_request.max(1))
        + free_follows / u64::from(catalog.free_follows_per_request.max(1));
    let (cpm_low, cpm_high) = catalog.cpm_cents;
    let ads_low_cents = ad_impressions * cpm_low / 1_000;
    let ads_high_cents = ad_impressions * cpm_high / 1_000;

    HublaagramRevenue {
        no_outbound_accounts,
        no_outbound_cents,
        monthly_tier_accounts,
        monthly_tier_cents,
        one_time_accounts,
        one_time_cents,
        ad_impressions,
        ads_low_cents,
        ads_high_cents,
    }
}

/// Table 10: share of a group's revenue from new vs preexisting payers over
/// a month, estimated from activity: a paying account is "new" if it was not
/// already paying (active beyond trial) before the window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NewVsPreexisting {
    /// Share of revenue from first-time payers.
    pub new_share: f64,
    /// Share of revenue from repeat payers.
    pub preexisting_share: f64,
}

/// Estimate the Table 10 split for a group from classified activity.
pub fn new_vs_preexisting(
    classification: &Classification,
    group: ServiceGroup,
    window_start: Day,
    window_end: Day,
) -> NewVsPreexisting {
    let trial = long_term_min_consecutive_days(group) - 1;
    // Payers before the window.
    let prior = paid_days_beyond_trial(classification, group, trial, Day(0), window_start);
    let current = paid_days_beyond_trial(classification, group, trial, window_start, window_end);
    let mut new = 0u64;
    let mut pre = 0u64;
    for (account, days) in &current {
        if prior.contains_key(account) {
            pre += u64::from(*days);
        } else {
            new += u64::from(*days);
        }
    }
    let total = (new + pre).max(1) as f64;
    NewVsPreexisting {
        new_share: new as f64 / total,
        preexisting_share: pre as f64 / total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` likes from `host` onto `to` through the platform's inbound path
    /// (no policy is installed, so every one stands).
    fn likes(p: &mut Platform, to: AccountId, n: u32, host: AsnId, media: Option<(MediaId, u32)>) {
        p.deposit(&DepositOp {
            target: to,
            ty: ActionType::Like,
            requested: n,
            asn: host,
            service: None,
            media,
        });
    }

    fn classification_with(
        entries: &[(ServiceId, u32, Vec<u32>)],
    ) -> Classification {
        let mut c = Classification::default();
        for (service, account, days) in entries {
            let account = AccountId(*account);
            c.customers.entry(*service).or_default().insert(account);
            let days: Vec<Day> = days.iter().map(|&d| Day(d)).collect();
            c.first_seen.insert((*service, account), days[0]);
            c.last_seen.insert((*service, account), *days.last().unwrap());
            c.active_days.insert((*service, account), days);
        }
        c
    }

    #[test]
    fn paid_days_excludes_trial() {
        let c = classification_with(&[
            (ServiceId::Boostgram, 1, (0..10).collect()), // 10 days, 3-day trial → 7 paid
            (ServiceId::Boostgram, 2, (0..3).collect()),  // within trial → not paid
        ]);
        let paid = paid_days_beyond_trial(&c, ServiceGroup::Boostgram, 3, Day(0), Day(30));
        assert_eq!(paid.get(&AccountId(1)), Some(&7));
        assert!(!paid.contains_key(&AccountId(2)));
    }

    #[test]
    fn boostgram_revenue_uses_monthly_blocks() {
        let c = classification_with(&[
            (ServiceId::Boostgram, 1, (0..33).collect()), // 30 paid days → 1 block
            (ServiceId::Boostgram, 2, (0..40).collect()), // 37 paid days → 2 blocks
        ]);
        let row = reciprocity_revenue(
            &c,
            ServiceGroup::Boostgram,
            ServiceId::Boostgram,
            Day(0),
            Day(40),
        );
        assert_eq!(row.paid_accounts, 2);
        assert_eq!(row.revenue_cents, 3 * 9_900);
    }

    #[test]
    fn instastar_low_and_high_bounds() {
        // One account, 14 active days. Instazood prices (low): 7 paid days ×
        // $0.34 = $2.38. Instalex prices (high): 7 paid days → 1 week block =
        // $3.15.
        let c = classification_with(&[(ServiceId::Instalex, 1, (0..14).collect())]);
        let low = reciprocity_revenue(&c, ServiceGroup::InstaStar, ServiceId::Instazood, Day(0), Day(20));
        let high = reciprocity_revenue(&c, ServiceGroup::InstaStar, ServiceId::Instalex, Day(0), Day(20));
        assert_eq!(low.revenue_cents, 7 * 34);
        assert_eq!(high.revenue_cents, 315);
        assert!(low.paid_accounts == 1 && high.paid_accounts == 1);
    }

    #[test]
    fn hublaagram_accounting_on_synthetic_logs() {
        use footsteps_sim::account::{ProfileKind, ReciprocityProfile};
        use footsteps_sim::net::{AsnKind, AsnRegistry};
        use footsteps_sim::platform::{Platform, PlatformConfig};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        let mut reg = AsnRegistry::new();
        reg.register("res", Country::Us, AsnKind::Residential, 1_000);
        let host = reg.register("host", Country::Gb, AsnKind::Hosting, 1_000);
        let mut p = Platform::new(reg, PlatformConfig::default(), SmallRng::seed_from_u64(1));
        let mut class = Classification::default();
        let user = |p: &mut Platform| {
            p.accounts.create(
                SimTime::EPOCH,
                ProfileKind::Organic,
                Country::Id,
                AsnId(0),
                10,
                10,
                ReciprocityProfile::SILENT,
            )
        };

        // Account A: receive-only (no-outbound payer profile).
        let a = user(&mut p);
        // Account B: free user (inbound under the hourly cap + outbound).
        let b = user(&mut p);
        // Account C: monthly tier-1 subscriber (500-1000 likes/photo at a
        // paid delivery rate) who also gets free likes on other days.
        let c = user(&mut p);
        for x in [a, b, c] {
            class.customers.entry(ServiceId::Hublaagram).or_default().insert(x);
        }
        let fp = footsteps_sim::prelude::ClientFingerprint::SpoofedMobile { variant: 4 };

        p.begin_day(Day(0));
        let ip = p.asns.ip_in(host, 0);
        let b_media = p.post_media(b, AsnId(0), ip);
        let c_media = p.post_media(c, AsnId(0), ip);
        // A and B receive free-rate likes; B also produces outbound.
        likes(&mut p, a, 80, host, None);
        likes(&mut p, b, 80, host, Some((b_media, 120)));
        p.log.record_outbound(
            Day(0),
            b,
            host,
            fp,
            ActionType::Like,
            footsteps_sim::prelude::ActionOutcome::Delivered,
            20,
        );
        // C gets a paid-rate tier delivery (700 likes at 420/hour).
        likes(&mut p, c, 700, host, Some((c_media, 420)));
        // And a free-rate day later in the window.
        p.begin_day(Day(1));
        likes(&mut p, c, 80, host, Some((c_media, 120)));

        let asns: BTreeSet<AsnId> = [host].into();
        let rev = hublaagram_revenue(&p, &class, &asns, Day(0), Day(5));
        assert_eq!(rev.no_outbound_accounts, 2, "A and C never produce outbound");
        assert_eq!(rev.monthly_tier_accounts, vec![0, 1, 0, 0], "C maps to tier 500-1000");
        assert_eq!(rev.one_time_accounts, 0);
        assert_eq!(rev.monthly_tier_cents[1], 3_000);
        // Ads: the paper "conservatively excludes paying customer accounts"
        // from the impression estimate, so C's free-rate day is ignored:
        // (80 + 80) / 80-per-request = 2 impressions.
        assert_eq!(rev.ad_impressions, 2);
    }

    #[test]
    fn one_time_burst_is_distinguished_from_tiers() {
        use footsteps_sim::account::{ProfileKind, ReciprocityProfile};
        use footsteps_sim::net::{AsnKind, AsnRegistry};
        use footsteps_sim::platform::{Platform, PlatformConfig};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        let mut reg = AsnRegistry::new();
        reg.register("res", Country::Us, AsnKind::Residential, 1_000);
        let host = reg.register("host", Country::Gb, AsnKind::Hosting, 1_000);
        let mut p = Platform::new(reg, PlatformConfig::default(), SmallRng::seed_from_u64(2));
        let buyer = p.accounts.create(
            SimTime::EPOCH,
            ProfileKind::Organic,
            Country::Id,
            AsnId(0),
            10,
            10,
            ReciprocityProfile::SILENT,
        );
        let mut class = Classification::default();
        class.customers.entry(ServiceId::Hublaagram).or_default().insert(buyer);
        p.begin_day(Day(0));
        let ip = p.asns.ip_in(host, 0);
        let media = p.post_media(buyer, AsnId(0), ip);
        // Ordinary free-rate days keep the overall median low…
        likes(&mut p, buyer, 80, host, Some((media, 120)));
        p.begin_day(Day(1));
        likes(&mut p, buyer, 80, host, Some((media, 120)));
        // …then the 2,000-like burst at a paid rate.
        p.begin_day(Day(2));
        likes(&mut p, buyer, 2_000, host, Some((media, 800)));
        let asns: BTreeSet<AsnId> = [host].into();
        let rev = hublaagram_revenue(&p, &class, &asns, Day(0), Day(5));
        assert_eq!(rev.one_time_accounts, 1);
        assert_eq!(rev.one_time_cents, 1_000);
        assert_eq!(rev.monthly_tier_accounts.iter().sum::<u64>(), 0);
    }

    #[test]
    fn new_vs_preexisting_split() {
        let c = classification_with(&[
            // Paying since day 0: preexisting in the day-30 window.
            (ServiceId::Boostgram, 1, (0..60).collect()),
            // First active day 35: new payer in the window.
            (ServiceId::Boostgram, 2, (35..60).collect()),
        ]);
        let split = new_vs_preexisting(&c, ServiceGroup::Boostgram, Day(30), Day(60));
        assert!(split.preexisting_share > split.new_share);
        assert!((split.new_share + split.preexisting_share - 1.0).abs() < 1e-9);
    }
}
