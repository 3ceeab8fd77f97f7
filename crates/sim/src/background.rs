//! Organic background traffic.
//!
//! Thresholds in §6.2 are computed against *legitimate* activity: "for ASNs
//! with both AAS and benign traffic, we measure the daily 99th percentile of
//! likes and follows produced by Instagram accounts that are not
//! participating in AASs". That requires benign traffic to exist — both on
//! residential networks and *blended into* some of the hosting ASNs the
//! services use (VPN exits, cloud-hosted apps).
//!
//! The generator samples a subset of organic users each day and submits
//! their activity as official-app batches; a configurable slice of actors
//! routes through designated "blend" ASNs.

use crate::ids::AsnId;
use crate::platform::{BatchRequest, Platform, PoolStats};
use crate::population::{sample_lognormal, Population};
use crate::prelude::{ActionType, ClientFingerprint};
use rand::Rng;

/// Background-traffic configuration.
#[derive(Debug, Clone)]
pub struct BackgroundConfig {
    /// Organic users acting per day (sampled from the population).
    pub daily_actors: u32,
    /// Hosting/VPN ASNs with benign traffic blended in, and the number of
    /// background actors routed through each per day.
    pub blend: Vec<(AsnId, u32)>,
    /// Median likes per actor-day (log-normal).
    pub likes_median: f64,
    /// Median follows per actor-day (log-normal).
    pub follows_median: f64,
    /// Log-normal σ for daily volumes. Heavy enough that the 99th
    /// percentile sits an order of magnitude above the median, like real
    /// user activity distributions.
    pub sigma: f64,
    /// Probability an actor also posts a comment batch.
    pub comment_prob: f64,
}

impl Default for BackgroundConfig {
    fn default() -> Self {
        Self {
            daily_actors: 1_500,
            blend: Vec::new(),
            likes_median: 8.0,
            follows_median: 3.0,
            sigma: 1.0,
            comment_prob: 0.2,
        }
    }
}

/// Drive one day of organic background activity.
pub fn run_background_day(
    platform: &mut Platform,
    population: &Population,
    config: &BackgroundConfig,
    rng: &mut impl Rng,
) {
    let mut blend_plan: Vec<AsnId> = Vec::new();
    for &(asn, n) in &config.blend {
        blend_plan.extend(std::iter::repeat_n(asn, n as usize));
    }
    for i in 0..config.daily_actors {
        let actor = population.sample_uniform(rng.gen());
        // Route the first `blend_plan.len()` actors through blend ASNs, the
        // rest through their home network.
        let asn = blend_plan
            .get(i as usize)
            .copied()
            .unwrap_or_else(|| platform.accounts.get(actor).home_asn);
        let ip = platform.asns.ip_in(asn, rng.gen::<u32>());
        platform.record_login(actor);
        for (ty, median) in [
            (ActionType::Like, config.likes_median),
            (ActionType::Follow, config.follows_median),
        ] {
            let count = sample_lognormal(rng, median, config.sigma).round() as u32;
            if count == 0 {
                continue;
            }
            platform.submit_batch(BatchRequest {
                actor,
                action: ty,
                count,
                asn,
                ip,
                fingerprint: ClientFingerprint::OfficialApp,
                pool: PoolStats::INERT,
                service: None,
            });
        }
        if rng.gen::<f64>() < config.comment_prob {
            platform.submit_batch(BatchRequest {
                actor,
                action: ActionType::Comment,
                count: 1 + (rng.gen::<f64>() * 3.0) as u32,
                asn,
                ip,
                fingerprint: ClientFingerprint::OfficialApp,
                pool: PoolStats::INERT,
                service: None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    
    use crate::country::Country;
    use crate::net::{AsnKind, AsnRegistry};
    use crate::platform::PlatformConfig;
    use crate::population::{synthesize, PopulationConfig, ResidentialIndex};
    use crate::time::Day;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn world() -> (Platform, Population, AsnId) {
        let mut reg = AsnRegistry::new();
        for c in Country::ALL {
            reg.register(&format!("res-{}", c.code()), c, AsnKind::Residential, 50_000);
        }
        let mixed = reg.register("mixed-host", Country::Us, AsnKind::Hosting, 10_000);
        let residential = ResidentialIndex::build(&reg);
        let mut platform =
            Platform::new(reg, PlatformConfig::default(), SmallRng::seed_from_u64(40));
        let mut rng = SmallRng::seed_from_u64(41);
        let pop = synthesize(
            &mut platform.accounts,
            &residential,
            &PopulationConfig { size: 5_000, ..PopulationConfig::default() },
            &mut rng,
        );
        (platform, pop, mixed)
    }

    #[test]
    fn background_traffic_lands_on_home_and_blend_asns() {
        let (mut platform, pop, mixed) = world();
        let cfg = BackgroundConfig {
            daily_actors: 300,
            blend: vec![(mixed, 40)],
            ..BackgroundConfig::default()
        };
        platform.begin_day(Day(0));
        let mut rng = SmallRng::seed_from_u64(42);
        run_background_day(&mut platform, &pop, &cfg, &mut rng);
        let day = platform.log.day(Day(0)).expect("traffic recorded");
        let blend_actors: std::collections::HashSet<_> = day
            .outbound()
            .filter(|(k, _)| k.asn == mixed)
            .map(|(k, _)| k.account)
            .collect();
        assert!(
            (30..=40).contains(&blend_actors.len()),
            "~40 actors on the blend ASN, got {}",
            blend_actors.len()
        );
        let home_records = day.outbound().filter(|(k, _)| k.asn != mixed).count();
        assert!(home_records > 200, "most actors act from home");
        // All background traffic is official-app.
        assert!(day
            .outbound()
            .all(|(k, _)| k.fingerprint == ClientFingerprint::OfficialApp));
    }

    #[test]
    fn background_volumes_are_heavy_tailed() {
        let (mut platform, pop, _) = world();
        let cfg = BackgroundConfig {
            daily_actors: 2_000,
            ..BackgroundConfig::default()
        };
        platform.begin_day(Day(0));
        let mut rng = SmallRng::seed_from_u64(43);
        run_background_day(&mut platform, &pop, &cfg, &mut rng);
        let day = platform.log.day(Day(0)).unwrap();
        let mut likes: Vec<u32> = day
            .outbound()
            .map(|(_, c)| c.attempted_of(ActionType::Like))
            .filter(|&n| n > 0)
            .collect();
        likes.sort_unstable();
        let median = likes[likes.len() / 2];
        let p99 = likes[(likes.len() as f64 * 0.99) as usize];
        assert!((4..=16).contains(&median), "median {median}");
        assert!(p99 > 5 * median, "p99 {p99} vs median {median}");
    }

    #[test]
    fn background_traffic_has_no_service_attribution() {
        let (mut platform, pop, _) = world();
        platform.begin_day(Day(0));
        let mut rng = SmallRng::seed_from_u64(44);
        run_background_day(
            &mut platform,
            &pop,
            &BackgroundConfig { daily_actors: 100, ..BackgroundConfig::default() },
            &mut rng,
        );
        let day = platform.log.day(Day(0)).unwrap();
        for (k, _) in day.outbound() {
            assert!(!platform.is_ground_truth_abusive(k.account));
        }
    }
}
