//! Organic reciprocation behaviour.
//!
//! Reciprocity-abuse services work *only* because some fraction of real
//! users return an unsolicited action in kind (§3.1). This module is the
//! behavioural heart of the substrate: it decides, for an inbound action
//! notification, whether the receiving user responds and how.
//!
//! Empirical anchors from the paper (§4.3, Table 5):
//!
//! * users overwhelmingly reciprocate **in kind** (like→like, follow→follow);
//! * a like occasionally earns a follow-back; a follow **never** earns a like;
//! * follow→follow reciprocation is high (~10–16%), like→like modest (~2–4%);
//! * "lived-in" actors draw 1.6–2.6× the reciprocal *likes* of empty shells,
//!   but only ~1.1–1.2× the reciprocal *follows* — profile quality matters
//!   much more when deciding to engage with content than when following back;
//! * services bias their targeting toward users with high out-degree and low
//!   in-degree (Figures 3/4), i.e. users already inclined to follow others.
//!
//! The model: each account carries a personal [`ReciprocityProfile`] derived
//! at synthesis time from its *followback tendency* (a function of its
//! degree imbalance). The effective response probability to a specific actor
//! scales that personal propensity by the actor's perceived profile quality,
//! with a channel-specific exponent.

use crate::account::{ProfileKind, ReciprocityProfile};
use crate::actions::ActionType;
use rand::Rng;

/// The three live reciprocation channels. (Follow→like is structurally zero:
/// "users never reciprocate with likes when followed", §4.3.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResponseChannel {
    /// Inbound like → outbound like.
    LikeForLike,
    /// Inbound like → outbound follow.
    FollowForLike,
    /// Inbound follow → outbound follow.
    FollowForFollow,
}

impl ResponseChannel {
    /// The channels triggered by an inbound action of type `ty`, with the
    /// response action each produces.
    pub fn triggered_by(ty: ActionType) -> &'static [(ResponseChannel, ActionType)] {
        match ty {
            ActionType::Like => &[
                (ResponseChannel::LikeForLike, ActionType::Like),
                (ResponseChannel::FollowForLike, ActionType::Follow),
            ],
            ActionType::Follow => &[(ResponseChannel::FollowForFollow, ActionType::Follow)],
            // Comments could plausibly earn engagement too, but the paper
            // does not measure comment reciprocation; we conservatively
            // model none.
            _ => &[],
        }
    }
}

/// Global behaviour constants.
///
/// `*_base` values are the population-scale propensities for a user of
/// *average* followback tendency; per-user values span roughly
/// `0.4×..1.6×` base depending on tendency (see [`synthesize_profile`]).
/// The defaults are calibrated so the full pipeline (targeting bias →
/// notification → response) measures out to Table 5's rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BehaviorParams {
    /// Mean P(like back | inbound like).
    pub like_for_like_base: f64,
    /// Mean P(follow | inbound like).
    pub follow_for_like_base: f64,
    /// Mean P(follow back | inbound follow).
    pub follow_for_follow_base: f64,
    /// Exponent applied to actor profile quality on the like channels.
    /// Quality 0.52 with exponent 1.0 halves response rates for empty
    /// profiles, matching the ~2× lived-in/empty gap for likes.
    pub like_quality_exponent: f64,
    /// Exponent applied on the follow channel. Small (0.25): follow-back
    /// decisions barely look at the actor's profile, matching the ~1.1–1.2×
    /// gap for follows.
    pub follow_quality_exponent: f64,
    /// How strongly a user's followback tendency modulates their personal
    /// propensities (0 = everyone identical, 1 = full 0.4×–1.6× spread).
    pub tendency_spread: f64,
    /// Fraction of users who are "follow-from-like enthusiasts": a small
    /// population segment that frequently follows accounts whose likes they
    /// receive. Independent of followback tendency; this is the trait the
    /// Instalex targeting quirk selects on (Table 5's like→follow anomaly).
    pub follow_like_enthusiast_rate: f64,
    /// Multiplier on `follow_for_like_base` for enthusiasts. Non-enthusiasts
    /// are scaled down so the population mean stays at base.
    pub follow_like_enthusiast_boost: f64,
}

impl Default for BehaviorParams {
    fn default() -> Self {
        Self {
            // Targets of the services are biased toward high-tendency users
            // (~1.3× base on average); with empty-profile quality 0.52 the
            // honeypot-measured like→like rate lands near 2%, lived-in near
            // 3.6% — Table 5's range.
            like_for_like_base: 0.030,
            follow_for_like_base: 0.0035,
            follow_for_follow_base: 0.105,
            like_quality_exponent: 1.0,
            follow_quality_exponent: 0.25,
            tendency_spread: 1.0,
            follow_like_enthusiast_rate: 0.12,
            follow_like_enthusiast_boost: 6.0,
        }
    }
}

impl BehaviorParams {
    /// Validate ranges (probabilities in (0,1), exponents non-negative).
    pub fn is_valid(&self) -> bool {
        let probs = [
            self.like_for_like_base,
            self.follow_for_like_base,
            self.follow_for_follow_base,
        ];
        probs.iter().all(|p| (0.0..1.0).contains(p))
            && self.like_quality_exponent >= 0.0
            && self.follow_quality_exponent >= 0.0
            && (0.0..=1.0).contains(&self.tendency_spread)
            && (0.0..1.0).contains(&self.follow_like_enthusiast_rate)
            && self.follow_like_enthusiast_boost >= 1.0
            && self.follow_like_enthusiast_rate * self.follow_like_enthusiast_boost < 1.0
    }
}

/// A user's *followback tendency* in `[0, 1]`, derived from degree
/// imbalance: users who follow many accounts but are followed by few are the
/// ones who tend to return unsolicited actions. This is the latent trait the
/// services' targeting engines select for (§5.3).
pub fn followback_tendency(following: u32, followers: u32, noise: f64) -> f64 {
    debug_assert!((0.0..1.0).contains(&noise), "noise must be a U[0,1) draw");
    let ratio = (f64::from(following) + 1.0) / (f64::from(followers) + 1.0);
    // Logistic squash of the log-ratio: ratio 1 → 0.5, ratio 4 → ~0.8.
    let x = ratio.ln();
    let logistic = 1.0 / (1.0 + (-x).exp());
    // Blend with uniform noise so degree imbalance is predictive but not
    // deterministic (real users vary).
    0.65 * logistic + 0.35 * noise
}

/// Derive a personal reciprocity profile from global params, a user's
/// followback tendency, and an independent `quirk` draw in `[0,1)` deciding
/// whether the user is a follow-from-like enthusiast.
pub fn synthesize_profile(
    params: &BehaviorParams,
    tendency: f64,
    quirk: f64,
) -> ReciprocityProfile {
    debug_assert!((0.0..=1.0).contains(&tendency));
    debug_assert!((0.0..1.0).contains(&quirk));
    // Map tendency in [0,1] to a multiplier in [1-0.6s, 1+0.6s] around base.
    let m = 1.0 + params.tendency_spread * 1.2 * (tendency - 0.5);
    // Enthusiast scaling keeps the population mean at base: the boosted
    // segment is balanced by scaling everyone else down.
    let rate = params.follow_like_enthusiast_rate;
    let boost = params.follow_like_enthusiast_boost;
    let w = if quirk < rate {
        boost
    } else {
        (1.0 - rate * boost) / (1.0 - rate)
    };
    ReciprocityProfile {
        like_for_like: (params.like_for_like_base * m).clamp(0.0, 1.0),
        follow_for_like: (params.follow_for_like_base * m * w).clamp(0.0, 1.0),
        follow_for_follow: (params.follow_for_follow_base * m).clamp(0.0, 1.0),
    }
}

/// Effective probability that `target_profile` responds on `channel` to an
/// action performed by an account of kind `actor_kind`.
pub fn response_probability(
    params: &BehaviorParams,
    channel: ResponseChannel,
    target_profile: &ReciprocityProfile,
    actor_kind: ProfileKind,
) -> f64 {
    let q = actor_kind.perceived_quality();
    match channel {
        ResponseChannel::LikeForLike => {
            target_profile.like_for_like * q.powf(params.like_quality_exponent)
        }
        ResponseChannel::FollowForLike => {
            target_profile.follow_for_like * q.powf(params.like_quality_exponent)
        }
        ResponseChannel::FollowForFollow => {
            target_profile.follow_for_follow * q.powf(params.follow_quality_exponent)
        }
    }
}

/// Draw from Binomial(n, p) deterministically from `rng`.
///
/// Exact Bernoulli summation for small `n`; for large `n` a clamped normal
/// approximation — the aggregate daily engine samples reciprocation for
/// thousands of outbound actions per customer and the approximation error is
/// far below the behavioural noise being modelled.
pub fn sample_binomial(rng: &mut impl Rng, n: u32, p: f64) -> u32 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    if n <= 64 {
        let mut k = 0;
        for _ in 0..n {
            if rng.gen::<f64>() < p {
                k += 1;
            }
        }
        k
    } else {
        let mean = f64::from(n) * p;
        let sd = (f64::from(n) * p * (1.0 - p)).sqrt();
        // Box–Muller from two uniforms; cheap and dependency-free.
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let x = (mean + sd * z).round();
        x.clamp(0.0, f64::from(n)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn defaults_are_valid() {
        assert!(BehaviorParams::default().is_valid());
    }

    #[test]
    fn channels_match_paper_semantics() {
        let like = ResponseChannel::triggered_by(ActionType::Like);
        assert_eq!(like.len(), 2);
        let follow = ResponseChannel::triggered_by(ActionType::Follow);
        assert_eq!(follow, &[(ResponseChannel::FollowForFollow, ActionType::Follow)]);
        // Follow never earns a like: no LikeForFollow channel exists.
        assert!(ResponseChannel::triggered_by(ActionType::Unfollow).is_empty());
        assert!(ResponseChannel::triggered_by(ActionType::Post).is_empty());
    }

    #[test]
    fn tendency_rises_with_degree_imbalance() {
        // Follows many, followed by few → high tendency.
        let eager = followback_tendency(2_000, 100, 0.5);
        // Influencer shape: followed by many, follows few → low tendency.
        let influencer = followback_tendency(100, 2_000, 0.5);
        assert!(eager > 0.6, "eager={eager}");
        assert!(influencer < 0.4, "influencer={influencer}");
        assert!(eager > influencer);
    }

    #[test]
    fn tendency_is_bounded() {
        for (f, g, n) in [(0, 0, 0.0), (u32::MAX, 0, 0.999), (0, u32::MAX, 0.0)] {
            let t = followback_tendency(f, g, n);
            assert!((0.0..=1.0).contains(&t), "t={t}");
        }
    }

    #[test]
    fn profile_synthesis_scales_with_tendency() {
        let params = BehaviorParams::default();
        let lo = synthesize_profile(&params, 0.0, 0.5);
        let mid = synthesize_profile(&params, 0.5, 0.5);
        let hi = synthesize_profile(&params, 1.0, 0.5);
        assert!(lo.follow_for_follow < mid.follow_for_follow);
        assert!(mid.follow_for_follow < hi.follow_for_follow);
        assert!((mid.like_for_like - params.like_for_like_base).abs() < 1e-12);
        assert!(lo.is_valid() && mid.is_valid() && hi.is_valid());
    }

    #[test]
    fn empty_profiles_suppress_likes_more_than_follows() {
        let params = BehaviorParams::default();
        let profile = synthesize_profile(&params, 0.5, 0.5);
        let like_e = response_probability(
            &params,
            ResponseChannel::LikeForLike,
            &profile,
            ProfileKind::HoneypotEmpty,
        );
        let like_l = response_probability(
            &params,
            ResponseChannel::LikeForLike,
            &profile,
            ProfileKind::HoneypotLivedIn,
        );
        let fol_e = response_probability(
            &params,
            ResponseChannel::FollowForFollow,
            &profile,
            ProfileKind::HoneypotEmpty,
        );
        let fol_l = response_probability(
            &params,
            ResponseChannel::FollowForFollow,
            &profile,
            ProfileKind::HoneypotLivedIn,
        );
        let like_ratio = like_l / like_e;
        let fol_ratio = fol_l / fol_e;
        assert!(like_ratio > 1.5, "likes gap should be large: {like_ratio}");
        assert!(fol_ratio < 1.3, "follows gap should be small: {fol_ratio}");
        assert!(like_ratio > fol_ratio);
    }

    #[test]
    fn enthusiasts_have_boosted_follow_for_like_and_mean_is_preserved() {
        let params = BehaviorParams::default();
        let enthusiast = synthesize_profile(&params, 0.5, 0.0);
        let plain = synthesize_profile(&params, 0.5, 0.5);
        assert!(enthusiast.follow_for_like > 4.0 * plain.follow_for_like);
        // Population mean stays at base.
        let rate = params.follow_like_enthusiast_rate;
        let mean = rate * enthusiast.follow_for_like + (1.0 - rate) * plain.follow_for_like;
        assert!((mean - params.follow_for_like_base).abs() / params.follow_for_like_base < 1e-9);
    }

    #[test]
    fn binomial_small_n_exact_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            let k = sample_binomial(&mut rng, 10, 0.3);
            assert!(k <= 10);
        }
        assert_eq!(sample_binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(sample_binomial(&mut rng, 10, 0.0), 0);
        assert_eq!(sample_binomial(&mut rng, 10, 1.0), 10);
    }

    #[test]
    fn binomial_large_n_matches_mean() {
        let mut rng = SmallRng::seed_from_u64(2);
        let n = 10_000u32;
        let p = 0.12;
        let trials = 200;
        let mut total = 0u64;
        for _ in 0..trials {
            total += u64::from(sample_binomial(&mut rng, n, p));
        }
        let mean = total as f64 / f64::from(trials);
        let expect = f64::from(n) * p;
        assert!(
            (mean - expect).abs() / expect < 0.02,
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn binomial_is_deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..50 {
            assert_eq!(
                sample_binomial(&mut a, 1_000, 0.1),
                sample_binomial(&mut b, 1_000, 0.1)
            );
        }
    }
}
