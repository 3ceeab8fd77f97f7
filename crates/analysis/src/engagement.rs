//! The "engagement rate" (§2).
//!
//! The influencer economy the services sell into evaluates accounts by
//!
//! ```text
//! ER = (likes + comments) / followers
//! ```
//!
//! and the services "commonly offer to manipulate one or more of its
//! components as a key aspect of their service offering". The metric is
//! what a customer is actually buying; the `control_panel` example and the
//! ablation analyses report it.

use footsteps_sim::prelude::*;

/// An engagement-rate snapshot for one account.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Engagement {
    /// Likes received over the window.
    pub likes: u64,
    /// Comments received over the window.
    pub comments: u64,
    /// Follower count at measurement time.
    pub followers: u32,
}

impl Engagement {
    /// The engagement rate; `None` for accounts with no followers (the
    /// metric is undefined, not zero — a fresh account is not "disengaged").
    pub fn rate(&self) -> Option<f64> {
        if self.followers == 0 {
            None
        } else {
            Some((self.likes + self.comments) as f64 / f64::from(self.followers))
        }
    }
}

/// Measure an account's engagement over `[start, end)` from the platform
/// log (inbound likes/comments) and its current follower count.
pub fn engagement(
    platform: &Platform,
    account: AccountId,
    start: Day,
    end: Day,
) -> Engagement {
    let likes = platform.log.total_inbound(account, ActionType::Like, start, end);
    let comments = platform
        .log
        .total_inbound(account, ActionType::Comment, start, end);
    Engagement {
        likes,
        comments,
        followers: platform.accounts.get(account).followers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use footsteps_sim::account::{ProfileKind, ReciprocityProfile};
    use footsteps_sim::net::{AsnKind, AsnRegistry};
    use footsteps_sim::platform::PlatformConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn rate_formula_matches_section2() {
        let e = Engagement { likes: 80, comments: 20, followers: 1_000 };
        assert!((e.rate().unwrap() - 0.1).abs() < 1e-12);
        let fresh = Engagement { likes: 5, comments: 0, followers: 0 };
        assert_eq!(fresh.rate(), None, "undefined for zero followers");
    }

    #[test]
    fn engagement_reads_the_log() {
        let mut reg = AsnRegistry::new();
        reg.register("res", Country::Us, AsnKind::Residential, 100);
        let host = reg.register("host", Country::Us, AsnKind::Hosting, 100);
        let mut p = Platform::new(reg, PlatformConfig::default(), SmallRng::seed_from_u64(1));
        let a = p.accounts.create(
            SimTime::EPOCH,
            ProfileKind::Organic,
            Country::Us,
            AsnId(0),
            10,
            200,
            ReciprocityProfile::SILENT,
        );
        p.begin_day(Day(0));
        // No policy is installed, so every delivery stands.
        let op = |ty, requested| DepositOp {
            target: a,
            ty,
            requested,
            asn: host,
            service: None,
            media: None,
        };
        p.deposit(&op(ActionType::Like, 30));
        p.deposit(&op(ActionType::Comment, 10));
        let e = engagement(&p, a, Day(0), Day(1));
        assert_eq!((e.likes, e.comments, e.followers), (30, 10, 200));
        assert!((e.rate().unwrap() - 0.2).abs() < 1e-12);
        // Out-of-window actions don't count.
        let e2 = engagement(&p, a, Day(5), Day(6));
        assert_eq!(e2.likes, 0);
    }
}
