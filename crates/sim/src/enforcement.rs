//! Enforcement hooks: how countermeasures attach to the platform.
//!
//! The platform exposes a single extension point, [`EnforcementPolicy`]. On
//! every submission it asks the installed policy how many of the requested
//! actions pass untouched and what happens to the excess. The two concrete
//! countermeasures from §6.1 — synchronous block and delayed removal — are
//! expressed as [`Countermeasure`] variants; the *policy logic* (thresholds,
//! bins, experiment windows) lives in `footsteps-detect`/`footsteps-intervene`
//! and is injected, keeping the substrate mechanism/policy-separated.

use crate::actions::ActionType;
use crate::ids::{AccountId, AsnId};
use crate::time::Day;
use serde::Serialize;

/// What happens to actions above a policy's threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Countermeasure {
    /// Nothing: deliver normally (control bins).
    None,
    /// Synchronous block: the action fails visibly (§6.1 "Synchronous
    /// Block"). The submitting client can observe the failure, which gives
    /// the service an oracle to adapt against.
    Block,
    /// Delayed removal: the action succeeds now and is silently removed one
    /// day later (§6.1 "Delayed Removal of Follows"). Only meaningful for
    /// follows; the platform ignores it for other types ("it was not
    /// possible to apply a delayed countermeasure on likes").
    DelayRemoval,
}

impl Countermeasure {
    /// Resolve a verdict into `(standing, blocked, deferred)`: the `pass`
    /// actions stand, and this countermeasure decides what becomes of the
    /// `excess`. Both delivery directions and the enforcement counters use
    /// this one split.
    pub(crate) fn resolve(self, pass: u32, excess: u32) -> (u32, u32, u32) {
        match self {
            Countermeasure::None => (pass + excess, 0, 0),
            Countermeasure::Block => (pass, excess, 0),
            Countermeasure::DelayRemoval => (pass, 0, excess),
        }
    }
}

/// Resolve a policy decision into `(pass, excess, effective_cm)`, taking
/// into account that delayed removal only exists for follows.
pub(crate) fn split_decision(
    decision: EnforcementDecision,
    requested: u32,
    action: ActionType,
) -> (u32, u32, Countermeasure) {
    let pass = decision.pass.min(requested);
    let excess = requested - pass;
    let cm = match decision.excess {
        // "It was not possible to apply a delayed countermeasure on likes":
        // delay degrades to no-op for anything but follows.
        Countermeasure::DelayRemoval if action != ActionType::Follow => Countermeasure::None,
        other => other,
    };
    (pass, excess, cm)
}

/// Which side of an action a threshold is being applied to.
///
/// §6.2: "we track the number of **outbound** actions from Instagram
/// accounts used by the Reciprocity Abuse AASs, and we track the number of
/// **inbound** actions from accounts used by the Collusion Network AAS."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum Direction {
    /// The account in `EnforcementContext::actor` is *performing* actions.
    Outbound,
    /// The account in `EnforcementContext::actor` is *receiving* actions
    /// (collusion-network deliveries).
    Inbound,
}

/// Context handed to the policy for each submission.
#[derive(Debug, Clone, Copy)]
pub struct EnforcementContext {
    /// The account performing (outbound) or receiving (inbound) the actions.
    pub actor: AccountId,
    /// ASN the traffic originates from.
    pub asn: AsnId,
    /// Action type being performed.
    pub action: ActionType,
    /// Whether the threshold side is outbound or inbound.
    pub direction: Direction,
    /// Day of submission.
    pub day: Day,
    /// Actions of this type already counted against this actor on this side
    /// earlier today (the policy compares `prior + requested` against its
    /// daily threshold).
    pub prior_today: u32,
    /// Actions requested in this submission.
    pub requested: u32,
}

/// Policy verdict for one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnforcementDecision {
    /// How many of the requested actions pass with no countermeasure.
    pub pass: u32,
    /// What happens to the remaining `requested - pass`.
    pub excess: Countermeasure,
    /// Intervention bin that produced this verdict, when the policy assigns
    /// accounts to experiment bins (§6.3). Observability-only: the platform
    /// attributes enforcement outcomes per bin but never branches on it.
    pub bin: Option<u32>,
}

impl EnforcementDecision {
    /// Let everything through.
    pub fn allow_all(requested: u32) -> Self {
        Self {
            pass: requested,
            excess: Countermeasure::None,
            bin: None,
        }
    }

    /// Apply `cm` to everything above a daily threshold, given what was
    /// already attempted today.
    pub fn threshold(requested: u32, prior_today: u32, threshold: u32, cm: Countermeasure) -> Self {
        let room = threshold.saturating_sub(prior_today);
        Self {
            pass: requested.min(room),
            excess: cm,
            bin: None,
        }
    }

    /// Tag the verdict with the experiment bin that produced it.
    pub fn with_bin(mut self, bin: u32) -> Self {
        self.bin = Some(bin);
        self
    }
}

/// A platform with no experimental countermeasures installed (the state of
/// the world during the 90-day characterisation period of §5).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoEnforcement;

/// The policy trait. Implementations must be deterministic functions of the
/// context (plus their own configuration): the experiment in §6.3 fixed its
/// thresholds at the start "to prevent an adversary from affecting the false
/// positive rate".
/// `Debug` is a supertrait so containers holding a `Box<dyn
/// EnforcementPolicy>` (the [`crate::platform::Platform`]) can derive it.
/// `Send + Sync` are supertraits because the platform holds the installed
/// policy and `report_all` renders its sections from one `&Study` on
/// scoped threads; policies are plain configuration data (thresholds,
/// bins, windows) fixed before the day runs, so shared immutable access
/// is safe by construction.
pub trait EnforcementPolicy: std::fmt::Debug + Send + Sync {
    /// Decide what happens to a submission.
    fn evaluate(&self, ctx: &EnforcementContext) -> EnforcementDecision;
}

impl EnforcementPolicy for NoEnforcement {
    fn evaluate(&self, ctx: &EnforcementContext) -> EnforcementDecision {
        EnforcementDecision::allow_all(ctx.requested)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(prior: u32, requested: u32) -> EnforcementContext {
        EnforcementContext {
            actor: AccountId(1),
            asn: AsnId(0),
            action: ActionType::Follow,
            direction: Direction::Outbound,
            day: Day(0),
            prior_today: prior,
            requested,
        }
    }

    #[test]
    fn no_enforcement_allows_everything() {
        let d = NoEnforcement.evaluate(&ctx(1_000, 500));
        assert_eq!(d.pass, 500);
        assert_eq!(d.excess, Countermeasure::None);
    }

    #[test]
    fn threshold_decision_splits_at_boundary() {
        // Threshold 100, 80 already done, 50 requested: 20 pass, 30 excess.
        let d = EnforcementDecision::threshold(50, 80, 100, Countermeasure::Block);
        assert_eq!(d.pass, 20);
        assert_eq!(d.excess, Countermeasure::Block);
    }

    #[test]
    fn threshold_decision_all_above() {
        let d = EnforcementDecision::threshold(10, 200, 100, Countermeasure::DelayRemoval);
        assert_eq!(d.pass, 0);
    }

    #[test]
    fn threshold_decision_all_below() {
        let d = EnforcementDecision::threshold(10, 0, 100, Countermeasure::Block);
        assert_eq!(d.pass, 10);
    }

    #[test]
    fn bin_tag_is_carried_without_changing_the_verdict() {
        let plain = EnforcementDecision::threshold(50, 80, 100, Countermeasure::Block);
        let tagged = EnforcementDecision::threshold(50, 80, 100, Countermeasure::Block).with_bin(3);
        assert_eq!(tagged.bin, Some(3));
        assert_eq!((tagged.pass, tagged.excess), (plain.pass, plain.excess));
        assert_eq!(plain.bin, None);
    }
}
