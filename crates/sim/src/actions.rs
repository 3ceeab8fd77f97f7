//! Social actions and their outcomes.
//!
//! The unit of measurement in the paper is the *action*: a like, follow,
//! comment, post, or unfollow performed by one account, optionally directed
//! at another account or a piece of media. Countermeasures attach to actions
//! (a blocked action never lands; a delay-removed follow lands and is undone
//! a day later), so outcomes carry the full lifecycle.

use crate::fingerprint::ClientFingerprint;
use crate::ids::{AccountId, AsnId, MediaId};
use crate::net::IpAddr4;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// The social action types the studied services trade in (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ActionType {
    /// Like a photo/video.
    Like,
    /// Follow an account.
    Follow,
    /// Comment on a photo/video.
    Comment,
    /// Post new media on the actor's own account.
    Post,
    /// Unfollow an account (reciprocity AASs use this to shed the outbound
    /// follows they created, keeping only inbound ones).
    Unfollow,
}

impl ActionType {
    /// All action types, in a stable order used for array indexing.
    pub const ALL: [ActionType; 5] = [
        ActionType::Like,
        ActionType::Follow,
        ActionType::Comment,
        ActionType::Post,
        ActionType::Unfollow,
    ];

    /// Number of distinct action types.
    pub const COUNT: usize = 5;

    /// Stable dense index (0..COUNT).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            ActionType::Like => 0,
            ActionType::Follow => 1,
            ActionType::Comment => 2,
            ActionType::Post => 3,
            ActionType::Unfollow => 4,
        }
    }

    /// Lower-case name as used in running text ("likes", "follows").
    pub fn name(self) -> &'static str {
        match self {
            ActionType::Like => "like",
            ActionType::Follow => "follow",
            ActionType::Comment => "comment",
            ActionType::Post => "post",
            ActionType::Unfollow => "unfollow",
        }
    }

    /// Whether the action targets another account's presence (and therefore
    /// generates a notification that can be reciprocated). `Post` targets
    /// the actor's own account; `Unfollow` notifies nobody.
    pub fn notifies_target(self) -> bool {
        matches!(
            self,
            ActionType::Like | ActionType::Follow | ActionType::Comment
        )
    }
}

impl std::fmt::Display for ActionType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What an action is directed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActionTarget {
    /// Directed at an account (follow/unfollow).
    Account(AccountId),
    /// Directed at a piece of media (like/comment).
    Media(MediaId),
    /// No external target (post on own account).
    SelfContent,
}

impl ActionTarget {
    /// The account targeted, if the target resolves to one directly.
    /// (Media targets resolve via the media store, not here.)
    pub fn account(self) -> Option<AccountId> {
        match self {
            ActionTarget::Account(a) => Some(a),
            _ => None,
        }
    }
}

/// The terminal state of a submitted action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActionOutcome {
    /// The action landed and is visible to other users.
    Delivered,
    /// The action was synchronously blocked by a countermeasure: it never
    /// landed, and the submitting client can observe the failure (§6.1).
    Blocked,
    /// The action landed, but the platform scheduled its silent removal for
    /// the next day (the "delayed removal" countermeasure, §6.1). The
    /// submitting client observes success.
    DeferredRemoval,
}

impl ActionOutcome {
    /// What the *submitting client* observes: deferred removal looks like
    /// success, which is the entire point of that countermeasure.
    pub fn visible_success(self) -> bool {
        matches!(
            self,
            ActionOutcome::Delivered | ActionOutcome::DeferredRemoval
        )
    }

    /// Whether the action (at least initially) landed on the platform.
    pub fn landed(self) -> bool {
        self.visible_success()
    }
}

/// A fully-attributed single action event.
///
/// Event-level records are only retained for *tracked* accounts (honeypots
/// and analysis samples); bulk activity is aggregated daily (see
/// [`crate::log`]). This split is the "two-speed engine" design decision in
/// DESIGN.md §4. Its JSON form is a positional row of the day record,
/// written in [`crate::log`].
#[derive(Debug, Clone, PartialEq)]
pub struct ActionEvent {
    /// When the action was submitted.
    pub at: SimTime,
    /// Account performing the action.
    pub actor: AccountId,
    /// What the action was.
    pub action: ActionType,
    /// What it was directed at.
    pub target: ActionTarget,
    /// Source address the request came from.
    pub ip: IpAddr4,
    /// ASN of the source address.
    pub asn: AsnId,
    /// Client fingerprint of the submitting software.
    pub fingerprint: ClientFingerprint,
    /// Terminal outcome.
    pub outcome: ActionOutcome,
}

/// Per-action-type counters, one lifecycle stage per field.
///
/// This is the daily aggregation record: `attempted = delivered + blocked +
/// deferred` holds per type (enforced by the recording API). Its JSON form
/// leaves `attempted` out and the decoder recomputes it ([`crate::log`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TypeCounts {
    /// Actions submitted, per [`ActionType::index`].
    pub attempted: [u32; ActionType::COUNT],
    /// Actions delivered and still standing.
    pub delivered: [u32; ActionType::COUNT],
    /// Actions synchronously blocked.
    pub blocked: [u32; ActionType::COUNT],
    /// Actions delivered but scheduled for deferred removal.
    pub deferred: [u32; ActionType::COUNT],
}

impl TypeCounts {
    /// Record `n` actions of type `ty` with outcome `outcome`.
    pub fn record(&mut self, ty: ActionType, outcome: ActionOutcome, n: u32) {
        let i = ty.index();
        self.attempted[i] += n;
        match outcome {
            ActionOutcome::Delivered => self.delivered[i] += n,
            ActionOutcome::Blocked => self.blocked[i] += n,
            ActionOutcome::DeferredRemoval => self.deferred[i] += n,
        }
    }

    /// Total attempted actions across all types.
    pub fn total_attempted(&self) -> u32 {
        self.attempted.iter().sum()
    }

    /// Attempted actions of one type.
    pub fn attempted_of(&self, ty: ActionType) -> u32 {
        self.attempted[ty.index()]
    }

    /// Actions of one type that visibly succeeded (delivered or deferred —
    /// the client cannot tell them apart).
    pub fn visible_success_of(&self, ty: ActionType) -> u32 {
        let i = ty.index();
        self.delivered[i] + self.deferred[i]
    }

    /// Actions of one type that were synchronously blocked.
    pub fn blocked_of(&self, ty: ActionType) -> u32 {
        self.blocked[ty.index()]
    }

    /// Merge another counter set into this one.
    pub fn merge(&mut self, other: &TypeCounts) {
        for i in 0..ActionType::COUNT {
            self.attempted[i] += other.attempted[i];
            self.delivered[i] += other.delivered[i];
            self.blocked[i] += other.blocked[i];
            self.deferred[i] += other.deferred[i];
        }
    }

    /// Internal consistency: every attempt is accounted for by exactly one
    /// outcome bucket.
    pub fn is_consistent(&self) -> bool {
        (0..ActionType::COUNT).all(|i| {
            self.attempted[i] == self.delivered[i] + self.blocked[i] + self.deferred[i]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_type_indexes_are_dense_and_unique() {
        let mut seen = [false; ActionType::COUNT];
        for t in ActionType::ALL {
            assert!(!seen[t.index()]);
            seen[t.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn notification_semantics() {
        assert!(ActionType::Like.notifies_target());
        assert!(ActionType::Follow.notifies_target());
        assert!(ActionType::Comment.notifies_target());
        assert!(!ActionType::Post.notifies_target());
        assert!(!ActionType::Unfollow.notifies_target());
    }

    #[test]
    fn deferred_removal_looks_like_success_to_client() {
        assert!(ActionOutcome::DeferredRemoval.visible_success());
        assert!(ActionOutcome::Delivered.visible_success());
        assert!(!ActionOutcome::Blocked.visible_success());
    }

    #[test]
    fn type_counts_accounting() {
        let mut c = TypeCounts::default();
        c.record(ActionType::Like, ActionOutcome::Delivered, 10);
        c.record(ActionType::Like, ActionOutcome::Blocked, 3);
        c.record(ActionType::Follow, ActionOutcome::DeferredRemoval, 5);
        c.record(ActionType::Follow, ActionOutcome::Blocked, 2);
        assert!(c.is_consistent());
        assert_eq!(c.attempted_of(ActionType::Like), 13);
        assert_eq!(c.visible_success_of(ActionType::Like), 10);
        assert_eq!(c.blocked_of(ActionType::Like), 3);
        assert_eq!(c.visible_success_of(ActionType::Follow), 5);
        assert_eq!(c.deferred[ActionType::Follow.index()], 5);
        assert_eq!(c.total_attempted(), 20);
    }

    #[test]
    fn type_counts_merge() {
        let mut a = TypeCounts::default();
        a.record(ActionType::Like, ActionOutcome::Delivered, 1);
        let mut b = TypeCounts::default();
        b.record(ActionType::Like, ActionOutcome::Blocked, 2);
        b.record(ActionType::Post, ActionOutcome::Delivered, 4);
        a.merge(&b);
        assert!(a.is_consistent());
        assert_eq!(a.attempted_of(ActionType::Like), 3);
        assert_eq!(a.attempted_of(ActionType::Post), 4);
    }

    #[test]
    fn target_account_extraction() {
        assert_eq!(
            ActionTarget::Account(AccountId(5)).account(),
            Some(AccountId(5))
        );
        assert_eq!(ActionTarget::Media(MediaId(1)).account(), None);
        assert_eq!(ActionTarget::SelfContent.account(), None);
    }
}
