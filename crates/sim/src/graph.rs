//! The follow graph.
//!
//! A full edge store for hundreds of thousands of simulated users would be
//! wasteful: the measurement pipeline only ever inspects *degrees* of
//! organic accounts (Figures 3/4 compare follower/following counts), while
//! exact edge sets matter only for *tracked* accounts — honeypots (whose
//! inbound follow events are the ground truth of §4) and countermeasure
//! bookkeeping (delayed removal must undo specific follows).
//!
//! The graph therefore stores:
//! * degree counters on every account (owned by [`crate::account::Account`]);
//! * exact follower/following lists for accounts explicitly marked *tracked*.
//!
//! Tracked membership is a dense `Vec<u32>` slot map indexed by account id,
//! and each tracked account's edges are sorted `Vec<AccountId>` lists, so
//! the per-action path (dup check, insert, remove) is hash-free and
//! iteration order is deterministic by construction.
//!
//! This is the scalability design documented in DESIGN.md; it mirrors how
//! production measurement systems aggregate.

use crate::account::AccountStore;
use crate::ids::AccountId;

/// Sentinel slot for untracked accounts.
const NONE: u32 = u32::MAX;

/// Outcome of attempting to add a follow edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FollowResult {
    /// A new edge was created.
    Created,
    /// The edge already existed (tracked endpoints only; untracked edges are
    /// approximated as always-new, which is accurate because services
    /// deduplicate their own target lists).
    AlreadyFollowing,
    /// Self-follows are rejected.
    SelfFollow,
}

/// The follow graph with tracked-edge refinement.
#[derive(Debug, Clone, Default)]
pub struct SocialGraph {
    /// Account id → tracked slot; `NONE` marks untracked accounts.
    tracked_slot: Vec<u32>,
    /// Slot-indexed sorted follower lists (who follows the slot's account).
    followers: Vec<Vec<AccountId>>,
    /// Slot-indexed sorted following lists (whom the slot's account follows).
    following: Vec<Vec<AccountId>>,
}

impl SocialGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot_of(&self, id: AccountId) -> Option<usize> {
        match self.tracked_slot.get(id.index()).copied() {
            Some(s) if s != NONE => Some(s as usize),
            _ => None,
        }
    }

    /// Mark an account as tracked, so its exact edges are maintained from
    /// now on. (Pre-existing untracked edges are not reconstructed; track
    /// accounts at creation time.)
    pub fn track(&mut self, id: AccountId) {
        if id.index() >= self.tracked_slot.len() {
            self.tracked_slot.resize(id.index() + 1, NONE);
        }
        if self.tracked_slot[id.index()] == NONE {
            self.tracked_slot[id.index()] = u32::try_from(self.followers.len())
                .expect("tracked-account count fits in u32");
            self.followers.push(Vec::new());
            self.following.push(Vec::new());
        }
    }

    /// Whether an account's exact edges are maintained.
    pub fn is_tracked(&self, id: AccountId) -> bool {
        self.slot_of(id).is_some()
    }

    /// Add a follow edge `from -> to`, updating degree counters and (for
    /// tracked endpoints) exact lists.
    pub fn follow(
        &mut self,
        accounts: &mut AccountStore,
        from: AccountId,
        to: AccountId,
    ) -> FollowResult {
        if from == to {
            return FollowResult::SelfFollow;
        }
        let from_slot = self.slot_of(from);
        let to_slot = self.slot_of(to);
        if from_slot.is_some() || to_slot.is_some() {
            // Check duplicates on whichever exact list we have.
            let dup = if let Some(s) = from_slot {
                self.following[s].binary_search(&to).is_ok()
            } else {
                // to_slot is Some here.
                self.followers[to_slot.unwrap()].binary_search(&from).is_ok()
            };
            if dup {
                return FollowResult::AlreadyFollowing;
            }
            if let Some(s) = from_slot {
                let pos = self.following[s].binary_search(&to).unwrap_err();
                self.following[s].insert(pos, to);
            }
            if let Some(s) = to_slot {
                let pos = self.followers[s].binary_search(&from).unwrap_err();
                self.followers[s].insert(pos, from);
            }
        }
        accounts.get_mut(from).following += 1;
        accounts.get_mut(to).followers += 1;
        FollowResult::Created
    }

    /// Remove a follow edge `from -> to`. Returns `true` if (as far as the
    /// graph can tell) an edge was removed. For untracked pairs this is
    /// approximate: counters are decremented saturating at zero.
    pub fn unfollow(
        &mut self,
        accounts: &mut AccountStore,
        from: AccountId,
        to: AccountId,
    ) -> bool {
        if from == to {
            return false;
        }
        let from_slot = self.slot_of(from);
        let to_slot = self.slot_of(to);
        if from_slot.is_some() || to_slot.is_some() {
            let existed_from = from_slot.is_some_and(|s| {
                match self.following[s].binary_search(&to) {
                    Ok(pos) => {
                        self.following[s].remove(pos);
                        true
                    }
                    Err(_) => false,
                }
            });
            let existed_to = to_slot.is_some_and(|s| {
                match self.followers[s].binary_search(&from) {
                    Ok(pos) => {
                        self.followers[s].remove(pos);
                        true
                    }
                    Err(_) => false,
                }
            });
            if !existed_from && !existed_to {
                return false;
            }
        }
        let f = accounts.get_mut(from);
        f.following = f.following.saturating_sub(1);
        let t = accounts.get_mut(to);
        t.followers = t.followers.saturating_sub(1);
        true
    }

    /// Exact follower list of a tracked account, sorted by id.
    ///
    /// # Panics
    /// Panics if the account is not tracked — callers must not confuse the
    /// approximate and exact worlds.
    pub fn followers_of(&self, id: AccountId) -> &[AccountId] {
        let slot = self
            .slot_of(id)
            .unwrap_or_else(|| panic!("{id} is not tracked"));
        &self.followers[slot]
    }

    /// Exact following list of a tracked account, sorted by id.
    ///
    /// # Panics
    /// Panics if the account is not tracked.
    pub fn following_of(&self, id: AccountId) -> &[AccountId] {
        let slot = self
            .slot_of(id)
            .unwrap_or_else(|| panic!("{id} is not tracked"));
        &self.following[slot]
    }

    /// Drop all edges touching a tracked account (used when a honeypot is
    /// deleted: "all actions to or from the account are eventually removed",
    /// §4.1.1). Degree counters of the counterparties are restored.
    pub fn purge_account(&mut self, accounts: &mut AccountStore, id: AccountId) {
        let Some(slot) = self.slot_of(id) else { return };
        let followers = std::mem::take(&mut self.followers[slot]);
        for f in followers {
            // The victim's own list was already taken; fix up the
            // counterparty's list and both degree counters directly.
            if let Some(fs) = self.slot_of(f) {
                if let Ok(pos) = self.following[fs].binary_search(&id) {
                    self.following[fs].remove(pos);
                }
            }
            let a = accounts.get_mut(f);
            a.following = a.following.saturating_sub(1);
            let v = accounts.get_mut(id);
            v.followers = v.followers.saturating_sub(1);
        }
        let following = std::mem::take(&mut self.following[slot]);
        for t in following {
            if let Some(ts) = self.slot_of(t) {
                if let Ok(pos) = self.followers[ts].binary_search(&id) {
                    self.followers[ts].remove(pos);
                }
            }
            let a = accounts.get_mut(t);
            a.followers = a.followers.saturating_sub(1);
            let v = accounts.get_mut(id);
            v.following = v.following.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::{ProfileKind, ReciprocityProfile};
    use crate::country::Country;
    use crate::ids::AsnId;
    use crate::time::SimTime;

    fn store_with(n: usize) -> AccountStore {
        let mut s = AccountStore::new();
        for _ in 0..n {
            s.create(
                SimTime::EPOCH,
                ProfileKind::Organic,
                Country::Us,
                AsnId(0),
                0,
                0,
                ReciprocityProfile::SILENT,
            );
        }
        s
    }

    #[test]
    fn follow_updates_degrees() {
        let mut accounts = store_with(3);
        let mut g = SocialGraph::new();
        assert_eq!(
            g.follow(&mut accounts, AccountId(0), AccountId(1)),
            FollowResult::Created
        );
        assert_eq!(accounts.get(AccountId(0)).following, 1);
        assert_eq!(accounts.get(AccountId(1)).followers, 1);
    }

    #[test]
    fn self_follow_rejected() {
        let mut accounts = store_with(1);
        let mut g = SocialGraph::new();
        assert_eq!(
            g.follow(&mut accounts, AccountId(0), AccountId(0)),
            FollowResult::SelfFollow
        );
        assert_eq!(accounts.get(AccountId(0)).following, 0);
    }

    #[test]
    fn tracked_accounts_deduplicate_edges() {
        let mut accounts = store_with(2);
        let mut g = SocialGraph::new();
        g.track(AccountId(1));
        assert_eq!(
            g.follow(&mut accounts, AccountId(0), AccountId(1)),
            FollowResult::Created
        );
        assert_eq!(
            g.follow(&mut accounts, AccountId(0), AccountId(1)),
            FollowResult::AlreadyFollowing
        );
        assert_eq!(accounts.get(AccountId(1)).followers, 1);
        assert!(g.followers_of(AccountId(1)).contains(&AccountId(0)));
    }

    #[test]
    fn unfollow_tracked_edge() {
        let mut accounts = store_with(2);
        let mut g = SocialGraph::new();
        g.track(AccountId(0));
        g.follow(&mut accounts, AccountId(0), AccountId(1));
        assert!(g.unfollow(&mut accounts, AccountId(0), AccountId(1)));
        assert_eq!(accounts.get(AccountId(0)).following, 0);
        assert_eq!(accounts.get(AccountId(1)).followers, 0);
        // Second removal reports no edge.
        assert!(!g.unfollow(&mut accounts, AccountId(0), AccountId(1)));
        assert_eq!(accounts.get(AccountId(1)).followers, 0, "no underflow");
    }

    #[test]
    fn untracked_unfollow_is_approximate_but_saturating() {
        let mut accounts = store_with(2);
        let mut g = SocialGraph::new();
        g.follow(&mut accounts, AccountId(0), AccountId(1));
        assert!(g.unfollow(&mut accounts, AccountId(0), AccountId(1)));
        // Approximate world: a second unfollow still "succeeds" but degrees
        // saturate at zero rather than underflowing.
        assert!(g.unfollow(&mut accounts, AccountId(0), AccountId(1)));
        assert_eq!(accounts.get(AccountId(0)).following, 0);
        assert_eq!(accounts.get(AccountId(1)).followers, 0);
    }

    #[test]
    fn purge_restores_counterparty_degrees() {
        let mut accounts = store_with(4);
        let mut g = SocialGraph::new();
        let hp = AccountId(0);
        g.track(hp);
        // Two inbound, one outbound edge.
        g.follow(&mut accounts, AccountId(1), hp);
        g.follow(&mut accounts, AccountId(2), hp);
        g.follow(&mut accounts, hp, AccountId(3));
        g.purge_account(&mut accounts, hp);
        assert_eq!(accounts.get(hp).followers, 0);
        assert_eq!(accounts.get(hp).following, 0);
        assert_eq!(accounts.get(AccountId(1)).following, 0);
        assert_eq!(accounts.get(AccountId(2)).following, 0);
        assert_eq!(accounts.get(AccountId(3)).followers, 0);
        assert!(g.followers_of(hp).is_empty());
        assert!(g.following_of(hp).is_empty());
    }

    #[test]
    fn adjacency_lists_stay_sorted() {
        let mut accounts = store_with(6);
        let mut g = SocialGraph::new();
        let hp = AccountId(2);
        g.track(hp);
        for from in [5u32, 1, 4, 0, 3] {
            g.follow(&mut accounts, AccountId(from), hp);
        }
        let followers = g.followers_of(hp);
        assert!(followers.windows(2).all(|w| w[0] < w[1]), "{followers:?}");
        assert_eq!(followers.len(), 5);
    }

    #[test]
    fn tracking_twice_is_idempotent() {
        let mut accounts = store_with(2);
        let mut g = SocialGraph::new();
        g.track(AccountId(1));
        g.follow(&mut accounts, AccountId(0), AccountId(1));
        g.track(AccountId(1));
        assert_eq!(g.followers_of(AccountId(1)).len(), 1, "edges survive re-track");
    }

    #[test]
    #[should_panic(expected = "not tracked")]
    fn exact_sets_of_untracked_panic() {
        let g = SocialGraph::new();
        g.followers_of(AccountId(0));
    }
}
