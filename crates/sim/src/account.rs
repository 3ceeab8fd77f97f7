//! Accounts, profiles, and media.
//!
//! Accounts live in a dense arena ([`AccountStore`]) indexed by
//! [`AccountId`]. The simulation distinguishes profile *kinds* (organic
//! users vs the three honeypot flavours from §4.1) and models each user's
//! propensity to reciprocate inbound actions — the organic behaviour that
//! reciprocity-abuse services exploit (§3.1).

use crate::country::Country;
use crate::ids::{AccountId, AsnId, MediaId};
use crate::time::SimTime;

/// What kind of profile an account presents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfileKind {
    /// A normal platform user.
    Organic,
    /// Honeypot with the minimum viable profile: ≥10 photos of a single
    /// theme, no bio/name/profile picture, follows nobody (§4.1.1).
    HoneypotEmpty,
    /// Honeypot with a fully populated profile: photos plus unique profile
    /// picture, biography and name, following 10–20 high-profile accounts
    /// (§4.1.1).
    HoneypotLivedIn,
    /// Honeypot never registered with any service; used to establish the
    /// baseline of background activity (§4.1.3).
    HoneypotInactive,
}

impl ProfileKind {
    /// True for any of the three honeypot flavours.
    pub fn is_honeypot(self) -> bool {
        !matches!(self, ProfileKind::Organic)
    }

    /// The *perceived profile quality* multiplier applied when other users
    /// decide whether to reciprocate an action from this account. Lived-in
    /// accounts look like real people and draw roughly 1.6–2.6× the
    /// reciprocal likes of empty shells (§4.3, Table 5); organic customers
    /// of the services are real accounts and get the same benefit.
    pub fn perceived_quality(self) -> f64 {
        match self {
            ProfileKind::Organic => 1.0,
            ProfileKind::HoneypotLivedIn => 1.0,
            ProfileKind::HoneypotEmpty | ProfileKind::HoneypotInactive => 0.52,
        }
    }
}

/// Per-user propensity to respond to an inbound action notification.
///
/// The paper's Table 5 shows users overwhelmingly reciprocate *in kind*
/// (like→like, follow→follow), occasionally follow back after a like, and
/// never like back after a follow. We encode those three channels; the
/// fourth (follow→like) is structurally zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReciprocityProfile {
    /// P(send a like back | received a like), before quality scaling.
    pub like_for_like: f64,
    /// P(follow the liker | received a like), before quality scaling.
    pub follow_for_like: f64,
    /// P(follow back | received a follow), before quality scaling.
    pub follow_for_follow: f64,
}

impl ReciprocityProfile {
    /// A profile that never reciprocates (honeypots and baseline accounts:
    /// "we do not use them to perform actions on Instagram", §4.1.1).
    pub const SILENT: ReciprocityProfile = ReciprocityProfile {
        like_for_like: 0.0,
        follow_for_like: 0.0,
        follow_for_follow: 0.0,
    };

    /// Validate that all probabilities are in `[0, 1]`.
    pub fn is_valid(&self) -> bool {
        [self.like_for_like, self.follow_for_like, self.follow_for_follow]
            .iter()
            .all(|p| (0.0..=1.0).contains(p))
    }
}

/// One platform account.
#[derive(Debug, Clone)]
pub struct Account {
    /// Arena id.
    pub id: AccountId,
    /// Creation instant.
    pub created_at: SimTime,
    /// Deletion instant, if the account was deleted (honeypots are deleted
    /// at the end of the measurement, which removes their actions, §4.1.2).
    pub deleted_at: Option<SimTime>,
    /// Profile kind.
    pub kind: ProfileKind,
    /// Home country (where the user's logins geolocate to).
    pub country: Country,
    /// The residential ASN the user typically logs in from.
    pub home_asn: AsnId,
    /// Number of accounts this account follows (out-degree).
    pub following: u32,
    /// Number of accounts following this account (in-degree).
    pub followers: u32,
    /// Media posted by this account.
    pub media: Vec<MediaId>,
    /// Reciprocation behaviour.
    pub reciprocity: ReciprocityProfile,
}

impl Account {
    /// Whether the account is live (created and not deleted) at instant `t`.
    pub fn is_live_at(&self, t: SimTime) -> bool {
        self.created_at <= t && self.deleted_at.is_none_or(|d| t < d)
    }
}

/// A photo or video posted by an account.
#[derive(Debug, Clone)]
pub struct Media {
    /// Arena id.
    pub id: MediaId,
    /// Posting account.
    pub owner: AccountId,
    /// When it was posted.
    pub posted_at: SimTime,
    /// Lifetime likes received (standing; removed likes are subtracted).
    pub likes: u64,
    /// Lifetime comments received.
    pub comments: u64,
}

/// Dense arena of accounts plus a media store.
#[derive(Debug, Clone, Default)]
pub struct AccountStore {
    accounts: Vec<Account>,
    media: Vec<Media>,
}

impl AccountStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of accounts ever created (including deleted ones).
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// True if no accounts exist.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    /// Create an account and return its id.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        &mut self,
        created_at: SimTime,
        kind: ProfileKind,
        country: Country,
        home_asn: AsnId,
        following: u32,
        followers: u32,
        reciprocity: ReciprocityProfile,
    ) -> AccountId {
        debug_assert!(reciprocity.is_valid(), "invalid reciprocity profile");
        let id = AccountId(self.accounts.len() as u32);
        self.accounts.push(Account {
            id,
            created_at,
            deleted_at: None,
            kind,
            country,
            home_asn,
            following,
            followers,
            media: Vec::new(),
            reciprocity,
        });
        id
    }

    /// Borrow an account.
    pub fn get(&self, id: AccountId) -> &Account {
        &self.accounts[id.index()]
    }

    /// Mutably borrow an account.
    pub fn get_mut(&mut self, id: AccountId) -> &mut Account {
        &mut self.accounts[id.index()]
    }

    /// Iterate all accounts (including deleted).
    pub fn iter(&self) -> impl Iterator<Item = &Account> {
        self.accounts.iter()
    }

    /// Mark an account deleted at `t`. Idempotent.
    pub fn delete(&mut self, id: AccountId, t: SimTime) {
        let a = self.get_mut(id);
        if a.deleted_at.is_none() {
            a.deleted_at = Some(t);
        }
    }

    /// Post a new piece of media on `owner`'s account.
    pub fn post_media(&mut self, owner: AccountId, at: SimTime) -> MediaId {
        let id = MediaId(self.media.len() as u32);
        self.media.push(Media {
            id,
            owner,
            posted_at: at,
            likes: 0,
            comments: 0,
        });
        self.accounts[owner.index()].media.push(id);
        id
    }

    /// Borrow a media item.
    pub fn media(&self, id: MediaId) -> &Media {
        &self.media[id.index()]
    }

    /// Mutably borrow a media item.
    pub fn media_mut(&mut self, id: MediaId) -> &mut Media {
        &mut self.media[id.index()]
    }

    /// The most recently posted media of an account, if any.
    pub fn latest_media_of(&self, owner: AccountId) -> Option<MediaId> {
        self.get(owner).media.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Day;

    fn any_profile() -> ReciprocityProfile {
        ReciprocityProfile {
            like_for_like: 0.02,
            follow_for_like: 0.002,
            follow_for_follow: 0.12,
        }
    }

    #[test]
    fn create_and_lookup() {
        let mut s = AccountStore::new();
        let id = s.create(
            SimTime::EPOCH,
            ProfileKind::Organic,
            Country::Us,
            AsnId(0),
            465,
            796,
            any_profile(),
        );
        assert_eq!(s.len(), 1);
        let a = s.get(id);
        assert_eq!(a.following, 465);
        assert_eq!(a.followers, 796);
        assert!(a.is_live_at(SimTime::EPOCH));
    }

    #[test]
    fn deletion_is_idempotent_and_affects_liveness() {
        let mut s = AccountStore::new();
        let id = s.create(
            SimTime::EPOCH,
            ProfileKind::HoneypotEmpty,
            Country::Us,
            AsnId(0),
            0,
            0,
            ReciprocityProfile::SILENT,
        );
        let t = Day(10).start();
        s.delete(id, t);
        s.delete(id, Day(20).start()); // idempotent: keeps the first time
        assert_eq!(s.get(id).deleted_at, Some(t));
        assert!(s.get(id).is_live_at(Day(5).start()));
        assert!(!s.get(id).is_live_at(Day(10).start()));
    }

    #[test]
    fn liveness_before_creation_is_false() {
        let mut s = AccountStore::new();
        let id = s.create(
            Day(5).start(),
            ProfileKind::Organic,
            Country::Id,
            AsnId(1),
            10,
            10,
            any_profile(),
        );
        assert!(!s.get(id).is_live_at(Day(4).start()));
        assert!(s.get(id).is_live_at(Day(5).start()));
    }

    #[test]
    fn media_posting_links_to_owner() {
        let mut s = AccountStore::new();
        let id = s.create(
            SimTime::EPOCH,
            ProfileKind::Organic,
            Country::Br,
            AsnId(0),
            1,
            1,
            any_profile(),
        );
        let m1 = s.post_media(id, Day(1).start());
        let m2 = s.post_media(id, Day(2).start());
        assert_eq!(s.get(id).media, vec![m1, m2]);
        assert_eq!(s.latest_media_of(id), Some(m2));
        assert_eq!(s.media(m1).owner, id);
    }

    #[test]
    fn empty_profiles_are_perceived_worse_than_lived_in() {
        assert!(
            ProfileKind::HoneypotEmpty.perceived_quality()
                < ProfileKind::HoneypotLivedIn.perceived_quality()
        );
        assert_eq!(ProfileKind::Organic.perceived_quality(), 1.0);
    }

    #[test]
    fn silent_profile_is_valid_and_never_responds() {
        assert!(ReciprocityProfile::SILENT.is_valid());
        assert_eq!(ReciprocityProfile::SILENT.like_for_like, 0.0);
    }

    #[test]
    fn honeypot_kinds() {
        assert!(ProfileKind::HoneypotEmpty.is_honeypot());
        assert!(ProfileKind::HoneypotLivedIn.is_honeypot());
        assert!(ProfileKind::HoneypotInactive.is_honeypot());
        assert!(!ProfileKind::Organic.is_honeypot());
    }
}
