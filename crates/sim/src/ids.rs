//! Strongly-typed identifiers used throughout the simulation.
//!
//! Every entity in the platform substrate (accounts, media, autonomous
//! systems, services) is referred to by a small copyable id newtype. Using
//! distinct types prevents the classic "passed a media id where an account id
//! was expected" bug at compile time, and keeps all cross-crate interfaces
//! cheap to copy.
//!
//! Maps and sets keyed by these ids are [`IdMap`]s and [`IdSet`]s: std's
//! hash containers with [`IdHasher`], one multiply-rotate step per
//! integer word instead of SipHash. The ids are the simulation's own
//! small integers, not attacker-chosen input, so a keyed hash buys
//! nothing here.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// An FxHash-style hasher for integer keys: each word written is rotated
/// into the state and multiplied by an odd constant.
///
/// Its output is the same in every process, so the iteration order of an
/// [`IdMap`] is repeatable. Nothing may depend on it all the same: the
/// determinism lint's `nondet-iter` rule flags iteration over these maps
/// as it does over std's.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    /// FxHash's 64-bit multiplier.
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` keyed by ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of ids, hashed with [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Raw index of this id (useful for arena indexing).
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            #[inline]
            fn from(v: u32) -> Self {
                Self(v)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifier of a platform account (an "Instagram user" in the paper).
    AccountId
);
id_type!(
    /// Identifier of a piece of media (a photo/video posted by an account).
    MediaId
);
id_type!(
    /// Identifier of an autonomous system in the synthetic internet model.
    AsnId
);

/// Identifier of one of the studied account-automation services.
///
/// The set of services is closed (the paper studies exactly five), so this is
/// an enum rather than a numeric id; it lives here because the *platform*
/// attributes activity to services in its ground-truth ledger, even though
/// service behaviour itself is implemented in `footsteps-aas`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ServiceId {
    /// Instalex — reciprocity abuse, franchise of the same parent as Instazood.
    Instalex,
    /// Instazood — reciprocity abuse, franchise of the same parent as Instalex.
    Instazood,
    /// Boostgram — reciprocity abuse.
    Boostgram,
    /// Hublaagram — collusion network.
    Hublaagram,
    /// Followersgratis — collusion network (small IP pool, well-policed).
    Followersgratis,
}

impl ServiceId {
    /// All five studied services, in the paper's presentation order.
    pub const ALL: [ServiceId; 5] = [
        ServiceId::Instalex,
        ServiceId::Instazood,
        ServiceId::Boostgram,
        ServiceId::Hublaagram,
        ServiceId::Followersgratis,
    ];

    /// The three reciprocity-abuse services.
    pub const RECIPROCITY: [ServiceId; 3] = [
        ServiceId::Instalex,
        ServiceId::Instazood,
        ServiceId::Boostgram,
    ];

    /// The two collusion-network services.
    pub const COLLUSION: [ServiceId; 2] = [ServiceId::Hublaagram, ServiceId::Followersgratis];

    /// Human-readable service name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            ServiceId::Instalex => "Instalex",
            ServiceId::Instazood => "Instazood",
            ServiceId::Boostgram => "Boostgram",
            ServiceId::Hublaagram => "Hublaagram",
            ServiceId::Followersgratis => "Followersgratis",
        }
    }

    /// Lowercase identifier for metric keys (`actions.instalex.follow`).
    pub fn slug(self) -> &'static str {
        match self {
            ServiceId::Instalex => "instalex",
            ServiceId::Instazood => "instazood",
            ServiceId::Boostgram => "boostgram",
            ServiceId::Hublaagram => "hublaagram",
            ServiceId::Followersgratis => "followersgratis",
        }
    }

    /// `true` if the service uses the reciprocity-abuse technique (§3.1).
    pub fn is_reciprocity(self) -> bool {
        matches!(
            self,
            ServiceId::Instalex | ServiceId::Instazood | ServiceId::Boostgram
        )
    }

    /// `true` if the service runs a collusion network (§3.2).
    pub fn is_collusion(self) -> bool {
        !self.is_reciprocity()
    }

    /// Stable small index (0..5) for array-indexed per-service state.
    pub fn index(self) -> usize {
        match self {
            ServiceId::Instalex => 0,
            ServiceId::Instazood => 1,
            ServiceId::Boostgram => 2,
            ServiceId::Hublaagram => 3,
            ServiceId::Followersgratis => 4,
        }
    }
}

impl std::fmt::Display for ServiceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A "franchise group": Instalex and Instazood are independently operated
/// franchisees of the same parent organisation. §5 of the paper combines
/// their activity as **Insta\*** because individual franchises cannot be
/// distinguished from the platform's vantage point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ServiceGroup {
    /// Instalex + Instazood combined.
    InstaStar,
    /// Boostgram alone.
    Boostgram,
    /// Hublaagram alone.
    Hublaagram,
    /// Followersgratis alone (excluded from most of §5 in the paper).
    Followersgratis,
}

impl ServiceGroup {
    /// Groups analysed in the business sections of the paper (§5), which
    /// exclude Followersgratis.
    pub const BUSINESS: [ServiceGroup; 3] = [
        ServiceGroup::InstaStar,
        ServiceGroup::Boostgram,
        ServiceGroup::Hublaagram,
    ];

    /// Map a concrete service to its analysis group.
    pub fn of(service: ServiceId) -> Self {
        match service {
            ServiceId::Instalex | ServiceId::Instazood => ServiceGroup::InstaStar,
            ServiceId::Boostgram => ServiceGroup::Boostgram,
            ServiceId::Hublaagram => ServiceGroup::Hublaagram,
            ServiceId::Followersgratis => ServiceGroup::Followersgratis,
        }
    }

    /// Display name matching the paper's tables ("Insta*").
    pub fn name(self) -> &'static str {
        match self {
            ServiceGroup::InstaStar => "Insta*",
            ServiceGroup::Boostgram => "Boostgram",
            ServiceGroup::Hublaagram => "Hublaagram",
            ServiceGroup::Followersgratis => "Followersgratis",
        }
    }

    /// Member services of this group.
    pub fn members(self) -> &'static [ServiceId] {
        match self {
            ServiceGroup::InstaStar => &[ServiceId::Instalex, ServiceId::Instazood],
            ServiceGroup::Boostgram => &[ServiceId::Boostgram],
            ServiceGroup::Hublaagram => &[ServiceId::Hublaagram],
            ServiceGroup::Followersgratis => &[ServiceId::Followersgratis],
        }
    }
}

impl std::fmt::Display for ServiceGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip_and_display() {
        let a = AccountId::from(42);
        assert_eq!(a.index(), 42);
        assert_eq!(a.to_string(), "AccountId(42)");
        assert_eq!(AccountId(42), a);
    }

    #[test]
    fn id_maps_key_by_value() {
        let mut m: IdMap<(AccountId, usize), u32> = IdMap::default();
        for a in 0..1_000u32 {
            *m.entry((AccountId(a % 100), (a % 3) as usize)).or_default() += 1;
        }
        assert_eq!(m.len(), 300);
        assert_eq!(m[&(AccountId(7), 1)], 4);
        let s: IdSet<AccountId> = (0..50).map(AccountId).collect();
        assert!(s.contains(&AccountId(49)) && !s.contains(&AccountId(50)));
    }

    #[test]
    fn service_partition_is_complete_and_disjoint() {
        for s in ServiceId::ALL {
            assert_ne!(s.is_reciprocity(), s.is_collusion());
        }
        assert_eq!(
            ServiceId::RECIPROCITY.len() + ServiceId::COLLUSION.len(),
            ServiceId::ALL.len()
        );
    }

    #[test]
    fn service_indexes_are_unique() {
        let mut seen = [false; 5];
        for s in ServiceId::ALL {
            assert!(!seen[s.index()], "duplicate index for {s}");
            seen[s.index()] = true;
        }
    }

    #[test]
    fn franchise_grouping_combines_instalex_and_instazood() {
        assert_eq!(ServiceGroup::of(ServiceId::Instalex), ServiceGroup::InstaStar);
        assert_eq!(ServiceGroup::of(ServiceId::Instazood), ServiceGroup::InstaStar);
        assert_eq!(ServiceGroup::InstaStar.members().len(), 2);
        assert_eq!(ServiceGroup::InstaStar.name(), "Insta*");
    }

    #[test]
    fn business_groups_exclude_followersgratis() {
        assert!(!ServiceGroup::BUSINESS.contains(&ServiceGroup::Followersgratis));
        assert_eq!(ServiceGroup::BUSINESS.len(), 3);
    }
}
