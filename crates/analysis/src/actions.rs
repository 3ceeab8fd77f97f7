//! Action-mix analysis (§5.3, Table 11).
//!
//! "Table 11 shows the proportion of action types performed by each AAS
//! throughout the measurement period. We normalize each value by the total
//! number actions performed by each service."

use footsteps_detect::ServiceSignature;
use footsteps_sim::prelude::*;
use serde::{Deserialize, Serialize};

/// Table 11 row: a group's action-type proportions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActionMixRow {
    /// Business group.
    pub group: ServiceGroup,
    /// Share per action type, indexed by [`ActionType::index`].
    pub shares: [f64; ActionType::COUNT],
    /// Total actions observed.
    pub total: u64,
}

impl ActionMixRow {
    /// Share of one action type.
    pub fn share_of(&self, ty: ActionType) -> f64 {
        self.shares[ty.index()]
    }
}

/// Compute a group's action mix over `[start, end)` from outbound traffic
/// matching the group's signatures (the actions the service *performed*).
pub fn action_mix(
    platform: &Platform,
    signatures: &[ServiceSignature],
    group: ServiceGroup,
    start: Day,
    end: Day,
) -> ActionMixRow {
    let sigs: Vec<&ServiceSignature> = signatures
        .iter()
        .filter(|s| group.members().contains(&s.service))
        .collect();
    let mut counts = [0u64; ActionType::COUNT];
    for log in platform.log.iter_range(start, end) {
        for (key, c) in log.outbound() {
            if sigs
                .iter()
                .any(|s| s.matches_outbound(key.asn, key.fingerprint))
            {
                for ty in ActionType::ALL {
                    counts[ty.index()] += u64::from(c.attempted_of(ty));
                }
            }
        }
    }
    let total: u64 = counts.iter().sum();
    let mut shares = [0.0; ActionType::COUNT];
    if total > 0 {
        for i in 0..ActionType::COUNT {
            shares[i] = counts[i] as f64 / total as f64;
        }
    }
    ActionMixRow { group, shares, total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use footsteps_sim::actions::ActionOutcome;
    use footsteps_sim::net::{AsnKind, AsnRegistry};
    use footsteps_sim::platform::PlatformConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    #[test]
    fn mix_is_normalised_and_signature_scoped() {
        let mut reg = AsnRegistry::new();
        let host = reg.register("host", Country::Us, AsnKind::Hosting, 1_000);
        let other = reg.register("other", Country::Us, AsnKind::Hosting, 1_000);
        let mut p = Platform::new(reg, PlatformConfig::default(), SmallRng::seed_from_u64(1));
        let fp = ClientFingerprint::SpoofedMobile { variant: 3 };
        let a = AccountId(0);
        p.log.record_outbound(Day(0), a, host, fp, ActionType::Like, ActionOutcome::Delivered, 64);
        p.log.record_outbound(Day(0), a, host, fp, ActionType::Follow, ActionOutcome::Blocked, 19);
        p.log.record_outbound(Day(0), a, host, fp, ActionType::Unfollow, ActionOutcome::Delivered, 17);
        // Traffic on an unrelated ASN must not count.
        p.log.record_outbound(Day(0), a, other, fp, ActionType::Comment, ActionOutcome::Delivered, 500);
        let sig = ServiceSignature {
            service: ServiceId::Boostgram,
            asns: BTreeSet::from([host]),
            fingerprints: BTreeSet::from([fp]),
            collusion: false,
        };
        let row = action_mix(&p, &[sig], ServiceGroup::Boostgram, Day(0), Day(1));
        assert_eq!(row.total, 100);
        assert!((row.share_of(ActionType::Like) - 0.64).abs() < 1e-9);
        assert!((row.share_of(ActionType::Follow) - 0.19).abs() < 1e-9);
        assert!((row.share_of(ActionType::Unfollow) - 0.17).abs() < 1e-9);
        assert_eq!(row.share_of(ActionType::Comment), 0.0);
        let sum: f64 = row.shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_window_yields_zero_total() {
        let mut reg = AsnRegistry::new();
        let host = reg.register("host", Country::Us, AsnKind::Hosting, 1_000);
        let p = Platform::new(reg, PlatformConfig::default(), SmallRng::seed_from_u64(1));
        let sig = ServiceSignature {
            service: ServiceId::Boostgram,
            asns: BTreeSet::from([host]),
            fingerprints: BTreeSet::from([ClientFingerprint::SpoofedMobile { variant: 3 }]),
            collusion: false,
        };
        let row = action_mix(&p, &[sig], ServiceGroup::Boostgram, Day(0), Day(10));
        assert_eq!(row.total, 0);
        assert!(row.shares.iter().all(|&s| s == 0.0));
    }
}
