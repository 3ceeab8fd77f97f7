//! Service signatures from honeypot ground truth.
//!
//! "Based on features gathered from our honeypot accounts, such as the type
//! of action, commonly tracked information about the client (e.g., IP
//! address, ASN), and additional signals produced within Instagram, we can
//! identify the actions initiated by each AAS" (§5).
//!
//! A signature is the set of `(ASN, client fingerprint)` pairs observed
//! driving honeypot accounts enrolled with a service. Learning uses *only*
//! honeypot-observable data (the event streams of the roster's accounts),
//! never the simulator's ground-truth attribution.

use footsteps_honeypot::HoneypotFramework;
use footsteps_sim::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Network+client signature of one service. Both sets are BTrees, so every
/// consumer, and the verdict snapshot's JSON, sees them in key order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ServiceSignature {
    /// The service this signature describes.
    pub service: ServiceId,
    /// ASNs the service's platform traffic originates from.
    pub asns: BTreeSet<AsnId>,
    /// Client fingerprints of its automation stack.
    pub fingerprints: BTreeSet<ClientFingerprint>,
    /// Whether the service's signature traffic is *inbound* to customer
    /// accounts (collusion networks) in addition to outbound.
    pub collusion: bool,
}

impl ServiceSignature {
    /// Whether an outbound record key matches this signature.
    pub fn matches_outbound(&self, asn: AsnId, fingerprint: ClientFingerprint) -> bool {
        self.asns.contains(&asn) && self.fingerprints.contains(&fingerprint)
    }

    /// Whether inbound traffic from `asn` matches this signature (collusion
    /// services only — reciprocity services do not deliver inbound actions
    /// themselves).
    pub fn matches_inbound(&self, asn: AsnId) -> bool {
        self.collusion && self.asns.contains(&asn)
    }
}

/// One honeypot of the roster, the detector's only ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RosterEntry {
    /// The honeypot account.
    pub account: AccountId,
    /// Its home ASN (first-party management traffic comes from here).
    pub home_asn: AsnId,
    /// The service the honeypot was enrolled with.
    pub service: ServiceId,
}

/// Every framework honeypot enrolled with a service.
pub fn roster(framework: &HoneypotFramework, platform: &Platform) -> Vec<RosterEntry> {
    framework
        .records()
        .iter()
        .filter_map(|r| {
            Some(RosterEntry {
                account: r.account,
                home_asn: platform.accounts.get(r.account).home_asn,
                service: r.service?,
            })
        })
        .collect()
}

/// Signatures learned from the roster's events, one day at a time. A
/// service has a signature from the first day one of its honeypots shows
/// service traffic.
#[derive(Debug, Clone, Default)]
pub struct SignatureLearner {
    /// `account → (home ASN, service)` for every roster honeypot.
    watch: BTreeMap<AccountId, (AsnId, ServiceId)>,
    /// Learned signatures, in `ServiceId` order.
    signatures: Vec<ServiceSignature>,
}

impl SignatureLearner {
    /// A learner watching `roster`, with no signatures yet.
    pub fn new(roster: &[RosterEntry]) -> Self {
        let watch = roster.iter().map(|r| (r.account, (r.home_asn, r.service))).collect();
        Self { watch, ..Self::default() }
    }

    /// Grow the signatures from one day's honeypot events.
    pub fn learn_day(&mut self, day: &DayLog) {
        for ev in &day.events {
            let Some(&(home, service)) = self.watch.get(&ev.actor) else { continue };
            // The framework's own management traffic (photo uploads,
            // lived-in setup) comes from the home network with first-party
            // clients; everything else on the account is the service.
            if ev.asn == home && ev.fingerprint.is_organic_client() {
                continue;
            }
            let i = match self.signatures.binary_search_by_key(&service, |s| s.service) {
                Ok(i) => i,
                Err(i) => {
                    self.signatures.insert(i, ServiceSignature {
                        service,
                        asns: BTreeSet::new(),
                        fingerprints: BTreeSet::new(),
                        collusion: service.is_collusion(),
                    });
                    i
                }
            };
            self.signatures[i].asns.insert(ev.asn);
            self.signatures[i].fingerprints.insert(ev.fingerprint);
        }
    }

    /// The signatures learned so far, in `ServiceId` order.
    pub fn signatures(&self) -> &[ServiceSignature] {
        &self.signatures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use footsteps_aas::{presets, PaymentLedger, ReciprocityService, Service};
    use footsteps_honeypot::{run_campaign, HoneypotFramework};
    use footsteps_sim::population::{synthesize, PopulationConfig, ResidentialIndex};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn signature_is_learned_from_honeypots_only() {
        let mut reg = AsnRegistry::new();
        for c in Country::ALL {
            reg.register(&format!("res-{}", c.code()), c, AsnKind::Residential, 50_000);
        }
        let host = reg.register("bg-host", Country::Us, AsnKind::Hosting, 10_000);
        let residential = ResidentialIndex::build(&reg);
        let mut platform =
            Platform::new(reg, PlatformConfig::default(), SmallRng::seed_from_u64(50));
        let mut rng = SmallRng::seed_from_u64(51);
        let pop = synthesize(
            &mut platform.accounts,
            &residential,
            &PopulationConfig { size: 3_000, ..PopulationConfig::default() },
            &mut rng,
        );
        let mut svc = {
            let mut cfg = presets::boostgram_config(0.01);
            cfg.pool_size = 400;
            cfg.lifecycle.arrival_rate = 1.0;
            cfg.lifecycle.initial_long_term = 5;
            Service::Reciprocity(ReciprocityService::new(
                cfg,
                &platform.accounts,
                &pop,
                vec![host],
                SmallRng::seed_from_u64(52),
            ))
        };
        let mut framework = HoneypotFramework::new(AsnId(0), SmallRng::seed_from_u64(53));
        let mut ledger = PaymentLedger::new();
        platform.begin_day(Day(0));
        framework.setup_celebrities(&mut platform, 20);
        svc.seed_initial_customers(&mut platform, &residential, &mut ledger, Day(0));
        run_campaign(&mut framework, &mut platform, &mut svc, &mut ledger, Day(0), 3, 0);
        for d in 0..4u32 {
            platform.begin_day(Day(d));
            svc.run_day(&mut platform, &residential, &mut ledger, Day(d));
        }
        let mut learner = SignatureLearner::new(&roster(&framework, &platform));
        for day in platform.log.iter_range(Day(0), Day(4)) {
            learner.learn_day(day);
        }
        let find = |service| learner.signatures().iter().find(|s| s.service == service);
        let sig = find(ServiceId::Boostgram).expect("signature learned");
        assert!(sig.asns.contains(&host));
        assert_eq!(sig.asns.len(), 1, "only the service's hosting ASN");
        assert!(sig
            .fingerprints
            .iter()
            .all(|f| f.is_spoofed()), "only spoofed private-API clients");
        assert!(!sig.collusion);
        assert!(sig.matches_outbound(host, ClientFingerprint::SpoofedMobile { variant: 3 }));
        assert!(!sig.matches_outbound(AsnId(0), ClientFingerprint::OfficialApp));
        assert!(!sig.matches_inbound(host), "reciprocity signatures are outbound-only");
        // No honeypots with Instalex → no signature.
        assert!(find(ServiceId::Instalex).is_none());
    }
}
