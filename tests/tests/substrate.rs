//! Cross-crate substrate scenarios: enforcement lifecycles and accounting
//! invariants exercised through the public APIs of several crates at once.

use footsteps_detect::ThresholdTable;
use footsteps_intervene::{BinAssignment, BinPolicy, ExperimentPolicy};
use footsteps_sim::account::{ProfileKind, ReciprocityProfile};
use footsteps_sim::enforcement::Direction;
use footsteps_sim::net::{AsnKind, AsnRegistry};
use footsteps_sim::platform::{BatchRequest, Platform, PlatformConfig, PoolStats};
use footsteps_sim::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn platform() -> (Platform, AsnId, AsnId) {
    let mut reg = AsnRegistry::new();
    let res = reg.register("res", Country::Us, AsnKind::Residential, 10_000);
    let host = reg.register("host", Country::Us, AsnKind::Hosting, 10_000);
    (
        Platform::new(reg, PlatformConfig::default(), SmallRng::seed_from_u64(1)),
        res,
        host,
    )
}

fn organic(p: &mut Platform, res: AsnId) -> AccountId {
    p.accounts.create(
        SimTime::EPOCH,
        ProfileKind::Organic,
        Country::Us,
        res,
        100,
        100,
        ReciprocityProfile::SILENT,
    )
}

/// An account in a given intervention bin (found by scanning ids).
fn account_in_bin(p: &mut Platform, res: AsnId, bin: u32) -> AccountId {
    loop {
        let a = organic(p, res);
        if footsteps_intervene::bin_of(a) == bin {
            return a;
        }
    }
}

#[test]
fn experiment_policy_drives_platform_outcomes_end_to_end() {
    let (mut p, res, host) = platform();
    let mut thresholds = ThresholdTable::default();
    thresholds.set(host, ActionType::Follow, Direction::Outbound, 25);
    let blocked = account_in_bin(&mut p, res, 0);
    let delayed = account_in_bin(&mut p, res, 1);
    let control = account_in_bin(&mut p, res, 2);
    p.set_policy(Box::new(ExperimentPolicy::new(
        thresholds,
        BinAssignment::narrow(),
    )));
    p.begin_day(Day(0));
    let req = |actor| BatchRequest {
        actor,
        action: ActionType::Follow,
        count: 100,
        asn: host,
        ip: IpAddr4(0x0100_0000 + 10_000),
        fingerprint: ClientFingerprint::SpoofedMobile { variant: 9 },
        pool: PoolStats::INERT,
        service: Some(ServiceId::Boostgram),
    };
    let rb = p.submit_batch(req(blocked));
    let rd = p.submit_batch(req(delayed));
    let rc = p.submit_batch(req(control));
    // Blocked: 25 pass, 75 visibly fail.
    assert_eq!((rb.delivered, rb.blocked, rb.deferred), (25, 75, 0));
    // Delayed: everything visibly succeeds, 75 deferred.
    assert_eq!((rd.delivered, rd.deferred, rd.blocked), (25, 75, 0));
    assert_eq!(rd.visible_success(), 100);
    // Control: untouched.
    assert_eq!(rc.delivered, 100);
    // Overnight, the deferred follows vanish — only for the delay account.
    assert_eq!(p.accounts.get(delayed).following, 200);
    p.begin_day(Day(1));
    assert_eq!(p.accounts.get(delayed).following, 125);
    assert_eq!(p.accounts.get(blocked).following, 125);
    assert_eq!(p.accounts.get(control).following, 200);
    assert_eq!(p.obs.metrics.snapshot().counter("platform.removed_follows"), 75);
}

#[test]
fn inbound_enforcement_is_independent_of_outbound() {
    let (mut p, res, host) = platform();
    let mut thresholds = ThresholdTable::default();
    thresholds.set(host, ActionType::Like, Direction::Inbound, 40);
    let recipient = account_in_bin(&mut p, res, 0); // treated bin
    p.set_policy(Box::new(ExperimentPolicy::new(
        thresholds,
        BinAssignment::broad(BinPolicy::Block),
    )));
    p.begin_day(Day(0));
    // Outbound likes from the same account via the same ASN are NOT
    // thresholded (the table entry is inbound-only).
    let out = p.submit_batch(BatchRequest {
        actor: recipient,
        action: ActionType::Like,
        count: 100,
        asn: host,
        ip: IpAddr4(0x0100_0000 + 10_001),
        fingerprint: ClientFingerprint::SpoofedMobile { variant: 4 },
        pool: PoolStats::INERT,
        service: Some(ServiceId::Hublaagram),
    });
    assert_eq!(out.delivered, 100);
    // Inbound deliveries above 40 are blocked.
    let deposit = |p: &mut Platform, requested| {
        p.deposit(&DepositOp {
            target: recipient,
            ty: ActionType::Like,
            requested,
            asn: host,
            service: Some(ServiceId::Hublaagram),
            media: None,
        })
    };
    let dep = deposit(&mut p, 100);
    assert_eq!(dep.delivered, 40);
    assert_eq!(dep.blocked, 60);
    // A second deposit the same day is fully blocked (prior counted).
    let dep2 = deposit(&mut p, 50);
    assert_eq!(dep2.delivered, 0);
    assert_eq!(dep2.blocked, 50);
}

#[test]
fn organic_reciprocation_survives_countermeasures_on_control() {
    let (mut p, res, host) = platform();
    let a = organic(&mut p, res);
    p.begin_day(Day(0));
    let pool = PoolStats { like_for_like: 0.0, follow_for_like: 0.0, follow_for_follow: 0.3 };
    p.submit_batch(BatchRequest {
        actor: a,
        action: ActionType::Follow,
        count: 1_000,
        asn: host,
        ip: IpAddr4(0x0100_0000 + 10_002),
        fingerprint: ClientFingerprint::SpoofedMobile { variant: 3 },
        pool,
        service: Some(ServiceId::Boostgram),
    });
    for d in 1..8u32 {
        p.begin_day(Day(d));
    }
    let inbound = p.log.total_inbound(a, ActionType::Follow, Day(0), Day(8));
    // Expected ≈ 1000 × 0.3 × quality^0.25(=1 for organic) = ~300.
    assert!((150..450).contains(&(inbound as i64)), "inbound {inbound}");
    assert_eq!(u64::from(p.accounts.get(a).followers), 100 + inbound);
}
