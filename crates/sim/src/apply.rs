//! Sharded apply phase for inbound deposit batches (DESIGN.md §4).
//!
//! The three-phase daily engine splits a collusion service-day into **plan**
//! (parallel, per-customer decisions), **route** (serial, deterministic: the
//! plans are walked in roster order and flattened into a sequence of
//! [`DepositOp`]s), and **apply** (parallel again: the ops are partitioned by
//! *target account* into dense-ID range shards and executed concurrently).
//! This is the platform's only enforced inbound path.
//!
//! Its reference is the serial ladder: `Platform::deposit_inbound_enforced`
//! applied once per op in routing order. That ladder is test-only; the
//! `sharded_apply_matches_serial_reference` property test compares the two
//! for every shard count.
//!
//! Determinism argument, in brief:
//!
//! * every op carries its routing sequence number `seq` (its position in the
//!   serial reference order), and ops for one target always land in the same
//!   shard, in ascending `seq` order — so the per-key `prior_today`
//!   accumulation the enforcement policy observes is identical to the serial
//!   ladder's;
//! * shards touch only state they own: a disjoint range of the account
//!   arena, plus shard-local log/counter/media deltas returned in
//!   [`ShardApply`];
//! * the serial merge sweep replays those deltas in a canonical order
//!   (global `first_seq` sort for log records, shard-index order for
//!   counters) that reproduces the serial ladder's first-touch insertion
//!   order exactly, for **any** shard count;
//! * shard workers draw no randomness at all — every quantity they need was
//!   fixed by the plan/route phases — so RNG streams cannot be perturbed by
//!   scheduling.
//!
//! This module is deliberately free of observability types: workers
//! accumulate plain [`ShardCounters`], and the serial merge half (in
//! [`crate::platform::Platform::apply_deposits_sharded`]) folds them into
//! the recorder. `footsteps-lint`'s `parallel-metrics` rule scans
//! [`apply_shard`] to keep it that way.

use crate::account::Account;
use crate::actions::{ActionOutcome, ActionType, TypeCounts};
use crate::enforcement::{
    Countermeasure, Direction, EnforcementContext, EnforcementDecision, EnforcementPolicy,
};
use crate::ids::{AccountId, AsnId, MediaId, ServiceId};
use crate::log::{DayLog, InboundSource};
use crate::time::Day;
use std::collections::BTreeMap;

/// One routed inbound delivery: the unit of work of the apply phase.
///
/// A `DepositOp` captures exactly the arguments of one call of the serial
/// ladder (module docs); the route phase emits them in the order that
/// ladder would take them (including zero-quantity ops, which still
/// contribute ground-truth attribution and client-visible zero results).
#[derive(Debug, Clone, Copy)]
pub struct DepositOp {
    /// Account receiving the actions (also the shard key).
    pub target: AccountId,
    /// Action type delivered.
    pub ty: ActionType,
    /// Actions requested (post-cap; zero is legal and means "attempted
    /// nothing, but the service still drove this account").
    pub requested: u32,
    /// Delivery network of the collusion service.
    pub asn: AsnId,
    /// Ground-truth attribution.
    pub service: Option<ServiceId>,
    /// For likes/comments: the media hit, and the peak hourly like rate for
    /// the photo-burst bookkeeping.
    pub media: Option<(MediaId, u32)>,
}

/// Plain counter deltas accumulated inside one shard, merged into the
/// metrics registry by the serial sweep. Fixed fields rather than a keyed
/// map: the apply hot path must not pay a string-keyed insert per op.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardCounters {
    /// Inbound actions delivered (standing).
    pub delivered: u64,
    /// Inbound actions synchronously blocked.
    pub blocked: u64,
    /// Inbound actions scheduled for deferred removal.
    pub deferred: u64,
    /// Per-experiment-bin outcome rows: bins 0–9, then the shared overflow
    /// bin at index 10. Columns are `[delivered, blocked, deferred]`.
    pub bins: [[u64; 3]; 11],
}

impl ShardCounters {
    /// Row index for a policy-assigned bin (overflow folds into row 10,
    /// mirroring the registry's `enforce.bin_other.*` keys).
    pub fn bin_row(bin: u32) -> usize {
        (bin as usize).min(10)
    }
}

/// What one op produced, as observed by the submitting service. `seq` ties
/// the outcome back to its op for the merge sweep's removal replay.
#[derive(Debug, Clone, Copy)]
pub struct DepositOutcome {
    /// Routing sequence number of the op.
    pub seq: u32,
    /// Actions delivered and standing.
    pub delivered: u32,
    /// Actions visibly blocked.
    pub blocked: u32,
    /// Actions landed but scheduled for silent removal.
    pub deferred: u32,
}

/// Everything a shard worker produced, to be folded back serially.
#[derive(Debug, Default)]
pub struct ShardApply {
    /// Per-op outcomes, in ascending `seq` order (only ops with
    /// `requested > 0`; zero ops have a fixed all-zero outcome).
    pub outcomes: Vec<DepositOutcome>,
    /// Inbound log records in first-touch order: `(first_seq, key, counts)`
    /// where `first_seq` is the seq of the op that first wrote a nonzero
    /// count for `key`. Sorting all shards' records by `first_seq` at merge
    /// reproduces the serial open-day insertion order.
    pub records: Vec<(u32, (AccountId, InboundSource), TypeCounts)>,
    /// Per-photo like-burst deltas: media → (total, peak hourly).
    pub photo: BTreeMap<MediaId, (u32, u32)>,
    /// Lifetime like-count deltas per media.
    pub media_likes: BTreeMap<MediaId, u64>,
    /// Lifetime comment-count deltas per media.
    pub media_comments: BTreeMap<MediaId, u64>,
    /// Summed counter deltas.
    pub counters: ShardCounters,
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

/// Upsert a nonzero count into the shard-local record list, preserving
/// first-touch order (the record is created at the first nonzero write).
fn upsert_record(
    records: &mut Vec<(u32, (AccountId, InboundSource), TypeCounts)>,
    index: &mut BTreeMap<(AccountId, InboundSource), usize>,
    seq: u32,
    key: (AccountId, InboundSource),
    ty: ActionType,
    outcome: ActionOutcome,
    n: u32,
) {
    if n == 0 {
        return;
    }
    let i = *index.entry(key).or_insert_with(|| {
        records.push((seq, key, TypeCounts::default()));
        records.len() - 1
    });
    records[i].2.record(ty, outcome, n);
}

/// Execute one shard of the apply phase.
///
/// `seqs` lists this shard's op indices in ascending order; `accounts` is
/// the shard's dense arena range starting at account index `base`; `frozen`
/// is the day's log state as of the end of the route phase (shared read-only
/// across shards). The worker mutates nothing outside its arena range and
/// its returned [`ShardApply`].
pub fn apply_shard(
    ops: &[DepositOp],
    seqs: &[u32],
    day: Day,
    frozen: Option<&DayLog>,
    policy: &dyn EnforcementPolicy,
    accounts: &mut [Account],
    base: usize,
) -> ShardApply {
    let mut out = ShardApply::default();
    let mut index: BTreeMap<(AccountId, InboundSource), usize> = BTreeMap::new();
    for &seq in seqs {
        let op = ops[seq as usize];
        if op.requested == 0 {
            // Serial parity: a zero-quantity deposit attributes ground truth
            // (handled serially by the caller) and does nothing else.
            continue;
        }
        let key = (op.target, Some(op.asn));
        let ti = op.ty.index();
        // prior_today = what the frozen log already held for this key plus
        // what earlier ops of this shard delivered to it — exactly the
        // running total the serial ladder would have observed.
        let local = index
            .get(&key)
            .map(|&i| out.records[i].2.delivered[ti])
            .unwrap_or(0);
        let prior = frozen
            .and_then(|d| d.inbound_from(op.target, op.asn))
            .map(|c| c.delivered[ti])
            .unwrap_or(0)
            + local;
        let decision = policy.evaluate(&EnforcementContext {
            actor: op.target,
            asn: op.asn,
            action: op.ty,
            direction: Direction::Inbound,
            day,
            prior_today: prior,
            requested: op.requested,
        });
        let (pass, excess, cm) = split_decision(decision, op.requested, op.ty);
        let (standing, blocked, deferred) = cm.resolve(pass, excess);
        out.counters.delivered += u64::from(standing);
        out.counters.blocked += u64::from(blocked);
        out.counters.deferred += u64::from(deferred);
        if let Some(b) = decision.bin {
            let row = &mut out.counters.bins[ShardCounters::bin_row(b)];
            row[0] += u64::from(standing);
            row[1] += u64::from(blocked);
            row[2] += u64::from(deferred);
        }
        // Column order mirrors the serial ladder: blocked first, then the
        // standing/deferred halves of the deposit.
        upsert_record(&mut out.records, &mut index, seq, key, op.ty, ActionOutcome::Blocked, blocked);
        upsert_record(
            &mut out.records,
            &mut index,
            seq,
            key,
            op.ty,
            ActionOutcome::Delivered,
            standing,
        );
        upsert_record(
            &mut out.records,
            &mut index,
            seq,
            key,
            op.ty,
            ActionOutcome::DeferredRemoval,
            deferred,
        );
        let total = standing + deferred;
        if total > 0 {
            match op.ty {
                ActionType::Follow => {
                    accounts[op.target.index() - base].followers += total;
                }
                ActionType::Like => {
                    if let Some((media_id, max_hourly)) = op.media {
                        *out.media_likes.entry(media_id).or_default() += u64::from(total);
                        let burst = out.photo.entry(media_id).or_default();
                        burst.0 += total;
                        burst.1 = burst.1.max(max_hourly);
                    }
                }
                ActionType::Comment => {
                    if let Some((media_id, _)) = op.media {
                        *out.media_comments.entry(media_id).or_default() += u64::from(total);
                    }
                }
                _ => {}
            }
        }
        out.outcomes.push(DepositOutcome {
            seq,
            delivered: standing,
            blocked,
            deferred,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enforcement::NoEnforcement;

    fn op(target: u32, ty: ActionType, requested: u32) -> DepositOp {
        DepositOp {
            target: AccountId(target),
            ty,
            requested,
            asn: AsnId(1),
            service: Some(ServiceId::Hublaagram),
            media: None,
        }
    }

    #[test]
    fn zero_requested_ops_leave_no_shard_state() {
        let ops = vec![op(0, ActionType::Like, 0), op(0, ActionType::Follow, 0)];
        let mut accounts: Vec<Account> = Vec::new();
        let r = apply_shard(
            &ops,
            &[0, 1],
            Day(0),
            None,
            &NoEnforcement,
            &mut accounts,
            0,
        );
        assert!(r.outcomes.is_empty());
        assert!(r.records.is_empty());
        assert_eq!(r.counters.delivered, 0);
    }

    #[test]
    fn prior_today_accumulates_across_same_key_ops() {
        // A policy thresholding at 10 should pass 10 on the first op and 0
        // on the second — the shard-local delivered total must feed back
        // into prior_today exactly as the serial ladder would.
        #[derive(Debug)]
        struct Cap10;
        impl EnforcementPolicy for Cap10 {
            fn evaluate(&self, ctx: &EnforcementContext) -> EnforcementDecision {
                EnforcementDecision::threshold(
                    ctx.requested,
                    ctx.prior_today,
                    10,
                    Countermeasure::Block,
                )
            }
        }
        let ops = vec![op(0, ActionType::Like, 8), op(0, ActionType::Like, 8)];
        let mut accounts: Vec<Account> = Vec::new();
        let r = apply_shard(&ops, &[0, 1], Day(0), None, &Cap10, &mut accounts, 0);
        assert_eq!(r.outcomes.len(), 2);
        assert_eq!((r.outcomes[0].delivered, r.outcomes[0].blocked), (8, 0));
        assert_eq!((r.outcomes[1].delivered, r.outcomes[1].blocked), (2, 6));
        // One record (one key), created at the first op's seq.
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.records[0].0, 0);
        assert_eq!(r.records[0].2.delivered[ActionType::Like.index()], 10);
        assert_eq!(r.records[0].2.blocked[ActionType::Like.index()], 6);
    }
}
