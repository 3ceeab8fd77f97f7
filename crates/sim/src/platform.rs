//! The platform engine: the simulated "Instagram".
//!
//! [`Platform`] owns the clock, accounts, graph, internet model and action
//! log. Actions reach it through three delivery entry points (posts go
//! through [`Platform::post_media_via`]):
//!
//! * [`Platform::submit_event`] — one fully-attributed outbound action with
//!   an explicit target; used for honeypot traffic and any tracked account.
//!   Organic reciprocation is sampled per-target and scheduled as future
//!   *events* (so honeypot inboxes contain realistic actors, countries and
//!   timestamps).
//! * [`Platform::submit_batch`] — a daily batch of `count` outbound actions
//!   from one account, with the target population summarised by
//!   [`PoolStats`]; reciprocation is sampled binomially and scheduled as
//!   future aggregate inbound counts.
//! * [`Platform::deposit`] — one inbound delivery ([`DepositOp`]) from a
//!   collusion network, judged on the receiving account.
//!
//! The two outbound paths share one middleware, which runs, in order:
//!
//! 1. **baseline IP-volume defense** — the pre-existing system that already
//!    polices Followersgratis (§5: "high volumes of abuse originating from a
//!    small number of IP addresses");
//! 2. **the installed [`EnforcementPolicy`]** — the experimental
//!    countermeasures of §6.
//!
//! Each outbound path keeps only its own tail: aggregate degrees and
//! binomial pool reciprocation for a batch, graph edges and per-target
//! reciprocation for an event. Inbound deliveries meet the same policy
//! from the receiving side (§6.2).
//!
//! Delayed removals and scheduled reciprocation are applied by
//! [`Platform::begin_day`], which the engine calls at each day boundary.
//!
//! The platform keeps one per-day record, the [`ActionLog`]: every outcome
//! of every path, the edge defense's refusals included, is a row of the
//! day it happened on, written while that day is open. What no row holds,
//! the follows the delayed removals take back, is the `obs` registry
//! counter `platform.removed_follows`, next to the run's totals such as
//! `platform.outbound.edge_blocked`.

use crate::account::{AccountStore, ReciprocityProfile};
use crate::actions::{ActionEvent, ActionOutcome, ActionTarget, ActionType};
use crate::behavior::{
    response_probability, sample_binomial, BehaviorParams, ResponseChannel,
};
use crate::enforcement::{
    split_decision, Countermeasure, Direction, EnforcementContext, EnforcementPolicy,
    NoEnforcement,
};
use crate::fingerprint::ClientFingerprint;
use crate::graph::SocialGraph;
use crate::ids::{AccountId, AsnId, MediaId, ServiceId};
use crate::log::ActionLog;
use crate::net::{AsnRegistry, IpAddr4};
use crate::time::{Day, SimClock, SimTime, SECS_PER_DAY};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::HashMap;

/// Platform-wide tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct PlatformConfig {
    /// Organic behaviour constants.
    pub behavior: BehaviorParams,
    /// Baseline anti-abuse: maximum delivered actions per source IP per day
    /// before the edge starts refusing (visibly). Services with large
    /// address pools never hit this; Followersgratis's handful of IPs do.
    pub ip_daily_action_cap: u32,
    /// Reciprocation window: an inbound action may be reciprocated on any of
    /// the following `response_window_days` days (uniformly), starting with
    /// the day of the action itself. The paper observed reciprocation
    /// "uniformly distributed throughout the trial period".
    pub response_window_days: u32,
    /// The scenario's `worker_threads`: the threads footbench renders its
    /// report sections on (DESIGN.md §4). The study runs on one thread and
    /// ignores this.
    pub worker_threads: usize,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        Self {
            behavior: BehaviorParams::default(),
            ip_daily_action_cap: 2_000,
            response_window_days: 6,
            worker_threads: 1,
        }
    }
}

/// Mean reciprocation propensities of a target pool, as computed by the
/// service's own targeting engine over its curated pool. Used by the batch
/// path in place of per-target profiles.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolStats {
    /// Mean P(like back | like) across the pool.
    pub like_for_like: f64,
    /// Mean P(follow | like) across the pool.
    pub follow_for_like: f64,
    /// Mean P(follow back | follow) across the pool.
    pub follow_for_follow: f64,
}

impl PoolStats {
    /// A pool that never responds (collusion deliveries, unfollow batches).
    pub const INERT: PoolStats = PoolStats {
        like_for_like: 0.0,
        follow_for_like: 0.0,
        follow_for_follow: 0.0,
    };

    /// Mean propensity for a channel.
    pub fn channel(&self, ch: ResponseChannel) -> f64 {
        match ch {
            ResponseChannel::LikeForLike => self.like_for_like,
            ResponseChannel::FollowForLike => self.follow_for_like,
            ResponseChannel::FollowForFollow => self.follow_for_follow,
        }
    }
}

/// A daily aggregate submission.
#[derive(Debug, Clone, Copy)]
pub struct BatchRequest {
    /// Account performing the actions.
    pub actor: AccountId,
    /// Action type.
    pub action: ActionType,
    /// Number of actions.
    pub count: u32,
    /// Source ASN.
    pub asn: AsnId,
    /// Source address (must belong to `asn` for attribution to make sense).
    pub ip: IpAddr4,
    /// Client fingerprint.
    pub fingerprint: ClientFingerprint,
    /// Target-pool reciprocation stats ([`PoolStats::INERT`] if no organic
    /// response is possible).
    pub pool: PoolStats,
    /// Ground-truth attribution (invisible to the detection pipeline; used
    /// only for validation and for scoring classifiers).
    pub service: Option<ServiceId>,
}

/// One inbound delivery from a collusion network: the unit of
/// [`Platform::deposit`]. Zero-quantity deposits are legal: they still
/// attribute ground truth and give the service a zero result.
#[derive(Debug, Clone, Copy)]
pub struct DepositOp {
    /// Account receiving the actions.
    pub target: AccountId,
    /// Action type delivered.
    pub ty: ActionType,
    /// Actions requested (post-cap; zero is legal and means "attempted
    /// nothing, but the service still drove this account").
    pub requested: u32,
    /// Delivery network of the collusion service, used for threshold
    /// lookup.
    pub asn: AsnId,
    /// Ground-truth attribution.
    pub service: Option<ServiceId>,
    /// For likes/comments: the media hit, and the peak hourly like rate for
    /// the photo-burst bookkeeping.
    pub media: Option<(MediaId, u32)>,
}

/// What a batch submission produced, as observed by the *submitting client*.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchResult {
    /// Actions requested.
    pub attempted: u32,
    /// Actions that landed and will stand.
    pub delivered: u32,
    /// Actions visibly refused (blocked by countermeasure or edge defense).
    pub blocked: u32,
    /// Actions that landed but are scheduled for silent removal tomorrow.
    /// The client cannot distinguish these from `delivered`.
    pub deferred: u32,
}

impl BatchResult {
    /// What the submitting client perceives as having succeeded.
    pub fn visible_success(&self) -> u32 {
        self.delivered + self.deferred
    }

    /// What the submitting client perceives as having failed.
    pub fn visible_failure(&self) -> u32 {
        self.blocked
    }
}

/// A single-action submission with an explicit target account.
#[derive(Debug, Clone, Copy)]
pub struct EventRequest {
    /// Account performing the action.
    pub actor: AccountId,
    /// Action type.
    pub action: ActionType,
    /// Target account (for `Post`, the actor itself).
    pub target: AccountId,
    /// Source ASN.
    pub asn: AsnId,
    /// Source address.
    pub ip: IpAddr4,
    /// Client fingerprint.
    pub fingerprint: ClientFingerprint,
    /// Ground-truth attribution.
    pub service: Option<ServiceId>,
}

impl EventRequest {
    /// This action as a batch of one from the same sender: the unit the
    /// shared outbound middleware judges.
    fn as_batch(&self) -> BatchRequest {
        BatchRequest {
            actor: self.actor,
            action: self.action,
            count: 1,
            asn: self.asn,
            ip: self.ip,
            fingerprint: self.fingerprint,
            pool: PoolStats::INERT,
            service: self.service,
        }
    }
}

/// A removal scheduled by the delayed-removal countermeasure.
#[derive(Debug, Clone, Copy)]
enum PendingRemoval {
    /// Remove an exact follow edge (event path).
    Edge {
        /// Follower to strip.
        from: AccountId,
        /// Account being followed.
        to: AccountId,
    },
    /// Decrement aggregate follow counters (batch path). `to` is known for
    /// collusion deliveries (the paying recipient) and unknown for
    /// reciprocity batches (scattered organic targets).
    Aggregate {
        /// Account whose outbound follows are undone.
        from: AccountId,
        /// Account whose follower count is undone, if known.
        to: Option<AccountId>,
        /// Number of follows to undo.
        count: u32,
    },
}

/// A future organic reciprocation, batch form.
#[derive(Debug, Clone, Copy)]
struct PendingResponse {
    /// Customer receiving the reciprocation.
    target: AccountId,
    /// Response action type.
    action: ActionType,
    /// Number of responses.
    count: u32,
}

/// A future organic reciprocation, event form (honeypot path).
#[derive(Debug, Clone, Copy)]
struct PendingEventResponse {
    /// When the organic user responds.
    at: SimTime,
    /// The responding organic user.
    responder: AccountId,
    /// Response action type.
    action: ActionType,
    /// The account being responded to (the honeypot/customer).
    to: AccountId,
}

/// Append `day`-indexed queue access for the pending-work tables.
fn day_queue<T>(queue: &mut Vec<Vec<T>>, day: Day) -> &mut Vec<T> {
    let idx = day.0 as usize;
    if idx >= queue.len() {
        queue.resize_with(idx + 1, Vec::new);
    }
    &mut queue[idx]
}

/// Take (and empty) a day's queue without disturbing the table shape.
fn take_day_queue<T>(queue: &mut Vec<Vec<T>>, day: Day) -> Vec<T> {
    queue
        .get_mut(day.0 as usize)
        .map(std::mem::take)
        .unwrap_or_default()
}

/// The simulated platform.
///
/// Every study phase installs its own enforcement policy at entry; a new
/// platform has none ([`NoEnforcement`]).
#[derive(Debug)]
pub struct Platform {
    /// Simulation clock, advanced by the engine.
    pub clock: SimClock,
    /// All accounts.
    pub accounts: AccountStore,
    /// The follow graph.
    pub graph: SocialGraph,
    /// The internet model.
    pub asns: AsnRegistry,
    /// The action log.
    pub log: ActionLog,
    /// Tuning knobs.
    pub config: PlatformConfig,
    /// Observability kit: deterministic metrics and wall-clock timings.
    pub obs: footsteps_obs::Recorder,
    policy: Box<dyn EnforcementPolicy>,
    /// The day `ip_used` counts.
    ip_day: Day,
    /// Delivered volume per source IP on `ip_day`: only the IPs that
    /// submitted that day, so the table is sized by one day's traffic.
    ip_used: HashMap<IpAddr4, u32>,
    /// Pending-work queues, indexed by `Day::0`.
    pending_removals: Vec<Vec<PendingRemoval>>,
    pending_responses: Vec<Vec<PendingResponse>>,
    pending_event_responses: Vec<Vec<PendingEventResponse>>,
    /// Per-account login counts by country, indexed by account id.
    logins: Vec<[u32; crate::country::Country::ALL.len()]>,
    /// Per-account ground-truth service bitmask, indexed by account id.
    ground_truth: Vec<u8>,
    rng: SmallRng,
}

impl Platform {
    /// Build a platform over a prepared internet model.
    pub fn new(asns: AsnRegistry, config: PlatformConfig, rng: SmallRng) -> Self {
        Self {
            clock: SimClock::new(),
            accounts: AccountStore::new(),
            graph: SocialGraph::new(),
            asns,
            log: ActionLog::new(),
            config,
            obs: footsteps_obs::Recorder::from_env(),
            policy: Box::new(NoEnforcement),
            ip_day: Day(0),
            ip_used: HashMap::new(),
            pending_removals: Vec::new(),
            pending_responses: Vec::new(),
            pending_event_responses: Vec::new(),
            logins: Vec::new(),
            ground_truth: Vec::new(),
            rng,
        }
    }

    /// Today's delivered-volume counter for `ip`. The first submission of
    /// a later day clears the whole table: the clock only moves forward, so
    /// every earlier day's volume is spent.
    fn ip_used_mut(&mut self, ip: IpAddr4, day: Day) -> &mut u32 {
        if self.ip_day != day {
            self.ip_day = day;
            self.ip_used.clear();
        }
        self.ip_used.entry(ip).or_insert(0)
    }

    /// Install an enforcement policy (replacing any previous one).
    pub fn set_policy(&mut self, policy: Box<dyn EnforcementPolicy>) {
        self.policy = policy;
    }

    /// Advance to the start of `day` and apply everything scheduled for it:
    /// delayed removals first (undoing yesterday's flagged follows), then
    /// matured organic reciprocations.
    pub fn begin_day(&mut self, day: Day) {
        self.clock.advance_to_day(day);
        self.apply_removals(day);
        self.apply_responses(day);
        self.apply_event_responses(day);
    }

    /// Ground-truth services that have driven this account (bitmask over
    /// [`ServiceId::index`]). For classifier scoring only.
    pub fn ground_truth_services(&self, id: AccountId) -> Vec<ServiceId> {
        let mask = self.ground_truth.get(id.index()).copied().unwrap_or(0);
        ServiceId::ALL
            .into_iter()
            .filter(|s| mask & (1 << s.index()) != 0)
            .collect()
    }

    /// Whether ground truth says any service drove this account.
    pub fn is_ground_truth_abusive(&self, id: AccountId) -> bool {
        self.ground_truth.get(id.index()).is_some_and(|&m| m != 0)
    }

    /// Record a login by `account` from its home network (organic client).
    pub fn record_login(&mut self, account: AccountId) {
        let asn = self.accounts.get(account).home_asn;
        self.record_login_via(account, asn);
    }

    /// Record a login by `account` from an arbitrary ASN (services log into
    /// customer accounts from their own networks, "infrequently", §5.1).
    pub fn record_login_via(&mut self, account: AccountId, asn: AsnId) {
        self.log.record_login(self.clock.today(), account, asn);
        let country = self.asns.get(asn).country;
        let idx = account.index();
        if idx >= self.logins.len() {
            self.logins
                .resize(idx + 1, [0; crate::country::Country::ALL.len()]);
        }
        self.logins[idx][country.index()] += 1;
    }

    /// The platform geolocation answer for an account: the most frequent
    /// login country (ties broken by country index for determinism).
    pub fn login_country(&self, account: AccountId) -> Option<crate::country::Country> {
        let counts = self.logins.get(account.index())?;
        let mut best: Option<(u32, crate::country::Country)> = None;
        for c in crate::country::Country::ALL {
            let n = counts[c.index()];
            if n > 0 && best.is_none_or(|(bn, _)| n > bn) {
                best = Some((n, c));
            }
        }
        best.map(|(_, c)| c)
    }

    /// Create a media post by `owner` now (records a `Post` action event for
    /// tracked accounts). Organic posts come from the official app; posting
    /// *services* post through their spoofed clients — the fingerprint is
    /// attribution-relevant either way.
    pub fn post_media_via(
        &mut self,
        owner: AccountId,
        asn: AsnId,
        ip: IpAddr4,
        fingerprint: ClientFingerprint,
        service: Option<ServiceId>,
    ) -> MediaId {
        self.note_ground_truth(owner, service);
        let at = self.clock.now();
        let id = self.accounts.post_media(owner, at);
        let day = at.day();
        self.log.record_outbound(
            day,
            owner,
            asn,
            fingerprint,
            ActionType::Post,
            ActionOutcome::Delivered,
            1,
        );
        self.log.push_event(ActionEvent {
            at,
            actor: owner,
            action: ActionType::Post,
            target: ActionTarget::SelfContent,
            ip,
            asn,
            fingerprint,
            outcome: ActionOutcome::Delivered,
        });
        id
    }

    /// [`Self::post_media_via`] with the official-app fingerprint (organic
    /// posting).
    pub fn post_media(&mut self, owner: AccountId, asn: AsnId, ip: IpAddr4) -> MediaId {
        self.post_media_via(owner, asn, ip, ClientFingerprint::OfficialApp, None)
    }

    /// Submit a daily aggregate batch. See module docs for the middleware
    /// order.
    pub fn submit_batch(&mut self, req: BatchRequest) -> BatchResult {
        let mut result = BatchResult {
            attempted: req.count,
            ..BatchResult::default()
        };
        if req.count == 0 {
            return result;
        }
        self.obs
            .metrics
            .observe("platform.batch_size", BATCH_SIZE_BOUNDS, u64::from(req.count));
        let Some((pass, excess, cm)) = self.admit_outbound(&req, &mut result) else {
            return result;
        };

        // Batch tail: log the policy's split, then aggregate degrees and
        // binomial pool reciprocation for what landed.
        let day = self.clock.today();
        let (standing, blocked, deferred) = cm.resolve(pass, excess);
        for (outcome, n) in [
            (ActionOutcome::Delivered, standing),
            (ActionOutcome::Blocked, blocked),
            (ActionOutcome::DeferredRemoval, deferred),
        ] {
            self.log.record_outbound(
                day,
                req.actor,
                req.asn,
                req.fingerprint,
                req.action,
                outcome,
                n,
            );
        }
        result.delivered = standing;
        result.blocked += blocked;
        result.deferred = deferred;
        if pass > 0 {
            self.apply_batch_side_effects(&req, pass, false);
        }
        // An unenforced excess is a binomial draw of its own.
        if cm == Countermeasure::None && excess > 0 {
            self.apply_batch_side_effects(&req, excess, false);
        }
        if deferred > 0 {
            self.apply_batch_side_effects(&req, deferred, true);
            day_queue(&mut self.pending_removals, day.next()).push(PendingRemoval::Aggregate {
                from: req.actor,
                to: None,
                count: deferred,
            });
        }
        debug_assert_eq!(
            result.attempted,
            result.delivered + result.blocked + result.deferred
        );
        result
    }

    /// Submit one explicit action (event path).
    pub fn submit_event(&mut self, req: EventRequest) -> ActionOutcome {
        let at = self.clock.now();
        let mut refused = BatchResult::default();
        let outcome = match self.admit_outbound(&req.as_batch(), &mut refused) {
            None => ActionOutcome::Blocked,
            // Event tail: graph edges and per-target reciprocation, then the
            // outbound record.
            Some((pass, excess, cm)) => {
                let outcome = match cm.resolve(pass, excess) {
                    (1, _, _) => ActionOutcome::Delivered,
                    (_, 1, _) => ActionOutcome::Blocked,
                    _ => ActionOutcome::DeferredRemoval,
                };
                if outcome.landed() {
                    self.apply_event_side_effects(&req, outcome);
                }
                self.log.record_outbound(
                    at.day(),
                    req.actor,
                    req.asn,
                    req.fingerprint,
                    req.action,
                    outcome,
                    1,
                );
                outcome
            }
        };
        self.log.push_event(ActionEvent {
            at,
            actor: req.actor,
            action: req.action,
            target: ActionTarget::Account(req.target),
            ip: req.ip,
            asn: req.asn,
            fingerprint: req.fingerprint,
            outcome,
        });
        outcome
    }

    /// Deliver one collusion-network deposit to the receiving account. This
    /// is the one enforced inbound path: the op is judged by the installed
    /// policy on the receiving account (§6.2), against what earlier deposits
    /// of the day already delivered to it from the same network. The result
    /// is what the *service* can observe: blocked deliveries visibly fail
    /// (the like counter does not move), deferred ones look delivered.
    pub fn deposit(&mut self, op: &DepositOp) -> BatchResult {
        // The recipient is a customer of the delivering service (they handed
        // over credentials or requested the actions) — ground truth either way.
        self.note_ground_truth(op.target, op.service);
        if op.requested == 0 {
            return BatchResult::default();
        }
        let day = self.clock.today();
        let prior = self
            .log
            .day(day)
            .and_then(|d| d.inbound_from(op.target, op.asn))
            .map(|c| c.delivered[op.ty.index()])
            .unwrap_or(0);
        let decision = self.policy.evaluate(&EnforcementContext {
            actor: op.target,
            asn: op.asn,
            action: op.ty,
            direction: Direction::Inbound,
            day,
            prior_today: prior,
            requested: op.requested,
        });
        let (pass, excess, cm) = split_decision(decision, op.requested, op.ty);
        let split = cm.resolve(pass, excess);
        self.record_enforcement(Direction::Inbound, decision.bin, split);
        let (standing, blocked, deferred) = split;
        for (outcome, n) in [
            (ActionOutcome::Blocked, blocked),
            (ActionOutcome::Delivered, standing),
            (ActionOutcome::DeferredRemoval, deferred),
        ] {
            self.log
                .record_inbound_with(day, op.target, Some(op.asn), op.ty, outcome, n);
        }
        // Blocked deliveries never land; standing and deferred ones do (a
        // deferred follow until tomorrow's removal).
        let landed = standing + deferred;
        match (op.ty, op.media) {
            (ActionType::Follow, _) => {
                self.accounts.get_mut(op.target).followers += landed;
                if deferred > 0 {
                    // The actor-side decrement is owned by the outbound
                    // batch's own removal; here only the follower-side undo.
                    day_queue(&mut self.pending_removals, day.next()).push(
                        PendingRemoval::Aggregate {
                            from: op.target,
                            to: Some(op.target),
                            count: deferred,
                        },
                    );
                }
            }
            (ActionType::Like, Some((media_id, max_hourly))) => {
                self.accounts.media_mut(media_id).likes += u64::from(landed);
                self.log.record_photo_likes(day, media_id, landed, max_hourly);
            }
            (ActionType::Comment, Some((media_id, _))) => {
                self.accounts.media_mut(media_id).comments += u64::from(landed);
            }
            _ => {}
        }
        BatchResult {
            attempted: op.requested,
            delivered: standing,
            blocked,
            deferred,
        }
    }

    // ----- internals -------------------------------------------------------

    /// The outbound middleware both submission paths share (module docs):
    /// IP-volume edge defense, then the installed policy. Edge-refused
    /// actions are tallied into `result` and logged here, before the policy
    /// reads `prior_today`. Returns the policy's `(pass, excess,
    /// countermeasure)` verdict on the rest, or `None` if nothing reached it.
    fn admit_outbound(
        &mut self,
        req: &BatchRequest,
        result: &mut BatchResult,
    ) -> Option<(u32, u32, Countermeasure)> {
        let day = self.clock.today();
        self.note_ground_truth(req.actor, req.service);
        self.obs
            .metrics
            .add(mix_key(req.service, req.action), u64::from(req.count));

        // 1. Baseline IP-volume defense.
        let cap = self.config.ip_daily_action_cap;
        let used = self.ip_used_mut(req.ip, day);
        let edge_pass = req.count.min(cap.saturating_sub(*used));
        *used += edge_pass;
        let edge_blocked = req.count - edge_pass;
        if edge_blocked > 0 {
            self.log.record_outbound(
                day,
                req.actor,
                req.asn,
                req.fingerprint,
                req.action,
                ActionOutcome::Blocked,
                edge_blocked,
            );
            result.blocked += edge_blocked;
            self.obs
                .metrics
                .add("platform.outbound.edge_blocked", u64::from(edge_blocked));
        }
        if edge_pass == 0 {
            return None;
        }

        // 2. Experimental countermeasures.
        let prior = self
            .log
            .day(day)
            .and_then(|d| d.outbound_at(req.actor, req.asn))
            .map(|c| c.attempted_of(req.action))
            .unwrap_or(0);
        let decision = self.policy.evaluate(&EnforcementContext {
            actor: req.actor,
            asn: req.asn,
            action: req.action,
            direction: Direction::Outbound,
            day,
            prior_today: prior,
            requested: edge_pass,
        });
        let (pass, excess, cm) = split_decision(decision, edge_pass, req.action);
        self.record_enforcement(Direction::Outbound, decision.bin, cm.resolve(pass, excess));
        Some((pass, excess, cm))
    }

    /// Record the enforcement stage's `(standing, blocked, deferred)` split
    /// for one submission into the obs kit: counters scoped by direction,
    /// and the per-bin attribution when the policy tagged a bin.
    fn record_enforcement(
        &mut self,
        direction: Direction,
        bin: Option<u32>,
        (standing, blocked, deferred): (u32, u32, u32),
    ) {
        let (k_del, k_blk, k_def) = match direction {
            Direction::Outbound => (
                "platform.outbound.delivered",
                "platform.outbound.blocked",
                "platform.outbound.deferred",
            ),
            Direction::Inbound => (
                "platform.inbound.delivered",
                "platform.inbound.blocked",
                "platform.inbound.deferred",
            ),
        };
        let m = &mut self.obs.metrics;
        m.add(k_del, u64::from(standing));
        m.add(k_blk, u64::from(blocked));
        m.add(k_def, u64::from(deferred));
        if let Some(b) = bin {
            let keys = bin_keys(b);
            m.add(keys.delivered, u64::from(standing));
            m.add(keys.blocked, u64::from(blocked));
            m.add(keys.deferred, u64::from(deferred));
        }
    }

    fn note_ground_truth(&mut self, actor: AccountId, service: Option<ServiceId>) {
        if let Some(s) = service {
            let idx = actor.index();
            if idx >= self.ground_truth.len() {
                self.ground_truth.resize(idx + 1, 0);
            }
            self.ground_truth[idx] |= 1 << s.index();
        }
    }

    /// Aggregate side effects of `n` landed actions from a batch: degree
    /// updates and organic reciprocation scheduling. `deferred` marks
    /// actions that will be silently removed tomorrow (their reciprocation
    /// is limited to same-day responses).
    fn apply_batch_side_effects(&mut self, req: &BatchRequest, n: u32, deferred: bool) {
        let day = self.clock.today();
        match req.action {
            ActionType::Follow => {
                self.accounts.get_mut(req.actor).following += n;
            }
            ActionType::Unfollow => {
                let a = self.accounts.get_mut(req.actor);
                a.following = a.following.saturating_sub(n);
            }
            _ => {}
        }
        // Organic reciprocation for notifying actions against a live pool.
        if !req.action.notifies_target() {
            return;
        }
        let actor_kind = self.accounts.get(req.actor).kind;
        let params = self.config.behavior;
        let window = self.config.response_window_days.max(1);
        for &(channel, resp_ty) in ResponseChannel::triggered_by(req.action) {
            let pool_p = req.pool.channel(channel);
            if pool_p <= 0.0 {
                continue;
            }
            // Scale the pool mean by actor profile quality, channel-wise.
            let probe = ReciprocityProfile {
                like_for_like: pool_p,
                follow_for_like: pool_p,
                follow_for_follow: pool_p,
            };
            let p = response_probability(&params, channel, &probe, actor_kind);
            let mut k = sample_binomial(&mut self.rng, n, p);
            if deferred {
                // Only same-day responses survive: the follow/like is gone
                // tomorrow, and with it the notification prompting a return
                // action.
                k = sample_binomial(&mut self.rng, k, 1.0 / f64::from(window));
                if k > 0 {
                    self.queue_response(day, req.actor, resp_ty, k);
                }
                continue;
            }
            // Spread responses uniformly over the window.
            let base = k / window;
            let extra = k % window;
            for w in 0..window {
                let mut c = base;
                if w < extra {
                    c += 1;
                }
                if c > 0 {
                    self.queue_response(day.plus(w), req.actor, resp_ty, c);
                }
            }
        }
    }

    fn queue_response(&mut self, on: Day, target: AccountId, action: ActionType, count: u32) {
        if on == self.clock.today() {
            // Same-day responses apply immediately.
            self.apply_response(PendingResponse { target, action, count });
        } else {
            day_queue(&mut self.pending_responses, on)
                .push(PendingResponse { target, action, count });
        }
    }

    fn apply_response(&mut self, r: PendingResponse) {
        let day = self.clock.today();
        let acct = self.accounts.get(r.target);
        if acct.deleted_at.is_some() {
            return;
        }
        self.log.record_inbound(day, r.target, None, r.action, r.count);
        if r.action == ActionType::Follow {
            self.accounts.get_mut(r.target).followers += r.count;
        }
    }

    /// Per-event side effects: graph/degree/media updates plus per-target
    /// reciprocation sampling.
    fn apply_event_side_effects(&mut self, req: &EventRequest, outcome: ActionOutcome) {
        let day = self.clock.today();
        match req.action {
            ActionType::Follow => {
                self.graph.follow(&mut self.accounts, req.actor, req.target);
                if outcome == ActionOutcome::DeferredRemoval {
                    day_queue(&mut self.pending_removals, day.next()).push(
                        PendingRemoval::Edge {
                            from: req.actor,
                            to: req.target,
                        },
                    );
                }
            }
            ActionType::Unfollow => {
                self.graph.unfollow(&mut self.accounts, req.actor, req.target);
            }
            ActionType::Like => {
                if let Some(m) = self.accounts.latest_media_of(req.target) {
                    self.accounts.media_mut(m).likes += 1;
                }
            }
            ActionType::Comment => {
                if let Some(m) = self.accounts.latest_media_of(req.target) {
                    self.accounts.media_mut(m).comments += 1;
                }
            }
            ActionType::Post => {}
        }
        if req.action.notifies_target() && req.actor != req.target {
            self.log
                .record_inbound(day, req.target, Some(req.asn), req.action, 1);
            self.maybe_schedule_event_reciprocation(req, outcome);
        }
    }

    fn maybe_schedule_event_reciprocation(&mut self, req: &EventRequest, outcome: ActionOutcome) {
        let target = self.accounts.get(req.target);
        if target.deleted_at.is_some() || target.kind.is_honeypot() {
            // Honeypots never act; deleted accounts cannot respond.
            return;
        }
        let profile = target.reciprocity;
        let actor_kind = self.accounts.get(req.actor).kind;
        let params = self.config.behavior;
        let window = self.config.response_window_days.max(1);
        let now = self.clock.now();
        for &(channel, resp_ty) in ResponseChannel::triggered_by(req.action) {
            let p = response_probability(&params, channel, &profile, actor_kind);
            if self.rng.gen::<f64>() >= p {
                continue;
            }
            // Response lands at a uniform instant inside the window.
            let delay_secs = self.rng.gen_range(0..u64::from(window) * SECS_PER_DAY);
            let at = now.plus_secs(delay_secs);
            if outcome == ActionOutcome::DeferredRemoval && at.day() != now.day() {
                // The artefact is removed at the next day boundary; late
                // responses never happen.
                continue;
            }
            let resp = PendingEventResponse {
                at,
                responder: req.target,
                action: resp_ty,
                to: req.actor,
            };
            if at.day() == now.day() {
                self.apply_event_response(resp);
            } else {
                day_queue(&mut self.pending_event_responses, at.day()).push(resp);
            }
        }
    }

    fn apply_event_response(&mut self, r: PendingEventResponse) {
        if self.accounts.get(r.to).deleted_at.is_some()
            || self.accounts.get(r.responder).deleted_at.is_some()
        {
            return;
        }
        let day = r.at.day();
        let responder = self.accounts.get(r.responder);
        let asn = responder.home_asn;
        // Spread organic responders across their home network's block.
        let ip = self.asns.ip_in(asn, r.responder.0.wrapping_mul(2_654_435_761));
        if r.action == ActionType::Follow {
            self.graph.follow(&mut self.accounts, r.responder, r.to);
        }
        self.log.record_inbound(day, r.to, Some(asn), r.action, 1);
        self.log.push_event(ActionEvent {
            at: r.at,
            actor: r.responder,
            action: r.action,
            target: ActionTarget::Account(r.to),
            ip,
            asn,
            fingerprint: ClientFingerprint::OfficialApp,
            outcome: ActionOutcome::Delivered,
        });
    }

    fn apply_removals(&mut self, day: Day) {
        let removals = take_day_queue(&mut self.pending_removals, day);
        if removals.is_empty() {
            return;
        }
        let mut removed = 0u32;
        for r in removals {
            match r {
                PendingRemoval::Edge { from, to } => {
                    if self.graph.unfollow(&mut self.accounts, from, to) {
                        removed += 1;
                    }
                }
                PendingRemoval::Aggregate { from, to, count } => {
                    match to {
                        None => {
                            let a = self.accounts.get_mut(from);
                            a.following = a.following.saturating_sub(count);
                            // Follower-side undos (`to: Some`) are the other
                            // half of an outbound removal already counted
                            // here, so only this arm increments the metric.
                            removed += count;
                        }
                        Some(t) => {
                            let a = self.accounts.get_mut(t);
                            a.followers = a.followers.saturating_sub(count);
                        }
                    }
                }
            }
        }
        if removed > 0 {
            self.obs
                .metrics
                .add("platform.removed_follows", u64::from(removed));
        }
    }

    fn apply_responses(&mut self, day: Day) {
        for r in take_day_queue(&mut self.pending_responses, day) {
            self.apply_response(r);
        }
    }

    fn apply_event_responses(&mut self, day: Day) {
        let mut responses = take_day_queue(&mut self.pending_event_responses, day);
        responses.sort_by_key(|r| (r.at, r.responder, r.to));
        for r in responses {
            self.apply_event_response(r);
        }
    }

    /// Delete an account at the current instant: tombstones it, purges its
    /// tracked edges, and (for honeypots) models the paper's observation
    /// that "all actions to or from the account are eventually removed".
    pub fn delete_account(&mut self, id: AccountId) {
        let now = self.clock.now();
        self.accounts.delete(id, now);
        if self.graph.is_tracked(id) {
            self.graph.purge_account(&mut self.accounts, id);
        }
    }
}

/// Histogram bounds for `platform.batch_size` (actions per submitted batch).
const BATCH_SIZE_BOUNDS: &[u64] = &[1, 5, 10, 25, 50, 100, 250];

/// Static metric key for the per-service action mix, `actions.<slug>.<action>`
/// (`organic` when no service drove the submission). A lookup table rather
/// than `format!` because this sits on the hottest path in the simulation.
fn mix_key(service: Option<ServiceId>, action: ActionType) -> &'static str {
    // Row order follows `ServiceId::index()`; the sixth row is organic.
    // Column order follows `ActionType::index()`.
    const KEYS: [[&str; ActionType::COUNT]; 6] = [
        [
            "actions.instalex.like",
            "actions.instalex.follow",
            "actions.instalex.comment",
            "actions.instalex.post",
            "actions.instalex.unfollow",
        ],
        [
            "actions.instazood.like",
            "actions.instazood.follow",
            "actions.instazood.comment",
            "actions.instazood.post",
            "actions.instazood.unfollow",
        ],
        [
            "actions.boostgram.like",
            "actions.boostgram.follow",
            "actions.boostgram.comment",
            "actions.boostgram.post",
            "actions.boostgram.unfollow",
        ],
        [
            "actions.hublaagram.like",
            "actions.hublaagram.follow",
            "actions.hublaagram.comment",
            "actions.hublaagram.post",
            "actions.hublaagram.unfollow",
        ],
        [
            "actions.followersgratis.like",
            "actions.followersgratis.follow",
            "actions.followersgratis.comment",
            "actions.followersgratis.post",
            "actions.followersgratis.unfollow",
        ],
        [
            "actions.organic.like",
            "actions.organic.follow",
            "actions.organic.comment",
            "actions.organic.post",
            "actions.organic.unfollow",
        ],
    ];
    let row = service.map_or(5, ServiceId::index);
    KEYS[row][action.index()]
}

/// Per-bin enforcement counter keys.
struct BinKeys {
    delivered: &'static str,
    blocked: &'static str,
    deferred: &'static str,
}

/// Static per-bin keys for the experiment's ten bins (§6.3); bins outside
/// that layout fold into a shared overflow key rather than allocating.
fn bin_keys(bin: u32) -> BinKeys {
    macro_rules! bin_row {
        ($n:literal) => {
            BinKeys {
                delivered: concat!("enforce.bin", $n, ".delivered"),
                blocked: concat!("enforce.bin", $n, ".blocked"),
                deferred: concat!("enforce.bin", $n, ".deferred"),
            }
        };
    }
    match bin {
        0 => bin_row!(0),
        1 => bin_row!(1),
        2 => bin_row!(2),
        3 => bin_row!(3),
        4 => bin_row!(4),
        5 => bin_row!(5),
        6 => bin_row!(6),
        7 => bin_row!(7),
        8 => bin_row!(8),
        9 => bin_row!(9),
        _ => BinKeys {
            delivered: "enforce.bin_other.delivered",
            blocked: "enforce.bin_other.blocked",
            deferred: "enforce.bin_other.deferred",
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::ProfileKind;
    use crate::enforcement::EnforcementDecision;
    use crate::country::Country;
    use crate::net::AsnKind;
    use rand::SeedableRng;

    #[derive(Debug)]

    struct FixedThreshold {
        threshold: u32,
        cm: Countermeasure,
    }

    impl EnforcementPolicy for FixedThreshold {
        fn evaluate(&self, ctx: &EnforcementContext) -> EnforcementDecision {
            EnforcementDecision::threshold(ctx.requested, ctx.prior_today, self.threshold, self.cm)
        }
    }

    fn platform() -> Platform {
        let mut reg = AsnRegistry::new();
        reg.register("res-us", Country::Us, AsnKind::Residential, 100_000);
        reg.register("host-ru", Country::Ru, AsnKind::Hosting, 1_000);
        Platform::new(
            reg,
            PlatformConfig::default(),
            SmallRng::seed_from_u64(1234),
        )
    }

    fn organic(p: &mut Platform, profile: ReciprocityProfile) -> AccountId {
        p.accounts.create(
            SimTime::EPOCH,
            ProfileKind::Organic,
            Country::Us,
            AsnId(0),
            100,
            100,
            profile,
        )
    }

    /// A run-wide registry counter of `p`.
    fn counter(p: &Platform, name: &str) -> u64 {
        p.obs.metrics.snapshot().counter(name)
    }

    fn batch(actor: AccountId, action: ActionType, count: u32, pool: PoolStats) -> BatchRequest {
        BatchRequest {
            actor,
            action,
            count,
            asn: AsnId(1),
            ip: IpAddr4(0x0100_0000 + 100_000),
            fingerprint: ClientFingerprint::SpoofedMobile { variant: 1 },
            pool,
            service: Some(ServiceId::Boostgram),
        }
    }

    #[test]
    fn plain_batch_is_delivered_and_logged() {
        let mut p = platform();
        let a = organic(&mut p, ReciprocityProfile::SILENT);
        p.begin_day(Day(0));
        let r = p.submit_batch(batch(a, ActionType::Follow, 50, PoolStats::INERT));
        assert_eq!(r.delivered, 50);
        assert_eq!(r.visible_success(), 50);
        assert_eq!(p.accounts.get(a).following, 150);
        assert_eq!(
            p.log.day(Day(0)).unwrap().outbound_attempted(a, ActionType::Follow),
            50
        );
        assert!(p.is_ground_truth_abusive(a));
        assert_eq!(p.ground_truth_services(a), vec![ServiceId::Boostgram]);
    }

    #[test]
    fn block_policy_truncates_to_threshold() {
        let mut p = platform();
        let a = organic(&mut p, ReciprocityProfile::SILENT);
        p.set_policy(Box::new(FixedThreshold {
            threshold: 30,
            cm: Countermeasure::Block,
        }));
        p.begin_day(Day(0));
        let r = p.submit_batch(batch(a, ActionType::Follow, 50, PoolStats::INERT));
        assert_eq!(r.delivered, 30);
        assert_eq!(r.blocked, 20);
        assert_eq!(r.visible_failure(), 20, "service can see the blocks");
        assert_eq!(p.accounts.get(a).following, 130);
    }

    #[test]
    fn threshold_accumulates_within_a_day() {
        let mut p = platform();
        let a = organic(&mut p, ReciprocityProfile::SILENT);
        p.set_policy(Box::new(FixedThreshold {
            threshold: 30,
            cm: Countermeasure::Block,
        }));
        p.begin_day(Day(0));
        let r1 = p.submit_batch(batch(a, ActionType::Follow, 20, PoolStats::INERT));
        let r2 = p.submit_batch(batch(a, ActionType::Follow, 20, PoolStats::INERT));
        assert_eq!(r1.delivered, 20);
        assert_eq!(r2.delivered, 10);
        assert_eq!(r2.blocked, 10);
        // Next day the counter resets.
        p.begin_day(Day(1));
        let r3 = p.submit_batch(batch(a, ActionType::Follow, 20, PoolStats::INERT));
        assert_eq!(r3.delivered, 20);
    }

    #[test]
    fn delayed_removal_is_invisible_then_undone() {
        let mut p = platform();
        let a = organic(&mut p, ReciprocityProfile::SILENT);
        p.set_policy(Box::new(FixedThreshold {
            threshold: 10,
            cm: Countermeasure::DelayRemoval,
        }));
        p.begin_day(Day(0));
        let r = p.submit_batch(batch(a, ActionType::Follow, 50, PoolStats::INERT));
        assert_eq!(r.delivered, 10);
        assert_eq!(r.deferred, 40);
        assert_eq!(r.visible_success(), 50, "client sees full success");
        assert_eq!(r.visible_failure(), 0);
        assert_eq!(p.accounts.get(a).following, 150);
        // Next day the deferred 40 are silently removed.
        p.begin_day(Day(1));
        assert_eq!(p.accounts.get(a).following, 110);
        assert_eq!(counter(&p, "platform.removed_follows"), 40);
    }

    #[test]
    fn delay_on_likes_degrades_to_none() {
        let mut p = platform();
        let a = organic(&mut p, ReciprocityProfile::SILENT);
        p.set_policy(Box::new(FixedThreshold {
            threshold: 10,
            cm: Countermeasure::DelayRemoval,
        }));
        p.begin_day(Day(0));
        let r = p.submit_batch(batch(a, ActionType::Like, 50, PoolStats::INERT));
        assert_eq!(r.delivered, 50, "likes cannot be delay-removed");
        assert_eq!(r.deferred, 0);
    }

    #[test]
    fn obs_counters_attribute_enforcement_and_action_mix() {
        let mut p = platform();
        let a = organic(&mut p, ReciprocityProfile::SILENT);
        p.set_policy(Box::new(FixedThreshold {
            threshold: 30,
            cm: Countermeasure::Block,
        }));
        p.begin_day(Day(0));
        p.submit_batch(batch(a, ActionType::Follow, 50, PoolStats::INERT));
        let snap = p.obs.metrics.snapshot();
        assert_eq!(snap.counter("actions.boostgram.follow"), 50);
        assert_eq!(snap.counter("platform.outbound.delivered"), 30);
        assert_eq!(snap.counter("platform.outbound.blocked"), 20);
        assert_eq!(snap.counter("platform.outbound.deferred"), 0);
        let h = &snap.totals.histograms["platform.batch_size"];
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 50);
    }

    #[derive(Debug)]

    struct BinTagged(FixedThreshold);

    impl EnforcementPolicy for BinTagged {
        fn evaluate(&self, ctx: &EnforcementContext) -> EnforcementDecision {
            self.0.evaluate(ctx).with_bin(4)
        }
    }

    #[test]
    fn obs_counters_attribute_per_bin_outcomes() {
        let mut p = platform();
        let a = organic(&mut p, ReciprocityProfile::SILENT);
        p.set_policy(Box::new(BinTagged(FixedThreshold {
            threshold: 10,
            cm: Countermeasure::DelayRemoval,
        })));
        p.begin_day(Day(0));
        p.submit_batch(batch(a, ActionType::Follow, 50, PoolStats::INERT));
        let snap = p.obs.metrics.snapshot();
        assert_eq!(snap.counter("enforce.bin4.delivered"), 10);
        assert_eq!(snap.counter("enforce.bin4.deferred"), 40);
        assert_eq!(snap.counter("enforce.bin4.blocked"), 0);
        // Next day the deferred follows are removed and counted.
        p.begin_day(Day(1));
        assert_eq!(counter(&p, "platform.removed_follows"), 40);
    }

    #[test]
    fn ip_volume_cap_blocks_small_pools() {
        let mut p = platform();
        p.config.ip_daily_action_cap = 100;
        let a = organic(&mut p, ReciprocityProfile::SILENT);
        let b = organic(&mut p, ReciprocityProfile::SILENT);
        p.begin_day(Day(0));
        let r1 = p.submit_batch(batch(a, ActionType::Like, 80, PoolStats::INERT));
        // Same IP: only 20 left in today's budget, regardless of account.
        let r2 = p.submit_batch(batch(b, ActionType::Like, 80, PoolStats::INERT));
        assert_eq!(r1.delivered, 80);
        assert_eq!(r2.delivered, 20);
        assert_eq!(r2.blocked, 60);
        assert_eq!(counter(&p, "platform.outbound.edge_blocked"), 60);
        // Budget resets next day.
        p.begin_day(Day(1));
        let r3 = p.submit_batch(batch(a, ActionType::Like, 80, PoolStats::INERT));
        assert_eq!(r3.delivered, 80);
    }

    #[test]
    fn ip_budget_survives_a_mid_day_round_trip() {
        let mut p = platform();
        p.config.ip_daily_action_cap = 100;
        let a = organic(&mut p, ReciprocityProfile::SILENT);
        p.begin_day(Day(0));
        let spent = p.submit_batch(batch(a, ActionType::Like, 70, PoolStats::INERT));
        assert_eq!(spent.delivered, 70);
        // The rest of the day sees the remaining budget.
        let r = p.submit_batch(batch(a, ActionType::Like, 50, PoolStats::INERT));
        assert_eq!((r.delivered, r.blocked), (30, 20));
        // The next day's first submission leaves only its own IP counted.
        let mut req = batch(a, ActionType::Like, 10, PoolStats::INERT);
        req.ip = IpAddr4(0x0100_0000 + 5);
        p.begin_day(Day(1));
        p.submit_batch(req);
        assert_eq!(p.ip_day, Day(1));
        assert_eq!(p.ip_used, HashMap::from([(req.ip, 10)]));

        // A deferred event-path follow leaves an `Edge` removal pending for
        // the next day, which takes that follow back.
        let mut q = platform();
        let actor = organic(&mut q, ReciprocityProfile::SILENT);
        let target = organic(&mut q, ReciprocityProfile::SILENT);
        q.set_policy(Box::new(FixedThreshold {
            threshold: 0,
            cm: Countermeasure::DelayRemoval,
        }));
        q.begin_day(Day(0));
        let followers = q.accounts.get(target).followers;
        let outcome = q.submit_event(EventRequest {
            actor,
            action: ActionType::Follow,
            target,
            asn: AsnId(1),
            ip: IpAddr4(0x0100_0000),
            fingerprint: ClientFingerprint::SpoofedMobile { variant: 1 },
            service: Some(ServiceId::Boostgram),
        });
        assert_eq!(outcome, ActionOutcome::DeferredRemoval);
        let [today, tomorrow] = &q.pending_removals[..] else {
            panic!("expected removal queues for days 0 and 1: {:?}", q.pending_removals)
        };
        assert!(today.is_empty());
        assert!(
            matches!(tomorrow[..], [PendingRemoval::Edge { from, to }] if (from, to) == (actor, target)),
            "expected one Edge removal tomorrow, got {tomorrow:?}"
        );
        assert_eq!(q.accounts.get(target).followers, followers + 1);
        q.begin_day(Day(1));
        assert_eq!(q.accounts.get(target).followers, followers);
        assert_eq!(counter(&q, "platform.removed_follows"), 1);
    }

    #[test]
    fn batch_reciprocation_arrives_over_window() {
        let mut p = platform();
        let a = organic(&mut p, ReciprocityProfile::SILENT);
        let pool = PoolStats {
            like_for_like: 0.0,
            follow_for_like: 0.0,
            follow_for_follow: 0.5,
        };
        p.begin_day(Day(0));
        p.submit_batch(batch(a, ActionType::Follow, 1_000, pool));
        let mut total = 0u64;
        for d in 0..7u32 {
            p.begin_day(Day(d));
            total = p
                .log
                .total_inbound(a, ActionType::Follow, Day(0), Day(d + 1));
        }
        // Expected ~ 1000 * 0.5 * quality-follow(organic)=0.5*1.0.
        assert!(
            (300..700).contains(&(total as i64)),
            "reciprocation total {total}"
        );
        let followers = p.accounts.get(a).followers;
        assert_eq!(u64::from(followers), 100 + total);
    }

    #[test]
    fn deferred_batches_lose_future_reciprocation() {
        let run = |cm: Countermeasure| {
            let mut p = platform();
            let a = organic(&mut p, ReciprocityProfile::SILENT);
            p.set_policy(Box::new(FixedThreshold { threshold: 0, cm }));
            let pool = PoolStats {
                like_for_like: 0.0,
                follow_for_like: 0.0,
                follow_for_follow: 0.5,
            };
            p.begin_day(Day(0));
            p.submit_batch(batch(a, ActionType::Follow, 2_000, pool));
            for d in 1..8u32 {
                p.begin_day(Day(d));
            }
            p.log.total_inbound(a, ActionType::Follow, Day(0), Day(8))
        };
        let with_delay = run(Countermeasure::DelayRemoval);
        let without = run(Countermeasure::None);
        assert!(
            f64::from(with_delay as u32) < 0.45 * f64::from(without as u32),
            "delay={with_delay} none={without}"
        );
    }

    #[test]
    fn event_path_records_and_reciprocates() {
        let mut p = platform();
        // Highly reciprocating organic target.
        let target = organic(
            &mut p,
            ReciprocityProfile {
                like_for_like: 0.0,
                follow_for_like: 0.0,
                follow_for_follow: 1.0,
            },
        );
        let hp = p.accounts.create(
            SimTime::EPOCH,
            ProfileKind::HoneypotEmpty,
            Country::Us,
            AsnId(0),
            0,
            0,
            ReciprocityProfile::SILENT,
        );
        p.graph.track(hp);
        p.log.track_events_for(hp);
        p.begin_day(Day(0));
        let outcome = p.submit_event(EventRequest {
            actor: hp,
            action: ActionType::Follow,
            target,
            asn: AsnId(1),
            ip: IpAddr4(0x0100_0000),
            fingerprint: ClientFingerprint::SpoofedMobile { variant: 2 },
            service: Some(ServiceId::Instalex),
        });
        assert_eq!(outcome, ActionOutcome::Delivered);
        // Drain the response window.
        for d in 1..8u32 {
            p.begin_day(Day(d));
        }
        // p(follow back) = 1.0 * quality^0.25; quality(E)=0.52 → ~0.85.
        // With one trial it may or may not fire; run enough follows to see some.
        let mut got = p.log.total_inbound(hp, ActionType::Follow, Day(0), Day(8));
        if got == 0 {
            // Follow more targets to make the test robust.
            for i in 0..20 {
                let t = organic(
                    &mut p,
                    ReciprocityProfile {
                        like_for_like: 0.0,
                        follow_for_like: 0.0,
                        follow_for_follow: 1.0,
                    },
                );
                let _ = i;
                p.submit_event(EventRequest {
                    actor: hp,
                    action: ActionType::Follow,
                    target: t,
                    asn: AsnId(1),
                    ip: IpAddr4(0x0100_0000),
                    fingerprint: ClientFingerprint::SpoofedMobile { variant: 2 },
                    service: Some(ServiceId::Instalex),
                });
            }
            for d in 8..16u32 {
                p.begin_day(Day(d));
            }
            got = p.log.total_inbound(hp, ActionType::Follow, Day(0), Day(16));
        }
        assert!(got > 0, "expected at least one reciprocated follow");
        // Events for the tracked honeypot exist, with organic fingerprints.
        let inbound_events: Vec<_> = p
            .log
            .events_in(Day(0), Day(16), |e| {
                e.target == ActionTarget::Account(hp) && e.actor != hp
            })
            .collect();
        assert!(!inbound_events.is_empty());
        assert!(inbound_events
            .iter()
            .all(|e| e.fingerprint == ClientFingerprint::OfficialApp));
    }

    #[test]
    fn honeypots_never_reciprocate() {
        let mut p = platform();
        let hp = p.accounts.create(
            SimTime::EPOCH,
            ProfileKind::HoneypotInactive,
            Country::Us,
            AsnId(0),
            0,
            0,
            ReciprocityProfile::SILENT,
        );
        p.log.track_events_for(hp);
        let actor = organic(&mut p, ReciprocityProfile::SILENT);
        p.begin_day(Day(0));
        p.submit_event(EventRequest {
            actor,
            action: ActionType::Follow,
            target: hp,
            asn: AsnId(0),
            ip: IpAddr4(0x0100_0001),
            fingerprint: ClientFingerprint::OfficialApp,
            service: None,
        });
        for d in 1..8u32 {
            p.begin_day(Day(d));
        }
        // The honeypot received the follow but produced nothing outbound.
        assert_eq!(p.log.total_inbound(hp, ActionType::Follow, Day(0), Day(8)), 1);
        assert_eq!(p.log.total_outbound(hp, ActionType::Follow, Day(0), Day(8)), 0);
    }

    #[test]
    fn login_geolocation_majority_vote() {
        let mut p = platform();
        let a = organic(&mut p, ReciprocityProfile::SILENT);
        p.record_login(a);
        p.record_login(a);
        p.record_login_via(a, AsnId(1)); // RU service login, infrequent
        assert_eq!(p.login_country(a), Some(Country::Us));
        assert_eq!(p.login_country(AccountId(999)), None);
    }

    fn deposit(target: AccountId, ty: ActionType, requested: u32) -> DepositOp {
        DepositOp {
            target,
            ty,
            requested,
            asn: AsnId(1),
            service: Some(ServiceId::Hublaagram),
            media: None,
        }
    }

    #[test]
    fn collusion_deposit_updates_followers_and_photos() {
        let mut p = platform();
        // Defers follows above 30 a day; likes cannot be deferred, so all
        // 200 stand.
        p.set_policy(Box::new(FixedThreshold {
            threshold: 30,
            cm: Countermeasure::DelayRemoval,
        }));
        let customer = organic(&mut p, ReciprocityProfile::SILENT);
        p.begin_day(Day(0));
        let m = p.post_media(customer, AsnId(0), IpAddr4(0x0100_0002));
        let like = DepositOp {
            media: Some((m, 160)),
            ..deposit(customer, ActionType::Like, 200)
        };
        let results = [p.deposit(&deposit(customer, ActionType::Follow, 40)), p.deposit(&like)];
        let split: Vec<_> = results.iter().map(|r| (r.delivered, r.blocked, r.deferred)).collect();
        assert_eq!(split, [(30, 0, 10), (200, 0, 0)]);
        assert_eq!(results[0].visible_success(), 40, "the service sees full success");
        // On the deposit day the whole follow deposit stands.
        assert_eq!(p.accounts.get(customer).followers, 140);
        let row = *p.log.day(Day(0)).unwrap().inbound_from(customer, AsnId(1)).unwrap();
        assert_eq!(row.delivered[ActionType::Follow.index()], 30);
        assert_eq!(row.deferred[ActionType::Follow.index()], 10);
        assert_eq!(p.accounts.media(m).likes, 200);
        let pl = p.log.day(Day(0)).unwrap().photo_likes[&m];
        assert_eq!(pl.total, 200);
        assert_eq!(pl.max_hourly, 160);
        // Deferred inbound follows are undone next day. That undo is the
        // follower-side half of a removal, so `removed_follows` (counted
        // on the outbound side) does not move.
        p.begin_day(Day(1));
        assert_eq!(p.accounts.get(customer).followers, 130);
        assert_eq!(counter(&p, "platform.removed_follows"), 0);
    }

    #[test]
    fn zero_quantity_deposits_only_attribute_ground_truth() {
        let mut p = platform();
        let customer = organic(&mut p, ReciprocityProfile::SILENT);
        p.begin_day(Day(0));
        let results = [
            p.deposit(&deposit(customer, ActionType::Like, 0)),
            p.deposit(&deposit(customer, ActionType::Follow, 0)),
        ];
        assert_eq!(results, [BatchResult::default(); 2]);
        assert_eq!(p.ground_truth_services(customer), vec![ServiceId::Hublaagram]);
        assert!(p.log.day(Day(0)).is_none_or(|d| d.inbound().next().is_none()));
        assert_eq!(p.accounts.get(customer).followers, 100);
        assert_eq!(p.obs.metrics.snapshot().counter("platform.inbound.delivered"), 0);
    }

    #[test]
    fn same_key_deposits_see_each_other_in_prior_today() {
        // Blocking above 10 a day: the second op must be judged against
        // the 8 the first one delivered.
        let mut p = platform();
        p.set_policy(Box::new(FixedThreshold {
            threshold: 10,
            cm: Countermeasure::Block,
        }));
        let customer = organic(&mut p, ReciprocityProfile::SILENT);
        p.begin_day(Day(0));
        let op = deposit(customer, ActionType::Like, 8);
        let results = [p.deposit(&op), p.deposit(&op)];
        let split: Vec<_> = results.iter().map(|r| (r.delivered, r.blocked)).collect();
        assert_eq!(split, [(8, 0), (2, 6)]);
        let rows: Vec<_> = p.log.day(Day(0)).unwrap().inbound().collect();
        assert_eq!(rows.len(), 1, "one row per (target, network)");
        assert_eq!(*rows[0].0, (customer, Some(AsnId(1))));
        assert_eq!(rows[0].1.delivered[ActionType::Like.index()], 10);
        assert_eq!(rows[0].1.blocked[ActionType::Like.index()], 6);
    }

    #[test]
    fn deleted_accounts_receive_no_responses() {
        let mut p = platform();
        let a = organic(&mut p, ReciprocityProfile::SILENT);
        let pool = PoolStats {
            like_for_like: 0.0,
            follow_for_like: 0.0,
            follow_for_follow: 0.9,
        };
        p.begin_day(Day(0));
        p.submit_batch(batch(a, ActionType::Follow, 500, pool));
        let followers_before = p.accounts.get(a).followers;
        p.delete_account(a);
        for d in 1..8u32 {
            p.begin_day(Day(d));
        }
        // Day-0 same-day responses may have landed before deletion, but
        // nothing after.
        assert_eq!(p.accounts.get(a).followers, followers_before);
    }
}
