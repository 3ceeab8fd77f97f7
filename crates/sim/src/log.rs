//! The platform action log.
//!
//! Everything the paper measures is a query over this log: per-account daily
//! action counts (thresholds, §6.2), per-ASN activity (attribution, Table 7),
//! inbound-only accounts (Hublaagram's no-outbound fee, §5.2), per-photo
//! hourly like rates (paid-customer identification, §5.2), and per-event
//! streams for honeypots (§4).
//!
//! A sealed [`DayLog`] is the run's one day record: the detection stages
//! read it, and its JSON form is a line of the event log (DESIGN.md §8).
//! That line is an object of the day's row lists, and every row is a
//! positional JSON array written by this module; enums inside a row keep
//! their derived tags.
//!
//! Per the two-speed design, bulk activity is stored as **daily aggregates**
//! and full [`ActionEvent`]s are retained only for accounts registered as
//! *event-tracked*.
//!
//! ## Storage layout
//!
//! Aggregates live in flat record vectors, not hash maps. Only the day
//! currently being written (the *open* day) takes writes. It carries a
//! transient per-account chain index — `heads[account] → first record,
//! next[record] → same-account record` — so the per-action path (upsert +
//! the countermeasures' `prior_today` lookup) walks a one-or-two-entry
//! chain instead of hashing or scanning. Nothing reads the open day's
//! logins, so each login is appended as a record of one. When the log
//! advances to a later day, the previous day is *sealed*: outbound and
//! inbound records are sorted by key, logins are sorted and the records
//! of one `(account, asn)` merged into one, the chain index is dropped,
//! and all queries switch to binary search over the sorted vectors. The
//! sorts are stable (`sort_by_key`), which takes the ascending runs a day
//! is written in as they are (each service serves its roster in
//! enrollment order, and account ids mostly ascend with it); keys are
//! unique after the upserts and the merge, so the result is the key order
//! an unstable sort gives. Iteration order is therefore deterministic in
//! both states — insertion order while open, key order once sealed — and
//! the logins (and with them [`DayLog::record_count`]) are read only once
//! the day is sealed.
//!
//! A sealed day is final: a write into it panics, so the day the event log
//! holds and the day in memory never diverge, and a reader may keep or
//! drop a sealed day knowing it cannot change.

use crate::actions::{ActionEvent, ActionOutcome, ActionType, TypeCounts};
use crate::fingerprint::ClientFingerprint;
use crate::ids::{AccountId, AsnId, MediaId};
use crate::time::Day;
use serde::{Deserialize, Error, Reader, Serialize, Writer};
use std::collections::BTreeMap;

/// Key of an outbound aggregate record: who acted, from which network, with
/// which client software. The fingerprint is part of the key because the
/// platform's abuse signals combine ASN and client fingerprint (§5) — a
/// mixed ASN hosting both organic app traffic and a service's spoofed
/// private-API traffic must keep the two distinguishable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OutboundKey {
    /// Acting account.
    pub account: AccountId,
    /// Source ASN.
    pub asn: AsnId,
    /// Client fingerprint of the submitting software.
    pub fingerprint: ClientFingerprint,
}

/// Source of an inbound aggregate record: the ASN the actions came from, or
/// `None` for diffuse organic sources (aggregate reciprocation has no single
/// origin network).
pub type InboundSource = Option<AsnId>;

/// Like-delivery statistics for one photo on one day.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhotoDayLikes {
    /// Total likes delivered to the photo this day.
    pub total: u32,
    /// The largest number of likes delivered within any single hour of the
    /// day. Hublaagram's free tier is capped at 160 likes/hour, so paid
    /// deliveries are identified by exceeding that rate (§5.2).
    pub max_hourly: u32,
}

impl PhotoDayLikes {
    /// Fold a delivery burst of `total` likes with peak hourly rate
    /// `max_hourly` into the day's stats.
    pub fn add_burst(&mut self, total: u32, max_hourly: u32) {
        self.total += total;
        self.max_hourly = self.max_hourly.max(max_hourly);
    }
}

/// Logins by one account via one ASN on one day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoginRecord {
    /// The account that logged in.
    pub account: AccountId,
    /// The ASN the logins came from.
    pub asn: AsnId,
    /// Number of logins that day.
    pub count: u32,
}

type InboundKey = (AccountId, InboundSource);

/// The key of an aggregate row. Its order sorts by account first.
trait RowKey: Copy + Ord {
    fn account(&self) -> AccountId;
}

impl RowKey for OutboundKey {
    fn account(&self) -> AccountId {
        self.account
    }
}

impl RowKey for InboundKey {
    fn account(&self) -> AccountId {
        self.0
    }
}

/// Sentinel for "no row" in a [`Chain`].
const NONE: u32 = u32::MAX;

/// The open day's per-account chain over one row list: `heads[account]` is
/// the account's latest row, and `next[row]` the account's row before it.
#[derive(Debug, Clone, Default)]
struct Chain {
    heads: Vec<u32>,
    next: Vec<u32>,
}

impl Chain {
    /// The rows of `account`, latest first.
    fn walk(&self, account: AccountId) -> impl Iterator<Item = usize> + '_ {
        let row = |at: u32| (at != NONE).then_some(at as usize);
        let head = self.heads.get(account.index()).copied().unwrap_or(NONE);
        std::iter::successors(row(head), move |&at| row(self.next[at]))
    }

    /// Make `row`, a new row of `account`, the head of its chain.
    fn link(&mut self, account: AccountId, row: usize) {
        let i = account.index();
        if i >= self.heads.len() {
            self.heads.resize(i + 1, NONE);
        }
        self.next.push(std::mem::replace(&mut self.heads[i], row as u32));
    }
}

/// One day's aggregate rows of one kind: insertion order while the day is
/// open, key order once it is sealed.
#[derive(Debug, Clone)]
struct Rows<K> {
    rows: Vec<(K, TypeCounts)>,
    /// The open day's chain; `None` once sealed.
    chain: Option<Chain>,
}

impl<K> Default for Rows<K> {
    fn default() -> Self {
        Rows { rows: Vec::new(), chain: None }
    }
}

impl<K: RowKey> Rows<K> {
    /// Add `n` actions to `key`'s row, appending the row if it is new.
    fn upsert(&mut self, key: K, ty: ActionType, outcome: ActionOutcome, n: u32) {
        let chain = self.chain.as_mut().expect("a write landed in a sealed day");
        let rows = &mut self.rows;
        let found = chain.walk(key.account()).find(|&at| rows[at].0 == key);
        let at = match found {
            Some(at) => at,
            None => {
                chain.link(key.account(), rows.len());
                rows.push((key, TypeCounts::default()));
                rows.len() - 1
            }
        };
        rows[at].1.record(ty, outcome, n);
    }

    /// Visit every row of `account`: a chain walk while open, the key range
    /// found by binary search once sealed.
    fn visit<'a>(&'a self, account: AccountId, mut f: impl FnMut(&'a K, &'a TypeCounts)) {
        match &self.chain {
            Some(chain) => chain.walk(account).for_each(|at| {
                let (k, c) = &self.rows[at];
                f(k, c);
            }),
            None => {
                let lo = self.rows.partition_point(|(k, _)| k.account() < account);
                self.rows[lo..]
                    .iter()
                    .take_while(|(k, _)| k.account() == account)
                    .for_each(|(k, c)| f(k, c));
            }
        }
    }

    /// Sort the rows by key and drop the chain.
    fn seal(&mut self) {
        self.chain = None;
        self.rows.sort_by_key(|&(key, _)| key);
    }
}

/// Aggregated activity for a single day. A sealed day's JSON form is
/// `{day, outbound, inbound, photo_likes, logins, events}`, rows in key
/// order.
#[derive(Debug, Clone, Default)]
pub struct DayLog {
    /// The day this record covers.
    day: Day,
    outbound: Rows<OutboundKey>,
    inbound: Rows<InboundKey>,
    /// Per-photo like-delivery stats for tracked photos. Low write volume
    /// (one entry per delivery burst), so an ordered map keeps iteration
    /// deterministic at no per-action cost.
    pub photo_likes: BTreeMap<MediaId, PhotoDayLikes>,
    /// Logins: one record of one login each, in arrival order, while the
    /// day is open; one record per `(account, asn)`, in key order, once it
    /// is sealed.
    logins: Vec<LoginRecord>,
    /// Full events for event-tracked accounts, in submission order.
    pub events: Vec<ActionEvent>,
}

impl DayLog {
    /// An empty record of `day`.
    pub fn new(day: Day) -> Self {
        Self { day, ..Self::default() }
    }

    /// The day this record covers.
    pub fn day(&self) -> Day {
        self.day
    }

    /// This sealed day's login counts, one record per `(account, asn)`,
    /// in key order.
    ///
    /// # Panics
    /// Panics on the open day, whose logins are merged when it is sealed.
    pub fn logins(&self) -> &[LoginRecord] {
        assert!(
            !self.is_open(),
            "an open day's logins are merged when it is sealed"
        );
        &self.logins
    }

    /// Records (outbound + inbound + logins + events) of this sealed day:
    /// the stream's unit.
    ///
    /// # Panics
    /// Panics on the open day, as [`Self::logins`] does.
    pub fn record_count(&self) -> u64 {
        let rows = self.outbound.rows.len() + self.inbound.rows.len();
        (rows + self.logins().len() + self.events.len()) as u64
    }

    /// Iterate `(key, counts)` over this day's outbound records.
    pub fn outbound(&self) -> impl Iterator<Item = (&OutboundKey, &TypeCounts)> {
        self.outbound.rows.iter().map(|(k, c)| (k, c))
    }

    /// Iterate `(key, counts)` over this day's inbound records.
    pub fn inbound(&self) -> impl Iterator<Item = (&InboundKey, &TypeCounts)> {
        self.inbound.rows.iter().map(|(k, c)| (k, c))
    }

    /// Total outbound actions of `ty` attempted by `account` across all ASNs.
    pub fn outbound_attempted(&self, account: AccountId, ty: ActionType) -> u32 {
        let mut total = 0;
        self.outbound.visit(account, |_, c| total += c.attempted_of(ty));
        total
    }

    /// Merged outbound counters for `(account, asn)` across fingerprints.
    /// Returns `None` if nothing was recorded.
    pub fn outbound_at(&self, account: AccountId, asn: AsnId) -> Option<TypeCounts> {
        let mut total = TypeCounts::default();
        let mut any = false;
        self.outbound.visit(account, |k, c| {
            if k.asn == asn {
                total.merge(c);
                any = true;
            }
        });
        any.then_some(total)
    }

    /// Merged inbound counters for an account across all sources.
    pub fn inbound_of(&self, account: AccountId) -> Option<TypeCounts> {
        let mut total = TypeCounts::default();
        let mut any = false;
        self.inbound.visit(account, |_, c| {
            total.merge(c);
            any = true;
        });
        any.then_some(total)
    }

    /// Inbound counters for an account restricted to one source ASN.
    pub fn inbound_from(&self, account: AccountId, asn: AsnId) -> Option<&TypeCounts> {
        let mut found = None;
        self.inbound.visit(account, |&(_, source), c| {
            if source == Some(asn) {
                found = Some(c);
            }
        });
        found
    }

    /// Whether this is the open day, which takes writes.
    fn is_open(&self) -> bool {
        self.outbound.chain.is_some()
    }

    /// Give both row lists their chains, making this the open day.
    fn open(&mut self) {
        self.outbound.chain.get_or_insert_with(Chain::default);
        self.inbound.chain.get_or_insert_with(Chain::default);
    }

    /// Sort the rows by key, merge the logins of each `(account, asn)`
    /// and drop the chains. Idempotent.
    fn seal(&mut self) {
        if !self.is_open() {
            return;
        }
        self.outbound.seal();
        self.inbound.seal();
        self.logins.sort_by_key(|r| (r.account, r.asn));
        self.logins.dedup_by(|next, kept| {
            let same = (next.account, next.asn) == (kept.account, kept.asn);
            if same {
                kept.count += next.count;
            }
            same
        });
    }
}

impl Serialize for DayLog {
    /// Writes the sealed rows as they are, in key order.
    ///
    /// # Panics
    /// Panics on an open day, whose rows are in insertion order.
    fn serialize(&self, w: &mut Writer) {
        assert!(!self.is_open(), "an open day has no wire form: seal it first");
        w.begin_object();
        w.field("day", &self.day);
        w.field("outbound", &self.outbound.rows);
        w.field("inbound", &self.inbound.rows);
        w.field("photo_likes", &self.photo_likes);
        w.field("logins", &self.logins);
        w.field("events", &self.events);
        w.end_object();
    }
}

impl Deserialize for DayLog {
    /// Reads a sealed day. Its outbound, inbound and login rows must be in
    /// strictly increasing key order, as the writer emits them: a swapped
    /// or repeated row is an error, since the sealed day's binary searches
    /// would miss it or find only one of two copies.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let (mut day, mut out, mut inb, mut likes, mut logins, mut events) =
            (None, None, None, None, None, None);
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "day" => r.field(&mut day, "day")?,
                "outbound" => r.field(&mut out, "outbound")?,
                "inbound" => r.field(&mut inb, "inbound")?,
                "photo_likes" => r.field(&mut likes, "photo_likes")?,
                "logins" => r.field(&mut logins, "logins")?,
                "events" => r.field(&mut events, "events")?,
                _ => r.skip_value()?,
            }
        }
        let missing = |name| Error::missing_field(name, "DayLog");
        let day = DayLog {
            day: day.ok_or_else(|| missing("day"))?,
            outbound: Rows { rows: out.ok_or_else(|| missing("outbound"))?, chain: None },
            inbound: Rows { rows: inb.ok_or_else(|| missing("inbound"))?, chain: None },
            photo_likes: likes.ok_or_else(|| missing("photo_likes"))?,
            logins: logins.ok_or_else(|| missing("logins"))?,
            events: events.ok_or_else(|| missing("events"))?,
        };
        in_key_order("outbound", &day.outbound.rows, |(k, _)| *k)?;
        in_key_order("inbound", &day.inbound.rows, |(k, _)| *k)?;
        in_key_order("logins", &day.logins, |r| (r.account, r.asn))?;
        Ok(day)
    }
}

/// Fails unless `rows` are in strictly increasing `key` order.
fn in_key_order<T, K: Ord>(what: &str, rows: &[T], key: impl Fn(&T) -> K) -> Result<(), Error> {
    match rows.windows(2).position(|w| key(&w[0]) >= key(&w[1])) {
        None => Ok(()),
        Some(i) => Err(Error::custom(format!(
            "{what} row {} does not follow row {i} in strictly increasing key order",
            i + 1
        ))),
    }
}

// The rows of a day record. Each is a JSON array in field order, so a
// line does not repeat field names row after row (DESIGN.md §8):
// `OutboundKey` `[account, asn, fingerprint]`, `LoginRecord`
// `[account, asn, count]`, `PhotoDayLikes` `[total, max_hourly]`,
// `ActionEvent` `[at, actor, action, target, ip, asn, fingerprint,
// outcome]`, and `TypeCounts` the 15 cells of `delivered`, `blocked`
// and `deferred`, each in `ActionType::ALL` order.

impl Serialize for OutboundKey {
    fn serialize(&self, w: &mut Writer) {
        (self.account, self.asn, self.fingerprint).serialize(w);
    }
}

impl Deserialize for OutboundKey {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let (account, asn, fingerprint) = Deserialize::deserialize(r)?;
        Ok(OutboundKey { account, asn, fingerprint })
    }
}

impl Serialize for LoginRecord {
    fn serialize(&self, w: &mut Writer) {
        (self.account, self.asn, self.count).serialize(w);
    }
}

impl Deserialize for LoginRecord {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let (account, asn, count) = Deserialize::deserialize(r)?;
        Ok(LoginRecord { account, asn, count })
    }
}

impl Serialize for PhotoDayLikes {
    fn serialize(&self, w: &mut Writer) {
        (self.total, self.max_hourly).serialize(w);
    }
}

impl Deserialize for PhotoDayLikes {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let (total, max_hourly) = Deserialize::deserialize(r)?;
        Ok(PhotoDayLikes { total, max_hourly })
    }
}

/// Elements of an event row.
const EVENT_LEN: usize = 8;

impl Serialize for ActionEvent {
    fn serialize(&self, w: &mut Writer) {
        w.begin_seq();
        w.element(&self.at);
        w.element(&self.actor);
        w.element(&self.action);
        w.element(&self.target);
        w.element(&self.ip);
        w.element(&self.asn);
        w.element(&self.fingerprint);
        w.element(&self.outcome);
        w.end_seq();
    }
}

impl Deserialize for ActionEvent {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.begin_seq()?;
        // Fields are read in the order they are written here.
        let event = ActionEvent {
            at: r.tuple_element(EVENT_LEN)?,
            actor: r.tuple_element(EVENT_LEN)?,
            action: r.tuple_element(EVENT_LEN)?,
            target: r.tuple_element(EVENT_LEN)?,
            ip: r.tuple_element(EVENT_LEN)?,
            asn: r.tuple_element(EVENT_LEN)?,
            fingerprint: r.tuple_element(EVENT_LEN)?,
            outcome: r.tuple_element(EVENT_LEN)?,
        };
        r.end_tuple(EVENT_LEN)?;
        Ok(event)
    }
}

/// Cells of a counts row: three stages of one cell per action type.
const COUNTS_LEN: usize = 3 * ActionType::COUNT;

impl Serialize for TypeCounts {
    fn serialize(&self, w: &mut Writer) {
        w.begin_seq();
        for stage in [&self.delivered, &self.blocked, &self.deferred] {
            for n in stage {
                w.element(n);
            }
        }
        w.end_seq();
    }
}

impl Deserialize for TypeCounts {
    /// `attempted` is not on the wire: it is the sum of the three stages,
    /// and a row whose sum overflows is an error.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let mut c = TypeCounts::default();
        r.begin_seq()?;
        for stage in [&mut c.delivered, &mut c.blocked, &mut c.deferred] {
            for n in stage {
                *n = r.tuple_element(COUNTS_LEN)?;
            }
        }
        r.end_tuple(COUNTS_LEN)?;
        for ty in ActionType::ALL {
            let i = ty.index();
            c.attempted[i] = c.delivered[i]
                .checked_add(c.blocked[i])
                .and_then(|n| n.checked_add(c.deferred[i]))
                .ok_or_else(|| Error::custom(format!("{ty} counts overflow u32")))?;
        }
        Ok(c)
    }
}

/// The append-only platform log, indexed by day.
#[derive(Debug, Clone, Default)]
pub struct ActionLog {
    days: Vec<DayLog>,
    /// Index of the open (chain-indexed) day; days below it are sealed.
    open_idx: usize,
    /// `tracked[account]`: full per-action events are retained. Dense, so
    /// the per-event check costs one bounds-checked load.
    event_tracked: Vec<bool>,
}

impl ActionLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an account for event-level retention. Events involving the
    /// account (as actor or target) from now on are stored verbatim.
    pub fn track_events_for(&mut self, id: AccountId) {
        let i = id.index();
        if i >= self.event_tracked.len() {
            self.event_tracked.resize(i + 1, false);
        }
        self.event_tracked[i] = true;
    }

    /// Whether events for this account are retained.
    pub fn is_event_tracked(&self, id: AccountId) -> bool {
        self.event_tracked.get(id.index()).copied().unwrap_or(false)
    }

    /// The open day's record, growing the log as needed: the one way into
    /// the log for its writers (`record_*`, `push_event`). Only the open
    /// day takes writes: a write to a later day seals every earlier one
    /// (sorts its records, drops its chain index) and opens the later day.
    ///
    /// # Panics
    /// Panics on a sealed day: a sealed day is final.
    fn day_mut(&mut self, day: Day) -> &mut DayLog {
        let idx = day.0 as usize;
        assert!(idx >= self.open_idx, "a write landed in a sealed day");
        if idx > self.open_idx {
            self.seal(Day(day.0 - 1));
        }
        self.grow_to(idx);
        let open = &mut self.days[idx];
        open.open();
        open
    }

    /// Materialize empty records through day index `idx`.
    fn grow_to(&mut self, idx: usize) {
        let len = self.days.len();
        if idx >= len {
            self.days.extend((len..=idx).map(|d| DayLog::new(Day(d as u32))));
        }
    }

    /// Seal every day through `day` (materialized if empty) and return it,
    /// in key order as the event log holds it. Sealing makes a day final:
    /// the log's writers refuse it from then on.
    pub fn seal(&mut self, day: Day) -> &DayLog {
        let idx = day.0 as usize;
        self.grow_to(idx);
        if idx >= self.open_idx {
            for d in &mut self.days[self.open_idx..=idx] {
                d.seal();
            }
            self.open_idx = idx + 1;
        }
        &self.days[idx]
    }

    /// Day record, if the day is within the log's range.
    pub fn day(&self, day: Day) -> Option<&DayLog> {
        self.days.get(day.0 as usize)
    }

    /// Number of days with (potential) records, i.e. one past the last
    /// recorded day.
    pub fn horizon(&self) -> Day {
        Day(self.days.len() as u32)
    }

    /// The day records over `[start, end)` intersected with the log.
    pub fn iter_range(&self, start: Day, end: Day) -> impl Iterator<Item = &DayLog> {
        let hi = (end.0 as usize).min(self.days.len());
        self.days[(start.0 as usize).min(hi)..hi].iter()
    }

    /// Record `n` outbound actions for `(actor, asn, fingerprint)` on `day`.
    #[allow(clippy::too_many_arguments)]
    pub fn record_outbound(
        &mut self,
        day: Day,
        actor: AccountId,
        asn: AsnId,
        fingerprint: ClientFingerprint,
        ty: ActionType,
        outcome: ActionOutcome,
        n: u32,
    ) {
        if n == 0 {
            return;
        }
        self.day_mut(day)
            .outbound
            .upsert(OutboundKey { account: actor, asn, fingerprint }, ty, outcome, n);
    }

    /// Record `n` delivered inbound actions landing on `target` on `day`
    /// from `source` (`None` = diffuse organic sources).
    pub fn record_inbound(
        &mut self,
        day: Day,
        target: AccountId,
        source: InboundSource,
        ty: ActionType,
        n: u32,
    ) {
        self.record_inbound_with(day, target, source, ty, ActionOutcome::Delivered, n);
    }

    /// Record `n` inbound actions directed at `target` with an explicit
    /// outcome. Collusion-network deliveries use this to account for
    /// inbound-side countermeasures (blocked deliveries never land but are
    /// still part of the measured demand, Figure 6).
    pub fn record_inbound_with(
        &mut self,
        day: Day,
        target: AccountId,
        source: InboundSource,
        ty: ActionType,
        outcome: ActionOutcome,
        n: u32,
    ) {
        if n == 0 {
            return;
        }
        self.day_mut(day).inbound.upsert((target, source), ty, outcome, n);
    }

    /// Record a like-delivery burst onto a photo.
    pub fn record_photo_likes(&mut self, day: Day, media: MediaId, total: u32, max_hourly: u32) {
        if total == 0 {
            return;
        }
        self.day_mut(day)
            .photo_likes
            .entry(media)
            .or_default()
            .add_burst(total, max_hourly);
    }

    /// Count one login by `account` via `asn` on `day`: an append, merged
    /// with the same key's other logins when the day is sealed.
    pub fn record_login(&mut self, day: Day, account: AccountId, asn: AsnId) {
        self.day_mut(day).logins.push(LoginRecord {
            account,
            asn,
            count: 1,
        });
    }

    /// Append a full event if either endpoint is event-tracked; returns
    /// whether it was retained. (Aggregates must be recorded separately —
    /// the log does not double-count on your behalf.)
    pub fn push_event(&mut self, ev: ActionEvent) -> bool {
        let target_tracked = ev
            .target
            .account()
            .is_some_and(|t| self.is_event_tracked(t));
        if self.is_event_tracked(ev.actor) || target_tracked {
            let day = ev.at.day();
            self.day_mut(day).events.push(ev);
            true
        } else {
            false
        }
    }

    /// All retained events in `[start, end)` for which `pred` holds.
    pub fn events_in<'a>(
        &'a self,
        start: Day,
        end: Day,
        mut pred: impl FnMut(&ActionEvent) -> bool + 'a,
    ) -> impl Iterator<Item = &'a ActionEvent> {
        self.iter_range(start, end)
            .flat_map(|d| d.events.iter())
            .filter(move |e| pred(e))
    }

    /// Sum of outbound attempted actions of `ty` by `actor` over `[start, end)`.
    pub fn total_outbound(&self, actor: AccountId, ty: ActionType, start: Day, end: Day) -> u64 {
        self.iter_range(start, end)
            .map(|d| u64::from(d.outbound_attempted(actor, ty)))
            .sum()
    }

    /// Sum of delivered inbound actions of `ty` to `target` over `[start, end)`.
    pub fn total_inbound(&self, target: AccountId, ty: ActionType, start: Day, end: Day) -> u64 {
        self.iter_range(start, end)
            .filter_map(|d| d.inbound_of(target))
            .map(|c| u64::from(c.delivered[ty.index()]))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::ActionTarget;
    use crate::fingerprint::ClientFingerprint;
    use crate::net::IpAddr4;

    fn ev(actor: u32, target: u32, day: u32) -> ActionEvent {
        ActionEvent {
            at: Day(day).start().plus_hours(1),
            actor: AccountId(actor),
            action: ActionType::Follow,
            target: ActionTarget::Account(AccountId(target)),
            ip: IpAddr4(1),
            asn: AsnId(0),
            fingerprint: ClientFingerprint::OfficialApp,
            outcome: ActionOutcome::Delivered,
        }
    }

    #[test]
    fn outbound_aggregation_by_asn_and_fingerprint() {
        let mut log = ActionLog::new();
        let a = AccountId(1);
        let app = ClientFingerprint::OfficialApp;
        let spoof = ClientFingerprint::SpoofedMobile { variant: 1 };
        log.record_outbound(Day(0), a, AsnId(0), app, ActionType::Like, ActionOutcome::Delivered, 5);
        log.record_outbound(Day(0), a, AsnId(1), spoof, ActionType::Like, ActionOutcome::Blocked, 3);
        log.record_outbound(Day(0), a, AsnId(1), app, ActionType::Like, ActionOutcome::Delivered, 2);
        let d = log.day(Day(0)).unwrap();
        assert_eq!(d.outbound_attempted(a, ActionType::Like), 10);
        // Merged across fingerprints at one ASN.
        let at1 = d.outbound_at(a, AsnId(1)).unwrap();
        assert_eq!(at1.blocked_of(ActionType::Like), 3);
        assert_eq!(at1.attempted_of(ActionType::Like), 5);
        // Fingerprints remain distinguishable in the raw records.
        assert_eq!(d.outbound().count(), 3);
        assert_eq!(log.total_outbound(a, ActionType::Like, Day(0), Day(1)), 10);
    }

    #[test]
    fn zero_counts_are_not_stored() {
        let mut log = ActionLog::new();
        log.record_outbound(
            Day(0),
            AccountId(1),
            AsnId(0),
            ClientFingerprint::OfficialApp,
            ActionType::Like,
            ActionOutcome::Delivered,
            0,
        );
        log.record_inbound(Day(0), AccountId(1), None, ActionType::Like, 0);
        assert!(log.day(Day(0)).is_none(), "no day record materialised");
    }

    #[test]
    fn inbound_totals_over_range_and_sources() {
        let mut log = ActionLog::new();
        let t = AccountId(9);
        log.record_inbound(Day(1), t, None, ActionType::Follow, 2);
        log.record_inbound(Day(3), t, Some(AsnId(7)), ActionType::Follow, 5);
        assert_eq!(log.total_inbound(t, ActionType::Follow, Day(0), Day(3)), 2);
        assert_eq!(log.total_inbound(t, ActionType::Follow, Day(0), Day(10)), 7);
    }

    #[test]
    fn photo_like_bursts_track_peak_hourly() {
        let mut log = ActionLog::new();
        let m = MediaId(4);
        log.record_photo_likes(Day(2), m, 300, 150);
        log.record_photo_likes(Day(2), m, 400, 200);
        let p = log.day(Day(2)).unwrap().photo_likes[&m];
        assert_eq!(p.total, 700);
        assert_eq!(p.max_hourly, 200);
    }

    #[test]
    fn events_retained_only_for_tracked_accounts() {
        let mut log = ActionLog::new();
        log.track_events_for(AccountId(7));
        assert!(!log.push_event(ev(1, 2, 0)), "untracked dropped");
        assert!(log.push_event(ev(7, 2, 0)), "tracked actor kept");
        assert!(log.push_event(ev(3, 7, 1)), "tracked target kept");
        let n = log.events_in(Day(0), Day(2), |_| true).count();
        assert_eq!(n, 2);
        let n0 = log.events_in(Day(0), Day(1), |_| true).count();
        assert_eq!(n0, 1);
    }

    #[test]
    fn iter_range_clamps_to_log() {
        let mut log = ActionLog::new();
        log.record_inbound(Day(0), AccountId(0), None, ActionType::Like, 1);
        let collected: Vec<Day> = log.iter_range(Day(0), Day(100)).map(DayLog::day).collect();
        assert_eq!(collected, vec![Day(0)]);
        assert_eq!(log.iter_range(Day(5), Day(2)).count(), 0);
    }

    #[test]
    fn horizon_grows_with_day_mut() {
        let mut log = ActionLog::new();
        assert_eq!(log.horizon(), Day(0));
        log.day_mut(Day(4));
        assert_eq!(log.horizon(), Day(5));
    }

    #[test]
    fn sealed_days_answer_the_same_queries_as_open_ones() {
        let mut log = ActionLog::new();
        let a = AccountId(3);
        let b = AccountId(5);
        let fp = ClientFingerprint::SpoofedMobile { variant: 2 };
        // Interleave writers so the open-day chains are non-trivial.
        for i in 0..10u32 {
            let who = if i % 2 == 0 { a } else { b };
            let asn = AsnId(i % 3);
            log.record_outbound(Day(0), who, asn, fp, ActionType::Follow, ActionOutcome::Delivered, i + 1);
            log.record_inbound(Day(0), who, Some(asn), ActionType::Like, i + 1);
        }
        let open_att = log.day(Day(0)).unwrap().outbound_attempted(a, ActionType::Follow);
        let open_at = log.day(Day(0)).unwrap().outbound_at(a, AsnId(0));
        let open_in = log.day(Day(0)).unwrap().inbound_of(b);
        assert!(log.day(Day(0)).unwrap().is_open());
        // Advancing the log seals day 0.
        log.record_outbound(Day(1), a, AsnId(0), fp, ActionType::Like, ActionOutcome::Delivered, 1);
        let d0 = log.day(Day(0)).unwrap();
        assert!(!d0.is_open());
        assert_eq!(d0.outbound_attempted(a, ActionType::Follow), open_att);
        assert_eq!(d0.outbound_at(a, AsnId(0)), open_at);
        assert_eq!(d0.inbound_of(b), open_in);
        // Sealed records are in key order.
        let keys: Vec<OutboundKey> = d0.outbound().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn repeated_logins_seal_into_one_record_per_key() {
        let mut log = ActionLog::new();
        let (a, b) = (AccountId(9), AccountId(2));
        for (account, asn) in [(a, 1), (b, 0), (a, 1), (a, 0), (b, 0), (a, 1)] {
            log.record_login(Day(0), account, AsnId(asn));
        }
        let login = |account, asn, count| LoginRecord {
            account,
            asn: AsnId(asn),
            count,
        };
        let sealed = log.seal(Day(0));
        assert_eq!(
            sealed.logins(),
            [login(b, 0, 2), login(a, 0, 1), login(a, 1, 3)]
        );
        assert_eq!(sealed.record_count(), 3);
    }

    #[test]
    #[should_panic(expected = "an open day's logins are merged when it is sealed")]
    fn logins_of_the_open_day_panic() {
        let mut log = ActionLog::new();
        log.record_login(Day(0), AccountId(1), AsnId(0));
        let _ = log.day(Day(0)).unwrap().logins();
    }

    #[test]
    #[should_panic(expected = "a write landed in a sealed day")]
    fn writes_into_sealed_days_panic() {
        let mut log = ActionLog::new();
        log.record_inbound(Day(0), AccountId(1), None, ActionType::Like, 1);
        // The study seals a day before it records it; the day is final.
        log.seal(Day(0));
        log.day_mut(Day(0));
    }

    #[test]
    #[should_panic(expected = "an open day has no wire form")]
    fn an_open_day_has_no_wire_form() {
        let mut log = ActionLog::new();
        log.record_inbound(Day(0), AccountId(1), None, ActionType::Like, 1);
        let _ = serde_json::to_string(log.day(Day(0)).unwrap());
    }
}
