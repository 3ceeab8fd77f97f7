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
//! Aggregates live in flat record vectors, not hash maps. The day currently
//! being written (the *open* day) carries a transient per-account chain
//! index — `heads[account] → first record, next[record] → same-account
//! record` — so the per-action path (upsert + the countermeasures'
//! `prior_today` lookup) walks a one-or-two-entry chain instead of hashing
//! or scanning. When the log advances to a later day, the previous day is
//! *sealed*: records are sorted by key, the chain index is dropped, and all
//! queries switch to binary search over the sorted vector. Iteration order
//! is therefore deterministic in both states — insertion order while open,
//! key order once sealed.
//! Days the event log holds ([`ActionLog::set_recorded`]) take no more
//! writes, and serialization leaves them out.

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

/// Sentinel for "no chain entry" in the open-day index.
const NONE: u32 = u32::MAX;

/// Transient per-account chain index for the day currently being written.
/// `out_heads[account]` is the index of the account's most recent outbound
/// record; `out_next[i]` links record `i` to the account's previous record.
#[derive(Debug, Clone, Default)]
struct OpenIndex {
    out_heads: Vec<u32>,
    out_next: Vec<u32>,
    in_heads: Vec<u32>,
    in_next: Vec<u32>,
}

impl OpenIndex {
    /// Rebuild chains from existing records (reopening a sealed day).
    fn rebuild(out: &[(OutboundKey, TypeCounts)], inb: &[(InboundKey, TypeCounts)]) -> Self {
        let mut idx = OpenIndex::default();
        for (i, (k, _)) in out.iter().enumerate() {
            idx.out_next.push(take_head(&mut idx.out_heads, k.account, i as u32));
        }
        for (i, ((a, _), _)) in inb.iter().enumerate() {
            idx.in_next.push(take_head(&mut idx.in_heads, *a, i as u32));
        }
        idx
    }
}

/// Swap `heads[account]` to `new`, returning the previous head.
fn take_head(heads: &mut Vec<u32>, account: AccountId, new: u32) -> u32 {
    let i = account.index();
    if i >= heads.len() {
        heads.resize(i + 1, NONE);
    }
    std::mem::replace(&mut heads[i], new)
}

fn head_of(heads: &[u32], account: AccountId) -> u32 {
    heads.get(account.index()).copied().unwrap_or(NONE)
}

type InboundKey = (AccountId, InboundSource);

/// Aggregated activity for a single day. Its JSON form is
/// `{day, outbound, inbound, photo_likes, logins, events}`, rows in key
/// order whether the day is open or sealed.
#[derive(Debug, Clone, Default)]
pub struct DayLog {
    /// The day this record covers.
    day: Day,
    /// Outbound records: insertion order while open, key order once sealed.
    out_records: Vec<(OutboundKey, TypeCounts)>,
    /// Inbound records, same ordering contract.
    in_records: Vec<(InboundKey, TypeCounts)>,
    /// Per-photo like-delivery stats for tracked photos. Low write volume
    /// (one entry per delivery burst), so an ordered map keeps iteration
    /// deterministic at no per-action cost.
    pub photo_likes: BTreeMap<MediaId, PhotoDayLikes>,
    /// Login counts per `(account, asn)`, always in key order.
    logins: Vec<LoginRecord>,
    /// Full events for event-tracked accounts, in submission order.
    pub events: Vec<ActionEvent>,
    /// Chain index while this day is the open (written) day.
    open: Option<Box<OpenIndex>>,
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

    /// This day's login counts, in `(account, asn)` order.
    pub fn logins(&self) -> &[LoginRecord] {
        &self.logins
    }

    /// Records (outbound + inbound + logins + events): the stream's unit.
    pub fn record_count(&self) -> u64 {
        (self.out_records.len() + self.in_records.len() + self.logins.len() + self.events.len())
            as u64
    }

    /// Iterate `(key, counts)` over this day's outbound records.
    pub fn outbound(&self) -> impl Iterator<Item = (&OutboundKey, &TypeCounts)> {
        self.out_records.iter().map(|(k, c)| (k, c))
    }

    /// Iterate `(key, counts)` over this day's inbound records.
    pub fn inbound(&self) -> impl Iterator<Item = (&InboundKey, &TypeCounts)> {
        self.in_records.iter().map(|(k, c)| (k, c))
    }

    /// Total outbound actions of `ty` attempted by `account` across all ASNs.
    pub fn outbound_attempted(&self, account: AccountId, ty: ActionType) -> u32 {
        let mut total = 0;
        self.for_outbound_of(account, |k, c| {
            let _ = k;
            total += c.attempted_of(ty);
        });
        total
    }

    /// Merged outbound counters for `(account, asn)` across fingerprints.
    /// Returns `None` if nothing was recorded.
    pub fn outbound_at(&self, account: AccountId, asn: AsnId) -> Option<TypeCounts> {
        let mut total = TypeCounts::default();
        let mut any = false;
        self.for_outbound_of(account, |k, c| {
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
        self.for_inbound_of(account, |_, c| {
            total.merge(c);
            any = true;
        });
        any.then_some(total)
    }

    /// Inbound counters for an account restricted to one source ASN.
    pub fn inbound_from(&self, account: AccountId, asn: AsnId) -> Option<&TypeCounts> {
        let key = (account, Some(asn));
        match &self.open {
            Some(idx) => {
                let mut at = head_of(&idx.in_heads, account);
                while at != NONE {
                    let (k, c) = &self.in_records[at as usize];
                    if *k == key {
                        return Some(c);
                    }
                    at = idx.in_next[at as usize];
                }
                None
            }
            None => self
                .in_records
                .binary_search_by(|(k, _)| k.cmp(&key))
                .ok()
                .map(|i| &self.in_records[i].1),
        }
    }

    /// Visit every outbound record of `account` (chain walk while open,
    /// binary-searched key range once sealed).
    fn for_outbound_of(&self, account: AccountId, mut f: impl FnMut(&OutboundKey, &TypeCounts)) {
        match &self.open {
            Some(idx) => {
                let mut at = head_of(&idx.out_heads, account);
                while at != NONE {
                    let (k, c) = &self.out_records[at as usize];
                    f(k, c);
                    at = idx.out_next[at as usize];
                }
            }
            None => {
                let lo = self
                    .out_records
                    .partition_point(|(k, _)| k.account < account);
                for (k, c) in &self.out_records[lo..] {
                    if k.account != account {
                        break;
                    }
                    f(k, c);
                }
            }
        }
    }

    /// Visit every inbound record of `account`.
    fn for_inbound_of(&self, account: AccountId, mut f: impl FnMut(&InboundKey, &TypeCounts)) {
        match &self.open {
            Some(idx) => {
                let mut at = head_of(&idx.in_heads, account);
                while at != NONE {
                    let (k, c) = &self.in_records[at as usize];
                    f(k, c);
                    at = idx.in_next[at as usize];
                }
            }
            None => {
                let lo = self.in_records.partition_point(|((a, _), _)| *a < account);
                for (k, c) in &self.in_records[lo..] {
                    if k.0 != account {
                        break;
                    }
                    f(k, c);
                }
            }
        }
    }

    /// Upsert an outbound record.
    fn add_outbound(&mut self, key: OutboundKey, ty: ActionType, outcome: ActionOutcome, n: u32) {
        match &mut self.open {
            Some(idx) => {
                let mut at = head_of(&idx.out_heads, key.account);
                while at != NONE {
                    let (k, c) = &mut self.out_records[at as usize];
                    if *k == key {
                        c.record(ty, outcome, n);
                        return;
                    }
                    at = idx.out_next[at as usize];
                }
                let i = self.out_records.len() as u32;
                self.out_records.push((key, TypeCounts::default()));
                self.out_records[i as usize].1.record(ty, outcome, n);
                idx.out_next.push(take_head(&mut idx.out_heads, key.account, i));
            }
            // Sealed day (a write going backwards in time — cold path, used
            // only by tests and out-of-order bookkeeping): sorted upsert.
            None => match self.out_records.binary_search_by(|(k, _)| k.cmp(&key)) {
                Ok(i) => self.out_records[i].1.record(ty, outcome, n),
                Err(i) => {
                    let mut c = TypeCounts::default();
                    c.record(ty, outcome, n);
                    self.out_records.insert(i, (key, c));
                }
            },
        }
    }

    /// Upsert an inbound record.
    fn add_inbound(&mut self, key: InboundKey, ty: ActionType, outcome: ActionOutcome, n: u32) {
        match &mut self.open {
            Some(idx) => {
                let mut at = head_of(&idx.in_heads, key.0);
                while at != NONE {
                    let (k, c) = &mut self.in_records[at as usize];
                    if *k == key {
                        c.record(ty, outcome, n);
                        return;
                    }
                    at = idx.in_next[at as usize];
                }
                let i = self.in_records.len() as u32;
                self.in_records.push((key, TypeCounts::default()));
                self.in_records[i as usize].1.record(ty, outcome, n);
                idx.in_next.push(take_head(&mut idx.in_heads, key.0, i));
            }
            None => match self.in_records.binary_search_by(|(k, _)| k.cmp(&key)) {
                Ok(i) => self.in_records[i].1.record(ty, outcome, n),
                Err(i) => {
                    let mut c = TypeCounts::default();
                    c.record(ty, outcome, n);
                    self.in_records.insert(i, (key, c));
                }
            },
        }
    }

    /// Sort records by key and drop the chain index. Idempotent.
    fn seal(&mut self) {
        if self.open.take().is_some() {
            self.out_records.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
            self.in_records.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        }
    }

    /// Whether this day currently carries the open-day chain index.
    fn is_open(&self) -> bool {
        self.open.is_some()
    }

    /// Install (or rebuild) the chain index so this day accepts O(1) writes.
    fn open_for_writes(&mut self) {
        if self.open.is_none() {
            self.open = Some(Box::new(OpenIndex::rebuild(
                &self.out_records,
                &self.in_records,
            )));
        }
    }
}

impl Serialize for DayLog {
    fn serialize(&self, w: &mut Writer) {
        // Serialize sorted copies so the output is identical whether the day
        // was sealed or still open.
        let mut out = self.out_records.clone();
        out.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        let mut inb = self.in_records.clone();
        inb.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        w.begin_object();
        w.field("day", &self.day);
        w.field("outbound", &out);
        w.field("inbound", &inb);
        w.field("photo_likes", &self.photo_likes);
        w.field("logins", &self.logins);
        w.field("events", &self.events);
        w.end_object();
    }
}

impl Deserialize for DayLog {
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
        Ok(DayLog {
            day: day.ok_or_else(|| missing("day"))?,
            out_records: out.ok_or_else(|| missing("outbound"))?,
            in_records: inb.ok_or_else(|| missing("inbound"))?,
            photo_likes: likes.ok_or_else(|| missing("photo_likes"))?,
            logins: logins.ok_or_else(|| missing("logins"))?,
            events: events.ok_or_else(|| missing("events"))?,
            open: None,
        })
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
    /// Days below this index are in the event log: they take no more
    /// writes, and serialization leaves them out.
    recorded: usize,
    /// A write landed in a recorded day; [`ActionLog::set_recorded`] stops
    /// the run there (a panic on the write itself would sit on the
    /// engine's shard paths).
    wrote_recorded: bool,
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

    /// Mutable day record, growing the log as needed. Advancing to a later
    /// day seals every earlier day (sorts its records, drops its chain
    /// index); writes to an already-sealed day fall back to sorted upserts.
    /// A write into a day the event log holds is refused at the next
    /// [`ActionLog::set_recorded`], so memory and log never diverge.
    pub fn day_mut(&mut self, day: Day) -> &mut DayLog {
        let idx = day.0 as usize;
        self.wrote_recorded |= idx < self.recorded;
        if idx > self.open_idx {
            self.seal(Day(day.0 - 1));
        }
        self.grow_to(idx);
        if idx >= self.open_idx && !self.days[idx].is_open() {
            self.days[idx].open_for_writes();
        }
        &mut self.days[idx]
    }

    /// Materialize empty records through day index `idx`.
    fn grow_to(&mut self, idx: usize) {
        let len = self.days.len();
        if idx >= len {
            self.days.extend((len..=idx).map(|d| DayLog::new(Day(d as u32))));
        }
    }

    /// Seal every day through `day` (materialized if empty) and return it,
    /// in key order as the event log holds it.
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

    /// Mark the sealed days before `end` as held by the event log.
    ///
    /// # Panics
    /// Panics if a write landed in a day the event log already held.
    pub fn set_recorded(&mut self, end: Day) {
        let end = end.0 as usize;
        assert!(!self.wrote_recorded, "a write landed in a day the event log holds");
        assert!(end <= self.open_idx, "only sealed days can be recorded");
        self.recorded = self.recorded.max(end);
    }

    /// The first day the event log does not hold.
    pub fn recorded(&self) -> Day {
        Day(self.recorded as u32)
    }

    /// Put back the days serialization left out: `days` are days
    /// `0..recorded()` as the event log reader returns them.
    pub fn splice_recorded(&mut self, days: Vec<DayLog>) -> Result<(), String> {
        if days.len() != self.recorded {
            return Err(format!("{} logged days, the study needs {}", days.len(), self.recorded));
        }
        self.days.splice(..self.recorded, days);
        Ok(())
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
            .add_outbound(OutboundKey { account: actor, asn, fingerprint }, ty, outcome, n);
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
        self.day_mut(day).add_inbound((target, source), ty, outcome, n);
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

    /// Count one login by `account` via `asn` on `day`.
    pub fn record_login(&mut self, day: Day, account: AccountId, asn: AsnId) {
        let logins = &mut self.day_mut(day).logins;
        match logins.binary_search_by(|r| (r.account, r.asn).cmp(&(account, asn))) {
            Ok(i) => logins[i].count += 1,
            Err(i) => logins.insert(i, LoginRecord { account, asn, count: 1 }),
        }
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

impl Serialize for ActionLog {
    fn serialize(&self, w: &mut Writer) {
        let tracked: Vec<AccountId> = self
            .event_tracked
            .iter()
            .enumerate()
            .filter(|(_, &t)| t)
            .map(|(i, _)| AccountId(i as u32))
            .collect();
        w.begin_object();
        w.field("recorded", &self.recorded);
        w.field("days", &self.days[self.recorded..]);
        w.field("event_tracked", &tracked);
        w.end_object();
    }
}

impl Deserialize for ActionLog {
    /// The event log's days come back empty until
    /// [`ActionLog::splice_recorded`] puts them in.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let (mut recorded, mut days, mut tracked) = (None, None, None);
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "recorded" => r.field(&mut recorded, "recorded")?,
                "days" => r.field(&mut days, "days")?,
                "event_tracked" => r.field(&mut tracked, "event_tracked")?,
                _ => r.skip_value()?,
            }
        }
        let missing = |name| Error::missing_field(name, "ActionLog");
        let recorded: usize = recorded.ok_or_else(|| missing("recorded"))?;
        let later: Vec<DayLog> = days.ok_or_else(|| missing("days"))?;
        let tracked: Vec<AccountId> = tracked.ok_or_else(|| missing("event_tracked"))?;
        let mut days: Vec<DayLog> = (0..recorded).map(|d| DayLog::new(Day(d as u32))).collect();
        days.extend(later);
        let mut log = ActionLog {
            open_idx: days.len().saturating_sub(1).max(recorded),
            recorded,
            wrote_recorded: false,
            days,
            event_tracked: Vec::new(),
        };
        for id in tracked {
            log.track_events_for(id);
        }
        Ok(log)
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
    fn writes_to_sealed_days_upsert_in_key_order() {
        let mut log = ActionLog::new();
        let fp = ClientFingerprint::OfficialApp;
        log.record_outbound(Day(5), AccountId(1), AsnId(0), fp, ActionType::Like, ActionOutcome::Delivered, 1);
        // Day 2 is behind the open day — sealed (and empty) from the start.
        log.record_outbound(Day(2), AccountId(9), AsnId(0), fp, ActionType::Like, ActionOutcome::Delivered, 4);
        log.record_outbound(Day(2), AccountId(4), AsnId(0), fp, ActionType::Like, ActionOutcome::Delivered, 2);
        log.record_outbound(Day(2), AccountId(9), AsnId(0), fp, ActionType::Like, ActionOutcome::Delivered, 1);
        let d2 = log.day(Day(2)).unwrap();
        assert_eq!(d2.outbound_attempted(AccountId(9), ActionType::Like), 5);
        assert_eq!(d2.outbound_attempted(AccountId(4), ActionType::Like), 2);
        let accounts: Vec<u32> = d2.outbound().map(|(k, _)| k.account.0).collect();
        assert_eq!(accounts, vec![4, 9]);
    }

    #[test]
    #[should_panic(expected = "a write landed in a day the event log holds")]
    fn writes_into_recorded_days_stop_the_recording() {
        let mut log = ActionLog::new();
        log.seal(Day(1));
        log.set_recorded(Day(2));
        log.record_inbound(Day(0), AccountId(1), None, ActionType::Like, 1);
        log.seal(Day(2));
        log.set_recorded(Day(3));
    }

    #[test]
    fn day_log_serializes_identically_open_or_sealed() {
        let mut a = ActionLog::new();
        let mut b = ActionLog::new();
        let fp = ClientFingerprint::SpoofedMobile { variant: 1 };
        for log in [&mut a, &mut b] {
            for i in (0..6u32).rev() {
                log.record_outbound(
                    Day(0),
                    AccountId(i),
                    AsnId(0),
                    fp,
                    ActionType::Follow,
                    ActionOutcome::Delivered,
                    i + 1,
                );
            }
        }
        // Seal `b`'s day 0 by advancing; leave `a`'s open.
        b.record_outbound(Day(1), AccountId(0), AsnId(0), fp, ActionType::Like, ActionOutcome::Delivered, 1);
        let ser_a = serde_json::to_string(&a.day(Day(0)).unwrap()).unwrap();
        let ser_b = serde_json::to_string(&b.day(Day(0)).unwrap()).unwrap();
        assert_eq!(ser_a, ser_b);
        // And the round trip preserves queries.
        let back: DayLog = serde_json::from_str(&ser_a).unwrap();
        assert_eq!(
            back.outbound_attempted(AccountId(3), ActionType::Follow),
            4
        );
    }
}
