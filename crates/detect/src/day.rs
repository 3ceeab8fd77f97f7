//! One day of platform activity, the unit every detection stage reads:
//! borrowed from `platform.log` by the batch pipeline and from a recorded
//! day batch by the online detector.

use footsteps_sim::prelude::*;

/// The records of one day: outbound and inbound aggregates plus the full
/// events of tracked (honeypot) accounts.
#[derive(Debug, Clone, Copy)]
pub struct DayRecords<'a> {
    /// The day these records cover.
    pub day: Day,
    /// Per `(account, asn, fingerprint)` outbound tallies.
    pub outbound: &'a [(OutboundKey, TypeCounts)],
    /// Per `(recipient, source)` inbound tallies.
    pub inbound: &'a [((AccountId, InboundSource), TypeCounts)],
    /// Full events of tracked accounts, in submission order.
    pub events: &'a [ActionEvent],
}

impl<'a> DayRecords<'a> {
    /// The recorded days of `log` in `[start, end)`, in day order.
    pub fn range(log: &'a ActionLog, start: Day, end: Day) -> impl Iterator<Item = Self> {
        log.iter_range(start, end).map(|(day, d)| Self {
            day,
            outbound: d.outbound_records(),
            inbound: d.inbound_records(),
            events: &d.events,
        })
    }
}
