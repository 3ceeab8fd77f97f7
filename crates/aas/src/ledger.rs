//! The services' ground-truth payment ledger.
//!
//! The paper could only *estimate* service revenue from observed activity
//! (§5.2). Our services actually collect payments, so the simulation keeps a
//! ground-truth ledger — which lets us do something the paper could not:
//! score the paper's estimation methodology against the truth
//! (EXPERIMENTS.md reports estimator vs. ledger side by side).

use crate::catalog::Cents;
use footsteps_sim::prelude::{AccountId, Day, IdSet, ServiceId};

/// Why a payment was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaymentKind {
    /// Reciprocity-service subscription for a block of days.
    Subscription,
    /// Hublaagram monthly likes-per-photo tier.
    MonthlyLikes,
    /// Hublaagram one-time like package for a single post.
    OneTimeLikes,
    /// Hublaagram lifetime no-outbound exemption.
    NoOutbound,
    /// Followersgratis package.
    Package,
    /// Advertising income (pop-unders shown to free users), recorded in
    /// aggregate per day with `account` set to the service's own sentinel.
    Ads,
}

/// One payment received by a service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Payment {
    /// Day the payment was received.
    pub day: Day,
    /// Paying customer account.
    pub account: AccountId,
    /// Service receiving the payment.
    pub service: ServiceId,
    /// Amount in cents.
    pub cents: Cents,
    /// What was purchased.
    pub kind: PaymentKind,
}

/// Append-only payment ledger shared by all services in a scenario.
#[derive(Debug, Clone, Default)]
pub struct PaymentLedger {
    payments: Vec<Payment>,
}

impl PaymentLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a payment.
    pub fn record(&mut self, payment: Payment) {
        self.payments.push(payment);
    }

    /// All payments, in arrival order.
    pub fn payments(&self) -> &[Payment] {
        &self.payments
    }

    /// Gross revenue of `service` over `[start, end)` days, in cents.
    pub fn gross_in(&self, service: ServiceId, start: Day, end: Day) -> Cents {
        self.payments
            .iter()
            .filter(|p| p.service == service && p.day >= start && p.day < end)
            .map(|p| p.cents)
            .sum()
    }

    /// Gross revenue of `service` restricted to one payment kind.
    pub fn gross_kind_in(
        &self,
        service: ServiceId,
        kind: PaymentKind,
        start: Day,
        end: Day,
    ) -> Cents {
        self.payments
            .iter()
            .filter(|p| {
                p.service == service && p.kind == kind && p.day >= start && p.day < end
            })
            .map(|p| p.cents)
            .sum()
    }

    /// Number of distinct paying accounts of `service` in `[start, end)`,
    /// excluding ad income sentinels.
    pub fn distinct_payers_in(&self, service: ServiceId, start: Day, end: Day) -> usize {
        self.payments
            .iter()
            .filter(|p| {
                p.service == service
                    && p.kind != PaymentKind::Ads
                    && p.day >= start
                    && p.day < end
            })
            .map(|p| p.account)
            .collect::<IdSet<_>>()
            .len()
    }

    /// Split `service`'s revenue in `[start, end)` into (new, preexisting)
    /// cents, where a payment is "new" if the account never paid this
    /// service before `start` (Table 10's breakdown). Ad income is excluded.
    pub fn new_vs_preexisting(
        &self,
        service: ServiceId,
        start: Day,
        end: Day,
    ) -> (Cents, Cents) {
        let prior: IdSet<AccountId> = self
            .payments
            .iter()
            .filter(|p| p.service == service && p.kind != PaymentKind::Ads && p.day < start)
            .map(|p| p.account)
            .collect();
        let mut new = 0;
        let mut preexisting = 0;
        for p in self
            .payments
            .iter()
            .filter(|p| p.service == service && p.kind != PaymentKind::Ads)
            .filter(|p| p.day >= start && p.day < end)
        {
            if prior.contains(&p.account) {
                preexisting += p.cents;
            } else {
                new += p.cents;
            }
        }
        (new, preexisting)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pay(day: u32, account: u32, cents: Cents, kind: PaymentKind) -> Payment {
        Payment {
            day: Day(day),
            account: AccountId(account),
            service: ServiceId::Boostgram,
            cents,
            kind,
        }
    }

    #[test]
    fn gross_revenue_windows() {
        let mut l = PaymentLedger::new();
        l.record(pay(0, 1, 9_900, PaymentKind::Subscription));
        l.record(pay(29, 2, 9_900, PaymentKind::Subscription));
        l.record(pay(30, 1, 9_900, PaymentKind::Subscription));
        assert_eq!(l.gross_in(ServiceId::Boostgram, Day(0), Day(30)), 19_800);
        assert_eq!(l.gross_in(ServiceId::Boostgram, Day(30), Day(60)), 9_900);
        assert_eq!(l.gross_in(ServiceId::Hublaagram, Day(0), Day(60)), 0);
    }

    #[test]
    fn distinct_payers_dedupes_and_excludes_ads() {
        let mut l = PaymentLedger::new();
        l.record(pay(0, 1, 100, PaymentKind::Subscription));
        l.record(pay(5, 1, 100, PaymentKind::Subscription));
        l.record(pay(5, 2, 100, PaymentKind::Subscription));
        l.record(pay(5, 999, 100, PaymentKind::Ads));
        assert_eq!(l.distinct_payers_in(ServiceId::Boostgram, Day(0), Day(30)), 2);
    }

    #[test]
    fn new_vs_preexisting_split() {
        let mut l = PaymentLedger::new();
        // Account 1 paid before the window: preexisting.
        l.record(pay(0, 1, 100, PaymentKind::Subscription));
        l.record(pay(40, 1, 100, PaymentKind::Subscription));
        // Account 2's first payment is inside the window: new.
        l.record(pay(45, 2, 300, PaymentKind::Subscription));
        // Repeat payments *within* the window by a new payer still count as
        // new revenue: the split is by account history, not payment index.
        l.record(pay(50, 2, 300, PaymentKind::Subscription));
        let (new, pre) = l.new_vs_preexisting(ServiceId::Boostgram, Day(30), Day(60));
        assert_eq!(new, 600);
        assert_eq!(pre, 100);
    }

    #[test]
    fn kind_filtered_gross() {
        let mut l = PaymentLedger::new();
        l.record(pay(0, 1, 1_500, PaymentKind::NoOutbound));
        l.record(pay(0, 2, 2_000, PaymentKind::MonthlyLikes));
        assert_eq!(
            l.gross_kind_in(ServiceId::Boostgram, PaymentKind::NoOutbound, Day(0), Day(30)),
            1_500
        );
    }
}
