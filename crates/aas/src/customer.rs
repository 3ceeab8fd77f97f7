//! Customer lifecycle shared by both service archetypes.
//!
//! The paper's business analysis (§5.1) revolves around a handful of
//! lifecycle quantities: distinct customers over a window, the long- vs
//! short-term split, the rate at which new users convert to long-term
//! customers, and birth/death dynamics of the long-term stock. This module
//! models a customer as an enrollment with a planned *engagement span*
//! (short-term users try the free tier and leave; long-term users stay for a
//! geometrically-distributed number of days) plus payment state maintained
//! by the engines.

use footsteps_sim::prelude::{AccountId, ActionType, Day};
use rand::Rng;
use std::collections::HashMap;

/// Payment state of a customer within a service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayState {
    /// Using a free trial that ends at the start of `ends`.
    Trial {
        /// First day on which the trial is no longer active.
        ends: Day,
    },
    /// Paid through the start of `until`.
    Paid {
        /// First day no longer covered by the last payment.
        until: Day,
    },
    /// Using free service indefinitely (collusion networks).
    Free,
    /// No longer using the service.
    Lapsed,
}

/// One customer of one service.
#[derive(Debug, Clone)]
pub struct Customer {
    /// The customer's platform account.
    pub account: AccountId,
    /// Enrollment day.
    pub enrolled: Day,
    /// Planned last day of engagement (exclusive): the day the user stops
    /// requesting service. Determined at enrollment from the long/short-term
    /// draw; engines may end engagement earlier (e.g. a lapsed subscription).
    pub planned_end: Day,
    /// Whether the enrollment draw made this a long-term user.
    pub long_term: bool,
    /// Current payment state.
    pub pay: PayState,
    /// Whether the customer has ever paid.
    pub ever_paid: bool,
    /// Action types the customer requested (all honeypots request exactly
    /// one; regular customers request the service's standard mix).
    pub requested: Vec<ActionType>,
    /// Personal activity multiplier applied to the service's base volumes
    /// (log-normal around 1).
    pub volume_multiplier: f64,
    /// True for honeypot enrollments (driven through the event path).
    pub honeypot: bool,
}

impl Customer {
    /// Whether the customer is engaged (requesting service) on `day`.
    pub fn engaged_on(&self, day: Day) -> bool {
        self.pay != PayState::Lapsed && day >= self.enrolled && day < self.planned_end
    }
}

/// Enrollment-time population parameters for a service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifecycleParams {
    /// Mean new enrollments per day (Poisson).
    pub arrival_rate: f64,
    /// Probability a new enrollment becomes a long-term customer.
    pub p_long_term: f64,
    /// Mean engagement length of long-term customers, days (geometric).
    pub long_term_mean_days: f64,
    /// Engagement length of short-term customers, days (they try the
    /// service briefly and leave).
    pub short_term_days: u32,
    /// Long-term customers already active when the measurement window
    /// opens (the pre-existing stock).
    pub initial_long_term: u32,
}

impl LifecycleParams {
    /// Draw an engagement span for a new enrollment starting on `day`.
    /// Returns `(long_term, planned_end)`.
    pub fn draw_span(&self, day: Day, rng: &mut impl Rng) -> (bool, Day) {
        if rng.gen::<f64>() < self.p_long_term {
            let len = sample_geometric_days(self.long_term_mean_days, rng)
                .max(self.short_term_days + 1);
            (true, day.plus(len))
        } else {
            (false, day.plus(self.short_term_days.max(1)))
        }
    }
}

/// Sample a geometric "days engaged" with the given mean (at least 1).
pub fn sample_geometric_days(mean: f64, rng: &mut impl Rng) -> u32 {
    debug_assert!(mean >= 1.0);
    let p = 1.0 / mean;
    // Inverse CDF of the geometric distribution on {1, 2, ...}.
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let k = (u.ln() / (1.0 - p).ln()).ceil();
    k.clamp(1.0, 100_000.0) as u32
}

/// Sample Poisson(λ): Knuth's method for small λ, normal approximation for
/// large λ (arrival processes reach λ≈90/day for Hublaagram at scale).
pub fn sample_poisson(rng: &mut impl Rng, lambda: f64) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u32;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (lambda + lambda.sqrt() * z).round().max(0.0) as u32
    }
}

/// The customer roster of one service.
#[derive(Debug, Clone, Default)]
pub struct CustomerBook {
    customers: Vec<Customer>,
    by_account: HashMap<AccountId, usize>,
}

impl CustomerBook {
    /// Empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a customer.
    ///
    /// # Panics
    /// Panics if the account is already enrolled (services key customers by
    /// credentials; one account cannot enroll twice in the same service).
    pub fn enroll(&mut self, customer: Customer) {
        let prev = self.by_account.insert(customer.account, self.customers.len());
        assert!(prev.is_none(), "{} already enrolled", customer.account);
        self.customers.push(customer);
    }

    /// Number of customers ever enrolled.
    pub fn len(&self) -> usize {
        self.customers.len()
    }

    /// True if no customers exist.
    pub fn is_empty(&self) -> bool {
        self.customers.is_empty()
    }

    /// All customers.
    pub fn iter(&self) -> impl Iterator<Item = &Customer> {
        self.customers.iter()
    }

    /// All customers, mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Customer> {
        self.customers.iter_mut()
    }

    /// Look up a customer by account.
    pub fn get(&self, account: AccountId) -> Option<&Customer> {
        self.by_account.get(&account).map(|&i| &self.customers[i])
    }

    /// Look up a customer by account, mutably.
    pub fn get_mut(&mut self, account: AccountId) -> Option<&mut Customer> {
        self.by_account
            .get(&account)
            .map(|&i| &mut self.customers[i])
    }

    /// Customers engaged on `day`.
    pub fn engaged_on(&self, day: Day) -> impl Iterator<Item = &Customer> {
        self.customers.iter().filter(move |c| c.engaged_on(day))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn customer(account: u32, enrolled: u32, end: u32) -> Customer {
        Customer {
            account: AccountId(account),
            enrolled: Day(enrolled),
            planned_end: Day(end),
            long_term: true,
            pay: PayState::Free,
            ever_paid: false,
            requested: vec![ActionType::Like],
            volume_multiplier: 1.0,
            honeypot: false,
        }
    }

    #[test]
    fn engagement_window_is_half_open() {
        let c = customer(1, 5, 10);
        assert!(!c.engaged_on(Day(4)));
        assert!(c.engaged_on(Day(5)));
        assert!(c.engaged_on(Day(9)));
        assert!(!c.engaged_on(Day(10)));
    }

    #[test]
    fn lapsed_customers_are_never_engaged() {
        let mut c = customer(1, 0, 100);
        c.pay = PayState::Lapsed;
        assert!(!c.engaged_on(Day(50)));
    }

    #[test]
    fn book_enrollment_and_lookup() {
        let mut b = CustomerBook::new();
        b.enroll(customer(1, 0, 10));
        b.enroll(customer(2, 3, 5));
        assert_eq!(b.len(), 2);
        assert!(b.get(AccountId(1)).is_some());
        assert!(b.get(AccountId(3)).is_none());
        assert_eq!(b.engaged_on(Day(4)).count(), 2);
        assert_eq!(b.engaged_on(Day(7)).count(), 1);
    }

    #[test]
    #[should_panic(expected = "already enrolled")]
    fn double_enrollment_rejected() {
        let mut b = CustomerBook::new();
        b.enroll(customer(1, 0, 10));
        b.enroll(customer(1, 2, 12));
    }

    #[test]
    fn geometric_mean_is_close() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 20_000;
        let total: u64 = (0..n)
            .map(|_| u64::from(sample_geometric_days(40.0, &mut rng)))
            .sum();
        let mean = total as f64 / f64::from(n);
        assert!((mean - 40.0).abs() < 1.5, "mean {mean}");
    }

    #[test]
    fn poisson_mean_small_and_large_lambda() {
        let mut rng = SmallRng::seed_from_u64(4);
        for &lambda in &[2.5f64, 90.0] {
            let n = 20_000;
            let total: u64 = (0..n)
                .map(|_| u64::from(sample_poisson(&mut rng, lambda)))
                .sum();
            let mean = total as f64 / f64::from(n);
            assert!(
                (mean - lambda).abs() / lambda < 0.05,
                "lambda {lambda}: mean {mean}"
            );
        }
        assert_eq!(sample_poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn span_draws_respect_classes() {
        let params = LifecycleParams {
            arrival_rate: 1.0,
            p_long_term: 0.5,
            long_term_mean_days: 60.0,
            short_term_days: 7,
            initial_long_term: 0,
        };
        let mut rng = SmallRng::seed_from_u64(5);
        let mut lt_lens = Vec::new();
        let mut st_lens = Vec::new();
        for _ in 0..2_000 {
            let (lt, end) = params.draw_span(Day(10), &mut rng);
            let len = end.days_since(Day(10));
            if lt {
                assert!(len > 7, "long-term spans exceed the short-term stay");
                lt_lens.push(len);
            } else {
                assert_eq!(len, 7);
                st_lens.push(len);
            }
        }
        assert!(!lt_lens.is_empty() && !st_lens.is_empty());
        let lt_share = lt_lens.len() as f64 / 2_000.0;
        assert!((lt_share - 0.5).abs() < 0.05);
    }
}
