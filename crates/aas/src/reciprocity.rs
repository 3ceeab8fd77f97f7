//! Reciprocity-abuse service engine (Instalex, Instazood, Boostgram).
//!
//! The engine implements the full operating loop of a reciprocity AAS
//! (§3.1): customers hand over credentials; every day the service drives
//! outbound likes/follows/comments/unfollows *from the customers' accounts*
//! toward a curated target pool, hoping targets reciprocate; trials convert
//! to paid subscriptions; and per-action-type feedback controllers watch for
//! visible failures and adapt (back off below the enforcement threshold,
//! probe it, eventually migrate ASNs — §6.3/§6.4).
//!
//! Honeypot enrollments are driven through the platform's event path so the
//! honeypot framework can observe individual inbound actions (§4).

use crate::adapt::{AdaptationConfig, ControllerAction, DayObservation, VolumeController};
use crate::catalog::{offerings, ReciprocityPricing};
use crate::customer::{sample_poisson, Customer, CustomerBook, LifecycleParams, PayState};
use crate::ledger::{Payment, PaymentKind, PaymentLedger};
use crate::targeting::{TargetingBias, TargetPool};
use footsteps_sim::population::{sample_lognormal, ResidentialIndex};
use footsteps_sim::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::HashMap;

/// Base per-customer daily action volumes. The per-service defaults are
/// chosen so that the aggregate action mix reproduces Table 11.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DailyVolumes {
    /// Outbound likes per customer-day.
    pub like: f64,
    /// Outbound follows per customer-day.
    pub follow: f64,
    /// Outbound comments per customer-day.
    pub comment: f64,
    /// Outbound unfollows per customer-day (shedding earlier follows).
    pub unfollow: f64,
}

impl DailyVolumes {
    /// Volume for one action type (posts are not bulk-driven).
    pub fn of(&self, ty: ActionType) -> f64 {
        match ty {
            ActionType::Like => self.like,
            ActionType::Follow => self.follow,
            ActionType::Comment => self.comment,
            ActionType::Unfollow => self.unfollow,
            ActionType::Post => 0.0,
        }
    }
}

/// Static configuration of one reciprocity service instance.
#[derive(Debug, Clone)]
pub struct ReciprocityConfig {
    /// Which service this is.
    pub service: ServiceId,
    /// Spoofed-client fingerprint variant of this service's automation stack.
    pub fingerprint_variant: u16,
    /// Trial/pricing terms (Table 2).
    pub pricing: ReciprocityPricing,
    /// Base per-customer daily volumes.
    pub volumes: DailyVolumes,
    /// Customer arrival / long-term dynamics.
    pub lifecycle: LifecycleParams,
    /// Target-pool curation bias.
    pub targeting: TargetingBias,
    /// Curated pool size.
    pub pool_size: usize,
    /// Adaptation controller tuning.
    pub adapt: AdaptationConfig,
    /// Country mix of this service's customer base (Figure 2).
    pub customer_mix: CountryMix,
    /// Events per day driven on honeypot enrollments.
    pub honeypot_daily_actions: u32,
    /// Daily probability the service logs into a customer account from its
    /// own ASN ("they do so infrequently", §5.1 fn. 3).
    pub service_login_prob: f64,
    /// Whether follow traffic returns to the primary ASN after a migration
    /// if follows never visibly fail (the Insta* epilogue behaviour, §6.4).
    pub follows_return_home: bool,
}

/// Per-action-type accumulated daily statistics for the controllers.
#[derive(Debug, Clone, Default)]
struct DayStats {
    attempted: u64,
    visible_failed: u64,
    success_per_account: Vec<u32>,
}

/// A running reciprocity-abuse service.
#[derive(Debug)]
pub struct ReciprocityService {
    config: ReciprocityConfig,
    customers: CustomerBook,
    pool: TargetPool,
    /// Primary ASN plus evasion backups (fresh hosting / proxy networks).
    asn_rotation: Vec<AsnId>,
    /// Current rotation index per action type.
    asn_idx: [usize; ActionType::COUNT],
    /// Service-level controllers: aggregate blocking visibility, driving
    /// migration decisions.
    controllers: [VolumeController; ActionType::COUNT],
    /// Per-customer volume controllers, created lazily when an account's
    /// actions start visibly failing. Real automation stacks implement
    /// block detection per driven account (the paper found one openly
    /// available implementation), which is why even a 10%-of-customers
    /// intervention provokes adaptation for exactly those customers.
    per_customer: HashMap<(AccountId, usize), VolumeController>,
    /// Consecutive days with visible failures, per action type; drives the
    /// detection-capability gate below.
    failure_streak: [u32; ActionType::COUNT],
    /// Whether the service has (built and) enabled block detection for each
    /// action type. Reciprocity services ship with it (lag 0); Hublaagram
    /// took ~3 weeks to implement like-block detection (§6.3).
    capability: [bool; ActionType::COUNT],
    /// Consecutive days on which a large fraction of customers operated
    /// under self-imposed caps: the pressure that eventually drives the
    /// service to relocate ("all AASs eventually moved their like traffic
    /// to different ASNs", §6.4).
    heavy_throttle_days: [u32; ActionType::COUNT],
    rng: SmallRng,
    /// Seed of the per-customer decision streams: every customer-day is
    /// drawn from `decision_rng(decision_seed, account, day)`, so no
    /// customer's day depends on its place in the roster (DESIGN.md §4).
    decision_seed: u64,
    /// Days since follow traffic last saw a visible failure while away from
    /// the primary ASN (drives `follows_return_home`).
    follow_quiet_days: u32,
    /// Total ASN migrations performed (epilogue reporting).
    migrations: u32,
    /// Whether the service has given up selling (Hublaagram-style "out of
    /// stock"; reciprocity services never set this but the field keeps the
    /// reporting interface uniform).
    accepting_payments: bool,
}

impl ReciprocityService {
    /// Create the service: curate its target pool and stand up controllers.
    ///
    /// `asn_rotation[0]` is the primary ASN (Table 7); later entries are the
    /// fresh networks the service migrates to under sustained blocking.
    pub fn new(
        config: ReciprocityConfig,
        accounts: &footsteps_sim::account::AccountStore,
        population: &Population,
        asn_rotation: Vec<AsnId>,
        rng: SmallRng,
    ) -> Self {
        assert!(!asn_rotation.is_empty(), "need at least a primary ASN");
        let mut rng = rng;
        // First draw of the service stream: the seed all per-customer
        // decision streams derive from. Keeping it a function of the
        // service's labelled stream keeps the whole chain a pure function of
        // (scenario seed, stream label, account id, day).
        let decision_seed = rng.gen::<u64>();
        let pool = TargetPool::curate(
            accounts,
            population,
            config.targeting,
            config.pool_size,
            &mut rng,
        );
        let controllers = [VolumeController::new(config.adapt); ActionType::COUNT];
        Self {
            config,
            customers: CustomerBook::new(),
            pool,
            asn_rotation,
            asn_idx: [0; ActionType::COUNT],
            controllers,
            per_customer: HashMap::new(),
            failure_streak: [0; ActionType::COUNT],
            capability: [false; ActionType::COUNT],
            heavy_throttle_days: [0; ActionType::COUNT],
            rng,
            decision_seed,
            follow_quiet_days: 0,
            migrations: 0,
            accepting_payments: true,
        }
    }

    /// This service's id.
    pub fn id(&self) -> ServiceId {
        self.config.service
    }

    /// The customer roster.
    pub fn customers(&self) -> &CustomerBook {
        &self.customers
    }

    /// The curated target pool (Figures 3/4 sample from it).
    pub fn pool(&self) -> &TargetPool {
        &self.pool
    }

    /// The ASN currently carrying traffic of type `ty`.
    pub fn current_asn(&self, ty: ActionType) -> AsnId {
        self.asn_rotation[self.asn_idx[ty.index()]]
    }

    /// Number of ASN migrations performed so far.
    pub fn migrations(&self) -> u32 {
        self.migrations
    }

    /// Whether the controller for `ty` has reacted to blocking.
    pub fn is_throttled(&self, ty: ActionType) -> bool {
        self.controllers[ty.index()].is_throttled()
    }

    /// The current service-level cap estimate for `ty`, if any.
    pub fn cap(&self, ty: ActionType) -> Option<f64> {
        self.controllers[ty.index()].cap()
    }

    /// The self-imposed daily cap for one customer's `ty` actions, if that
    /// account's controller has engaged.
    pub fn customer_cap(&self, account: AccountId, ty: ActionType) -> Option<f64> {
        self.per_customer
            .get(&(account, ty.index()))
            .and_then(|c| c.cap())
    }

    /// Number of customers currently operating under a self-imposed cap for
    /// `ty`.
    pub fn throttled_customer_count(&self, ty: ActionType) -> usize {
        self.per_customer
            // footsteps-lint: allow(nondet-iter) — order-insensitive count of throttled customers
            .iter()
            .filter(|((_, t), c)| *t == ty.index() && c.is_throttled())
            .count()
    }

    /// Whether block detection for `ty` is active (the capability gate).
    pub fn detection_active(&self, ty: ActionType) -> bool {
        self.capability[ty.index()]
    }

    /// Enroll a honeypot account. `paid` buys the minimum subscription
    /// immediately; otherwise the account runs on the free trial. The
    /// honeypot requests exactly one action type, as in §4.1.2.
    pub fn enroll_honeypot(
        &mut self,
        account: AccountId,
        requested: ActionType,
        paid: bool,
        day: Day,
        ledger: &mut PaymentLedger,
    ) {
        assert!(
            offerings(self.config.service).offers(requested),
            "{} does not offer {requested}",
            self.config.service
        );
        let pay = if paid {
            // Paid probes purchase ~a month of service (multiple minimum
            // blocks where needed), matching the study's paid engagements.
            let blocks = 28u32.div_ceil(self.config.pricing.min_paid_days.max(1));
            ledger.record(Payment {
                day,
                account,
                service: self.config.service,
                cents: u64::from(blocks) * self.config.pricing.min_paid_cents,
                kind: PaymentKind::Subscription,
            });
            PayState::Paid {
                until: day.plus(blocks * self.config.pricing.min_paid_days.max(1)),
            }
        } else {
            PayState::Trial {
                ends: day.plus(self.config.pricing.delivered_trial_days),
            }
        };
        let end = match pay {
            PayState::Paid { until } => until,
            PayState::Trial { ends } => ends,
            _ => unreachable!(),
        };
        self.customers.enroll(Customer {
            account,
            enrolled: day,
            planned_end: end,
            long_term: false,
            pay,
            ever_paid: paid,
            requested: vec![requested],
            volume_multiplier: 1.0,
            honeypot: true,
        });
    }

    /// Run one simulated day: arrivals, payments, activity, adaptation.
    pub fn run_day(
        &mut self,
        platform: &mut Platform,
        residential: &ResidentialIndex,
        ledger: &mut PaymentLedger,
        day: Day,
    ) {
        self.admit_arrivals(platform, residential, day);
        self.process_payments(ledger, day);
        let stats = self.drive_activity(platform, day);
        self.adapt(day, stats);
    }

    /// Seed the pre-existing long-term customer stock. Call once, at the
    /// start of the measurement window, before the first `run_day`.
    pub fn seed_initial_customers(
        &mut self,
        platform: &mut Platform,
        residential: &ResidentialIndex,
        day: Day,
    ) {
        for _ in 0..self.config.lifecycle.initial_long_term {
            let account = self.create_customer_account(platform, residential);
            let mean = self.config.lifecycle.long_term_mean_days;
            let len = crate::customer::sample_geometric_days(mean, &mut self.rng).max(10);
            let until = day.plus(self.config.pricing.min_paid_days.max(1));
            self.customers.enroll(Customer {
                account,
                enrolled: day,
                planned_end: day.plus(len),
                long_term: true,
                // Already paying when the window opens; their next renewal
                // is what the revenue estimator sees.
                pay: PayState::Paid { until },
                ever_paid: true,
                requested: vec![
                    ActionType::Like,
                    ActionType::Follow,
                    ActionType::Comment,
                    ActionType::Unfollow,
                ],
                volume_multiplier: personal_multiplier(&mut self.rng),
                honeypot: false,
            });
        }
    }

    fn create_customer_account(
        &mut self,
        platform: &mut Platform,
        residential: &ResidentialIndex,
    ) -> AccountId {
        let country = self.config.customer_mix.sample(self.rng.gen());
        let home = residential.pick(country, self.rng.gen());
        let following = sample_lognormal(&mut self.rng, 480.0, 0.9).round().min(5e5) as u32;
        let followers = sample_lognormal(&mut self.rng, 620.0, 0.9).round().min(5e5) as u32;
        let tendency = footsteps_sim::behavior::followback_tendency(
            following,
            followers,
            self.rng.gen(),
        );
        let profile = footsteps_sim::behavior::synthesize_profile(
            &platform.config.behavior,
            tendency,
            self.rng.gen(),
        );
        platform.accounts.create(
            platform.clock.now(),
            ProfileKind::Organic,
            country,
            home,
            following,
            followers,
            profile,
        )
    }

    fn admit_arrivals(
        &mut self,
        platform: &mut Platform,
        residential: &ResidentialIndex,
        day: Day,
    ) {
        let n = sample_poisson(&mut self.rng, self.config.lifecycle.arrival_rate);
        for _ in 0..n {
            let account = self.create_customer_account(platform, residential);
            let (long_term, planned_end) = self.config.lifecycle.draw_span(day, &mut self.rng);
            self.customers.enroll(Customer {
                account,
                enrolled: day,
                planned_end,
                long_term,
                pay: PayState::Trial {
                    ends: day.plus(self.config.pricing.delivered_trial_days),
                },
                ever_paid: false,
                requested: vec![
                    ActionType::Like,
                    ActionType::Follow,
                    ActionType::Comment,
                    ActionType::Unfollow,
                ],
                volume_multiplier: personal_multiplier(&mut self.rng),
                honeypot: false,
            });
        }
    }

    fn process_payments(&mut self, ledger: &mut PaymentLedger, day: Day) {
        let service = self.config.service;
        let pricing = self.config.pricing;
        let accepting = self.accepting_payments;
        let mut payments = Vec::new();
        for c in self.customers.iter_mut() {
            if c.honeypot {
                // Honeypot engagements end at their trial/paid horizon; the
                // honeypot framework decides about renewals explicitly.
                if let PayState::Trial { ends } | PayState::Paid { until: ends } = c.pay {
                    if day >= ends {
                        c.pay = PayState::Lapsed;
                    }
                }
                continue;
            }
            if day >= c.planned_end {
                c.pay = PayState::Lapsed;
                continue;
            }
            let due = match c.pay {
                PayState::Trial { ends } => day >= ends,
                PayState::Paid { until } => day >= until,
                PayState::Free => false,
                PayState::Lapsed => continue,
            };
            if !due {
                continue;
            }
            if c.long_term && accepting {
                payments.push(Payment {
                    day,
                    account: c.account,
                    service,
                    cents: pricing.min_paid_cents,
                    kind: PaymentKind::Subscription,
                });
                c.pay = PayState::Paid {
                    until: day.plus(pricing.min_paid_days.max(1)),
                };
                c.ever_paid = true;
            } else {
                c.pay = PayState::Lapsed;
            }
        }
        for p in payments {
            ledger.record(p);
        }
    }

    /// Serve every engaged customer's day in roster order, returning
    /// per-type stats for the controllers.
    fn drive_activity(&mut self, platform: &mut Platform, day: Day) -> [DayStats; 5] {
        let mut stats: [DayStats; 5] = Default::default();
        let engaged: Vec<Customer> = self.customers.engaged_on(day).cloned().collect();

        let slug = self.config.service.slug();
        let span = platform.obs.timings.start(&format!("aas.{slug}.route"));
        let mut batches = 0u64;
        for customer in &engaged {
            batches += self.serve_customer(platform, day, customer, &mut stats);
        }
        platform.obs.timings.finish(span);
        let metrics = &mut platform.obs.metrics;
        metrics.add(&format!("aas.{slug}.engaged"), engaged.len() as u64);
        metrics.add(&format!("aas.{slug}.planned_batches"), batches);
        stats
    }

    /// Serve one engaged customer's day, in the order it happens: the
    /// logins, then one outbound batch per requested type (or, for a
    /// honeypot, its event traffic), each result fed into `stats` and the
    /// customer's own controller as it lands. Every draw comes from the
    /// customer's own `(decision_seed, account, day)` stream (DESIGN.md §4),
    /// so the day does not depend on where the customer sits in the roster.
    /// Returns the number of batches submitted.
    fn serve_customer(
        &mut self,
        platform: &mut Platform,
        day: Day,
        customer: &Customer,
        stats: &mut [DayStats; 5],
    ) -> u64 {
        let account = customer.account;
        let mut rng = decision_rng(self.decision_seed, u64::from(account.0), u64::from(day.0));
        // Customers log in from home most days; the service logs in from
        // its own network only rarely.
        if rng.gen::<f64>() < 0.8 {
            platform.record_login(account);
        }
        if rng.gen::<f64>() < self.config.service_login_prob {
            platform.record_login_via(account, self.current_asn(ActionType::Follow));
        }
        let offer = offerings(self.config.service);
        let types = ActionType::ALL
            .into_iter()
            .filter(|&ty| offer.offers(ty) && customer.requested.contains(&ty));
        if customer.honeypot {
            // Honeypot event volumes depend on submission outcomes; their
            // draws continue the customer's stream.
            for ty in types {
                self.drive_honeypot_events(platform, account, ty, &mut rng, stats);
            }
            return 0;
        }
        let fingerprint = ClientFingerprint::SpoofedMobile {
            variant: self.config.fingerprint_variant,
        };
        let mut batches = 0;
        for ty in types {
            let base = self.config.volumes.of(ty) * customer.volume_multiplier;
            if base <= 0.0 {
                continue;
            }
            let capped = match self.customer_cap(account, ty) {
                Some(cap) => base.min(cap),
                None => base,
            };
            // Small day-to-day jitter so per-account series look organic
            // rather than perfectly flat.
            let jitter = 0.9 + 0.2 * rng.gen::<f64>();
            let count = (capped * jitter).round().max(0.0) as u32;
            if count == 0 {
                continue;
            }
            let asn = self.current_asn(ty);
            let ip = platform.asns.ip_in(asn, rng.gen::<u32>());
            let pool = match ty {
                ActionType::Like | ActionType::Follow => self.pool.stats(),
                _ => PoolStats::INERT,
            };
            let result = platform.submit_batch(BatchRequest {
                actor: account,
                action: ty,
                count,
                asn,
                ip,
                fingerprint,
                pool,
                service: Some(self.config.service),
            });
            let s = &mut stats[ty.index()];
            s.attempted += u64::from(result.attempted);
            s.visible_failed += u64::from(result.visible_failure());
            s.success_per_account.push(result.visible_success());
            self.observe_customer(account, ty, day, &result);
            batches += 1;
        }
        batches
    }

    /// Feed one customer-day outcome into that customer's own controller.
    /// Controllers exist lazily (only for accounts that have seen failures)
    /// and only act once the service's block detection for the type is live.
    fn observe_customer(
        &mut self,
        account: AccountId,
        ty: ActionType,
        day: Day,
        result: &BatchResult,
    ) {
        if !self.capability[ty.index()] {
            return;
        }
        let key = (account, ty.index());
        if result.visible_failure() == 0 && !self.per_customer.contains_key(&key) {
            return;
        }
        let adapt = AdaptationConfig {
            detection_lag_days: 0,
            migrate_after_days: u32::MAX,
            ..self.config.adapt
        };
        let ctl = self
            .per_customer
            .entry(key)
            .or_insert_with(|| VolumeController::new(adapt));
        ctl.observe(DayObservation {
            day,
            attempted: u64::from(result.attempted),
            visible_failed: u64::from(result.visible_failure()),
            median_success_per_account: f64::from(result.visible_success()),
        });
    }

    /// Drive a honeypot's daily actions through the event path so that the
    /// honeypot framework can observe each outbound action and each organic
    /// response individually.
    fn drive_honeypot_events(
        &mut self,
        platform: &mut Platform,
        account: AccountId,
        ty: ActionType,
        rng: &mut SmallRng,
        stats: &mut [DayStats; 5],
    ) {
        let mut n = self.config.honeypot_daily_actions as usize;
        if let Some(cap) = self.customer_cap(account, ty) {
            n = n.min(cap as usize);
        }
        let asn = self.current_asn(ty);
        let fingerprint = ClientFingerprint::SpoofedMobile {
            variant: self.config.fingerprint_variant,
        };
        let mut success = 0u32;
        let mut failed = 0u64;
        match ty {
            ActionType::Post => {
                // Posting services upload a handful of scheduled posts/day
                // through their own automation stack.
                for _ in 0..3 {
                    let ip = platform.asns.ip_in(asn, rng.gen::<u32>());
                    platform.post_media_via(account, asn, ip, fingerprint, Some(self.config.service));
                    success += 1;
                }
            }
            ActionType::Unfollow => {
                // Unfollow service: follow-then-shed pairs against the pool.
                let targets = self.pool.sample_distinct(n, rng);
                for t in targets {
                    let ip = platform.asns.ip_in(asn, rng.gen::<u32>());
                    let f = platform.submit_event(EventRequest {
                        actor: account,
                        action: ActionType::Follow,
                        target: t,
                        asn,
                        ip,
                        fingerprint,
                        service: Some(self.config.service),
                    });
                    if f.visible_success() {
                        platform.submit_event(EventRequest {
                            actor: account,
                            action: ActionType::Unfollow,
                            target: t,
                            asn,
                            ip,
                            fingerprint,
                            service: Some(self.config.service),
                        });
                        success += 1;
                    } else {
                        failed += 1;
                    }
                }
            }
            _ => {
                let targets = self.pool.sample_distinct(n, rng);
                for t in targets {
                    let ip = platform.asns.ip_in(asn, rng.gen::<u32>());
                    let outcome = platform.submit_event(EventRequest {
                        actor: account,
                        action: ty,
                        target: t,
                        asn,
                        ip,
                        fingerprint,
                        service: Some(self.config.service),
                    });
                    if outcome.visible_success() {
                        success += 1;
                    } else {
                        failed += 1;
                    }
                }
            }
        }
        let s = &mut stats[ty.index()];
        s.attempted += u64::from(success) + failed;
        s.visible_failed += failed;
        s.success_per_account.push(success);
        let day = platform.clock.today();
        let result = BatchResult {
            attempted: success + failed as u32,
            delivered: success,
            blocked: failed as u32,
            deferred: 0,
        };
        self.observe_customer(account, ty, day, &result);
    }

    fn adapt(&mut self, day: Day, stats: [DayStats; 5]) {
        for ty in ActionType::ALL {
            let s = &stats[ty.index()];
            if s.attempted == 0 {
                continue;
            }
            // Detection capability: any sustained visible failures unlock
            // per-account block detection after the implementation lag.
            let i = ty.index();
            let failing = s.visible_failed > 0
                && (s.visible_failed as f64) > 0.002 * s.attempted as f64;
            if failing {
                self.failure_streak[i] += 1;
            } else {
                self.failure_streak[i] = 0;
            }
            if self.failure_streak[i] > self.config.adapt.detection_lag_days {
                self.capability[i] = true;
            }
            let median = crate::stats::upper_median(&s.success_per_account);
            let action = self.controllers[i].observe(DayObservation {
                day,
                attempted: s.attempted,
                visible_failed: s.visible_failed,
                median_success_per_account: median,
            });
            if action == ControllerAction::Migrate {
                self.migrate(ty);
                continue;
            }
            // Relocation pressure: when most customers run under caps the
            // service is delivering a fraction of its product; after
            // `migrate_after_days` of that it stands up fresh networks.
            let engaged = s.success_per_account.len();
            let throttled = self.throttled_customer_count(ty);
            if self.capability[i] && engaged > 0 && throttled * 10 >= engaged * 3 {
                self.heavy_throttle_days[i] += 1;
                if self.heavy_throttle_days[i] >= self.config.adapt.migrate_after_days {
                    self.migrate(ty);
                }
            } else {
                self.heavy_throttle_days[i] = 0;
            }
        }
        // Epilogue: Insta* drifted its follow traffic back to the original
        // ASN because the (delayed) countermeasure there was never visible.
        let fi = ActionType::Follow.index();
        if self.config.follows_return_home && self.asn_idx[fi] != 0 {
            if stats[fi].visible_failed == 0 {
                self.follow_quiet_days += 1;
            } else {
                self.follow_quiet_days = 0;
            }
            if self.follow_quiet_days >= 14 {
                self.asn_idx[fi] = 0;
                self.follow_quiet_days = 0;
            }
        }
    }

    /// Move to the next network in the rotation. Operationally the service
    /// relocates its whole automation stack, so *all* traffic types move;
    /// follow traffic may later drift home (see `follows_return_home`).
    /// Per-customer caps are lifted: the fresh network is not (yet) covered
    /// by frozen thresholds.
    fn migrate(&mut self, _trigger: ActionType) {
        let current = self.asn_idx.iter().copied().max().unwrap_or(0);
        if current + 1 < self.asn_rotation.len() {
            self.asn_idx = [current + 1; ActionType::COUNT];
            self.migrations += 1;
            self.per_customer.clear();
            self.failure_streak = [0; ActionType::COUNT];
            self.heavy_throttle_days = [0; ActionType::COUNT];
        }
        // With the rotation exhausted the service has nowhere to go; it
        // keeps operating (and failing) from the last network.
    }
}

/// Log-normal personal activity multiplier around 1.
fn personal_multiplier(rng: &mut impl Rng) -> f64 {
    sample_lognormal(rng, 1.0, 0.28).clamp(0.3, 3.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    
    use footsteps_sim::population::{synthesize, PopulationConfig};
    use rand::SeedableRng;

    /// Build a small world with a Boostgram instance for engine tests.
    fn world() -> (Platform, ResidentialIndex, Population, ReciprocityService, PaymentLedger) {
        let mut reg = AsnRegistry::new();
        for c in Country::ALL {
            reg.register(&format!("res-{}", c.code()), c, AsnKind::Residential, 50_000);
        }
        let primary = reg.register("bg-host", Country::Us, AsnKind::Hosting, 10_000);
        let backup = reg.register("bg-host-2", Country::Us, AsnKind::Hosting, 10_000);
        let residential = ResidentialIndex::build(&reg);
        let mut platform = Platform::new(
            reg,
            PlatformConfig::default(),
            SmallRng::seed_from_u64(100),
        );
        let mut rng = SmallRng::seed_from_u64(101);
        let pop = synthesize(
            &mut platform.accounts,
            &residential,
            &PopulationConfig { size: 4_000, ..PopulationConfig::default() },
            &mut rng,
        );
        let mut cfg = presets::boostgram_config(0.01);
        cfg.pool_size = 600;
        cfg.lifecycle.arrival_rate = 2.0;
        cfg.lifecycle.initial_long_term = 10;
        let svc = ReciprocityService::new(
            cfg,
            &platform.accounts,
            &pop,
            vec![primary, backup],
            SmallRng::seed_from_u64(102),
        );
        (platform, residential, pop, svc, PaymentLedger::new())
    }

    #[test]
    fn customers_arrive_trial_then_pay_or_lapse() {
        let (mut platform, residential, _pop, mut svc, mut ledger) = world();
        platform.begin_day(Day(0));
        svc.seed_initial_customers(&mut platform, &residential, Day(0));
        for d in 0..20u32 {
            platform.begin_day(Day(d));
            svc.run_day(&mut platform, &residential, &mut ledger, Day(d));
        }
        assert!(svc.customers().len() > 10, "arrivals happened");
        // Some short-term customers lapsed after the 3-day trial.
        let lapsed = svc
            .customers()
            .iter()
            .filter(|c| c.pay == PayState::Lapsed)
            .count();
        assert!(lapsed > 0, "short-term users lapse");
        // Long-term customers paid.
        let paid = svc.customers().iter().filter(|c| c.ever_paid).count();
        assert!(paid >= 10, "initial stock and converts pay, got {paid}");
        assert!(ledger.gross_in(ServiceId::Boostgram, Day(0), Day(20)) > 0);
    }

    #[test]
    fn activity_is_recorded_per_customer_asn() {
        let (mut platform, residential, _pop, mut svc, mut ledger) = world();
        platform.begin_day(Day(0));
        svc.seed_initial_customers(&mut platform, &residential, Day(0));
        svc.run_day(&mut platform, &residential, &mut ledger, Day(0));
        let asn = svc.current_asn(ActionType::Like);
        let day0 = platform.log.day(Day(0)).expect("activity logged");
        let active: Vec<_> = day0
            .outbound()
            .filter(|(k, _)| k.asn == asn)
            .collect();
        assert!(!active.is_empty(), "customer traffic from the service ASN");
        // Mix sanity: likes dominate Boostgram traffic (Table 11).
        let mut like = 0u64;
        let mut follow = 0u64;
        for (_, c) in day0.outbound().filter(|(k, _)| k.asn == asn) {
            like += u64::from(c.attempted_of(ActionType::Like));
            follow += u64::from(c.attempted_of(ActionType::Follow));
        }
        assert!(like > 2 * follow, "like {like} vs follow {follow}");
    }

    #[test]
    fn reciprocation_flows_back_to_customers() {
        let (mut platform, residential, _pop, mut svc, mut ledger) = world();
        platform.begin_day(Day(0));
        svc.seed_initial_customers(&mut platform, &residential, Day(0));
        let customer = svc.customers().iter().next().unwrap().account;
        let before = platform.accounts.get(customer).followers;
        for d in 0..10u32 {
            platform.begin_day(Day(d));
            svc.run_day(&mut platform, &residential, &mut ledger, Day(d));
        }
        let after = platform.accounts.get(customer).followers;
        assert!(
            after > before,
            "outbound follows earn reciprocated followers ({before} -> {after})"
        );
    }

    #[test]
    fn honeypot_enrollment_drives_event_traffic() {
        let (mut platform, residential, _pop, mut svc, mut ledger) = world();
        platform.begin_day(Day(0));
        let hp = platform.accounts.create(
            SimTime::EPOCH,
            ProfileKind::HoneypotEmpty,
            Country::Us,
            AsnId(0),
            0,
            0,
            ReciprocityProfile::SILENT,
        );
        platform.graph.track(hp);
        platform.log.track_events_for(hp);
        svc.enroll_honeypot(hp, ActionType::Follow, false, Day(0), &mut ledger);
        for d in 0..3u32 {
            platform.begin_day(Day(d));
            svc.run_day(&mut platform, &residential, &mut ledger, Day(d));
        }
        let out = platform
            .log
            .total_outbound(hp, ActionType::Follow, Day(0), Day(3));
        assert!(out > 0, "honeypot produced outbound follows");
        let events = platform
            .log
            .events_in(Day(0), Day(3), |e| e.actor == hp)
            .count();
        assert_eq!(events as u64, out, "every action is an event");
        // Honeypot engagement ends with the trial.
        for d in 3..10u32 {
            platform.begin_day(Day(d));
            svc.run_day(&mut platform, &residential, &mut ledger, Day(d));
        }
        let out_after = platform
            .log
            .total_outbound(hp, ActionType::Follow, Day(3), Day(10));
        assert_eq!(out_after, 0, "trial ended after 3 days (Boostgram)");
    }

    #[test]
    fn honeypot_of_unoffered_type_is_rejected() {
        let (mut platform, _residential, _pop, mut svc, mut ledger) = world();
        let hp = platform.accounts.create(
            SimTime::EPOCH,
            ProfileKind::HoneypotEmpty,
            Country::Us,
            AsnId(0),
            0,
            0,
            ReciprocityProfile::SILENT,
        );
        // Boostgram does not offer post automation (Table 1).
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            svc.enroll_honeypot(hp, ActionType::Post, false, Day(0), &mut ledger);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn blocking_provokes_throttling_and_migration() {
        #[derive(Debug)]
        struct BlockFollows;
        impl EnforcementPolicy for BlockFollows {
            fn evaluate(&self, ctx: &EnforcementContext) -> EnforcementDecision {
                if ctx.action == ActionType::Follow && ctx.direction == Direction::Outbound {
                    EnforcementDecision::threshold(ctx.requested, ctx.prior_today, 30, Countermeasure::Block)
                } else {
                    EnforcementDecision::allow_all(ctx.requested)
                }
            }
        }
        let (mut platform, residential, _pop, mut svc, mut ledger) = world();
        platform.begin_day(Day(0));
        svc.seed_initial_customers(&mut platform, &residential, Day(0));
        platform.set_policy(Box::new(BlockFollows));
        let mut throttled_on = None;
        for d in 0..60u32 {
            platform.begin_day(Day(d));
            svc.run_day(&mut platform, &residential, &mut ledger, Day(d));
            if throttled_on.is_none() && svc.is_throttled(ActionType::Follow) {
                throttled_on = Some(d);
            }
        }
        let reacted = throttled_on.expect("service reacted to blocking");
        assert!(reacted <= 2, "reaction is immediate, got day {reacted}");
        // Cap sits at/below the threshold neighbourhood.
        if let Some(cap) = svc.cap(ActionType::Follow) {
            assert!(cap <= 40.0, "cap {cap} near threshold 30");
        }
        // Under default tuning (migrate_after_days=45) sustained probing
        // eventually hits the migrate path.
        assert!(svc.migrations() <= 1);
    }

    #[test]
    fn delayed_removal_goes_unanswered() {
        #[derive(Debug)]
        struct DelayFollows;
        impl EnforcementPolicy for DelayFollows {
            fn evaluate(&self, ctx: &EnforcementContext) -> EnforcementDecision {
                if ctx.action == ActionType::Follow && ctx.direction == Direction::Outbound {
                    EnforcementDecision::threshold(
                        ctx.requested,
                        ctx.prior_today,
                        30,
                        Countermeasure::DelayRemoval,
                    )
                } else {
                    EnforcementDecision::allow_all(ctx.requested)
                }
            }
        }
        let (mut platform, residential, _pop, mut svc, mut ledger) = world();
        platform.begin_day(Day(0));
        svc.seed_initial_customers(&mut platform, &residential, Day(0));
        platform.set_policy(Box::new(DelayFollows));
        for d in 0..30u32 {
            platform.begin_day(Day(d));
            svc.run_day(&mut platform, &residential, &mut ledger, Day(d));
        }
        assert!(
            !svc.is_throttled(ActionType::Follow),
            "the service cannot see deferred removals and never reacts"
        );
        // Yet the countermeasure is working: follows are being removed.
        let removed = platform.obs.metrics.snapshot().counter("platform.removed_follows");
        assert!(removed > 0);
    }
}
