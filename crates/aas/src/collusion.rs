//! Collusion-network service engine (Hublaagram, Followersgratis).
//!
//! A collusion network (§3.2) serves every customer *from* every customer:
//! accounts enrolled in the service produce outbound actions toward other
//! members, and receive inbound actions from yet other members. The engine
//! models the full business:
//!
//! * free tier — small action grants per request, cooldown-limited, funded
//!   by pop-under ads shown on every request (§5.2);
//! * paid tiers — one-time like bursts, monthly likes-per-photo
//!   subscriptions, and the "no outbound" lifetime exemption (Table 3);
//! * Followersgratis-style paid packages (Table 4) for the variant with no
//!   subscription products;
//! * adaptation — controllers watching visible delivery failures, with the
//!   three-week like-detection lag the paper observed, ASN migration under
//!   sustained blocking, and the terminal "out of stock" state (§6.4).

use crate::adapt::{AdaptationConfig, DayObservation, VolumeController};
use crate::catalog::{FollowersgratisPackage, HublaagramCatalog};
use crate::customer::{sample_poisson, Customer, CustomerBook, LifecycleParams, PayState};
use crate::ledger::{Payment, PaymentKind, PaymentLedger};
use footsteps_sim::population::{sample_lognormal, ResidentialIndex};
use footsteps_sim::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;

/// Composition of the paying customer base, as enrollment-time draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PayerProfile {
    /// Probability a new customer pays the lifetime no-outbound fee.
    pub p_no_outbound: f64,
    /// Probability a new customer subscribes to a monthly like tier.
    pub p_monthly: f64,
    /// Relative weights of the four monthly tiers (Table 9's observed mix).
    pub monthly_tier_weights: [f64; 4],
    /// Probability a new customer buys a one-time like package.
    pub p_one_time: f64,
}

impl PayerProfile {
    /// Draw a tier index from the weights.
    fn draw_tier(&self, rng: &mut impl Rng) -> usize {
        let total: f64 = self.monthly_tier_weights.iter().sum();
        if total <= 0.0 {
            return 0;
        }
        let mut t = rng.gen::<f64>() * total;
        for (i, &w) in self.monthly_tier_weights.iter().enumerate() {
            t -= w;
            if t < 0.0 {
                return i;
            }
        }
        self.monthly_tier_weights.len() - 1
    }
}

/// Collusion-specific per-customer state.
#[derive(Debug, Clone, Copy, Default)]
struct Role {
    /// Paid the lifetime fee to never be used for outbound actions.
    no_outbound: bool,
    /// Monthly like tier index, if subscribed.
    monthly_tier: Option<usize>,
    /// Next day a monthly renewal is due.
    next_renewal: Day,
}

/// Static configuration of one collusion service.
#[derive(Debug, Clone)]
pub struct CollusionConfig {
    /// Which service this is.
    pub service: ServiceId,
    /// Spoofed-client fingerprint variant.
    pub fingerprint_variant: u16,
    /// Price list and free-tier limits.
    pub catalog: HublaagramCatalog,
    /// Customer arrival / long-term dynamics.
    pub lifecycle: LifecycleParams,
    /// Customer geography.
    pub customer_mix: CountryMix,
    /// Controller tuning for like deliveries (Hublaagram's had a ~3-week
    /// implementation lag).
    pub adapt_likes: crate::adapt::AdaptationConfig,
    /// Controller tuning for follow deliveries.
    pub adapt_follows: crate::adapt::AdaptationConfig,
    /// Mean free like-requests per active customer-day.
    pub free_like_requests_per_day: f64,
    /// Mean free follow-requests per active customer-day.
    pub free_follow_requests_per_day: f64,
    /// Mean free comment-requests per active customer-day.
    pub free_comment_requests_per_day: f64,
    /// Paying-customer composition.
    pub payer_profile: PayerProfile,
    /// Customers' organic posting rate (photos/day) — monthly tiers deliver
    /// per new photo.
    pub photos_per_day: f64,
    /// Number of distinct source IPs the service spreads outbound traffic
    /// over (Followersgratis: 3; Hublaagram: thousands).
    pub ip_pool_size: u32,
    /// Free requests per day made on honeypot enrollments.
    pub honeypot_free_requests_per_day: f64,
    /// Delivery rate for paid like bursts, likes/hour (exceeds the 160/h
    /// free cap — the revenue analysis keys on this).
    pub paid_delivery_rate_per_hour: u32,
    /// Probability an active customer buys a Followersgratis package today.
    pub package_purchase_prob: f64,
    /// Followersgratis package list (empty for Hublaagram).
    pub followersgratis_packages: Vec<FollowersgratisPackage>,
}

/// Daily delivery statistics per action type, for the controllers.
#[derive(Debug, Clone, Default)]
struct DayStats {
    attempted: u64,
    visible_failed: u64,
    success_per_recipient: Vec<u32>,
    /// Per-recipient daily tallies `(attempted, blocked, delivered)` feeding
    /// the per-recipient controllers.
    per_recipient: IdMap<AccountId, (u64, u64, u32)>,
}

impl DayStats {
    /// Feed one delivery to `account` into the statistics. `raw` is what the
    /// customer requested and `capped` what the service dared to deliver:
    /// controller `attempted` counts the request, the recipient's tally the
    /// delivery.
    fn record(&mut self, account: AccountId, raw: u32, capped: u32, res: &BatchResult) {
        self.attempted += u64::from(raw);
        self.visible_failed += u64::from(res.blocked);
        self.success_per_recipient.push(res.visible_success());
        let tally = self.per_recipient.entry(account).or_default();
        tally.0 += u64::from(capped);
        tally.1 += u64::from(res.blocked);
        tally.2 += res.visible_success();
    }
}

/// One day's running totals, fed by each member's deliveries as they land.
#[derive(Debug, Default)]
struct DayTally {
    /// Controller statistics, `[likes, follows]`.
    stats: [DayStats; 2],
    /// Outbound volume the deliveries cost the network, `[likes, follows,
    /// comments]`; the members perform it after the pass.
    outbound: [u64; 3],
    /// Pop-under impressions: free requests fund ads whether or not the
    /// deliveries succeed.
    ads: u64,
    /// Free requests made (the `planned_requests` metric).
    requests: u64,
}

/// Sentinel account id used for ad-income ledger rows.
pub const ADS_ACCOUNT: AccountId = AccountId(u32::MAX);

/// A running collusion-network service.
#[derive(Debug)]
pub struct CollusionService {
    config: CollusionConfig,
    customers: CustomerBook,
    roles: IdMap<AccountId, Role>,
    asn_rotation: Vec<AsnId>,
    asn_idx: usize,
    /// How many rotation entries are in simultaneous use (Hublaagram serves
    /// from two networks at once — Table 7 locates it in GBR *and* USA).
    active_asns: usize,
    like_controller: VolumeController,
    follow_controller: VolumeController,
    /// Per-recipient like-delivery controllers: the service observes *which*
    /// customers' deliveries fail and reduces volume for exactly those.
    per_recipient_like: IdMap<AccountId, VolumeController>,
    /// Per-recipient follow-delivery controllers.
    per_recipient_follow: IdMap<AccountId, VolumeController>,
    /// Whether blocked-delivery detection has been implemented per type
    /// (`[likes, follows]`). Hublaagram's like detector took ~3 weeks of
    /// sustained failures to appear (§6.3).
    capability: [bool; 2],
    /// Consecutive days with visible failures per type.
    failure_streak: [u32; 2],
    /// Consecutive days with a large share of recipients throttled (drives
    /// migration / out-of-stock).
    heavy_throttle_days: u32,
    rng: SmallRng,
    /// Seed of the per-member decision streams: each member-day is drawn
    /// from `decision_rng(decision_seed, account, day)`, so no member's day
    /// depends on its place in the roster (DESIGN.md §4).
    decision_seed: u64,
    out_of_stock: bool,
    out_of_stock_on: Option<Day>,
    migrations: u32,
    /// Days of continued blocking after the rotation was exhausted.
    exhausted_blocked_days: u32,
    /// Total ad impressions served, for reporting.
    ads_impressions: u64,
}

impl CollusionService {
    /// Create the service over its delivery networks. `asn_rotation[0]` is
    /// the primary (Table 7) network.
    pub fn new(config: CollusionConfig, asn_rotation: Vec<AsnId>, rng: SmallRng) -> Self {
        Self::with_active_asns(config, asn_rotation, 1, rng)
    }

    /// Like [`Self::new`], serving from `active_asns` networks at once.
    pub fn with_active_asns(
        config: CollusionConfig,
        asn_rotation: Vec<AsnId>,
        active_asns: usize,
        rng: SmallRng,
    ) -> Self {
        assert!(!asn_rotation.is_empty(), "need at least a primary ASN");
        assert!(active_asns >= 1 && active_asns <= asn_rotation.len());
        let like_controller = VolumeController::new(config.adapt_likes);
        let follow_controller = VolumeController::new(config.adapt_follows);
        let mut rng = rng;
        // First draw of the service stream seeds the per-member decision
        // streams (same derivation chain as the reciprocity engine).
        let decision_seed = rng.gen::<u64>();
        Self {
            config,
            customers: CustomerBook::new(),
            roles: IdMap::default(),
            asn_rotation,
            asn_idx: 0,
            active_asns,
            like_controller,
            follow_controller,
            per_recipient_like: IdMap::default(),
            per_recipient_follow: IdMap::default(),
            capability: [false; 2],
            failure_streak: [0; 2],
            heavy_throttle_days: 0,
            rng,
            decision_seed,
            out_of_stock: false,
            out_of_stock_on: None,
            migrations: 0,
            exhausted_blocked_days: 0,
            ads_impressions: 0,
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

    /// Current primary delivery ASN.
    pub fn current_asn(&self) -> AsnId {
        self.asn_rotation[self.asn_idx]
    }

    /// The delivery network used for one customer (customers are pinned to
    /// one of the active networks by account id).
    pub fn asn_for(&self, account: AccountId) -> AsnId {
        let span = self
            .active_asns
            .min(self.asn_rotation.len() - self.asn_idx);
        self.asn_rotation[self.asn_idx + (account.0 as usize % span)]
    }

    /// Whether the service has stopped selling ("out of stock", §6.4).
    pub fn is_out_of_stock(&self) -> bool {
        self.out_of_stock
    }

    /// Day the service went out of stock, if it did.
    pub fn out_of_stock_on(&self) -> Option<Day> {
        self.out_of_stock_on
    }

    /// ASN migrations performed.
    pub fn migrations(&self) -> u32 {
        self.migrations
    }

    /// Whether the like controller has engaged.
    pub fn likes_throttled(&self) -> bool {
        self.like_controller.is_throttled()
    }

    /// Total pop-under impressions served so far.
    pub fn ads_impressions(&self) -> u64 {
        self.ads_impressions
    }

    /// Whether blocked-delivery detection is live for likes.
    pub fn like_detection_active(&self) -> bool {
        self.capability[0]
    }

    /// The self-imposed like-delivery cap for one recipient, if engaged.
    pub fn recipient_like_cap(&self, account: AccountId) -> Option<f64> {
        self.per_recipient_like.get(&account).and_then(|c| c.cap())
    }

    /// Enroll a honeypot account requesting `requested` actions. If
    /// `monthly_tier` is set, the honeypot pays for that tier (the paid
    /// probes behind §5.2's 160 likes/hour finding).
    pub fn enroll_honeypot(
        &mut self,
        account: AccountId,
        requested: ActionType,
        monthly_tier: Option<usize>,
        day: Day,
        ledger: &mut PaymentLedger,
    ) {
        let mut role = Role::default();
        // Services without subscription products (Followersgratis) silently
        // downgrade a paid registration to free usage — there is nothing to
        // buy monthly (Table 4 is package-based).
        let monthly_tier = monthly_tier.filter(|_| !self.config.catalog.monthly.is_empty());
        if let Some(tier) = monthly_tier {
            let t = &self.config.catalog.monthly[tier];
            ledger.record(Payment {
                day,
                account,
                service: self.config.service,
                cents: t.monthly_cents,
                kind: PaymentKind::MonthlyLikes,
            });
            role.monthly_tier = Some(tier);
            role.next_renewal = day.plus(30);
        }
        self.roles.insert(account, role);
        self.customers.enroll(Customer {
            account,
            enrolled: day,
            // Honeypots run until the framework deletes the account; give
            // them a long horizon.
            planned_end: day.plus(3_650),
            long_term: true,
            pay: PayState::Free,
            ever_paid: monthly_tier.is_some(),
            requested: vec![requested],
            volume_multiplier: 1.0,
            honeypot: true,
        });
    }

    /// Seed the pre-existing customer stock before the first `run_day`.
    pub fn seed_initial_customers(
        &mut self,
        platform: &mut Platform,
        residential: &ResidentialIndex,
        ledger: &mut PaymentLedger,
        day: Day,
    ) {
        for _ in 0..self.config.lifecycle.initial_long_term {
            let account = self.create_customer_account(platform, residential);
            let mean = self.config.lifecycle.long_term_mean_days;
            let len = crate::customer::sample_geometric_days(mean, &mut self.rng).max(10);
            self.enroll_regular(platform, ledger, account, day, true, day.plus(len));
        }
    }

    /// Run one simulated day: arrivals and renewals, the members' day
    /// and their outbound participation, adaptation. Each stage is a span
    /// (`aas.<slug>.arrivals`, `.route`, `.outbound`, `.adapt`).
    pub fn run_day(
        &mut self,
        platform: &mut Platform,
        residential: &ResidentialIndex,
        ledger: &mut PaymentLedger,
        day: Day,
    ) {
        let slug = self.config.service.slug();
        let span = platform.obs.timings.start(&format!("aas.{slug}.arrivals"));
        self.admit_arrivals(platform, residential, ledger, day);
        self.process_renewals(ledger, day);
        platform.obs.timings.finish(span);
        let stats = self.deliver(platform, ledger, day);
        let span = platform.obs.timings.start(&format!("aas.{slug}.adapt"));
        self.adapt(day, stats);
        platform.obs.timings.finish(span);
    }

    fn create_customer_account(
        &mut self,
        platform: &mut Platform,
        residential: &ResidentialIndex,
    ) -> AccountId {
        let country = self.config.customer_mix.sample(self.rng.gen());
        let home = residential.pick(country, self.rng.gen());
        let following = sample_lognormal(&mut self.rng, 350.0, 0.9).round().min(5e5) as u32;
        let followers = sample_lognormal(&mut self.rng, 280.0, 0.9).round().min(5e5) as u32;
        let tendency =
            footsteps_sim::behavior::followback_tendency(following, followers, self.rng.gen());
        let profile = footsteps_sim::behavior::synthesize_profile(
            &platform.config.behavior,
            tendency,
            self.rng.gen(),
        );
        let account = platform.accounts.create(
            platform.clock.now(),
            ProfileKind::Organic,
            country,
            home,
            following,
            followers,
            profile,
        );
        // Customers arrive with a small photo history; deliveries land on
        // the latest photo.
        let photos = 1 + (self.rng.gen::<f64>() * 3.0) as u32;
        let ip = platform.asns.ip_in(home, account.0);
        for _ in 0..photos {
            platform.post_media(account, home, ip);
        }
        account
    }

    fn admit_arrivals(
        &mut self,
        platform: &mut Platform,
        residential: &ResidentialIndex,
        ledger: &mut PaymentLedger,
        day: Day,
    ) {
        let n = sample_poisson(&mut self.rng, self.config.lifecycle.arrival_rate);
        for _ in 0..n {
            let account = self.create_customer_account(platform, residential);
            let (long_term, planned_end) = self.config.lifecycle.draw_span(day, &mut self.rng);
            self.enroll_regular(platform, ledger, account, day, long_term, planned_end);
        }
    }

    fn enroll_regular(
        &mut self,
        platform: &mut Platform,
        ledger: &mut PaymentLedger,
        account: AccountId,
        day: Day,
        long_term: bool,
        planned_end: Day,
    ) {
        let mut role = Role::default();
        let mut ever_paid = false;
        if !self.out_of_stock {
            let p = &self.config.payer_profile;
            let u: f64 = self.rng.gen();
            // The bands are disjoint; a draw landing in the monthly band for
            // a short-term user buys nothing (monthly tiers only make sense
            // for users who stay).
            if u < p.p_no_outbound {
                role.no_outbound = true;
                ever_paid = true;
                ledger.record(Payment {
                    day,
                    account,
                    service: self.config.service,
                    cents: self.config.catalog.no_outbound_cents,
                    kind: PaymentKind::NoOutbound,
                });
            } else if u < p.p_no_outbound + p.p_monthly && long_term {
                let tier = p.draw_tier(&mut self.rng);
                role.monthly_tier = Some(tier);
                role.next_renewal = day.plus(30);
                ever_paid = true;
                ledger.record(Payment {
                    day,
                    account,
                    service: self.config.service,
                    cents: self.config.catalog.monthly[tier].monthly_cents,
                    kind: PaymentKind::MonthlyLikes,
                });
            } else if u >= p.p_no_outbound + p.p_monthly
                && u < p.p_no_outbound + p.p_monthly + p.p_one_time
                && !self.config.catalog.one_time.is_empty()
            {
                // One-time burst: overwhelmingly the cheapest package
                // (Table 9 found ≈182 buyers of the 2,000-like package and
                // fewer than 20 of the larger ones).
                let pkg = self.config.catalog.one_time[0];
                ever_paid = true;
                ledger.record(Payment {
                    day,
                    account,
                    service: self.config.service,
                    cents: pkg.cents,
                    kind: PaymentKind::OneTimeLikes,
                });
                self.deliver_burst(platform, account, pkg.likes);
            }
        }
        self.roles.insert(account, role);
        self.customers.enroll(Customer {
            account,
            enrolled: day,
            planned_end,
            long_term,
            pay: PayState::Free,
            ever_paid,
            requested: vec![ActionType::Like, ActionType::Follow, ActionType::Comment],
            volume_multiplier: 1.0,
            honeypot: false,
        });
    }

    fn process_renewals(&mut self, ledger: &mut PaymentLedger, day: Day) {
        if self.out_of_stock {
            // No new payments accepted; subscriptions lapse back to free.
            // footsteps-lint: allow(nondet-iter) — each role lapses independently; no cross-role order dependence
            for role in self.roles.values_mut() {
                if role.monthly_tier.is_some() && day >= role.next_renewal {
                    role.monthly_tier = None;
                }
            }
            return;
        }
        let service = self.config.service;
        let mut payments = Vec::new();
        for c in self.customers.iter() {
            if !c.engaged_on(day) {
                continue;
            }
            let Some(role) = self.roles.get_mut(&c.account) else {
                continue;
            };
            if let Some(tier) = role.monthly_tier {
                if day >= role.next_renewal {
                    payments.push(Payment {
                        day,
                        account: c.account,
                        service,
                        cents: self.config.catalog.monthly[tier].monthly_cents,
                        kind: PaymentKind::MonthlyLikes,
                    });
                    role.next_renewal = day.plus(30);
                }
            }
        }
        for p in payments {
            ledger.record(p);
        }
    }

    /// Serve every engaged member's day in roster order, then generate the
    /// matching outbound participation, returning per-type stats for the
    /// controllers.
    fn deliver(
        &mut self,
        platform: &mut Platform,
        ledger: &mut PaymentLedger,
        day: Day,
    ) -> [DayStats; 2] {
        let engaged: Vec<(AccountId, bool, Option<ActionType>)> = self
            .customers
            .engaged_on(day)
            .map(|c| {
                let requested = c.honeypot.then(|| c.requested[0]);
                (c.account, c.honeypot, requested)
            })
            .collect();

        let slug = self.config.service.slug();
        let span = platform.obs.timings.start(&format!("aas.{slug}.route"));
        let mut tally = DayTally::default();
        for &(account, honeypot, _) in &engaged {
            self.serve_member(platform, ledger, day, account, honeypot, &mut tally);
        }
        platform.obs.timings.finish(span);
        let metrics = &mut platform.obs.metrics;
        metrics.add(&format!("aas.{slug}.engaged"), engaged.len() as u64);
        metrics.add(&format!("aas.{slug}.planned_requests"), tally.requests);

        // --- outbound participation ---------------------------------------
        // Every delivered inbound action was performed by some member of the
        // network; spread the outbound volume over non-exempt participants.
        let span = platform.obs.timings.start(&format!("aas.{slug}.outbound"));
        let participants: Vec<(AccountId, bool, Option<ActionType>)> = engaged
            .iter()
            .filter(|(a, _, _)| !self.roles.get(a).map(|r| r.no_outbound).unwrap_or(false))
            .copied()
            .collect();
        if !participants.is_empty() {
            let n = participants.len() as u64;
            // Even split with the remainder spread over the first accounts,
            // so small volumes (comments) are not rounded away.
            let split = |total: u64, idx: u64| -> u32 {
                (total / n + u64::from(idx < total % n)) as u32
            };
            let fingerprint = ClientFingerprint::SpoofedMobile {
                variant: self.config.fingerprint_variant,
            };
            for (idx, &(account, honeypot, requested)) in participants.iter().enumerate() {
                let idx = idx as u64;
                let asn = self.asn_for(account);
                for (ty, count) in [
                    (ActionType::Like, split(tally.outbound[0], idx)),
                    (ActionType::Follow, split(tally.outbound[1], idx)),
                    (ActionType::Comment, split(tally.outbound[2], idx)),
                ] {
                    if count == 0 {
                        continue;
                    }
                    // §4.2: "the services all perform as advertised […] no
                    // AASs used our accounts to produce visible un-requested
                    // actions" — honeypot accounts only participate with the
                    // action type their registration requested.
                    if honeypot && requested != Some(ty) {
                        continue;
                    }
                    let ip = platform
                        .asns
                        .ip_in(asn, self.rng.gen_range(0..self.config.ip_pool_size.max(1)));
                    if honeypot {
                        // Honeypot outbound goes through the event path so the
                        // framework observes each action individually. Cap
                        // the volume: the honeypot sees *that* and *how* its
                        // account is used, which does not require hundreds
                        // of events. Targets are drawn from the other
                        // honeypot members: the recipients' delivered volume
                        // is already fully accounted for by the deposit path,
                        // so routing these observational events at organic
                        // customers would double-count deliveries.
                        let peers: Vec<AccountId> = participants
                            .iter()
                            .filter(|&&(a, hp, _)| hp && a != account)
                            .map(|&(a, _, _)| a)
                            .collect();
                        if peers.is_empty() {
                            continue;
                        }
                        let n = count.min(25) as usize;
                        let targets: Vec<AccountId> = (0..n)
                            .map(|_| peers[self.rng.gen_range(0..peers.len())])
                            .collect();
                        for t in targets {
                            platform.submit_event(EventRequest {
                                actor: account,
                                action: ty,
                                target: t,
                                asn,
                                ip,
                                fingerprint,
                                service: Some(self.config.service),
                            });
                        }
                    } else {
                        platform.submit_batch(BatchRequest {
                            actor: account,
                            action: ty,
                            count,
                            asn,
                            ip,
                            fingerprint,
                            pool: PoolStats::INERT,
                            service: Some(self.config.service),
                        });
                    }
                }
            }
        }
        platform.obs.timings.finish(span);

        // --- ad income ------------------------------------------------------
        if tally.ads > 0 {
            self.ads_impressions += tally.ads;
            let (lo, hi) = self.config.catalog.cpm_cents;
            if hi > 0 {
                let cpm = self.rng.gen_range(lo..=hi) as f64;
                let cents = (tally.ads as f64 * cpm / 1_000.0).round() as u64;
                if cents > 0 {
                    ledger.record(Payment {
                        day,
                        account: ADS_ACCOUNT,
                        service: self.config.service,
                        cents,
                        kind: PaymentKind::Ads,
                    });
                }
            }
        }

        tally.stats
    }

    /// Serve one engaged member's day, in the order it happens: log in and
    /// post, make the free requests, deliver the monthly tier and any
    /// package bought, each delivery judged by the platform's enforced
    /// inbound path and fed into `tally` as it lands. Every stochastic
    /// choice comes from the member's own `(decision_seed, account, day)`
    /// stream (DESIGN.md §4); the service state read here changes only in
    /// `adapt`.
    fn serve_member(
        &self,
        platform: &mut Platform,
        ledger: &mut PaymentLedger,
        day: Day,
        account: AccountId,
        honeypot: bool,
        tally: &mut DayTally,
    ) {
        let mut rng = decision_rng(self.decision_seed, u64::from(account.0), u64::from(day.0));
        let catalog = &self.config.catalog;
        let role = self.roles.get(&account).copied().unwrap_or_default();
        if rng.gen::<f64>() < 0.7 {
            platform.record_login(account);
        }
        // Organic posting; monthly tiers deliver on each new photo.
        let fresh_photo = (rng.gen::<f64>() < self.config.photos_per_day).then(|| {
            let home = platform.accounts.get(account).home_asn;
            let ip = platform.asns.ip_in(home, account.0);
            platform.post_media(account, home, ip)
        });

        // --- free tier -----------------------------------------------------
        // Receive-only (no-outbound) customers paid precisely because they
        // want the inbound actions: they request several times more often
        // than casual free users.
        let engagement = if role.no_outbound { 3.0 } else { 1.0 };
        let rate = |per_day: f64| {
            if honeypot {
                self.config.honeypot_free_requests_per_day
            } else {
                engagement * per_day
            }
        };
        // The 30-minute cooldown (§3.3.2) bounds how many free requests a
        // day can possibly hold, however eager the customer.
        let max_requests =
            (footsteps_sim::time::SECS_PER_DAY / catalog.free_cooldown_secs.max(1)) as u32;
        let (ads_lo, ads_hi) = catalog.ads_per_free_request;
        let like_rate = rate(self.config.free_like_requests_per_day);
        let like_requests = sample_poisson(&mut rng, like_rate).min(max_requests);
        if like_requests > 0 && catalog.free_likes_per_request > 0 {
            if ads_hi > 0 {
                tally.ads += u64::from(like_requests) * u64::from(rng.gen_range(ads_lo..=ads_hi));
            }
            let raw = like_requests * catalog.free_likes_per_request;
            let capped = apply_cap(raw, self.like_cap_for(account));
            let media = platform
                .accounts
                .latest_media_of(account)
                .map(|m| (m, catalog.free_likes_per_hour_cap.min(capped)));
            let res = self.deposit(platform, account, ActionType::Like, capped, media);
            tally.stats[0].record(account, raw, capped, &res);
            tally.outbound[0] += u64::from(res.attempted);
        }
        let follow_rate = rate(self.config.free_follow_requests_per_day);
        let follow_requests = sample_poisson(&mut rng, follow_rate).min(max_requests);
        if follow_requests > 0 && catalog.free_follows_per_request > 0 {
            if ads_hi > 0 {
                tally.ads += u64::from(follow_requests) * u64::from(rng.gen_range(ads_lo..=ads_hi));
            }
            let raw = follow_requests * catalog.free_follows_per_request;
            let capped = apply_cap(raw, self.follow_cap_for(account));
            let res = self.deposit(platform, account, ActionType::Follow, capped, None);
            tally.stats[1].record(account, raw, capped, &res);
            tally.outbound[1] += u64::from(res.attempted);
        }
        let comment_requests = sample_poisson(&mut rng, self.config.free_comment_requests_per_day);
        if comment_requests > 0 {
            let n = comment_requests * 5;
            let media = platform.accounts.latest_media_of(account).map(|m| (m, n));
            let res = self.deposit(platform, account, ActionType::Comment, n, media);
            tally.outbound[2] += u64::from(res.attempted);
        }
        tally.requests +=
            u64::from(like_requests) + u64::from(follow_requests) + u64::from(comment_requests);

        // --- paid monthly tier ---------------------------------------------
        if let (Some(tier), Some(photo)) = (role.monthly_tier, fresh_photo) {
            let t = catalog.monthly[tier];
            let raw = rng.gen_range(t.min_likes..=t.max_likes);
            let capped = apply_cap(raw, self.like_cap_for(account));
            let media = Some((photo, self.config.paid_delivery_rate_per_hour.min(capped)));
            let res = self.deposit(platform, account, ActionType::Like, capped, media);
            tally.stats[0].record(account, raw, capped, &res);
            tally.outbound[0] += u64::from(res.attempted);
        }

        // --- Followersgratis packages --------------------------------------
        let packages = &self.config.followersgratis_packages;
        if !honeypot
            && !self.out_of_stock
            && self.config.package_purchase_prob > 0.0
            && !packages.is_empty()
            && rng.gen::<f64>() < self.config.package_purchase_prob
        {
            let pkg = &packages[rng.gen_range(0..packages.len())];
            ledger.record(Payment {
                day,
                account,
                service: self.config.service,
                cents: pkg.cents,
                kind: PaymentKind::Package,
            });
            // A package's follows feed only the service-level statistics,
            // never a per-recipient controller; its follows and its like
            // burst cost the members their full size in outbound volume.
            if pkg.follows > 0 {
                let res = self.deposit(platform, account, ActionType::Follow, pkg.follows, None);
                tally.stats[1].attempted += u64::from(pkg.follows);
                tally.stats[1].visible_failed += u64::from(res.blocked);
                tally.outbound[1] += u64::from(pkg.follows);
            }
            if pkg.likes > 0 {
                self.deliver_burst(platform, account, pkg.likes);
                tally.outbound[0] += u64::from(pkg.likes);
            }
        }
    }

    /// Deliver `requested` actions of type `ty` to `target` from its network
    /// through the platform's enforced inbound path. Zero-quantity deliveries
    /// are made too: they still attribute ground truth.
    fn deposit(
        &self,
        platform: &mut Platform,
        target: AccountId,
        ty: ActionType,
        requested: u32,
        media: Option<(MediaId, u32)>,
    ) -> BatchResult {
        platform.deposit(&DepositOp {
            target,
            ty,
            requested,
            asn: self.asn_for(target),
            service: Some(self.config.service),
            media,
        })
    }

    /// Deliver a like burst to the customer's latest photo at the paid
    /// (above-free-cap) hourly rate.
    fn deliver_burst(&self, platform: &mut Platform, account: AccountId, likes: u32) {
        let capped = apply_cap(likes, self.like_cap_for(account));
        let media = platform
            .accounts
            .latest_media_of(account)
            .map(|m| (m, self.config.paid_delivery_rate_per_hour.max(capped / 4)));
        self.deposit(platform, account, ActionType::Like, capped, media);
    }

    /// Current self-imposed like-delivery cap for a recipient (only once
    /// blocked-like detection is live).
    fn like_cap_for(&self, account: AccountId) -> Option<f64> {
        if !self.capability[0] {
            return None;
        }
        self.per_recipient_like.get(&account).and_then(|c| c.cap())
    }

    /// Current self-imposed follow-delivery cap for a recipient.
    fn follow_cap_for(&self, account: AccountId) -> Option<f64> {
        if !self.capability[1] {
            return None;
        }
        self.per_recipient_follow
            .get(&account)
            .and_then(|c| c.cap())
    }

    fn adapt(&mut self, day: Day, stats: [DayStats; 2]) {
        let adapt_cfgs = [self.config.adapt_likes, self.config.adapt_follows];
        for (i, s) in stats.iter().enumerate() {
            if s.attempted == 0 {
                continue;
            }
            // Detection capability per type, behind the implementation lag.
            let failing = s.visible_failed > 0
                && (s.visible_failed as f64) > 0.002 * s.attempted as f64;
            if failing {
                self.failure_streak[i] += 1;
            } else {
                self.failure_streak[i] = 0;
            }
            if self.failure_streak[i] > adapt_cfgs[i].detection_lag_days {
                self.capability[i] = true;
            }
            // Service-level controller (aggregate visibility / reporting).
            let median = crate::stats::upper_median(&s.success_per_recipient);
            let controller = if i == 0 {
                &mut self.like_controller
            } else {
                &mut self.follow_controller
            };
            controller.observe(DayObservation {
                day,
                attempted: s.attempted,
                visible_failed: s.visible_failed,
                median_success_per_account: median,
            });
            // Per-recipient controllers, once detection is live.
            if self.capability[i] {
                let per = if i == 0 {
                    &mut self.per_recipient_like
                } else {
                    &mut self.per_recipient_follow
                };
                let cfg = AdaptationConfig {
                    detection_lag_days: 0,
                    migrate_after_days: u32::MAX,
                    ..adapt_cfgs[i]
                };
                // footsteps-lint: allow(nondet-iter) — per-account controllers update independently of visit order
                for (&account, &(attempted, blocked, delivered)) in &s.per_recipient {
                    if blocked == 0 && !per.contains_key(&account) {
                        continue;
                    }
                    per.entry(account)
                        .or_insert_with(|| VolumeController::new(cfg))
                        .observe(DayObservation {
                            day,
                            attempted,
                            visible_failed: blocked,
                            median_success_per_account: f64::from(delivered),
                        });
                }
            }
        }
        // Relocation pressure: most like recipients capped for a sustained
        // stretch. Hublaagram cannot deliver even its cheapest paid product
        // under those caps.
        let engaged = stats[0].per_recipient.len().max(1);
        let throttled = self
            .per_recipient_like
            // footsteps-lint: allow(nondet-iter) — order-insensitive count of throttled controllers
            .values()
            .filter(|c| c.is_throttled())
            .count();
        if self.capability[0] && throttled * 10 >= engaged * 3 {
            self.heavy_throttle_days += 1;
        } else {
            self.heavy_throttle_days = 0;
        }
        if self.heavy_throttle_days >= self.config.adapt_likes.migrate_after_days {
            // Relocating means standing up a *fresh* set of active networks.
            if self.asn_idx + 2 * self.active_asns <= self.asn_rotation.len() {
                self.asn_idx += self.active_asns;
                self.migrations += 1;
                self.per_recipient_like.clear();
                self.per_recipient_follow.clear();
                self.failure_streak = [0; 2];
                self.heavy_throttle_days = 0;
                self.exhausted_blocked_days = 0;
            } else {
                // Nowhere left to go: count the days of unsustainable
                // operation; "unable to produce sustainable unblocked
                // actions, [Hublaagram] stopped accepting customer payments
                // by listing all offered services as out of stock" (§6.4).
                self.exhausted_blocked_days += 1;
                if !self.out_of_stock && self.exhausted_blocked_days >= 14 {
                    self.out_of_stock = true;
                    self.out_of_stock_on = Some(day);
                }
            }
        }
    }
}

/// Clamp a requested per-recipient quantity to the controller's cap.
fn apply_cap(requested: u32, cap: Option<f64>) -> u32 {
    match cap {
        Some(c) => requested.min(c.max(0.0) as u32),
        None => requested,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use rand::SeedableRng;

    fn world() -> (Platform, ResidentialIndex, CollusionService, PaymentLedger) {
        let mut reg = AsnRegistry::new();
        for c in Country::ALL {
            reg.register(&format!("res-{}", c.code()), c, AsnKind::Residential, 50_000);
        }
        let primary = reg.register("hg-host", Country::Gb, AsnKind::Hosting, 10_000);
        let backup = reg.register("hg-host-2", Country::Us, AsnKind::Hosting, 10_000);
        let residential = ResidentialIndex::build(&reg);
        let platform = Platform::new(
            reg,
            PlatformConfig::default(),
            SmallRng::seed_from_u64(200),
        );
        let mut cfg = presets::hublaagram_config(0.001);
        cfg.lifecycle.arrival_rate = 5.0;
        cfg.lifecycle.initial_long_term = 60;
        // Make paid roles common enough to exercise in a small test.
        cfg.payer_profile.p_no_outbound = 0.1;
        cfg.payer_profile.p_monthly = 0.15;
        let svc = CollusionService::new(cfg, vec![primary, backup], SmallRng::seed_from_u64(201));
        (platform, residential, svc, PaymentLedger::new())
    }

    #[test]
    fn members_receive_and_produce_actions() {
        let (mut platform, residential, mut svc, mut ledger) = world();
        platform.begin_day(Day(0));
        svc.seed_initial_customers(&mut platform, &residential, &mut ledger, Day(0));
        for d in 0..5u32 {
            platform.begin_day(Day(d));
            svc.run_day(&mut platform, &residential, &mut ledger, Day(d));
        }
        // Pick a non-exempt customer and check both directions.
        let member = svc
            .customers()
            .iter()
            .find(|c| !svc.roles[&c.account].no_outbound)
            .unwrap()
            .account;
        let inbound = platform.log.total_inbound(member, ActionType::Like, Day(0), Day(5))
            + platform.log.total_inbound(member, ActionType::Follow, Day(0), Day(5));
        let outbound = platform.log.total_outbound(member, ActionType::Like, Day(0), Day(5))
            + platform.log.total_outbound(member, ActionType::Follow, Day(0), Day(5));
        assert!(inbound > 0, "member received actions");
        assert!(outbound > 0, "member's account was used for outbound");
    }

    #[test]
    fn no_outbound_customers_never_produce_actions() {
        let (mut platform, residential, mut svc, mut ledger) = world();
        platform.begin_day(Day(0));
        svc.seed_initial_customers(&mut platform, &residential, &mut ledger, Day(0));
        for d in 0..10u32 {
            platform.begin_day(Day(d));
            svc.run_day(&mut platform, &residential, &mut ledger, Day(d));
        }
        let exempt: Vec<AccountId> = svc
            .roles
            .iter()
            .filter(|(_, r)| r.no_outbound)
            .map(|(&a, _)| a)
            .collect();
        assert!(!exempt.is_empty(), "some customers paid the exemption");
        for a in exempt {
            for ty in [ActionType::Like, ActionType::Follow, ActionType::Comment] {
                assert_eq!(
                    platform.log.total_outbound(a, ty, Day(0), Day(10)),
                    0,
                    "{a} must stay outbound-silent"
                );
            }
        }
        assert!(
            ledger.gross_kind_in(ServiceId::Hublaagram, PaymentKind::NoOutbound, Day(0), Day(10))
                > 0
        );
    }

    #[test]
    fn monthly_tier_photos_get_paid_rate_likes() {
        let (mut platform, residential, mut svc, mut ledger) = world();
        platform.begin_day(Day(0));
        svc.seed_initial_customers(&mut platform, &residential, &mut ledger, Day(0));
        for d in 0..15u32 {
            platform.begin_day(Day(d));
            svc.run_day(&mut platform, &residential, &mut ledger, Day(d));
        }
        // Find a day-log photo burst exceeding the 160/h free cap.
        let mut paid_rate_seen = false;
        for d in 0..15u32 {
            if let Some(log) = platform.log.day(Day(d)) {
                if log.photo_likes.values().any(|p| p.max_hourly > 160) {
                    paid_rate_seen = true;
                    break;
                }
            }
        }
        assert!(paid_rate_seen, "paid deliveries exceed the free hourly cap");
        assert!(
            ledger.gross_kind_in(
                ServiceId::Hublaagram,
                PaymentKind::MonthlyLikes,
                Day(0),
                Day(15)
            ) > 0
        );
    }

    #[test]
    fn free_deliveries_respect_hourly_cap_and_fund_ads() {
        let (mut platform, residential, mut svc, mut ledger) = world();
        // Disable paid products entirely: all likes are free-tier.
        svc.config.payer_profile = PayerProfile {
            p_no_outbound: 0.0,
            p_monthly: 0.0,
            monthly_tier_weights: [0.0; 4],
            p_one_time: 0.0,
        };
        platform.begin_day(Day(0));
        svc.seed_initial_customers(&mut platform, &residential, &mut ledger, Day(0));
        for d in 0..5u32 {
            platform.begin_day(Day(d));
            svc.run_day(&mut platform, &residential, &mut ledger, Day(d));
        }
        for d in 0..5u32 {
            if let Some(log) = platform.log.day(Day(d)) {
                for p in log.photo_likes.values() {
                    assert!(p.max_hourly <= 160, "free delivery rate {}", p.max_hourly);
                }
            }
        }
        assert!(svc.ads_impressions() > 0);
        assert!(
            ledger.gross_kind_in(ServiceId::Hublaagram, PaymentKind::Ads, Day(0), Day(5)) > 0
        );
    }

    /// Blocks inbound likes above 40 per recipient-day.
    #[derive(Debug)]
    struct BlockInboundLikes;
    impl EnforcementPolicy for BlockInboundLikes {
        fn evaluate(&self, ctx: &EnforcementContext) -> EnforcementDecision {
            if ctx.action == ActionType::Like && ctx.direction == Direction::Inbound {
                let (requested, prior) = (ctx.requested, ctx.prior_today);
                EnforcementDecision::threshold(requested, prior, 40, Countermeasure::Block)
            } else {
                EnforcementDecision::allow_all(ctx.requested)
            }
        }
    }

    #[test]
    fn like_blocking_is_answered_after_the_lag() {
        let (mut platform, residential, mut svc, mut ledger) = world();
        platform.begin_day(Day(0));
        svc.seed_initial_customers(&mut platform, &residential, &mut ledger, Day(0));
        platform.set_policy(Box::new(BlockInboundLikes));
        let mut reacted_on = None;
        for d in 0..40u32 {
            platform.begin_day(Day(d));
            svc.run_day(&mut platform, &residential, &mut ledger, Day(d));
            if reacted_on.is_none() && svc.likes_throttled() {
                reacted_on = Some(d);
            }
        }
        let reacted = reacted_on.expect("Hublaagram eventually reacts");
        assert!(
            (20..=26).contains(&reacted),
            "reaction after the ~3-week implementation lag, got day {reacted}"
        );
    }

    #[test]
    fn one_time_burst_lands_on_the_latest_photo_under_inbound_enforcement() {
        let (mut platform, residential, mut svc, mut ledger) = world();
        // Every new customer buys the cheapest one-time like package.
        svc.config.payer_profile = PayerProfile {
            p_no_outbound: 0.0,
            p_monthly: 0.0,
            monthly_tier_weights: [0.0; 4],
            p_one_time: 1.0,
        };
        let pkg = svc.config.catalog.one_time[0];
        platform.set_policy(Box::new(BlockInboundLikes));
        platform.begin_day(Day(0));
        svc.seed_initial_customers(&mut platform, &residential, &mut ledger, Day(0));
        let buyers: Vec<AccountId> = svc.customers().iter().map(|c| c.account).collect();
        assert!(!buyers.is_empty());
        let log = platform.log.day(Day(0)).expect("day 0 was written");
        let like = ActionType::Like.index();
        for &buyer in &buyers {
            let photo = platform
                .accounts
                .latest_media_of(buyer)
                .expect("buyers have photos");
            assert_eq!(platform.accounts.media(photo).likes, 40, "{buyer}");
            assert_eq!(log.photo_likes[&photo].total, 40, "{buyer}");
            let counts = log
                .inbound_from(buyer, svc.asn_for(buyer))
                .expect("burst is logged");
            assert_eq!(counts.delivered[like], 40, "{buyer}");
            assert_eq!(counts.blocked[like], pkg.likes - 40, "{buyer}");
        }
        let one_time = PaymentKind::OneTimeLikes;
        assert_eq!(
            ledger.gross_kind_in(ServiceId::Hublaagram, one_time, Day(0), Day(1)),
            buyers.len() as u64 * pkg.cents
        );
    }

    #[test]
    fn package_follows_feed_only_service_stats_and_cost_their_full_size() {
        /// Blocks every inbound follow.
        #[derive(Debug)]
        struct BlockInboundFollows;
        impl EnforcementPolicy for BlockInboundFollows {
            fn evaluate(&self, ctx: &EnforcementContext) -> EnforcementDecision {
                if ctx.action == ActionType::Follow && ctx.direction == Direction::Inbound {
                    let (requested, prior) = (ctx.requested, ctx.prior_today);
                    EnforcementDecision::threshold(requested, prior, 0, Countermeasure::Block)
                } else {
                    EnforcementDecision::allow_all(ctx.requested)
                }
            }
        }
        let (mut platform, residential, hublaagram, mut ledger) = world();
        // Followersgratis with packages as the only deliveries: one follow
        // package and one like-only package, told apart by price.
        let mut cfg = presets::followersgratis_config(0.001);
        cfg.lifecycle.initial_long_term = 20;
        cfg.free_follow_requests_per_day = 0.0;
        cfg.package_purchase_prob = 1.0;
        cfg.adapt_follows.detection_lag_days = 0;
        let catalog = crate::catalog::followersgratis_catalog();
        cfg.followersgratis_packages = vec![catalog[0].clone(), catalog[2].clone()];
        let packages = cfg.followersgratis_packages.clone();
        let rotation = hublaagram.asn_rotation.clone();
        let mut svc = CollusionService::new(cfg, rotation, SmallRng::seed_from_u64(202));
        platform.set_policy(Box::new(BlockInboundFollows));
        platform.begin_day(Day(0));
        svc.seed_initial_customers(&mut platform, &residential, &mut ledger, Day(0));
        let mut bought = 0;
        for d in 0..5u32 {
            platform.begin_day(Day(d));
            svc.run_day(&mut platform, &residential, &mut ledger, Day(d));
            let (mut follows, mut likes) = (0, 0);
            for p in ledger.payments() {
                if p.day == Day(d) && p.kind == PaymentKind::Package {
                    let pkg = packages.iter().find(|k| k.cents == p.cents).expect("a package");
                    follows += u64::from(pkg.follows);
                    likes += u64::from(pkg.likes);
                    bought += 1;
                }
            }
            let outbound = |ty| -> u64 {
                let day = (Day(d), Day(d + 1));
                svc.customers()
                    .iter()
                    .map(|c| platform.log.total_outbound(c.account, ty, day.0, day.1))
                    .sum()
            };
            assert_eq!(outbound(ActionType::Follow), follows, "day {d}");
            assert_eq!(outbound(ActionType::Like), likes, "day {d}");
        }
        assert!(bought > 0, "members bought packages");
        assert!(svc.capability[1], "blocked package follows unlocked follow detection");
        assert!(
            svc.per_recipient_follow.is_empty(),
            "package follows never reach a per-recipient controller"
        );
    }

    #[test]
    fn honeypot_accounts_are_used_for_outbound_of_requested_type() {
        let (mut platform, residential, mut svc, mut ledger) = world();
        platform.begin_day(Day(0));
        svc.seed_initial_customers(&mut platform, &residential, &mut ledger, Day(0));
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
        // The honeypot needs a photo for like deliveries.
        let ip = platform.asns.ip_in(AsnId(0), 1);
        platform.post_media(hp, AsnId(0), ip);
        svc.enroll_honeypot(hp, ActionType::Like, None, Day(0), &mut ledger);
        for d in 0..6u32 {
            platform.begin_day(Day(d));
            svc.run_day(&mut platform, &residential, &mut ledger, Day(d));
        }
        let inbound = platform.log.total_inbound(hp, ActionType::Like, Day(0), Day(6));
        assert!(inbound > 0, "honeypot received free likes");
        let outbound_events = platform
            .log
            .events_in(Day(0), Day(6), |e| e.actor == hp)
            .count();
        assert!(outbound_events > 0, "honeypot account used in the network");
    }

    #[test]
    fn free_requests_are_bounded_by_the_cooldown() {
        let (mut platform, residential, mut svc, mut ledger) = world();
        // An absurdly eager honeypot cannot exceed the cooldown-implied
        // daily request ceiling (48 for the 30-minute timeout).
        svc.config.honeypot_free_requests_per_day = 500.0;
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
        let ip = platform.asns.ip_in(AsnId(0), 1);
        platform.post_media(hp, AsnId(0), ip);
        svc.enroll_honeypot(hp, ActionType::Like, None, Day(0), &mut ledger);
        svc.run_day(&mut platform, &residential, &mut ledger, Day(0));
        let inbound = platform.log.total_inbound(hp, ActionType::Like, Day(0), Day(1));
        let ceiling = u64::from(48 * svc.config.catalog.free_likes_per_request);
        assert!(inbound <= ceiling, "inbound {inbound} > ceiling {ceiling}");
        assert!(inbound >= ceiling / 2, "the eager honeypot should hit the cap");
    }

    #[test]
    fn caps_are_scoped_to_blocked_recipients() {
        // Only recipients whose deliveries visibly fail get capped; the
        // rest of the membership keeps full service (this is why the narrow
        // 10%-bin experiment still provokes adaptation for exactly that 10%).
        #[derive(Debug)]
        struct BlockOddInboundLikes;
        impl EnforcementPolicy for BlockOddInboundLikes {
            fn evaluate(&self, ctx: &EnforcementContext) -> EnforcementDecision {
                if ctx.action == ActionType::Like
                    && ctx.direction == Direction::Inbound
                    && ctx.actor.0 % 2 == 1
                {
                    EnforcementDecision::threshold(
                        ctx.requested,
                        ctx.prior_today,
                        30,
                        Countermeasure::Block,
                    )
                } else {
                    EnforcementDecision::allow_all(ctx.requested)
                }
            }
        }
        let (mut platform, residential, mut svc, mut ledger) = world();
        svc.config.adapt_likes.detection_lag_days = 0;
        platform.begin_day(Day(0));
        svc.seed_initial_customers(&mut platform, &residential, &mut ledger, Day(0));
        platform.set_policy(Box::new(BlockOddInboundLikes));
        for d in 0..12u32 {
            platform.begin_day(Day(d));
            svc.run_day(&mut platform, &residential, &mut ledger, Day(d));
        }
        assert!(svc.like_detection_active(), "failures unlocked detection");
        let mut capped_odd = 0;
        let mut capped_even = 0;
        for c in svc.customers().iter() {
            if svc.recipient_like_cap(c.account).is_some() {
                if c.account.0 % 2 == 1 {
                    capped_odd += 1;
                } else {
                    capped_even += 1;
                }
            }
        }
        assert!(capped_odd > 5, "blocked recipients adapted: {capped_odd}");
        assert_eq!(capped_even, 0, "untouched recipients keep full volume");
    }

    #[test]
    fn exhausted_rotation_under_blocking_goes_out_of_stock() {
        #[derive(Debug)]
        struct BlockAllInbound;
        impl EnforcementPolicy for BlockAllInbound {
            fn evaluate(&self, ctx: &EnforcementContext) -> EnforcementDecision {
                if ctx.direction == Direction::Inbound {
                    EnforcementDecision::threshold(
                        ctx.requested,
                        ctx.prior_today,
                        5,
                        Countermeasure::Block,
                    )
                } else {
                    EnforcementDecision::allow_all(ctx.requested)
                }
            }
        }
        let (mut platform, residential, mut svc, mut ledger) = world();
        // Aggressive tuning so the epilogue plays out in test time.
        svc.config.adapt_likes.detection_lag_days = 0;
        svc.config.adapt_likes.migrate_after_days = 5;
        svc.like_controller = VolumeController::new(svc.config.adapt_likes);
        platform.begin_day(Day(0));
        svc.seed_initial_customers(&mut platform, &residential, &mut ledger, Day(0));
        platform.set_policy(Box::new(BlockAllInbound));
        for d in 0..80u32 {
            platform.begin_day(Day(d));
            svc.run_day(&mut platform, &residential, &mut ledger, Day(d));
            if svc.is_out_of_stock() {
                break;
            }
        }
        assert!(svc.is_out_of_stock(), "service gave up selling");
        assert!(svc.migrations() >= 1, "it migrated before giving up");
        let when = svc.out_of_stock_on().unwrap();
        // No payments accepted after that day (ads excluded).
        let paid_after: u64 = ledger
            .payments()
            .iter()
            .filter(|p| p.day > when && p.kind != PaymentKind::Ads)
            .map(|p| p.cents)
            .sum();
        assert_eq!(paid_after, 0);
    }
}
