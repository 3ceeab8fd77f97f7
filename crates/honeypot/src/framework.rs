//! The honeypot account framework (§4.1).
//!
//! "We developed a honeypot account framework to programmatically manage a
//! large number of Instagram accounts. Our framework supports
//! campaign-specific accounts, account creation, posting content, deletion,
//! and data collection of all inbound and outbound actions on the account."
//!
//! Honeypots come in three flavours:
//! * **empty** — minimum viable profile, ≥10 themed photos, follows nobody;
//! * **lived-in** — fully populated profile following 10–20 high-profile
//!   (>1M-follower) accounts;
//! * **inactive** — never registered with any service; the background-noise
//!   baseline (§4.1.3).
//!
//! Every honeypot account is graph-tracked and event-tracked on the platform
//! so the full inbound/outbound event stream is retained.

use footsteps_sim::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;

/// Thematic photo categories used to populate honeypot accounts ("dogs,
/// cats, lizards, and food", §4.1.1).
pub const PHOTO_THEMES: [&str; 4] = ["dogs", "cats", "lizards", "food"];

/// A honeypot flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HoneypotKind {
    /// Minimum viable profile.
    Empty,
    /// Fully populated profile.
    LivedIn,
    /// Baseline account, never enrolled anywhere.
    Inactive,
}

impl HoneypotKind {
    /// The platform profile kind for this flavour.
    pub fn profile_kind(self) -> ProfileKind {
        match self {
            HoneypotKind::Empty => ProfileKind::HoneypotEmpty,
            HoneypotKind::LivedIn => ProfileKind::HoneypotLivedIn,
            HoneypotKind::Inactive => ProfileKind::HoneypotInactive,
        }
    }
}

/// Ledger entry for one honeypot account.
#[derive(Debug, Clone)]
pub struct HoneypotRecord {
    /// The platform account.
    pub account: AccountId,
    /// Flavour.
    pub kind: HoneypotKind,
    /// Photo theme assigned at creation.
    pub theme: &'static str,
    /// Service the account was registered with, if any.
    pub service: Option<ServiceId>,
    /// Action type requested from the service, if registered.
    pub requested: Option<ActionType>,
    /// Whether the registration paid for service (vs. free trial).
    pub paid: bool,
    /// Day of registration, if registered.
    pub enrolled_on: Option<Day>,
}

/// The framework: a factory and registry for honeypot accounts.
#[derive(Debug)]
pub struct HoneypotFramework {
    records: Vec<HoneypotRecord>,
    celebrities: Vec<AccountId>,
    home_asn: AsnId,
    rng: SmallRng,
}

impl HoneypotFramework {
    /// Create the framework. `home_asn` is the (residential) network the
    /// operators create and manage accounts from; a diverse set of
    /// commercial/residential addresses within it is used per account
    /// (§4.1.2).
    pub fn new(home_asn: AsnId, rng: SmallRng) -> Self {
        Self {
            records: Vec::new(),
            celebrities: Vec::new(),
            home_asn,
            rng,
        }
    }

    /// All honeypot records.
    pub fn records(&self) -> &[HoneypotRecord] {
        &self.records
    }

    /// Records for a given service.
    pub fn records_for(&self, service: ServiceId) -> impl Iterator<Item = &HoneypotRecord> {
        self.records
            .iter()
            .filter(move |r| r.service == Some(service))
    }

    /// The high-profile accounts lived-in honeypots follow.
    pub fn celebrities(&self) -> &[AccountId] {
        &self.celebrities
    }

    /// Create `n` high-profile (>1M followers) accounts for lived-in
    /// honeypots to follow. Call once before creating lived-in accounts.
    pub fn setup_celebrities(&mut self, platform: &mut Platform, n: usize) {
        for _ in 0..n {
            let followers = 1_000_000 + (self.rng.gen::<f64>() * 9e6) as u32;
            let id = platform.accounts.create(
                platform.clock.now(),
                ProfileKind::Organic,
                Country::Us,
                self.home_asn,
                (self.rng.gen::<f64>() * 900.0) as u32,
                followers,
                // Celebrities do not reciprocate unsolicited follows.
                ReciprocityProfile::SILENT,
            );
            self.celebrities.push(id);
        }
    }

    /// Create one honeypot account: platform account + tracking + ≥10 themed
    /// photos; lived-in accounts additionally follow 10–20 celebrities.
    pub fn create_account(&mut self, platform: &mut Platform, kind: HoneypotKind) -> AccountId {
        let theme = PHOTO_THEMES[self.rng.gen_range(0..PHOTO_THEMES.len())];
        let account = platform.accounts.create(
            platform.clock.now(),
            kind.profile_kind(),
            Country::Us,
            self.home_asn,
            0,
            0,
            // Honeypots neither generate nor receive organic actions of
            // their own volition.
            ReciprocityProfile::SILENT,
        );
        platform.graph.track(account);
        platform.log.track_events_for(account);
        // ≥10 photos at creation (§4.1.3), uploaded from the home network.
        let ip = platform.asns.ip_in(self.home_asn, account.0);
        let photos = 10 + self.rng.gen_range(0..4);
        for _ in 0..photos {
            platform.post_media(account, self.home_asn, ip);
        }
        if kind == HoneypotKind::LivedIn {
            assert!(
                !self.celebrities.is_empty(),
                "call setup_celebrities before creating lived-in accounts"
            );
            let n = 10 + self.rng.gen_range(0usize..=10).min(self.celebrities.len() - 1);
            for k in 0..n.min(self.celebrities.len()) {
                let celeb = self.celebrities[k];
                platform.submit_event(EventRequest {
                    actor: account,
                    action: ActionType::Follow,
                    target: celeb,
                    asn: self.home_asn,
                    ip,
                    fingerprint: ClientFingerprint::OfficialApp,
                    service: None,
                });
            }
        }
        self.records.push(HoneypotRecord {
            account,
            kind,
            theme,
            service: None,
            requested: None,
            paid: false,
            enrolled_on: None,
        });
        account
    }

    /// Create `n` inactive baseline accounts (§4.1.3).
    pub fn create_baseline(&mut self, platform: &mut Platform, n: usize) -> Vec<AccountId> {
        (0..n)
            .map(|_| self.create_account(platform, HoneypotKind::Inactive))
            .collect()
    }

    /// Mark a honeypot as registered with a service. The actual service-side
    /// enrollment is performed by the campaign layer; this records the
    /// framework's view.
    pub fn note_registration(
        &mut self,
        account: AccountId,
        service: ServiceId,
        requested: ActionType,
        paid: bool,
        day: Day,
    ) {
        let rec = self
            .records
            .iter_mut()
            .find(|r| r.account == account)
            .expect("unknown honeypot account");
        assert!(rec.service.is_none(), "honeypot already registered");
        assert!(
            rec.kind != HoneypotKind::Inactive,
            "baseline accounts must never be registered"
        );
        rec.service = Some(service);
        rec.requested = Some(requested);
        rec.paid = paid;
        rec.enrolled_on = Some(day);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn platform() -> Platform {
        let mut reg = AsnRegistry::new();
        reg.register("res-us", Country::Us, AsnKind::Residential, 100_000);
        Platform::new(reg, PlatformConfig::default(), SmallRng::seed_from_u64(1))
    }

    fn framework() -> HoneypotFramework {
        HoneypotFramework::new(AsnId(0), SmallRng::seed_from_u64(2))
    }

    #[test]
    fn empty_accounts_have_photos_and_no_follows() {
        let mut p = platform();
        let mut f = framework();
        p.begin_day(Day(0));
        let a = f.create_account(&mut p, HoneypotKind::Empty);
        let acct = p.accounts.get(a);
        assert!(acct.media.len() >= 10, "≥10 photos");
        assert_eq!(acct.following, 0);
        assert_eq!(acct.followers, 0);
        assert!(p.graph.is_tracked(a));
        assert!(p.log.is_event_tracked(a));
        assert_eq!(acct.kind, ProfileKind::HoneypotEmpty);
    }

    #[test]
    fn lived_in_accounts_follow_celebrities() {
        let mut p = platform();
        let mut f = framework();
        p.begin_day(Day(0));
        f.setup_celebrities(&mut p, 20);
        let a = f.create_account(&mut p, HoneypotKind::LivedIn);
        let acct = p.accounts.get(a);
        assert!(
            (10..=20).contains(&acct.following),
            "follows 10-20 high-profile accounts, got {}",
            acct.following
        );
        for &c in f.celebrities() {
            assert!(p.accounts.get(c).followers >= 1, "celebs gained follows");
            assert!(p.accounts.get(c).followers < 20_000_000);
        }
        // Celebrities are high-profile.
        assert!(p.accounts.get(f.celebrities()[0]).followers >= 1_000_000);
    }

    #[test]
    #[should_panic(expected = "setup_celebrities")]
    fn lived_in_without_celebrities_panics() {
        let mut p = platform();
        let mut f = framework();
        f.create_account(&mut p, HoneypotKind::LivedIn);
    }

    #[test]
    fn registration_bookkeeping() {
        let mut p = platform();
        let mut f = framework();
        p.begin_day(Day(0));
        let a = f.create_account(&mut p, HoneypotKind::Empty);
        f.note_registration(a, ServiceId::Boostgram, ActionType::Like, false, Day(2));
        let rec = &f.records()[0];
        assert_eq!(rec.service, Some(ServiceId::Boostgram));
        assert_eq!(rec.requested, Some(ActionType::Like));
        assert_eq!(rec.enrolled_on, Some(Day(2)));
        assert_eq!(f.records_for(ServiceId::Boostgram).count(), 1);
        assert_eq!(f.records_for(ServiceId::Instalex).count(), 0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn double_registration_rejected() {
        let mut p = platform();
        let mut f = framework();
        let a = f.create_account(&mut p, HoneypotKind::Empty);
        f.note_registration(a, ServiceId::Boostgram, ActionType::Like, false, Day(0));
        f.note_registration(a, ServiceId::Instalex, ActionType::Like, false, Day(1));
    }

    #[test]
    #[should_panic(expected = "baseline accounts")]
    fn baseline_accounts_cannot_be_registered() {
        let mut p = platform();
        let mut f = framework();
        let a = f.create_account(&mut p, HoneypotKind::Inactive);
        f.note_registration(a, ServiceId::Boostgram, ActionType::Like, false, Day(0));
    }
}
