//! Static service catalogs.
//!
//! Everything the services *advertise* — offered action types (Table 1),
//! trial lengths and subscription prices (Table 2), Hublaagram's price list
//! (Table 3), Followersgratis's packages (Table 4), and operating locations
//! (Table 7) — encoded as data. The corresponding benchmark binaries render
//! these tables directly from this module, and the engines read their
//! behaviour from it, so the advertised and implemented catalogs cannot
//! drift apart.

use footsteps_sim::prelude::{ActionType, Country, ServiceId};

/// Money in US cents; all paper prices are dollars with at most two
/// decimals, so integer cents avoid floating-point money bugs.
pub type Cents = u64;

/// Format cents as dollars for reports ("$3.15", "$99").
pub fn fmt_dollars(cents: Cents) -> String {
    if cents.is_multiple_of(100) {
        format!("${}", cents / 100)
    } else {
        format!("${}.{:02}", cents / 100, cents % 100)
    }
}

/// Which action types a service sells (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Offerings {
    /// Offers like campaigns.
    pub like: bool,
    /// Offers follow campaigns.
    pub follow: bool,
    /// Offers comment campaigns.
    pub comment: bool,
    /// Offers automated posting.
    pub post: bool,
    /// Offers automated unfollows (reciprocity services only: shed the
    /// outbound follows while keeping reciprocated inbound ones).
    pub unfollow: bool,
}

impl Offerings {
    /// Whether `ty` is offered.
    pub fn offers(&self, ty: ActionType) -> bool {
        match ty {
            ActionType::Like => self.like,
            ActionType::Follow => self.follow,
            ActionType::Comment => self.comment,
            ActionType::Post => self.post,
            ActionType::Unfollow => self.unfollow,
        }
    }

    /// All offered action types, in [`ActionType::ALL`] order.
    pub fn offered_types(&self) -> Vec<ActionType> {
        ActionType::ALL
            .into_iter()
            .filter(|&t| self.offers(t))
            .collect()
    }
}

/// Table 1 row for a service.
pub fn offerings(service: ServiceId) -> Offerings {
    match service {
        ServiceId::Instalex => Offerings {
            like: true,
            follow: true,
            comment: false,
            post: true,
            unfollow: true,
        },
        ServiceId::Instazood => Offerings {
            like: true,
            follow: true,
            comment: true,
            post: true,
            unfollow: true,
        },
        ServiceId::Boostgram => Offerings {
            like: true,
            follow: true,
            comment: true,
            post: false,
            unfollow: true,
        },
        ServiceId::Hublaagram => Offerings {
            like: true,
            follow: true,
            comment: true,
            post: false,
            unfollow: false,
        },
        ServiceId::Followersgratis => Offerings {
            like: true,
            follow: true,
            comment: false,
            post: false,
            unfollow: false,
        },
    }
}

/// Trial and subscription terms for a reciprocity-abuse service (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReciprocityPricing {
    /// Advertised free-trial length in days.
    pub advertised_trial_days: u32,
    /// Trial length actually delivered (§4.2 found Instazood advertises 3
    /// days but delivers 7).
    pub delivered_trial_days: u32,
    /// Minimum purchasable service duration in days.
    pub min_paid_days: u32,
    /// Price of the minimum duration, in cents.
    pub min_paid_cents: Cents,
}

/// Table 2 row for a reciprocity service.
///
/// # Panics
/// Panics for collusion services, which price differently (Tables 3/4).
pub fn reciprocity_pricing(service: ServiceId) -> ReciprocityPricing {
    match service {
        ServiceId::Instalex => ReciprocityPricing {
            advertised_trial_days: 7,
            delivered_trial_days: 7,
            min_paid_days: 7,
            min_paid_cents: 315,
        },
        ServiceId::Instazood => ReciprocityPricing {
            advertised_trial_days: 3,
            delivered_trial_days: 7,
            min_paid_days: 1,
            min_paid_cents: 34,
        },
        ServiceId::Boostgram => ReciprocityPricing {
            advertised_trial_days: 3,
            delivered_trial_days: 3,
            min_paid_days: 30,
            min_paid_cents: 9_900,
        },
        other => panic!("{other} is not a reciprocity service"),
    }
}

/// One tier of Hublaagram's monthly "likes per photo" subscription
/// (Table 3, "Month" duration rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonthlyLikeTier {
    /// Lower bound of likes applied to each new photo.
    pub min_likes: u32,
    /// Upper bound of likes applied to each new photo.
    pub max_likes: u32,
    /// Monthly fee in cents.
    pub monthly_cents: Cents,
}

/// One one-time "likes now" package (Table 3, "Immediate" rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OneTimeLikePackage {
    /// Likes applied to a single post as fast as possible.
    pub likes: u32,
    /// One-time fee in cents.
    pub cents: Cents,
}

/// Hublaagram's complete price list and free-tier limits (Table 3 + §3.3.2,
/// §5.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HublaagramCatalog {
    /// One-time fee exempting an account from collusion-network
    /// participation, for the lifetime of the account.
    pub no_outbound_cents: Cents,
    /// One-time like packages.
    pub one_time: Vec<OneTimeLikePackage>,
    /// Monthly likes-per-photo tiers.
    pub monthly: Vec<MonthlyLikeTier>,
    /// Likes granted per free request (≈80).
    pub free_likes_per_request: u32,
    /// Follows granted per free request (≈40).
    pub free_follows_per_request: u32,
    /// Cooldown between free requests, seconds (30 minutes).
    pub free_cooldown_secs: u64,
    /// Maximum like delivery rate for free service, likes/hour. Exceeding
    /// this is how the revenue analysis identifies paid accounts.
    pub free_likes_per_hour_cap: u32,
    /// Pop-under ads shown per free request (1–4, §5.2).
    pub ads_per_free_request: (u32, u32),
    /// Ad revenue per 1,000 impressions, low and high bounds in cents
    /// (PopAds CPM $0.60–$4.00 depending on geography).
    pub cpm_cents: (Cents, Cents),
}

/// Hublaagram's catalog as advertised in fall 2017.
pub fn hublaagram_catalog() -> HublaagramCatalog {
    HublaagramCatalog {
        no_outbound_cents: 1_500,
        one_time: vec![
            OneTimeLikePackage { likes: 2_000, cents: 1_000 },
            OneTimeLikePackage { likes: 5_000, cents: 2_000 },
            OneTimeLikePackage { likes: 10_000, cents: 2_500 },
        ],
        monthly: vec![
            MonthlyLikeTier { min_likes: 250, max_likes: 500, monthly_cents: 2_000 },
            MonthlyLikeTier { min_likes: 500, max_likes: 1_000, monthly_cents: 3_000 },
            MonthlyLikeTier { min_likes: 1_000, max_likes: 2_000, monthly_cents: 4_000 },
            MonthlyLikeTier { min_likes: 2_000, max_likes: 4_000, monthly_cents: 7_000 },
        ],
        free_likes_per_request: 80,
        free_follows_per_request: 40,
        free_cooldown_secs: 1_800,
        free_likes_per_hour_cap: 160,
        ads_per_free_request: (1, 4),
        cpm_cents: (60, 400),
    }
}

/// A Followersgratis package (Table 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FollowersgratisPackage {
    /// Human-readable description matching the site's wording.
    pub description: String,
    /// Follows delivered, if a follow package.
    pub follows: u32,
    /// Likes delivered (paid or bundled free likes).
    pub likes: u32,
    /// Price in cents.
    pub cents: Cents,
    /// Advertised delivery duration.
    pub duration: String,
}

/// Followersgratis's packages as advertised in fall 2017 (Table 4).
pub fn followersgratis_catalog() -> Vec<FollowersgratisPackage> {
    vec![
        FollowersgratisPackage {
            description: "500 Follows (300 free likes)".to_owned(),
            follows: 500,
            likes: 300,
            cents: 315,
            duration: "1 Day".to_owned(),
        },
        FollowersgratisPackage {
            description: "1,000 Follows (500 free likes)".to_owned(),
            follows: 1_000,
            likes: 500,
            cents: 525,
            duration: "1 Day".to_owned(),
        },
        FollowersgratisPackage {
            description: "500 Likes (250 free likes)".to_owned(),
            follows: 0,
            likes: 750,
            cents: 210,
            duration: "Instant".to_owned(),
        },
        FollowersgratisPackage {
            description: "500 Likes (500 free likes)".to_owned(),
            follows: 0,
            likes: 1_000,
            cents: 525,
            duration: "Fast".to_owned(),
        },
    ]
}

/// Operating location of a service (Table 7): the country its website
/// reports, and the countries of the ASNs its platform traffic originates
/// from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceLocation {
    /// Country the service claims to operate from.
    pub operating_country: Country,
    /// Countries of the ASNs its activity originates from.
    pub asn_countries: Vec<Country>,
}

/// Table 7 row for a business group.
pub fn service_location(service: ServiceId) -> ServiceLocation {
    match service {
        ServiceId::Instalex | ServiceId::Instazood => ServiceLocation {
            operating_country: Country::Ru,
            asn_countries: vec![Country::Us],
        },
        ServiceId::Boostgram => ServiceLocation {
            operating_country: Country::Us,
            asn_countries: vec![Country::Us],
        },
        ServiceId::Hublaagram => ServiceLocation {
            operating_country: Country::Id,
            asn_countries: vec![Country::Gb, Country::Us],
        },
        ServiceId::Followersgratis => ServiceLocation {
            operating_country: Country::Id,
            asn_countries: vec![Country::Id],
        },
    }
}

/// Franchise fees the Instalex/Instazood parent advertises (§3.3): monthly
/// franchising packages from $1,990 to $30,990.
pub const FRANCHISE_FEE_RANGE_CENTS: (Cents, Cents) = (199_000, 3_099_000);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_every_service_offers_likes_and_follows() {
        for s in ServiceId::ALL {
            let o = offerings(s);
            assert!(o.like, "{s} must offer likes");
            assert!(o.follow, "{s} must offer follows");
        }
    }

    #[test]
    fn table1_unfollow_is_reciprocity_only() {
        for s in ServiceId::ALL {
            let o = offerings(s);
            assert_eq!(
                o.unfollow,
                s.is_reciprocity(),
                "{s}: all and only reciprocity services offer unfollows"
            );
        }
    }

    #[test]
    fn table1_aggregate_shares() {
        // "All offer like and follow services, 60% offer comment and
        // unfollow services, and 40% offer post services."
        let all: Vec<Offerings> = ServiceId::ALL.iter().map(|&s| offerings(s)).collect();
        assert_eq!(all.iter().filter(|o| o.comment).count(), 3);
        assert_eq!(all.iter().filter(|o| o.unfollow).count(), 3);
        assert_eq!(all.iter().filter(|o| o.post).count(), 2);
    }

    #[test]
    fn table2_prices() {
        let ix = reciprocity_pricing(ServiceId::Instalex);
        assert_eq!(ix.advertised_trial_days, 7);
        assert_eq!(ix.min_paid_cents, 315);
        let iz = reciprocity_pricing(ServiceId::Instazood);
        assert_eq!(iz.advertised_trial_days, 3);
        assert_eq!(iz.delivered_trial_days, 7, "measured, §4.2");
        assert_eq!(iz.min_paid_cents, 34);
        let bg = reciprocity_pricing(ServiceId::Boostgram);
        assert_eq!(bg.min_paid_days, 30);
        assert_eq!(bg.min_paid_cents, 9_900);
        // Boostgram is by far the most expensive per day.
        let per_day = |p: ReciprocityPricing| p.min_paid_cents as f64 / f64::from(p.min_paid_days);
        assert!(per_day(bg) > per_day(ix));
        assert!(per_day(bg) > per_day(iz));
    }

    #[test]
    #[should_panic(expected = "not a reciprocity service")]
    fn table2_rejects_collusion_services() {
        reciprocity_pricing(ServiceId::Hublaagram);
    }

    #[test]
    fn table3_catalog() {
        let c = hublaagram_catalog();
        assert_eq!(c.no_outbound_cents, 1_500);
        assert_eq!(c.one_time.len(), 3);
        assert_eq!(c.one_time[0].likes, 2_000);
        assert_eq!(c.one_time[0].cents, 1_000);
        assert_eq!(c.monthly.len(), 4);
        assert_eq!(c.monthly[3].monthly_cents, 7_000);
        // Tiers are contiguous and sorted.
        for w in c.monthly.windows(2) {
            assert_eq!(w[0].max_likes, w[1].min_likes);
            assert!(w[0].monthly_cents < w[1].monthly_cents);
        }
        assert!(c.free_likes_per_hour_cap > c.free_likes_per_request);
    }

    #[test]
    fn table4_catalog() {
        let pkgs = followersgratis_catalog();
        assert_eq!(pkgs.len(), 4);
        assert_eq!(pkgs[0].follows, 500);
        assert_eq!(pkgs[0].cents, 315);
        assert_eq!(pkgs[3].cents, 525);
    }

    #[test]
    fn table7_locations() {
        assert_eq!(
            service_location(ServiceId::Instalex).operating_country,
            Country::Ru
        );
        assert_eq!(
            service_location(ServiceId::Boostgram).operating_country,
            Country::Us
        );
        let h = service_location(ServiceId::Hublaagram);
        assert_eq!(h.operating_country, Country::Id);
        assert_eq!(h.asn_countries, vec![Country::Gb, Country::Us]);
    }

    #[test]
    fn dollars_formatting() {
        assert_eq!(fmt_dollars(315), "$3.15");
        assert_eq!(fmt_dollars(9_900), "$99");
        assert_eq!(fmt_dollars(34), "$0.34");
        assert_eq!(fmt_dollars(0), "$0");
    }
}
