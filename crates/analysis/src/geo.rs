//! Geolocation analyses (§5.1, Table 7, Figure 2).
//!
//! Customers are located by the platform's IP-geolocation answer for their
//! most frequent login country; services by the countries of the ASNs their
//! traffic originates from (plus their self-reported operating country from
//! the catalog).

use footsteps_detect::{Classification, ServiceSignature};
use footsteps_sim::prelude::*;
use serde::{Deserialize, Serialize};

/// Figure 2: a group's customer distribution over countries, with countries
/// under the cutoff folded into `OTHER`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CountryDistribution {
    /// Business group.
    pub group: ServiceGroup,
    /// `(country, share)` for countries at or above the cutoff, descending
    /// by share; the `Other` entry aggregates the rest.
    pub shares: Vec<(Country, f64)>,
    /// Customers with no login record (excluded from shares).
    pub unlocated: u64,
}

impl CountryDistribution {
    /// Share for one country (0 if folded into OTHER).
    pub fn share_of(&self, country: Country) -> f64 {
        self.shares
            .iter()
            .find(|(c, _)| *c == country)
            .map(|(_, s)| *s)
            .unwrap_or(0.0)
    }
}

/// Compute Figure 2's distribution for one group. `cutoff` is the minimum
/// share displayed separately (the paper uses 5%).
pub fn customer_countries(
    platform: &Platform,
    classification: &Classification,
    group: ServiceGroup,
    cutoff: f64,
) -> CountryDistribution {
    let mut counts = vec![0u64; Country::ALL.len()];
    let mut located = 0u64;
    let mut unlocated = 0u64;
    for account in classification.customers_of_group(group) {
        match platform.login_country(account) {
            Some(c) => {
                counts[c.index()] += 1;
                located += 1;
            }
            None => unlocated += 1,
        }
    }
    let mut shares = Vec::new();
    let mut other = 0.0;
    if located > 0 {
        for c in Country::ALL {
            let share = counts[c.index()] as f64 / located as f64;
            if c == Country::Other || share < cutoff {
                other += share;
            } else {
                shares.push((c, share));
            }
        }
    }
    shares.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN"));
    shares.push((Country::Other, other));
    CountryDistribution { group, shares, unlocated }
}

/// A Table 7 row: where a service claims to operate vs where its traffic
/// actually comes from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceLocationRow {
    /// Business group.
    pub group: ServiceGroup,
    /// Self-reported operating country (from the service's website).
    pub operating_country: Country,
    /// Countries of the ASNs the signature traffic originates from.
    pub asn_countries: Vec<Country>,
}

/// Compute Table 7 for a group from its signatures and the ASN registry.
pub fn service_location(
    platform: &Platform,
    signatures: &[ServiceSignature],
    group: ServiceGroup,
) -> ServiceLocationRow {
    let operating_country = footsteps_aas::catalog::service_location(group.members()[0])
        .operating_country;
    let mut asn_countries: Vec<Country> = signatures
        .iter()
        .filter(|s| group.members().contains(&s.service))
        .flat_map(|s| s.asns.iter())
        .map(|&a| platform.asns.get(a).country)
        .collect();
    asn_countries.sort_by_key(|c| c.index());
    asn_countries.dedup();
    ServiceLocationRow { group, operating_country, asn_countries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use footsteps_sim::account::{ProfileKind, ReciprocityProfile};
    use footsteps_sim::net::{AsnKind, AsnRegistry};
    use footsteps_sim::platform::PlatformConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn platform() -> Platform {
        let mut reg = AsnRegistry::new();
        reg.register("res-us", Country::Us, AsnKind::Residential, 1_000);
        reg.register("res-id", Country::Id, AsnKind::Residential, 1_000);
        reg.register("res-br", Country::Br, AsnKind::Residential, 1_000);
        Platform::new(reg, PlatformConfig::default(), SmallRng::seed_from_u64(1))
    }

    fn user(p: &mut Platform, country: Country, asn: u32) -> AccountId {
        let id = p.accounts.create(
            SimTime::EPOCH,
            ProfileKind::Organic,
            country,
            AsnId(asn),
            10,
            10,
            ReciprocityProfile::SILENT,
        );
        p.record_login(id);
        id
    }

    #[test]
    fn figure2_folds_small_countries_into_other() {
        let mut p = platform();
        let mut c = Classification::default();
        // 10 ID users, 9 US users, 1 BR user → with a 15% cutoff BR folds.
        for _ in 0..10 {
            let a = user(&mut p, Country::Id, 1);
            c.customers.entry(ServiceId::Hublaagram).or_default().insert(a);
        }
        for _ in 0..9 {
            let a = user(&mut p, Country::Us, 0);
            c.customers.entry(ServiceId::Hublaagram).or_default().insert(a);
        }
        let b = user(&mut p, Country::Br, 2);
        c.customers.entry(ServiceId::Hublaagram).or_default().insert(b);
        let dist = customer_countries(&p, &c, ServiceGroup::Hublaagram, 0.15);
        assert!((dist.share_of(Country::Id) - 0.5).abs() < 1e-9);
        assert!((dist.share_of(Country::Us) - 0.45).abs() < 1e-9);
        assert_eq!(dist.share_of(Country::Br), 0.0, "folded into OTHER");
        let other = dist.shares.iter().find(|(c, _)| *c == Country::Other).unwrap().1;
        assert!((other - 0.05).abs() < 1e-9);
        // Shares sum to one.
        let total: f64 = dist.shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(dist.unlocated, 0);
    }

    #[test]
    fn unlocated_customers_are_counted_separately() {
        let mut p = platform();
        let mut c = Classification::default();
        let a = p.accounts.create(
            SimTime::EPOCH,
            ProfileKind::Organic,
            Country::Us,
            AsnId(0),
            0,
            0,
            ReciprocityProfile::SILENT,
        );
        // No logins recorded.
        c.customers.entry(ServiceId::Boostgram).or_default().insert(a);
        let dist = customer_countries(&p, &c, ServiceGroup::Boostgram, 0.05);
        assert_eq!(dist.unlocated, 1);
    }
}
