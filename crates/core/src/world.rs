//! World construction: the synthetic internet and the service network map.

use footsteps_sim::prelude::*;

/// The network layout of a study world (Table 7's geography plus the
/// evasion infrastructure from the §6.4 epilogue).
#[derive(Debug, Clone)]
pub struct AsnLayout {
    /// Residential network the honeypot operators work from.
    pub honeypot_home: AsnId,
    /// The Insta* franchises' hosting ASN (US, per Table 7). Benign VPN and
    /// cloud traffic is blended into it, making it a *mixed* ASN for
    /// threshold purposes.
    pub insta_primary: AsnId,
    /// The "extensive proxy network" Insta* migrates to in the epilogue.
    pub insta_proxies: Vec<AsnId>,
    /// Boostgram's hosting ASN (US, pure abuse).
    pub boost_primary: AsnId,
    /// Boostgram's fallback hosting.
    pub boost_backup: AsnId,
    /// Hublaagram's two simultaneous delivery networks (GBR and USA).
    pub hubla_asns: Vec<AsnId>,
    /// Followersgratis's small Indonesian network (tiny IP pool).
    pub fg_asn: AsnId,
}

impl AsnLayout {
    /// Register the whole layout (plus one residential network per country)
    /// into a fresh registry.
    pub fn build(registry: &mut AsnRegistry) -> Self {
        for c in Country::ALL {
            registry.register(
                &format!("res-{}", c.code().to_lowercase()),
                c,
                AsnKind::Residential,
                200_000,
            );
        }
        let honeypot_home = registry
            .by_name("res-us")
            .expect("US residential registered");
        let insta_primary = registry.register("insta-host-us", Country::Us, AsnKind::Hosting, 60_000);
        let insta_proxies = (0..5)
            .map(|i| {
                registry.register(
                    &format!("proxy-net-{i}"),
                    Country::Us,
                    AsnKind::Proxy,
                    30_000,
                )
            })
            .collect();
        let boost_primary = registry.register("boost-host-us", Country::Us, AsnKind::Hosting, 40_000);
        let boost_backup = registry.register("boost-host-us-2", Country::Us, AsnKind::Hosting, 40_000);
        let hubla_asns = vec![
            registry.register("hubla-host-gb", Country::Gb, AsnKind::Hosting, 40_000),
            registry.register("hubla-host-us", Country::Us, AsnKind::Hosting, 40_000),
        ];
        let fg_asn = registry.register("fg-host-id", Country::Id, AsnKind::Hosting, 256);
        Self {
            honeypot_home,
            insta_primary,
            insta_proxies,
            boost_primary,
            boost_backup,
            hubla_asns,
            fg_asn,
        }
    }

    /// The Insta* rotation: primary first, then the proxy escape route.
    pub fn insta_rotation(&self) -> Vec<AsnId> {
        let mut v = vec![self.insta_primary];
        v.extend(self.insta_proxies.iter().copied());
        v
    }

    /// The Boostgram rotation.
    pub fn boost_rotation(&self) -> Vec<AsnId> {
        vec![self.boost_primary, self.boost_backup]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_registers_all_networks() {
        let mut reg = AsnRegistry::new();
        let layout = AsnLayout::build(&mut reg);
        // 11 residential + 1 insta + 5 proxies + 2 boost + 2 hubla + 1 fg.
        assert_eq!(reg.len(), 22);
        assert_eq!(reg.get(layout.insta_primary).country, Country::Us);
        assert_eq!(reg.get(layout.hubla_asns[0]).country, Country::Gb);
        assert_eq!(reg.get(layout.hubla_asns[1]).country, Country::Us);
        assert_eq!(reg.get(layout.fg_asn).country, Country::Id);
        assert_eq!(reg.get(layout.fg_asn).block_len, 256, "tiny IP pool");
        assert_eq!(layout.insta_rotation().len(), 6);
        assert_eq!(layout.boost_rotation().len(), 2);
        assert!(layout
            .insta_proxies
            .iter()
            .all(|&a| reg.get(a).kind == AsnKind::Proxy));
    }

    #[test]
    fn honeypot_home_is_residential() {
        let mut reg = AsnRegistry::new();
        let layout = AsnLayout::build(&mut reg);
        assert_eq!(reg.get(layout.honeypot_home).kind, AsnKind::Residential);
        assert_eq!(reg.get(layout.honeypot_home).country, Country::Us);
    }
}
