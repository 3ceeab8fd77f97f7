//! Synthetic internet model: autonomous systems, IP addresses, geolocation.
//!
//! Attribution in the paper rides on network metadata: services are located
//! by the ASNs their traffic originates from (Table 7), customers by login
//! IP geolocation (Figure 2), thresholds are computed *per ASN* (§6.2), and
//! the epilogue's evasion happens by moving traffic to new ASNs and proxy
//! networks (§6.4). We model just enough of the internet for those
//! mechanisms: a registry of ASNs, each owning a contiguous synthetic IPv4
//! block located in one country, plus a geolocation service mapping any IP
//! back to its ASN and country.

use crate::country::Country;
use crate::ids::AsnId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A synthetic IPv4 address. We use plain `u32` arithmetic internally and
/// render dotted-quad for display; no parsing is ever needed.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct IpAddr4(pub u32);

impl std::fmt::Display for IpAddr4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let v = self.0;
        write!(
            f,
            "{}.{}.{}.{}",
            (v >> 24) & 0xff,
            (v >> 16) & 0xff,
            (v >> 8) & 0xff,
            v & 0xff
        )
    }
}

/// The kind of network an AS represents; relevant both to threshold design
/// (mixed vs pure-abuse ASNs, §6.2) and to realism of the synthetic traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsnKind {
    /// Residential/mobile eyeball network: organic logins originate here.
    Residential,
    /// Hosting/datacenter network: AAS automation typically originates here.
    Hosting,
    /// Commercial proxy network: many small scattered blocks, used by
    /// services evading ASN-level countermeasures (§6.4 epilogue).
    Proxy,
}

/// Registry entry for one autonomous system.
#[derive(Debug, Clone)]
pub struct AsnInfo {
    /// The AS's id in the registry.
    pub id: AsnId,
    /// Synthetic AS number (display only; distinct from the dense `id`).
    pub number: u32,
    /// Short operator name, e.g. `"ru-host-1"`.
    pub name: String,
    /// Country the AS (and its whole address block) is located in.
    pub country: Country,
    /// What kind of network this is.
    pub kind: AsnKind,
    /// First address of the block owned by this AS (inclusive).
    pub block_start: u32,
    /// Size of the owned block in addresses.
    pub block_len: u32,
}

impl AsnInfo {
    /// Whether `ip` falls inside this AS's block.
    pub fn contains(&self, ip: IpAddr4) -> bool {
        ip.0 >= self.block_start && (ip.0 - self.block_start) < self.block_len
    }
}

/// Registry of all autonomous systems in the simulated internet, with
/// geolocation lookups.
///
/// Blocks are allocated contiguously in registration order, which makes
/// IP→ASN lookup a binary search and keeps the whole model allocation-free
/// on the hot path.
#[derive(Debug, Clone, Default)]
pub struct AsnRegistry {
    asns: Vec<AsnInfo>,
    next_addr: u32,
    by_name: HashMap<String, AsnId>,
}

impl AsnRegistry {
    /// An empty registry. Address space starts at 1.0.0.0 to avoid the
    /// all-zero address.
    pub fn new() -> Self {
        Self {
            asns: Vec::new(),
            next_addr: 0x0100_0000,
            by_name: HashMap::new(),
        }
    }

    /// Register a new AS owning a fresh block of `block_len` addresses.
    ///
    /// # Panics
    /// Panics if the name is already taken, the block is empty, or the
    /// synthetic address space is exhausted.
    pub fn register(
        &mut self,
        name: &str,
        country: Country,
        kind: AsnKind,
        block_len: u32,
    ) -> AsnId {
        assert!(block_len > 0, "ASN block must be non-empty");
        assert!(
            !self.by_name.contains_key(name),
            "duplicate ASN name {name:?}"
        );
        let start = self.next_addr;
        self.next_addr = start
            .checked_add(block_len)
            .expect("synthetic IPv4 space exhausted");
        let id = AsnId(self.asns.len() as u32);
        self.asns.push(AsnInfo {
            id,
            number: 64_512 + id.0, // private-use ASN range, display only
            name: name.to_owned(),
            country,
            kind,
            block_start: start,
            block_len,
        });
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Number of registered ASNs.
    pub fn len(&self) -> usize {
        self.asns.len()
    }

    /// True if no ASNs have been registered.
    pub fn is_empty(&self) -> bool {
        self.asns.is_empty()
    }

    /// Look up an AS by id.
    pub fn get(&self, id: AsnId) -> &AsnInfo {
        &self.asns[id.index()]
    }

    /// Look up an AS by its registered name.
    pub fn by_name(&self, name: &str) -> Option<AsnId> {
        self.by_name.get(name).copied()
    }

    /// Iterate over all registered ASNs.
    pub fn iter(&self) -> impl Iterator<Item = &AsnInfo> {
        self.asns.iter()
    }

    /// Pick the `k`-th address of an AS's block (wrapping within the block).
    ///
    /// Callers that want "a diverse set of IPs within the ASN" pass varying
    /// `k`; callers modelling a small static IP pool pass small `k`.
    pub fn ip_in(&self, id: AsnId, k: u32) -> IpAddr4 {
        let a = self.get(id);
        IpAddr4(a.block_start + (k % a.block_len))
    }

    /// Geolocate an address to its AS, if it belongs to any registered block.
    pub fn locate_asn(&self, ip: IpAddr4) -> Option<AsnId> {
        // Blocks are contiguous and sorted by construction.
        let idx = self
            .asns
            .partition_point(|a| a.block_start + a.block_len <= ip.0);
        let cand = self.asns.get(idx)?;
        cand.contains(ip).then_some(cand.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> AsnRegistry {
        let mut r = AsnRegistry::new();
        r.register("us-res-1", Country::Us, AsnKind::Residential, 1_000);
        r.register("ru-host-1", Country::Ru, AsnKind::Hosting, 256);
        r.register("id-res-1", Country::Id, AsnKind::Residential, 500);
        r
    }

    #[test]
    fn blocks_are_disjoint_and_contiguous() {
        let r = registry();
        let a = r.get(AsnId(0));
        let b = r.get(AsnId(1));
        let c = r.get(AsnId(2));
        assert_eq!(a.block_start + a.block_len, b.block_start);
        assert_eq!(b.block_start + b.block_len, c.block_start);
    }

    #[test]
    fn ip_lookup_roundtrips() {
        let r = registry();
        for id in [AsnId(0), AsnId(1), AsnId(2)] {
            for k in [0u32, 1, 255] {
                let ip = r.ip_in(id, k);
                assert_eq!(r.locate_asn(ip), Some(id), "ip {ip} of {id}");
            }
        }
    }

    #[test]
    fn lookup_outside_any_block_is_none() {
        let r = registry();
        assert_eq!(r.locate_asn(IpAddr4(0)), None);
        let last = r.get(AsnId(2));
        let past_end = IpAddr4(last.block_start + last.block_len);
        assert_eq!(r.locate_asn(past_end), None);
    }

    #[test]
    fn ip_in_wraps_within_block() {
        let r = registry();
        let a = r.get(AsnId(1));
        assert_eq!(r.ip_in(AsnId(1), a.block_len), r.ip_in(AsnId(1), 0));
    }

    #[test]
    fn by_name_lookup() {
        let r = registry();
        assert_eq!(r.by_name("ru-host-1"), Some(AsnId(1)));
        assert_eq!(r.by_name("nope"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate ASN name")]
    fn duplicate_names_rejected() {
        let mut r = AsnRegistry::new();
        r.register("x", Country::Us, AsnKind::Hosting, 10);
        r.register("x", Country::Ru, AsnKind::Hosting, 10);
    }

    #[test]
    fn dotted_quad_display() {
        assert_eq!(IpAddr4(0x0100_0001).to_string(), "1.0.0.1");
        assert_eq!(IpAddr4(0xC0A8_0101).to_string(), "192.168.1.1");
    }
}
