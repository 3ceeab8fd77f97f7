//! Fixture: panic reachability from scoped parallel workers — the direct
//! site, the one-call-deep site, the indexing exemption, the
//! `PANIC_FREE_FNS` allowlist, and chain-qualified (`via`) pragmas.

fn checked(xs: &[u64]) -> u64 {
    xs.first().copied().expect("non-empty")
}

/// Same name as the allowlisted product helper: its assert is vetted and
/// must not propagate.
fn stable_bin(key: u64, bins: u32) -> u32 {
    assert!(bins > 0, "bins must be positive");
    (key % u64::from(bins)) as u32
}

pub fn plan_customer(xs: &[u64]) -> u64 {
    let direct = xs.first().unwrap();
    let indexed = xs[0];
    let binned = u64::from(stable_bin(indexed, 10));
    direct + indexed + binned + checked(xs)
}

pub fn route_day(xs: &[u64]) -> u64 {
    // footsteps-lint: allow(panic-in-shard via checked) — input validated at ingest
    checked(xs)
}

pub fn plan_member(xs: &[u64]) -> u64 {
    // footsteps-lint: allow(panic-in-shard via unrelated_helper) — names the wrong link
    checked(xs)
}
