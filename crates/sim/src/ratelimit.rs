//! Rate limiting: the platform's public-API quota.
//!
//! The platform rate-limits its public OAuth API aggressively enough that
//! broad abuse through it is impossible (§2) — which is why AASs spoof the
//! private mobile API instead. (Hublaagram's 30-minute timeout between free
//! requests, §3.3.2, is a cap on the requests a member-day can hold, set in
//! the collusion engine's plan phase.)

use crate::time::{SimTime, SECS_PER_HOUR};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Copy)]
struct WindowState {
    window_index: u64,
    used: u32,
}

/// Fixed-window counter limiter over dense integer keys (account ids): at
/// most `limit` permitted events per key in any window of `window_secs`
/// seconds (windows are aligned to multiples of the window length, which is
/// how production quota systems typically work). Per-key state lives in a
/// `Vec` indexed by `key.index()`, so the platform's per-action quota check
/// is hash-free.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DenseWindowLimiter {
    limit: u32,
    window_secs: u64,
    #[serde(skip)]
    state: Vec<WindowState>,
}

impl DenseWindowLimiter {
    /// Create a limiter allowing `limit` events per `window_secs` window.
    pub fn new(limit: u32, window_secs: u64) -> Self {
        assert!(window_secs > 0, "window must be positive");
        Self {
            limit,
            window_secs,
            state: Vec::new(),
        }
    }

    /// Convenience: `limit` events per hour.
    pub fn per_hour(limit: u32) -> Self {
        Self::new(limit, SECS_PER_HOUR)
    }

    /// The configured per-window limit.
    pub fn limit(&self) -> u32 {
        self.limit
    }

    /// Try to consume `n` units for the key at dense index `key` at time
    /// `now`. Returns how many units were granted (partial grants are what
    /// the platform edge does — it serves requests until quota is gone).
    pub fn acquire(&mut self, key: usize, now: SimTime, n: u32) -> u32 {
        let window_index = now.0 / self.window_secs;
        if key >= self.state.len() {
            self.state.resize(
                key + 1,
                WindowState { window_index: u64::MAX, used: 0 },
            );
        }
        let st = &mut self.state[key];
        if st.window_index != window_index {
            st.window_index = window_index;
            st.used = 0;
        }
        let granted = n.min(self.limit.saturating_sub(st.used));
        st.used += granted;
        granted
    }

    /// Units still available for `key` in the window containing `now`.
    pub fn remaining(&self, key: usize, now: SimTime) -> u32 {
        let window_index = now.0 / self.window_secs;
        match self.state.get(key) {
            Some(st) if st.window_index == window_index => self.limit.saturating_sub(st.used),
            _ => self.limit,
        }
    }

    /// Drop all per-key state (e.g. between simulated experiments).
    pub fn reset(&mut self) {
        self.state.clear();
    }
}

/// The platform's public (OAuth) API quota.
///
/// The exact production numbers don't matter; what matters for fidelity is
/// that the quota is *far below* what any AAS needs (hundreds of actions per
/// account per day), making the public API a non-option and pushing services
/// to spoofed private-API traffic, which is what the fingerprint signals
/// then catch.
pub fn public_api_quota() -> DenseWindowLimiter {
    // 30 writes per account-hour, in line with the published sandbox limits
    // of the era.
    DenseWindowLimiter::per_hour(30)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::AccountId;

    #[test]
    fn fixed_window_grants_until_exhausted() {
        let mut l = DenseWindowLimiter::per_hour(10);
        let k = AccountId(1).index();
        let t = SimTime(0);
        assert_eq!(l.acquire(k, t, 4), 4);
        assert_eq!(l.acquire(k, t, 4), 4);
        assert_eq!(l.acquire(k, t, 4), 2, "partial grant at the edge");
        assert_eq!(l.acquire(k, t, 4), 0);
        assert_eq!(l.remaining(k, t), 0);
    }

    #[test]
    fn fixed_window_resets_on_new_window() {
        let mut l = DenseWindowLimiter::per_hour(5);
        let k = AccountId(1).index();
        assert_eq!(l.acquire(k, SimTime(10), 5), 5);
        // Same window: refused.
        assert_eq!(l.acquire(k, SimTime(3_599), 1), 0);
        // Next hour window: fresh quota.
        assert_eq!(l.acquire(k, SimTime(3_600), 5), 5);
    }

    #[test]
    fn fixed_window_keys_are_independent() {
        let mut l = DenseWindowLimiter::per_hour(2);
        let t = SimTime(0);
        assert_eq!(l.acquire(AccountId(1).index(), t, 2), 2);
        assert_eq!(l.acquire(AccountId(2).index(), t, 2), 2);
    }

    #[test]
    fn public_api_quota_is_too_small_for_abuse() {
        // An AAS needs hundreds of actions per account-day; the public API
        // tops out at 30/hour = 720/day *of quota*, but burst delivery (e.g.
        // 2,000 likes "immediately", Table 3) is impossible.
        let mut q = public_api_quota();
        let got = q.acquire(AccountId(1).index(), SimTime(0), 2_000);
        assert!(got <= 30);
    }

    #[test]
    fn reset_clears_state() {
        let mut l = DenseWindowLimiter::per_hour(1);
        let k = AccountId(1).index();
        assert_eq!(l.acquire(k, SimTime(0), 1), 1);
        l.reset();
        assert_eq!(l.acquire(k, SimTime(0), 1), 1);
    }
}
