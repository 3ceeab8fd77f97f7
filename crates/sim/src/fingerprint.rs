//! Client fingerprints.
//!
//! The paper notes (§2) that commercial account-automation services bypass
//! the rate-limited public OAuth API by reverse engineering the private API
//! used by the official mobile client and issuing *spoofed* requests. The
//! platform, in turn, fingerprints clients (request shape, header ordering,
//! TLS quirks — abstracted here into an opaque variant) and those
//! fingerprints are among the "additional signals produced within Instagram"
//! used to attribute activity to services (§5).

use serde::{Deserialize, Serialize};

/// How a request presented itself to the platform edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ClientFingerprint {
    /// The genuine official mobile app. Organic user traffic.
    OfficialApp,
    /// A spoofed private-API client. The `variant` distinguishes distinct
    /// automation stacks: each AAS's homegrown client emulation has its own
    /// stable quirks, which is what makes fingerprinting useful for
    /// attribution. Variants are opaque small integers assigned per service
    /// implementation.
    SpoofedMobile {
        /// Stable identifier of the automation stack producing the traffic.
        variant: u16,
    },
}

impl ClientFingerprint {
    /// True if this fingerprint corresponds to bona-fide first-party client
    /// software (as opposed to emulated traffic).
    pub fn is_organic_client(self) -> bool {
        self == ClientFingerprint::OfficialApp
    }

    /// True if this is emulated/spoofed mobile traffic.
    pub fn is_spoofed(self) -> bool {
        matches!(self, ClientFingerprint::SpoofedMobile { .. })
    }

    /// Short label for logs and reports.
    pub fn label(self) -> String {
        match self {
            ClientFingerprint::OfficialApp => "app".to_owned(),
            ClientFingerprint::SpoofedMobile { variant } => format!("spoofed:{variant}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn organic_vs_spoofed_partition() {
        assert!(ClientFingerprint::OfficialApp.is_organic_client());
        let sp = ClientFingerprint::SpoofedMobile { variant: 3 };
        assert!(sp.is_spoofed());
        assert!(!sp.is_organic_client());
        assert!(!ClientFingerprint::OfficialApp.is_spoofed());
    }

    #[test]
    fn labels_are_distinct_per_variant() {
        let a = ClientFingerprint::SpoofedMobile { variant: 1 }.label();
        let b = ClientFingerprint::SpoofedMobile { variant: 2 }.label();
        assert_ne!(a, b);
        assert_eq!(ClientFingerprint::OfficialApp.label(), "app");
    }
}
