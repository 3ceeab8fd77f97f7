//! The five services as one collection.
//!
//! [`Service`] holds either engine behind the calls a study makes on every
//! service alike: its id, seeding the pre-existing customer stock, and
//! running one day. A study keeps its services in one `Vec`, in
//! [`ServiceId::ALL`] order.

use crate::collusion::CollusionService;
use crate::ledger::PaymentLedger;
use crate::reciprocity::ReciprocityService;
use footsteps_sim::population::ResidentialIndex;
use footsteps_sim::prelude::*;

/// One running service engine.
#[derive(Debug)]
pub enum Service {
    /// Instalex, Instazood or Boostgram (§3.1).
    Reciprocity(ReciprocityService),
    /// Hublaagram or Followersgratis (§3.2).
    Collusion(CollusionService),
}

impl Service {
    /// This service's id.
    pub fn id(&self) -> ServiceId {
        match self {
            Service::Reciprocity(s) => s.id(),
            Service::Collusion(s) => s.id(),
        }
    }

    /// Seed the pre-existing customer stock. Call once, before the first
    /// [`Self::run_day`].
    pub fn seed_initial_customers(
        &mut self,
        platform: &mut Platform,
        residential: &ResidentialIndex,
        ledger: &mut PaymentLedger,
        day: Day,
    ) {
        match self {
            Service::Reciprocity(s) => s.seed_initial_customers(platform, residential, day),
            Service::Collusion(s) => s.seed_initial_customers(platform, residential, ledger, day),
        }
    }

    /// Run one simulated day.
    pub fn run_day(
        &mut self,
        platform: &mut Platform,
        residential: &ResidentialIndex,
        ledger: &mut PaymentLedger,
        day: Day,
    ) {
        match self {
            Service::Reciprocity(s) => s.run_day(platform, residential, ledger, day),
            Service::Collusion(s) => s.run_day(platform, residential, ledger, day),
        }
    }
}
