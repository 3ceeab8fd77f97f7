//! Deterministic account binning (§6.3).
//!
//! "We deterministically partition Instagram accounts into 10 equally-sized
//! bins. We assign separate bins for each countermeasure response (block and
//! delay) and another for a control." The partition is a pure function of
//! the account id, so the same account always lands in the same bin, across
//! experiments and runs.

use footsteps_sim::prelude::{stable_bin, AccountId, Countermeasure};

/// Number of bins used by both experiments.
pub const NUM_BINS: u32 = 10;

/// What happens to eligible actions of accounts in a bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinPolicy {
    /// Explicit control: never receives a countermeasure, and is the
    /// comparison group in the figures.
    Control,
    /// Eligible actions are synchronously blocked.
    Block,
    /// Eligible follows are removed one day later.
    Delay,
    /// Not part of the experiment (narrow design leaves 7 bins untouched).
    Untreated,
}

impl BinPolicy {
    /// The platform countermeasure this policy maps to.
    pub fn countermeasure(self) -> Countermeasure {
        match self {
            BinPolicy::Block => Countermeasure::Block,
            BinPolicy::Delay => Countermeasure::DelayRemoval,
            BinPolicy::Control | BinPolicy::Untreated => Countermeasure::None,
        }
    }
}

/// The bin an account falls in (0..NUM_BINS), a pure function of its id.
pub fn bin_of(account: AccountId) -> u32 {
    stable_bin(u64::from(account.0), NUM_BINS)
}

/// A full assignment of policies to the ten bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinAssignment {
    policies: [BinPolicy; NUM_BINS as usize],
}

impl BinAssignment {
    /// Everything untreated (the characterization phase).
    pub fn none() -> Self {
        Self { policies: [BinPolicy::Untreated; NUM_BINS as usize] }
    }

    /// The narrow design (§6.3): one block bin, one delay bin, one control
    /// bin; the remaining seven untouched. At most 20% of customers receive
    /// a countermeasure.
    pub fn narrow(block_bin: u32, delay_bin: u32, control_bin: u32) -> Self {
        assert!(block_bin < NUM_BINS && delay_bin < NUM_BINS && control_bin < NUM_BINS);
        assert!(
            block_bin != delay_bin && delay_bin != control_bin && block_bin != control_bin,
            "bins must be distinct"
        );
        let mut policies = [BinPolicy::Untreated; NUM_BINS as usize];
        policies[block_bin as usize] = BinPolicy::Block;
        policies[delay_bin as usize] = BinPolicy::Delay;
        policies[control_bin as usize] = BinPolicy::Control;
        Self { policies }
    }

    /// The broad design (§6.4): 90% of accounts treated with one policy,
    /// keeping the same control bin as the narrow experiment.
    pub fn broad(control_bin: u32, treatment: BinPolicy) -> Self {
        assert!(control_bin < NUM_BINS);
        assert!(matches!(treatment, BinPolicy::Block | BinPolicy::Delay));
        let mut policies = [treatment; NUM_BINS as usize];
        policies[control_bin as usize] = BinPolicy::Control;
        Self { policies }
    }

    /// Policy for one bin index.
    pub fn policy_of_bin(&self, bin: u32) -> BinPolicy {
        self.policies[bin as usize]
    }

    /// Policy for one account.
    pub fn policy_for(&self, account: AccountId) -> BinPolicy {
        self.policy_of_bin(bin_of(account))
    }

    /// Bins carrying a given policy.
    pub fn bins_with(&self, policy: BinPolicy) -> Vec<u32> {
        (0..NUM_BINS)
            .filter(|&b| self.policies[b as usize] == policy)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_are_deterministic_and_roughly_uniform() {
        let mut counts = [0u32; NUM_BINS as usize];
        for i in 0..100_000u32 {
            let b = bin_of(AccountId(i));
            assert_eq!(b, bin_of(AccountId(i)), "deterministic");
            counts[b as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let dev = (f64::from(c) - 10_000.0).abs() / 10_000.0;
            assert!(dev < 0.05, "bin {i}: {c}");
        }
    }

    #[test]
    fn narrow_assignment_treats_at_most_two_bins() {
        let a = BinAssignment::narrow(0, 1, 2);
        assert_eq!(a.bins_with(BinPolicy::Block), vec![0]);
        assert_eq!(a.bins_with(BinPolicy::Delay), vec![1]);
        assert_eq!(a.bins_with(BinPolicy::Control), vec![2]);
        assert_eq!(a.bins_with(BinPolicy::Untreated).len(), 7);
    }

    #[test]
    fn broad_assignment_treats_nine_bins() {
        let a = BinAssignment::broad(2, BinPolicy::Delay);
        assert_eq!(a.bins_with(BinPolicy::Delay).len(), 9);
        assert_eq!(a.bins_with(BinPolicy::Control), vec![2]);
        // Switching to block keeps the same control bin (§6.4).
        let b = BinAssignment::broad(2, BinPolicy::Block);
        assert_eq!(b.bins_with(BinPolicy::Control), vec![2]);
        assert_eq!(b.bins_with(BinPolicy::Block).len(), 9);
    }

    #[test]
    #[should_panic(expected = "bins must be distinct")]
    fn narrow_rejects_overlapping_bins() {
        BinAssignment::narrow(1, 1, 2);
    }

    #[test]
    fn policies_map_to_countermeasures() {
        use footsteps_sim::prelude::Countermeasure;
        assert_eq!(BinPolicy::Block.countermeasure(), Countermeasure::Block);
        assert_eq!(BinPolicy::Delay.countermeasure(), Countermeasure::DelayRemoval);
        assert_eq!(BinPolicy::Control.countermeasure(), Countermeasure::None);
        assert_eq!(BinPolicy::Untreated.countermeasure(), Countermeasure::None);
    }
}
