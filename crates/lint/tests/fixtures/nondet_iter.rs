// Fixture: nondet-iter. Linted as if at crates/sim/src/nondet_iter.rs.
use footsteps_sim::ids::IdMap;
use std::collections::{BTreeMap, HashMap};

pub struct Book {
    pub by_owner: HashMap<u32, u32>,
    pub by_id: IdMap<u32, u32>,
    pub sorted: BTreeMap<u32, u32>,
    pub dense: Vec<u32>,
}

impl Book {
    pub fn bad_values(&self) -> u32 {
        self.by_owner.values().sum()
    }

    pub fn allowed_values(&self) -> u32 {
        // footsteps-lint: allow(nondet-iter) — order-insensitive sum
        self.by_owner.values().sum()
    }

    pub fn bad_id_iter(&self) -> usize {
        self.by_id.iter().filter(|(_, v)| **v > 0).count()
    }

    pub fn ok_btree(&self) -> u32 {
        self.sorted.values().sum()
    }

    pub fn ok_vec(&self) -> u32 {
        self.dense.iter().sum()
    }

    pub fn bad_for(&self) -> usize {
        let mut n = 0;
        for (_k, _v) in &self.by_owner {
            n += 1;
        }
        n
    }
}
