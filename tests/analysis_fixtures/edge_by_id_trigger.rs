//! Must-trigger: id-keyed map access outside the declared API-edge
//! files, plus a `by_id` touch inside a declared-hot function, plus a
//! hot touch of `placement`, a map the config tracks in this file only.
use std::collections::BTreeMap;

pub struct Index {
    by_id: BTreeMap<u64, u32>,
    placement: BTreeMap<u64, u32>,
}

impl Index {
    pub fn lookup(&self, id: u64) -> Option<u32> {
        self.by_id.get(&id).copied()
    }

    pub fn dispatch(&self, id: u64) -> u32 {
        self.by_id[&id]
    }

    pub fn actuate(&self, id: u64) -> u32 {
        self.placement[&id]
    }
}
