//! Must-not-trigger: the same id-keyed map is fine in a file declared
//! part of the public API edge, as long as no hot function touches it —
//! and `placement` is only a tracked map in the file the config names,
//! so a config field of that name here is nobody's business.
use std::collections::BTreeMap;

pub struct Index {
    by_id: BTreeMap<u64, u32>,
    placement: u32,
}

impl Index {
    pub fn lookup(&self, id: u64) -> Option<u32> {
        self.by_id.get(&id).copied()
    }

    pub fn dispatch(&self) -> u32 {
        self.placement
    }
}
