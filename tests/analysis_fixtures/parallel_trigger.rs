//! Must-trigger: the scoped-thread region reaches merge state directly
//! (a non-allowlisted `self` field that is also barrier-merge machinery).
pub struct Sharded {
    shards: Vec<u32>,
    loads: Vec<u32>,
}

impl Sharded {
    pub fn advance_all(&mut self) {
        std::thread::scope(|scope| {
            for shard in &mut self.shards {
                scope.spawn(move || *shard += 1);
            }
            self.loads.clear();
        });
    }

    fn merge(&mut self) {
        self.loads.clear();
    }
}
