//! The id → handle index every layer keeps: an open-addressing hash table.
//!
//! Each id is filed once, where its resident lives: each dispatcher maps
//! thread id → dense slot and each controller job id → slot.  The layers
//! above keep no id index of their own: the machine asks its dispatchers
//! and the sharded simulator its shards' controllers, one probe each.
//! A B-tree allocates a node for every few ids it holds, so admitting `n`
//! jobs made `O(n)` allocations in each index; a sorted `Vec` grows
//! by doubling but shifts half of itself for every id that arrives or
//! leaves out of order, which a migration does twice per index
//! (`sharded_churn` `run_wall_s` ×1.14 against the B-trees).  Here the ids
//! and the values sit in power-of-two `Vec`s that grow by doubling, an id
//! at or after the bucket its hash names (linear probing; a removal shifts
//! the run behind it back, so no tombstones).  The hash is fixed —
//! a multiply by the golden ratio, which spreads the sequential and
//! strided ids the layers issue — so everything stays deterministic.
//! Nothing iterates the table: a walk over a layer's residents goes over
//! its own dense slot tables, in slot order (`JobSeries::sample_round`).

/// A map from ids to small `Copy` values, as described in the
/// [module documentation](self).
#[derive(Debug, Clone)]
pub struct IdMap<K, V> {
    /// Bucket `i`'s id and value, meaningful when bit `i % 64` of
    /// `used[i / 64]` is set; a power of two long (or empty).  Apart, so
    /// a 4-byte value costs 12 bytes a bucket, not a padded 16.
    ids: Vec<K>,
    values: Vec<V>,
    used: Vec<u64>,
    len: usize,
}

impl<K, V> Default for IdMap<K, V> {
    fn default() -> Self {
        Self {
            ids: Vec::new(),
            values: Vec::new(),
            used: Vec::new(),
            len: 0,
        }
    }
}

impl<K: Copy + Eq + Into<u64>, V: Copy> IdMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ids held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no id is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn is_used(&self, at: usize) -> bool {
        self.used[at / 64] & (1 << (at % 64)) != 0
    }

    fn set_used(&mut self, at: usize, used: bool) {
        let bit = 1 << (at % 64);
        if used {
            self.used[at / 64] |= bit;
        } else {
            self.used[at / 64] &= !bit;
        }
    }

    /// The bucket `id` hashes to; the table is not empty.
    fn home(&self, id: K) -> usize {
        let bits = self.ids.len().trailing_zeros();
        (id.into().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// The bucket holding `id`, or the empty bucket ending its probe.
    fn find(&self, id: K) -> Result<usize, usize> {
        let mask = self.ids.len() - 1;
        let mut at = self.home(id);
        while self.is_used(at) {
            if self.ids[at] == id {
                return Ok(at);
            }
            at = (at + 1) & mask;
        }
        Err(at)
    }

    /// The value held for `id`.
    pub fn get(&self, id: K) -> Option<V> {
        if self.len == 0 {
            return None;
        }
        self.find(id).ok().map(|at| self.values[at])
    }

    /// Whether `id` is held.
    pub fn contains(&self, id: K) -> bool {
        self.get(id).is_some()
    }

    /// Holds `value` for `id`, returning the value it replaces.
    pub fn insert(&mut self, id: K, value: V) -> Option<V> {
        // At most seven eighths full: the golden-ratio hash spreads an
        // arithmetic run of ids evenly, so probe runs stay short.
        if 8 * (self.len + 1) > 7 * self.ids.len() {
            self.grow(id, value);
        }
        match self.find(id) {
            Ok(at) => Some(std::mem::replace(&mut self.values[at], value)),
            Err(at) => {
                self.ids[at] = id;
                self.values[at] = value;
                self.set_used(at, true);
                self.len += 1;
                None
            }
        }
    }

    /// Doubles the table (to 16 buckets at first) and re-places every pair;
    /// `filler` fills the free buckets, which are never read.
    #[cold]
    fn grow(&mut self, filler_id: K, filler: V) {
        let buckets = (2 * self.ids.len()).max(16);
        let old_ids = std::mem::replace(&mut self.ids, vec![filler_id; buckets]);
        let old_values = std::mem::replace(&mut self.values, vec![filler; buckets]);
        let old_used = std::mem::replace(&mut self.used, vec![0; buckets.div_ceil(64)]);
        let mask = buckets - 1;
        for (at, (&id, &value)) in old_ids.iter().zip(&old_values).enumerate() {
            if old_used[at / 64] & (1 << (at % 64)) != 0 {
                let mut to = self.home(id);
                while self.is_used(to) {
                    to = (to + 1) & mask;
                }
                self.ids[to] = id;
                self.values[to] = value;
                self.set_used(to, true);
            }
        }
    }

    /// Drops `id`, returning the value it held.
    pub fn remove(&mut self, id: K) -> Option<V> {
        if self.len == 0 {
            return None;
        }
        let mut hole = self.find(id).ok()?;
        let value = self.values[hole];
        self.len -= 1;
        // Shift back every pair of the run after the hole that may sit
        // there: one whose home is not cyclically in `(hole, at]`.
        let mask = self.ids.len() - 1;
        let mut at = hole;
        loop {
            at = (at + 1) & mask;
            if !self.is_used(at) {
                break;
            }
            let home = self.home(self.ids[at]);
            if (at.wrapping_sub(home) & mask) >= (at.wrapping_sub(hole) & mask) {
                self.ids[hole] = self.ids[at];
                self.values[hole] = self.values[at];
                hole = at;
            }
        }
        self.set_used(hole, false);
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        /// Inserts (new and replacing), removals and lookups agree with a
        /// `BTreeMap` over ids that collide in few buckets (a stride and a
        /// small range), through growth and through removals inside long
        /// probe runs.
        #[test]
        fn matches_a_btree_map(
            ops in proptest::collection::vec((0u8..4, 0u64..96, 0u32..1000), 1..400),
            stride in 1u64..9,
        ) {
            let mut map = IdMap::new();
            let mut oracle = BTreeMap::new();
            for (op, id, value) in ops {
                let id = id * stride;
                match op {
                    0 | 1 => prop_assert_eq!(map.insert(id, value), oracle.insert(id, value)),
                    2 => prop_assert_eq!(map.remove(id), oracle.remove(&id)),
                    _ => {
                        prop_assert_eq!(map.get(id), oracle.get(&id).copied());
                        prop_assert_eq!(map.contains(id), oracle.contains_key(&id));
                    }
                }
                prop_assert_eq!(map.len(), oracle.len());
            }
            for (&id, &value) in &oracle {
                prop_assert_eq!(map.get(id), Some(value));
            }
        }
    }

    /// Every id is found after growth, including the extremes of `u64`
    /// (no id is reserved as an empty marker), and removals in any order
    /// empty the table.
    #[test]
    fn holds_any_id_through_growth_and_removal() {
        let mut map = IdMap::new();
        let ids: Vec<u64> = (0..5000u64)
            .map(|i| i * 8 + 3)
            .chain([0, u64::MAX])
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(map.insert(id, i), None);
        }
        assert_eq!(map.len(), ids.len());
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(map.get(id), Some(i));
        }
        assert_eq!(map.get(4), None);
        for (i, &id) in ids.iter().enumerate().rev().step_by(2) {
            assert_eq!(map.remove(id), Some(i));
        }
        for (i, &id) in ids.iter().enumerate() {
            let kept = (ids.len() - 1 - i) % 2 == 1;
            assert_eq!(map.contains(id), kept, "id {id}");
        }
        assert!(!map.is_empty());
    }
}
