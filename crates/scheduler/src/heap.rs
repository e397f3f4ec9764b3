//! The position-indexed 4-ary min-heap behind the timer list.
//!
//! [`crate::timerlist::TimerList`] asks three questions — what is the
//! minimum, re-rank this slot, drop this slot — over elements addressed by
//! the dispatcher's dense thread slot, under the key `(expiry, ThreadId)`.
//! (The run queue is deliberately not this heap: rotation, what a
//! saturated CPU does to it, sifts root to leaf every time; see
//! [`crate::runqueue`].)  Elements compare as `(key, slot)` pairs, so a
//! heap whose keys can tie (two timers at one expiry for one id) still has
//! a total order and a deterministic minimum.
//!
//! The heap is 4-ary — half the levels of a binary heap, and the four
//! children of a node sit side by side in memory — and sifts move a hole
//! rather than swapping: each level costs one element move and one `pos`
//! write, and the sifted element is written once at the end.  Storage is
//! two flat `Vec`s that grow to the slot population's high-water mark and
//! are never shrunk, so steady-state operations do not allocate.

use std::cmp::Ordering;

/// Children per node; `sift_down`'s child tournament is written for four.
const ARITY: usize = 4;

/// `pos` marker for "slot not in the heap".
const ABSENT: u32 = u32::MAX;

/// An indexed min-heap of `(key, slot)` pairs addressed by dense slot.
#[derive(Debug, Clone)]
pub(crate) struct IndexedHeap<K> {
    /// Heap-ordered `(key, slot)` pairs.
    heap: Vec<(K, u32)>,
    /// `slot -> heap position`, [`ABSENT`] when the slot is not queued.
    pos: Vec<u32>,
}

impl<K> Default for IndexedHeap<K> {
    fn default() -> Self {
        Self {
            heap: Vec::new(),
            pos: Vec::new(),
        }
    }
}

impl<K: Ord + Copy> IndexedHeap<K> {
    /// Number of queued slots.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The minimum `(key, slot)` pair, if any.
    pub fn peek(&self) -> Option<(K, u32)> {
        self.heap.first().copied()
    }

    fn position(&self, slot: u32) -> Option<usize> {
        match self.pos.get(slot as usize) {
            Some(&p) if p != ABSENT => Some(p as usize),
            _ => None,
        }
    }

    /// The key `slot` is queued under, if it is queued.
    pub fn key_of(&self, slot: u32) -> Option<K> {
        self.position(slot).map(|i| self.heap[i].0)
    }

    /// Queues `slot` under `key`, or re-ranks it if already queued.
    /// Re-ranking under an unchanged key touches nothing.
    pub fn upsert(&mut self, slot: u32, key: K) {
        match self.position(slot) {
            Some(i) => match key.cmp(&self.heap[i].0) {
                Ordering::Less => self.sift_up(i, (key, slot)),
                Ordering::Greater => self.sift_down(i, (key, slot)),
                Ordering::Equal => {}
            },
            None => {
                if self.pos.len() <= slot as usize {
                    self.pos.resize(slot as usize + 1, ABSENT);
                }
                let i = self.heap.len();
                self.heap.push((key, slot));
                self.sift_up(i, (key, slot));
            }
        }
    }

    /// Removes `slot`, returning the key it was queued under.
    pub fn remove(&mut self, slot: u32) -> Option<K> {
        let i = self.position(slot)?;
        Some(self.remove_at(i).0)
    }

    /// Removes and returns the minimum `(key, slot)` pair.
    pub fn pop(&mut self) -> Option<(K, u32)> {
        if self.heap.is_empty() {
            return None;
        }
        Some(self.remove_at(0))
    }

    /// Removes and returns the pair at heap position `i`.
    fn remove_at(&mut self, i: usize) -> (K, u32) {
        let removed = self.heap[i];
        self.pos[removed.1 as usize] = ABSENT;
        let last = self.heap.pop().expect("position `i` exists");
        if i < self.heap.len() {
            // The former last element fills the hole and may belong either
            // above or below it.
            if i > 0 && last < self.heap[(i - 1) / ARITY] {
                self.sift_up(i, last);
            } else {
                self.sift_down(i, last);
            }
        }
        removed
    }

    /// Writes `item` at heap position `i` and records the position.
    fn place(&mut self, i: usize, item: (K, u32)) {
        self.heap[i] = item;
        self.pos[item.1 as usize] = i as u32;
    }

    /// Moves the hole at `i` up until `item` fits, then writes `item`.
    fn sift_up(&mut self, mut i: usize, item: (K, u32)) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if item >= self.heap[parent] {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, item);
    }

    /// Moves the hole at `i` down until `item` fits, then writes `item`.
    fn sift_down(&mut self, mut i: usize, item: (K, u32)) {
        loop {
            let first = ARITY * i + 1;
            if first >= self.heap.len() {
                break;
            }
            // A full node picks its smallest child by tournament — two
            // independent comparisons, then one — rather than a chain of
            // three; only the heap's last node can be short.
            let best = if let Some(kids) = self.heap.get(first..first + ARITY) {
                let a = if kids[1] < kids[0] { 1 } else { 0 };
                let b = if kids[3] < kids[2] { 3 } else { 2 };
                first + if kids[b] < kids[a] { b } else { a }
            } else {
                let mut best = first;
                for c in first + 1..self.heap.len() {
                    if self.heap[c] < self.heap[best] {
                        best = c;
                    }
                }
                best
            };
            if item <= self.heap[best] {
                break;
            }
            self.place(i, self.heap[best]);
            i = best;
        }
        self.place(i, item);
    }

    /// Heap-invariant check for tests: every parent is no larger than its
    /// children and the position index is consistent.
    #[cfg(test)]
    pub fn assert_consistent(&self) {
        for (i, &item) in self.heap.iter().enumerate() {
            assert_eq!(self.pos[item.1 as usize], i as u32, "pos index broken");
            if i > 0 {
                assert!(self.heap[(i - 1) / ARITY] <= item, "heap order broken");
            }
        }
        let queued = self.pos.iter().filter(|&&p| p != ABSENT).count();
        assert_eq!(queued, self.heap.len(), "pos/heap cardinality mismatch");
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::types::ThreadId;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// What [`check_against_oracle`] drives: the slot-addressed ordered
    /// queue both of the dispatcher's structures are — this heap under the
    /// timer list, the sorted deque of [`crate::runqueue::RunQueue`].
    pub(crate) trait SlotQueue<K: Copy>: Default {
        fn upsert(&mut self, slot: u32, key: K);
        fn remove(&mut self, slot: u32) -> Option<K>;
        fn peek(&self) -> Option<(K, u32)>;
        fn len(&self) -> usize;
        fn key_of(&self, slot: u32) -> Option<K>;
        fn assert_consistent(&self);
        /// Removes and returns the minimum pair.
        fn pop(&mut self) -> Option<(K, u32)> {
            let min = self.peek()?;
            self.remove(min.1);
            Some(min)
        }
    }

    impl<K: Ord + Copy> SlotQueue<K> for IndexedHeap<K> {
        fn upsert(&mut self, slot: u32, key: K) {
            IndexedHeap::upsert(self, slot, key)
        }
        fn remove(&mut self, slot: u32) -> Option<K> {
            IndexedHeap::remove(self, slot)
        }
        fn peek(&self) -> Option<(K, u32)> {
            IndexedHeap::peek(self)
        }
        fn len(&self) -> usize {
            IndexedHeap::len(self)
        }
        fn key_of(&self, slot: u32) -> Option<K> {
            IndexedHeap::key_of(self, slot)
        }
        fn assert_consistent(&self) {
            IndexedHeap::assert_consistent(self)
        }
        fn pop(&mut self) -> Option<(K, u32)> {
            IndexedHeap::pop(self)
        }
    }

    /// Drives a queue and a `BTreeSet` oracle through the same ops and
    /// compares them after every step, then drains both and compares the
    /// pop order.  `ops` are `(slot, op, key)`: op 0–2 upserts (insert, or
    /// re-key up or down), op 3 removes the slot (first, middle or last,
    /// wherever it happens to sit), op 4 pops the minimum.
    pub(crate) fn check_against_oracle<K, Q>(ops: &[(u32, u8, K)])
    where
        K: Ord + Copy + std::fmt::Debug,
        Q: SlotQueue<K>,
    {
        let mut queue = Q::default();
        let mut oracle: BTreeSet<(K, u32)> = BTreeSet::new();
        let mut keys: BTreeMap<u32, K> = BTreeMap::new();
        for &(slot, op, key) in ops {
            match op {
                0..=2 => {
                    queue.upsert(slot, key);
                    if let Some(old) = keys.insert(slot, key) {
                        oracle.remove(&(old, slot));
                    }
                    oracle.insert((key, slot));
                }
                3 => {
                    let old = keys.remove(&slot);
                    if let Some(old) = old {
                        oracle.remove(&(old, slot));
                    }
                    assert_eq!(queue.remove(slot), old);
                }
                _ => {
                    let min = oracle.pop_first();
                    if let Some((_, slot)) = min {
                        keys.remove(&slot);
                    }
                    assert_eq!(queue.pop(), min);
                }
            }
            queue.assert_consistent();
            assert_eq!(queue.peek(), oracle.first().copied());
            assert_eq!(queue.len(), oracle.len());
            assert_eq!(queue.key_of(slot), keys.get(&slot).copied());
        }
        while let Some(min) = oracle.pop_first() {
            assert_eq!(queue.pop(), Some(min));
        }
        assert_eq!(queue.len(), 0);
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn remove_root_middle_last_and_absent() {
        let mut h = IndexedHeap::default();
        for slot in 0..10u32 {
            h.upsert(slot, 100 - slot as u64);
        }
        let last_slot = h.heap[h.len() - 1].1;
        assert_eq!(h.remove(9), Some(91), "the root");
        h.assert_consistent();
        assert_eq!(h.remove(last_slot), Some(100 - last_slot as u64));
        h.assert_consistent();
        assert_eq!(h.remove(4), Some(96));
        assert_eq!(h.remove(4), None, "double remove");
        assert_eq!(h.remove(99), None, "never-queued slot");
        h.assert_consistent();
        assert_eq!(h.len(), 7);
        assert_eq!(h.peek(), Some((92, 8)));
    }

    #[test]
    fn equal_keys_order_by_slot() {
        let mut h = IndexedHeap::default();
        h.upsert(7, 5u64);
        h.upsert(3, 5u64);
        assert_eq!(h.pop(), Some((5, 3)));
        assert_eq!(h.pop(), Some((5, 7)));
    }

    #[test]
    fn upsert_under_the_same_key_moves_nothing() {
        let mut h = IndexedHeap::default();
        for slot in 0..20u32 {
            h.upsert(slot, slot as u64);
        }
        let before = h.heap.clone();
        h.upsert(13, 13);
        assert_eq!(h.heap, before);
    }

    proptest! {
        /// The timer list's key: expiry, then id.  The narrow expiry range
        /// forces equal-expiry ties, and ids run against slot order so the
        /// id (not the slot) is what breaks them.
        #[test]
        fn timer_keys_match_the_btreeset_oracle(
            ops in proptest::collection::vec((0u32..24, 0u8..5, 0u64..8), 1..300),
        ) {
            let ops: Vec<(u32, u8, (u64, ThreadId))> = ops
                .into_iter()
                .map(|(slot, op, expiry)| (slot, op, (expiry, ThreadId(100 - slot as u64))))
                .collect();
            check_against_oracle::<_, IndexedHeap<_>>(&ops);
        }
    }
}
