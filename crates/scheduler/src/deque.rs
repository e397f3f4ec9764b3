//! The caller-keyed sorted deque behind the run queue and the timer list.
//!
//! Both of the dispatcher's ordered structures ask the same three
//! questions — what is the minimum, re-rank this slot, drop this slot —
//! over elements addressed by the dispatcher's dense thread slot: the run
//! queue under the dispatch key ([`crate::runqueue::RunKey`]), the timer
//! list under `(expiry, ThreadId)`.  [`SortedDeque`] answers them from one
//! `VecDeque` of `(key, slot)` pairs kept in ascending order, and nothing
//! else: removing a slot, or re-ranking it (a removal and an insert),
//! takes the key it is queued under, which the dispatcher derives from the
//! thread's own entry.  Elements compare as pairs, so keys that tie still
//! have a total order and a deterministic minimum.
//!
//! It is sorted rather than heap-ordered because both callers work at the
//! ends.  The run queue pops its pick off the front, and a pick that a
//! later dispatch finds outranked comes back under the greatest key of its
//! goodness — the tail, when every runnable thread shares one goodness;
//! a timer armed for a thread's next period boundary is, on a busy CPU,
//! later than nearly every timer already armed.  Neither is a plain FIFO,
//! so the place of an insert is found by walking in from the tail, and
//! past [`TAIL_WALK`] places by binary search.  Measured over whole
//! `--seconds 1` runs of the repo benchmark, set-up and warm-up included
//! (an arm that changes the timer's key; a shift counts the entries
//! `insert` moves):
//!
//! | timer arms                          | `spin_saturated` | `sharded_churn` | `pipeline_blocking` | `spin_uncontended` |
//! |-------------------------------------|------------------|-----------------|---------------------|--------------------|
//! | land exactly on the tail            | 96.0 %           | 59.7 %          | 44.3 %              | 100 %              |
//! | at most 7 places in                 | 96.5 %           | 73.7 %          | 92.0 %              | 100 %              |
//! | mean places in / worst              | 1.5 / 102        | 9.7 / 209       | 2.2 / 18            | 0 / 0              |
//! | mean entries shifted / worst        | 0.7 / 51         | 4.8 / 112       | 0.9 / 9             | 0 / 0              |
//! | mean timers armed on that CPU / max | 51 / 257         | 37 / 229        | 4 / 21              | 0 / 0              |
//! | cancels of an armed timer, at front | 0                | 59 606 (63 %)   | 86 366 (23 %)       | 3 456 (100 %)      |
//!
//! (run-queue re-queues: the four workloads' own table is in
//! [`crate::runqueue`]).
//!
//! Costs: the minimum, a pop, a removal at the front and an insert at the
//! tail are `O(1)`; anything else is an `O(log n)` search plus a shift
//! (none at either end), and the shift is the known worst case — an entry
//! that lands or leaves `i` places from the front of `n` moves
//! `min(i, n − i)` entries (`memmove`), where a heap pays `O(log n)`.  On
//! the timer list only throttled threads hold timers, so a short-period
//! release arming in front of many longer ones needs many threads
//! throttled at once on one CPU.  If a workload with thousands of
//! mixed-period releases per CPU ever shows it, the fix is a chunked
//! deque, not a return to the heap.  Nothing
//! allocates once the deque has grown to the population's high-water
//! mark.

use std::collections::VecDeque;

/// How many places an insert walks in from the tail before it gives up and
/// binary-searches.  A re-linked pick and a next-boundary timer nearly
/// always stop at the first comparison, a released thread a few places in;
/// anything deeper is cheaper to find in `O(log n)`.
pub(crate) const TAIL_WALK: usize = 8;

/// `(key, slot)` pairs in ascending order — the front is the minimum.
/// The slot breaks ties between equal keys, so the order is total whatever
/// the keys are.  The caller keeps each slot queued at most once and names
/// the key it is queued under to take it out again.
#[derive(Debug, Clone)]
pub(crate) struct SortedDeque<K> {
    /// The queued pairs, sorted ascending.
    queue: VecDeque<(K, u32)>,
}

impl<K> Default for SortedDeque<K> {
    fn default() -> Self {
        Self {
            queue: VecDeque::new(),
        }
    }
}

impl<K: Ord + Copy> SortedDeque<K> {
    /// The minimum `(key, slot)` pair, if any.
    pub fn peek(&self) -> Option<(K, u32)> {
        self.queue.front().copied()
    }

    /// Queues `slot` under `key`, at its sorted place, looking for it from
    /// the tail.  The slot must not be queued already.
    pub(crate) fn insert(&mut self, slot: u32, key: K) {
        let item = (key, slot);
        let len = self.queue.len();
        let mut at = len;
        while at > 0 && self.queue[at - 1] > item {
            if len - at == TAIL_WALK {
                at = self.queue.partition_point(|&queued| queued < item);
                break;
            }
            at -= 1;
        }
        self.queue.insert(at, item);
    }

    /// Takes `slot`, queued under `key`, out from wherever it sits (at
    /// either end the removal shifts nothing); `false` if it is not queued
    /// under that key.
    pub(crate) fn remove(&mut self, slot: u32, key: K) -> bool {
        let item = (key, slot);
        // The front needs no search: over whole `--seconds 1` benchmark
        // runs that is 78 % of the run queue's removals on
        // `pipeline_blocking`, and a quarter to all of the cancels of an
        // armed timer (the table above).
        if self.queue.front() == Some(&item) {
            self.queue.pop_front();
            return true;
        }
        match self.queue.binary_search(&item) {
            Ok(at) => {
                self.queue.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// Removes and returns the minimum `(key, slot)` pair.
    pub fn pop_front(&mut self) -> Option<(K, u32)> {
        self.queue.pop_front()
    }
}

#[cfg(test)]
impl<K: Ord + Copy + std::fmt::Debug> SortedDeque<K> {
    /// Number of queued slots.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// The queued pairs, front to back.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (K, u32)> + '_ {
        self.queue.iter().copied()
    }

    /// The key `slot` is queued under, if it is queued: a scan, for tests.
    pub(crate) fn key_of(&self, slot: u32) -> Option<K> {
        self.iter().find(|&(_, s)| s == slot).map(|(key, _)| key)
    }

    /// Invariant check: the deque is strictly sorted and holds each slot
    /// at most once.
    pub fn assert_consistent(&self) {
        let mut slots = std::collections::BTreeSet::new();
        for (i, &(key, slot)) in self.queue.iter().enumerate() {
            assert!(slots.insert(slot), "slot {slot} queued twice");
            if i > 0 {
                assert!(self.queue[i - 1] < (key, slot), "sort order broken");
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// What [`check_against_oracle`] drives: the caller-keyed ordered
    /// queue both of the dispatcher's structures are — the deque itself
    /// under the run queue, [`crate::timerlist::TimerList`] through its
    /// public arm / cancel / pop surface.
    pub(crate) trait SlotQueue<K: Copy>: Default {
        /// Queues a slot that is not queued.
        fn insert(&mut self, slot: u32, key: K);
        /// Takes out `slot` queued under `key`; `false` if it is not.
        fn remove(&mut self, slot: u32, key: K) -> bool;
        fn peek(&self) -> Option<(K, u32)>;
        fn len(&self) -> usize;
        fn key_of(&self, slot: u32) -> Option<K>;
        fn assert_consistent(&self);
        /// Removes and returns the minimum pair.
        fn pop(&mut self) -> Option<(K, u32)>;
    }

    impl<K: Ord + Copy + std::fmt::Debug> SlotQueue<K> for SortedDeque<K> {
        fn insert(&mut self, slot: u32, key: K) {
            SortedDeque::insert(self, slot, key)
        }
        fn remove(&mut self, slot: u32, key: K) -> bool {
            SortedDeque::remove(self, slot, key)
        }
        fn peek(&self) -> Option<(K, u32)> {
            SortedDeque::peek(self)
        }
        fn len(&self) -> usize {
            SortedDeque::len(self)
        }
        fn key_of(&self, slot: u32) -> Option<K> {
            SortedDeque::key_of(self, slot)
        }
        fn assert_consistent(&self) {
            SortedDeque::assert_consistent(self)
        }
        fn pop(&mut self) -> Option<(K, u32)> {
            SortedDeque::pop_front(self)
        }
    }

    /// Drives a queue and a `BTreeSet` oracle through the same ops and
    /// compares them after every step, then drains both and compares the
    /// pop order.  The caller's side of the contract — which key each slot
    /// is queued under — is the `keys` map, as the dispatcher's is its
    /// thread table.  `ops` are `(slot, op, key)`: op 0–2 queue the slot
    /// under `key` (an insert, or a re-key up or down: a removal under the
    /// old key, then an insert), op 3 removes the slot (first, middle or
    /// last, wherever it happens to sit) under its key, and must find
    /// nothing under `key` when that is not its key, op 4 pops the minimum.
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
                    if let Some(old) = keys.insert(slot, key) {
                        assert!(queue.remove(slot, old), "queued under its old key");
                        oracle.remove(&(old, slot));
                    }
                    queue.insert(slot, key);
                    oracle.insert((key, slot));
                }
                3 => {
                    let old = keys.remove(&slot);
                    if old != Some(key) {
                        assert!(!queue.remove(slot, key), "not queued under {key:?}");
                    }
                    if let Some(old) = old {
                        oracle.remove(&(old, slot));
                        assert!(queue.remove(slot, old));
                    }
                    assert!(!queue.remove(slot, old.unwrap_or(key)), "double remove");
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
    fn remove_front_middle_back_and_absent() {
        let mut q = SortedDeque::default();
        for slot in 0..10u32 {
            q.insert(slot, 100 - slot as u64);
        }
        assert!(q.remove(9, 91), "the front");
        q.assert_consistent();
        assert!(q.remove(0, 100), "the back");
        q.assert_consistent();
        assert!(!q.remove(4, 95), "under a key it is not queued under");
        assert!(q.remove(4, 96));
        assert!(!q.remove(4, 96), "double remove");
        assert!(!q.remove(99, 1), "never-queued slot");
        q.assert_consistent();
        assert_eq!(q.len(), 7);
        assert_eq!(q.peek(), Some((92, 8)));
    }

    #[test]
    fn equal_keys_order_by_slot() {
        let mut q = SortedDeque::default();
        q.insert(7, 5u64);
        q.insert(3, 5u64);
        assert!(!q.remove(7, 4), "the key, not the slot, finds a pair");
        assert_eq!(q.pop_front(), Some((5, 3)));
        assert_eq!(q.pop_front(), Some((5, 7)));
        assert_eq!(q.pop_front(), None);
    }
}
