//! The slot-addressed sorted deque behind the run queue and the timer list.
//!
//! Both of the dispatcher's ordered structures ask the same three
//! questions — what is the minimum, re-rank this slot, drop this slot —
//! over elements addressed by the dispatcher's dense thread slot: the run
//! queue under the dispatch key ([`crate::runqueue::RunKey`]), the timer
//! list under `(expiry, ThreadId)`.  [`SortedDeque`] answers them from one
//! `VecDeque` of `(key, slot)` pairs kept in ascending order, plus a
//! per-slot table of the key each slot is queued under.  Elements compare
//! as pairs, so keys that tie still have a total order and a deterministic
//! minimum.
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
//! allocates once the deque and the key table have grown to the
//! population's high-water mark.

use std::collections::VecDeque;

/// How many places an insert walks in from the tail before it gives up and
/// binary-searches.  A re-linked pick and a next-boundary timer nearly
/// always stop at the first comparison, a released thread a few places in;
/// anything deeper is cheaper to find in `O(log n)`.
pub(crate) const TAIL_WALK: usize = 8;

/// `(key, slot)` pairs in ascending order — the front is the minimum —
/// addressed by dense thread-slot index.  The slot breaks ties between
/// equal keys, so the order is total whatever the keys are.
#[derive(Debug, Clone)]
pub(crate) struct SortedDeque<K> {
    /// The queued pairs, sorted ascending.
    queue: VecDeque<(K, u32)>,
    /// `slot -> key it is queued under`, `None` when the slot is not
    /// queued: what finds a slot's pair again without scanning for it.
    keys: Vec<Option<K>>,
}

impl<K> Default for SortedDeque<K> {
    fn default() -> Self {
        Self {
            queue: VecDeque::new(),
            keys: Vec::new(),
        }
    }
}

impl<K: Ord + Copy> SortedDeque<K> {
    /// Number of queued slots.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// The minimum `(key, slot)` pair, if any.
    pub fn peek(&self) -> Option<(K, u32)> {
        self.queue.front().copied()
    }

    /// The key `slot` is queued under, if it is queued.
    #[cfg(test)]
    pub(crate) fn key_of(&self, slot: u32) -> Option<K> {
        self.keys.get(slot as usize).copied().flatten()
    }

    /// Queues `slot` under `key`, or re-ranks it if already queued.
    /// Re-ranking under an unchanged key touches nothing.
    pub(crate) fn upsert(&mut self, slot: u32, key: K) {
        if self.keys.len() <= slot as usize {
            self.keys.resize(slot as usize + 1, None);
        }
        let old = self.keys[slot as usize].replace(key);
        if old == Some(key) {
            return;
        }
        if let Some(old) = old {
            self.unlink((old, slot));
        }
        self.link((key, slot));
    }

    /// Removes `slot`, returning the key it was queued under.
    pub fn remove(&mut self, slot: u32) -> Option<K> {
        // The front names its slot, so it does not wait for the key table:
        // over whole `--seconds 1` benchmark runs that is 78 % of the run
        // queue's removals on `pipeline_blocking`, and a quarter to all of
        // the cancels of an armed timer (the table above).
        if self.queue.front().is_some_and(|&(_, head)| head == slot) {
            return self.pop_front().map(|(key, _)| key);
        }
        let key = self.keys.get_mut(slot as usize)?.take()?;
        self.unlink((key, slot));
        Some(key)
    }

    /// Removes and returns the minimum `(key, slot)` pair.
    pub fn pop_front(&mut self) -> Option<(K, u32)> {
        let min = self.queue.pop_front()?;
        self.keys[min.1 as usize] = None;
        Some(min)
    }

    /// Inserts `item` at its sorted place, looking for it from the tail.
    fn link(&mut self, item: (K, u32)) {
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

    /// Takes the queued pair `item` out from wherever it sits (at either
    /// end the removal shifts nothing).
    fn unlink(&mut self, item: (K, u32)) {
        let at = self
            .queue
            .binary_search(&item)
            .expect("the key table names the key every queued slot is sorted under");
        self.queue.remove(at);
    }
}

#[cfg(test)]
impl<K: Ord + Copy + std::fmt::Debug> SortedDeque<K> {
    /// The queued pairs, front to back.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (K, u32)> + '_ {
        self.queue.iter().copied()
    }

    /// Invariant check: the deque is strictly sorted and agrees with the
    /// key table both ways.
    pub fn assert_consistent(&self) {
        for (i, &(key, slot)) in self.queue.iter().enumerate() {
            assert_eq!(self.keys[slot as usize], Some(key), "key table broken");
            if i > 0 {
                assert!(self.queue[i - 1] < (key, slot), "sort order broken");
            }
        }
        let queued = self.keys.iter().flatten().count();
        assert_eq!(queued, self.queue.len(), "keys/queue cardinality mismatch");
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// What [`check_against_oracle`] drives: the slot-addressed ordered
    /// queue both of the dispatcher's structures are — the deque itself
    /// under the run queue, [`crate::timerlist::TimerList`] through its
    /// public arm / cancel / pop surface.
    pub(crate) trait SlotQueue<K: Copy>: Default {
        fn upsert(&mut self, slot: u32, key: K);
        fn remove(&mut self, slot: u32) -> Option<K>;
        fn peek(&self) -> Option<(K, u32)>;
        fn len(&self) -> usize;
        fn key_of(&self, slot: u32) -> Option<K>;
        fn assert_consistent(&self);
        /// Removes and returns the minimum pair.
        fn pop(&mut self) -> Option<(K, u32)>;
    }

    impl<K: Ord + Copy + std::fmt::Debug> SlotQueue<K> for SortedDeque<K> {
        fn upsert(&mut self, slot: u32, key: K) {
            SortedDeque::upsert(self, slot, key)
        }
        fn remove(&mut self, slot: u32) -> Option<K> {
            SortedDeque::remove(self, slot)
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
    fn remove_front_middle_back_and_absent() {
        let mut q = SortedDeque::default();
        for slot in 0..10u32 {
            q.upsert(slot, 100 - slot as u64);
        }
        assert_eq!(q.remove(9), Some(91), "the front");
        q.assert_consistent();
        assert_eq!(q.remove(0), Some(100), "the back");
        q.assert_consistent();
        assert_eq!(q.remove(4), Some(96));
        assert_eq!(q.remove(4), None, "double remove");
        assert_eq!(q.remove(99), None, "never-queued slot");
        q.assert_consistent();
        assert_eq!(q.len(), 7);
        assert_eq!(q.peek(), Some((92, 8)));
    }

    #[test]
    fn equal_keys_order_by_slot() {
        let mut q = SortedDeque::default();
        q.upsert(7, 5u64);
        q.upsert(3, 5u64);
        assert_eq!(q.pop_front(), Some((5, 3)));
        assert_eq!(q.pop_front(), Some((5, 7)));
        assert_eq!(q.pop_front(), None);
    }

    #[test]
    fn upsert_under_the_same_key_moves_nothing() {
        let mut q = SortedDeque::default();
        for slot in 0..20u32 {
            q.upsert(slot, slot as u64);
        }
        let before: Vec<_> = q.iter().collect();
        q.upsert(13, 13);
        q.upsert(0, 0);
        assert_eq!(q.iter().collect::<Vec<_>>(), before);
    }
}
