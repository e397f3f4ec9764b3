//! The goodness-ordered runnable queue.
//!
//! The dispatcher used to pick the next thread with a full scan over every
//! registered thread — `O(n)` per dispatch, paid even when one thread spins
//! alone on a 10k-job machine.  The runnable threads instead sit in
//! [`RunQueue`], one deque kept **sorted** by the dispatch key (goodness,
//! recency, id) and addressed by dense thread slot (mirroring the
//! controller's `SlotTable`), so the pick is the front of the deque.
//!
//! The order is sorted rather than heap order because of what a saturated
//! CPU does to it.  RBS only ranks threads by goodness, and "jobs with
//! shorter periods have higher goodness values" (§3.1), so the runnable
//! threads of a busy CPU share one or two goodness values and the pick
//! *rotates*: the thread just picked takes the newest pick sequence, which
//! makes it the greatest key of its goodness, and it goes from the front of
//! the deque to the back — a pop and a push, where a heap sifts it from
//! the root to a leaf on every dispatch.  It is not a plain FIFO, though.
//! A thread released from a throttle or a block comes back under the pick
//! sequence it *left* with, which is among the newest but not the newest:
//! over the repo benchmark nine in ten such re-queues land off the tail, 2
//! to 15 places in on average and up to 519.  So the place is found by
//! walking in from the tail, and past [`TAIL_WALK`] places by binary
//! search.
//!
//! Costs: the pick, the rotation, and any insert or removal at either end
//! are `O(1)`; anything else is an `O(log n)` search plus a shift, and the
//! shift is the known worst case — an entry that lands or leaves `i`
//! places from the front of `n` moves `min(i, n − i)` 32-byte entries
//! (`memmove`), where a heap pays `O(log n)`.  Nothing allocates once the
//! deque and the per-slot key table have grown to the population's
//! high-water mark.

use crate::types::ThreadId;
use std::collections::VecDeque;

/// The dispatch-priority key, ordered so that the *smallest* key is the
/// thread the dispatcher must pick.
///
/// Replicates the full-scan pick exactly: highest goodness first (stored
/// negated), least-recently-picked second, lowest thread id last.  The id
/// makes every key unique, so the queue's order is total and its front
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct RunKey {
    /// Negated goodness: higher goodness sorts first.
    pub neg_goodness: i64,
    /// Sequence number of the thread's last pick: earlier picks sort first.
    pub last_picked_seq: u64,
    /// Tie-break, and the payload the dispatcher reads back.
    pub id: ThreadId,
}

/// How many places an insert walks in from the tail before it gives up and
/// binary-searches.  Rotation stops at the first comparison and a released
/// thread a few places in; anything deeper is cheaper to find in `O(log n)`.
const TAIL_WALK: usize = 8;

/// The runnable threads as `(key, slot)` pairs in ascending order — the
/// front is the dispatcher's pick — addressed by dense thread-slot index.
/// The slot breaks ties between equal keys, so the order is total whatever
/// the keys are.
#[derive(Debug, Clone, Default)]
pub(crate) struct RunQueue {
    /// The queued pairs, sorted ascending.
    queue: VecDeque<(RunKey, u32)>,
    /// `slot -> key it is queued under`, `None` when the slot is not
    /// queued: what finds a slot's pair again without scanning for it.
    keys: Vec<Option<RunKey>>,
}

impl RunQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued slots (used by the invariant checks).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// The minimum `(key, slot)` pair — the pick — if any.
    pub fn peek(&self) -> Option<(RunKey, u32)> {
        self.queue.front().copied()
    }

    /// Returns `true` if `slot` is queued (used by the invariant checks).
    #[cfg(test)]
    pub fn contains(&self, slot: u32) -> bool {
        matches!(self.keys.get(slot as usize), Some(Some(_)))
    }

    /// Queues `slot` under `key`, or re-ranks it if already queued.
    /// Re-ranking under an unchanged key touches nothing, and a re-keyed
    /// head that still sorts first is overwritten where it sits (a lone
    /// runnable thread re-picked over and over moves nothing).
    pub fn upsert(&mut self, slot: u32, key: RunKey) {
        let item = (key, slot);
        if self.keys.len() <= slot as usize {
            self.keys.resize(slot as usize + 1, None);
        }
        match self.queue.front() {
            // The post-pick re-key names the head.  Its queued key is right
            // there, so the key table — a cold line per slot on a large
            // machine — is written but never waited for.
            Some(&(old, head)) if head == slot => {
                if old == key {
                    return;
                }
                self.keys[slot as usize] = Some(key);
                if self.queue.get(1).is_none_or(|next| item < *next) {
                    self.queue[0] = item;
                } else {
                    self.queue.pop_front();
                    self.link(item);
                }
            }
            _ => {
                let old = self.keys[slot as usize];
                if old == Some(key) {
                    return;
                }
                self.keys[slot as usize] = Some(key);
                if let Some(old) = old {
                    self.unlink((old, slot));
                }
                self.link(item);
            }
        }
    }

    /// Removes `slot`, returning the key it was queued under.
    pub fn remove(&mut self, slot: u32) -> Option<RunKey> {
        match self.queue.back() {
            // Likewise the thread that runs into its throttle, or blocks,
            // right after its pick is the tail.
            Some(&(key, tail)) if tail == slot => {
                self.keys[slot as usize] = None;
                self.queue.pop_back();
                Some(key)
            }
            _ => {
                let key = self.keys.get_mut(slot as usize)?.take()?;
                self.unlink((key, slot));
                Some(key)
            }
        }
    }

    /// Inserts `item` at its sorted place, looking for it from the tail.
    fn link(&mut self, item: (RunKey, u32)) {
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
    fn unlink(&mut self, item: (RunKey, u32)) {
        let at = self
            .queue
            .binary_search(&item)
            .expect("the key table names the key every queued slot is sorted under");
        self.queue.remove(at);
    }

    /// Invariant check for tests: the deque is strictly sorted and agrees
    /// with the key table both ways.
    #[cfg(test)]
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
mod tests {
    use super::*;
    use crate::heap::tests::{check_against_oracle, SlotQueue};
    use proptest::prelude::*;

    fn key(g: i64, seq: u64, id: u64) -> RunKey {
        RunKey {
            neg_goodness: -g,
            last_picked_seq: seq,
            id: ThreadId(id),
        }
    }

    #[test]
    fn peek_returns_highest_goodness() {
        let mut q = RunQueue::new();
        q.upsert(0, key(10, 0, 0));
        q.upsert(1, key(30, 0, 1));
        q.upsert(2, key(20, 0, 2));
        assert_eq!(q.peek().unwrap().1, 1);
        assert_eq!(q.len(), 3);
        q.assert_consistent();
    }

    #[test]
    fn ties_break_by_seq_then_id() {
        let mut q = RunQueue::new();
        q.upsert(0, key(10, 5, 0));
        q.upsert(1, key(10, 2, 1));
        assert_eq!(q.peek().unwrap().1, 1, "older pick wins");
        q.upsert(2, key(10, 2, 2));
        assert_eq!(q.peek().unwrap().1, 1, "equal seq: lower id wins");
    }

    #[test]
    fn upsert_reranks_in_place() {
        let mut q = RunQueue::new();
        q.upsert(0, key(10, 0, 0));
        q.upsert(1, key(20, 0, 1));
        q.upsert(0, key(30, 0, 0));
        assert_eq!(q.peek().unwrap().1, 0);
        q.upsert(0, key(1, 0, 0));
        assert_eq!(q.peek().unwrap().1, 1);
        assert_eq!(q.len(), 2);
        q.assert_consistent();
    }

    #[test]
    fn remove_middle_and_absent() {
        let mut q = RunQueue::new();
        for i in 0..10u32 {
            q.upsert(i, key(i as i64, 0, i as u64));
        }
        assert!(q.remove(5).is_some());
        assert!(q.remove(5).is_none(), "double remove");
        assert!(q.remove(99).is_none(), "out-of-range slot");
        assert!(!q.contains(5));
        assert!(q.contains(9));
        assert_eq!(q.len(), 9);
        q.assert_consistent();
        assert_eq!(q.peek().unwrap().1, 9, "highest goodness still on top");
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q = RunQueue::new();
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek(), None);
        assert!(q.remove(0).is_none());
        assert!(!q.contains(0));
    }

    /// The queued slots, front to back.
    fn slots(q: &RunQueue) -> Vec<u32> {
        q.queue.iter().map(|&(_, slot)| slot).collect()
    }

    #[test]
    fn rotation_cycles_a_full_queue_in_pick_order() {
        let mut q = RunQueue::new();
        for slot in (0..20u32).rev() {
            q.upsert(slot, key(5, 0, slot as u64));
        }
        assert_eq!(
            slots(&q),
            (0..20).collect::<Vec<_>>(),
            "never picked: ids break the ties"
        );
        // Two full turns: every pick takes the newest sequence, which makes
        // it the greatest key of the one goodness, and goes to the tail.
        for seq in 1..=40u64 {
            let (_, slot) = q.peek().unwrap();
            assert_eq!(slot as u64, (seq - 1) % 20);
            q.upsert(slot, key(5, seq, slot as u64));
            assert_eq!(q.queue.back().unwrap().1, slot);
            q.assert_consistent();
        }
    }

    /// A released thread re-queues under the sequence it left with: at the
    /// tail, a few places in (found by the walk), one place past the walk
    /// limit and in the middle (found by the binary search), or at the
    /// front.  Each is taken from where it sits and must land back there.
    #[test]
    fn requeue_lands_by_displacement_from_the_tail() {
        let n = 3 * TAIL_WALK;
        let mut q = RunQueue::new();
        for slot in 0..n as u32 {
            q.upsert(slot, key(5, 10 * slot as u64, slot as u64));
        }
        for places_in in [0, 1, TAIL_WALK - 1, TAIL_WALK, TAIL_WALK + 1, n / 2, n - 1] {
            let at = n - 1 - places_in;
            let (k, slot) = q.queue[at];
            assert_eq!(q.remove(slot), Some(k));
            assert!(!q.contains(slot));
            q.upsert(slot, k);
            assert_eq!(
                q.queue[at],
                (k, slot),
                "{places_in} places in from the tail"
            );
            q.assert_consistent();
        }
    }

    #[test]
    fn a_picked_thread_goes_to_its_class_tail_not_the_deque_tail() {
        let mut q = RunQueue::new();
        for slot in 0..3u32 {
            q.upsert(slot, key(1000, 0, slot as u64));
        }
        // Best-effort threads queue behind every reserved one — here more
        // of them than the walk covers.
        let be = 3..3 + 2 * TAIL_WALK as u32;
        for slot in be.clone() {
            q.upsert(slot, key(slot as i64 % 4, 0, slot as u64));
        }
        let behind = slots(&q)[3..].to_vec();
        q.upsert(0, key(1000, 1, 0));
        assert_eq!(slots(&q)[..3], [1, 2, 0]);
        assert_eq!(slots(&q)[3..], behind);
        // And with only two of them left, inside the walk.
        for slot in be.skip(2) {
            q.remove(slot);
        }
        q.upsert(1, key(1000, 2, 1));
        assert_eq!(slots(&q)[..3], [2, 0, 1]);
        assert_eq!(q.len(), 5);
        q.assert_consistent();
    }

    #[test]
    fn a_head_that_still_sorts_first_is_rekeyed_where_it_sits() {
        let mut q = RunQueue::new();
        q.upsert(9, key(1000, 0, 9));
        q.upsert(9, key(1000, 1, 9));
        assert_eq!(q.peek(), Some((key(1000, 1, 9), 9)), "a lone thread");
        for slot in 0..5u32 {
            q.upsert(slot, key(3, slot as u64, slot as u64));
        }
        let rest = slots(&q)[1..].to_vec();
        q.upsert(9, key(1000, 7, 9));
        assert_eq!(q.peek(), Some((key(1000, 7, 9), 9)));
        assert_eq!(slots(&q)[1..], rest);
        assert_eq!(
            q.remove(9),
            Some(key(1000, 7, 9)),
            "found under the new key"
        );
        q.assert_consistent();
    }

    impl SlotQueue<RunKey> for RunQueue {
        fn upsert(&mut self, slot: u32, key: RunKey) {
            RunQueue::upsert(self, slot, key)
        }
        fn remove(&mut self, slot: u32) -> Option<RunKey> {
            RunQueue::remove(self, slot)
        }
        fn peek(&self) -> Option<(RunKey, u32)> {
            RunQueue::peek(self)
        }
        fn len(&self) -> usize {
            RunQueue::len(self)
        }
        fn key_of(&self, slot: u32) -> Option<RunKey> {
            self.keys.get(slot as usize).copied().flatten()
        }
        fn assert_consistent(&self) {
            RunQueue::assert_consistent(self)
        }
    }

    proptest! {
        /// The run queue against the `BTreeSet` oracle the heap is held to:
        /// insert, re-key up and down, remove wherever the slot sits, drain
        /// order.  Few distinct goodness and sequence values, so most keys
        /// tie down to the id.
        #[test]
        fn run_keys_match_the_btreeset_oracle(
            ops in proptest::collection::vec(
                (0u32..24, 0u8..5, -4i64..4, 0u64..6), 1..300),
        ) {
            let ops: Vec<(u32, u8, RunKey)> = ops
                .into_iter()
                .map(|(slot, op, g, seq)| (slot, op, key(g, seq, slot as u64)))
                .collect();
            check_against_oracle::<_, RunQueue>(&ops);
        }

        #[test]
        fn matches_naive_min_under_random_ops(
            ops in proptest::collection::vec((0u32..16, 0u8..3, -50i64..50, 0u64..4), 1..200),
        ) {
            let mut q = RunQueue::new();
            let mut oracle: std::collections::BTreeMap<u32, RunKey> = Default::default();
            for &(slot, op, g, seq) in &ops {
                match op {
                    0 | 1 => {
                        let k = key(g, seq, slot as u64);
                        q.upsert(slot, k);
                        oracle.insert(slot, k);
                    }
                    _ => {
                        prop_assert_eq!(q.remove(slot), oracle.remove(&slot));
                    }
                }
                q.assert_consistent();
                let naive = oracle.iter().map(|(&s, &k)| (k, s)).min();
                prop_assert_eq!(q.peek(), naive);
                prop_assert_eq!(q.len(), oracle.len());
            }
        }
    }
}
