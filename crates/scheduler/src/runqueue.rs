//! The goodness-indexed runnable queue.
//!
//! The dispatcher used to pick the next thread with a full scan over every
//! registered thread — `O(n)` per dispatch, paid even when one thread spins
//! alone on a 10k-job machine.  The runnable threads instead sit in the
//! dispatcher's [`IndexedHeap`] ordered by the dispatch key (goodness,
//! recency, id) and addressed by dense thread slot (mirroring the
//! controller's `SlotTable`), so the pick is an `O(1)` peek and every
//! re-rank on a state change is `O(log n)`, with no per-operation
//! allocation once the heap has grown to the population's high-water mark.

use crate::heap::IndexedHeap;
use crate::types::ThreadId;

/// The dispatch-priority key, ordered so that the *smallest* key is the
/// thread the dispatcher must pick.
///
/// Replicates the full-scan pick exactly: highest goodness first (stored
/// negated), least-recently-picked second, lowest thread id last.  The id
/// makes every key unique, so the heap's minimum is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct RunKey {
    /// Negated goodness: higher goodness sorts first.
    pub neg_goodness: i64,
    /// Sequence number of the thread's last pick: earlier picks sort first.
    pub last_picked_seq: u64,
    /// Tie-break, and the payload the dispatcher reads back.
    pub id: ThreadId,
}

/// The runnable threads, keyed by [`RunKey`] and addressed by dense
/// thread-slot index.
pub(crate) type RunQueue = IndexedHeap<RunKey>;

#[cfg(test)]
mod tests {
    use super::*;
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

    proptest! {
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
