//! The goodness-ordered runnable queue.
//!
//! The dispatcher used to pick the next thread with a full scan over every
//! registered thread — `O(n)` per dispatch, paid even when one thread spins
//! alone on a 10k-job machine.  The runnable threads instead sit in
//! [`RunQueue`], the sorted deque of [`crate::deque`] under the dispatch
//! key (goodness, recency, id), addressed by dense thread slot (mirroring
//! the controller's `SlotTable`), so the pick is the front of the deque.
//!
//! The order is sorted rather than heap order because of what a saturated
//! CPU does to it.  RBS only ranks threads by goodness, and "jobs with
//! shorter periods have higher goodness values" (§3.1), so the runnable
//! threads of a busy CPU share one or two goodness values.  The dispatcher
//! pops its pick off the front, and the pick stays off the queue for as
//! long as it stays runnable.  It comes back only when a later slow
//! dispatch finds it outranked, under the newest pick sequence, the
//! greatest key of its goodness: the tail of its class, where a heap would
//! sift it from the root to a leaf.  On a saturated CPU it nearly never
//! comes back — the span ends in a throttle — and on an uncontended one it
//! is never outranked, so a pick costs one pop or none.  It is not a plain
//! FIFO, though.  A thread released from a throttle or woken from a block
//! comes back under the pick sequence it *left* with, which is among the
//! newest but not always the newest — hence the deque's walk in from the
//! tail.  Measured over whole `--seconds 1` runs of the repo benchmark:
//!
//! | run-queue links                        | `spin_saturated` | `sharded_churn` | `pipeline_blocking` | `spin_uncontended` |
//! |----------------------------------------|------------------|-----------------|---------------------|--------------------|
//! | picks re-linked, per slow dispatch     | 0.009            | 0.11            | 0.75                | 0                  |
//! | … landing exactly on the tail          | 100 %            | 100 %           | 100 %               | —                  |
//! | other links (release, wake, admission) | 1 451 296        | 2 914 714       | 1 028 194           | 7 296              |
//! | … landing exactly on the tail          | 95.9 %           | 17.7 %          | 2.0 %               | 100 %              |
//! | … at most 7 places in                  | 96.5 %           | 70.4 %          | 94.3 %              | 100 %              |
//! | … mean places in / worst               | 1.4 / 102        | 12.9 / 518      | 2.6 / 24            | 0 / 0              |
//!
//! Its costs are stated in [`crate::deque`].

use crate::deque::SortedDeque;
use crate::types::ThreadId;

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

/// The runnable threads in ascending [`RunKey`] order — the front is the
/// dispatcher's pick.
pub(crate) type RunQueue = SortedDeque<RunKey>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deque::tests::check_against_oracle;
    use crate::deque::TAIL_WALK;
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
        let mut q = RunQueue::default();
        q.insert(0, key(10, 0, 0));
        q.insert(1, key(30, 0, 1));
        q.insert(2, key(20, 0, 2));
        assert_eq!(q.peek().unwrap().1, 1);
        assert_eq!(q.len(), 3);
        q.assert_consistent();
    }

    #[test]
    fn ties_break_by_seq_then_id() {
        let mut q = RunQueue::default();
        q.insert(0, key(10, 5, 0));
        q.insert(1, key(10, 2, 1));
        assert_eq!(q.peek().unwrap().1, 1, "older pick wins");
        q.insert(2, key(10, 2, 2));
        assert_eq!(q.peek().unwrap().1, 1, "equal seq: lower id wins");
    }

    /// A re-rank is a removal under the key the slot is queued under and
    /// an insert under the new one.
    #[test]
    fn a_re_rank_reorders_in_place() {
        let mut q = RunQueue::default();
        q.insert(0, key(10, 0, 0));
        q.insert(1, key(20, 0, 1));
        assert!(q.remove(0, key(10, 0, 0)));
        q.insert(0, key(30, 0, 0));
        assert_eq!(q.peek().unwrap().1, 0);
        assert!(!q.remove(0, key(10, 0, 0)), "not under its old key");
        assert!(q.remove(0, key(30, 0, 0)));
        q.insert(0, key(1, 0, 0));
        assert_eq!(q.peek().unwrap().1, 1);
        assert_eq!(q.len(), 2);
        q.assert_consistent();
    }

    #[test]
    fn remove_middle_and_absent() {
        let mut q = RunQueue::default();
        for i in 0..10u32 {
            q.insert(i, key(i as i64, 0, i as u64));
        }
        assert!(q.remove(5, key(5, 0, 5)));
        assert!(!q.remove(5, key(5, 0, 5)), "double remove");
        assert!(!q.remove(99, key(5, 0, 5)), "out-of-range slot");
        assert_eq!(q.key_of(5), None);
        assert!(q.key_of(9).is_some());
        assert_eq!(q.len(), 9);
        q.assert_consistent();
        assert_eq!(q.peek().unwrap().1, 9, "highest goodness still on top");
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q = RunQueue::default();
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek(), None);
        assert!(!q.remove(0, key(0, 0, 0)));
        assert_eq!(q.key_of(0), None);
    }

    /// The queued slots, front to back.
    fn slots(q: &RunQueue) -> Vec<u32> {
        q.iter().map(|(_, slot)| slot).collect()
    }

    #[test]
    fn rotation_cycles_a_full_queue_in_pick_order() {
        let mut q = RunQueue::default();
        for slot in (0..20u32).rev() {
            q.insert(slot, key(5, 0, slot as u64));
        }
        assert_eq!(
            slots(&q),
            (0..20).collect::<Vec<_>>(),
            "never picked: ids break the ties"
        );
        // Two full turns: every pick is popped, takes the newest sequence,
        // which makes it the greatest key of the one goodness, and is
        // re-linked at the tail.
        for seq in 1..=40u64 {
            let (_, slot) = q.pop_front().unwrap();
            assert_eq!(slot as u64, (seq - 1) % 20);
            q.insert(slot, key(5, seq, slot as u64));
            assert_eq!(q.iter().next_back().unwrap().1, slot);
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
        let mut q = RunQueue::default();
        for slot in 0..n as u32 {
            q.insert(slot, key(5, 10 * slot as u64, slot as u64));
        }
        for places_in in [0, 1, TAIL_WALK - 1, TAIL_WALK, TAIL_WALK + 1, n / 2, n - 1] {
            let at = n - 1 - places_in;
            let (k, slot) = q.iter().nth(at).unwrap();
            assert!(q.remove(slot, k));
            assert_eq!(q.key_of(slot), None);
            q.insert(slot, k);
            assert_eq!(
                q.iter().nth(at),
                Some((k, slot)),
                "{places_in} places in from the tail"
            );
            q.assert_consistent();
        }
    }

    #[test]
    fn a_picked_thread_goes_to_its_class_tail_not_the_deque_tail() {
        let mut q = RunQueue::default();
        for slot in 0..3u32 {
            q.insert(slot, key(1000, 0, slot as u64));
        }
        // Lower-goodness (longer-period) threads queue behind them — here
        // more of them than the walk covers.
        let low = 3..3 + 2 * TAIL_WALK as u32;
        for slot in low.clone() {
            q.insert(slot, key(slot as i64 % 4, 0, slot as u64));
        }
        let behind = slots(&q)[3..].to_vec();
        assert_eq!(q.pop_front().map(|(_, slot)| slot), Some(0));
        q.insert(0, key(1000, 1, 0));
        assert_eq!(slots(&q)[..3], [1, 2, 0]);
        assert_eq!(slots(&q)[3..], behind);
        // And with only two of them left, inside the walk.
        for slot in low.skip(2) {
            assert!(q.remove(slot, key(slot as i64 % 4, 0, slot as u64)));
        }
        assert_eq!(q.pop_front().map(|(_, slot)| slot), Some(1));
        q.insert(1, key(1000, 2, 1));
        assert_eq!(slots(&q)[..3], [2, 0, 1]);
        assert_eq!(q.len(), 5);
        q.assert_consistent();
    }

    /// A pick that still outranks every queued thread — a lone one, or one
    /// above the rest's goodness — is re-linked at the front, and nothing
    /// behind it moves.
    #[test]
    fn a_popped_pick_that_still_sorts_first_relinks_at_the_front() {
        let mut q = RunQueue::default();
        q.insert(9, key(1000, 0, 9));
        assert_eq!(q.pop_front(), Some((key(1000, 0, 9), 9)));
        assert_eq!(q.len(), 0);
        q.insert(9, key(1000, 1, 9));
        assert_eq!(q.peek(), Some((key(1000, 1, 9), 9)), "a lone thread");
        for slot in 0..5u32 {
            q.insert(slot, key(3, slot as u64, slot as u64));
        }
        let rest = slots(&q)[1..].to_vec();
        assert_eq!(q.pop_front().map(|(_, slot)| slot), Some(9));
        assert_eq!(slots(&q), rest, "the pick is off the queue");
        q.insert(9, key(1000, 7, 9));
        assert_eq!(q.peek(), Some((key(1000, 7, 9), 9)));
        assert_eq!(slots(&q)[1..], rest);
        assert!(!q.remove(9, key(1000, 1, 9)), "not under an old key");
        assert!(q.remove(9, key(1000, 7, 9)), "found under the new key");
        q.assert_consistent();
    }

    proptest! {
        /// The run queue against the `BTreeSet` oracle the timer list is held to:
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
            let mut q = RunQueue::default();
            let mut oracle: std::collections::BTreeMap<u32, RunKey> = Default::default();
            for &(slot, op, g, seq) in &ops {
                match op {
                    0 | 1 => {
                        let k = key(g, seq, slot as u64);
                        if let Some(old) = oracle.insert(slot, k) {
                            prop_assert!(q.remove(slot, old));
                        }
                        q.insert(slot, k);
                    }
                    _ => {
                        if let Some(old) = oracle.remove(&slot) {
                            prop_assert!(q.remove(slot, old));
                        }
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
