//! The sorted timer list used by the dispatcher.
//!
//! "We keep a list of timers used by RBS threads, sorted by time of expiry,
//! and cache the next expiration time to avoid doing any work unless at
//! least one timer has expired" (§4.1).
//!
//! Timers are keyed by the dispatcher's dense thread slot and kept in the
//! sorted deque of `deque.rs` — the one the run queue sits on — under
//! `(expiry, ThreadId)`.  The front *is* the cached
//! next expiry, so the nothing-expired check and a popped expiry are
//! `O(1)`, and the pop hands the dispatcher the slot directly, with no id →
//! slot map on the [`pop_next_expired`](TimerList::pop_next_expired) hot
//! path.  Only a throttled thread holds a timer, armed for its release at
//! its next period boundary, which on a busy CPU is later than nearly
//! every timer already armed, so [`arm`](TimerList::arm) finds its place
//! by walking in from the tail (96 % of arms land exactly on it on
//! `spin_saturated`; the full displacement table, and the mid-list worst
//! case — an arm that shifts `min(i, n − i)` entries — are in `deque.rs`).
//! Equal expiries pop in [`ThreadId`] order, as they did when the list was
//! a sorted set of `(expiry, thread, slot)`, and re-arming a timer at the
//! expiry it already has moves nothing.

use crate::deque::SortedDeque;
use crate::types::ThreadId;

/// The armed `(expiry, thread)` timers, at most one per dense slot,
/// ordered by expiry.
#[derive(Debug, Clone, Default)]
pub struct TimerList {
    timers: SortedDeque<(u64, ThreadId)>,
}

impl TimerList {
    /// Creates an empty timer list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms (or re-arms) a timer for the thread in dense slot `slot` at
    /// `expiry_us`.  A slot has at most one timer: any existing timer for
    /// it is replaced.
    pub fn arm(&mut self, slot: u32, thread: ThreadId, expiry_us: u64) {
        self.timers.upsert(slot, (expiry_us, thread));
    }

    /// Cancels the timer for `slot`; returns `true` if one existed.
    pub fn cancel(&mut self, slot: u32) -> bool {
        self.timers.remove(slot).is_some()
    }

    /// The next expiry time, if any timer is armed.
    pub(crate) fn next_expiry(&self) -> Option<u64> {
        self.timers.peek().map(|((expiry, _), _)| expiry)
    }

    /// The armed expiry of `slot`'s timer, if it has one.
    #[cfg(test)]
    pub(crate) fn expiry_of(&self, slot: u32) -> Option<u64> {
        self.timers.key_of(slot).map(|(expiry, _)| expiry)
    }

    /// Removes the earliest timer with `expiry <= now_us`, if any, and
    /// returns its slot.  Constant-time when nothing has expired, which is
    /// the common case the paper optimises for; callers drain expiries one
    /// at a time.
    pub fn pop_next_expired(&mut self, now_us: u64) -> Option<u32> {
        if self.next_expiry().is_none_or(|t| t > now_us) {
            return None;
        }
        self.timers.pop_front().map(|(_, slot)| slot)
    }

    /// Number of armed timers.
    pub fn len(&self) -> usize {
        self.timers.len()
    }

    /// Returns `true` if no timers are armed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deque::tests::{check_against_oracle, SlotQueue};
    use crate::deque::TAIL_WALK;
    use proptest::prelude::*;

    /// Tests arm each slot `s` for `ThreadId(s)`, the common dispatcher
    /// shape.
    fn arm(tl: &mut TimerList, slot: u32, expiry: u64) {
        tl.arm(slot, ThreadId(slot as u64), expiry);
    }

    /// Every slot whose timer has expired by `now_us`, in pop order.
    fn pop_expired(tl: &mut TimerList, now_us: u64) -> Vec<u32> {
        std::iter::from_fn(|| tl.pop_next_expired(now_us)).collect()
    }

    #[test]
    fn arm_and_pop_in_order() {
        let mut tl = TimerList::new();
        arm(&mut tl, 1, 300);
        arm(&mut tl, 2, 100);
        arm(&mut tl, 3, 200);
        assert_eq!(tl.next_expiry(), Some(100));
        let expired = pop_expired(&mut tl, 250);
        assert_eq!(expired, vec![2, 3]);
        assert_eq!(tl.len(), 1);
        assert_eq!(tl.next_expiry(), Some(300));
    }

    #[test]
    fn nothing_expired_is_cheap_and_empty() {
        let mut tl = TimerList::new();
        arm(&mut tl, 1, 1000);
        assert!(pop_expired(&mut tl, 500).is_empty());
        assert_eq!(tl.pop_next_expired(500), None);
        assert_eq!(tl.len(), 1);
        assert!(pop_expired(&mut TimerList::new(), 1_000_000).is_empty());
    }

    #[test]
    fn rearming_replaces_existing_timer() {
        let mut tl = TimerList::new();
        arm(&mut tl, 1, 100);
        arm(&mut tl, 1, 500);
        assert_eq!(tl.len(), 1);
        assert_eq!(tl.expiry_of(1), Some(500));
        assert!(pop_expired(&mut tl, 200).is_empty());
        assert_eq!(pop_expired(&mut tl, 500), vec![1]);
        assert_eq!(tl.expiry_of(1), None);
    }

    #[test]
    fn cancel_removes_timer() {
        let mut tl = TimerList::new();
        arm(&mut tl, 1, 100);
        assert!(tl.cancel(1));
        assert!(!tl.cancel(1));
        assert!(!tl.cancel(99), "never-armed slot is a no-op");
        assert!(tl.is_empty());
        assert_eq!(tl.next_expiry(), None);
        assert_eq!(tl.expiry_of(1), None);
    }

    #[test]
    fn same_expiry_orders_by_thread_id() {
        let mut tl = TimerList::new();
        // Slot order disagrees with id order on purpose: the id breaks the
        // tie, exactly as the id-keyed original did.
        tl.arm(7, ThreadId(2), 100);
        tl.arm(3, ThreadId(9), 100);
        assert_eq!(pop_expired(&mut tl, 100), vec![7, 3]);
    }

    /// The armed slots, next to expire first.
    fn slots(tl: &TimerList) -> Vec<u32> {
        tl.timers.iter().map(|(_, slot)| slot).collect()
    }

    /// A timer armed for a later boundary than all the rest goes on the
    /// tail; one that lands a few places in is found by the walk, one place
    /// past the walk limit and beyond by the binary search, and the
    /// earliest of all goes to the front.
    #[test]
    fn arm_lands_by_displacement_from_the_tail() {
        let n = 3 * TAIL_WALK as u32;
        let mut tl = TimerList::new();
        for slot in 0..n {
            arm(&mut tl, slot, 1000 * (slot as u64 + 1));
        }
        let mut next = n;
        for places_in in [0, 1, TAIL_WALK - 1, TAIL_WALK, TAIL_WALK + 1] {
            let before = slots(&tl);
            let at = before.len() - places_in;
            // Half-way between its neighbours' expiries (past the tail's
            // for the tail).
            let earlier = tl.expiry_of(before[at - 1]).unwrap();
            let later = before
                .get(at)
                .map_or(earlier + 1000, |&s| tl.expiry_of(s).unwrap());
            let expiry = (earlier + later) / 2;
            arm(&mut tl, next, expiry);
            let mut expected = before;
            expected.insert(at, next);
            assert_eq!(slots(&tl), expected, "{places_in} places in");
            tl.timers.assert_consistent();
            next += 1;
        }
        arm(&mut tl, next, 1);
        assert_eq!(slots(&tl)[0], next, "at the front");
        assert_eq!(tl.next_expiry(), Some(1));
        tl.timers.assert_consistent();
    }

    #[test]
    fn rearm_at_the_same_expiry_and_cancel_wherever_it_sits() {
        let mut tl = TimerList::new();
        for slot in 0..10u32 {
            arm(&mut tl, slot, 100 + slot as u64);
        }
        let before = slots(&tl);
        arm(&mut tl, 4, 104);
        arm(&mut tl, 0, 100);
        assert_eq!(slots(&tl), before, "re-armed in place");
        assert!(tl.cancel(0), "at the front");
        assert_eq!(tl.next_expiry(), Some(101));
        assert!(tl.cancel(5), "in the middle");
        assert!(tl.cancel(9), "on the tail");
        assert!(!tl.cancel(5), "already cancelled");
        assert!(!tl.cancel(77), "never armed");
        assert_eq!(slots(&tl), vec![1, 2, 3, 4, 6, 7, 8]);
        tl.timers.assert_consistent();
    }

    impl SlotQueue<(u64, ThreadId)> for TimerList {
        fn upsert(&mut self, slot: u32, (expiry, thread): (u64, ThreadId)) {
            self.arm(slot, thread, expiry)
        }
        fn remove(&mut self, slot: u32) -> Option<(u64, ThreadId)> {
            let key = self.timers.key_of(slot);
            assert_eq!(self.cancel(slot), key.is_some());
            key
        }
        fn peek(&self) -> Option<((u64, ThreadId), u32)> {
            self.timers.peek()
        }
        fn len(&self) -> usize {
            TimerList::len(self)
        }
        fn key_of(&self, slot: u32) -> Option<(u64, ThreadId)> {
            self.timers.key_of(slot)
        }
        fn assert_consistent(&self) {
            self.timers.assert_consistent()
        }
        fn pop(&mut self) -> Option<((u64, ThreadId), u32)> {
            let min = self.timers.peek()?;
            assert_eq!(self.pop_next_expired(min.0 .0 - 1), None, "not yet due");
            assert_eq!(self.pop_next_expired(min.0 .0), Some(min.1));
            Some(min)
        }
    }

    proptest! {
        /// The timer list through its public surface against the
        /// `BTreeSet` oracle the run queue is held to.  The narrow expiry
        /// range forces equal-expiry ties, and ids run against slot order
        /// so the id (not the slot) is what breaks them.
        #[test]
        fn timer_keys_match_the_btreeset_oracle(
            ops in proptest::collection::vec((0u32..24, 0u8..5, 1u64..9), 1..300),
        ) {
            let ops: Vec<(u32, u8, (u64, ThreadId))> = ops
                .into_iter()
                .map(|(slot, op, expiry)| (slot, op, (expiry, ThreadId(100 - slot as u64))))
                .collect();
            check_against_oracle::<_, TimerList>(&ops);
        }

        #[test]
        fn pop_expired_returns_sorted_and_complete(
            entries in proptest::collection::vec((0u64..1000, 0u32..50), 0..50),
            cutoff in 0u64..1000,
        ) {
            let mut tl = TimerList::new();
            // Last arm per slot wins.
            let mut expected: std::collections::BTreeMap<u32, u64> = Default::default();
            for &(expiry, slot) in &entries {
                arm(&mut tl, slot, expiry);
                expected.insert(slot, expiry);
            }
            // The reverse index agrees with the final arms.
            for (&slot, &expiry) in &expected {
                prop_assert_eq!(tl.expiry_of(slot), Some(expiry));
            }
            let expired = pop_expired(&mut tl, cutoff);
            // Every returned slot's final expiry is within the cutoff.
            for s in &expired {
                prop_assert!(expected[s] <= cutoff);
            }
            // Every slot with expiry within the cutoff was returned.
            let should_expire = expected.iter().filter(|(_, &e)| e <= cutoff).count();
            prop_assert_eq!(expired.len(), should_expire);
            // Remaining timers are all after the cutoff.
            prop_assert!(tl.next_expiry().is_none_or(|t| t > cutoff));
            // Popped slots are gone from the reverse index too.
            for s in &expired {
                prop_assert_eq!(tl.expiry_of(*s), None);
            }
        }

        #[test]
        fn cancel_against_oracle(
            entries in proptest::collection::vec((0u64..1000, 0u32..20), 0..40),
            cancels in proptest::collection::vec(0u32..20, 0..20),
        ) {
            let mut tl = TimerList::new();
            let mut oracle: std::collections::BTreeMap<u32, u64> = Default::default();
            for &(expiry, slot) in &entries {
                arm(&mut tl, slot, expiry);
                oracle.insert(slot, expiry);
            }
            for &slot in &cancels {
                prop_assert_eq!(tl.cancel(slot), oracle.remove(&slot).is_some());
            }
            prop_assert_eq!(tl.len(), oracle.len());
            prop_assert_eq!(tl.next_expiry(), oracle.values().min().copied());
        }
    }
}
