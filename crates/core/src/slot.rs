//! Dense slot-indexed job storage.
//!
//! The controller's steady-state cycle iterates every managed job.  With a
//! `BTreeMap<JobId, _>` that walk is pointer-chasing and every id lookup
//! pays `O(log n)`; with a dense `Vec` it is a cache-friendly linear scan
//! and a [`JobSlot`] resolves in `O(1)`.  Slots are generational so a
//! handle left over from a removed job can never silently alias a new one:
//! removal frees the slot index onto a free list and bumps its generation,
//! invalidating stale handles.
//!
//! The same handle is shared by every layer of the system — the simulator,
//! the wall-clock executor and the benches carry the `JobSlot` next to
//! their own thread handle instead of re-deriving `JobId ↔ ThreadId ↔
//! JobKey` mappings each cycle.

use rrs_scheduler::IdMap;
use serde::{Deserialize, Serialize};

/// A dense, generational handle to a job managed by the controller.
///
/// Obtained from [`crate::Controller::add_job`]; `O(1)` to resolve,
/// invalidated by removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobSlot {
    index: u32,
    generation: u32,
}

impl JobSlot {
    /// The dense index of this slot, usable for parallel side tables.
    ///
    /// Indices are reused after removal; pair with the generation (the full
    /// `JobSlot`) when staleness matters.
    pub fn index(self) -> usize {
        self.index as usize
    }
}

impl std::fmt::Display for JobSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "slot{}.{}", self.index, self.generation)
    }
}

/// Dense storage of `T` keyed by [`JobSlot`], with a by-id index.
///
/// Iteration order is slot order (insertion order, with removed slots
/// reused LIFO), not id order.
#[derive(Debug)]
pub(crate) struct SlotTable<Id: Copy + Eq + Into<u64>, T> {
    entries: Vec<Option<(Id, T)>>,
    generations: Vec<u32>,
    free: Vec<u32>,
    by_id: IdMap<Id, JobSlot>,
}

impl<Id: Copy + Eq + Into<u64>, T> Default for SlotTable<Id, T> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            by_id: IdMap::new(),
        }
    }
}

impl<Id: Copy + Eq + Into<u64>, T> SlotTable<Id, T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Upper bound (exclusive) of live slot indices; the capacity side
    /// tables indexed by [`JobSlot::index`] must have.
    pub(crate) fn dense_len(&self) -> usize {
        self.entries.len()
    }

    /// Inserts an entry, returning its slot, or `None` if the id is taken.
    pub fn insert(&mut self, id: Id, value: T) -> Option<JobSlot> {
        if self.by_id.contains(id) {
            return None;
        }
        let slot = match self.free.pop() {
            Some(index) => JobSlot {
                index,
                generation: self.generations[index as usize],
            },
            None => {
                let index = u32::try_from(self.entries.len()).expect("fewer than 2^32 jobs");
                self.entries.push(None);
                self.generations.push(0);
                JobSlot {
                    index,
                    generation: 0,
                }
            }
        };
        self.entries[slot.index()] = Some((id, value));
        self.by_id.insert(id, slot);
        Some(slot)
    }

    /// The slot currently assigned to `id`.
    pub fn slot_of(&self, id: Id) -> Option<JobSlot> {
        self.by_id.get(id)
    }

    /// The live slot at dense index `index`, if one is.
    pub(crate) fn slot_at(&self, index: u32) -> Option<JobSlot> {
        self.entries.get(index as usize)?.as_ref()?;
        Some(JobSlot {
            index,
            generation: self.generations[index as usize],
        })
    }

    /// The id stored at `slot`, if the slot is live and current.
    pub(crate) fn id_of(&self, slot: JobSlot) -> Option<Id> {
        self.check(slot)?;
        self.entries[slot.index()].as_ref().map(|(id, _)| *id)
    }

    fn check(&self, slot: JobSlot) -> Option<()> {
        if self.generations.get(slot.index()) == Some(&slot.generation) {
            Some(())
        } else {
            None
        }
    }

    /// Shared access by slot.
    pub fn get(&self, slot: JobSlot) -> Option<&T> {
        self.check(slot)?;
        self.entries[slot.index()].as_ref().map(|(_, v)| v)
    }

    /// Exclusive access by slot.
    pub fn get_mut(&mut self, slot: JobSlot) -> Option<&mut T> {
        self.check(slot)?;
        self.entries[slot.index()].as_mut().map(|(_, v)| v)
    }

    /// Shared access by id.
    pub(crate) fn get_by_id(&self, id: Id) -> Option<&T> {
        self.get(self.slot_of(id)?)
    }

    /// Exclusive access by dense index ([`JobSlot::index`]), with the slot
    /// handle and id, for walks over a set of indices.  `None` for a hole
    /// (a freed index) or an index past [`SlotTable::dense_len`].
    pub(crate) fn entry_at_mut(&mut self, index: usize) -> Option<(JobSlot, Id, &mut T)> {
        let (id, value) = self.entries.get_mut(index)?.as_mut()?;
        let slot = JobSlot {
            index: index as u32,
            generation: self.generations[index],
        };
        Some((slot, *id, value))
    }

    /// Removes the entry for `id`, freeing its slot for reuse.
    pub fn remove(&mut self, id: Id) -> Option<(JobSlot, T)> {
        let slot = self.by_id.remove(id)?;
        let (_, value) = self.entries[slot.index()]
            .take()
            .expect("indexed entry is live");
        self.generations[slot.index()] = self.generations[slot.index()].wrapping_add(1);
        self.free.push(slot.index);
        Some((slot, value))
    }

    /// Iterates live entries in slot order without allocating.
    pub fn iter(&self) -> impl Iterator<Item = (JobSlot, Id, &T)> {
        self.entries.iter().enumerate().filter_map(move |(i, e)| {
            e.as_ref().map(|(id, v)| {
                (
                    JobSlot {
                        index: i as u32,
                        generation: self.generations[i],
                    },
                    *id,
                    v,
                )
            })
        })
    }

    /// Iterates live entries mutably in slot order without allocating.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (JobSlot, Id, &mut T)> {
        let generations = &self.generations;
        self.entries
            .iter_mut()
            .enumerate()
            .filter_map(move |(i, e)| {
                e.as_mut().map(|(id, v)| {
                    (
                        JobSlot {
                            index: i as u32,
                            generation: generations[i],
                        },
                        *id,
                        v,
                    )
                })
            })
    }
}

/// A set of dense indices as a bitset, walked in index order one 64-index
/// word at a time.
///
/// The controller keeps its dirty slots ([`JobSlot::index`]) in one.
#[derive(Debug, Default)]
pub(crate) struct SlotSet {
    words: Vec<u64>,
}

impl SlotSet {
    /// Empties the set and sizes it for indices below `dense_len`.
    pub(crate) fn reset(&mut self, dense_len: usize) {
        self.words.clear();
        self.words.resize(dense_len.div_ceil(64), 0);
    }

    /// Adds `index`.  An index past the sized range is ignored, which is
    /// sound for the controller's use: such a slot was created after the
    /// last rebuild sized the set, and that structural change already
    /// forces the next cycle to rebuild and re-mark every live slot.
    pub(crate) fn insert(&mut self, index: usize) {
        if let Some(word) = self.words.get_mut(index / 64) {
            *word |= 1 << (index % 64);
        }
    }

    /// Removes `index`; an index past the sized range was never a member.
    pub(crate) fn remove(&mut self, index: usize) {
        if let Some(word) = self.words.get_mut(index / 64) {
            *word &= !(1 << (index % 64));
        }
    }

    /// Whether `index` is a member.
    pub(crate) fn contains(&self, index: usize) -> bool {
        self.words
            .get(index / 64)
            .is_some_and(|word| word & (1 << (index % 64)) != 0)
    }

    /// Number of 64-index words in the sized range.
    pub(crate) fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Word `w`: bit `b` set means index `64·w + b` is a member.
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.words[w]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut t: SlotTable<u64, &str> = SlotTable::new();
        let a = t.insert(10, "a").unwrap();
        let b = t.insert(20, "b").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a), Some(&"a"));
        assert_eq!(t.get_by_id(20), Some(&"b"));
        assert_eq!(t.slot_of(10), Some(a));
        assert_eq!(t.id_of(b), Some(20));
        assert_eq!(t.remove(10), Some((a, "a")));
        assert_eq!(t.get(a), None, "stale handle must not resolve");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let mut t: SlotTable<u64, u8> = SlotTable::new();
        t.insert(1, 0).unwrap();
        assert!(t.insert(1, 1).is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn slots_are_reused_with_new_generations() {
        let mut t: SlotTable<u64, u8> = SlotTable::new();
        let a = t.insert(1, 0).unwrap();
        t.remove(1);
        let b = t.insert(2, 1).unwrap();
        assert_eq!(a.index(), b.index(), "freed slot index is reused");
        assert_ne!(a.generation, b.generation);
        assert_eq!(t.get(a), None, "old generation stays dead");
        assert_eq!(t.get(b), Some(&1));
        assert_eq!(t.dense_len(), 1, "no dense growth on reuse");
    }

    #[test]
    fn iteration_is_slot_ordered_and_skips_holes() {
        let mut t: SlotTable<u64, u8> = SlotTable::new();
        t.insert(5, 50).unwrap();
        t.insert(3, 30).unwrap();
        t.insert(9, 90).unwrap();
        t.remove(3);
        let seen: Vec<(u64, u8)> = t.iter().map(|(_, id, v)| (id, *v)).collect();
        assert_eq!(seen, vec![(5, 50), (9, 90)]);
        for (_, _, v) in t.iter_mut() {
            *v += 1;
        }
        assert_eq!(t.get_by_id(5), Some(&51));
    }

    #[test]
    fn entry_at_mut_resolves_live_indices_only() {
        let mut t: SlotTable<u64, u8> = SlotTable::new();
        let a = t.insert(1, 10).unwrap();
        let b = t.insert(2, 20).unwrap();
        t.remove(1);
        assert!(
            t.entry_at_mut(a.index()).is_none(),
            "a hole resolves to None"
        );
        let (slot, id, value) = t.entry_at_mut(b.index()).unwrap();
        assert_eq!((slot, id, *value), (b, 2, 20));
        assert!(t.entry_at_mut(2).is_none(), "past the dense range");
    }

    #[test]
    fn slot_set_tracks_members_and_ignores_unsized_indices() {
        let mut s = SlotSet::default();
        s.insert(3);
        assert!(!s.contains(3), "unsized: ignored");
        s.reset(130);
        assert_eq!(s.word_count(), 3);
        for i in [0, 63, 64, 129] {
            s.insert(i);
        }
        s.insert(192);
        assert_eq!(s.word(0), 1 | 1 << 63);
        assert_eq!(s.word(1), 1);
        assert_eq!(s.word(2), 1 << 1);
        s.remove(63);
        assert!(s.contains(0) && !s.contains(63) && !s.contains(192));
        s.remove(4096);
        assert!(s.contains(0));
        s.reset(130);
        assert!(
            (0..s.word_count()).all(|w| s.word(w) == 0),
            "reset empties the set"
        );
    }

    #[test]
    fn remove_slot_checks_generation() {
        let mut t: SlotTable<u64, u8> = SlotTable::new();
        let a = t.insert(1, 0).unwrap();
        t.remove(1);
        t.insert(2, 1).unwrap();
        // `Controller::remove_slot` resolves the slot first; a stale one
        // names no id, so it cannot remove its index's next tenant.
        assert_eq!(t.id_of(a), None, "stale slot cannot remove");
        assert_eq!(t.len(), 1);
    }
}
