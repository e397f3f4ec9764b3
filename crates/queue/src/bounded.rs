//! A thread-safe bounded FIFO exposing its fill level.

use crate::metric::{FillSample, ProgressMetric};
use parking_lot::Mutex;
use std::collections::VecDeque;

/// Error returned by [`BoundedBuffer::try_push`] when the buffer is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Full<T>(
    /// The item that could not be enqueued.
    pub T,
);

/// A bounded multi-producer multi-consumer FIFO with an observable fill
/// level — the shared-queue symbiotic interface of §3.2.
///
/// Operations never block: a work model that finds the buffer full or
/// empty reports itself blocked to its host, which models the wait (the
/// simulator) or re-polls it (the wall-clock executor).
///
/// # Examples
///
/// ```
/// use rrs_queue::{BoundedBuffer, ProgressMetric};
///
/// let buf = BoundedBuffer::new("frames", 4);
/// buf.try_push(1).unwrap();
/// buf.try_push(2).unwrap();
/// assert_eq!(buf.len(), 2);
/// assert_eq!(buf.sample().fraction(), 0.5);
/// assert_eq!(buf.try_pop(), Some(1));
/// ```
pub struct BoundedBuffer<T> {
    name: String,
    capacity: usize,
    queue: Mutex<VecDeque<T>>,
}

impl<T> BoundedBuffer<T> {
    /// Creates a buffer with the given name and capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "bounded buffer capacity must be non-zero");
        Self {
            name: name.into(),
            capacity,
            queue: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// Returns the buffer capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns the current number of queued items.
    pub fn len(&self) -> usize {
        self.queue.lock().len()
    }

    /// Returns `true` if the buffer holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if the buffer is at capacity.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Attempts to enqueue without blocking; returns the item back inside
    /// [`Full`] if the buffer is at capacity.
    pub fn try_push(&self, item: T) -> Result<(), Full<T>> {
        let mut queue = self.queue.lock();
        if queue.len() >= self.capacity {
            return Err(Full(item));
        }
        queue.push_back(item);
        Ok(())
    }

    /// Attempts to dequeue without blocking.
    pub fn try_pop(&self) -> Option<T> {
        self.queue.lock().pop_front()
    }

    /// Removes and returns all queued items.
    pub fn drain(&self) -> Vec<T> {
        self.queue.lock().drain(..).collect()
    }
}

impl<T: Send> ProgressMetric for BoundedBuffer<T> {
    fn sample(&self) -> FillSample {
        FillSample::new(self.len(), self.capacity)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl<T> std::fmt::Debug for BoundedBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedBuffer")
            .field("name", &self.name)
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo_order() {
        let buf = BoundedBuffer::new("q", 3);
        buf.try_push(1).unwrap();
        buf.try_push(2).unwrap();
        buf.try_push(3).unwrap();
        assert_eq!(buf.try_pop(), Some(1));
        assert_eq!(buf.try_pop(), Some(2));
        assert_eq!(buf.try_pop(), Some(3));
        assert_eq!(buf.try_pop(), None);
    }

    #[test]
    fn push_to_full_buffer_fails_and_returns_item() {
        let buf = BoundedBuffer::new("q", 1);
        buf.try_push(10).unwrap();
        assert!(buf.is_full());
        assert_eq!(buf.try_push(20), Err(Full(20)));
    }

    #[test]
    fn fill_sample_tracks_len() {
        let buf = BoundedBuffer::new("q", 4);
        assert_eq!(buf.sample().centered(), -0.5);
        buf.try_push(()).unwrap();
        buf.try_push(()).unwrap();
        assert_eq!(buf.sample().centered(), 0.0);
        buf.try_push(()).unwrap();
        buf.try_push(()).unwrap();
        assert_eq!(buf.sample().centered(), 0.5);
    }

    #[test]
    fn drain_empties_buffer() {
        let buf = BoundedBuffer::new("q", 4);
        for i in 0..4 {
            buf.try_push(i).unwrap();
        }
        let items = buf.drain();
        assert_eq!(items, vec![0, 1, 2, 3]);
        assert!(buf.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_rejected() {
        let _ = BoundedBuffer::<u8>::new("q", 0);
    }

    #[test]
    fn concurrent_producers_and_consumers_conserve_items() {
        let buf = Arc::new(BoundedBuffer::new("q", 8));
        let per_thread = 500;
        let producers: Vec<_> = (0..2)
            .map(|_| {
                let buf = Arc::clone(&buf);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        while buf.try_push(i).is_err() {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let buf = Arc::clone(&buf);
                std::thread::spawn(move || {
                    let mut got = 0usize;
                    while got < per_thread {
                        if buf.try_pop().is_some() {
                            got += 1;
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 2 * per_thread);
        assert!(buf.is_empty());
    }

    proptest! {
        #[test]
        fn len_never_exceeds_capacity(ops in proptest::collection::vec(proptest::bool::ANY, 1..200), cap in 1usize..16) {
            let buf = BoundedBuffer::new("q", cap);
            for push in ops {
                if push {
                    let _ = buf.try_push(0u8);
                } else {
                    let _ = buf.try_pop();
                }
                prop_assert!(buf.len() <= cap);
                let s = buf.sample();
                prop_assert!(s.centered() >= -0.5 && s.centered() <= 0.5);
            }
        }

        #[test]
        fn pushed_minus_popped_equals_len(pushes in 0usize..50, pops in 0usize..50) {
            let buf = BoundedBuffer::new("q", 64);
            let mut ok_pushes = 0u64;
            for i in 0..pushes {
                if buf.try_push(i).is_ok() {
                    ok_pushes += 1;
                }
            }
            let mut ok_pops = 0u64;
            for _ in 0..pops {
                if buf.try_pop().is_some() {
                    ok_pops += 1;
                }
            }
            prop_assert_eq!(ok_pushes, pushes.min(64) as u64);
            prop_assert_eq!(ok_pops, ok_pushes.min(pops as u64));
            prop_assert_eq!(buf.len() as u64, ok_pushes - ok_pops);
        }
    }
}
