//! The work-model abstraction executed by simulated threads.

use rrs_core::SimTime;

/// What happened when a work model was given the CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// How much CPU time the thread actually consumed, in microseconds.
    /// Never more than the quantum it was offered.
    pub used_us: u64,
    /// Whether the thread blocked (on a full/empty queue, I/O, or a timer)
    /// before its quantum expired.
    pub blocked: bool,
}

impl RunResult {
    /// The thread used the whole quantum and remains runnable.
    pub fn ran(used_us: u64) -> Self {
        Self {
            used_us,
            blocked: false,
        }
    }

    /// The thread used part of the quantum and then blocked.
    pub fn blocked_after(used_us: u64) -> Self {
        Self {
            used_us,
            blocked: true,
        }
    }
}

/// A simulated thread body.
///
/// The simulator gives the model CPU in quanta decided by the dispatcher;
/// the model reports how much it used and whether it blocked.  Blocked
/// models are polled with [`WorkModel::poll_unblock`] until they report they
/// can run again (typically because queue space or data became available).
pub trait WorkModel: Send {
    /// Runs for up to `quantum_us` microseconds of CPU at `cpu_hz` cycles
    /// per second, starting at simulated time `now_us`.
    fn run(&mut self, now_us: u64, quantum_us: u64, cpu_hz: f64) -> RunResult;

    /// Returns `true` if a blocked thread can be woken at `now_us`.
    ///
    /// The default implementation always wakes the thread, which is correct
    /// for models that never actually block.
    fn poll_unblock(&mut self, _now_us: u64) -> bool {
        true
    }

    /// The next instant at which a model that just blocked (at `now`) can
    /// change state, if it knows one.
    ///
    /// The simulator queries this right after a block: `Some(t)` schedules
    /// a single wake-up event at `t` — the model is still asked to confirm
    /// via [`WorkModel::poll_unblock`] when it fires — while `None` (the
    /// default) falls back to polling the model at the dispatch-interval
    /// cadence.  Models blocked on a timer (I/O completion, a
    /// sleep until the next frame) should override this; models blocked on
    /// another job's progress (a full or empty queue) cannot know and
    /// should not.
    fn next_transition(&self, _now: SimTime) -> Option<SimTime> {
        None
    }

    /// An optional cumulative progress counter (for example total bytes
    /// processed).  When present, the simulator differentiates it between
    /// trace samples to record a progress *rate* series, which is how the
    /// "rate of progress (bytes/sec)" curves of Figure 6 are produced.
    fn progress_counter(&self) -> Option<f64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Spin;
    impl WorkModel for Spin {
        fn run(&mut self, _now: u64, quantum_us: u64, _hz: f64) -> RunResult {
            RunResult::ran(quantum_us)
        }
    }

    #[test]
    fn run_result_constructors() {
        assert_eq!(
            RunResult::ran(10),
            RunResult {
                used_us: 10,
                blocked: false
            }
        );
        assert_eq!(
            RunResult::blocked_after(3),
            RunResult {
                used_us: 3,
                blocked: true
            }
        );
    }

    #[test]
    fn default_trait_methods() {
        let mut s = Spin;
        assert!(s.poll_unblock(0));
        assert!(s.progress_counter().is_none());
        assert_eq!(s.run(0, 5, 1e6).used_us, 5);
    }
}
