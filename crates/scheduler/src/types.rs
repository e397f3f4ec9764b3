//! Fundamental scheduler types: thread identifiers, proportions and periods.

use serde::{Deserialize, Serialize};

/// Identifies a thread known to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ThreadId(pub u64);

impl From<ThreadId> for u64 {
    fn from(id: ThreadId) -> u64 {
        id.0
    }
}

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identifies one CPU of a [`crate::Machine`].
///
/// The paper's prototype ran on a single 400 MHz Pentium II; the machine
/// layer generalises the same dispatcher to `N` CPUs, each with its own
/// run queue, timer list and accounting.  `CpuId(0)` is the CPU a
/// single-CPU machine consists of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CpuId(pub u32);

impl CpuId {
    /// The first (and on a single-CPU machine, only) CPU.
    pub const ZERO: CpuId = CpuId(0);

    /// The CPU's index, usable for dense per-CPU side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for CpuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// Where a thread lives on a [`crate::Machine`]: its CPU and its dense
/// slot in that CPU's dispatcher.
///
/// Handed out by the calls that place a thread and accepted by the
/// machine's `_at` methods, which reach the thread without an id lookup.
/// It is a cache of the id maps, not a capability: it goes stale when the
/// thread migrates or leaves, and every use is checked against the id it
/// is presented with (see the [`crate::machine`] module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThreadHandle {
    /// The CPU the thread is placed on.
    pub cpu: CpuId,
    /// The thread's dense slot in that CPU's dispatcher.
    pub slot: u32,
}

/// A CPU proportion in parts per thousand, as specified in §3.1.
///
/// "The proportion is a percentage, specified in parts-per-thousand, of the
/// duration of the period during which the application should get the CPU."
///
/// # Examples
///
/// ```
/// use rrs_scheduler::Proportion;
///
/// let p = Proportion::from_ppt(50); // 5 % of the CPU
/// assert_eq!(p.as_fraction(), 0.05);
/// assert_eq!(Proportion::from_fraction(0.25).ppt(), 250);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Proportion(u32);

impl Proportion {
    /// The whole CPU (1000 parts per thousand).
    pub const FULL: Proportion = Proportion(1000);
    /// No CPU at all.
    pub const ZERO: Proportion = Proportion(0);
    /// The smallest non-zero proportion (1 part per thousand): the paper's
    /// starvation-avoidance guarantee assigns at least this much to every
    /// job.
    pub const MIN_NONZERO: Proportion = Proportion(1);

    /// Creates a proportion from parts per thousand, clamping to 1000.
    pub fn from_ppt(ppt: u32) -> Self {
        Self(ppt.min(1000))
    }

    /// Creates a proportion from a fraction in `[0, 1]` (clamped).
    pub fn from_fraction(fraction: f64) -> Self {
        let f = fraction.clamp(0.0, 1.0);
        Self((f * 1000.0).round() as u32)
    }

    /// Returns the proportion in parts per thousand.
    pub fn ppt(self) -> u32 {
        self.0
    }

    /// Returns the proportion as a fraction in `[0, 1]`.
    pub fn as_fraction(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Proportion) -> Proportion {
        Proportion(self.0.saturating_sub(other.0))
    }
}

impl std::fmt::Display for Proportion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}‰", self.0)
    }
}

/// A scheduling period.
///
/// Periods are stored in microseconds so that sub-millisecond dispatch
/// intervals (Figure 8 sweeps down to 100 µs) can be represented exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Period(u64);

impl Period {
    /// The paper's default period for jobs with no better information:
    /// 30 milliseconds.
    pub const DEFAULT: Period = Period(30_000);

    /// Creates a period from microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `us == 0`.
    pub fn from_micros(us: u64) -> Self {
        assert!(us > 0, "period must be non-zero");
        Self(us)
    }

    /// Creates a period from milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ms == 0`.
    pub fn from_millis(ms: u64) -> Self {
        Self::from_micros(ms * 1000)
    }

    /// Returns the period in microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the period in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }
}

impl Default for Period {
    fn default() -> Self {
        Period::DEFAULT
    }
}

impl std::fmt::Display for Period {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0.is_multiple_of(1000) {
            write!(f, "{}ms", self.0 / 1000)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

/// The run state of a thread as seen by the dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThreadState {
    /// Runnable and waiting on the run queue.
    Ready,
    /// Currently executing.
    Running,
    /// Blocked on I/O or a full/empty queue; not runnable.
    Blocked,
    /// Exhausted its allocation for the current period and parked until the
    /// next period begins.
    Throttled,
}

impl ThreadState {
    /// Returns `true` if the thread can be placed on the run queue.
    pub(crate) fn is_runnable(self) -> bool {
        matches!(self, ThreadState::Ready | ThreadState::Running)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn proportion_conversions() {
        assert_eq!(Proportion::from_ppt(50).as_fraction(), 0.05);
        assert_eq!(Proportion::from_fraction(0.5).ppt(), 500);
        assert_eq!(Proportion::from_fraction(-1.0).ppt(), 0);
        assert_eq!(Proportion::from_fraction(2.0).ppt(), 1000);
        assert_eq!(Proportion::from_ppt(5000).ppt(), 1000);
    }

    #[test]
    fn proportion_arithmetic() {
        let a = Proportion::from_ppt(600);
        let b = Proportion::from_ppt(500);
        assert_eq!(a.saturating_sub(b).ppt(), 100);
        assert_eq!(b.saturating_sub(a).ppt(), 0);
    }

    #[test]
    fn proportion_display() {
        assert_eq!(Proportion::from_ppt(50).to_string(), "50‰");
    }

    #[test]
    fn period_conversions() {
        let p = Period::from_millis(30);
        assert_eq!(p.as_micros(), 30_000);
        assert_eq!(p.as_micros(), 30_000);
        assert_eq!(p.as_secs_f64(), 0.03);
        assert_eq!(p, Period::DEFAULT);
        assert_eq!(Period::default(), Period::DEFAULT);
    }

    #[test]
    fn period_display() {
        assert_eq!(Period::from_millis(5).to_string(), "5ms");
        assert_eq!(Period::from_micros(250).to_string(), "250us");
    }

    #[test]
    #[should_panic(expected = "period must be non-zero")]
    fn zero_period_rejected() {
        let _ = Period::from_micros(0);
    }

    #[test]
    fn thread_state_runnable() {
        assert!(ThreadState::Ready.is_runnable());
        assert!(ThreadState::Running.is_runnable());
        assert!(!ThreadState::Blocked.is_runnable());
        assert!(!ThreadState::Throttled.is_runnable());
    }

    #[test]
    fn thread_id_display() {
        assert_eq!(ThreadId(42).to_string(), "t42");
    }

    #[test]
    fn cpu_id_display_and_index() {
        assert_eq!(CpuId(3).to_string(), "cpu3");
        assert_eq!(CpuId(3).index(), 3);
        assert_eq!(CpuId::ZERO, CpuId(0));
        assert!(CpuId(0) < CpuId(1));
    }

    proptest! {
        #[test]
        fn fraction_round_trip(ppt in 0u32..=1000) {
            let p = Proportion::from_ppt(ppt);
            let back = Proportion::from_fraction(p.as_fraction());
            prop_assert_eq!(p, back);
        }
    }
}
