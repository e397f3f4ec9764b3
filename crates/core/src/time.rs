//! The one time type every host speaks.
//!
//! Historically the simulator measured time in `f64` seconds
//! (`run_for(20.0)`) while the wall-clock executor took
//! [`std::time::Duration`] — the same quantity, two incompatible front
//! doors.  [`SimTime`] ends the split: an integer microsecond count (the
//! resolution every layer below already uses) with lossless conversions
//! to and from both older forms.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// A span (or instant, measured from a host's epoch) of host time, in
/// integer microseconds.
///
/// On the simulated backend this is simulated time; on the wall-clock
/// backend it is real elapsed time.  Either way the arithmetic is exact:
/// no `f64` seconds, no `Duration`-vs-seconds mismatch.
///
/// ```
/// use rrs_core::SimTime;
/// use std::time::Duration;
///
/// assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
/// assert_eq!(SimTime::from(Duration::from_millis(2)).as_micros(), 2_000);
/// let t = SimTime::from_millis(10) + SimTime::from_micros(5);
/// assert_eq!(t.as_micros(), 10_005);
/// ```
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// Zero elapsed time.
    pub const ZERO: SimTime = SimTime(0);

    /// A span of `us` microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Self(us)
    }

    /// A span of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000)
    }

    /// A span of `s` whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000)
    }

    /// The span in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span in seconds, as a float (for display and plotting only —
    /// arithmetic should stay in microseconds).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span as a [`Duration`].
    pub(crate) const fn as_duration(self) -> Duration {
        Duration::from_micros(self.0)
    }

    /// The difference to `other`, clamped at zero.
    pub const fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }
}

impl From<Duration> for SimTime {
    fn from(d: Duration) -> Self {
        Self(d.as_micros().min(u64::MAX as u128) as u64)
    }
}

impl From<SimTime> for Duration {
    fn from(t: SimTime) -> Self {
        t.as_duration()
    }
}

impl std::ops::Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0.is_multiple_of(1_000_000) {
            write!(f, "{}s", self.0 / 1_000_000)
        } else if self.0.is_multiple_of(1_000) {
            write!(f, "{}ms", self.0 / 1_000)
        } else {
            write!(f, "{}µs", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_exact() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from(Duration::from_secs(1)), SimTime::from_secs(1));
        assert_eq!(
            Duration::from(SimTime::from_millis(7)),
            Duration::from_millis(7)
        );
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(4);
        assert_eq!(a - b, SimTime::from_millis(6));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert!(b < a);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_millis(14));
    }

    #[test]
    fn display_picks_the_tightest_unit() {
        assert_eq!(SimTime::from_secs(2).to_string(), "2s");
        assert_eq!(SimTime::from_millis(1_500).to_string(), "1500ms");
        assert_eq!(SimTime::from_micros(42).to_string(), "42µs");
    }

    #[test]
    fn serde_round_trip() {
        let t = SimTime::from_micros(123_456);
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(json, "123456");
        let back: SimTime = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
