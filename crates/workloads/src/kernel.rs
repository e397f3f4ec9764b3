//! The two kernels the workload models are built from.
//!
//! A model in this crate is a *stage* that takes an item and burns the
//! cycles it costs ([`Burn`]), a *source* that emits items on a fixed
//! interval without using CPU ([`Cadence`]), or both.  The cycle ↔
//! microsecond arithmetic and the arrival clock live here once, so the
//! models cannot drift apart in rounding.

use rrs_sim::{RunResult, SimTime};

/// One quantum's cycle budget, spent on work items.
pub(crate) struct Burn {
    quantum_us: u64,
    cpu_hz: f64,
    cycles_available: f64,
    cycles_used: f64,
}

impl Burn {
    /// The budget of a `quantum_us` quantum at `cpu_hz` cycles per second.
    pub(crate) fn new(quantum_us: u64, cpu_hz: f64) -> Self {
        Self {
            quantum_us,
            cpu_hz,
            cycles_available: quantum_us as f64 * cpu_hz / 1e6,
            cycles_used: 0.0,
        }
    }

    /// Spends the budget on an item with `remaining` cycles to go.  Returns
    /// `true` if the item finished (`remaining` is zero, budget may be
    /// left), `false` if the quantum ran out first.
    pub(crate) fn spend(&mut self, remaining: &mut f64) -> bool {
        if self.cycles_available < *remaining {
            *remaining -= self.cycles_available;
            self.cycles_used += self.cycles_available;
            return false;
        }
        self.cycles_available -= *remaining;
        self.cycles_used += *remaining;
        *remaining = 0.0;
        true
    }

    /// CPU time spent so far in whole microseconds, at most the quantum.
    pub(crate) fn used_us(&self) -> u64 {
        let used_us = (self.cycles_used / self.cpu_hz * 1e6).round() as u64;
        used_us.min(self.quantum_us)
    }

    /// The result of a quantum that ended with nothing left to take.
    pub(crate) fn blocked(&self) -> RunResult {
        RunResult::blocked_after(self.used_us())
    }

    /// The result of a quantum that ran out mid-item.
    pub(crate) fn ran(&self) -> RunResult {
        RunResult::ran(self.used_us().max(1))
    }
}

/// A fixed-interval arrival clock: the first tick arms it one interval
/// ahead, every later tick reports the arrivals that have come due.
#[derive(Debug)]
pub(crate) struct Cadence {
    interval_us: u64,
    /// When the next arrival is due; zero until the first tick.
    next_us: u64,
}

impl Cadence {
    /// One arrival every `interval_us` microseconds.
    pub(crate) fn every(interval_us: u64) -> Self {
        Self {
            interval_us,
            next_us: 0,
        }
    }

    /// `rate_hz` arrivals per second, at least a microsecond apart.
    pub(crate) fn per_second(rate_hz: f64) -> Self {
        Self::every(((1e6 / rate_hz).round() as u64).max(1))
    }

    /// Calls `arrive` with the due time of every arrival up to `now_us`.
    pub(crate) fn tick(&mut self, now_us: u64, mut arrive: impl FnMut(u64)) {
        if self.next_us == 0 {
            self.next_us = now_us + self.interval_us;
        }
        while self.next_us <= now_us {
            arrive(self.next_us);
            self.next_us += self.interval_us;
        }
    }

    /// Whether the next arrival is due by `now_us` (always, before the
    /// first tick) — a source's `poll_unblock`.
    pub(crate) fn due(&self, now_us: u64) -> bool {
        now_us + 1 >= self.next_us
    }

    /// When a source blocked at `now` should be woken for its next
    /// arrival — a source's `next_transition`.
    pub(crate) fn wake_at(&self, now: SimTime) -> SimTime {
        if self.next_us == 0 {
            return now;
        }
        SimTime::from_micros(self.next_us.saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burn_spends_the_quantum_across_items_and_reports_whole_microseconds() {
        // 1 000 µs at 400 MHz = 400 000 cycles.
        let mut burn = Burn::new(1_000, 400e6);
        let mut item = 100_000.0;
        assert!(burn.spend(&mut item), "fits: finished");
        assert_eq!(item, 0.0);
        assert_eq!(burn.used_us(), 250);
        assert_eq!(burn.blocked(), RunResult::blocked_after(250));
        let mut big = 1e6;
        assert!(!burn.spend(&mut big), "quantum runs out first");
        assert_eq!(big, 700_000.0);
        assert_eq!(burn.ran(), RunResult::ran(1_000));
        // Nothing spent still counts as having run for a microsecond.
        assert_eq!(Burn::new(1_000, 400e6).ran(), RunResult::ran(1));
        assert_eq!(Burn::new(1_000, 400e6).blocked().used_us, 0);
    }

    #[test]
    fn cadence_arms_on_the_first_tick_and_reports_every_missed_arrival() {
        let mut cadence = Cadence::per_second(100.0);
        assert!(cadence.due(0), "unarmed: always due");
        assert_eq!(cadence.wake_at(SimTime::from_micros(7)).as_micros(), 7);
        let mut seen = Vec::new();
        cadence.tick(5_000, |due| seen.push(due));
        assert!(seen.is_empty(), "the first tick only arms");
        assert!(!cadence.due(10_000));
        assert!(cadence.due(14_999));
        assert_eq!(cadence.wake_at(SimTime::ZERO).as_micros(), 14_999);
        cadence.tick(36_000, |due| seen.push(due));
        assert_eq!(seen, [15_000, 25_000, 35_000]);
        assert_eq!(Cadence::per_second(1e9).interval_us, 1);
    }
}
