//! Per-thread, per-period usage accounting.
//!
//! The controller "compares the CPU used by a thread with the amount
//! allocated to it" to reclaim over-allocation (§3.3, Figure 4), and the
//! dispatcher must know when a thread has "used its allocation for its
//! period" so it can be put to sleep until the next period (§3.1).  This
//! module keeps those books.

use serde::{Deserialize, Serialize};

/// Usage accounting for one thread.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct UsageAccount {
    /// Start of the current period, in microseconds of scheduler time.
    pub period_start_us: u64,
    /// Budget for the current period, in microseconds.
    pub budget_us: u64,
    /// CPU consumed in the current period, in microseconds.
    pub used_this_period_us: u64,
    /// Whether the thread was ever runnable (ready or running) during the
    /// current period; used to distinguish "missed deadline" from "did not
    /// want to run".
    pub was_runnable_this_period: bool,
    /// Total CPU consumed over the thread's lifetime, in microseconds.
    pub total_used_us: u64,
    /// Total CPU budgeted over the thread's lifetime, in microseconds.
    pub total_budget_us: u64,
    /// Number of completed periods.
    pub periods_completed: u64,
    /// Number of periods in which the thread wanted to run but did not
    /// receive its full budget.
    pub deadlines_missed: u64,
    /// CPU used in the most recently completed period, in microseconds.
    pub last_period_used_us: u64,
    /// Budget of the most recently completed period, in microseconds.
    pub last_period_budget_us: u64,
}

impl UsageAccount {
    /// Creates a fresh account starting a period at `now_us` with the given
    /// budget.
    pub fn new(now_us: u64, budget_us: u64) -> Self {
        Self {
            period_start_us: now_us,
            budget_us,
            ..Self::default()
        }
    }

    /// Records that the thread ran for `us` microseconds.
    pub fn charge(&mut self, us: u64) {
        self.used_this_period_us += us;
        self.total_used_us += us;
    }

    /// Remaining budget in the current period.
    pub(crate) fn remaining_us(&self) -> u64 {
        self.budget_us.saturating_sub(self.used_this_period_us)
    }

    /// Returns `true` when the thread has exhausted its budget.
    ///
    /// A zero budget counts as exhausted as soon as any CPU is consumed:
    /// an explicit zero-proportion reservation grants nothing, so the
    /// thread must throttle after its first (minimal) quantum instead of
    /// winning every rate-monotonic dispatch for free.
    pub(crate) fn exhausted(&self) -> bool {
        self.used_this_period_us >= self.budget_us && self.used_this_period_us > 0
    }

    /// Marks that the thread was runnable at some point this period.
    pub(crate) fn mark_runnable(&mut self) {
        self.was_runnable_this_period = true;
    }

    /// Closes the current period at `now_us`, opening a new one with
    /// `next_budget_us`.  Returns `true` if the closing period counts as a
    /// missed deadline (the thread was runnable but did not receive its full
    /// budget).  The one-boundary reference [`UsageAccount::roll_periods`]
    /// is tested against; the dispatcher closes every period through the
    /// batch form.
    #[cfg(test)]
    pub(crate) fn roll_period(&mut self, now_us: u64, next_budget_us: u64) -> bool {
        let missed = self.was_runnable_this_period
            && self.budget_us > 0
            && self.used_this_period_us < self.budget_us;
        if missed {
            self.deadlines_missed += 1;
        }
        self.periods_completed += 1;
        self.total_budget_us += self.budget_us;
        self.last_period_used_us = self.used_this_period_us;
        self.last_period_budget_us = self.budget_us;

        self.period_start_us = now_us;
        self.budget_us = next_budget_us;
        self.used_this_period_us = 0;
        self.was_runnable_this_period = false;
        missed
    }

    /// Closes `k >= 1` consecutive periods in one `O(1)` batch.  The
    /// dispatcher rolls boundaries lazily: a thread's account is only
    /// brought up to date when the thread is next touched, and may be
    /// several boundaries behind.
    ///
    /// The first boundary closes the in-flight period exactly like
    /// [`UsageAccount::roll_period`] (real usage, real runnable flag, old
    /// budget).  Boundaries `2..=k` close periods in which the thread was
    /// untouched, so each used zero CPU under the refreshed budget and
    /// counts as a missed deadline iff `runnable_rest` (whether the thread
    /// sat runnable through them) and the budget is non-zero — the same
    /// verdict rolling each boundary in turn reaches by re-marking a
    /// runnable thread at every one.  `final_start_us` is the last
    /// boundary's instant and becomes the new period start.  Returns how
    /// many of the `k` closed periods missed their deadline.
    pub(crate) fn roll_periods(
        &mut self,
        k: u64,
        next_budget_us: u64,
        runnable_rest: bool,
        final_start_us: u64,
    ) -> u64 {
        debug_assert!(k >= 1);
        let mut missed = u64::from(
            self.was_runnable_this_period
                && self.budget_us > 0
                && self.used_this_period_us < self.budget_us,
        );
        self.total_budget_us += self.budget_us;
        self.last_period_used_us = self.used_this_period_us;
        self.last_period_budget_us = self.budget_us;
        let rest = k - 1;
        if rest > 0 {
            if runnable_rest && next_budget_us > 0 {
                missed += rest;
            }
            self.total_budget_us += rest * next_budget_us;
            self.last_period_used_us = 0;
            self.last_period_budget_us = next_budget_us;
        }
        self.deadlines_missed += missed;
        self.periods_completed += k;
        self.period_start_us = final_start_us;
        self.budget_us = next_budget_us;
        self.used_this_period_us = 0;
        self.was_runnable_this_period = false;
        missed
    }

    /// Fraction of the last completed period's budget that was actually
    /// used, in `[0, 1]`; 1.0 when the last budget was zero (nothing was
    /// wasted).  The controller's reclamation rule (Figure 4) reduces the
    /// allocation when this falls below a threshold.
    pub(crate) fn last_period_usage_ratio(&self) -> f64 {
        if self.last_period_budget_us == 0 {
            1.0
        } else {
            (self.last_period_used_us as f64 / self.last_period_budget_us as f64).min(1.0)
        }
    }

    /// Lifetime deadline-miss ratio.
    pub fn miss_ratio(&self) -> f64 {
        if self.periods_completed == 0 {
            0.0
        } else {
            self.deadlines_missed as f64 / self.periods_completed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn charge_and_remaining() {
        let mut a = UsageAccount::new(0, 1000);
        assert_eq!(a.remaining_us(), 1000);
        a.charge(400);
        assert_eq!(a.remaining_us(), 600);
        assert!(!a.exhausted());
        a.charge(600);
        assert!(a.exhausted());
        assert_eq!(a.remaining_us(), 0);
    }

    #[test]
    fn overrun_does_not_underflow() {
        let mut a = UsageAccount::new(0, 100);
        a.charge(500);
        assert_eq!(a.remaining_us(), 0);
        assert!(a.exhausted());
    }

    #[test]
    fn zero_budget_exhausts_on_first_use() {
        // A fresh zero-budget account is dispatchable (so a thread admitted
        // at zero proportion is not born throttled)...
        let mut a = UsageAccount::new(0, 0);
        assert!(!a.exhausted());
        // ...but a zero-proportion reservation grants nothing: the first
        // consumed microsecond exhausts it.
        a.charge(1);
        assert!(a.exhausted());
    }

    #[test]
    fn roll_period_detects_missed_deadline() {
        let mut a = UsageAccount::new(0, 1000);
        a.mark_runnable();
        a.charge(300);
        // The thread wanted to run, had 1000 µs of budget, but only got 300.
        let missed = a.roll_period(30_000, 1000);
        assert!(missed);
        assert_eq!(a.deadlines_missed, 1);
        assert_eq!(a.periods_completed, 1);
        assert_eq!(a.last_period_used_us, 300);
        assert!((a.last_period_usage_ratio() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn roll_period_without_demand_is_not_a_miss() {
        let mut a = UsageAccount::new(0, 1000);
        // The thread never became runnable (e.g. it was blocked all period).
        let missed = a.roll_period(30_000, 1000);
        assert!(!missed);
        assert_eq!(a.deadlines_missed, 0);
    }

    #[test]
    fn full_budget_use_is_not_a_miss() {
        let mut a = UsageAccount::new(0, 1000);
        a.mark_runnable();
        a.charge(1000);
        assert!(!a.roll_period(30_000, 1000));
        assert_eq!(a.miss_ratio(), 0.0);
    }

    #[test]
    fn ratios_track_lifetime() {
        let mut a = UsageAccount::new(0, 1000);
        a.mark_runnable();
        a.charge(500);
        a.roll_period(1000, 2000);
        a.mark_runnable();
        a.charge(2000);
        a.roll_period(2000, 1000);
        assert_eq!(a.periods_completed, 2);
        assert_eq!(a.total_used_us, 2500);
        assert_eq!(a.total_budget_us, 3000);
        assert_eq!(a.miss_ratio(), 0.5);
    }

    #[test]
    fn fresh_account_ratios() {
        let a = UsageAccount::new(0, 500);
        assert_eq!(a.last_period_usage_ratio(), 1.0);
        assert_eq!(a.miss_ratio(), 0.0);
    }

    #[test]
    fn batch_roll_of_one_matches_roll_period() {
        let mut a = UsageAccount::new(0, 1000);
        let mut b = a;
        a.mark_runnable();
        b.mark_runnable();
        a.charge(300);
        b.charge(300);
        let missed = a.roll_period(30_000, 800);
        let batch_missed = b.roll_periods(1, 800, true, 30_000);
        assert_eq!(batch_missed, u64::from(missed));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    proptest! {
        /// The `O(1)` batch roll must land on exactly the state reached by
        /// rolling every boundary in turn (re-marking a runnable thread at
        /// each one).
        #[test]
        fn batch_roll_matches_per_boundary_loop(
            k in 1u64..20,
            budget in 1u64..2_000,
            next_budget in 0u64..2_000,
            used in 0u64..3_000,
            started_runnable in proptest::bool::ANY,
            runnable_rest in proptest::bool::ANY,
        ) {
            let period = 10_000u64;
            let seed = |mark: bool| {
                let mut a = UsageAccount::new(0, budget);
                if mark {
                    a.mark_runnable();
                }
                a.charge(used);
                a
            };
            let mut looped = seed(started_runnable);
            for i in 1..=k {
                looped.roll_period(i * period, next_budget);
                if runnable_rest {
                    looped.mark_runnable();
                }
            }
            // The loop leaves `was_runnable` set for the new period;
            // the batch caller re-marks separately, mirroring the
            // dispatcher's sync step.
            let mut batch = seed(started_runnable);
            let missed = batch.roll_periods(k, next_budget, runnable_rest, k * period);
            if runnable_rest {
                batch.mark_runnable();
            }
            prop_assert_eq!(format!("{looped:?}"), format!("{batch:?}"));
            prop_assert_eq!(missed, batch.deadlines_missed);
        }

        #[test]
        fn used_never_exceeds_total(
            charges in proptest::collection::vec(0u64..10_000, 1..50),
            budget in 1u64..50_000,
        ) {
            let mut a = UsageAccount::new(0, budget);
            let mut total = 0u64;
            for (i, &c) in charges.iter().enumerate() {
                a.mark_runnable();
                a.charge(c);
                total += c;
                if i % 5 == 4 {
                    a.roll_period(i as u64 * 1000, budget);
                }
            }
            prop_assert_eq!(a.total_used_us, total);
            prop_assert!(a.miss_ratio() >= 0.0 && a.miss_ratio() <= 1.0);
        }
    }
}
