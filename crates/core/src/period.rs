//! Period estimation for aperiodic real-rate jobs (§3.3).
//!
//! "Currently, we use a simple heuristic which increases the period to
//! reduce quantization error when the proportion is small, since the
//! dispatcher can only allocate multiples of the dispatch interval.  The
//! controller decreases the period to reduce jitter, which we detect via
//! large oscillations relative to the buffer size.  The controller
//! determines the magnitude of oscillation by monitoring the amount of
//! change in fill-level over the course of a period, averaged over several
//! periods."
//!
//! The paper disabled this heuristic for its experiments; it is implemented
//! here so the ablation bench can study it.

use rrs_feedback::MovingAverage;
use rrs_scheduler::{Period, Proportion};

/// Increase the period when the per-period budget falls below this many
/// dispatch intervals (quantization error becomes significant).
const MIN_QUANTA_PER_PERIOD: u64 = 4;
/// Decrease the period when the average per-period fill-level swing
/// exceeds this fraction of the buffer.
const JITTER_THRESHOLD: f64 = 0.25;
/// Multiplicative step for period changes.
const ADJUST_FACTOR: f64 = 1.25;
/// Number of recent periods over which the fill-level swing is averaged.
const OSCILLATION_WINDOW: usize = 8;
/// Smallest period the heuristic may choose, in microseconds.
const MIN_PERIOD_US: u64 = 5_000;
/// Largest period the heuristic may choose, in microseconds.
const MAX_PERIOD_US: u64 = 200_000;
/// The dispatch interval [`PeriodEstimator::with_defaults`] quantises
/// against, in microseconds.
pub(crate) const DEFAULT_DISPATCH_INTERVAL_US: u64 = 1_000;

/// Per-job period estimator.
#[derive(Debug, Clone)]
pub struct PeriodEstimator {
    /// Dispatch interval of the underlying scheduler, in microseconds.
    dispatch_interval_us: u64,
    swing: MovingAverage,
    min_fill_this_period: f64,
    max_fill_this_period: f64,
    have_sample: bool,
}

impl PeriodEstimator {
    /// Creates an estimator that quantises budgets against a scheduler
    /// dispatching every `dispatch_interval_us` microseconds.
    pub fn new(dispatch_interval_us: u64) -> Self {
        Self {
            dispatch_interval_us,
            swing: MovingAverage::new(OSCILLATION_WINDOW),
            min_fill_this_period: f64::INFINITY,
            max_fill_this_period: f64::NEG_INFINITY,
            have_sample: false,
        }
    }

    /// Creates an estimator for the default dispatch interval.
    pub fn with_defaults() -> Self {
        Self::new(DEFAULT_DISPATCH_INTERVAL_US)
    }

    /// Records one fill-level observation (fraction in `[0, 1]`) taken
    /// during the current period.
    pub fn observe_fill(&mut self, fill_fraction: f64) {
        let f = fill_fraction.clamp(0.0, 1.0);
        self.min_fill_this_period = self.min_fill_this_period.min(f);
        self.max_fill_this_period = self.max_fill_this_period.max(f);
        self.have_sample = true;
    }

    /// Closes the current period and proposes the next period length given
    /// the job's current proportion and period.
    ///
    /// Quantization wins over jitter: if the per-period budget is below
    /// `MIN_QUANTA_PER_PERIOD` dispatch quanta, the period grows even if the
    /// buffer is oscillating.
    pub fn end_period(&mut self, proportion: Proportion, period: Period) -> Period {
        if self.have_sample {
            let swing = (self.max_fill_this_period - self.min_fill_this_period).max(0.0);
            self.swing.update(swing);
        }
        self.min_fill_this_period = f64::INFINITY;
        self.max_fill_this_period = f64::NEG_INFINITY;
        self.have_sample = false;

        let budget_us = (period.as_micros() as f64 * proportion.as_fraction()).round() as u64;
        let quanta = budget_us / self.dispatch_interval_us.max(1);

        let mut next_us = period.as_micros() as f64;
        if quanta < MIN_QUANTA_PER_PERIOD {
            // Small proportion: grow the period to reduce quantization error.
            next_us *= ADJUST_FACTOR;
        } else if self.swing.value() > JITTER_THRESHOLD {
            // Large oscillations: shrink the period to reduce jitter.
            next_us /= ADJUST_FACTOR;
        }
        let clamped = next_us
            .round()
            .clamp(MIN_PERIOD_US as f64, MAX_PERIOD_US as f64) as u64;
        Period::from_micros(clamped.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_proportion_grows_period() {
        let mut est = PeriodEstimator::with_defaults();
        // 1 ‰ of 10 ms = 10 µs budget: far below 4 dispatch quanta.
        let next = est.end_period(Proportion::from_ppt(1), Period::from_millis(10));
        assert!(next.as_micros() > 10_000);
    }

    #[test]
    fn high_oscillation_shrinks_period() {
        let mut est = PeriodEstimator::with_defaults();
        // Large swings for several periods.
        let mut period = Period::from_millis(100);
        for _ in 0..10 {
            est.observe_fill(0.1);
            est.observe_fill(0.9);
            period = est.end_period(Proportion::from_ppt(500), period);
        }
        assert!(period.as_micros() < 100_000);
    }

    #[test]
    fn steady_fill_keeps_period() {
        let mut est = PeriodEstimator::with_defaults();
        let mut period = Period::from_millis(30);
        for _ in 0..10 {
            est.observe_fill(0.5);
            est.observe_fill(0.52);
            period = est.end_period(Proportion::from_ppt(500), period);
        }
        assert_eq!(period, Period::from_millis(30));
    }

    #[test]
    fn period_respects_bounds() {
        let mut est = PeriodEstimator::with_defaults();
        let mut period = Period::from_millis(150);
        // Force repeated growth.
        for _ in 0..50 {
            period = est.end_period(Proportion::from_ppt(1), period);
        }
        assert!(period.as_micros() <= MAX_PERIOD_US);

        let mut est = PeriodEstimator::with_defaults();
        let mut period = Period::from_millis(10);
        for _ in 0..50 {
            est.observe_fill(0.0);
            est.observe_fill(1.0);
            period = est.end_period(Proportion::from_ppt(900), period);
        }
        assert!(period.as_micros() >= MIN_PERIOD_US);
    }

    #[test]
    fn quantization_takes_precedence_over_jitter() {
        let mut est = PeriodEstimator::with_defaults();
        // Oscillating fill *and* a tiny proportion: the period must grow.
        for _ in 0..5 {
            est.observe_fill(0.0);
            est.observe_fill(1.0);
            est.end_period(Proportion::from_ppt(1), Period::from_millis(20));
        }
        let next = est.end_period(Proportion::from_ppt(1), Period::from_millis(20));
        assert!(next.as_micros() > 20_000);
    }

    #[test]
    fn swing_tracking_averages_over_window() {
        let mut est = PeriodEstimator::with_defaults();
        est.observe_fill(0.2);
        est.observe_fill(0.8);
        est.end_period(Proportion::from_ppt(500), Period::from_millis(30));
        assert!((est.swing.value() - 0.6).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn proposed_period_is_always_within_bounds(
            ppt in 1u32..=1000,
            period_ms in 1u64..500,
            fills in proptest::collection::vec(0.0f64..1.0, 0..20),
        ) {
            let mut est = PeriodEstimator::with_defaults();
            for f in fills {
                est.observe_fill(f);
            }
            let next = est.end_period(Proportion::from_ppt(ppt), Period::from_millis(period_ms));
            // Clamped either to the configured window or unchanged.
            prop_assert!(next.as_micros() >= MIN_PERIOD_US.min(period_ms * 1000));
            prop_assert!(next.as_micros() <= MAX_PERIOD_US.max(period_ms * 1000));
        }
    }
}
