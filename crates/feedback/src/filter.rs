//! The low-pass filter for smoothing noisy progress metrics.
//!
//! §4.1 of the paper: "Using a suitable low-pass filter, we can schedule
//! jobs with reasonable responsiveness and low overhead while keeping the
//! sampling rate reasonably high."  The controller's period estimator
//! smooths the per-period fill swing with a [`MovingAverage`] before acting
//! on it.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Windowed (simple) moving average.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MovingAverage {
    window: usize,
    samples: VecDeque<f64>,
    sum: f64,
}

impl MovingAverage {
    /// Creates a moving average over the last `window` samples.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be non-zero");
        Self {
            window,
            samples: VecDeque::with_capacity(window),
            sum: 0.0,
        }
    }

    /// Feeds a sample and returns the current average.
    pub fn update(&mut self, x: f64) -> f64 {
        self.samples.push_back(x);
        self.sum += x;
        if self.samples.len() > self.window {
            if let Some(old) = self.samples.pop_front() {
                self.sum -= old;
            }
        }
        self.value()
    }

    /// Returns the current average (0.0 with no samples).
    pub fn value(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum / self.samples.len() as f64
        }
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if no samples have been fed.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Clears the window.
    pub fn reset(&mut self) {
        self.samples.clear();
        self.sum = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn moving_average_over_partial_window() {
        let mut m = MovingAverage::new(4);
        assert_eq!(m.update(2.0), 2.0);
        assert_eq!(m.update(4.0), 3.0);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn moving_average_evicts_old_samples() {
        let mut m = MovingAverage::new(2);
        m.update(1.0);
        m.update(3.0);
        assert_eq!(m.update(5.0), 4.0); // window is now [3, 5]
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn moving_average_empty_is_zero() {
        let m = MovingAverage::new(3);
        assert!(m.is_empty());
        assert_eq!(m.value(), 0.0);
    }

    #[test]
    fn moving_average_reset() {
        let mut m = MovingAverage::new(3);
        m.update(9.0);
        m.reset();
        assert!(m.is_empty());
        assert_eq!(m.value(), 0.0);
    }

    #[test]
    #[should_panic(expected = "window must be non-zero")]
    fn moving_average_rejects_zero_window() {
        let _ = MovingAverage::new(0);
    }

    proptest! {
        #[test]
        fn moving_average_is_bounded_by_window_extremes(
            window in 1usize..10,
            values in proptest::collection::vec(-50.0f64..50.0, 1..100),
        ) {
            let mut m = MovingAverage::new(window);
            for &v in &values {
                m.update(v);
            }
            let tail: Vec<f64> = values.iter().rev().take(window).copied().collect();
            let lo = tail.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = tail.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(m.value() >= lo - 1e-9 && m.value() <= hi + 1e-9);
        }
    }
}
