//! Progress-pressure computation (Figure 3).
//!
//! For each real-rate job the controller samples its progress metrics,
//! centres each fill level to `F_{t,i} ∈ [-1/2, 1/2]`, flips the sign for
//! queues the job produces into (`R_{t,i}`), sums the contributions and
//! passes the sum through a PID control function `G` to obtain the
//! cumulative progress pressure `Q_t`.

use rrs_feedback::{PidConfig, PidController};

/// Per-job PID state turning summed instantaneous pressure into the
/// cumulative pressure `Q_t`.
///
/// # Examples
///
/// ```
/// use rrs_core::PressureEstimator;
/// use rrs_feedback::PidConfig;
///
/// let mut est = PressureEstimator::new(PidConfig::pi(1.0, 0.0));
/// // A consumer of a completely full queue has summed pressure +1/2.
/// let q = est.update(0.5, 0.01);
/// assert_eq!(q, 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct PressureEstimator {
    pid: PidController,
    last_summed: f64,
    last_q: f64,
}

impl PressureEstimator {
    /// Creates an estimator with the given PID gains.
    pub fn new(config: PidConfig) -> Self {
        Self {
            pid: PidController::new(config),
            last_summed: 0.0,
            last_q: 0.0,
        }
    }

    /// Feeds the summed instantaneous pressure `Σ_i R_{t,i}·F_{t,i}` for one
    /// controller period of length `dt` seconds and returns the cumulative
    /// pressure `Q_t`.
    pub fn update(&mut self, summed_pressure: f64, dt: f64) -> f64 {
        self.last_summed = summed_pressure;
        self.last_q = self.pid.update(summed_pressure, dt);
        self.last_q
    }

    /// The most recent summed instantaneous pressure.
    pub(crate) fn last_summed_pressure(&self) -> f64 {
        self.last_summed
    }

    /// Clears the PID state (used when a job's metrics are detached).
    pub fn reset(&mut self) {
        self.pid.reset();
        self.last_summed = 0.0;
        self.last_q = 0.0;
    }

    /// A bitwise fingerprint of the estimator's complete internal state
    /// (last summed pressure, last `Q_t`, PID integral and the PID's
    /// remembered derivative error).
    ///
    /// Two equal fingerprints mean the estimator is in bitwise-identical
    /// state: if an update left the fingerprint unchanged, repeating that
    /// update with the same inputs is a no-op.  The incremental controller
    /// uses this to prove a job has reached a fixed point and can be
    /// skipped without changing any observable behaviour.
    pub(crate) fn state_fingerprint(&self) -> (u64, u64, u64, Option<u64>) {
        (
            self.last_summed.to_bits(),
            self.last_q.to_bits(),
            self.pid.integral().to_bits(),
            self.pid.last_error().map(f64::to_bits),
        )
    }

    /// Scales the accumulated integral state by `factor`.
    ///
    /// The proportion estimator calls this when it reclaims allocation from
    /// an over-provisioned job (Figure 4's "−C" branch) so that the PID does
    /// not immediately push the allocation back up.
    pub(crate) fn scale_state(&mut self, factor: f64) {
        let cfg = self.pid.config();
        let target = self.pid.integral() * factor.clamp(0.0, 1.0);
        // Rebuild the controller with the scaled integral by resetting and
        // priming it: one update with dt chosen so that error·dt equals the
        // desired integral.
        self.pid.reset();
        if cfg.ki != 0.0 && target != 0.0 {
            // Prime with a single unit-error step of duration `target`.
            self.pid.update(target.signum(), target.abs());
            // Remove the proportional/derivative contribution from the
            // visible outputs by re-reporting the last values unchanged.
        }
        self.last_q = self.pid.last_output();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn proportional_estimator_tracks_summed_pressure() {
        let mut est = PressureEstimator::new(PidConfig::pi(2.0, 0.0));
        assert_eq!(est.update(0.25, 0.01), 0.5);
        assert_eq!(est.last_summed_pressure(), 0.25);
        assert_eq!(est.last_q, 0.5);
    }

    #[test]
    fn integral_accumulates_persistent_pressure() {
        let mut est = PressureEstimator::new(PidConfig::pi(0.0, 1.0));
        let mut q = 0.0;
        for _ in 0..100 {
            q = est.update(0.5, 0.01);
        }
        // Integral of 0.5 over 1 second.
        assert!((q - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_state() {
        let mut est = PressureEstimator::new(PidConfig::default());
        est.update(0.5, 0.01);
        est.reset();
        assert_eq!(est.last_q, 0.0);
        assert_eq!(est.last_summed_pressure(), 0.0);
    }

    #[test]
    fn scale_state_reduces_cumulative_pressure() {
        let mut est = PressureEstimator::new(PidConfig::pi(0.0, 1.0));
        for _ in 0..100 {
            est.update(0.5, 0.01);
        }
        let before = est.last_q;
        est.scale_state(0.5);
        let after = est.last_q;
        assert!(after < before);
        assert!(after > 0.0);
    }

    #[test]
    fn scale_state_to_zero_clears_pressure() {
        let mut est = PressureEstimator::new(PidConfig::pi(0.0, 1.0));
        est.update(0.5, 1.0);
        est.scale_state(0.0);
        assert_eq!(est.last_q, 0.0);
    }

    proptest! {
        #[test]
        fn cumulative_pressure_is_bounded_by_output_limit(
            pressures in proptest::collection::vec(-0.5f64..0.5, 1..200),
        ) {
            let config = PidConfig {
                kp: 1.0,
                ki: 2.0,
                kd: 0.1,
                integral_limit: 2.0,
                output_limit: 3.0,
            };
            let mut est = PressureEstimator::new(config);
            for p in pressures {
                let q = est.update(p, 0.01);
                prop_assert!(q.abs() <= 3.0 + 1e-9);
            }
        }
    }
}
