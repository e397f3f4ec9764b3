//! Progress-pressure computation (Figure 3).
//!
//! For each real-rate job the controller samples its progress metrics,
//! centres each fill level to `F_{t,i} ∈ [-1/2, 1/2]`, flips the sign for
//! queues the job produces into (`R_{t,i}`), sums the contributions and
//! passes the sum through a PID control function `G` to obtain the
//! cumulative progress pressure `Q_t`.

use rrs_feedback::PidConfig;

/// A PID controller turning summed instantaneous pressure into the
/// cumulative pressure `Q_t`: the gains and one job's state.
///
/// The controller keeps only the state per job (40 B) and passes its one
/// configuration in to each step; this is the same step with the
/// configuration held.
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
    config: PidConfig,
    state: PressureState,
}

impl PressureEstimator {
    /// Creates an estimator with the given PID gains.
    pub fn new(config: PidConfig) -> Self {
        Self {
            config,
            state: PressureState::default(),
        }
    }

    /// Feeds the summed instantaneous pressure `Σ_i R_{t,i}·F_{t,i}` for one
    /// controller period of length `dt` seconds and returns the cumulative
    /// pressure `Q_t`.
    pub fn update(&mut self, summed_pressure: f64, dt: f64) -> f64 {
        self.state.update(&self.config, summed_pressure, dt)
    }

    /// Clears the PID state (used when a job's metrics are detached).
    pub fn reset(&mut self) {
        self.state = PressureState::default();
    }
}

/// One job's pressure state: [`rrs_feedback::PidController`]'s integral
/// and remembered error without its configuration, plus the last summed
/// pressure and the last `Q_t`.  Every step takes the configuration by
/// reference, so a job carries 40 B here rather than a copy of the gains.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PressureState {
    integral: f64,
    /// The error of the last step with positive `dt`, valid when
    /// `has_last_error`: what the derivative term differentiates against.
    last_error: f64,
    has_last_error: bool,
    last_summed: f64,
    last_q: f64,
}

impl PressureState {
    /// One PID step, operation for operation
    /// [`rrs_feedback::PidController::update`]: a non-positive `dt` leaves
    /// the integral and derivative terms alone.  Returns `Q_t`.
    pub(crate) fn update(&mut self, pid: &PidConfig, summed: f64, dt: f64) -> f64 {
        let p = pid.kp * summed;
        let mut d = 0.0;
        if dt > 0.0 {
            self.integral = pid.clamp_integral(self.integral + summed * dt);
            if self.has_last_error {
                d = pid.kd * (summed - self.last_error) / dt;
            }
            self.last_error = summed;
            self.has_last_error = true;
        }
        self.last_summed = summed;
        self.last_q = pid.clamp_output(p + pid.ki * self.integral + d);
        self.last_q
    }

    /// The most recent summed instantaneous pressure.
    pub(crate) fn last_summed_pressure(&self) -> f64 {
        self.last_summed
    }

    /// A bitwise fingerprint of the complete state (last summed pressure,
    /// last `Q_t`, integral and the remembered derivative error).
    ///
    /// Two equal fingerprints mean bitwise-identical state: if an update
    /// left the fingerprint unchanged, repeating that update with the same
    /// inputs is a no-op.  The incremental controller uses this to prove a
    /// job has reached a fixed point and can be skipped without changing
    /// any observable behaviour.
    pub(crate) fn fingerprint(&self) -> (u64, u64, u64, Option<u64>) {
        (
            self.last_summed.to_bits(),
            self.last_q.to_bits(),
            self.integral.to_bits(),
            self.has_last_error.then_some(self.last_error.to_bits()),
        )
    }

    /// Scales the accumulated integral by `factor` (clamped to `[0, 1]`).
    ///
    /// The proportion estimator calls this when it reclaims allocation from
    /// an over-provisioned job (Figure 4's "−C" branch) so that the PID does
    /// not immediately push the allocation back up.  It is the closed form
    /// of resetting the PID and priming it with one unit-error step of
    /// duration `|target|` (`target` the scaled integral), which leaves
    /// the integral at `target` and `Q_t` at that step's output; with no
    /// integral gain or a zero target the primed step is skipped and `Q_t`
    /// is zero.  The summed pressure is kept.
    pub(crate) fn scale(&mut self, pid: &PidConfig, factor: f64) {
        let target = self.integral * factor.clamp(0.0, 1.0);
        self.integral = 0.0;
        self.has_last_error = false;
        self.last_q = 0.0;
        if pid.ki != 0.0 && target != 0.0 {
            let error = target.signum();
            // A NaN target is a step of NaN length: no time passes.  Any
            // other lands the integral on the target unclamped: it is no
            // larger than the integral it scales, which every step clamped.
            if target.abs() > 0.0 {
                self.integral = target;
                self.last_error = error;
                self.has_last_error = true;
            }
            // The step has no derivative term (nothing to differentiate
            // against); its `+ 0.0` still turns a `−0.0` sum into `+0.0`.
            self.last_q = pid.clamp_output(pid.kp * error + pid.ki * self.integral + 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rrs_feedback::PidController;

    #[test]
    fn proportional_estimator_tracks_summed_pressure() {
        let pid = PidConfig::pi(2.0, 0.0);
        let mut state = PressureState::default();
        assert_eq!(state.update(&pid, 0.25, 0.01), 0.5);
        assert_eq!(state.last_summed_pressure(), 0.25);
        assert_eq!(state.last_q, 0.5);
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
        assert_eq!(est.state.last_q, 0.0);
        assert_eq!(est.state.last_summed_pressure(), 0.0);
    }

    #[test]
    fn scale_state_reduces_cumulative_pressure() {
        let pid = PidConfig::pi(0.0, 1.0);
        let mut state = PressureState::default();
        for _ in 0..100 {
            state.update(&pid, 0.5, 0.01);
        }
        let before = state.last_q;
        state.scale(&pid, 0.5);
        let after = state.last_q;
        assert!(after < before);
        assert!(after > 0.0);
    }

    #[test]
    fn scale_state_to_zero_clears_pressure() {
        let pid = PidConfig::pi(0.0, 1.0);
        let mut state = PressureState::default();
        state.update(&pid, 0.5, 1.0);
        state.scale(&pid, 0.0);
        assert_eq!(state.last_q, 0.0);
    }

    /// A job's pressure state is 40 B, with no copy of the gains in it
    /// (a `PidController` per job was 88 B).
    #[test]
    fn layout_budget() {
        assert!(std::mem::size_of::<PressureState>() <= 40);
    }

    /// The values the equivalence test draws from: signed zeros, NaNs of
    /// two payloads, infinities, subnormals, and then ordinary values.
    const SPECIAL: [f64; 11] = [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE / 4.0,
        -f64::MIN_POSITIVE / 4.0,
        5e-324,
        1e300,
        -1e300,
    ];

    fn pick(k: usize, ordinary: f64) -> f64 {
        SPECIAL.get(k).copied().unwrap_or(ordinary)
    }

    /// A `dt` that is positive, zero, negative or NaN.
    fn pick_dt(k: usize, ordinary: f64) -> f64 {
        [0.0, -0.0, -0.01, f64::NAN, 5e-324, f64::INFINITY]
            .get(k)
            .copied()
            .unwrap_or(ordinary)
    }

    /// Equal bits, or both NaN: Rust leaves the sign and payload of an
    /// operation's NaN result unspecified (two NaN operands may meet in
    /// either order), so only NaN-ness is a property of the arithmetic.
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// `lean` holds `pid`'s state, `pid_out` being its last output.
    fn same_state(lean: &PressureState, pid: &PidController, pid_out: f64) -> bool {
        same(lean.integral, pid.integral())
            && same(lean.last_q, pid_out)
            && match (lean.has_last_error, pid.last_error()) {
                (true, Some(e)) => same(lean.last_error, e),
                (has, e) => !has && e.is_none(),
            }
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

        /// The lean step is `PidController::update` and the closed-form
        /// reclaim is `PidController`'s reset followed by one priming
        /// update of `(signum(t), |t|)`, bit for bit (any NaN matching any
        /// NaN, see `same`): every step and every
        /// reclaim leaves the same integral, remembered error and output,
        /// over hostile errors and `dt`s, NaN and infinite limits, and
        /// reclaims on both branches (primed, or skipped for a zero
        /// target or a zero integral gain).
        #[test]
        fn lean_state_matches_the_pid_controller(
            gains in (0usize..4, 0usize..4, 0usize..3),
            limits in (0usize..5, 0usize..5),
            steps in proptest::collection::vec(
                ((0usize..24, -4.0f64..4.0), (0usize..12, 0.0f64..0.2), 0usize..6, 0.0f64..1.2),
                1..60,
            ),
        ) {
            let limit = |k: usize| [2.0, f64::INFINITY, f64::NAN, 0.25, -1.0][k];
            let config = PidConfig {
                kp: [1.0, 0.0, -2.5, 1e300][gains.0],
                ki: [0.2, 0.0, 3.0, -0.5][gains.1],
                kd: [0.05, 0.0, 1.0][gains.2],
                integral_limit: limit(limits.0),
                output_limit: limit(limits.1),
            };
            let mut pid = PidController::new(config);
            let mut lean = PressureState::default();
            for ((ek, e), (dk, dt), action, factor) in steps {
                let (error, dt) = (pick(ek, e), pick_dt(dk, dt));
                let out = pid.update(error, dt);
                let q = lean.update(&config, error, dt);
                prop_assert!(same(q, out));
                prop_assert!(same_state(&lean, &pid, out));
                prop_assert_eq!(lean.last_summed.to_bits(), error.to_bits());
                // One step in three reclaims, some by a hostile factor.
                if action < 2 {
                    let factor = if action == 0 { factor } else { pick(ek, factor) };
                    let target = pid.integral() * factor.clamp(0.0, 1.0);
                    pid.reset();
                    let mut out = 0.0;
                    if config.ki != 0.0 && target != 0.0 {
                        out = pid.update(target.signum(), target.abs());
                    }
                    lean.scale(&config, factor);
                    prop_assert!(same_state(&lean, &pid, out));
                    prop_assert_eq!(lean.last_summed.to_bits(), error.to_bits());
                }
            }
        }
    }
}
