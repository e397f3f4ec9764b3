//! Proportional-integral-derivative control.
//!
//! The controller of the paper computes the cumulative progress pressure
//! `Q_t = G(Σ_i R_{t,i} · F_{t,i})` where `G` is a PID control function
//! (Figure 3): the magnitude of the summed pressures (P) is combined with
//! their integral (I) and first derivative (D) to provide "error reduction
//! together with acceptable stability and damping".

/// Gains and limits for a [`PidController`].
///
/// A limit clamps a magnitude: its sign is ignored, and `f64::INFINITY`
/// or a NaN limit disables it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PidConfig {
    /// Proportional gain.
    pub kp: f64,
    /// Integral gain.
    pub ki: f64,
    /// Derivative gain.
    pub kd: f64,
    /// Clamp on the magnitude of the integral term (anti-windup);
    /// `f64::INFINITY` or NaN disables it.
    pub integral_limit: f64,
    /// Clamp on the magnitude of the output; `f64::INFINITY` or NaN
    /// disables it.
    pub output_limit: f64,
}

impl Default for PidConfig {
    fn default() -> Self {
        // Defaults chosen to reproduce the paper's behaviour on the pulse
        // experiment: strongly proportional, a small integral term to remove
        // steady-state error, and a small derivative term for damping.
        Self {
            kp: 1.0,
            ki: 0.2,
            kd: 0.05,
            integral_limit: 2.0,
            output_limit: f64::INFINITY,
        }
    }
}

impl PidConfig {
    /// A proportional-integral configuration.
    pub fn pi(kp: f64, ki: f64) -> Self {
        Self {
            kp,
            ki,
            kd: 0.0,
            ..Self::default()
        }
    }

    /// A full PID configuration.
    pub fn pid(kp: f64, ki: f64, kd: f64) -> Self {
        Self {
            kp,
            ki,
            kd,
            ..Self::default()
        }
    }

    /// `integral` clamped to `±integral_limit`.
    #[inline]
    pub fn clamp_integral(&self, integral: f64) -> f64 {
        clamp_magnitude(integral, self.integral_limit)
    }

    /// `output` clamped to `±output_limit`.
    #[inline]
    pub fn clamp_output(&self, output: f64) -> f64 {
        clamp_magnitude(output, self.output_limit)
    }
}

/// `x` clamped to `±|limit|`, or `x` itself for a NaN limit (where
/// `f64::clamp` would panic).  A NaN `x` stays NaN.
#[inline]
fn clamp_magnitude(x: f64, limit: f64) -> f64 {
    let lim = limit.abs();
    if lim.is_nan() {
        x
    } else {
        x.clamp(-lim, lim)
    }
}

/// Discrete-time PID controller with anti-windup and output clamping.
///
/// # Examples
///
/// ```
/// use rrs_feedback::{PidConfig, PidController};
///
/// let mut pid = PidController::new(PidConfig::pi(2.0, 0.0));
/// // A constant error of 0.5 with a purely proportional controller
/// // produces a constant output of 1.0.
/// assert_eq!(pid.update(0.5, 0.01), 1.0);
/// assert_eq!(pid.update(0.5, 0.01), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct PidController {
    config: PidConfig,
    integral: f64,
    last_error: Option<f64>,
}

impl PidController {
    /// Creates a controller with the given configuration.
    pub fn new(config: PidConfig) -> Self {
        Self {
            config,
            integral: 0.0,
            last_error: None,
        }
    }

    /// Advances the controller by one step with the given error and time
    /// step `dt` (seconds) and returns the control output.
    ///
    /// A non-positive `dt` is treated as "no time has passed": the integral
    /// and derivative terms are left unchanged and only the proportional
    /// term is recomputed.
    pub fn update(&mut self, error: f64, dt: f64) -> f64 {
        let p = self.config.kp * error;

        let mut d = 0.0;
        if dt > 0.0 {
            self.integral = self.config.clamp_integral(self.integral + error * dt);
            if let Some(prev) = self.last_error {
                d = self.config.kd * (error - prev) / dt;
            }
            self.last_error = Some(error);
        }

        let i = self.config.ki * self.integral;
        self.config.clamp_output(p + i + d)
    }

    /// Returns the current value of the integral accumulator.
    pub fn integral(&self) -> f64 {
        self.integral
    }

    /// Returns the error fed to the most recent update with positive `dt`,
    /// if any — the state the derivative term differentiates against.
    pub fn last_error(&self) -> Option<f64> {
        self.last_error
    }

    /// Clears the accumulated integral and derivative state.
    pub fn reset(&mut self) {
        self.integral = 0.0;
        self.last_error = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn proportional_only_scales_error() {
        let mut pid = PidController::new(PidConfig::pi(3.0, 0.0));
        assert_eq!(pid.update(0.5, 0.1), 1.5);
        assert_eq!(pid.update(-0.5, 0.1), -1.5);
    }

    #[test]
    fn integral_accumulates_constant_error() {
        let mut pid = PidController::new(PidConfig::pi(0.0, 1.0));
        let mut last = 0.0;
        for _ in 0..10 {
            last = pid.update(1.0, 0.1);
        }
        // Integral of a unit error over 1 second is 1.0.
        assert!((last - 1.0).abs() < 1e-9);
        assert!((pid.integral() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn integral_is_clamped_by_anti_windup() {
        let config = PidConfig {
            kp: 0.0,
            ki: 1.0,
            kd: 0.0,
            integral_limit: 0.5,
            output_limit: f64::INFINITY,
        };
        let mut pid = PidController::new(config);
        let mut out = 0.0;
        for _ in 0..1000 {
            out = pid.update(1.0, 0.1);
        }
        assert!(pid.integral() <= 0.5 + 1e-12);
        assert!(out <= 0.5 + 1e-12);
    }

    #[test]
    fn derivative_responds_to_error_change() {
        let mut pid = PidController::new(PidConfig::pid(0.0, 0.0, 1.0));
        pid.update(0.0, 0.1);
        let out = pid.update(1.0, 0.1);
        // d(error)/dt = (1 - 0) / 0.1 = 10.
        assert!((out - 10.0).abs() < 1e-9);
        // Constant error afterwards -> derivative returns to zero.
        let out2 = pid.update(1.0, 0.1);
        assert!(out2.abs() < 1e-9);
    }

    #[test]
    fn first_update_has_no_derivative_kick() {
        let mut pid = PidController::new(PidConfig::pid(0.0, 0.0, 5.0));
        // Without a previous error there is nothing to differentiate.
        assert_eq!(pid.update(10.0, 0.1), 0.0);
    }

    #[test]
    fn output_is_clamped() {
        let config = PidConfig {
            kp: 100.0,
            ki: 0.0,
            kd: 0.0,
            integral_limit: 1.0,
            output_limit: 2.0,
        };
        let mut pid = PidController::new(config);
        assert_eq!(pid.update(1.0, 0.1), 2.0);
        assert_eq!(pid.update(-1.0, 0.1), -2.0);
    }

    #[test]
    fn a_nan_integral_limit_does_not_clamp() {
        let config = PidConfig {
            integral_limit: f64::NAN,
            ..PidConfig::pi(0.0, 1.0)
        };
        let mut pid = PidController::new(config);
        let mut out = 0.0;
        for _ in 0..100 {
            out = pid.update(1.0, 0.1);
        }
        // Ten unit-seconds, far past the default limit of 2.
        assert!((pid.integral() - 10.0).abs() < 1e-9);
        assert!((out - 10.0).abs() < 1e-9);
    }

    #[test]
    fn a_nan_output_limit_does_not_clamp() {
        let config = PidConfig {
            output_limit: f64::NAN,
            ..PidConfig::pi(100.0, 0.0)
        };
        let mut pid = PidController::new(config);
        assert_eq!(pid.update(1.0, 0.1), 100.0);
        assert_eq!(pid.update(-1.0, 0.1), -100.0);
    }

    #[test]
    fn zero_dt_skips_integral_and_derivative() {
        let mut pid = PidController::new(PidConfig::pid(1.0, 1.0, 1.0));
        let out = pid.update(0.5, 0.0);
        assert_eq!(out, 0.5);
        assert_eq!(pid.integral(), 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut pid = PidController::new(PidConfig::default());
        pid.update(1.0, 0.1);
        pid.update(1.0, 0.1);
        assert!(pid.integral() > 0.0);
        pid.reset();
        assert_eq!(pid.integral(), 0.0);
        assert_eq!(pid.last_error(), None);
    }

    #[test]
    fn closed_loop_converges_to_setpoint() {
        // A trivial first-order plant: state += output * dt. The PID should
        // drive the state to the setpoint without oscillating wildly.
        let mut pid = PidController::new(PidConfig::pid(4.0, 1.0, 0.1));
        let mut state = 0.0;
        let setpoint = 1.0;
        let dt = 0.01;
        for _ in 0..2000 {
            let error = setpoint - state;
            let u = pid.update(error, dt);
            state += u * dt;
        }
        assert!((state - setpoint).abs() < 0.01, "state={state}");
    }

    proptest! {
        #[test]
        fn output_respects_limit(
            errors in proptest::collection::vec(-10.0f64..10.0, 1..200),
            limit in 0.1f64..5.0,
        ) {
            let config = PidConfig {
                kp: 3.0,
                ki: 1.0,
                kd: 0.5,
                integral_limit: 10.0,
                output_limit: limit,
            };
            let mut pid = PidController::new(config);
            for e in errors {
                let out = pid.update(e, 0.01);
                prop_assert!(out.abs() <= limit + 1e-9);
            }
        }

        #[test]
        fn zero_error_keeps_zero_output(dt in 0.001f64..1.0, steps in 1usize..100) {
            let mut pid = PidController::new(PidConfig::default());
            for _ in 0..steps {
                let out = pid.update(0.0, dt);
                prop_assert!(out.abs() < 1e-12);
            }
        }
    }
}
