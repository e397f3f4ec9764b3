//! Proportion estimation (Figure 4).
//!
//! In normal circumstances the new allocation is the cumulative progress
//! pressure multiplied by a constant scaling factor: `P'_t = k·Q_t`.  If the
//! previous allocation overestimated the application's needs — detected by
//! comparing the CPU a thread used with the amount allocated to it — the
//! controller instead reduces the allocation by a constant factor, which
//! reclaims allocation when some other resource is the bottleneck.

use crate::config::ControllerConfig;
use rrs_scheduler::Proportion;

/// Figure 4's constant decrement `C`, in parts per thousand: what a job
/// whose previous allocation was too generous loses per cycle.
pub(crate) const RECLAIM_PPT: u32 = 20;

/// Figure 4's "too generous" test: a job that used less than this fraction
/// of its allocation over the last period has its allocation reduced by
/// [`RECLAIM_PPT`] instead of set from its pressure.
const USAGE_THRESHOLD: f64 = 0.5;

/// The outcome of one proportion-estimation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EstimateOutcome {
    /// The desired proportion before any squishing.
    pub desired: Proportion,
    /// Whether the reclamation branch (`−C`, "too generous") was taken.
    pub reclaimed: bool,
}

/// Stateless proportion estimator implementing Figure 4.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProportionEstimator {
    gain_k_ppt: f64,
    min: Proportion,
    max: Proportion,
}

impl ProportionEstimator {
    /// Creates an estimator from the controller configuration.
    pub fn new(config: &ControllerConfig) -> Self {
        Self {
            gain_k_ppt: config.gain_k_ppt,
            min: config.min_proportion,
            max: config.max_proportion,
        }
    }

    /// Computes the new desired proportion for a job.
    ///
    /// * `current` — the job's current proportion `P_t`.
    /// * `cumulative_pressure` — the PID output `Q_t`.
    /// * `usage_ratio` — fraction of the last period's allocation the job
    ///   actually used, in `[0, 1]`.
    ///
    /// When `usage_ratio` falls below [`USAGE_THRESHOLD`] the job is
    /// considered "too generous\[ly\]" provisioned and its allocation is
    /// reduced by the constant `C` ([`RECLAIM_PPT`]); otherwise the
    /// allocation is `k·Q_t`.  The result is clamped to the configured
    /// `[min, max]` proportion so every job always keeps a non-zero
    /// allocation (no starvation).
    pub(crate) fn estimate(
        &self,
        current: Proportion,
        cumulative_pressure: f64,
        usage_ratio: f64,
    ) -> EstimateOutcome {
        if usage_ratio < USAGE_THRESHOLD {
            // Too generous: reclaim a constant amount.
            let reduced = current.ppt().saturating_sub(RECLAIM_PPT);
            return EstimateOutcome {
                desired: self.clamp(reduced),
                reclaimed: true,
            };
        }
        let raw = self.gain_k_ppt * cumulative_pressure;
        let desired = if raw <= 0.0 {
            // Negative cumulative pressure: the job is ahead; the smallest
            // allowed allocation keeps it alive without wasting CPU.
            self.min
        } else {
            self.clamp(raw.round() as u32)
        };
        EstimateOutcome {
            desired,
            reclaimed: false,
        }
    }

    fn clamp(&self, ppt: u32) -> Proportion {
        Proportion::from_ppt(ppt.clamp(self.min.ppt(), self.max.ppt()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn estimator() -> ProportionEstimator {
        ProportionEstimator::new(&ControllerConfig::default())
    }

    #[test]
    fn positive_pressure_scales_with_k() {
        let est = estimator();
        let out = est.estimate(Proportion::from_ppt(100), 0.4, 1.0);
        // k = 500 ppt per unit pressure → 0.4 maps to 200 ppt.
        assert_eq!(out.desired.ppt(), 200);
        assert!(!out.reclaimed);
    }

    #[test]
    fn negative_pressure_floors_at_min() {
        let est = estimator();
        let out = est.estimate(Proportion::from_ppt(300), -0.4, 1.0);
        assert_eq!(out.desired, est.min);
        assert!(!out.reclaimed);
    }

    #[test]
    fn low_usage_triggers_reclamation() {
        let est = estimator();
        let out = est.estimate(Proportion::from_ppt(300), 0.5, 0.1);
        assert!(out.reclaimed);
        assert_eq!(out.desired.ppt(), 280); // 300 - C where C = 20
    }

    #[test]
    fn reclamation_never_goes_below_min() {
        let est = estimator();
        let out = est.estimate(Proportion::from_ppt(5), 0.5, 0.0);
        assert!(out.reclaimed);
        assert_eq!(out.desired, est.min);
    }

    #[test]
    fn usage_at_threshold_is_not_reclaimed() {
        let est = estimator();
        let out = est.estimate(Proportion::from_ppt(100), 0.2, USAGE_THRESHOLD);
        assert!(!out.reclaimed);
    }

    #[test]
    fn desired_is_clamped_to_max() {
        let est = estimator();
        let out = est.estimate(Proportion::from_ppt(100), 100.0, 1.0);
        assert_eq!(out.desired, est.max);
    }

    #[test]
    fn starvation_is_impossible() {
        // Whatever the inputs, the desired proportion is at least MIN.
        let est = estimator();
        for pressure in [-10.0, -1.0, 0.0, 0.001] {
            for usage in [0.0, 0.3, 1.0] {
                let out = est.estimate(Proportion::ZERO, pressure, usage);
                assert!(out.desired.ppt() >= 1);
            }
        }
    }

    proptest! {
        #[test]
        fn output_is_always_within_bounds(
            current in 0u32..=1000,
            pressure in -5.0f64..5.0,
            usage in 0.0f64..1.0,
        ) {
            let est = estimator();
            let out = est.estimate(Proportion::from_ppt(current), pressure, usage);
            prop_assert!(out.desired.ppt() >= est.min.ppt());
            prop_assert!(out.desired.ppt() <= est.max.ppt());
        }

        #[test]
        fn desired_is_monotone_in_pressure(
            p1 in -2.0f64..2.0,
            p2 in -2.0f64..2.0,
            current in 0u32..=1000,
        ) {
            let est = estimator();
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let out_lo = est.estimate(Proportion::from_ppt(current), lo, 1.0);
            let out_hi = est.estimate(Proportion::from_ppt(current), hi, 1.0);
            prop_assert!(out_lo.desired.ppt() <= out_hi.desired.ppt());
        }

        #[test]
        fn reclamation_only_when_usage_below_threshold(
            usage in 0.0f64..1.0,
            pressure in -1.0f64..1.0,
        ) {
            let est = estimator();
            let out = est.estimate(Proportion::from_ppt(500), pressure, usage);
            prop_assert_eq!(out.reclaimed, usage < USAGE_THRESHOLD);
        }
    }
}
