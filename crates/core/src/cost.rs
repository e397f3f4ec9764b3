//! Model of the controller's own execution cost.
//!
//! Figure 5 reports that the user-level controller's overhead grows
//! linearly with the number of controlled processes: a fit of
//! `y = 0.00066·x + 0.00057` CPU utilisation at a 10 ms controller period.
//! That corresponds to roughly 5.7 µs of fixed work per invocation plus
//! 6.6 µs per controlled process (reading its progress metrics from the
//! kernel, computing the new allocation and writing it back).  The cost
//! model reproduces that accounting so the simulator can charge the
//! controller for its own CPU use.

/// Per-invocation execution cost of the controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerCostModel {
    /// Fixed cost per controller invocation, in microseconds.
    pub fixed_us: f64,
    /// Additional cost per controlled job, in microseconds.
    pub per_job_us: f64,
}

impl Default for ControllerCostModel {
    fn default() -> Self {
        // Calibrated against the Figure 5 fit at a 10 ms controller period:
        // intercept 0.00057 × 10 ms = 5.7 µs, slope 0.00066 × 10 ms = 6.6 µs.
        Self {
            fixed_us: 5.7,
            per_job_us: 6.6,
        }
    }
}

impl ControllerCostModel {
    /// Cost of one controller invocation over `jobs` controlled jobs, in
    /// microseconds.
    pub(crate) fn invocation_cost_us(&self, jobs: usize) -> f64 {
        self.fixed_us + self.per_job_us * jobs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_matches_figure_5_fit() {
        let m = ControllerCostModel::default();
        // The Figure 5 y-axis: the controller's share of a CPU when it runs
        // every 10 ms over `jobs` jobs.
        let utilisation = |jobs| m.invocation_cost_us(jobs) * 1e-6 / 0.010;
        // Intercept at 0 jobs.
        assert!((utilisation(0) - 0.00057).abs() < 1e-9);
        // Slope per job.
        let slope = utilisation(1) - utilisation(0);
        assert!((slope - 0.00066).abs() < 1e-9);
        // 40 jobs ≈ 2.7 % of the CPU, as quoted in the figure caption.
        let at_40 = utilisation(40);
        assert!((at_40 - 0.027).abs() < 0.001, "got {at_40}");
    }

    proptest! {
        #[test]
        fn cost_is_linear_in_jobs(a in 0usize..100, b in 0usize..100) {
            let m = ControllerCostModel::default();
            let combined = m.invocation_cost_us(a + b);
            let split = m.invocation_cost_us(a) + m.invocation_cost_us(b) - m.fixed_us;
            prop_assert!((combined - split).abs() < 1e-9);
        }
    }
}
