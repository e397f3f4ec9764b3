//! Figure 5: controller overhead vs. number of controlled processes.
//!
//! The paper runs the user-level controller at a 10 ms period over N dummy
//! processes "that consume no CPU but are scheduled, monitored, and
//! controlled" and reports the controller's CPU utilisation as a function of
//! N: a line `y = 0.00066·x + 0.00057` with R² = 0.999 and 2.7 % of the CPU
//! at 40 processes.

use rrs_core::JobSpec;
use rrs_metrics::{linear_fit, ExperimentRecord, TimeSeries};
use rrs_sim::{Host, SimConfig, Simulation};
use rrs_workloads::DummyProcess;

/// Parameters for the overhead sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Params {
    /// Largest number of dummy processes to test.
    pub max_processes: usize,
    /// Step between tested process counts.
    pub step: usize,
    /// Simulated seconds per data point.
    pub seconds_per_point: f64,
}

impl Default for Fig5Params {
    fn default() -> Self {
        Self {
            max_processes: 40,
            step: 5,
            seconds_per_point: 3.0,
        }
    }
}

/// Measures controller utilisation for one process count.
pub(crate) fn controller_utilisation(processes: usize, seconds: f64) -> f64 {
    let mut sim = Simulation::new(SimConfig::default());
    for i in 0..processes {
        sim.add_job(
            &format!("dummy{i}"),
            JobSpec::miscellaneous(),
            Box::new(DummyProcess::new()),
        )
        .expect("misc jobs are always admitted");
    }
    sim.run_for(seconds);
    sim.stats().controller_cost_us / sim.now_micros() as f64
}

/// Runs the full sweep and returns the experiment record.
///
/// Scalars: `slope`, `intercept`, `r_squared`, `overhead_at_40` (all in CPU
/// fraction).  Series: `controller overhead` indexed by process count.
pub fn run(params: Fig5Params) -> ExperimentRecord {
    let mut record = ExperimentRecord::new(
        "figure5",
        "Controller overhead (CPU fraction) vs. number of controlled processes, \
         controller period 10 ms",
    );
    let mut series = TimeSeries::new("controller overhead");
    let mut points = Vec::new();
    let mut n = 0usize;
    while n <= params.max_processes {
        let overhead = controller_utilisation(n, params.seconds_per_point);
        series.push(n as f64, overhead);
        points.push((n as f64, overhead));
        n += params.step.max(1);
    }
    if let Some(fit) = linear_fit(&points) {
        record.scalar("slope", fit.slope);
        record.scalar("intercept", fit.intercept);
        record.scalar("r_squared", fit.r_squared);
        record.scalar("overhead_at_40", fit.predict(40.0));
    }
    record.add_series(series);
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_grows_linearly_and_matches_the_paper_scale() {
        let params = Fig5Params {
            max_processes: 20,
            step: 10,
            seconds_per_point: 1.0,
        };
        let record = run(params);
        let slope = record.get_scalar("slope").unwrap();
        let intercept = record.get_scalar("intercept").unwrap();
        let r2 = record.get_scalar("r_squared").unwrap();
        // The paper reports 0.00066 per process and 0.00057 fixed; the
        // reproduction should land in the same decade and be nearly linear.
        assert!((0.0002..0.002).contains(&slope), "slope {slope}");
        assert!((0.0..0.005).contains(&intercept), "intercept {intercept}");
        assert!(r2 > 0.95, "fit should be close to linear, R² = {r2}");
    }

    #[test]
    fn forty_processes_cost_a_few_percent() {
        let overhead = controller_utilisation(40, 1.0);
        assert!(
            (0.01..0.06).contains(&overhead),
            "overhead at 40 processes was {overhead}, paper reports ≈ 0.027"
        );
    }
}
