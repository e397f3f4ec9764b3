//! Figure 9 (beyond the paper): aggregate throughput vs. number of CPUs.
//!
//! The paper's prototype ran on one 400 MHz CPU; the machine layer
//! generalises the dispatcher to `N` per-CPU run queues behind the same
//! API, with the control pipeline's Place stage spreading jobs by
//! least-loaded fit and threshold-triggered migration.  This experiment
//! measures how the aggregate throughput of a fleet of CPU-bound jobs
//! scales with the CPU count at several fleet sizes: with at least as
//! many jobs as CPUs, delivered work should grow near-linearly in `N`.

use rrs_core::JobSpec;
use rrs_metrics::{ExperimentRecord, TimeSeries};
use rrs_sim::{Host, SimConfig, Simulation};
use rrs_workloads::CpuHog;

/// Parameters for the multicore scaling sweep.
#[derive(Debug, Clone)]
pub struct Fig9Params {
    /// CPU counts to test.
    pub cpu_counts: Vec<usize>,
    /// Fleet sizes (number of concurrent CPU-bound jobs) to test.
    pub job_counts: Vec<usize>,
    /// Simulated seconds per data point.
    pub seconds_per_point: f64,
}

impl Default for Fig9Params {
    fn default() -> Self {
        Self {
            cpu_counts: vec![1, 2, 4, 8],
            job_counts: vec![10, 100, 1000],
            seconds_per_point: 2.0,
        }
    }
}

/// Runs one configuration and returns the aggregate throughput in "CPUs
/// worth of delivered work" (total CPU time consumed by all jobs divided
/// by elapsed simulated time; an ideal `N`-CPU machine yields `N`).
pub(crate) fn aggregate_throughput(cpus: usize, jobs: usize, seconds: f64) -> f64 {
    let mut sim = Simulation::new(SimConfig::default().with_cpus(cpus));
    let mut handles = Vec::with_capacity(jobs);
    for i in 0..jobs {
        handles.push(
            sim.add_job(
                &format!("hog{i}"),
                JobSpec::miscellaneous(),
                Box::new(CpuHog::new()),
            )
            .expect("misc jobs are always admitted"),
        );
    }
    sim.run_for(seconds);
    let total_used: u64 = handles.iter().map(|h| sim.cpu_used(*h).as_micros()).sum();
    total_used as f64 / sim.now_micros() as f64
}

/// Runs the sweep and returns the experiment record.
///
/// One series per fleet size (`throughput @ J jobs`, indexed by CPU
/// count), plus scalars `speedup_<J>jobs` — the ratio of the largest to
/// the smallest tested CPU count's throughput — and
/// `efficiency_at_max_cpus_<J>jobs` (speedup divided by the CPU ratio).
pub fn run(params: Fig9Params) -> ExperimentRecord {
    let mut record = ExperimentRecord::new(
        "figure9",
        "Aggregate throughput (CPUs worth of delivered work) vs. number of \
         CPUs, for fleets of CPU-bound jobs placed and migrated by the \
         pipeline's Place stage",
    );
    for &jobs in &params.job_counts {
        let mut series = TimeSeries::new(format!("throughput @ {jobs} jobs"));
        for &cpus in &params.cpu_counts {
            series.push(
                cpus as f64,
                aggregate_throughput(cpus, jobs, params.seconds_per_point),
            );
        }
        if let (Some(first), Some(last)) = (series.first(), series.last()) {
            if first.value > 0.0 && last.time > first.time {
                let speedup = last.value / first.value;
                record.scalar(format!("speedup_{jobs}jobs"), speedup);
                record.scalar(
                    format!("efficiency_at_max_cpus_{jobs}jobs"),
                    speedup / (last.time / first.time),
                );
            }
        }
        record.add_series(series);
    }
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> Fig9Params {
        Fig9Params {
            cpu_counts: vec![1, 2, 4],
            job_counts: vec![10],
            seconds_per_point: 1.0,
        }
    }

    #[test]
    fn throughput_increases_with_cpu_count() {
        let record = run(quick_params());
        let series = &record.series[0];
        let values = series.values();
        assert_eq!(values.len(), 3);
        assert!(
            values.windows(2).all(|w| w[1] > w[0]),
            "throughput must rise with CPUs: {values:?}"
        );
        let speedup = record.get_scalar("speedup_10jobs").unwrap();
        assert!(
            speedup > 2.0,
            "4 CPUs should at least double 1 CPU, got {speedup}"
        );
    }

    #[test]
    fn single_cpu_throughput_is_at_most_one_cpu() {
        let t = aggregate_throughput(1, 10, 1.0);
        assert!(t <= 1.0, "one CPU cannot deliver {t} CPUs of work");
        assert!(t > 0.5, "hogs should keep one CPU busy, got {t}");
    }

    #[test]
    fn more_cpus_than_jobs_saturates_at_the_job_count() {
        // Two jobs cannot use more than two CPUs however many exist.
        let t = aggregate_throughput(8, 2, 1.0);
        assert!(t <= 2.0 + 1e-9, "got {t}");
    }
}
