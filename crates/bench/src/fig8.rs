//! Figure 8: dispatch overhead vs. dispatcher frequency.
//!
//! The paper measures "the amount of CPU available to applications by
//! running a program that attempts to use as much CPU as it can" for
//! various time-slice lengths, normalised to a kernel with a 10 ms time
//! slice, and finds a knee around 4000 Hz (250 µs) where the overhead is
//! about 2.7 %.

use rrs_core::JobSpec;
use rrs_metrics::{ExperimentRecord, TimeSeries};
use rrs_scheduler::{DispatcherConfig, Period, Proportion, Reservation};
use rrs_sim::{Host, SimConfig, Simulation};
use rrs_workloads::CpuHog;

/// Parameters for the dispatch-overhead sweep.
#[derive(Debug, Clone)]
pub struct Fig8Params {
    /// Dispatcher frequencies to test, in Hz.
    pub frequencies_hz: Vec<f64>,
    /// Simulated seconds per data point.
    pub seconds_per_point: f64,
}

impl Default for Fig8Params {
    fn default() -> Self {
        Self {
            frequencies_hz: vec![100.0, 200.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0, 10000.0],
            seconds_per_point: 2.0,
        }
    }
}

/// Measures the CPU fraction available to a greedy process at one dispatcher
/// frequency.
pub(crate) fn available_cpu(frequency_hz: f64, seconds: f64) -> f64 {
    let interval_us = ((1e6 / frequency_hz).round() as u64).max(1);
    let config = SimConfig {
        controller_enabled: false,
        dispatcher: DispatcherConfig {
            dispatch_interval_us: interval_us,
            ..DispatcherConfig::default()
        },
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(config);
    let hog = sim
        .add_job("hog", JobSpec::miscellaneous(), Box::new(CpuHog::new()))
        .expect("misc jobs are always admitted");
    sim.force_reservation(
        hog,
        Reservation::new(Proportion::from_ppt(1000), Period::from_millis(10)),
    );
    sim.run_for(seconds);
    sim.cpu_used(hog).as_micros() as f64 / sim.now_micros() as f64
}

/// Runs the sweep and returns the experiment record.
///
/// The series `available CPU (normalised)` is indexed by dispatcher
/// frequency in Hz and normalised to the lowest tested frequency (the
/// paper normalises to a 10 ms time slice, i.e. 100 Hz).  Scalars include
/// the overhead at 4000 Hz and the knee frequency (first frequency at which
/// more than 2.5 % of the CPU is lost).
pub fn run(params: Fig8Params) -> ExperimentRecord {
    let mut record = ExperimentRecord::new(
        "figure8",
        "CPU available to a greedy user process vs. dispatcher frequency, \
         normalised to the 100 Hz (10 ms time-slice) configuration",
    );
    let mut absolute = TimeSeries::new("available CPU (fraction)");
    for &f in &params.frequencies_hz {
        absolute.push(f, available_cpu(f, params.seconds_per_point));
    }
    let baseline = absolute.first().map(|s| s.value).unwrap_or(1.0).max(1e-9);
    let mut normalised = TimeSeries::new("available CPU (normalised)");
    for (f, v) in absolute.iter() {
        normalised.push(f, v / baseline);
    }

    if let Some(at_4k) = normalised.value_at(4000.0) {
        record.scalar("overhead_at_4000hz", 1.0 - at_4k);
    }
    if let Some(knee) = normalised.first_time_where(0.0, |v| v < 0.975) {
        record.scalar("knee_frequency_hz", knee);
    }
    if let Some(last) = normalised.last() {
        record.scalar("available_at_max_frequency", last.value);
    }
    record.add_series(absolute);
    record.add_series(normalised);
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> Fig8Params {
        Fig8Params {
            frequencies_hz: vec![100.0, 1000.0, 4000.0, 10000.0],
            seconds_per_point: 1.0,
        }
    }

    #[test]
    fn available_cpu_decreases_with_frequency() {
        let record = run(quick_params());
        let series = &record.series[1];
        let values = series.values();
        assert!(values.windows(2).all(|w| w[1] <= w[0] + 1e-9));
        assert_eq!(values[0], 1.0);
    }

    #[test]
    fn overhead_at_4khz_is_a_few_percent() {
        let record = run(quick_params());
        let overhead = record.get_scalar("overhead_at_4000hz").unwrap();
        assert!(
            (0.01..0.08).contains(&overhead),
            "overhead at 4 kHz was {overhead}, paper reports ≈ 0.027"
        );
    }

    #[test]
    fn hog_gets_nearly_everything_at_100hz() {
        let available = available_cpu(100.0, 1.0);
        assert!(available > 0.97, "available at 100 Hz was {available}");
    }
}
