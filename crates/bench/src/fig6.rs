//! Figure 6: controller responsiveness on an otherwise idle system.
//!
//! A producer with a fixed reservation generates rising then falling pulses
//! of production rate (doubling its bytes/cycle); the controller must
//! discover the consumer's allocation so that the consumer's progress rate
//! tracks the producer's, holding the shared queue near half full.  The
//! paper reports a response time of roughly one third of a second.

use rrs_core::ControllerConfig;
use rrs_feedback::{PidConfig, PulseTrain};
use rrs_metrics::{ExperimentRecord, TimeSeries};
use rrs_sim::{Host, SimConfig, Simulation, Trace};
use rrs_workloads::{PipelineConfig, PulsePipeline};

/// Parameters for the responsiveness experiment.
#[derive(Debug, Clone)]
pub struct Fig6Params {
    /// Total simulated duration in seconds (the paper plots 40 s).
    pub duration_s: f64,
    /// Pipeline configuration (queue size, rates, pulse schedule).
    pub pipeline: PipelineConfig,
    /// Controller configuration.
    pub controller: ControllerConfig,
}

impl Default for Fig6Params {
    fn default() -> Self {
        Self {
            duration_s: 40.0,
            pipeline: PipelineConfig::default(),
            controller: responsive_controller_config(),
        }
    }
}

/// The controller tuning used for the responsiveness experiments.
///
/// The gains are chosen so that the closed loop over the default pipeline
/// (queue of 40 × 250-byte blocks on a 400 MHz CPU) has a natural frequency
/// of a few rad/s with moderate damping, giving the ≈⅓ s reaction the paper
/// reports.
pub(crate) fn responsive_controller_config() -> ControllerConfig {
    ControllerConfig {
        gain_k_ppt: 2000.0,
        pid: PidConfig {
            kp: 5.0,
            ki: 30.0,
            kd: 0.05,
            integral_limit: 1.0,
            output_limit: 0.5,
        },
        ..ControllerConfig::default()
    }
}

/// Width of the windows the figure's scalars and plotted series are read
/// over, in seconds.
const WINDOW_S: f64 = 0.25;

/// The simulator configuration of the Figure 6 and 7 runs.
///
/// Grants only change at controller cycles, so the trace is sampled once
/// per controller period: every grant is recorded and no sampling phase
/// is left to alias against the block arrivals.  (The consumer's grant
/// idles at the floor and pulses for a few cycles per arriving block; a
/// coarser sampler on the same integer grid as the arrivals reads only the
/// pulses.)
pub(crate) fn sim_config(controller: ControllerConfig) -> SimConfig {
    SimConfig {
        controller,
        trace_interval_s: controller.controller_period_s,
        ..SimConfig::default()
    }
}

/// The mean of `series` over the `WINDOW_S` before every `stride`-th
/// sample, as `(time, mean)` — the sample itself excluded: it is the
/// grant for the step that follows.
fn window_means(series: &TimeSeries, stride: usize) -> impl Iterator<Item = (f64, f64)> + '_ {
    let mean_before = |(t, _)| Some((t, series.window_mean(t - WINDOW_S, t)?));
    series.iter().step_by(stride).filter_map(mean_before)
}

/// Adds the named series of `trace` to `record` as `WINDOW_S` window
/// means, one point per window, so a record stays a few hundred points
/// however fine the trace.
pub(crate) fn add_windowed_series(
    record: &mut ExperimentRecord,
    trace: &Trace,
    controller: &ControllerConfig,
    names: &[&str],
) {
    let stride = (WINDOW_S / controller.controller_period_s).round().max(1.0) as usize;
    for name in names {
        if let Some(series) = trace.get(name) {
            let mut windowed = TimeSeries::new(*name);
            for (t, mean) in window_means(series, stride) {
                windowed.push(t, mean);
            }
            record.add_series(windowed);
        }
    }
}

/// Runs the Figure 6 scenario and returns the simulation trace plus the
/// producer pulse schedule used.
pub fn run_scenario(params: &Fig6Params) -> (Trace, PulseTrain) {
    let mut sim = Simulation::new(sim_config(params.controller));
    let _handles = PulsePipeline::install(&mut sim, params.pipeline.clone());
    sim.run_for(params.duration_s);
    (sim.trace().clone(), params.pipeline.production_rate.clone())
}

/// Runs the experiment and assembles the figure's series and scalars.
///
/// Series (0.25 s window means): producer and consumer progress rates
/// (bytes/sec), queue fill level, consumer allocation.  Scalars:
/// `base_alloc_ppt` and `pulse_alloc_ppt` (the consumer's mean allocation
/// over the 2 s before the first pulse and over the pulse itself) with
/// their `alloc_ratio`, `response_time_s` (time after the first pulse
/// starts until the trailing 0.25 s mean allocation reaches 1.9 × the
/// base), `mean_fill_error` (average deviation of the fill level from ½
/// over the run).
pub fn run(params: Fig6Params) -> ExperimentRecord {
    let (trace, pulses) = run_scenario(&params);
    let mut record = ExperimentRecord::new(
        "figure6",
        "Controller responsiveness: consumer allocation tracks a pulsed producer rate \
         on an otherwise idle system",
    );
    add_windowed_series(
        &mut record,
        &trace,
        &params.controller,
        &[
            "rate/producer",
            "rate/consumer",
            "fill/pipeline",
            "alloc/consumer",
        ],
    );

    // The producer doubles its rate for the first pulse, so the consumer's
    // allocation must double too (base consumption needs ≈100 ‰ of the
    // CPU, the pulse ≈200 ‰).
    if let (Some(alloc), Some((pulse_start, pulse_width))) = (
        trace.get("alloc/consumer"),
        pulses.pulses().first().copied(),
    ) {
        if let (Some(base), Some(pulse)) = (
            alloc.window_mean(pulse_start - 2.0, pulse_start),
            alloc.window_mean(pulse_start, pulse_start + pulse_width),
        ) {
            record.scalar("base_alloc_ppt", base);
            record.scalar("pulse_alloc_ppt", pulse);
            record.scalar("alloc_ratio", pulse / base);
            let target = base * 1.9;
            if let Some((t, _)) =
                window_means(alloc, 1).find(|&(t, mean)| t >= pulse_start && mean >= target)
            {
                record.scalar("response_time_s", t - pulse_start);
            }
        }
    }
    if let Some(fill) = trace.get("fill/pipeline") {
        let mean_error =
            fill.values().iter().map(|v| (v - 0.5).abs()).sum::<f64>() / fill.len().max(1) as f64;
        record.scalar("mean_fill_error", mean_error);
        record.scalar("max_fill", fill.summary().max);
        record.scalar("min_fill", fill.summary().min);
    }
    if let (Some(prod), Some(cons)) = (trace.get("rate/producer"), trace.get("rate/consumer")) {
        let p = prod.window_mean(5.0, params.duration_s).unwrap_or(0.0);
        let c = cons.window_mean(5.0, params.duration_s).unwrap_or(0.0);
        record.scalar("mean_producer_rate_bytes_per_s", p);
        record.scalar("mean_consumer_rate_bytes_per_s", c);
        if p > 0.0 {
            record.scalar("throughput_match", c / p);
        }
    }
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> Fig6Params {
        let mut p = Fig6Params {
            duration_s: 20.0,
            ..Fig6Params::default()
        };
        p.pipeline.production_rate = PulseTrain::new(2.5e-5, 5.0e-5, vec![(5.0, 10.0)]);
        p
    }

    #[test]
    fn consumer_throughput_tracks_producer() {
        let record = run(quick_params());
        let matching = record.get_scalar("throughput_match").unwrap();
        assert!(
            (0.8..1.2).contains(&matching),
            "consumer should match producer throughput, ratio {matching}"
        );
    }

    #[test]
    fn controller_responds_within_about_a_second() {
        // The paper reports ≈ 1/3 s for the consumer's allocation to
        // follow the doubled rate.
        for (schedule, params) in [
            ("default", Fig6Params::default()),
            ("quick", quick_params()),
        ] {
            let response = run(params)
                .get_scalar("response_time_s")
                .expect("allocation should reach the doubled target");
            assert!(
                (0.1..=0.6).contains(&response),
                "{schedule} schedule: response time {response} s, the paper's is ≈ 0.33 s"
            );
        }
    }

    #[test]
    fn consumer_allocation_doubles_with_the_producer_rate() {
        let record = run(quick_params());
        let ratio = record.get_scalar("alloc_ratio").unwrap();
        assert!(
            (1.7..=2.6).contains(&ratio),
            "a doubled production rate needs a doubled allocation, got ×{ratio} ({:?} → {:?} ‰)",
            record.get_scalar("base_alloc_ppt"),
            record.get_scalar("pulse_alloc_ppt"),
        );
    }

    #[test]
    fn window_means_do_not_depend_on_the_sampling_interval() {
        // The figure samples once per controller period because that
        // records every grant; a 1 ms sampler sees each grant ten times,
        // so both must read the same allocation before and during the
        // first pulse.  (Not bit for bit: trace events bound the windows
        // the CPUs advance over, so a finer sampler is a slightly
        // different run.)
        let params = Fig6Params::default();
        let means = |trace: &Trace| {
            let alloc = trace.get("alloc/consumer").unwrap();
            [(2.0, 4.0), (4.0, 8.0)].map(|(from, to)| alloc.window_mean(from, to).unwrap())
        };
        let per_cycle = means(&run_scenario(&params).0);
        let mut sim = Simulation::new(SimConfig {
            trace_interval_s: 0.001,
            ..sim_config(params.controller)
        });
        let _handles = PulsePipeline::install(&mut sim, params.pipeline.clone());
        sim.run_for(params.duration_s);
        let fine = means(sim.trace());
        for (a, b) in per_cycle.into_iter().zip(fine) {
            assert!(
                (a - b).abs() <= 0.05 * b,
                "window mean {a} ‰ per cycle vs {b} ‰ at 1 ms"
            );
        }
    }

    #[test]
    fn fill_level_stays_off_the_rails() {
        let record = run(quick_params());
        let max_fill = record.get_scalar("max_fill").unwrap();
        let min_fill = record.get_scalar("min_fill").unwrap();
        assert!(
            max_fill < 1.0,
            "queue should not saturate, max fill {max_fill}"
        );
        assert!(
            min_fill > 0.0,
            "queue should not drain, min fill {min_fill}"
        );
    }
}
