//! Figure 6: controller responsiveness on an otherwise idle system.
//!
//! A producer with a fixed reservation generates rising then falling pulses
//! of production rate (doubling its bytes/cycle); the controller must
//! discover the consumer's allocation so that the consumer's progress rate
//! tracks the producer's, holding the shared queue near half full.  The
//! paper reports a response time of roughly one third of a second.

use rrs_core::ControllerConfig;
use rrs_feedback::{PidConfig, PulseTrain};
use rrs_metrics::ExperimentRecord;
use rrs_sim::{SimConfig, Simulation, SteppingMode, Trace};
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

/// Runs the Figure 6 scenario and returns the simulation trace plus the
/// producer pulse schedule used.
pub fn run_scenario(params: &Fig6Params) -> (Trace, PulseTrain) {
    let config = SimConfig {
        controller: params.controller,
        trace_interval_s: 0.25,
        // This closed loop is multistable: with exact (lazy) period
        // boundaries the reservation period phase-locks to the controller
        // cycle, the sampled usage ratio pins at 1.0, and the loop settles
        // in a high-allocation fixed point (fill still on target).  The
        // drifting boundaries of the eager reference sweep the sampling
        // phase, catch the partial-usage dips, and keep allocation tracking
        // need — the attractor the paper's response-time figure describes.
        // Pin the reference stepping until usage is sensed over the
        // controller window instead of per period (see ROADMAP).
        stepping: SteppingMode::Lockstep,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(config);
    let _handles = PulsePipeline::install(&mut sim, params.pipeline.clone());
    sim.run_for(params.duration_s);
    (sim.trace().clone(), params.pipeline.production_rate.clone())
}

/// Runs the experiment and assembles the figure's series and scalars.
///
/// Series: producer and consumer progress rates (bytes/sec), queue fill
/// level, consumer allocation.  Scalars: `response_time_s` (time for the
/// consumer's allocation to reach 90 % of its doubled target after the
/// first pulse), `mean_fill_error` (average deviation of the fill level
/// from ½ over the run).
pub fn run(params: Fig6Params) -> ExperimentRecord {
    let (trace, pulses) = run_scenario(&params);
    let mut record = ExperimentRecord::new(
        "figure6",
        "Controller responsiveness: consumer allocation tracks a pulsed producer rate \
         on an otherwise idle system",
    );

    for name in [
        "rate/producer",
        "rate/consumer",
        "fill/pipeline",
        "alloc/consumer",
    ] {
        if let Some(series) = trace.get(name) {
            record.add_series(series.clone());
        }
    }

    // Response time: first pulse starts at the first pulse's start time; the
    // consumer allocation must double (base consumption needs ≈200 ‰, the
    // pulse needs ≈400 ‰).
    if let (Some(alloc), Some((pulse_start, _))) = (
        trace.get("alloc/consumer"),
        pulses.pulses().first().copied(),
    ) {
        let base = alloc
            .window_mean(pulse_start - 2.0, pulse_start)
            .unwrap_or(200.0);
        let target = base * 1.9;
        if let Some(t) = alloc.first_time_where(pulse_start, |v| v >= target) {
            record.scalar("response_time_s", t - pulse_start);
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
        let record = run(quick_params());
        let response = record
            .get_scalar("response_time_s")
            .expect("allocation should reach the doubled target");
        // The paper reports ≈ 1/3 s; accept the same order of magnitude on
        // the simulated plant.
        assert!(
            response < 2.0,
            "response time {response} s is far slower than the paper's ≈ 0.33 s"
        );
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
