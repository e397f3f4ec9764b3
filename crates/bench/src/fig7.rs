//! Figure 7: controller response under competing load.
//!
//! The Figure 6 pipeline runs together with a CPU hog (a miscellaneous job
//! with no progress metric that tries to consume as much CPU as it can).
//! The total desired allocation exceeds the machine, so the controller must
//! squish the hog and the consumer; the producer is untouched because it
//! holds a reservation.  The consumer effectively wins allocation from the
//! hog because its pressure grows as it falls behind while the hog's
//! pressure is constant.

use crate::fig6::{add_windowed_series, sim_config, Fig6Params};
use rrs_core::JobSpec;
use rrs_metrics::ExperimentRecord;
use rrs_sim::{Host, Simulation, Trace};
use rrs_workloads::{CpuHog, PulsePipeline};

/// Parameters for the under-load experiment.
#[derive(Debug, Clone, Default)]
pub struct Fig7Params {
    /// The underlying responsiveness scenario.
    pub base: Fig6Params,
}

/// Runs the scenario: pipeline plus hog.
pub fn run_scenario(params: &Fig7Params) -> Trace {
    let mut sim = Simulation::new(sim_config(params.base.controller));
    let _handles = PulsePipeline::install(&mut sim, params.base.pipeline.clone());
    sim.add_job("hog", JobSpec::miscellaneous(), Box::new(CpuHog::new()))
        .expect("misc jobs are always admitted");
    sim.run_for(params.base.duration_s);
    sim.trace().into_owned()
}

/// Runs the experiment and assembles the figure's series and scalars.
///
/// Series (0.25 s window means): consumer, producer and hog allocations
/// (parts per thousand) and the queue fill level.  Scalars: mean
/// allocations in the second half of the run, the throughput match between
/// producer and consumer, and whether the system oversubscribed
/// (`squished`).
pub fn run(params: Fig7Params) -> ExperimentRecord {
    let duration = params.base.duration_s;
    let trace = run_scenario(&params);
    let mut record = ExperimentRecord::new(
        "figure7",
        "Controller response under load: the pulse pipeline competes with a CPU hog; \
         the controller squishes the hog and consumer but not the reserved producer",
    );
    add_windowed_series(
        &mut record,
        &trace,
        &params.base.controller,
        &[
            "alloc/consumer",
            "alloc/producer",
            "alloc/hog",
            "rate/producer",
            "rate/consumer",
            "fill/pipeline",
        ],
    );
    let half = duration / 2.0;
    for (scalar, series) in [
        ("mean_consumer_alloc_ppt", "alloc/consumer"),
        ("mean_producer_alloc_ppt", "alloc/producer"),
        ("mean_hog_alloc_ppt", "alloc/hog"),
    ] {
        if let Some(s) = trace.get(series) {
            if let Some(mean) = s.window_mean(half, duration) {
                record.scalar(scalar, mean);
            }
        }
    }
    if let (Some(prod), Some(cons)) = (trace.get("rate/producer"), trace.get("rate/consumer")) {
        let p = prod.window_mean(5.0, duration).unwrap_or(0.0);
        let c = cons.window_mean(5.0, duration).unwrap_or(0.0);
        if p > 0.0 {
            record.scalar("throughput_match", c / p);
        }
    }
    // Total allocation must respect the overload threshold.
    if let (Some(c), Some(p), Some(h)) = (
        trace.get("alloc/consumer"),
        trace.get("alloc/producer"),
        trace.get("alloc/hog"),
    ) {
        let total = c.window_mean(half, duration).unwrap_or(0.0)
            + p.window_mean(half, duration).unwrap_or(0.0)
            + h.window_mean(half, duration).unwrap_or(0.0);
        record.scalar("mean_total_alloc_ppt", total);
    }
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig6::responsive_controller_config;
    use rrs_feedback::PulseTrain;

    fn quick_params() -> Fig7Params {
        let mut p = Fig7Params::default();
        p.base.duration_s = 20.0;
        p.base.pipeline.production_rate = PulseTrain::new(2.5e-5, 5.0e-5, vec![(5.0, 10.0)]);
        p.base.controller = responsive_controller_config();
        p
    }

    #[test]
    fn hog_takes_the_slack_but_consumer_still_tracks_producer() {
        let record = run(quick_params());
        let hog = record.get_scalar("mean_hog_alloc_ppt").unwrap();
        let consumer = record.get_scalar("mean_consumer_alloc_ppt").unwrap();
        let matching = record.get_scalar("throughput_match").unwrap();
        assert!(hog > 100.0, "the hog should get substantial CPU, got {hog}");
        assert!(consumer > 100.0, "consumer got only {consumer}");
        assert!(
            (0.7..1.3).contains(&matching),
            "consumer should still track the producer, ratio {matching}"
        );
    }

    #[test]
    fn producer_reservation_is_untouched() {
        let record = run(quick_params());
        let producer = record.get_scalar("mean_producer_alloc_ppt").unwrap();
        assert!(
            (producer - 200.0).abs() < 1.0,
            "producer allocation should stay at its 200 ‰ reservation, got {producer}"
        );
    }

    #[test]
    fn total_allocation_respects_the_overload_threshold() {
        let record = run(quick_params());
        let total = record.get_scalar("mean_total_alloc_ppt").unwrap();
        assert!(
            total <= 960.0,
            "granted allocations must stay under the 950 ‰ threshold, got {total}"
        );
        assert!(
            total > 700.0,
            "the machine should be nearly fully used, got {total}"
        );
    }
}
