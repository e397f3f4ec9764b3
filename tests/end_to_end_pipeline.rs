//! Integration tests spanning the queue, controller, scheduler and simulator
//! crates: the full monitoring → estimation → actuation loop on realistic
//! workloads.

use realrate::core::JobSpec;
use realrate::queue::ProgressMetric;
use realrate::sim::{Host, SimConfig, Simulation};
use realrate::workloads::{CpuHog, PipelineConfig, PulsePipeline};

#[test]
fn steady_pipeline_converges_and_holds_the_queue_near_half() {
    let mut sim = Simulation::new(SimConfig::default());
    let handles = PulsePipeline::install(&mut sim, PipelineConfig::steady(2.5e-5));
    sim.run_for(30.0);

    // Throughput match: producer offers 2000 bytes/s and the consumer should
    // move essentially all of it.
    let produced = sim
        .trace()
        .get("rate/producer")
        .unwrap()
        .window_mean(10.0, 30.0)
        .unwrap();
    let consumed = sim
        .trace()
        .get("rate/consumer")
        .unwrap()
        .window_mean(10.0, 30.0)
        .unwrap();
    assert!(
        (consumed / produced - 1.0).abs() < 0.2,
        "consumer ({consumed}) should track producer ({produced})"
    );

    // The queue should not be pinned at either rail in steady state.
    let fill = handles.queue.sample().fraction();
    assert!((0.02..=0.98).contains(&fill), "final fill {fill}");
}

#[test]
fn pipeline_survives_competing_load_without_starvation() {
    let mut sim = Simulation::new(SimConfig::default());
    let handles = PulsePipeline::install(&mut sim, PipelineConfig::steady(2.5e-5));
    let hog = sim
        .add_job("hog", JobSpec::miscellaneous(), Box::new(CpuHog::new()))
        .unwrap();
    sim.run_for(30.0);

    // The hog gets the slack, but the consumer still tracks the producer.
    let produced = sim
        .trace()
        .get("rate/producer")
        .unwrap()
        .window_mean(10.0, 30.0)
        .unwrap();
    let consumed = sim
        .trace()
        .get("rate/consumer")
        .unwrap()
        .window_mean(10.0, 30.0)
        .unwrap();
    assert!(
        consumed > produced * 0.75,
        "consumer ({consumed}) starved by hog (producer {produced})"
    );
    assert!(sim.allocation_ppt(hog) > 100, "hog should get leftover CPU");
    // The producer's reservation is untouched.
    assert_eq!(sim.allocation_ppt(handles.producer), 200);
    // Granted allocations never exceed the overload threshold.
    let total = sim.allocation_ppt(handles.producer)
        + sim.allocation_ppt(handles.consumer)
        + sim.allocation_ppt(hog);
    assert!(total <= 952, "total granted {total} exceeds the threshold");
}

#[test]
fn overload_raises_squish_events_and_controller_stays_within_budget() {
    let mut sim = Simulation::new(SimConfig::default());
    for i in 0..5 {
        sim.add_job(
            &format!("hog{i}"),
            JobSpec::miscellaneous(),
            Box::new(CpuHog::new()),
        )
        .unwrap();
    }
    sim.run_for(10.0);
    assert!(
        sim.stats().squish_events > 0,
        "five hogs must trigger squishing"
    );

    // Controller overhead stays in the single-digit percent range.
    let overhead = sim.stats().controller_cost_us / sim.now_micros() as f64;
    assert!(
        overhead < 0.02,
        "controller overhead {overhead} too high for 5 jobs"
    );
}

#[test]
fn five_hogs_share_the_machine_roughly_equally() {
    let mut sim = Simulation::new(SimConfig::default());
    let handles: Vec<_> = (0..5)
        .map(|i| {
            sim.add_job(
                &format!("hog{i}"),
                JobSpec::miscellaneous(),
                Box::new(CpuHog::new()),
            )
            .unwrap()
        })
        .collect();
    sim.run_for(20.0);
    let used: Vec<f64> = handles
        .iter()
        .map(|h| sim.cpu_used(*h).as_micros() as f64 / sim.now_micros() as f64)
        .collect();
    let min = used.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = used.iter().cloned().fold(0.0, f64::max);
    assert!(
        max / min.max(1e-9) < 2.0,
        "equal hogs should get similar CPU shares: {used:?}"
    );
    let total: f64 = used.iter().sum();
    assert!(
        total > 0.8,
        "the machine should be nearly fully used, got {total}"
    );
}
