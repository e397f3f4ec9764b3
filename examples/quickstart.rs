//! Quickstart: scheduling a producer/consumer pipeline without reservations.
//!
//! A producer with a fixed reservation feeds a consumer through a shared
//! bounded buffer.  The consumer never specifies a proportion or a period —
//! the feedback controller discovers both from the queue fill level.
//!
//! The program is written once against `realrate::api::Host` and then run
//! twice: 20 simulated seconds on the deterministic simulator, and two
//! *real* seconds on the wall-clock executor — same workload, same
//! controller, different backend.
//!
//! Run with `cargo run --release --example quickstart`.  Pass
//! `--telemetry [path]` to record a structured trace of the simulator run
//! and export it as Chrome trace-event JSON (default
//! `quickstart_trace.json`, loadable at <https://ui.perfetto.dev>)
//! alongside the counter summary.

use realrate::api::{Host, Runtime, SimTime};
use realrate::metrics::plot::{ascii_plot, PlotConfig};
use realrate::telemetry::TelemetryConfig;
use realrate::workloads::{PipelineConfig, PulsePipeline};

/// Installs the pipeline, runs it for `duration`, and reports what the
/// controller discovered — on whatever backend `host` is.
fn demo(host: &mut dyn Host, duration: SimTime) {
    // The producer holds a 200 ‰ reservation, the consumer is a real-rate
    // job managed entirely by the controller.
    let handles = PulsePipeline::install(host, PipelineConfig::steady(2.5e-5));

    println!(
        "running {duration} of the pipeline on the {} backend...",
        host.backend()
    );
    host.advance(duration);

    let consumer_alloc = host.allocation_ppt(handles.consumer);
    let producer_alloc = host.allocation_ppt(handles.producer);
    println!("producer reservation : {producer_alloc} ‰ (fixed by the application)");
    println!("consumer allocation  : {consumer_alloc} ‰ (discovered by the controller)");

    // Job handles carry the controller's dense slot, so every layer can
    // query the control plane in O(1) without id lookups.
    let class = host
        .controller()
        .job_of(handles.consumer.slot)
        .and_then(|id| host.controller().job_class(id));
    println!(
        "consumer class       : {} ({})",
        class.unwrap(),
        handles.consumer.slot
    );
    println!();
}

fn main() {
    // `--telemetry [path]` turns on structured trace recording for the
    // simulator run and exports it for Perfetto.
    let mut args = std::env::args().skip(1);
    let mut trace_path: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--telemetry" => {
                trace_path = Some(
                    args.next()
                        .unwrap_or_else(|| "quickstart_trace.json".to_string()),
                );
            }
            other => {
                eprintln!("error: unknown argument '{other}'");
                eprintln!("usage: quickstart [--telemetry [trace.json]]");
                std::process::exit(2);
            }
        }
    }

    // Backend one: the paper's machine, simulated — 20 simulated seconds
    // finish in milliseconds and reproduce bit for bit.
    let mut builder = Runtime::sim();
    if trace_path.is_some() {
        builder = builder.telemetry(TelemetryConfig::default());
    }
    let mut sim = builder.build();
    demo(sim.as_mut(), SimTime::from_secs(20));

    if let Some(fill) = sim.trace().get("fill/pipeline") {
        println!("queue fill level over time (target is 0.5):");
        print!(
            "{}",
            ascii_plot(
                &fill,
                PlotConfig {
                    y_min: Some(0.0),
                    y_max: Some(1.0),
                    ..PlotConfig::default()
                }
            )
        );
        println!();
    }
    if let Some(alloc) = sim.trace().get("alloc/consumer") {
        println!("consumer allocation over time (parts per thousand):");
        print!("{}", ascii_plot(&alloc, PlotConfig::default()));
        println!();
    }

    if let Some(path) = &trace_path {
        let recorder = sim
            .telemetry_recorder()
            .expect("--telemetry installed a recorder");
        std::fs::write(path, recorder.chrome_trace_json()).expect("trace path is writable");
        println!("wrote Chrome trace-event JSON to {path} (load it at https://ui.perfetto.dev)");
        println!("telemetry counter summary:");
        println!("{}", sim.telemetry().summary_json());
        println!();
    }

    // Backend two: the identical program on real OS threads.  Two real
    // seconds is enough for the controller to find the same answer the
    // simulator found — within wall-clock tolerance, without per-app
    // tuning.
    let mut wall = Runtime::wall_clock().build();
    demo(wall.as_mut(), SimTime::from_secs(2));

    println!(
        "One host API, two backends: the controller discovered the consumer's\n\
         allocation from queue fill on both, with no backend-specific code."
    );
}
