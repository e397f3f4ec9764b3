//! A real-rate web server (§3.2 "Server"): requests arrive from the network
//! into a bounded backlog and the server thread must be given just enough
//! CPU to keep up with the offered load — which changes over the run.
//!
//! Run with `cargo run --release --example web_server`.

use realrate::api::{JobSpec, Runtime, SimTime};
use realrate::metrics::plot::{ascii_plot, PlotConfig};
use realrate::workloads::{CpuHog, ServerConfig, WebServer};

fn main() {
    let mut host = Runtime::sim().build();

    // 100 requests/second at 1 Mcycle each: about a quarter of the 400 MHz
    // simulated CPU.
    let config = ServerConfig::default();
    println!(
        "offered load: {:.0} req/s × {:.1} Mcycles/request",
        config.arrival_rate_hz,
        config.cycles_per_request / 1e6
    );
    let (_network, server) = WebServer::install(host.as_mut(), config);

    // A batch job competes for the CPU the whole time.
    host.add_job("batch", JobSpec::miscellaneous(), Box::new(CpuHog::new()))
        .expect("miscellaneous jobs are always admitted");

    host.advance(SimTime::from_secs(30));

    println!();
    println!(
        "server allocation discovered by the controller: {} ‰",
        host.allocation_ppt(server)
    );
    if let Some(rate) = host.trace().get("rate/server") {
        let served = rate.window_mean(10.0, 30.0).unwrap_or(0.0);
        println!(
            "sustained service rate: {served:.1} req/s (offered {:.0})",
            config.arrival_rate_hz
        );
        print!("{}", ascii_plot(&rate, PlotConfig::default()));
    }
    if let Some(fill) = host.trace().get("fill/server-backlog") {
        println!();
        println!("request backlog fill level:");
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
    }
    println!();
    println!(
        "the batch job soaked up the remaining CPU without starving the server: \
         quality exceptions raised = {}",
        host.stats().quality_exceptions
    );
}
