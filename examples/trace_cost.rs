//! What the simulator's sample trace costs: 10 000 always-runnable
//! spinners on 8 CPUs (the benchmark's `spin_saturated` population) with
//! the trace left at its 0.1 s default cadence, so every round samples
//! each spinner's allocation and period.
//!
//! Prints the wall time of set-up plus run, the samples the trace
//! recorded, the heap bytes its store holds, and the process's peak
//! resident set (`VmHWM` from `/proc/self/status`; Linux only).
//!
//! Run with `cargo run --release --example trace_cost [-- <simulated
//! seconds>]` (default 20).

use realrate::api::{JobSpec, RunResult, Runtime, SimTime, WorkModel};
use std::time::Instant;

/// Always runnable, uses every quantum it is given.
struct Spin;
impl WorkModel for Spin {
    fn run(&mut self, _now: u64, quantum_us: u64, _hz: f64) -> RunResult {
        RunResult::ran(quantum_us)
    }
}

/// `VmHWM` of this process, if the platform reports it.
fn peak_rss() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    Some(line["VmHWM:".len()..].trim().to_string())
}

fn main() {
    let seconds: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("simulated seconds, a whole number"))
        .unwrap_or(20);
    let start = Instant::now();
    let mut host = Runtime::sim().cpus(8).build();
    for i in 0..10_000 {
        host.add_job(&format!("j{i}"), JobSpec::miscellaneous(), Box::new(Spin))
            .expect("miscellaneous jobs are always admitted");
    }
    host.advance(SimTime::from_secs(seconds));
    let wall_s = start.elapsed().as_secs_f64();

    let trace = host.trace();
    let samples = trace.total_samples();
    let bytes = trace.heap_bytes();
    println!("simulated seconds : {seconds}");
    println!("wall seconds      : {wall_s:.3}");
    println!("series            : {}", trace.len());
    println!("samples recorded  : {samples}");
    println!(
        "trace heap bytes  : {bytes} ({:.3} B per sample)",
        bytes as f64 / samples.max(1) as f64
    );
    println!(
        "VmHWM             : {}",
        peak_rss().unwrap_or_else(|| "unavailable".to_string())
    );
}
