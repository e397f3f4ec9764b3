//! What a resident job costs in memory: the live heap bytes per job,
//! counted by a global allocator, right after admission and again after a
//! warm-up run, for two populations shaped like the benchmark's:
//!
//! - `spin`: always-runnable spinners on 8 CPUs (`spin_saturated`);
//! - `churn`: spinners on 64 CPUs in 8 shards, with 10 removals and 10
//!   admissions every 0.1 s rebalance barrier (`sharded_churn`'s rate).
//!
//! Both push the sample trace out of the run (one round at set-up), as the
//! benchmark does, so what is counted is the jobs' own state.  Each line
//! prints the live bytes, the bytes per resident job, and the process's
//! peak resident set so far (`VmHWM` from `/proc/self/status`; Linux only).
//!
//! Run with `cargo run --release --example job_footprint [-- <jobs>
//! <simulated seconds>]` (default 10 000 jobs, 3 s).

use realrate::api::{
    Host, JobHandle, JobSpec, RunResult, Runtime, ShardConfig, SimTime, WorkModel,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts the bytes currently allocated.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure pass-through to `System` that only keeps a relaxed tally
// of live bytes on the side; every GlobalAlloc contract obligation is
// delegated unchanged.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: forwards the caller's contract to `System` verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract; forwarded as is.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards the caller's contract to `System` verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc` / `realloc`
        // with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwards the caller's contract to `System` verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s
        // contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Always runnable, uses every quantum it is given.
struct Spin;
impl WorkModel for Spin {
    fn run(&mut self, _now: u64, quantum_us: u64, _hz: f64) -> RunResult {
        RunResult::ran(quantum_us)
    }
}

/// `VmHWM` of this process, if the platform reports it.
fn peak_rss() -> String {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .map_or_else(|| "unavailable".to_string(), |v| v.trim().to_string())
}

fn report(population: &str, when: &str, base: usize, jobs: usize) {
    let live = LIVE.load(Ordering::Relaxed) - base;
    println!(
        "{population:<6} {when:<15} {jobs:>6} jobs  {live:>10} B live  {:>7.1} B/job  VmHWM {}",
        live as f64 / jobs.max(1) as f64,
        peak_rss()
    );
}

fn spin(host: &mut dyn Host, n: &mut usize) -> JobHandle {
    *n += 1;
    host.add_job(&format!("j{n}"), JobSpec::miscellaneous(), Box::new(Spin))
        .expect("miscellaneous jobs are always admitted")
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut arg = |default: u64| {
        args.next()
            .map_or(default, |s| s.parse().expect("a whole number"))
    };
    let jobs = arg(10_000) as usize;
    let seconds = arg(3);
    let far = SimTime::from_secs(1000);

    let base = LIVE.load(Ordering::Relaxed);
    let mut host = Runtime::sim().cpus(8).build();
    if let Some(sim) = host.as_sim_mut() {
        sim.set_trace_interval(far);
    }
    let mut named = 0;
    for _ in 0..jobs {
        spin(host.as_mut(), &mut named);
    }
    report("spin", "admitted", base, jobs);
    host.advance(SimTime::from_secs(seconds));
    report("spin", "after warm-up", base, jobs);
    drop(host);

    let base = LIVE.load(Ordering::Relaxed);
    let mut host = Runtime::sim()
        .cpus(64)
        .shard_config(ShardConfig {
            shards: 8,
            rebalance_interval_s: 0.1,
            parallel: false,
            ..ShardConfig::default()
        })
        .build();
    if let Some(sim) = host.as_sharded_sim_mut() {
        sim.set_trace_interval(far);
    }
    let mut live: Vec<JobHandle> = (0..jobs).map(|_| spin(host.as_mut(), &mut named)).collect();
    report("churn", "admitted", base, live.len());
    // A fixed, spread-out removal order: every 7th live job, wrapping.
    let mut victim = 0;
    for _ in 0..seconds * 10 {
        for _ in 0..10.min(live.len()) {
            victim = (victim + 7) % live.len();
            host.remove_job(live.swap_remove(victim));
        }
        for _ in 0..10 {
            live.push(spin(host.as_mut(), &mut named));
        }
        host.advance(SimTime::from_micros(100_000));
    }
    report("churn", "after warm-up", base, live.len());
}
