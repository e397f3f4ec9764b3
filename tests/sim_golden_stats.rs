//! Golden `SimStats` pins for the simulator's event loop.
//!
//! The JSON blobs below pin every field — clock-derived counters,
//! floating-point overhead sums and the whole `per_cpu` breakdown — bit
//! for bit, at `N = 1` and at `N = 8`, so optimisation of the calendar
//! path stays invisible.  They were captured when the event calendar
//! replaced the original tick-driven loop (a deliberate, documented
//! re-golden: dispatch decisions hold for up to a full dispatch interval,
//! idle CPUs take no dispatch decisions at all, overhead is charged per
//! CPU, and the incremental controller emits quality/squish events only
//! on recomputed cycles) and have not moved since; `calendar` in the test
//! names dates from when a second stepping mode had goldens of its own.
//!
//! To re-capture after an *intentional* behaviour change, run
//! `GOLDEN_PRINT=1 cargo test --release --test sim_golden_stats -- --nocapture`
//! and paste the printed JSON over the constants.
//!
//! The workload is driven entirely through the backend-agnostic
//! `realrate::api::Runtime` / `Host` surface: the golden blobs double as
//! proof that the new front door is a zero-cost veneer over the
//! simulator — same code path, same numbers, bit for bit.

use realrate::api::{Host, JobSpec, Period, Proportion, Runtime, SimTime};
use realrate::sim::{RunResult, SimConfig, SimStats, Simulation, WorkModel};

/// Uses every cycle offered, never blocks.
struct Spin;

impl WorkModel for Spin {
    fn run(&mut self, _now: u64, quantum_us: u64, _hz: f64) -> RunResult {
        RunResult::ran(quantum_us)
    }
}

/// Runs `burst_us`, then blocks until `now + sleep_us` — a deterministic
/// periodic I/O-ish job exercising block/unblock through the timer-wake
/// path (`next_transition`).
struct BurstSleep {
    burst_us: u64,
    sleep_us: u64,
    wake_at_us: u64,
}

impl WorkModel for BurstSleep {
    fn run(&mut self, now_us: u64, quantum_us: u64, _hz: f64) -> RunResult {
        let used = self.burst_us.min(quantum_us);
        if used < quantum_us {
            self.wake_at_us = now_us + used + self.sleep_us;
            RunResult::blocked_after(used)
        } else {
            RunResult::ran(used)
        }
    }

    fn poll_unblock(&mut self, now_us: u64) -> bool {
        now_us >= self.wake_at_us
    }

    fn next_transition(&self, _now: SimTime) -> Option<SimTime> {
        Some(SimTime::from_micros(self.wake_at_us))
    }
}

/// The fixed mixed workload on `host`: real-time spinners, greedy hogs and
/// periodic burst-sleep jobs; at `N = 8` a mid-run removal forces
/// rebalancing migrations.  Populations scale with the CPU count so every
/// CPU carries work.
fn run_mixed_workload(mut host: Box<dyn Host>) -> SimStats {
    let n = host.cpu_count() as u64;
    for i in 0..n {
        host.add_job(
            &format!("rt{i}"),
            JobSpec::real_time(Proportion::from_ppt(250), Period::from_millis(10)),
            Box::new(Spin),
        )
        .unwrap();
    }
    let mut hogs = Vec::new();
    for i in 0..2 * n {
        hogs.push(
            host.add_job(&format!("hog{i}"), JobSpec::miscellaneous(), Box::new(Spin))
                .unwrap(),
        );
    }
    for i in 0..2 * n {
        host.add_job(
            &format!("io{i}"),
            JobSpec::miscellaneous(),
            Box::new(BurstSleep {
                burst_us: 300 + 70 * i,
                sleep_us: 2_000 + 500 * i,
                wake_at_us: 0,
            }),
        )
        .unwrap();
    }
    host.advance(SimTime::from_millis(1_500));
    // Remove every other hog: the emptied CPUs pull survivors across,
    // exercising take/inject (and thus the timer reverse index) mid-period.
    for h in hogs.iter().step_by(2) {
        host.remove_job(*h);
    }
    host.advance(SimTime::from_millis(1_500));
    // The backend-specific capture (modelled overhead sums included)
    // comes from the concrete simulator behind the trait object.
    host.as_sim()
        .map(Simulation::stats)
        .expect("Runtime::sim() builds a Simulation")
}

fn check(name: &str, host: Box<dyn Host>, expected_json: &str) {
    let stats = run_mixed_workload(host);
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!("golden {name}:\n{}", serde_json::to_string(&stats).unwrap());
        return;
    }
    let expected: SimStats = serde_json::from_str(expected_json).expect("golden blob parses");
    assert_eq!(
        stats, expected,
        "SimStats diverged from the golden capture {name}"
    );
}

const GOLDEN_CALENDAR_1CPU: &str = r#"{"controller_invocations":299,"controller_cost_us":10581.30000000004,"dispatch_overhead_us":36448.50000000133,"quality_exceptions":416,"squish_events":279,"admission_rejections":0,"migrations":0,"steps":751,"per_cpu":[{"used_us":2695927,"idle_us":257014,"migrations_in":0,"migrations_out":0,"deadlines_missed":229}]}"#;

const GOLDEN_CALENDAR_8CPU: &str = r#"{"controller_invocations":299,"controller_cost_us":72720.29999999996,"dispatch_overhead_us":343591.70000009064,"quality_exceptions":5815,"squish_events":286,"admission_rejections":0,"migrations":98,"steps":3668,"per_cpu":[{"used_us":2384320,"idle_us":503671,"migrations_in":37,"migrations_out":35,"deadlines_missed":239},{"used_us":2666606,"idle_us":216250,"migrations_in":12,"migrations_out":12,"deadlines_missed":166},{"used_us":2713652,"idle_us":168861,"migrations_in":7,"migrations_out":6,"deadlines_missed":142},{"used_us":2758689,"idle_us":124322,"migrations_in":4,"migrations_out":5,"deadlines_missed":136},{"used_us":2734094,"idle_us":149897,"migrations_in":10,"migrations_out":9,"deadlines_missed":141},{"used_us":2754110,"idle_us":129220,"migrations_in":4,"migrations_out":5,"deadlines_missed":123},{"used_us":2699509,"idle_us":186359,"migrations_in":14,"migrations_out":15,"deadlines_missed":144},{"used_us":2759897,"idle_us":124715,"migrations_in":10,"migrations_out":11,"deadlines_missed":131}]}"#;

#[test]
fn golden_simstats_calendar_1cpu() {
    check("1cpu", Runtime::sim().cpus(1).build(), GOLDEN_CALENDAR_1CPU);
}

#[test]
fn golden_simstats_calendar_8cpu() {
    check("8cpu", Runtime::sim().cpus(8).build(), GOLDEN_CALENDAR_8CPU);
}

/// Period estimation (§3.3) rebuilds the controller's caches every cycle,
/// the one simulator configuration that does, so every cycle re-actuates
/// every job and re-raises every event.  The mixed workload has no
/// real-rate job for the heuristic to act on, so the counters must land
/// exactly on the 1-CPU pin.
#[test]
fn golden_simstats_period_estimation_1cpu() {
    let mut config = SimConfig::default();
    config.controller.period_estimation = true;
    check(
        "period_estimation_1cpu",
        Box::new(Simulation::new(config)),
        GOLDEN_CALENDAR_1CPU,
    );
}
