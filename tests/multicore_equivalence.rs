//! N = 1 equivalence: the machine-layer refactor must not change the
//! single-CPU system's behaviour in any observable way.
//!
//! The expected values below were captured by running this exact workload
//! on the pre-refactor simulator (single `Dispatcher`, no Place stage,
//! tick-driven stepping) at commit `df90dc9`.  The control-visible
//! outcomes — controller invocations and cost, quality exceptions, final
//! allocations — are reproduced bit for bit by the one-CPU `Machine` under
//! the event calendar; the clock and the per-job usage are not (dispatch
//! decisions hold for a whole span instead of being re-taken every tick),
//! so what each job *received* is held to the capture within two points
//! of share.

use realrate::core::JobSpec;
use realrate::queue::{BoundedBuffer, JobKey, Role};
use realrate::scheduler::{CpuId, Period, Proportion};
use realrate::sim::{Host, RunResult, SimConfig, Simulation, WorkModel};
use std::sync::Arc;

struct Spin;

impl WorkModel for Spin {
    fn run(&mut self, _now: u64, quantum_us: u64, _hz: f64) -> RunResult {
        RunResult::ran(quantum_us)
    }
}

/// The fixed workload: a 300 ‰ / 10 ms real-time spinner, a greedy
/// miscellaneous hog, and a real-rate consumer of a permanently full
/// queue, run for 2 simulated seconds.
fn run_fixed_workload() -> (Simulation, [realrate::sim::JobHandle; 3]) {
    let mut sim = Simulation::new(SimConfig::default());
    let registry = sim.registry();
    let rt = sim
        .add_job(
            "rt",
            JobSpec::real_time(Proportion::from_ppt(300), Period::from_millis(10)),
            Box::new(Spin),
        )
        .unwrap();
    let hog = sim
        .add_job("hog", JobSpec::miscellaneous(), Box::new(Spin))
        .unwrap();
    let consumer = sim
        .add_job("consumer", JobSpec::real_rate(), Box::new(Spin))
        .unwrap();
    let queue = Arc::new(BoundedBuffer::<u8>::new("q", 8));
    for i in 0..8 {
        queue.try_push(i).unwrap();
    }
    registry.register(JobKey(consumer.job.0), Role::Consumer, queue);
    sim.run_for(2.0);
    (sim, [rt, hog, consumer])
}

#[test]
fn one_cpu_machine_reproduces_the_pre_refactor_simulation_exactly() {
    let (sim, [rt, hog, consumer]) = run_fixed_workload();

    // Controller outcomes and final allocations, identical to the
    // pre-refactor capture.
    let stats = sim.stats();
    assert_eq!(stats.controller_invocations, 199);
    assert_eq!(stats.controller_cost_us, 5074.499999999999);
    assert_eq!(stats.quality_exceptions, 347);
    assert_eq!(stats.admission_rejections, 0);
    assert_eq!(stats.migrations, 0, "one CPU has nowhere to migrate to");
    assert_eq!(sim.allocation_ppt(rt), 300);
    assert_eq!(sim.allocation_ppt(hog), 325);
    assert_eq!(sim.allocation_ppt(consumer), 325);

    // The machine view agrees with the single-dispatcher view.
    assert_eq!(sim.machine().cpu_count(), 1);
    for h in [rt, hog, consumer] {
        assert_eq!(sim.cpu_of(h), Some(CpuId::ZERO));
    }
    assert_eq!(sim.machine().stats(), sim.dispatcher().stats());
}

#[test]
fn default_config_remains_single_cpu() {
    // `SimConfig::default()` is the paper's machine: one CPU, so figures
    // 5–8 keep reproducing without opting into anything.
    let config = SimConfig::default();
    assert_eq!(config.cpus(), 1);
    assert_eq!(config.controller.placement.cpus, 1);
    let sim = Simulation::new(config);
    assert_eq!(sim.machine().cpu_count(), 1);
}

#[test]
fn calendar_stepping_preserves_scheduling_outcomes() {
    // The calendar advances analytically between events, so clocks and
    // dispatch counts differ from the tick-driven capture — but what each
    // job actually received must stay equivalent on this nearly saturated
    // workload: 594 000 / 607 210 / 651 030 of 2 000 211 µs at `df90dc9`.
    let (sim, jobs) = run_fixed_workload();
    for (job, captured) in jobs.into_iter().zip([0.29697, 0.30357, 0.32548]) {
        let share = sim.cpu_used(job).as_micros() as f64 / sim.now_micros() as f64;
        assert!(
            (share - captured).abs() < 0.02,
            "job delivery changed: {share} vs {captured}"
        );
    }
}
