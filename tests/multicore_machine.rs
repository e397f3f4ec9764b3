//! End-to-end multicore behaviour through the facade: placement edges,
//! mid-period migration, and whole-stack scaling.

use realrate::core::{ControllerEvent, JobSpec};
use realrate::scheduler::{
    CpuId, DispatcherConfig, Machine, Period, Proportion, Reservation, ThreadId, ThreadState,
};
use realrate::sim::{Host, RunResult, SimConfig, Simulation, WorkModel};

struct Spin;

impl WorkModel for Spin {
    fn run(&mut self, _now: u64, quantum_us: u64, _hz: f64) -> RunResult {
        RunResult::ran(quantum_us)
    }
}

#[test]
fn arrival_on_a_machine_with_one_saturated_and_one_empty_cpu() {
    // Saturate cpu0 with a 900 ‰ real-time reservation; a second big
    // reservation must be admitted onto the empty cpu1 instead of being
    // rejected (the single-CPU system would refuse it).
    let mut sim = Simulation::new(SimConfig::default().with_cpus(2));
    let first = sim
        .add_job(
            "rt0",
            JobSpec::real_time(Proportion::from_ppt(900), Period::from_millis(10)),
            Box::new(Spin),
        )
        .unwrap();
    let second = sim
        .add_job(
            "rt1",
            JobSpec::real_time(Proportion::from_ppt(900), Period::from_millis(10)),
            Box::new(Spin),
        )
        .unwrap();
    assert_ne!(sim.cpu_of(first), sim.cpu_of(second));
    // A third does not fit anywhere.
    let rejected = sim.add_job(
        "rt2",
        JobSpec::real_time(Proportion::from_ppt(900), Period::from_millis(10)),
        Box::new(Spin),
    );
    assert!(rejected.is_err());
    assert_eq!(sim.stats().admission_rejections, 1);

    // Both admitted reservations are actually delivered in parallel —
    // 1800 ‰ of real-time work, impossible on one CPU.
    sim.run_for(2.0);
    let elapsed = sim.now_micros() as f64;
    for h in [first, second] {
        let frac = sim.cpu_used(h).as_micros() as f64 / elapsed;
        assert!((frac - 0.9).abs() < 0.05, "reservation delivered {frac}");
    }
}

#[test]
fn throttled_thread_migrates_mid_period_without_losing_state() {
    // Drive the raw machine: exhaust a thread's budget mid-period, migrate
    // it, and watch the destination CPU honour both the throttle and the
    // original period boundary.
    let mut m = Machine::new(DispatcherConfig::default(), 2);
    let r = Reservation::new(Proportion::from_ppt(100), Period::from_millis(10));
    m.add_thread_preadmitted_on(CpuId(0), ThreadId(1), r, 0)
        .unwrap();
    let outcome = m.dispatch(CpuId(0));
    let handle = m.handle_of(ThreadId(1)).unwrap();
    m.charge_at(handle, ThreadId(1), outcome.quantum_us)
        .unwrap();
    assert_eq!(
        m.dispatcher(CpuId(0)).thread_state(ThreadId(1)),
        Some(ThreadState::Throttled)
    );
    m.advance_to(4_000); // mid-period
    m.migrate(ThreadId(1), CpuId(1)).unwrap();
    assert_eq!(
        m.dispatcher(CpuId(1)).thread_state(ThreadId(1)),
        Some(ThreadState::Throttled),
        "budget exhaustion travels with the thread"
    );
    assert_eq!(m.dispatch(CpuId(1)).thread, None);
    m.advance_to(10_000); // the boundary the source CPU had scheduled
    assert_eq!(m.dispatch(CpuId(1)).thread, Some(ThreadId(1)));
    let handle = m.handle_of(ThreadId(1)).unwrap();
    assert_eq!(handle.cpu, CpuId(1));
    let account = m.usage_at(handle, ThreadId(1)).unwrap();
    assert_eq!(account.periods_completed, 1);
    assert_eq!(account.total_used_us, outcome.quantum_us);
}

#[test]
fn controller_migration_events_surface_through_the_facade() {
    // Crowd one CPU, then empty the other: the Place stage must emit a
    // Migrated event the application can observe.
    let config = realrate::core::ControllerConfig::default().with_cpus(2);
    let registry = realrate::queue::MetricRegistry::new();
    let mut controller = realrate::core::Controller::new(config, registry);
    use realrate::core::JobId;
    controller
        .add_job(JobId(1), JobSpec::miscellaneous())
        .unwrap();
    controller
        .add_job(JobId(2), JobSpec::miscellaneous())
        .unwrap();
    controller
        .add_job(JobId(3), JobSpec::miscellaneous())
        .unwrap();
    // Jobs 1 and 3 share cpu0 (tie placement), job 2 is alone on cpu1.
    assert_eq!(controller.cpu_of(JobId(1)), controller.cpu_of(JobId(3)));
    assert_ne!(controller.cpu_of(JobId(1)), controller.cpu_of(JobId(2)));
    // Three equal grants on two CPUs cannot be balanced by moving one
    // job, so the Place stage correctly refuses to thrash...
    for i in 1..=200 {
        let out = controller.control_cycle_with_dt(i as f64 * 0.01, 0.01);
        assert!(
            !out.events
                .iter()
                .any(|e| matches!(e, ControllerEvent::Migrated { .. })),
            "a migration that cannot shrink the gap must not happen"
        );
    }
    // ...but once job 2 leaves, cpu1 is empty against two grown grants on
    // cpu0, and exactly one of the pair is moved across.
    controller.remove_job(JobId(2));
    let mut saw_migration = false;
    for i in 201..=400 {
        let out = controller.control_cycle_with_dt(i as f64 * 0.01, 0.01);
        for event in &out.events {
            if let ControllerEvent::Migrated { from, to, .. } = event {
                assert_ne!(from, to);
                saw_migration = true;
            }
        }
        if saw_migration {
            break;
        }
    }
    assert!(
        saw_migration,
        "an improvable imbalance must trigger a rebalance"
    );
    assert_ne!(
        controller.cpu_of(JobId(1)),
        controller.cpu_of(JobId(3)),
        "the survivors end up one per CPU"
    );
}

#[test]
fn four_cpu_simulation_quadruples_hog_throughput() {
    let throughput = |cpus: usize| {
        let mut sim = Simulation::new(SimConfig::default().with_cpus(cpus));
        let mut handles = Vec::new();
        for i in 0..8 {
            handles.push(
                sim.add_job(&format!("hog{i}"), JobSpec::miscellaneous(), Box::new(Spin))
                    .unwrap(),
            );
        }
        sim.run_for(3.0);
        handles
            .iter()
            .map(|h| sim.cpu_used(*h).as_micros())
            .sum::<u64>() as f64
            / sim.now_micros() as f64
    };
    let one = throughput(1);
    let four = throughput(4);
    assert!(one <= 1.0);
    assert!(
        four > 2.5 * one,
        "4 CPUs should scale well past one ({one} -> {four})"
    );
}
