//! Verifies the staged pipeline's core guarantee: once the scratch buffers
//! have warmed up, a steady-state control cycle performs **no heap
//! allocation** — with telemetry disabled (the default, as in the cycles
//! below) and, separately, that an enabled telemetry recorder stays
//! allocation-free once its pre-allocated ring has wrapped.
//!
//! This file must contain only this one test: the counting allocator is
//! process-global, so any concurrently running test in the same binary
//! would pollute the measurement.  It counts only on threads that armed
//! it ([`arm_counting`]), so the test harness's own threads, which may
//! allocate at any time, never land in a measured window.

use realrate::core::{
    Controller, ControllerConfig, ControllerEvent, JobId, JobSpec, UsageSnapshot,
};
use realrate::queue::{BoundedBuffer, JobKey, MetricRegistry, Role};
use realrate::telemetry::{
    CalendarEventKind, Recorder, SettleCause, TelemetryConfig, TraceEventKind,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted.  A `const`
    /// initialiser without a destructor: reading it never allocates.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Counts the calling thread's allocations from here on.  The measured
/// code runs on the test's own thread (the sharded cases run their shards
/// sequentially), so arming it once covers every window.
fn arm_counting() {
    COUNTED.with(|counted| counted.set(true));
}

fn count_allocation() {
    if COUNTED.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: pure pass-through to `System` that only bumps a relaxed atomic
// counter on armed threads; every GlobalAlloc contract obligation (layout
// validity, pointer provenance, thread safety) is delegated unchanged.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwards the caller's contract to `System` verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: caller upholds GlobalAlloc's `alloc` contract (non-zero
        // layout); we forward it verbatim to `System`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards the caller's contract to `System` verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by our `alloc`/`realloc`, which always
        // delegate to `System` with the same layout, so `System.dealloc`
        // receives a pointer it allocated.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwards the caller's contract to `System` verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: same delegation as `dealloc` — `ptr` originates from
        // `System` via our `alloc`, and the caller upholds the layout and
        // `new_size` requirements of `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs the representative job mix against a controller with the given
/// configuration and asserts the measured steady-state window performs no
/// heap allocation.  Exercised twice: on the paper's single CPU and on a
/// 4-CPU machine, where the Place stage's CPU-load accounting and sticky
/// placement run every cycle.
fn assert_steady_state_allocation_free(config: ControllerConfig) {
    let registry = MetricRegistry::new();
    let mut controller = Controller::new(config, registry.clone());

    // A representative mix: a real-time reservation, a real-rate consumer
    // of a full queue, and enough greedy miscellaneous jobs to keep the
    // squish path (the allocation-heaviest stage) exercised every cycle.
    controller
        .add_job(
            JobId(1),
            JobSpec::real_time(
                realrate::scheduler::Proportion::from_ppt(200),
                realrate::scheduler::Period::from_millis(10),
            ),
        )
        .unwrap();
    let queue = Arc::new(BoundedBuffer::<u8>::new("q", 8));
    for i in 0..8 {
        queue.try_push(i).unwrap();
    }
    registry.register(JobKey(2), Role::Consumer, queue);
    let consumer = controller.add_job(JobId(2), JobSpec::real_rate()).unwrap();
    let mut hogs = Vec::new();
    for id in 3..10 {
        hogs.push(
            controller
                .add_job(JobId(id), JobSpec::miscellaneous())
                .unwrap(),
        );
    }

    // Warm-up: let every scratch buffer reach its steady-state capacity and
    // make sure the overload/squish and quality-exception paths have fired
    // at least once (their event buffers must be warm too).
    let mut saw_squish = false;
    for i in 1..=300 {
        controller.record_usage(consumer, UsageSnapshot { usage_ratio: 1.0 });
        let out = controller.control_cycle_with_dt(i as f64 * 0.01, 0.01);
        saw_squish |= !out.events.is_empty();
    }
    assert!(saw_squish, "fixture must exercise the squish path");

    // Measure: steady-state cycles, including the usage-recording sweep a
    // host layer performs, must not touch the heap at all.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 301..=500 {
        controller.record_usage(consumer, UsageSnapshot { usage_ratio: 1.0 });
        for &hog in &hogs {
            controller.record_usage(hog, UsageSnapshot { usage_ratio: 1.0 });
        }
        let out = controller.control_cycle_with_dt(i as f64 * 0.01, 0.01);
        assert_eq!(out.actuations.len(), 9);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state control cycles must perform no heap allocation"
    );
}

/// The incremental cycle's half of the guarantee: `hogs` always-hungry
/// miscellaneous jobs on `cpus` CPUs, a rotating fifth of them reporting a
/// flipped usage ratio before every cycle (the sweep a host's
/// `drain_usage_changes` performs), so every measured cycle walks the
/// dirty set, edits the persistent squish columns in place and raises the
/// `Squished` event.  At 10 000 × 8 — the benchmark's `spin_saturated`
/// population — the machine is so oversubscribed that the water-fill caps
/// nobody and the columns prove the grants unchanged; at 12 × 1 the
/// reclaimed jobs fall under their first-round offer and the squish runs
/// over the columns.  Neither may touch the heap.
// hot-coverage: crates/core/src/controller.rs
// hot-coverage: crates/core/src/pipeline.rs
// hot-coverage: crates/core/src/squish.rs
fn assert_incremental_cycle_allocation_free(hogs: u64, cpus: usize) {
    let config = ControllerConfig::default()
        .with_cpus(cpus)
        .with_incremental(true);
    let mut controller = Controller::new(config, MetricRegistry::new());
    let slots: Vec<_> = (0..hogs)
        .map(|id| {
            controller
                .add_job(JobId(id), JobSpec::miscellaneous())
                .unwrap()
        })
        .collect();
    // An exact grid: a bitwise-stable `dt` keeps every cycle after the
    // first on the incremental path.
    let dt = 0.01;
    let cycle = |controller: &mut Controller, i: usize| -> bool {
        let usage_ratio = if (i / 5).is_multiple_of(2) { 0.0 } else { 1.0 };
        for &slot in slots.iter().skip(i % 5).step_by(5) {
            controller.record_usage(slot, UsageSnapshot { usage_ratio });
        }
        let out = controller.control_cycle_with_dt(i as f64 * dt, dt);
        out.events
            .iter()
            .any(|e| matches!(e, ControllerEvent::Squished { .. }))
    };
    // Warm-up: long enough for every job's cumulative pressure to pass
    // the quality-exception bar, so the event buffer has held one
    // exception per recomputed job — and, in the first incremental cycle,
    // the whole population was recomputed at once.
    for i in 1..=300 {
        cycle(&mut controller, i);
    }
    let incremental_before = controller.cycle_counts().1;

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut squished = 0;
    for i in 301..=340 {
        squished += cycle(&mut controller, i) as u32;
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "incremental cycles over {hogs} jobs must perform no heap allocation"
    );
    assert_eq!(
        controller.cycle_counts().1 - incremental_before,
        40,
        "every measured cycle must take the incremental path"
    );
    assert!(
        squished >= 15,
        "the fixture must keep moving desires under overload, saw {squished} squishes"
    );
}

/// The incremental cycle's sensing: six two-stage pipelines on a ring of
/// queues — each producer on its queue, each consumer draining it and
/// feeding the next one, so consumers sum two terms — with every queue
/// stepped one item along a triangle wave before each cycle.  Every
/// real-rate slot is re-sampled through the metrics the full cycle
/// resolved, every sample moves, so the moved jobs are recomputed and
/// re-granted; none of it may touch the heap.
fn assert_incremental_sense_allocation_free() {
    const CAPACITY: usize = 12;
    let registry = MetricRegistry::new();
    let config = ControllerConfig::default().with_incremental(true);
    let mut controller = Controller::new(config, registry.clone());
    let queues: Vec<_> = (0..6)
        .map(|k| Arc::new(BoundedBuffer::<u8>::new(format!("ring{k}"), CAPACITY)))
        .collect();
    for (k, queue) in queues.iter().enumerate() {
        let (producer, consumer) = (JobKey(2 * k as u64), JobKey(2 * k as u64 + 1));
        registry.register(producer, Role::Producer, queue.clone());
        registry.register(consumer, Role::Consumer, queue.clone());
        registry.register(consumer, Role::Producer, queues[(k + 1) % 6].clone());
        for key in [producer, consumer] {
            controller
                .add_job(JobId(key.0), JobSpec::real_rate())
                .unwrap();
        }
    }
    // Queue `k`'s level at cycle `i`: a triangle wave, one item per cycle.
    let step = |i: usize| {
        for (k, queue) in queues.iter().enumerate() {
            let x = (i + 5 * k) % (2 * CAPACITY);
            let level = if x <= CAPACITY { x } else { 2 * CAPACITY - x };
            while queue.len() < level {
                queue.try_push(0).unwrap();
            }
            while queue.len() > level {
                queue.try_pop();
            }
        }
    };
    let dt = 0.01;
    for i in 1..=300 {
        step(i);
        controller.control_cycle_with_dt(i as f64 * dt, dt);
    }
    let incremental_before = controller.cycle_counts().1;

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut regrants = 0;
    for i in 301..=340 {
        step(i);
        regrants += controller
            .control_cycle_with_dt(i as f64 * dt, dt)
            .actuations
            .len();
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "incremental cycles sensing moving queues must perform no heap allocation"
    );
    assert_eq!(
        controller.cycle_counts().1 - incremental_before,
        40,
        "every measured cycle must take the incremental path"
    );
    assert!(
        regrants >= 40,
        "the fixture must keep re-granting the moved jobs, saw {regrants}"
    );
}

/// Telemetry's half of the guarantee: once the pre-allocated ring has
/// wrapped (overwrite mode), recording events of every kind — the exact
/// calls the dispatcher, simulator and controller make on their hot
/// paths — touches the heap zero times.
fn assert_steady_state_recording_allocation_free() {
    let rec = Recorder::new(TelemetryConfig {
        ring_capacity: 1024,
        stage_timing: false,
    });
    let kinds = [
        TraceEventKind::DispatchSpan {
            cpu: 0,
            thread: 1,
            len_us: 10,
        },
        TraceEventKind::Settle {
            cpu: 0,
            thread: 1,
            cause: SettleCause::ZeroSpan,
        },
        TraceEventKind::CacheHit { cpu: 0 },
        TraceEventKind::CacheMiss { cpu: 1 },
        TraceEventKind::CalendarEvent {
            kind: CalendarEventKind::Controller,
        },
        TraceEventKind::ControllerCycle {
            dur_ns: 100,
            incremental: true,
            jobs: 9,
            stage_ns: [0; 6],
        },
        TraceEventKind::Migration {
            thread: 1,
            from: 0,
            to: 1,
        },
        TraceEventKind::PeriodRollover {
            cpu: 0,
            thread: 1,
            count: 1,
        },
    ];
    // Warm-up: wrap the ring at least once so overwrite mode is active.
    for i in 0..2048u64 {
        rec.record(i, kinds[i as usize % kinds.len()]);
    }
    assert!(rec.dropped() > 0, "the warmup must wrap the ring");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 2048..4096u64 {
        rec.record(i, kinds[i as usize % kinds.len()]);
    }
    let held = rec.len();
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state trace recording must perform no heap allocation"
    );
    assert_eq!(held, 1024, "the ring must stay at its configured capacity");
}

/// Always runnable, uses every quantum it is given.
struct Spin;
impl realrate::sim::WorkModel for Spin {
    fn run(&mut self, _now: u64, quantum_us: u64, _hz: f64) -> realrate::sim::RunResult {
        realrate::sim::RunResult::ran(quantum_us)
    }
}

/// The sharded machine's half of the guarantee: *between* rebalance
/// barriers each shard is an ordinary simulation on its own dense state,
/// so a warmed multi-shard advance window allocates nothing.  The
/// barriers themselves are exempt (the rebalancer's extract/inject and
/// a trace epoch's marks may allocate; they run on the slow cadence, not
/// the hot path), so the measured window is placed strictly inside one
/// barrier interval.  Sequential mode — spawning scoped threads
/// allocates, and parallel execution is bit-identical anyway.  With 8
/// hogs on the 4 CPUs both shards are overloaded from the start; with 6
/// the second shard first overloads inside the measured window, so its
/// squish runs there for the first time.
///
/// The warmed advance window below drives the full per-shard stack —
/// dispatcher spans (run-queue picks, and timer-list rollovers on the
/// indexed heap), the event calendar, and the simulation window loop
/// — so, together with the actuation and wake-up window further down, the
/// counting-allocator measurement dynamically covers every module the
/// static hot list in analysis.json declares allocation-free.  The
/// markers are kept in sync with that list by
/// crates/analysis/tests/coverage_crosscheck.rs: adding a file to the hot
/// list without extending this test (or vice versa) fails `cargo test`.
// hot-coverage: crates/scheduler/src/timerlist.rs
// hot-coverage: crates/scheduler/src/dispatcher.rs
// hot-coverage: crates/sim/src/calendar.rs
// hot-coverage: crates/sim/src/simulation.rs
fn assert_sharded_steady_state_allocation_free(hogs: usize) {
    use realrate::sim::{ShardConfig, ShardedSim, SimConfig};

    let mut sim = ShardedSim::new(
        SimConfig::default().with_cpus(4),
        ShardConfig {
            shards: 2,
            rebalance_interval_s: 30.0,
            rebalance_threshold_ppt: 50,
            parallel: false,
        },
    );
    for i in 0..hogs {
        sim.add_job(&format!("hog{i}"), JobSpec::miscellaneous(), Box::new(Spin))
            .unwrap();
    }
    // Push trace sampling past the horizon: the recorded trace grows by
    // design (it is the measurement product, not the control plane).
    sim.set_trace_interval(realrate::core::SimTime::from_secs(3600));
    // Warm-up: let each shard's calendar, scratch buffers and controller
    // event buffers reach steady-state capacity.
    sim.run_for(1.0);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    sim.run_for(0.5);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "a multi-shard advance between rebalance barriers must perform \
         no heap allocation ({hogs} hogs)"
    );
}

/// The paths between the dispatch spans and the controller cycle: a
/// simulation whose threads all compute in bursts and sleep in between, so
/// every controller cycle re-grants most of them (the handle-addressed
/// actuation loop), announced sleeps end in `Event::Wake`, and
/// unannounced ones that outlast their window sit in the blocked set
/// until a poll tick finds them awake.  Migration is switched off: moving
/// a thread edits the id maps, as adding or removing one does, and is no
/// more part of the steady state than those are.
// hot-coverage: crates/scheduler/src/machine.rs
// hot-coverage: crates/core/src/control_loop.rs
fn assert_actuation_and_wake_paths_allocation_free() {
    use realrate::core::SimTime;
    use realrate::sim::{Host, RunResult, SimConfig, Simulation, WorkModel};

    /// Computes for `busy_us`, then sleeps for `nap_us`.
    struct Napper {
        busy_us: u64,
        nap_us: u64,
        /// Whether the model tells the simulator when its sleep ends.
        announce: bool,
        left_us: u64,
        wake_at_us: u64,
    }
    impl WorkModel for Napper {
        fn run(&mut self, now_us: u64, quantum_us: u64, _hz: f64) -> RunResult {
            let used = quantum_us.min(self.left_us);
            self.left_us -= used;
            if self.left_us > 0 {
                return RunResult::ran(used);
            }
            self.left_us = self.busy_us;
            self.wake_at_us = now_us + used + self.nap_us;
            RunResult::blocked_after(used)
        }
        fn poll_unblock(&mut self, now_us: u64) -> bool {
            now_us >= self.wake_at_us
        }
        fn next_transition(&self, _now: SimTime) -> Option<SimTime> {
            self.announce.then(|| SimTime::from_micros(self.wake_at_us))
        }
    }

    let mut config = SimConfig::default().with_cpus(4);
    config.controller.placement.imbalance_threshold_ppt = u32::MAX;
    let mut sim = Simulation::new(config);
    let jobs: Vec<_> = (0..48u64)
        .map(|i| {
            let busy_us = 300 + 170 * (i % 7);
            let napper = Napper {
                busy_us,
                nap_us: 2_000 + 1_900 * (i % 5),
                announce: i % 2 == 0,
                left_us: busy_us,
                wake_at_us: 0,
            };
            sim.add_job(
                &format!("nap{i}"),
                JobSpec::miscellaneous(),
                Box::new(napper),
            )
            .unwrap()
        })
        .collect();
    sim.set_trace_interval(SimTime::from_secs(3600));
    sim.run_for(1.0);
    let warm = sim.telemetry();
    let mut grants: Vec<u32> = jobs.iter().map(|&j| sim.allocation_ppt(j)).collect();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut regrants = 0;
    for _ in 0..50 {
        sim.run_for(0.01);
        for (grant, &job) in grants.iter_mut().zip(&jobs) {
            let now = sim.allocation_ppt(job);
            regrants += (now != *grant) as u32;
            *grant = now;
        }
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "actuations, wake events and blocked polls must perform no heap allocation"
    );
    let done = sim.telemetry();
    assert!(
        regrants >= 1500,
        "the fixture must keep the actuation loop busy, saw {regrants} re-grants in 50 cycles"
    );
    assert!(
        done.events_wake - warm.events_wake >= 500,
        "the fixture must wake threads through the calendar"
    );
    assert!(
        done.events_poll_tick - warm.events_poll_tick >= 250,
        "the fixture must leave threads for the poll tick to find"
    );
    assert_eq!(done.migrations, 0);
}

/// The saturated CPU's half of the dispatch guarantee: far more spinners
/// than the machine can serve, so no pick is ever served from the
/// next-quantum cache — every dispatch takes the head of the run queue,
/// rotates it to the tail, runs it into its throttle and drops it from the
/// queue, and the period timer later re-queues it under the pick sequence
/// it left with, a few places in from the tail.  Migration is switched off
/// for the reason given above.
// hot-coverage: crates/scheduler/src/deque.rs
fn assert_saturated_dispatch_allocation_free() {
    use realrate::core::SimTime;
    use realrate::sim::{Host, SimConfig, Simulation};

    let mut config = SimConfig::default().with_cpus(2);
    config.controller.placement.imbalance_threshold_ppt = u32::MAX;
    let mut sim = Simulation::new(config);
    for i in 0..400 {
        sim.add_job(
            &format!("spin{i}"),
            JobSpec::miscellaneous(),
            Box::new(Spin),
        )
        .unwrap();
    }
    sim.set_trace_interval(SimTime::from_secs(3600));
    sim.run_for(1.0);
    let warm = sim.telemetry();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    sim.run_for(0.5);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "saturated dispatch (rotate, throttle, release) must perform no heap allocation"
    );
    let done = sim.telemetry();
    let dispatches = done.dispatches - warm.dispatches;
    assert!(dispatches >= 2000, "saw {dispatches} dispatches");
    assert_eq!(
        done.quantum_cache_misses - warm.quantum_cache_misses,
        dispatches,
        "the fixture must keep every pick on the run queue"
    );
    assert!(
        done.context_switches - warm.context_switches >= dispatches * 9 / 10,
        "the fixture must rotate: nearly every pick is a different thread"
    );
    assert!(
        done.period_rollovers - warm.period_rollovers >= dispatches / 2,
        "the fixture must throttle what it picks and release it at the boundary"
    );
    assert_eq!(done.migrations, 0);
}

/// The uncontended CPU's half of the dispatch guarantee: fewer spinners
/// than CPUs, so each runs alone and nearly every dispatch is served by
/// the next-quantum cache — the span loop's hit run, a stretch of spans
/// served from a `HitRun` copy of the dispatcher state between one
/// throttle release and the next.  At least 80 % of the measured window's
/// dispatches must be hits, so the window runs on that loop.  Migration
/// is switched off for the reason given above.
// hot-coverage: crates/scheduler/src/hit_run.rs
// hot-coverage: crates/scheduler/src/settle.rs
fn assert_uncontended_dispatch_allocation_free() {
    use realrate::core::SimTime;
    use realrate::sim::{Host, SimConfig, Simulation};

    let mut config = SimConfig::default().with_cpus(4);
    config.controller.placement.imbalance_threshold_ppt = u32::MAX;
    let mut sim = Simulation::new(config);
    for i in 0..3 {
        sim.add_job(
            &format!("spin{i}"),
            JobSpec::miscellaneous(),
            Box::new(Spin),
        )
        .unwrap();
    }
    sim.set_trace_interval(SimTime::from_secs(3600));
    sim.run_for(1.0);
    let warm = sim.telemetry();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    sim.run_for(0.5);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "uncontended dispatch (cache hits, throttle, release) must perform no heap allocation"
    );
    let done = sim.telemetry();
    let hits = done.quantum_cache_hits - warm.quantum_cache_hits;
    let dispatches = done.dispatches - warm.dispatches;
    assert!(
        hits >= 1000 && hits * 10 >= dispatches * 8,
        "the fixture must run on cache hits (at least 80 %), saw {hits} of {dispatches} dispatches"
    );
    assert_eq!(done.migrations, 0);
}

/// The allocations admitting `n` spinners through `Simulation::add_job`
/// makes, names prepared beforehand.
fn admission_allocations(n: usize) -> u64 {
    use realrate::sim::{Host, SimConfig, Simulation};

    let mut sim = Simulation::new(SimConfig::default().with_cpus(8));
    let names: Vec<String> = (0..n).map(|i| format!("j{i}")).collect();
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for name in &names {
        sim.add_job(name, JobSpec::miscellaneous(), Box::new(Spin))
            .unwrap();
    }
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// Admission's half of the footprint guarantee: every layer keeps a job
/// in shared tables — slot tables, sorted id indexes, the series table and
/// its one string of names — that grow by doubling, so admitting `n`
/// spinners makes `O(log n)` allocations (333 for 1 000 spinners on 8
/// CPUs, 558 for 16 000).  A box and a string per job, and a B-tree node
/// per few ids in each of three id indexes, made 16 times the jobs cost
/// about 16 times the allocations (2 742 and 40 394).
fn assert_admission_allocations_grow_logarithmically() {
    let (small, large) = (admission_allocations(1_000), admission_allocations(16_000));
    assert!(
        large < 2 * small,
        "admitting 16 000 spinners made {large} allocations, 1 000 made {small}"
    );
}

/// The sample trace's half of the guarantee: a sample round
/// (`JobSeries::sample_round`, the one both backends take) whose values
/// all repeat the previous round's — 64 jobs sharing one name, 64 with
/// their own, every one with a reservation and a steady progress rate,
/// and a queue's fill — is counter bumps in the run-length store once the
/// first rounds have opened each series' runs.
fn assert_repeating_trace_rounds_allocation_free() {
    use realrate::core::ControlLoop;
    use realrate::scheduler::DispatcherConfig;
    use realrate::sim::{JobSeries, Trace};

    let registry = MetricRegistry::new();
    let queue = Arc::new(BoundedBuffer::<u8>::new("frames", 8));
    queue.try_push(0).unwrap();
    registry.register(JobKey(1), Role::Consumer, queue);
    let mut ctl = ControlLoop::new(
        ControllerConfig::default(),
        DispatcherConfig::default(),
        registry,
    );
    let mut jobs = JobSeries::new();
    for i in 0..128 {
        let name = if i < 64 {
            "decoder".to_string()
        } else {
            format!("web{i}")
        };
        let handle = ctl.admit(JobSpec::miscellaneous()).unwrap();
        jobs.insert(handle.slot.index(), &name);
    }
    let mut trace = Trace::new();
    let mut round = |trace: &mut Trace, r: u64| {
        let time = (r * 100_000) as f64 / 1e6;
        jobs.sample_round(trace, &ctl, time, 0.1, |_| Some(r as f64 * 50.0));
    };
    for r in 0..3 {
        round(&mut trace, r);
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for r in 3..1_003 {
        round(&mut trace, r);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "trace rounds that repeat the last one must perform no heap allocation"
    );
    assert_eq!(trace.total_samples(), 1_003 * (3 * 128 + 1));
}

#[test]
fn steady_state_control_cycle_is_allocation_free() {
    arm_counting();
    // The paper's single CPU, and a 4-CPU machine with the Place stage
    // doing per-CPU load accounting (run sequentially: the counting
    // allocator is process-global).  Both run with telemetry disabled —
    // the default — so they also pin the recorder-absent cost at zero.
    assert_steady_state_allocation_free(ControllerConfig::default());
    assert_steady_state_allocation_free(ControllerConfig::default().with_cpus(4));
    // The incremental path, saturated at benchmark scale and lightly
    // overloaded.
    assert_incremental_cycle_allocation_free(10_000, 8);
    assert_incremental_cycle_allocation_free(12, 1);
    // And the incremental path's sensing of real-rate jobs on moving queues.
    assert_incremental_sense_allocation_free();
    // And with telemetry enabled, the recording hot path itself.
    assert_steady_state_recording_allocation_free();
    // And the per-shard guarantee on the two-level machine.
    assert_sharded_steady_state_allocation_free(8);
    assert_sharded_steady_state_allocation_free(6);
    // And what runs between spans and cycles: actuation, wake-up, poll.
    assert_actuation_and_wake_paths_allocation_free();
    // And the saturated run queue: rotation and displaced re-queues.
    assert_saturated_dispatch_allocation_free();
    // And the uncontended CPU: the span loop's run of cache hits.
    assert_uncontended_dispatch_allocation_free();
    // And the sample trace's repeating rounds.
    assert_repeating_trace_rounds_allocation_free();
    // And admission: shared tables grow, no job allocates on its own.
    assert_admission_allocations_grow_logarithmically();
}
