//! Isolated layer probes.
//!
//! Each probe builds one layer through its public constructor, drives
//! only that layer's public functions for a fixed number of operations,
//! and reports nanoseconds per operation as the median over
//! [`BATCHES`] batches (one extra warm-up batch is discarded).  None of
//! these goes through the simulator, so a probe moves only when its own
//! layer does.  Two more ([`WHOLE`]) time a whole run: the scenario
//! corpus, and a sharded machine at two barrier cadences.
//!
//! Not probed, on purpose: `rrs-realtime` / `WallClockHost` (it sleeps
//! and spins, so a probe would time the host scheduler), `rrs-analysis`
//! (not on a runtime path) and `rrs-workloads` (it is the load).

use crate::report::Reading;
use rrs_core::squish::{
    squish_fair_share_into, squish_weighted_into, SquishRequest, SquishScratch,
};
use rrs_core::{
    Controller, ControllerConfig, Importance, JobId, JobSpec, PeriodEstimator, PressureEstimator,
};
use rrs_feedback::{PidConfig, PidController};
use rrs_metrics::Histogram;
use rrs_queue::{BoundedBuffer, JobKey, MetricRegistry, Role};
use rrs_scenario::ArrivalRng;
use rrs_scheduler::timerlist::TimerList;
use rrs_scheduler::{
    CpuId, Dispatcher, DispatcherConfig, Machine, Period, Proportion, Reservation, ThreadId,
};
use rrs_sim::{Event, Schedule, ShardConfig, ShardedSim, SimConfig, SimTime};
use rrs_telemetry::{Recorder, TelemetryConfig, TelemetrySnapshot, TraceEventKind};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Timed batches per probe.
pub const BATCHES: usize = 11;

/// Times `BATCHES` batches of `ops` calls (after one discarded warm-up
/// batch) and returns each batch's ns per call.
fn ns_per_op(ops: usize, mut op: impl FnMut()) -> Vec<f64> {
    let mut samples = Vec::with_capacity(BATCHES);
    for batch in 0..=BATCHES {
        let t = Instant::now();
        for _ in 0..ops {
            op();
        }
        if batch > 0 {
            samples.push(t.elapsed().as_nanos() as f64 / ops as f64);
        }
    }
    samples
}

/// Spreads the cost of one call over the `jobs` it walks.
fn per_job(samples: Vec<f64>, jobs: f64) -> Vec<f64> {
    samples.into_iter().map(|ns| ns / jobs).collect()
}

/// Schedule + pop with `pending` entries resident: the calendar's steady
/// state, one event handled and its successor booked.
fn calendar_schedule_pop(pending: u64) -> Vec<f64> {
    let mut cal = Schedule::new();
    for i in 0..pending {
        cal.schedule(SimTime::from_micros(i * 7 + 1), Event::PollTick);
    }
    ns_per_op(100_000, || {
        let (at, _) = cal.pop().expect("calendar stays populated");
        let again = SimTime::from_micros(at.as_micros() + pending * 7);
        black_box(cal.schedule(again, Event::PollTick));
    })
}

/// Schedule + cancel against 16k resident entries (cancelled entries are
/// pruned lazily, so a pop every 64 pairs keeps the heap bounded).
fn calendar_cancel() -> Vec<f64> {
    let mut cal = Schedule::new();
    for i in 0..16_384u64 {
        cal.schedule(SimTime::from_micros(1_000_000 + i), Event::PollTick);
    }
    let mut n = 0u64;
    ns_per_op(100_000, || {
        n += 1;
        let id = cal.schedule(SimTime::from_micros(n), Event::PollTick);
        black_box(cal.cancel(id));
        if n.is_multiple_of(64) {
            black_box(cal.next_time());
        }
    })
}

fn timerlist_arm_pop() -> Vec<f64> {
    let mut timers = TimerList::new();
    let n = 10_000u32;
    for slot in 0..n {
        timers.arm(slot, ThreadId(u64::from(slot)), u64::from(slot) + 1);
    }
    let mut now = 0u64;
    ns_per_op(100_000, || {
        now += 1;
        let slot = timers
            .pop_next_expired(now)
            .expect("one timer per microsecond");
        timers.arm(slot, ThreadId(u64::from(slot)), now + u64::from(n));
    })
}

fn lazy_dispatcher() -> Dispatcher {
    Dispatcher::new(DispatcherConfig {
        lazy_rollovers: true,
        ..DispatcherConfig::default()
    })
}

/// `n` reserved threads, ids `1..=n`.  Thread 1 holds half the CPU so a
/// lone runner never exhausts its budget; the rest share 600 ppt, above
/// the 400 ppt a 40 % duty cycle charges them, so a fully runnable queue
/// never drains into throttled idling.
fn populate(d: &mut Dispatcher, n: usize) {
    for i in 1..=n {
        let ppt = if i == 1 { 500 } else { (600 / n as u32).max(1) };
        d.add_thread_preadmitted(
            ThreadId(i as u64),
            Reservation::new(Proportion::from_ppt(ppt), Period::from_millis(10)),
        )
        .expect("fresh ids");
    }
}

/// One dispatch span (advance, pick, charge) with `runnable` of `n`
/// resident threads runnable.  `runnable` is 1 (the next-quantum cache
/// serves every pick) or `n` (every pick re-ranks the run queue).
fn dispatch_span(runnable: usize, n: usize) -> Vec<f64> {
    let mut d = lazy_dispatcher();
    populate(&mut d, n);
    for i in runnable + 1..=n {
        d.block(ThreadId(i as u64)).expect("resident");
    }
    let mut now = d.now_us();
    ns_per_op(200_000, || {
        now += 10;
        d.advance_to(now);
        let outcome = d.dispatch();
        if outcome.thread.is_some() {
            d.charge_span(black_box(4u64.min(outcome.quantum_us)));
        }
        black_box(outcome.quantum_us);
    })
}

fn block_unblock() -> Vec<f64> {
    let mut d = lazy_dispatcher();
    populate(&mut d, 1_000);
    let mut i = 0u64;
    ns_per_op(100_000, || {
        i = i % 1_000 + 1;
        d.block(ThreadId(i)).expect("resident");
        d.unblock(ThreadId(i)).expect("resident");
    })
}

fn set_reservation() -> Vec<f64> {
    let mut d = lazy_dispatcher();
    populate(&mut d, 1_000);
    let mut i = 0u64;
    let mut flip = 0u32;
    ns_per_op(100_000, || {
        i = i % 1_000 + 1;
        flip ^= 1;
        let r = Reservation::new(Proportion::from_ppt(1 + flip), Period::from_millis(10));
        d.set_reservation(ThreadId(i), r).expect("resident");
    })
}

fn machine_migrate() -> Vec<f64> {
    let mut m = Machine::new(DispatcherConfig::default(), 8);
    for i in 1..=64u64 {
        let r = Reservation::new(Proportion::from_ppt(10), Period::from_millis(10));
        m.add_thread_preadmitted(ThreadId(i), r).expect("fresh ids");
    }
    let mut i = 0u64;
    ns_per_op(50_000, || {
        i = i % 64 + 1;
        let id = ThreadId(i);
        let from = m.cpu_of(id).expect("resident");
        black_box(m.migrate(id, CpuId((from.0 + 1) % 8)).expect("resident"));
    })
}

fn controller_with_jobs(config: ControllerConfig, jobs: u64) -> Controller {
    let mut c = Controller::new(config, MetricRegistry::new());
    for i in 0..jobs {
        c.add_job(JobId(i), JobSpec::miscellaneous())
            .expect("miscellaneous jobs are always admitted");
    }
    c
}

/// One controller cycle over 1 000 jobs, on an exact 10 ms grid so the
/// incremental mode is not knocked back to full cycles by `dt` jitter.
fn controller_cycle(incremental: bool) -> Vec<f64> {
    let config = ControllerConfig::default().with_incremental(incremental);
    let mut c = controller_with_jobs(config, 1_000);
    let mut tick = 0u64;
    let mut cycle = move |c: &mut Controller| {
        tick += 1;
        black_box(
            c.control_cycle_with_dt(tick as f64 * 0.01, 0.01)
                .total_granted_ppt,
        );
    };
    for _ in 0..50 {
        cycle(&mut c);
    }
    ns_per_op(if incremental { 20_000 } else { 200 }, || cycle(&mut c))
}

fn controller_add_remove() -> Vec<f64> {
    let mut c = controller_with_jobs(ControllerConfig::default(), 1_000);
    let mut next = 1_000u64;
    ns_per_op(50_000, || {
        next += 1;
        c.add_job(JobId(next), JobSpec::miscellaneous())
            .expect("miscellaneous jobs are always admitted");
        black_box(c.remove_job(JobId(next)));
    })
}

fn squish_requests() -> Vec<SquishRequest> {
    (0..1_000u32)
        .map(|i| {
            SquishRequest::new(Proportion::from_ppt(1 + i % 40))
                .with_importance(Importance::new(1.0 + f64::from(i % 8) / 8.0))
        })
        .collect()
}

fn registry_summed_pressure() -> Vec<f64> {
    let registry = MetricRegistry::new();
    for job in 0..1_000u64 {
        let queue = Arc::new(BoundedBuffer::<u32>::new("q", 64));
        for i in 0..(job % 64) as u32 {
            queue.try_push(i).expect("below capacity");
        }
        registry.register(JobKey(job), Role::Consumer, queue.clone());
        registry.register(JobKey(job), Role::Producer, queue);
    }
    let mut job = 0u64;
    ns_per_op(100_000, || {
        job = (job + 1) % 1_000;
        black_box(registry.summed_pressure(JobKey(job)));
    })
}

fn squish_fair_share() -> Vec<f64> {
    let requests = squish_requests();
    let mut grants = Vec::new();
    let per_call = ns_per_op(2_000, || {
        squish_fair_share_into(black_box(&requests), 7_200, &mut grants);
        black_box(grants.len());
    });
    per_job(per_call, 1_000.0)
}

fn squish_weighted() -> Vec<f64> {
    let requests = squish_requests();
    let mut grants = Vec::new();
    let mut scratch = SquishScratch::default();
    let per_call = ns_per_op(500, || {
        squish_weighted_into(black_box(&requests), 7_200, &mut scratch, &mut grants);
        black_box(grants.len());
    });
    per_job(per_call, 1_000.0)
}

fn period_end_period() -> Vec<f64> {
    let mut estimator = PeriodEstimator::with_defaults();
    let mut fill = 0.0f64;
    ns_per_op(200_000, || {
        fill = (fill + 0.37) % 1.0;
        estimator.observe_fill(fill);
        estimator.observe_fill(1.0 - fill);
        black_box(estimator.end_period(Proportion::from_ppt(100), Period::from_millis(10)));
    })
}

fn pressure_update() -> Vec<f64> {
    let mut pressure = PressureEstimator::new(PidConfig::default());
    let mut e = 0.3f64;
    ns_per_op(500_000, || {
        e = -e;
        black_box(pressure.update(e, 0.01));
    })
}

fn pid_update() -> Vec<f64> {
    let mut pid = PidController::new(PidConfig::default());
    let mut e = 0.3f64;
    ns_per_op(500_000, || {
        e = -e;
        black_box(pid.update(e, 0.01));
    })
}

fn bounded_push_pop() -> Vec<f64> {
    let buffer = BoundedBuffer::new("q", 1_024);
    ns_per_op(200_000, || {
        buffer.try_push(black_box(1u64)).ok();
        black_box(buffer.try_pop());
    })
}

fn recorder_record() -> Vec<f64> {
    let recorder = Recorder::new(TelemetryConfig::default());
    let mut ts = 0u64;
    ns_per_op(500_000, || {
        ts += 1;
        recorder.record(ts, TraceEventKind::CacheHit { cpu: 0 });
    })
}

fn snapshot_delta() -> Vec<f64> {
    let earlier = TelemetrySnapshot::default();
    let mut later = TelemetrySnapshot::default();
    ns_per_op(500_000, || {
        later.dispatches += 3;
        later.quantum_cache_hits += 2;
        black_box(black_box(&later).delta_since(&earlier));
    })
}

fn histogram_record() -> Vec<f64> {
    let mut histogram = Histogram::new(0.0, 1.0, 64);
    let mut v = 0.0f64;
    ns_per_op(500_000, || {
        v = (v + 0.618) % 1.0;
        histogram.record(black_box(v));
    })
}

fn arrivals_next() -> Vec<f64> {
    let mut rng = ArrivalRng::new(11);
    ns_per_op(500_000, || {
        black_box(rng.exp_gap(100.0));
    })
}

/// A probe's name and the function that runs it.
pub type QuickProbe = (&'static str, fn() -> Vec<f64>);

/// The probes that time one operation, all in ns per operation.
/// `_per_job_1k` probes divide one call over 1 000 jobs by 1 000.
pub const QUICK: [QuickProbe; 25] = [
    ("probe.sim.calendar.schedule_pop_ns_64", || {
        calendar_schedule_pop(64)
    }),
    ("probe.sim.calendar.schedule_pop_ns_16k", || {
        calendar_schedule_pop(16_384)
    }),
    ("probe.sim.calendar.cancel_ns_16k", calendar_cancel),
    (
        "probe.scheduler.timerlist.arm_pop_ns_10k",
        timerlist_arm_pop,
    ),
    ("probe.scheduler.dispatcher.span_ns_1of16", || {
        dispatch_span(1, 16)
    }),
    ("probe.scheduler.dispatcher.span_ns_1of10k", || {
        dispatch_span(1, 10_000)
    }),
    ("probe.scheduler.dispatcher.span_ns_16of16", || {
        dispatch_span(16, 16)
    }),
    ("probe.scheduler.dispatcher.span_ns_10kof10k", || {
        dispatch_span(10_000, 10_000)
    }),
    (
        "probe.scheduler.dispatcher.block_unblock_ns_1k",
        block_unblock,
    ),
    (
        "probe.scheduler.dispatcher.set_reservation_ns_1k",
        set_reservation,
    ),
    ("probe.scheduler.machine.migrate_ns_8cpu", machine_migrate),
    ("probe.core.controller.full_cycle_ns_per_job_1k", || {
        per_job(controller_cycle(false), 1_000.0)
    }),
    ("probe.core.controller.incremental_cycle_ns_1k", || {
        controller_cycle(true)
    }),
    (
        "probe.core.controller.add_remove_job_ns_1k",
        controller_add_remove,
    ),
    (
        "probe.core.squish.fair_share_ns_per_job_1k",
        squish_fair_share,
    ),
    ("probe.core.squish.weighted_ns_per_job_1k", squish_weighted),
    ("probe.core.period.end_period_ns", period_end_period),
    ("probe.core.pressure.update_ns", pressure_update),
    ("probe.feedback.pid.update_ns", pid_update),
    ("probe.queue.bounded.push_pop_ns", bounded_push_pop),
    (
        "probe.queue.registry.summed_pressure_ns_1k",
        registry_summed_pressure,
    ),
    ("probe.telemetry.recorder.record_ns", recorder_record),
    ("probe.telemetry.snapshot.delta_ns", snapshot_delta),
    ("probe.metrics.histogram.record_ns", histogram_record),
    ("probe.scenario.arrivals.next_ns", arrivals_next),
];

/// The two probes that time a whole run of something.
pub const WHOLE: [(&str, &str); 2] = [
    ("probe.scenario.corpus_wall_s", "s"),
    ("probe.sim.sharded.barrier_ns_est", "ns"),
];

/// Wall seconds for all eight corpus scenarios; every SLO must pass.
fn corpus_wall_s() -> Result<Vec<f64>, String> {
    let mut samples = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for spec in rrs_scenario::corpus() {
            let report = rrs_scenario::run_scenario(&spec).map_err(|e| e.to_string())?;
            if !report.passed {
                return Err(format!("scenario {} missed an SLO", report.scenario));
            }
        }
        samples.push(t.elapsed().as_secs_f64());
    }
    Ok(samples)
}

/// A churn-free 10k-job × 64-CPU × 8-shard machine with a rebalance
/// barrier every `rebalance_interval_s`, one simulated second in.
fn sharded_machine(rebalance_interval_s: f64) -> ShardedSim {
    struct Spin;
    impl rrs_sim::WorkModel for Spin {
        fn run(&mut self, _now: u64, quantum_us: u64, _hz: f64) -> rrs_sim::RunResult {
            rrs_sim::RunResult::ran(quantum_us)
        }
    }
    let mut sim = ShardedSim::new(
        SimConfig::default().with_cpus(64),
        ShardConfig {
            shards: 8,
            rebalance_interval_s,
            parallel: false,
            ..ShardConfig::default()
        },
    );
    sim.set_trace_interval(SimTime::from_secs(1000));
    for i in 0..10_000 {
        sim.add_job(&format!("j{i}"), JobSpec::miscellaneous(), Box::new(Spin))
            .expect("miscellaneous jobs are always admitted");
    }
    sim.run_for(1.0);
    sim
}

/// Cost of one rebalance barrier.  Two machines differ only in barrier
/// cadence, 10 ms against 1 s, and nothing migrates on either, so they
/// simulate the same events; over the same two simulated seconds the
/// first crosses 198 more barriers, and the wall-time difference is
/// theirs.  (At the default 0.1 s cadence the 18 extra barriers were
/// lost in the noise of the two timings.)
fn barrier_ns_est() -> Vec<f64> {
    let mut often = sharded_machine(0.01);
    let mut seldom = sharded_machine(1.0);
    let wall_s = |sim: &mut ShardedSim| {
        let t = Instant::now();
        sim.run_for(2.0);
        t.elapsed().as_secs_f64()
    };
    (0..7)
        .map(|_| (wall_s(&mut often) - wall_s(&mut seldom)) * 1e9 / 198.0)
        .collect()
}

/// Runs every probe, in [`QUICK`] then [`WHOLE`] order.
pub fn all() -> Result<Vec<Reading>, String> {
    let mut readings: Vec<Reading> = QUICK
        .iter()
        .map(|&(name, run)| Reading::of_samples(name, "ns", &run()))
        .collect();
    let whole = [corpus_wall_s()?, barrier_ns_est()];
    for (&(name, unit), samples) in WHOLE.iter().zip(&whole) {
        readings.push(Reading::of_samples(name, unit, samples));
    }
    Ok(readings)
}
