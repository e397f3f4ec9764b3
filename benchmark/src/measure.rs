//! One repetition of a workload: set-up, warm-up, the timed window, and
//! the checks on what came out.

use crate::spans::{self, SpanLog};
use crate::workloads::{Def, Instance, Kind, SLICES};
use rrs_api::TelemetrySnapshot;
use rrs_sim::SimStats;
use std::time::Instant;

/// Pass/fail tally of one repetition.  Every `add_job` / `remove_job`
/// and every output check is one attempted operation.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// Everything one repetition measured.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Build host + add all jobs + warm-up, in wall seconds.
    pub setup_s: f64,
    /// Wall seconds of each slice of the window.
    pub slice_s: Vec<f64>,
    /// Counter deltas over the window.
    pub window: TelemetrySnapshot,
    /// Counters since the host was built, read at the horizon.
    pub at_horizon: TelemetrySnapshot,
    /// Simulated time the window covered.  `Host::advance` books the
    /// modelled controller cost on the clock, so this can exceed the
    /// nominal horizon; it is exact for a given seed all the same.
    pub elapsed_us: u64,
    /// CPU time delivered to jobs over the window, summed over CPUs.
    pub delivered_us: u64,
    /// Modelled controller + dispatch overhead over the window, µs.
    pub overhead_us: f64,
    pub squish_events: u64,
    /// Mean |fill − 0.5| over all queues and slice edges; `None` when
    /// the workload registers no queue.
    pub fill_abs_err: Option<f64>,
    /// Hash of the simulated statistics at the horizon.
    pub digest: u64,
    pub tally: Tally,
}

impl Rep {
    pub fn controller_cycles(&self) -> u64 {
        self.window.controller_full_cycles + self.window.controller_incremental_cycles
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hash of every simulated statistic: all of `SimStats` and the counter
/// fields of `TelemetrySnapshot`.  Wall-clock fields (stage timings) and
/// the recorder's own counters are left out, so a traced and an untraced
/// run of the same simulated events hash alike.
pub fn stats_digest(stats: &SimStats, t: &TelemetrySnapshot) -> u64 {
    let mut h = Fnv::new();
    for w in [
        stats.controller_invocations,
        stats.controller_cost_us.to_bits(),
        stats.dispatch_overhead_us.to_bits(),
        stats.quality_exceptions,
        stats.squish_events,
        stats.admission_rejections,
        stats.migrations,
        stats.steps,
    ] {
        h.word(w);
    }
    for cpu in &stats.per_cpu {
        for w in [
            cpu.used_us,
            cpu.idle_us,
            cpu.migrations_in,
            cpu.migrations_out,
            cpu.deadlines_missed,
        ] {
            h.word(w);
        }
    }
    for w in [
        t.quantum_cache_hits,
        t.quantum_cache_misses,
        t.settles_goodness,
        t.settles_period_boundary,
        t.settles_throttle_edge,
        t.settles_zero_span,
        t.events_controller,
        t.events_trace,
        t.events_wake,
        t.events_poll_tick,
        t.events_horizon,
        t.controller_full_cycles,
        t.controller_incremental_cycles,
        t.dispatches,
        t.context_switches,
        t.period_rollovers,
        t.migrations,
        t.rebalance_cycles,
        t.rebalance_migrations,
    ] {
        h.word(w);
    }
    h.0
}

fn used_us(stats: &SimStats) -> u64 {
    stats.per_cpu.iter().map(|c| c.used_us).sum()
}

/// Rebalance migrations over the window of `sharded_churn` with the
/// churn left out: what the rebalancer does when nothing joins or leaves.
pub fn churn_free_migrations(def: &'static Def) -> u64 {
    let mut inst = Instance::build(def, 0, false, None);
    inst.warm_up();
    let before = inst.host.telemetry();
    for _ in 0..SLICES {
        inst.run_slice();
    }
    inst.host
        .telemetry()
        .delta_since(&before)
        .rebalance_migrations
}

/// Runs one repetition.  With a span log the repetition is traced:
/// telemetry recording on, one span per call into the program.
pub fn run_rep(def: &'static Def, seed: u64, mut log: Option<&mut SpanLog>) -> Rep {
    let traced = log.is_some();
    let started = Instant::now();
    let span = spans::open(&mut log, "workload.setup");
    let mut inst = Instance::build(def, seed, true, log.as_deref_mut());
    spans::close(&mut log, span);
    let span = spans::open(&mut log, "workload.warmup");
    inst.warm_up();
    spans::close(&mut log, span);
    let setup_s = started.elapsed().as_secs_f64();

    let stats0 = inst.sim_stats();
    let telem0 = inst.host.telemetry();
    let start_us = inst.host.now().as_micros();
    let mut slice_s = Vec::with_capacity(SLICES);
    let mut fill_sum = 0.0;
    let mut fill_n = 0u32;
    for _ in 0..SLICES {
        let t = Instant::now();
        let span = spans::open(&mut log, "workload.slice");
        match log.as_deref_mut() {
            Some(l) => inst.run_slice_traced(l),
            None => inst.run_slice(),
        }
        spans::close(&mut log, span);
        slice_s.push(t.elapsed().as_secs_f64());
        if let Some(err) = inst.fill_abs_err() {
            fill_sum += err;
            fill_n += 1;
        }
    }
    let stats1 = inst.sim_stats();
    let telem1 = inst.host.telemetry();

    let mut tally = Tally {
        attempted: inst.adds + inst.removes,
        failed: inst.op_failures,
        failures: Vec::new(),
    };
    if inst.op_failures > 0 {
        tally
            .failures
            .push(format!("{} add_job calls were refused", inst.op_failures));
    }
    let end_us = def.warmup_us + def.horizon_us;
    let now_us = inst.host.now().as_micros();
    tally.check(now_us >= end_us, || {
        format!("clock at {now_us} µs, horizon {end_us} µs")
    });
    let booked: u64 = stats1.per_cpu.iter().map(|c| c.used_us + c.idle_us).sum();
    let capacity = def.cpus as u64 * now_us;
    tally.check(booked <= capacity, || {
        format!("used + idle {booked} µs exceeds {capacity} CPU-µs")
    });
    let expect_jobs = (inst.adds - inst.removes - inst.op_failures) as usize;
    let resident = inst.resident_jobs();
    tally.check(resident == expect_jobs, || {
        format!("{resident} resident jobs, expected {expect_jobs}")
    });
    tally.check(inst.host.telemetry_recorder().is_some() == traced, || {
        format!("telemetry recorder presence must equal traced={traced}")
    });
    if def.kind == Kind::PipelineBlocking {
        let starved = inst.starved_jobs();
        tally.check(starved == 0, || {
            format!("{starved} jobs hold a zero allocation")
        });
    }

    Rep {
        setup_s,
        slice_s,
        window: telem1.delta_since(&telem0),
        at_horizon: telem1,
        elapsed_us: now_us - start_us,
        delivered_us: used_us(&stats1) - used_us(&stats0),
        overhead_us: (stats1.controller_cost_us - stats0.controller_cost_us)
            + (stats1.dispatch_overhead_us - stats0.dispatch_overhead_us),
        squish_events: stats1.squish_events - stats0.squish_events,
        fill_abs_err: (fill_n > 0).then(|| fill_sum / f64::from(fill_n)),
        digest: stats_digest(&stats1, &telem1),
        tally,
    }
}
