//! Every metric name the benchmark prints, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test keeps the two in step.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the earlier median by which the metric may worsen before
    /// it counts as a regression.
    pub bound: f64,
    /// Simulated statistic: exact for a given seed, so two runs of the
    /// same tree must agree to the last bit.
    pub exact: bool,
}

const fn wall(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn sim(name: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit: "ratio",
        better,
        bound,
        exact: true,
    }
}

pub const END_TO_END: [EndToEnd; 9] = [
    wall("setup_s", "s", Better::Lower, 0.25),
    wall("run_wall_s", "s", Better::Lower, 0.20),
    wall("delivered_cpu_us_per_wall_s", "us/s", Better::Higher, 0.20),
    wall("dispatches_per_wall_s", "1/s", Better::Higher, 0.20),
    wall("controller_cycles_per_wall_s", "1/s", Better::Higher, 0.20),
    wall("peak_rss_mib", "MiB", Better::Lower, 0.08),
    sim("sim_delivered_share", Better::Higher, 0.01),
    sim("sim_overhead_share", Better::Lower, 0.02),
    sim("sim_fill_tracking", Better::Higher, 0.10),
];

/// Per-layer metrics read off each traced repetition of a workload, in
/// print order.
pub const IN_SITU: [(&str, &str); 42] = [
    ("sim.calendar.pops_controller", "count"),
    ("sim.calendar.pops_trace", "count"),
    ("sim.calendar.pops_wake", "count"),
    ("sim.calendar.pops_poll_tick", "count"),
    ("sim.calendar.pops_horizon", "count"),
    ("sim.step.count", "count"),
    ("sim.step.ns_p50", "ns"),
    ("sim.step.ns_p99", "ns"),
    ("sim.step.ctl_ns_p50", "ns"),
    ("sim.step.busy_share", "ratio"),
    ("scheduler.dispatcher.dispatches", "count"),
    ("scheduler.dispatcher.cache_hit_rate", "ratio"),
    ("scheduler.dispatcher.settles_per_dispatch", "ratio"),
    ("scheduler.dispatcher.settles_goodness", "count"),
    ("scheduler.dispatcher.settles_period_boundary", "count"),
    ("scheduler.dispatcher.settles_throttle_edge", "count"),
    ("scheduler.dispatcher.settles_zero_span", "count"),
    ("scheduler.dispatcher.context_switches", "count"),
    ("scheduler.dispatcher.period_rollovers", "count"),
    ("scheduler.dispatcher.span_ns_est", "ns"),
    ("scheduler.machine.migrations", "count"),
    ("core.controller.full_cycles", "count"),
    ("core.controller.incremental_cycles", "count"),
    ("core.controller.incremental_skip_rate", "ratio"),
    ("core.controller.squish_events", "count"),
    ("core.controller.stage_sense_ns", "ns"),
    ("core.controller.stage_classify_ns", "ns"),
    ("core.controller.stage_estimate_ns", "ns"),
    ("core.controller.stage_allocate_ns", "ns"),
    ("core.controller.stage_place_ns", "ns"),
    ("core.controller.stage_actuate_ns", "ns"),
    ("sim.sharded.chunk_ns_p50", "ns"),
    ("sim.sharded.rebalance_cycles", "count"),
    ("sim.sharded.rebalance_migrations", "count"),
    ("api.host.add_job_ns_p50", "ns"),
    ("api.host.remove_job_ns_p50", "ns"),
    ("telemetry.ring_recorded", "count"),
    ("telemetry.ring_dropped", "count"),
    ("trace.unattributed_share", "ratio"),
    ("sim.queue.fill_abs_err", "ratio"),
    ("api.host.failed_ops", "count"),
    ("api.host.attempted_ops", "count"),
];

/// Per-layer metrics of a traced run as a whole, printed after
/// [`IN_SITU`].
pub const PER_RUN: [(&str, &str); 2] = [
    ("sim.sharded.churn_free_migrations", "count"),
    ("telemetry.overhead_ratio", "ratio"),
];
