//! From samples to named readings, and the files they are kept in.

use crate::measure::Rep;
use crate::names::{END_TO_END, IN_SITU};
use crate::spans::SpanLog;
use crate::stats::{median, percentile, summarize, tail_percentile};
use crate::workloads::{Def, Kind, SLICES};
use serde::Serialize;

/// One named value.  `median`/`q1`/`q3`/`n` describe the samples behind
/// a timed value; an exact or counted value repeats itself there with
/// `n = 1`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Reading {
    pub name: String,
    pub unit: String,
    /// The value the metric is compared by.
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: u64,
}

impl Reading {
    pub fn exact(name: &str, unit: &str, value: f64) -> Self {
        Self {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// A reading whose value is the median of its samples.
    pub fn of_samples(name: &str, unit: &str, samples: &[f64]) -> Self {
        let s = summarize(samples);
        Self {
            name: name.to_string(),
            unit: unit.to_string(),
            value: s.median,
            median: s.median,
            q1: s.q1,
            q3: s.q3,
            n: s.n as u64,
        }
    }
}

/// Wall time of the fixed horizon, from every repetition's slice times
/// (`slice_s` holds whole repetitions of [`SLICES`] slices, in order).
///
/// Slice `i` does the same simulated work in every repetition, so its
/// times differ only by what else the machine was doing.  `value` is
/// the sum over slices of each slice's *fastest* repetition; the median
/// and quartiles are the same sum over per-slice medians and quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Horizon {
    pub fastest_s: f64,
    pub median_s: f64,
    pub q1_s: f64,
    pub q3_s: f64,
    pub n: usize,
    /// Every timing over the fastest timing of its slice: how much the
    /// machine's weather stretched the run.  Median, and the highest
    /// percentile with at least ten samples beyond it.
    pub slowdown_median: f64,
    pub slowdown_tail: Option<(f64, f64)>,
}

impl Horizon {
    pub fn of(slice_s: &[f64]) -> Self {
        let mut h = Horizon {
            fastest_s: 0.0,
            median_s: 0.0,
            q1_s: 0.0,
            q3_s: 0.0,
            n: slice_s.len(),
            slowdown_median: 1.0,
            slowdown_tail: None,
        };
        let mut slowdown = Vec::with_capacity(slice_s.len());
        for i in 0..SLICES {
            let column: Vec<f64> = slice_s.iter().skip(i).step_by(SLICES).copied().collect();
            let s = summarize(&column);
            let fastest = column.iter().copied().fold(f64::INFINITY, f64::min);
            h.fastest_s += fastest;
            h.median_s += s.median;
            h.q1_s += s.q1;
            h.q3_s += s.q3;
            slowdown.extend(column.iter().map(|t| t / fastest));
        }
        h.slowdown_median = median(&slowdown);
        h.slowdown_tail = tail_percentile(&slowdown);
        h
    }

    /// A reading that is `f` of the horizon time; `f` may be decreasing
    /// (a rate), so the quartiles are re-ordered.
    fn reading(&self, name: &str, unit: &str, f: &dyn Fn(f64) -> f64) -> Reading {
        let (a, b) = (f(self.q1_s), f(self.q3_s));
        Reading {
            name: name.to_string(),
            unit: unit.to_string(),
            value: f(self.fastest_s),
            median: f(self.median_s),
            q1: a.min(b),
            q3: a.max(b),
            n: self.n as u64,
        }
    }
}

/// What one seed determines exactly: the simulated statistics of the
/// window.  Two runs of one tree must agree on every field.
#[derive(Debug, Clone, PartialEq)]
pub struct Exact {
    /// `stats_digest` in hex (a 64-bit value does not survive a JSON
    /// number).
    pub stats_digest: String,
    pub elapsed_us: u64,
    pub delivered_us: u64,
    pub dispatches: u64,
    pub controller_cycles: u64,
    pub overhead_us: f64,
    /// Mean |fill − 0.5|; 0 where no queue is registered.
    pub fill_abs_err: f64,
    pub cache_hit_rate: f64,
    /// Share of calendar pops that are poll ticks or wake-ups.
    pub poll_wake_share: f64,
    pub rebalance_migrations: u64,
}

impl Exact {
    pub fn of(rep: &Rep) -> Self {
        let w = &rep.window;
        let pops = w.calendar_events_total();
        Self {
            stats_digest: format!("{:016x}", rep.digest),
            elapsed_us: rep.elapsed_us,
            delivered_us: rep.delivered_us,
            dispatches: w.dispatches,
            controller_cycles: rep.controller_cycles(),
            overhead_us: rep.overhead_us,
            fill_abs_err: rep.fill_abs_err.unwrap_or(0.0),
            cache_hit_rate: w.cache_hit_rate,
            poll_wake_share: if pops == 0 {
                0.0
            } else {
                (w.events_poll_tick + w.events_wake) as f64 / pops as f64
            },
            rebalance_migrations: w.rebalance_migrations,
        }
    }

    /// The reason this reading shows the workload no longer stresses what
    /// it was chosen for, if it does not.  `churn_free_migrations` is the
    /// rebalancer's count over the same window with the churn left out.
    pub fn validity_failure(&self, def: &Def, churn_free_migrations: u64) -> Option<String> {
        match def.kind {
            Kind::SpinSaturated if self.cache_hit_rate > 0.05 => Some(format!(
                "next-quantum cache hit rate {:.3} > 0.05: the contended path is no longer the work",
                self.cache_hit_rate
            )),
            Kind::SpinUncontended if self.cache_hit_rate < 0.8 => Some(format!(
                "next-quantum cache hit rate {:.3} < 0.8: the cached path is no longer the work",
                self.cache_hit_rate
            )),
            Kind::PipelineBlocking if self.poll_wake_share < 0.5 => Some(format!(
                "poll ticks and wake-ups are {:.3} of calendar pops, below half",
                self.poll_wake_share
            )),
            Kind::ShardedChurn if self.rebalance_migrations <= 10 * churn_free_migrations => {
                Some(format!(
                    "{} rebalance migrations with churn, {churn_free_migrations} without: the churn is not what moves the rebalancer",
                    self.rebalance_migrations
                ))
            }
            _ => None,
        }
    }
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The end-to-end readings, in [`END_TO_END`] order.
///
/// Wall-based values are taken from [`Horizon::fastest_s`].  On a shared
/// two-core box the same slice ran up to twice as slow from one second to
/// the next with nothing of ours competing (on-CPU time rose with wall
/// time, so it is the machine, not the run queue); whole-run medians
/// wandered 10–14 % between identical runs, the fastest-slice sum 2–5 %.
/// Set-up time is the median over repetitions.
pub fn end_to_end(
    def: &Def,
    setup_s: &[f64],
    slice_s: &[f64],
    exact: &Exact,
    peak_rss_mib: f64,
) -> Vec<Reading> {
    let unit_of = |name: &str| {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .map_or("", |m| m.unit)
    };
    let horizon = Horizon::of(slice_s);
    let per_wall_s = |name: &str, count: u64| {
        horizon.reading(name, unit_of(name), &|wall_s| count as f64 / wall_s)
    };
    let exactly = |name: &str, value: f64| Reading::exact(name, unit_of(name), value);
    let capacity_us = def.cpus as f64 * exact.elapsed_us as f64;
    let readings = vec![
        Reading::of_samples("setup_s", unit_of("setup_s"), setup_s),
        horizon.reading("run_wall_s", unit_of("run_wall_s"), &|wall_s| wall_s),
        per_wall_s("delivered_cpu_us_per_wall_s", exact.delivered_us),
        per_wall_s("dispatches_per_wall_s", exact.dispatches),
        per_wall_s("controller_cycles_per_wall_s", exact.controller_cycles),
        exactly("peak_rss_mib", peak_rss_mib),
        exactly(
            "sim_delivered_share",
            exact.delivered_us as f64 / capacity_us,
        ),
        exactly("sim_overhead_share", exact.overhead_us / capacity_us),
        exactly("sim_fill_tracking", 1.0 - 2.0 * exact.fill_abs_err),
    ];
    assert!(
        readings
            .iter()
            .map(|r| r.name.as_str())
            .eq(END_TO_END.iter().map(|m| m.name)),
        "end-to-end readings follow names::END_TO_END"
    );
    readings
}

/// Per-layer values of one traced repetition, in [`IN_SITU`] order.
pub fn in_situ(rep: &Rep, log: &SpanLog) -> Vec<(&'static str, f64)> {
    let w = &rep.window;
    let all = &rep.at_horizon;
    let any = |_: &crate::spans::Span| true;
    let steps = log.durations("sim.step", any);
    let ctl_steps = log.durations("sim.step", |s| s.tag == "ctl");
    let chunks = log.durations("sim.sharded.chunk", any);
    let slice_ns: f64 = log.durations("workload.slice", any).iter().sum();
    let step_ns: f64 = steps.iter().sum();
    let chunk_ns: f64 = chunks.iter().sum();
    let stage_ns = |t: &rrs_api::TelemetrySnapshot| {
        [
            t.stage_sense_ns,
            t.stage_classify_ns,
            t.stage_estimate_ns,
            t.stage_allocate_ns,
            t.stage_place_ns,
            t.stage_actuate_ns,
        ]
    };
    let window_stage_ns: u64 = stage_ns(w).iter().sum();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let slice_self_ns: u64 = log
        .self_times_ns()
        .iter()
        .zip(log.spans())
        .filter(|(_, s)| s.name == "workload.slice")
        .map(|(&ns, _)| ns)
        .sum();

    // The pipeline installers call `add_job` themselves, so there the
    // per-job figure is the install span over the jobs it adds.
    let mut add_ns = log.durations("api.host.add_job", any);
    for (span, jobs) in [
        ("workloads.install_video", 3.0),
        ("workloads.install_web", 2.0),
    ] {
        add_ns.extend(log.durations(span, any).iter().map(|ns| ns / jobs));
    }
    let remove_ns = log.durations("api.host.remove_job", any);

    // Full cycles cluster at start-up (and after churn), mostly outside
    // the window, so the stage cost per full cycle is taken over the
    // whole repetition.
    let per_full_cycle =
        stage_ns(all).map(|ns| ratio(ns as f64, all.controller_full_cycles as f64));

    let values = vec![
        ("sim.calendar.pops_controller", w.events_controller as f64),
        ("sim.calendar.pops_trace", w.events_trace as f64),
        ("sim.calendar.pops_wake", w.events_wake as f64),
        ("sim.calendar.pops_poll_tick", w.events_poll_tick as f64),
        ("sim.calendar.pops_horizon", w.events_horizon as f64),
        ("sim.step.count", steps.len() as f64),
        ("sim.step.ns_p50", median(&steps)),
        ("sim.step.ns_p99", percentile(&steps, 99.0)),
        ("sim.step.ctl_ns_p50", median(&ctl_steps)),
        ("sim.step.busy_share", ratio(step_ns, slice_ns)),
        ("scheduler.dispatcher.dispatches", w.dispatches as f64),
        ("scheduler.dispatcher.cache_hit_rate", w.cache_hit_rate),
        (
            "scheduler.dispatcher.settles_per_dispatch",
            ratio(w.settles_total() as f64, w.dispatches as f64),
        ),
        (
            "scheduler.dispatcher.settles_goodness",
            w.settles_goodness as f64,
        ),
        (
            "scheduler.dispatcher.settles_period_boundary",
            w.settles_period_boundary as f64,
        ),
        (
            "scheduler.dispatcher.settles_throttle_edge",
            w.settles_throttle_edge as f64,
        ),
        (
            "scheduler.dispatcher.settles_zero_span",
            w.settles_zero_span as f64,
        ),
        (
            "scheduler.dispatcher.context_switches",
            w.context_switches as f64,
        ),
        (
            "scheduler.dispatcher.period_rollovers",
            w.period_rollovers as f64,
        ),
        (
            "scheduler.dispatcher.span_ns_est",
            ratio(
                (step_ns + chunk_ns - window_stage_ns as f64).max(0.0),
                w.dispatches as f64,
            ),
        ),
        ("scheduler.machine.migrations", w.migrations as f64),
        (
            "core.controller.full_cycles",
            w.controller_full_cycles as f64,
        ),
        (
            "core.controller.incremental_cycles",
            w.controller_incremental_cycles as f64,
        ),
        (
            "core.controller.incremental_skip_rate",
            w.incremental_skip_rate,
        ),
        ("core.controller.squish_events", rep.squish_events as f64),
        ("core.controller.stage_sense_ns", per_full_cycle[0]),
        ("core.controller.stage_classify_ns", per_full_cycle[1]),
        ("core.controller.stage_estimate_ns", per_full_cycle[2]),
        ("core.controller.stage_allocate_ns", per_full_cycle[3]),
        ("core.controller.stage_place_ns", per_full_cycle[4]),
        ("core.controller.stage_actuate_ns", per_full_cycle[5]),
        ("sim.sharded.chunk_ns_p50", median(&chunks)),
        ("sim.sharded.rebalance_cycles", w.rebalance_cycles as f64),
        (
            "sim.sharded.rebalance_migrations",
            w.rebalance_migrations as f64,
        ),
        ("api.host.add_job_ns_p50", median(&add_ns)),
        ("api.host.remove_job_ns_p50", median(&remove_ns)),
        ("telemetry.ring_recorded", all.trace_events_recorded as f64),
        ("telemetry.ring_dropped", all.trace_events_dropped as f64),
        (
            "trace.unattributed_share",
            ratio(slice_self_ns as f64, slice_ns),
        ),
        ("sim.queue.fill_abs_err", rep.fill_abs_err.unwrap_or(0.0)),
        ("api.host.failed_ops", rep.tally.failed as f64),
        ("api.host.attempted_ops", rep.tally.attempted as f64),
    ];
    assert!(
        values.iter().map(|v| v.0).eq(IN_SITU.iter().map(|m| m.0)),
        "in-situ values follow names::IN_SITU"
    );
    values
}

/// Everything one invocation on one workload measured.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Untraced repetitions completed.
    pub reps: usize,
    pub slice_s: Vec<f64>,
    pub exact: Exact,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Reading>,
    /// Empty unless traced.
    pub per_layer: Vec<Reading>,
}

impl RunReport {
    /// What the run reports: per-layer metrics when traced, end-to-end
    /// ones otherwise.
    pub fn readings(&self) -> &[Reading] {
        if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// The full set: what `--all` prints and `baseline/BENCH_<pr>.json`
/// keeps.
#[derive(Debug, Clone, Serialize)]
pub struct FullReport {
    pub nproc: u64,
    pub rustc: String,
    pub seed: u64,
    pub run_seconds: f64,
    pub rounds: u64,
    pub workloads: Vec<WorkloadReport>,
    pub probes: Vec<Reading>,
}

#[derive(Debug, Clone, Serialize)]
pub struct WorkloadReport {
    pub workload: String,
    pub stats_digest: String,
    pub end_to_end: Vec<Reading>,
    pub per_layer: Vec<Reading>,
}

pub fn write_json<T: Serialize>(path: &std::path::Path, value: &T) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let text = serde_json::to_string_pretty(value).map_err(std::io::Error::other)?;
    std::fs::write(path, text + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{Rep, Tally};

    #[test]
    fn horizon_sums_each_slices_fastest_repetition() {
        // Three repetitions; slice i takes i + 1 at best.  Noise lands on
        // a different repetition for odd and even slices.
        let mut slice_s = Vec::new();
        for rep in 0..3 {
            for i in 0..SLICES {
                let base = (i + 1) as f64;
                let noisy = (i % 2 == rep % 2) || rep == 2;
                slice_s.push(if noisy { base * 2.0 } else { base });
            }
        }
        let h = Horizon::of(&slice_s);
        let clean: f64 = (1..=SLICES).map(|i| i as f64).sum();
        assert_eq!(h.fastest_s, clean);
        assert_eq!(
            h.median_s,
            clean * 2.0,
            "two of three repetitions are noisy"
        );
        assert_eq!(h.n, 3 * SLICES);
        assert_eq!(h.slowdown_median, 2.0);
        let (p, ratio) = h.slowdown_tail.expect("60 samples");
        assert_eq!((p, ratio), (75.0, 2.0));
        let rate = h.reading("r", "1/s", &|wall_s| 420.0 / wall_s);
        assert_eq!(rate.value, 2.0);
        assert!(rate.q1 <= rate.median && rate.median <= rate.q3);
    }

    #[test]
    fn sharded_churn_is_valid_only_well_above_its_churn_free_control() {
        let def = crate::workloads::by_name("sharded_churn").unwrap();
        let exact = |rebalance_migrations| Exact {
            stats_digest: String::new(),
            elapsed_us: 1,
            delivered_us: 0,
            dispatches: 0,
            controller_cycles: 0,
            overhead_us: 0.0,
            fill_abs_err: 0.0,
            cache_hit_rate: 0.0,
            poll_wake_share: 0.0,
            rebalance_migrations,
        };
        assert!(exact(2_000).validity_failure(def, 0).is_none());
        assert!(exact(2_000).validity_failure(def, 150).is_none());
        assert!(exact(2_000).validity_failure(def, 200).is_some());
        assert!(exact(0).validity_failure(def, 0).is_some());
    }

    #[test]
    fn in_situ_values_carry_the_listed_names() {
        let rep = Rep {
            setup_s: 0.0,
            slice_s: vec![0.0; SLICES],
            window: Default::default(),
            at_horizon: Default::default(),
            elapsed_us: 0,
            delivered_us: 0,
            overhead_us: 0.0,
            squish_events: 0,
            fill_abs_err: None,
            digest: 0,
            tally: Tally::default(),
        };
        // The name check is an assert inside `in_situ`; with nothing
        // recorded every ratio falls back to 0 instead of dividing by it.
        let values = in_situ(&rep, &SpanLog::new());
        assert_eq!(values.len(), IN_SITU.len());
        assert!(values.iter().all(|&(_, v)| v == 0.0));
    }
}
