//! Service-level objectives evaluated against a finished run.
//!
//! Every SLO is a pure function of the run's observable outputs — the
//! recorded [`Trace`] time series and the aggregate
//! counters — so the same assertions work for any scenario and can gate
//! CI: a failing SLO turns the scenario report red and the
//! `scenario_runner` binary's exit status non-zero.

use rrs_sim::Trace;
use rrs_workloads::LatencyStats;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One assertion over a finished scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Slo {
    /// The real-time deadline-miss rate must not exceed `max`.
    ///
    /// Measured over the scenario's real-time members only: periods in
    /// which a [`Member::RealTimeSpin`](crate::Member) wanted its budget
    /// but was denied it, plus sample batches the modem finished late
    /// (its own application-level counter).  Queue-coupled reservation
    /// holders that voluntarily under-use their budget (frame sources,
    /// request generators) are *not* misses and are excluded.
    DeadlineMissRate {
        /// Largest acceptable miss rate in `[0, 1]`.
        max: f64,
    },
    /// The mean fill level of queue `fill/<queue>` after `warmup_s` must
    /// stay inside `[min, max]` — a bounded queue neither starved nor
    /// saturated is the paper's definition of a well-regulated pipeline.
    FillBand {
        /// Queue name as registered with the metric registry.
        queue: String,
        /// Lower bound on the mean fill fraction.
        min: f64,
        /// Upper bound on the mean fill fraction.
        max: f64,
        /// Seconds of controller settling time to exclude.
        warmup_s: f64,
    },
    /// Every *persistent adaptive* member (hogs, real-rate stages) must
    /// end the run with at least this allocation — the controller's
    /// non-zero `min_proportion` starvation guarantee, observed.
    NoStarvation {
        /// Smallest acceptable final allocation, in parts per thousand.
        min_ppt: u32,
    },
    /// The cumulative CPU received by the persistent hogs must be fair:
    /// `min(used) / max(used)` at least `min_ratio`.
    FairShare {
        /// Smallest acceptable min/max usage ratio in `[0, 1]`.
        min_ratio: f64,
    },
    /// Total applied cross-CPU migrations must not exceed `max` — the
    /// Place stage must rebalance without thrashing.
    MigrationBudget {
        /// Largest acceptable migration count.
        max: u64,
    },
    /// Idle time as a fraction of delivered machine capacity must not
    /// exceed `max_fraction`.
    IdleBudget {
        /// Largest acceptable idle fraction in `[0, 1]`.
        max_fraction: f64,
    },
    /// Aggregate delivered work (total CPU time consumed over elapsed
    /// time, in "CPUs of work") must reach `min_cpus`.
    MinThroughput {
        /// Smallest acceptable throughput, in CPUs of work.
        min_cpus: f64,
    },
    /// Every real-time spinner must receive at least `min_ratio` of its
    /// reserved proportion, however loaded the rest of the machine is.
    RtDelivery {
        /// Smallest acceptable delivered/reserved ratio in `[0, 1]`.
        min_ratio: f64,
    },
    /// A latency-instrumented member's request-latency percentile must
    /// not exceed `max_ms` — tail latency, not just the mean, is what a
    /// server's users feel.
    ///
    /// Measured over the per-request histograms of instrumented members
    /// (the [`Member::WebServer`](crate::Member) records
    /// queueing-plus-service time as `"server"`, a
    /// [`Member::Interactive`](crate::Member) records
    /// keystroke-to-completion time under its own name).  A `source` the
    /// scenario never recorded samples for fails rather than passing
    /// vacuously.
    LatencyBand {
        /// Which member's histogram to read (`"server"`, or the
        /// interactive member's name).
        source: String,
        /// The percentile to check, 0–100 (99.0 and 99.9 are the
        /// conventional tail bands).
        percentile: f64,
        /// Largest acceptable latency at that percentile, in
        /// milliseconds.
        max_ms: f64,
    },
}

/// Everything an [`Slo`] may be evaluated against.
#[derive(Debug, Clone)]
pub(crate) struct Observations<'a> {
    /// The run's recorded time series.
    pub trace: &'a Trace,
    /// Elapsed simulated time in seconds.
    pub elapsed_s: f64,
    /// Machine capacity delivered over the run, in CPU-microseconds
    /// (integrates CPU hot-adds: `Σ cpus(t) · dt`).
    pub capacity_us: f64,
    /// Total CPU time consumed by all jobs, in microseconds.
    pub total_used_us: u64,
    /// Total idle time across all CPUs, in microseconds.
    pub idle_us: u64,
    /// Applied cross-CPU migrations.
    pub migrations: u64,
    /// Real-time deadlines missed (spinner periods denied their budget
    /// plus late modem batches).
    pub deadlines_missed: u64,
    /// Real-time periods observed (spinner periods plus modem batches);
    /// zero when the scenario has no real-time members.
    pub period_rollovers: u64,
    /// Cumulative CPU received by each persistent hog, in microseconds.
    pub fair_used_us: &'a [u64],
    /// Smallest final allocation among persistent adaptive members, in
    /// parts per thousand (`None` when the scenario has none).
    pub min_adaptive_alloc_ppt: Option<u32>,
    /// Smallest delivered/reserved ratio among real-time spinners
    /// (`None` when the scenario has none).
    pub rt_delivery_min: Option<f64>,
    /// Per-request latency histograms of instrumented members, keyed by
    /// source name (empty when the scenario has none).
    pub latencies: &'a [(String, Arc<LatencyStats>)],
}

/// The outcome of one SLO check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloOutcome {
    /// The assertion that was checked.
    pub slo: Slo,
    /// Human-readable statement of what was measured against what.
    pub description: String,
    /// The measured value (`-1` when the input was absent).
    pub measured: f64,
    /// Whether the assertion held.
    pub passed: bool,
}

impl Slo {
    /// Evaluates the assertion against a finished run.
    ///
    /// Assertions over inputs the scenario does not produce (no persistent
    /// hogs for [`Slo::FairShare`], no spinners for [`Slo::RtDelivery`],
    /// a queue that was never registered for [`Slo::FillBand`]) fail
    /// rather than pass vacuously — a spec asserting on a missing signal
    /// is a spec bug worth surfacing.
    pub(crate) fn evaluate(&self, obs: &Observations<'_>) -> SloOutcome {
        let (description, measured, passed) = match self {
            Slo::DeadlineMissRate { max } => {
                if obs.period_rollovers == 0 {
                    (
                        "scenario has no real-time members to observe deadlines on".into(),
                        -1.0,
                        false,
                    )
                } else {
                    let rate = obs.deadlines_missed as f64 / obs.period_rollovers as f64;
                    (
                        format!(
                            "deadline miss rate {rate:.4} ({} of {}) ≤ {max}",
                            obs.deadlines_missed, obs.period_rollovers
                        ),
                        rate,
                        rate <= *max,
                    )
                }
            }
            Slo::FillBand {
                queue,
                min,
                max,
                warmup_s,
            } => {
                let series = obs.trace.get(&format!("fill/{queue}"));
                match series.and_then(|s| s.window_mean(*warmup_s, obs.elapsed_s + 1e-9)) {
                    Some(mean) => (
                        format!("mean fill of '{queue}' after {warmup_s} s: {mean:.3} in [{min}, {max}]"),
                        mean,
                        (*min..=*max).contains(&mean),
                    ),
                    None => (
                        format!("queue '{queue}' recorded no fill samples after {warmup_s} s"),
                        -1.0,
                        false,
                    ),
                }
            }
            Slo::NoStarvation { min_ppt } => match obs.min_adaptive_alloc_ppt {
                Some(alloc) => (
                    format!("smallest adaptive allocation {alloc} ‰ ≥ {min_ppt} ‰"),
                    alloc as f64,
                    alloc >= *min_ppt,
                ),
                None => (
                    "scenario has no persistent adaptive members to check".into(),
                    -1.0,
                    false,
                ),
            },
            Slo::FairShare { min_ratio } => {
                let min = obs.fair_used_us.iter().copied().min();
                let max = obs.fair_used_us.iter().copied().max();
                match (min, max) {
                    (Some(lo), Some(hi)) if obs.fair_used_us.len() >= 2 => {
                        let ratio = if hi == 0 { 1.0 } else { lo as f64 / hi as f64 };
                        (
                            format!(
                                "hog usage ratio min/max {ratio:.3} ≥ {min_ratio} ({} hogs)",
                                obs.fair_used_us.len()
                            ),
                            ratio,
                            ratio >= *min_ratio,
                        )
                    }
                    _ => (
                        "scenario has fewer than two persistent hogs to compare".into(),
                        -1.0,
                        false,
                    ),
                }
            }
            Slo::MigrationBudget { max } => (
                format!("{} migrations ≤ {max}", obs.migrations),
                obs.migrations as f64,
                obs.migrations <= *max,
            ),
            Slo::IdleBudget { max_fraction } => {
                let frac = obs.idle_us as f64 / obs.capacity_us.max(1.0);
                (
                    format!("idle fraction {frac:.3} ≤ {max_fraction}"),
                    frac,
                    frac <= *max_fraction,
                )
            }
            Slo::MinThroughput { min_cpus } => {
                let cpus = obs.total_used_us as f64 / (obs.elapsed_s * 1e6).max(1.0);
                (
                    format!("throughput {cpus:.2} CPUs of work ≥ {min_cpus}"),
                    cpus,
                    cpus >= *min_cpus,
                )
            }
            Slo::LatencyBand {
                source,
                percentile,
                max_ms,
            } => match obs.latencies.iter().find(|(name, _)| name == source) {
                Some((_, stats)) if stats.count() > 0 => {
                    let ms = stats.percentile_us(*percentile) / 1e3;
                    (
                        format!(
                            "p{percentile} latency of '{source}' {ms:.2} ms ≤ {max_ms} ms \
                             ({} samples)",
                            stats.count()
                        ),
                        ms,
                        ms <= *max_ms,
                    )
                }
                _ => (
                    format!("source '{source}' recorded no latency samples"),
                    -1.0,
                    false,
                ),
            },
            Slo::RtDelivery { min_ratio } => match obs.rt_delivery_min {
                Some(ratio) => (
                    format!("worst real-time delivery {ratio:.3} of reservation ≥ {min_ratio}"),
                    ratio,
                    ratio >= *min_ratio,
                ),
                None => (
                    "scenario has no real-time spinners to check".into(),
                    -1.0,
                    false,
                ),
            },
        };
        SloOutcome {
            slo: self.clone(),
            description,
            measured,
            passed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(trace: &Trace) -> Observations<'_> {
        Observations {
            trace,
            elapsed_s: 10.0,
            capacity_us: 20e6,
            total_used_us: 15_000_000,
            idle_us: 4_000_000,
            migrations: 3,
            deadlines_missed: 2,
            period_rollovers: 100,
            fair_used_us: &[],
            min_adaptive_alloc_ppt: Some(40),
            rt_delivery_min: Some(0.97),
            latencies: &[],
        }
    }

    #[test]
    fn miss_rate_and_throughput_and_idle() {
        let trace = Trace::new();
        let o = obs(&trace);
        assert!(Slo::DeadlineMissRate { max: 0.05 }.evaluate(&o).passed);
        assert!(!Slo::DeadlineMissRate { max: 0.01 }.evaluate(&o).passed);
        let t = Slo::MinThroughput { min_cpus: 1.4 }.evaluate(&o);
        assert!(t.passed && (t.measured - 1.5).abs() < 1e-9);
        assert!(Slo::IdleBudget { max_fraction: 0.3 }.evaluate(&o).passed);
        assert!(!Slo::IdleBudget { max_fraction: 0.1 }.evaluate(&o).passed);
        assert!(Slo::MigrationBudget { max: 3 }.evaluate(&o).passed);
        assert!(!Slo::MigrationBudget { max: 2 }.evaluate(&o).passed);
    }

    #[test]
    fn fill_band_reads_the_trace() {
        let mut trace = Trace::new();
        for i in 0..100 {
            trace.record("fill/q", i as f64 * 0.1, 0.5);
        }
        let o = obs(&trace);
        let ok = Slo::FillBand {
            queue: "q".into(),
            min: 0.2,
            max: 0.8,
            warmup_s: 1.0,
        }
        .evaluate(&o);
        assert!(ok.passed, "{}", ok.description);
        let missing = Slo::FillBand {
            queue: "nope".into(),
            min: 0.0,
            max: 1.0,
            warmup_s: 0.0,
        }
        .evaluate(&o);
        assert!(!missing.passed);
        assert_eq!(missing.measured, -1.0);
    }

    #[test]
    fn starvation_fairness_and_rt_delivery() {
        let trace = Trace::new();
        let mut o = obs(&trace);
        assert!(Slo::NoStarvation { min_ppt: 10 }.evaluate(&o).passed);
        assert!(!Slo::NoStarvation { min_ppt: 50 }.evaluate(&o).passed);
        o.min_adaptive_alloc_ppt = None;
        assert!(!Slo::NoStarvation { min_ppt: 1 }.evaluate(&o).passed);

        let used = [900u64, 1000, 950];
        o.fair_used_us = &used;
        let f = Slo::FairShare { min_ratio: 0.8 }.evaluate(&o);
        assert!(f.passed && (f.measured - 0.9).abs() < 1e-9);
        o.fair_used_us = &used[..1];
        assert!(!Slo::FairShare { min_ratio: 0.0 }.evaluate(&o).passed);

        assert!(Slo::RtDelivery { min_ratio: 0.9 }.evaluate(&o).passed);
        o.rt_delivery_min = None;
        assert!(!Slo::RtDelivery { min_ratio: 0.9 }.evaluate(&o).passed);
    }

    #[test]
    fn latency_band_reads_the_histograms() {
        let trace = Trace::new();
        let mut o = obs(&trace);
        let stats = LatencyStats::new();
        for us in [1_000u64, 2_000, 3_000, 50_000] {
            stats.record_us(us);
        }
        let latencies = vec![("server".to_string(), stats)];
        o.latencies = &latencies;
        let ok = Slo::LatencyBand {
            source: "server".into(),
            percentile: 99.0,
            max_ms: 100.0,
        }
        .evaluate(&o);
        assert!(ok.passed, "{}", ok.description);
        assert!(ok.measured > 0.0);
        let tight = Slo::LatencyBand {
            source: "server".into(),
            percentile: 99.9,
            max_ms: 1.0,
        }
        .evaluate(&o);
        assert!(!tight.passed, "p99.9 ≈ 50 ms cannot fit under 1 ms");
        // A source nobody recorded fails, not passes.
        let missing = Slo::LatencyBand {
            source: "typist".into(),
            percentile: 99.0,
            max_ms: 100.0,
        }
        .evaluate(&o);
        assert!(!missing.passed);
        assert_eq!(missing.measured, -1.0);
    }

    #[test]
    fn outcomes_round_trip_through_json() {
        let trace = Trace::new();
        let o = obs(&trace);
        let outcome = Slo::DeadlineMissRate { max: 0.05 }.evaluate(&o);
        let json = serde_json::to_string(&outcome).unwrap();
        let back: SloOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back, outcome);
    }
}
