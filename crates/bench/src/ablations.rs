//! Ablations of the controller's design choices.
//!
//! The paper calls out several knobs without sweeping them: the PID gains
//! (§3.3), the squish policy and importance weights (§3.3), the controller
//! frequency (§4.3), the period-estimation heuristic (disabled for all
//! experiments, §4), and the interaction between buffer size and jitter
//! (§4).  Each function here sweeps one of them on top of the Figure 6/7
//! scenarios and reports the headline outcome.

use crate::fig6::{responsive_controller_config, run as run_fig6, Fig6Params};
use rrs_core::{ControllerConfig, JobSpec, SquishPolicy};
use rrs_feedback::{PidConfig, PulseTrain};
use rrs_metrics::{ExperimentRecord, TimeSeries};
use rrs_sim::{Host, SimConfig, Simulation};
use rrs_workloads::{CpuHog, PipelineConfig, PulsePipeline};

fn single_pulse_params(duration_s: f64) -> Fig6Params {
    let mut p = Fig6Params {
        duration_s,
        ..Fig6Params::default()
    };
    p.pipeline.production_rate = PulseTrain::new(2.5e-5, 5.0e-5, vec![(5.0, duration_s)]);
    p
}

/// Compares P-only, PI and PID pressure controllers on the Figure 6 pulse.
///
/// Scalars per variant: `<name>_response_s` and `<name>_mean_fill_error`.
pub fn pid_gains(duration_s: f64) -> ExperimentRecord {
    let mut record = ExperimentRecord::new(
        "ablation_pid_gains",
        "Response time and fill-level error for P-only, PI and PID pressure control",
    );
    let base = responsive_controller_config();
    let variants: Vec<(&str, PidConfig)> = vec![
        (
            "p_only",
            PidConfig {
                ki: 0.0,
                kd: 0.0,
                ..base.pid
            },
        ),
        (
            "pi",
            PidConfig {
                kd: 0.0,
                ..base.pid
            },
        ),
        ("pid", base.pid),
    ];
    for (name, pid) in variants {
        let mut params = single_pulse_params(duration_s);
        params.controller = ControllerConfig { pid, ..base };
        let result = run_fig6(params);
        if let Some(r) = result.get_scalar("response_time_s") {
            record.scalar(format!("{name}_response_s"), r);
        }
        if let Some(e) = result.get_scalar("mean_fill_error") {
            record.scalar(format!("{name}_mean_fill_error"), e);
        }
        if let Some(t) = result.get_scalar("throughput_match") {
            record.scalar(format!("{name}_throughput_match"), t);
        }
    }
    record
}

/// Compares fair-share and importance-weighted squishing under overload.
///
/// Two hogs compete, one four times as important as the other; the record
/// reports the mean allocation each receives under each policy.
pub fn squish_policy(duration_s: f64) -> ExperimentRecord {
    let mut record = ExperimentRecord::new(
        "ablation_squish_policy",
        "Allocation split between an important and an unimportant CPU hog under \
         fair-share vs. importance-weighted squishing",
    );
    for (name, policy) in [
        ("fair_share", SquishPolicy::FairShare),
        ("weighted", SquishPolicy::WeightedFairShare),
    ] {
        let controller = ControllerConfig {
            squish_policy: policy,
            ..ControllerConfig::default()
        };
        let config = SimConfig {
            controller,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(config);
        let important = sim
            .add_job(
                "important",
                JobSpec::miscellaneous().with_importance(rrs_core::Importance::new(4.0)),
                Box::new(CpuHog::new()),
            )
            .expect("misc always admitted");
        let normal = sim
            .add_job(
                "normal",
                JobSpec::miscellaneous().with_importance(rrs_core::Importance::new(1.0)),
                Box::new(CpuHog::new()),
            )
            .expect("misc always admitted");
        sim.run_for(duration_s);
        record.scalar(
            format!("{name}_important_alloc_ppt"),
            sim.allocation_ppt(important) as f64,
        );
        record.scalar(
            format!("{name}_normal_alloc_ppt"),
            sim.allocation_ppt(normal) as f64,
        );
    }
    record
}

/// Sweeps the controller period (10 ms, 30 ms, 100 ms) on the Figure 6
/// pulse: faster controllers respond sooner but cost more.
pub fn controller_period(duration_s: f64) -> ExperimentRecord {
    let mut record = ExperimentRecord::new(
        "ablation_controller_period",
        "Response time and controller overhead vs. controller period",
    );
    for period_ms in [10.0f64, 30.0, 100.0] {
        let mut params = single_pulse_params(duration_s);
        params.controller = ControllerConfig {
            controller_period_s: period_ms / 1000.0,
            ..responsive_controller_config()
        };
        let config = SimConfig {
            controller: params.controller,
            trace_interval_s: 0.25,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(config);
        let _ = PulsePipeline::install(&mut sim, params.pipeline.clone());
        sim.run_for(params.duration_s);
        let overhead = sim.stats().controller_cost_us / sim.now_micros() as f64;
        record.scalar(format!("period_{period_ms}ms_overhead"), overhead);

        let result = run_fig6(params);
        if let Some(r) = result.get_scalar("response_time_s") {
            record.scalar(format!("period_{period_ms}ms_response_s"), r);
        }
    }
    record
}

/// Runs the pipeline with the §3.3 period-estimation heuristic enabled and
/// disabled and reports the consumer's final period and fill-level swing.
pub fn period_estimation(duration_s: f64) -> ExperimentRecord {
    let mut record = ExperimentRecord::new(
        "ablation_period_estimation",
        "Effect of the period-estimation heuristic (disabled in the paper's experiments)",
    );
    for (name, enabled) in [("disabled", false), ("enabled", true)] {
        let controller = ControllerConfig {
            period_estimation: enabled,
            ..responsive_controller_config()
        };
        let config = SimConfig {
            controller,
            trace_interval_s: 0.25,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(config);
        let _ = PulsePipeline::install(&mut sim, PipelineConfig::steady(2.5e-5));
        sim.run_for(duration_s);
        if let Some(period) = sim.trace().get("period/consumer") {
            record.scalar(
                format!("{name}_final_consumer_period_ms"),
                period.last().map(|s| s.value).unwrap_or(0.0),
            );
        }
        if let Some(fill) = sim.trace().get("fill/pipeline") {
            record.scalar(
                format!("{name}_fill_swing"),
                fill.summary().max - fill.summary().min,
            );
        }
    }
    record
}

/// Sweeps the bounded-buffer capacity and reports the fill-level swing and
/// response time: smaller buffers react faster but oscillate more.
pub fn buffer_size(duration_s: f64) -> ExperimentRecord {
    let mut record = ExperimentRecord::new(
        "ablation_buffer_size",
        "Queue capacity vs. fill-level swing and response time on the pulse workload",
    );
    let mut swing_series = TimeSeries::new("fill swing vs capacity");
    for capacity in [10usize, 40, 160] {
        let mut params = single_pulse_params(duration_s);
        params.pipeline.queue_capacity = capacity;
        let result = run_fig6(params);
        if let Some(r) = result.get_scalar("response_time_s") {
            record.scalar(format!("capacity_{capacity}_response_s"), r);
        }
        let swing = result.get_scalar("max_fill").unwrap_or(1.0)
            - result.get_scalar("min_fill").unwrap_or(0.0);
        record.scalar(format!("capacity_{capacity}_fill_swing"), swing);
        swing_series.push(capacity as f64, swing);
    }
    record.add_series(swing_series);
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_gains_produces_all_variants() {
        let record = pid_gains(12.0);
        for name in ["p_only", "pi", "pid"] {
            assert!(
                record
                    .get_scalar(&format!("{name}_mean_fill_error"))
                    .is_some(),
                "missing {name}"
            );
        }
    }

    #[test]
    fn weighted_squish_favours_the_important_hog() {
        let record = squish_policy(8.0);
        let w_imp = record.get_scalar("weighted_important_alloc_ppt").unwrap();
        let w_norm = record.get_scalar("weighted_normal_alloc_ppt").unwrap();
        assert!(w_imp > w_norm, "weighted: {w_imp} vs {w_norm}");
        assert!(w_norm > 0.0, "unimportant hog must not starve");
        let f_imp = record.get_scalar("fair_share_important_alloc_ppt").unwrap();
        let f_norm = record.get_scalar("fair_share_normal_alloc_ppt").unwrap();
        // Plain fair share ignores importance: the split is roughly even.
        let ratio = f_imp / f_norm.max(1.0);
        assert!(ratio < 2.0, "fair share should split evenly, ratio {ratio}");
    }

    #[test]
    fn buffer_size_sweep_reports_swings() {
        let record = buffer_size(10.0);
        let small = record.get_scalar("capacity_10_fill_swing").unwrap();
        let large = record.get_scalar("capacity_160_fill_swing").unwrap();
        assert!(
            small >= large,
            "smaller buffers should swing at least as much ({small} vs {large})"
        );
    }
}
