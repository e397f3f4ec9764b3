//! Controller configuration.

use crate::cost::ControllerCostModel;
use crate::squish::SquishPolicy;
use rrs_feedback::PidConfig;
use rrs_scheduler::Proportion;

/// Configuration of the adaptive controller: the values a caller varies.
///
/// The defaults correspond to the paper's prototype: a 10 ms controller
/// period (100 Hz sampling) and period estimation disabled (as it was for
/// all experiments in §4).  The paper's fixed constants are constants here
/// too, each beside the one rule that reads it: Figure 4's reclamation
/// step `C` and usage threshold ([`crate::estimator`]), the
/// miscellaneous pseudo-pressure and the 95 % overload threshold
/// ([`crate::controller`]), the quality-exception bar, and the 30 ms period
/// of a job that names none ([`rrs_scheduler::Period::DEFAULT`]).
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// How often the controller runs, in seconds (paper: 10 ms).
    pub controller_period_s: f64,
    /// PID gains applied to the summed progress pressure to produce the
    /// cumulative pressure `Q_t`.
    pub pid: PidConfig,
    /// The constant scaling factor `k` of Figure 4, in parts per thousand
    /// of CPU per unit of cumulative pressure.
    pub gain_k_ppt: f64,
    /// The smallest proportion any job may be assigned; keeping this
    /// non-zero is what rules out starvation.
    pub min_proportion: Proportion,
    /// The largest proportion the controller will hand to a single job.
    pub max_proportion: Proportion,
    /// Policy used to squish real-rate and miscellaneous jobs on overload.
    pub squish_policy: SquishPolicy,
    /// Whether the period-estimation heuristic of §3.3 runs (the paper
    /// disabled it for all experiments).
    pub period_estimation: bool,
    /// Model of the controller's own execution cost (Figure 5).
    pub cost_model: ControllerCostModel,
    /// Multi-CPU placement: how many CPUs jobs are spread over, and when
    /// one migrates.  Defaults to the paper's single CPU.
    pub placement: PlacementConfig,
    /// Whether the controller keeps its caches between cycles.
    ///
    /// Every cycle recomputes only the jobs whose inputs (sensed pressure,
    /// usage feedback or committed grant) changed since the previous one;
    /// jobs at a proven bitwise fixed point are not even visited, the
    /// squish re-runs only when some desired proportion changed and the
    /// grants are not provably the same anyway, and the migration scan
    /// runs only when the per-CPU load gap exceeds the imbalance bound.
    /// Whatever invalidates the caches — job add/remove, a CPU added, a
    /// registry mutation, a different cycle length, period estimation —
    /// makes the next cycle rebuild them from the job table first, and
    /// that cycle actuates every job and raises every squish and quality
    /// event.  With `incremental` off every cycle rebuilds: the
    /// from-scratch reference the maintained cycles are tested against.
    /// Committed grants and placements are identical either way.
    ///
    /// Two *observable* deltas separate a maintained cycle from a rebuild
    /// one: actuations are emitted only for jobs whose `(grant, period,
    /// cpu)` actually changed (consumers must treat missing actuations as
    /// "unchanged"), and squish/quality-exception events only on cycles
    /// that recomputed the jobs involved.  [`crate::ControlLoop`] turns it
    /// on; a bare [`crate::Controller`] defaults to off.
    pub incremental: bool,
}

/// Configuration of the controller's Place rule (multi-CPU placement and
/// migration).
///
/// With the default single CPU every job sits on `cpu0` and never
/// migrates, which is exactly the paper's machine.
#[derive(Debug, Clone, Copy)]
pub struct PlacementConfig {
    /// Number of CPUs jobs are placed onto (at least 1).
    pub cpus: usize,
    /// Migration trigger: when the most loaded CPU's granted proportion
    /// exceeds the least loaded CPU's by more than this bound (in parts
    /// per thousand), one job is migrated per cycle to rebalance.
    pub imbalance_threshold_ppt: u32,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        Self {
            cpus: 1,
            imbalance_threshold_ppt: 200,
        }
    }
}

impl PlacementConfig {
    /// The largest machine jobs are placed on: the scheduler's own
    /// [`rrs_scheduler::Machine::MAX_CPUS`].  Bounds the per-CPU
    /// accumulators (and keeps `threshold × CPUs` far from u32 overflow)
    /// while comfortably exceeding any real machine.
    pub const MAX_CPUS: usize = rrs_scheduler::Machine::MAX_CPUS;

    /// Number of CPUs, clamped to `1..=MAX_CPUS`.
    pub fn cpu_count(&self) -> usize {
        self.cpus.clamp(1, Self::MAX_CPUS)
    }
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            controller_period_s: 0.010,
            pid: PidConfig {
                kp: 0.6,
                ki: 6.0,
                kd: 0.01,
                integral_limit: 2.0,
                output_limit: 2.5,
            },
            gain_k_ppt: 500.0,
            min_proportion: Proportion::MIN_NONZERO,
            max_proportion: Proportion::FULL,
            squish_policy: SquishPolicy::WeightedFairShare,
            period_estimation: false,
            cost_model: ControllerCostModel::default(),
            placement: PlacementConfig::default(),
            incremental: false,
        }
    }
}

impl ControllerConfig {
    /// Returns a copy placing jobs over `cpus` CPUs (clamped to
    /// `1..=PlacementConfig::MAX_CPUS`).
    pub fn with_cpus(mut self, cpus: usize) -> Self {
        self.placement.cpus = cpus.clamp(1, PlacementConfig::MAX_CPUS);
        self
    }

    /// Returns a copy with incremental control cycles enabled or disabled.
    pub fn with_incremental(mut self, enabled: bool) -> Self {
        self.incremental = enabled;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = ControllerConfig::default();
        assert_eq!(c.controller_period_s, 0.010);
        assert_eq!(rrs_scheduler::Period::DEFAULT.as_micros(), 30_000);
        assert_eq!(crate::controller::OVERLOAD_THRESHOLD_PPT, 950);
        assert!(!c.period_estimation);
        assert!(!c.incremental, "a bare controller rebuilds every cycle");
        assert_eq!(c.min_proportion.ppt(), 1);
        assert_eq!(c.placement.cpus, 1, "the paper's machine has one CPU");
        assert_eq!(c.placement.cpu_count(), 1);
    }

    #[test]
    fn with_cpus_clamps_to_the_supported_range() {
        assert_eq!(ControllerConfig::default().with_cpus(4).placement.cpus, 4);
        assert_eq!(ControllerConfig::default().with_cpus(0).placement.cpus, 1);
        assert_eq!(
            ControllerConfig::default()
                .with_cpus(usize::MAX)
                .placement
                .cpus,
            PlacementConfig::MAX_CPUS
        );
        assert_eq!(
            PlacementConfig {
                cpus: 0,
                imbalance_threshold_ppt: 1
            }
            .cpu_count(),
            1
        );
        // An absurd raw cpus value cannot overflow the machine capacity
        // (threshold × CPUs) or balloon the per-CPU accumulators.
        let wild = PlacementConfig {
            cpus: usize::MAX,
            imbalance_threshold_ppt: 1,
        };
        assert_eq!(wild.cpu_count(), PlacementConfig::MAX_CPUS);
    }
}
