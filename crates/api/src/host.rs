//! The backend-agnostic host surface.
//!
//! A [`Host`] is anywhere jobs can run under the feedback allocator: the
//! deterministic simulator (`rrs-sim`) or the wall-clock backend (real
//! OS threads, this crate's `wall_clock` module).  Workloads, scenarios
//! and experiments written against this trait run unchanged on either
//! backend — the paper's
//! thesis ("one allocator serves every workload without per-app tuning")
//! extended to "…on any backend".

use crate::time::SimTime;
use rrs_core::{controller::AdmitError, Controller, JobHandle, JobSpec, SimStats};
use rrs_queue::MetricRegistry;
use rrs_scheduler::{CpuId, Machine, Reservation, UsageAccount};
use rrs_sim::{Trace, WorkModel};
use rrs_telemetry::{Recorder, TelemetryConfig, TelemetrySnapshot};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::sync::Arc;

/// Which engine a host runs jobs on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Backend {
    /// The deterministic discrete-event simulator (`rrs-sim`): simulated
    /// time, bit-for-bit reproducible runs.
    #[default]
    Sim,
    /// The cooperative wall-clock backend: real OS threads, real time,
    /// results within tolerance rather than exact.
    WallClock,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Sim => write!(f, "sim"),
            Backend::WallClock => write!(f, "wall_clock"),
        }
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(Backend::Sim),
            "wall_clock" | "wall-clock" | "wallclock" => Ok(Backend::WallClock),
            other => Err(format!("unknown backend '{other}' (sim | wall_clock)")),
        }
    }
}

/// A place jobs run under the feedback allocator.
///
/// Both backends drive the *same* [`rrs_core::ControlLoop`] — controller,
/// machine, slot table and counters; the trait is the thin waist over what differs — how time
/// passes and how a [`WorkModel`]'s computed CPU consumption is realised
/// (booked against the simulated clock, or actually burned on an OS
/// thread).
///
/// Obtain one with [`crate::Runtime`]:
///
/// ```
/// use rrs_api::{JobSpec, Runtime, SimTime};
/// use rrs_sim::{RunResult, WorkModel};
///
/// struct Spin;
/// impl WorkModel for Spin {
///     fn run(&mut self, _now: u64, quantum_us: u64, _hz: f64) -> RunResult {
///         RunResult::ran(quantum_us)
///     }
/// }
///
/// let mut host = Runtime::sim().build();
/// let job = host.add_job("spin", JobSpec::miscellaneous(), Box::new(Spin)).unwrap();
/// host.advance(SimTime::from_secs(2));
/// assert!(host.allocation_ppt(job) > 100);
/// // `Runtime::wall_clock().build()` runs the identical program on real
/// // OS threads.
/// ```
pub trait Host {
    /// Which engine this host runs on.
    fn backend(&self) -> Backend;

    /// Adds a job.  Real-time specs go through admission control; the
    /// importance weight is read from the spec
    /// ([`JobSpec::with_importance`]).
    fn add_job(
        &mut self,
        name: &str,
        spec: JobSpec,
        work: Box<dyn WorkModel>,
    ) -> Result<JobHandle, AdmitError>;

    /// Removes a job, deregistering it from the controller and
    /// withdrawing its reservation.  Unknown handles are a no-op.
    fn remove_job(&mut self, handle: JobHandle);

    /// Runs the host for `dt` of its own time (simulated or wall-clock).
    fn advance(&mut self, dt: SimTime);

    /// Time elapsed since the host was created.
    fn now(&self) -> SimTime;

    /// The proportion currently reserved for a job, in parts per
    /// thousand (zero for unknown handles).
    fn allocation_ppt(&self, handle: JobHandle) -> u32 {
        self.reservation(handle).map_or(0, |r| r.proportion.ppt())
    }

    /// The reservation currently held by a job.
    fn reservation(&self, handle: JobHandle) -> Option<Reservation>;

    /// The CPU a job's thread is currently placed on.
    fn cpu_of(&self, handle: JobHandle) -> Option<CpuId>;

    /// Total CPU time a job has consumed so far: the `total_used_us` of
    /// its usage account (zero for unknown handles).
    fn cpu_used(&self, handle: JobHandle) -> SimTime {
        self.usage(handle)
            .map_or(SimTime::ZERO, |u| SimTime::from_micros(u.total_used_us))
    }

    /// A job's dispatcher-side usage account (budget, period rollovers,
    /// missed deadlines).
    fn usage(&self, handle: JobHandle) -> Option<UsageAccount>;

    /// Grows the machine to `cpus` CPUs mid-run (hot-add), returning the
    /// resulting total CPU count.  Shrinking is unsupported — a `cpus` at
    /// or below the current count is a no-op returning the current total.
    fn grow_cpus(&mut self, cpus: usize) -> usize;

    /// Number of CPUs.
    fn cpu_count(&self) -> usize;

    /// The clock rate work models convert cycles to time with, in Hz.
    fn cpu_hz(&self) -> f64;

    /// Read-only access to the controller.
    fn controller(&self) -> &Controller;

    /// Read-only access to the multi-CPU machine.
    fn machine(&self) -> &Machine;

    /// The progress-metric registry; workloads register their queues
    /// here.
    fn registry(&self) -> MetricRegistry;

    /// Forces a reservation directly on the dispatcher, bypassing the
    /// controller (experiments that pin allocations).
    fn force_reservation(&mut self, handle: JobHandle, reservation: Reservation);

    /// Aggregate statistics of the run so far — the same struct on every
    /// backend.
    fn stats(&self) -> SimStats;

    /// A point-in-time snapshot of the subsystem telemetry counters
    /// (quantum-cache hit rate, settles by reason, calendar event mix,
    /// controller cycle split) — one schema on both backends, so
    /// sim-vs-wall-clock runs compare directly.  The counters are always
    /// on; only the `trace_events_*` fields need
    /// [`Host::enable_telemetry`] first.
    fn telemetry(&self) -> TelemetrySnapshot;

    /// Enables structured trace recording (and controller stage timing),
    /// returning the shared recorder.  Export the captured events with
    /// [`rrs_telemetry::Recorder::chrome_trace_json`].
    fn enable_telemetry(&mut self, config: TelemetryConfig) -> Arc<Recorder>;

    /// The trace recorder installed by [`Host::enable_telemetry`], if
    /// any.
    fn telemetry_recorder(&self) -> Option<Arc<Recorder>>;

    /// The recorded trace (`alloc/<job>`, `rate/<job>`,
    /// `fill/<queue>`, … series).
    fn trace(&self) -> &Trace;

    /// Escape hatch to the concrete backend (see
    /// [`as_sim`](trait.Host.html#method.as_sim) on `dyn Host`).
    fn as_any(&self) -> &dyn Any;

    /// Mutable escape hatch to the concrete backend.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl dyn Host {
    /// Downcasts to the simulator backend, if that is what this host is.
    pub fn as_sim(&self) -> Option<&rrs_sim::Simulation> {
        self.as_any().downcast_ref()
    }

    /// Mutable downcast to the simulator backend.
    pub fn as_sim_mut(&mut self) -> Option<&mut rrs_sim::Simulation> {
        self.as_any_mut().downcast_mut()
    }

    /// Downcasts to the sharded simulator backend, if that is what this
    /// host is.
    pub fn as_sharded_sim(&self) -> Option<&rrs_sim::ShardedSim> {
        self.as_any().downcast_ref()
    }

    /// Mutable downcast to the sharded simulator backend.
    pub fn as_sharded_sim_mut(&mut self) -> Option<&mut rrs_sim::ShardedSim> {
        self.as_any_mut().downcast_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_scheduler::CpuStats;

    #[test]
    fn backend_parses_and_displays() {
        assert_eq!("sim".parse::<Backend>().unwrap(), Backend::Sim);
        assert_eq!("wall_clock".parse::<Backend>().unwrap(), Backend::WallClock);
        assert_eq!("wall-clock".parse::<Backend>().unwrap(), Backend::WallClock);
        assert!("gpu".parse::<Backend>().is_err());
        assert_eq!(Backend::Sim.to_string(), "sim");
        assert_eq!(Backend::WallClock.to_string(), "wall_clock");
        assert_eq!(Backend::default(), Backend::Sim);
    }

    #[test]
    fn host_stats_sums() {
        let stats = SimStats {
            per_cpu: vec![
                CpuStats {
                    used_us: 10,
                    idle_us: 5,
                    ..CpuStats::default()
                },
                CpuStats {
                    used_us: 7,
                    idle_us: 3,
                    ..CpuStats::default()
                },
            ],
            ..SimStats::default()
        };
        assert_eq!(stats.total_used_us(), 17);
        assert_eq!(stats.idle_us(), 8);
    }
}
