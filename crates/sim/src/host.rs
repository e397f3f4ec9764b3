//! The backend-agnostic host surface.
//!
//! A [`Host`] is anywhere jobs can run under the feedback allocator: this
//! crate's deterministic simulators ([`Simulation`], [`ShardedSim`]) or
//! the wall-clock backend (real OS threads, in `rrs-api`).  Workloads,
//! scenarios and experiments written against this trait run unchanged on
//! either backend — the paper's thesis ("one allocator serves every
//! workload without per-app tuning") extended to "…on any backend".

use crate::trace::Trace;
use crate::workload::WorkModel;
use crate::{ShardedSim, Simulation};
use rrs_core::{controller::AdmitError, Controller, JobHandle, JobSpec, SimStats, SimTime};
use rrs_queue::MetricRegistry;
use rrs_scheduler::{CpuId, Reservation, UsageAccount};
use rrs_telemetry::{Recorder, TelemetryConfig, TelemetrySnapshot};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::borrow::Cow;
use std::sync::Arc;

/// Which engine a host runs jobs on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Backend {
    /// The deterministic discrete-event simulator: simulated time,
    /// bit-for-bit reproducible runs.
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
/// Every backend drives the *same* [`rrs_core::ControlLoop`] —
/// controller, machine, slot table and counters; the trait is the thin
/// waist over what differs — how time passes and how a [`WorkModel`]'s
/// computed CPU consumption is realised (booked against the simulated
/// clock, or actually burned on an OS thread).  It is the simulators'
/// only job-level API.
///
/// ```
/// use rrs_core::JobSpec;
/// use rrs_sim::{Host, RunResult, SimConfig, SimTime, Simulation, WorkModel};
///
/// struct Spin;
/// impl WorkModel for Spin {
///     fn run(&mut self, _now: u64, quantum_us: u64, _hz: f64) -> RunResult {
///         RunResult::ran(quantum_us)
///     }
/// }
///
/// let mut host: Box<dyn Host> = Box::new(Simulation::new(SimConfig::default()));
/// let job = host.add_job("spin", JobSpec::miscellaneous(), Box::new(Spin)).unwrap();
/// host.advance(SimTime::from_secs(2));
/// assert!(host.allocation_ppt(job) > 100);
/// // `rrs_api::Runtime::wall_clock().build()` runs the identical program
/// // on real OS threads.
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
    /// withdrawing its reservation.  Unknown and stale handles are a
    /// no-op.
    fn remove_job(&mut self, handle: JobHandle);

    /// Runs the host for `dt` of its own time (simulated or wall-clock),
    /// to the end of the clock if that comes first, then settles every
    /// thread's period-boundary backlog so [`Host::usage`] is current.
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

    /// The CPU a job's thread is currently placed on (a machine-wide
    /// index).
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

    /// Read-only access to the controller (on a sharded machine, shard
    /// 0's: the anchor every reservation and queue-coupled job runs on).
    fn controller(&self) -> &Controller;

    /// The progress-metric registry; workloads register their queues
    /// here.
    fn registry(&self) -> MetricRegistry;

    /// Forces a reservation directly on the dispatcher, bypassing the
    /// controller (experiments that pin allocations, such as the Figure 8
    /// sweep).
    fn force_reservation(&mut self, handle: JobHandle, reservation: Reservation);

    /// Aggregate statistics of the run so far — the same struct on every
    /// backend, summed over every CPU.
    fn stats(&self) -> SimStats;

    /// A point-in-time snapshot of the subsystem telemetry counters
    /// (quantum-cache hit rate, settles by reason, calendar event mix,
    /// controller cycle split) — one schema on every backend, so
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
    /// `fill/<queue>`, … series): the backend's own store, or a view
    /// assembled on each call where there is no single store (a
    /// multi-shard machine).
    fn trace(&self) -> Cow<'_, Trace>;

    /// Escape hatch to the concrete backend (see
    /// [`as_sim`](trait.Host.html#method.as_sim) on `dyn Host`).
    fn as_any(&self) -> &dyn Any;

    /// Mutable escape hatch to the concrete backend.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl dyn Host {
    /// Downcasts to the simulator backend, if that is what this host is.
    pub fn as_sim(&self) -> Option<&Simulation> {
        self.as_any().downcast_ref()
    }

    /// Mutable downcast to the simulator backend.
    pub fn as_sim_mut(&mut self) -> Option<&mut Simulation> {
        self.as_any_mut().downcast_mut()
    }

    /// Downcasts to the sharded simulator backend, if that is what this
    /// host is.
    pub fn as_sharded_sim(&self) -> Option<&ShardedSim> {
        self.as_any().downcast_ref()
    }

    /// Mutable downcast to the sharded simulator backend.
    pub fn as_sharded_sim_mut(&mut self) -> Option<&mut ShardedSim> {
        self.as_any_mut().downcast_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunResult, ShardConfig, SimConfig};
    use rrs_scheduler::{CpuStats, Period, Proportion};

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

    /// Spends every microsecond it is offered and counts them.
    #[derive(Default)]
    struct Spin(u64);
    impl WorkModel for Spin {
        fn run(&mut self, _now: u64, quantum_us: u64, _hz: f64) -> RunResult {
            self.0 += quantum_us;
            RunResult::ran(quantum_us)
        }
        fn progress_counter(&self) -> Option<f64> {
            Some(self.0 as f64)
        }
    }

    fn one_shard_sharded_sim(config: SimConfig) -> ShardedSim {
        ShardedSim::new(config, ShardConfig::default())
    }

    /// One program through `dyn Host`: every query a caller can make of
    /// the two simulators, answered after each step.
    #[test]
    fn simulation_and_a_one_shard_sharded_sim_answer_every_query_alike() {
        let config = SimConfig::default();
        let mut sim: Box<dyn Host> = Box::new(Simulation::new(config));
        let mut sharded: Box<dyn Host> = Box::new(one_shard_sharded_sim(config));
        assert_eq!(sim.as_sim().unwrap().config().cpu.clock_hz, 400e6);
        let mut jobs = Vec::new();
        for host in [&mut sim, &mut sharded] {
            assert_eq!(host.backend(), Backend::Sim);
            let mut add = |name: &str, spec| host.add_job(name, spec, Box::<Spin>::default());
            let rt = JobSpec::real_time(Proportion::from_ppt(200), Period::from_millis(10));
            let handles = [
                add("a", JobSpec::miscellaneous()).unwrap(),
                add("b", JobSpec::miscellaneous()).unwrap(),
                add("rt", rt).unwrap(),
            ];
            assert!(add(
                "rt2",
                JobSpec::real_time(Proportion::from_ppt(900), Period::from_millis(10))
            )
            .is_err());
            jobs.push(handles);
        }
        assert_eq!(jobs[0], jobs[1], "the same handles");
        let [a, b, rt] = jobs[0];
        let same = |sim: &dyn Host, sharded: &dyn Host| {
            assert_eq!(sim.now(), sharded.now());
            for h in [a, b, rt] {
                assert_eq!(sim.allocation_ppt(h), sharded.allocation_ppt(h));
                assert_eq!(sim.reservation(h), sharded.reservation(h));
                let usage = |host: &dyn Host| format!("{:?}", host.usage(h));
                assert_eq!(usage(sim), usage(sharded));
                assert_eq!(sim.cpu_of(h), sharded.cpu_of(h));
                assert_eq!(sim.cpu_used(h), sharded.cpu_used(h));
            }
            assert_eq!(sim.cpu_count(), sharded.cpu_count());
            assert_eq!(
                sim.controller().job_count(),
                sharded.controller().job_count()
            );
            assert_eq!(sim.stats(), sharded.stats());
            assert_eq!(sim.telemetry(), sharded.telemetry());
            let shape = |host: &dyn Host| -> Vec<(String, usize)> {
                host.trace()
                    .iter()
                    .map(|(n, s)| (n.to_string(), s.len()))
                    .collect()
            };
            assert_eq!(shape(sim), shape(sharded));
        };
        let step = |h: &mut dyn Host, i: usize| match i {
            0 => h.advance(SimTime::from_micros(333_333)),
            1 => h.force_reservation(
                b,
                Reservation::new(Proportion::from_ppt(123), Period::from_millis(20)),
            ),
            2 => h.advance(SimTime::from_micros(7_001)),
            3 => assert_eq!((h.grow_cpus(2), h.grow_cpus(1)), (2, 2)),
            4 => h.remove_job(a),
            _ => h.advance(SimTime::from_micros(1_250_017)),
        };
        for i in 0..6 {
            step(sim.as_mut(), i);
            step(sharded.as_mut(), i);
            same(sim.as_ref(), sharded.as_ref());
        }
        assert_eq!(sim.allocation_ppt(a), 0, "removed");
        assert!(sim.trace().get("alloc/b").is_some());
        assert!(sim.stats().controller_invocations > 0);
        assert_eq!(sim.controller().job_count(), 2);
    }

    /// `rate/` is a difference quotient over the gap between samples: a
    /// job spending a fixed 500 ‰ reservation progresses at a constant
    /// rate, and a sample already scheduled when the interval shrinks
    /// spans the old interval, not the new one.
    #[test]
    fn rate_stays_constant_across_a_trace_interval_change() {
        let config = SimConfig {
            controller_enabled: false,
            ..SimConfig::default().with_cpus(2)
        };
        let sharded = ShardedSim::new(
            config,
            ShardConfig {
                shards: 2,
                ..ShardConfig::default()
            },
        );
        let hosts: [Box<dyn Host>; 2] = [Box::new(Simulation::new(config)), Box::new(sharded)];
        for mut host in hosts {
            let h = host
                .add_job("spin", JobSpec::miscellaneous(), Box::<Spin>::default())
                .unwrap();
            let reservation = Reservation::new(Proportion::from_ppt(500), Period::from_millis(10));
            host.force_reservation(h, reservation);
            host.advance(SimTime::from_secs(1));
            let fine = SimTime::from_millis(10);
            if let Some(sim) = host.as_sim_mut() {
                sim.set_trace_interval(fine);
            } else if let Some(sim) = host.as_sharded_sim_mut() {
                sim.set_trace_interval(fine);
            }
            host.advance(SimTime::from_millis(300));
            let rates = host.trace().get("rate/spin").unwrap().values();
            // Every 100 ms through 1.0 s (already scheduled at the
            // switch), then every 10 ms through 1.29 s.
            assert_eq!(rates.len(), 11 + 29);
            // 5 ms of every 10 ms period, in µs per second.
            for &rate in &rates[1..] {
                assert!(
                    (rate - 500_000.0).abs() < 25_000.0,
                    "rate {rate} in {rates:?}"
                );
            }
        }
    }
}
