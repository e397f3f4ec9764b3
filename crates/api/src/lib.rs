//! # `rrs-api` — one host API over every backend
//!
//! One front door for one idea — *give the allocator jobs and let it run
//! them* — over two backends: the deterministic simulator (`rrs-sim`)
//! and the wall-clock backend, which lives in this crate and runs the
//! same control loop over real OS threads and real time.
//!
//! * [`Host`] — the canonical host surface (`add_job` / `remove_job` /
//!   `advance` / `grow_cpus` / `stats` / `trace` / …), re-exported from
//!   `rrs-sim`, where it is declared and where both simulators
//!   (`Simulation`, `ShardedSim`) implement it; this crate's wall-clock
//!   backend implements it too;
//! * [`JobHandle`] — the single handle type (re-exported from
//!   `rrs-core`), carrying the controller's dense slot;
//! * [`SimTime`] — the one time type, integer microseconds,
//!   ending the `f64`-seconds-vs-`Duration` split;
//! * [`Runtime`] — the builder:
//!   `Runtime::sim().cpus(8).build()` or `Runtime::wall_clock().build()`,
//!   each returning a `Box<dyn Host>`.
//!
//! Workloads (`rrs-workloads`), scenarios (`rrs-scenario`) and the
//! examples are all written against [`Host`], so every experiment runs on
//! the deterministic simulator *and* on real OS threads — and every
//! future backend only has to implement one trait.
//!
//! ```
//! use rrs_api::{Backend, JobSpec, Runtime, SimTime};
//! use rrs_sim::{RunResult, WorkModel};
//!
//! struct Spin;
//! impl WorkModel for Spin {
//!     fn run(&mut self, _now: u64, quantum_us: u64, _hz: f64) -> RunResult {
//!         RunResult::ran(quantum_us)
//!     }
//! }
//!
//! // The identical program, parameterised only by backend:
//! for backend in [Backend::Sim, Backend::WallClock] {
//!     let mut host = Runtime::backend(backend).build();
//!     let advance = match backend {
//!         Backend::Sim => SimTime::from_secs(2),        // simulated seconds
//!         Backend::WallClock => SimTime::from_millis(120), // real milliseconds
//!     };
//!     let job = host.add_job("spin", JobSpec::miscellaneous(), Box::new(Spin)).unwrap();
//!     host.advance(advance);
//!     // On both backends the controller discovered the job can use CPU
//!     // and granted it a nonzero proportion without any tuning.
//!     assert!(host.allocation_ppt(job) > 0);
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod runtime;
pub mod time;
mod wall_clock;

pub use rrs_sim::host::{Backend, Host};
pub use runtime::{Runtime, RuntimeBuilder};
pub use time::SimTime;

// One-stop re-exports: everything a program written against the host API
// typically needs, so `use rrs_api::...` (or `realrate::api::...`)
// suffices.
pub use rrs_core::{
    controller::AdmitError, Controller, ControllerConfig, Importance, JobClass, JobHandle, JobId,
    JobSlot, JobSpec, SimStats,
};
pub use rrs_queue::MetricRegistry;
pub use rrs_scheduler::{CpuId, CpuStats, Period, Proportion, Reservation, UsageAccount};
pub use rrs_sim::{RunResult, ShardConfig, ShardedSim, SimConfig, Simulation, Trace, WorkModel};
pub use rrs_telemetry::{Recorder, TelemetryConfig, TelemetrySnapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wall_clock::WallClockHost;

    struct Spin;
    impl WorkModel for Spin {
        fn run(&mut self, _now: u64, quantum_us: u64, _hz: f64) -> RunResult {
            RunResult::ran(quantum_us)
        }
        fn progress_counter(&self) -> Option<f64> {
            Some(1.0)
        }
    }

    #[test]
    fn telemetry_shares_one_schema_across_backends() {
        // Built with `.telemetry(...)`, both backends record structured
        // events and report the same counter schema.
        let mut sim = Runtime::sim().telemetry(TelemetryConfig::default()).build();
        sim.add_job("spin", JobSpec::miscellaneous(), Box::new(Spin))
            .unwrap();
        sim.advance(SimTime::from_secs(1));
        let snap = sim.telemetry();
        assert!(snap.quantum_cache_hits > 0);
        assert!(snap.trace_events_recorded > 0);
        let recorder = sim.telemetry_recorder().expect("builder installed it");
        assert!(!recorder.is_empty());

        let mut wall = Runtime::wall_clock()
            .telemetry(TelemetryConfig::default())
            .build();
        wall.add_job("spin", JobSpec::miscellaneous(), Box::new(Spin))
            .unwrap();
        wall.advance(SimTime::from_millis(120));
        let snap = wall.telemetry();
        assert!(snap.dispatches > 0);
        assert!(
            snap.trace_events_recorded > 0,
            "controller cycles must be recorded"
        );
        assert!(wall.telemetry_recorder().is_some());

        // Without the builder knob the recorder is absent but the
        // always-on counters still read.
        let mut host = Runtime::sim().build();
        host.add_job("spin", JobSpec::miscellaneous(), Box::new(Spin))
            .unwrap();
        host.advance(SimTime::from_secs(1));
        assert!(host.telemetry_recorder().is_none());
        assert!(host.telemetry().dispatches > 0);
    }

    #[test]
    fn wall_clock_host_runs_the_same_program() {
        let mut host = Runtime::wall_clock().build();
        assert_eq!(host.backend(), Backend::WallClock);
        assert_eq!(host.cpu_count(), 1);
        let job = host
            .add_job("spin", JobSpec::miscellaneous(), Box::new(Spin))
            .unwrap();
        host.advance(SimTime::from_millis(150));
        assert!(host.now() >= SimTime::from_millis(150));
        assert!(host.allocation_ppt(job) > 0, "controller granted CPU");
        assert!(host.cpu_used(job) > SimTime::ZERO, "work really ran");
        let stats = host.stats();
        assert!(stats.controller_invocations > 0);
        assert!(host.as_any().is::<WallClockHost>());
        assert!(host.as_sim().is_none());
        host.remove_job(job);
        assert_eq!(host.controller().job_count(), 0);
    }

    #[test]
    fn wall_clock_host_records_traces_and_honours_admission() {
        let mut host = Runtime::wall_clock().build();
        let rt = host
            .add_job(
                "rt",
                JobSpec::real_time(Proportion::from_ppt(900), Period::from_millis(10)),
                Box::new(Spin),
            )
            .unwrap();
        let err = host.add_job(
            "rt2",
            JobSpec::real_time(Proportion::from_ppt(400), Period::from_millis(10)),
            Box::new(Spin),
        );
        assert!(err.is_err(), "admission control rejects oversubscription");
        assert_eq!(host.stats().admission_rejections, 1);
        host.advance(SimTime::from_millis(250));
        assert_eq!(host.allocation_ppt(rt), 900, "reservation held");
        assert!(host.trace().get("alloc/rt").is_some());
        assert!(host.trace().get("rate/rt").is_some());
    }

    /// Blocks immediately and wakes on every poll.
    struct Blocky;
    impl WorkModel for Blocky {
        fn run(&mut self, _now: u64, _quantum_us: u64, _hz: f64) -> RunResult {
            RunResult::blocked_after(10)
        }
        fn poll_unblock(&mut self, _now_us: u64) -> bool {
            true
        }
    }

    #[test]
    fn wall_clock_host_drives_blocking_models() {
        let mut host = Runtime::wall_clock().build();
        let job = host
            .add_job("blocky", JobSpec::miscellaneous(), Box::new(Blocky))
            .unwrap();
        host.advance(SimTime::from_millis(150));
        // It blocks after every step but the executor re-polls it at
        // controller frequency, so it keeps making (small) progress.
        assert!(host.cpu_used(job) > SimTime::ZERO);
    }

    #[test]
    fn wall_clock_grow_cpus_hot_adds_worker_shards() {
        let mut host = Runtime::wall_clock().build();
        let a = host
            .add_job("a", JobSpec::miscellaneous(), Box::new(Spin))
            .unwrap();
        let b = host
            .add_job("b", JobSpec::miscellaneous(), Box::new(Spin))
            .unwrap();
        host.advance(SimTime::from_millis(60));
        assert_eq!(host.grow_cpus(2), 2);
        host.advance(SimTime::from_millis(300));
        let stats = host.stats();
        assert_eq!(stats.per_cpu.len(), 2);
        // The Place stage re-sharded one of the hogs onto the new CPU.
        assert_ne!(host.cpu_of(a), host.cpu_of(b));
        assert!(stats.migrations >= 1);
    }
}
