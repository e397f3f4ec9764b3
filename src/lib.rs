//! # realrate — a feedback-driven proportion allocator for real-rate scheduling
//!
//! This crate is the facade of a workspace that reproduces *"A
//! Feedback-driven Proportion Allocator for Real-Rate Scheduling"*
//! (Steere, Goel, Gruenberg, McNamee, Pu and Walpole).  It re-exports the
//! individual crates so applications can depend on a single package:
//!
//! * [`api`] (`rrs-api`) — **the front door**: the backend-agnostic
//!   [`api::Host`] trait, the [`api::Runtime`] builder
//!   (`Runtime::sim().cpus(8).build()` /
//!   `Runtime::wall_clock().build()`), the single [`api::JobHandle`] and
//!   the [`api::SimTime`] microsecond time type.  Programs written
//!   against it run unchanged on the deterministic simulator *and* on
//!   real OS threads — the wall-clock backend, which lives here too: the
//!   same control loop over real time, a parity harness for the control
//!   math rather than OS scheduling.
//! * [`core`] (`rrs-core`) — the adaptive controller: thread taxonomy,
//!   progress pressure, PID control, proportion estimation, squishing and
//!   admission control, organised as a staged control-plane pipeline
//!   (Sense → Classify → Estimate → Allocate → Place → Actuate) over
//!   dense slot-indexed job storage whose steady-state cycle is
//!   allocation-free.  The Place stage assigns each job a CPU:
//!   least-loaded fit at admission, threshold-triggered migration under
//!   imbalance.
//! * [`scheduler`] (`rrs-scheduler`) — the reservation-based
//!   proportion/period dispatcher, and the **machine layer**
//!   ([`scheduler::Machine`]): `N` per-CPU dispatchers advancing in
//!   lockstep behind the single-CPU API, with cross-CPU migration that
//!   preserves mid-period accounting ([`scheduler::CpuId`]).
//! * [`queue`] (`rrs-queue`) — symbiotic interfaces: the bounded buffer
//!   and the progress-metric registry.
//! * [`feedback`] (`rrs-feedback`) — the software feedback toolkit (the PID
//!   controller, the moving-average filter, the pulse-train generator).
//! * [`sim`] (`rrs-sim`) — the deterministic CPU simulator backend.
//! * [`workloads`] (`rrs-workloads`) — the workload generators driving the
//!   paper's evaluation; their installers take any [`api::Host`].
//! * [`scenario`] (`rrs-scenario`) — declarative scenarios: seeded arrival
//!   processes, phase schedules (load steps, hog storms, CPU hot-adds)
//!   and SLO-checked runs on either backend, with a built-in corpus.
//! * [`metrics`] (`rrs-metrics`) — time series, statistics and experiment
//!   export.
//! * [`analysis`] (`rrs-analysis`) — the workspace invariant linter: a
//!   static-analysis pass (own Rust lexer, config read through the
//!   vendored `serde_json`) that machine-checks the hot-path contracts — zero-alloc
//!   steady state, replay determinism, integer time, edge-only id maps,
//!   panic discipline, `unsafe` inventory, the sharded parallel-region
//!   audit — and that every `pub` item has a caller in another crate,
//!   against the justified allowlist in `analysis.json`.  CI blocks on `cargo run -p rrs-analysis -- --deny`.
//! * [`telemetry`] (`rrs-telemetry`) — zero-cost runtime tracing: the
//!   bounded-ring [`telemetry::Recorder`] (enabled per host via
//!   `Runtime::sim().telemetry(..)`), the shared
//!   [`telemetry::TelemetrySnapshot`] counter schema behind
//!   [`api::Host::telemetry`], and Chrome trace-event JSON export
//!   loadable in Perfetto.
//!
//! ## Quickstart
//!
//! Build a host with [`api::Runtime`], add jobs, advance time — the same
//! program runs on either backend:
//!
//! ```
//! use realrate::api::{JobSpec, Runtime, SimTime};
//! use realrate::sim::{RunResult, WorkModel};
//!
//! // A job that uses every cycle it is given.
//! struct Spin;
//! impl WorkModel for Spin {
//!     fn run(&mut self, _now: u64, quantum_us: u64, _hz: f64) -> RunResult {
//!         RunResult::ran(quantum_us)
//!     }
//! }
//!
//! // `Runtime::sim()` is the paper's machine: one deterministic 400 MHz
//! // CPU.  Ask for more with `.cpus(n)`; swap in `Runtime::wall_clock()`
//! // and the identical program runs on real OS threads.
//! let mut host = Runtime::sim().build();
//! let job = host.add_job("spin", JobSpec::miscellaneous(), Box::new(Spin)).unwrap();
//! host.advance(SimTime::from_secs(2));
//! // Without any reservation or priority, the controller discovered that
//! // the job can use the CPU and grew its proportion.
//! assert!(host.allocation_ppt(job) > 100);
//! // The handle carries the controller's dense slot, shared by every
//! // layer, next to the id — both name the same job and the same grant.
//! assert_eq!(host.controller().job_of(job.slot), Some(job.job));
//! let granted = host.controller().granted(job.job).unwrap();
//! assert_eq!(granted.ppt(), host.allocation_ppt(job));
//! ```
//!
//! ## Multi-CPU machines
//!
//! ```
//! use realrate::api::{JobSpec, Runtime, SimTime};
//! use realrate::sim::{RunResult, WorkModel};
//!
//! struct Spin;
//! impl WorkModel for Spin {
//!     fn run(&mut self, _now: u64, quantum_us: u64, _hz: f64) -> RunResult {
//!         RunResult::ran(quantum_us)
//!     }
//! }
//!
//! let mut host = Runtime::sim().cpus(2).build();
//! let a = host.add_job("a", JobSpec::miscellaneous(), Box::new(Spin)).unwrap();
//! let b = host.add_job("b", JobSpec::miscellaneous(), Box::new(Spin)).unwrap();
//! host.advance(SimTime::from_secs(2));
//! // Least-loaded fit put the hogs on different CPUs, so together they
//! // consume more than one CPU's worth of time.
//! assert_ne!(host.cpu_of(a), host.cpu_of(b));
//! let total = host.cpu_used(a) + host.cpu_used(b);
//! assert!(total > host.now());
//! ```
//!
//! ## Direct backend APIs
//!
//! The simulator remains available directly — `sim::Simulation::new` is
//! the engine `Runtime::sim()` constructs, and [`api::Host::as_any`] (or
//! `dyn Host`'s `as_sim` / `as_sharded_sim`) downcasts a built simulator
//! host back to it for backend-specific queries.  New code should go
//! through [`api`]; the direct path stays because the figure binaries,
//! the benchmark and the simulator's own tests drive it.  The wall-clock
//! backend has no direct API: `Runtime::wall_clock()` builds it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use rrs_analysis as analysis;
pub use rrs_api as api;
pub use rrs_core as core;
pub use rrs_feedback as feedback;
pub use rrs_metrics as metrics;
pub use rrs_queue as queue;
pub use rrs_scenario as scenario;
pub use rrs_scheduler as scheduler;
pub use rrs_sim as sim;
pub use rrs_telemetry as telemetry;
pub use rrs_workloads as workloads;
