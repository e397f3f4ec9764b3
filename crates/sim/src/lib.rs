//! Deterministic discrete-event CPU simulator.
//!
//! The paper's experiments ran on a 400 MHz Pentium II under a modified
//! Linux 2.0.35 kernel.  This crate substitutes that testbed with a
//! deterministic simulation: simulated threads execute *work models*
//! (cycles consumed per block produced or consumed), the real
//! `rrs-scheduler` dispatcher decides who runs in each dispatch interval,
//! and the real `rrs-core` controller runs every controller period,
//! sampling the real `rrs-queue` symbiotic interfaces.  Only the CPU and
//! the passage of time are simulated — the scheduler, controller and
//! progress monitoring are the production code paths.
//!
//! * [`WorkModel`] — what a simulated thread does with the CPU it is given.
//! * [`Host`] — the one job-level API (`add_job` / `advance` / `stats` /
//!   `trace` / …), implemented here by both simulators and in `rrs-api`
//!   by the wall-clock backend.
//! * [`Simulation`] — the event loop: dispatch, run, charge, block/unblock,
//!   controller invocation, overhead accounting and tracing.
//! * [`ShardedSim`] — `S` simulations behind the same [`Host`] API, with a
//!   slow-cadence rebalancer between them.
//! * [`Trace`] — named time series recorded during a run, used by the
//!   figure-regeneration benches.
//! * [`SimConfig`] / [`CpuConfig`] — experiment parameters.
//!
//! # How the simulator advances time
//!
//! [`Simulation`] is one discrete-event loop built around an event calendar
//! ([`calendar::Schedule`], a binary-heap agenda keyed by integer-microsecond
//! [`rrs_core::SimTime`] with deterministic tie-breaking).  Only things that
//! *change* the dispatch assignment are events: controller cycles, trace
//! samples, workload wake-ups ([`Event::Wake`], announced by
//! [`WorkModel::next_transition`]), and a dispatch-interval
//! [`Event::PollTick`] for blocked workloads that cannot announce their
//! wake-up.  One turn of the loop peeks the earliest event, advances every
//! CPU to it, pops it, checks that event times never run backwards, handles
//! it, and lets the handler push its successor.  Between two events the
//! simulator advances each CPU *analytically*: the dispatcher picks a thread, the work model consumes
//! its quantum (clipped to the event window), usage is charged, and the CPU
//! repeats until the window is exhausted — no global tick, no heap
//! operation per span, and no idle fast-forward special case, because an
//! idle CPU simply has nothing scheduled before the next event.  Reservation
//! period boundaries do not enter the calendar at all: the dispatcher rolls
//! them lazily, when a thread is next touched ([`rrs_scheduler::Dispatcher`]),
//! and only throttle releases arm real timers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calendar;
pub mod event;
pub mod host;
pub mod sharded;
pub mod simulation;
pub mod trace;
pub mod workload;

pub use calendar::{EventId, Schedule};
pub use event::Event;
pub use host::{Backend, Host};
pub use rrs_core::{JobHandle, SimTime};
pub use rrs_scheduler::CpuStats;
pub use sharded::{ShardConfig, ShardedSim};
pub use simulation::{CpuConfig, SimConfig, SimStats, Simulation};
pub use trace::{JobSeries, Trace};
pub use workload::{RunResult, WorkModel};
