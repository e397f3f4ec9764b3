//! Wall-clock user-space executor.
//!
//! The paper's prototype controller ran as "a user-level program" above a
//! modified Linux kernel; this crate runs the same feedback loop the
//! simulator (`rrs-sim`) drives — one [`rrs_core::ControlLoop`]: controller,
//! machine, slot table, counters — against real OS threads and real
//! wall-clock time.  It is a parity harness for the control math, not OS
//! scheduling: the executor keeps only a clock and a way to spend a
//! quantum.  Worker threads each wait on a channel and are released for one
//! *step* per quantum, at most one per logical CPU at a time, in the order
//! the machine's dispatchers decide, while the controller adjusts their
//! reservations from the progress they make on real shared queues.
//!
//! The executor is intentionally cooperative — tasks run one step per
//! quantum and return control — because a user-space library cannot preempt
//! arbitrary code.  The paper makes the same concession: its RBS can only
//! enforce allocations at dispatch time.  Nothing pins a worker to a
//! hardware core and nothing stops the OS from descheduling it mid-step;
//! what a step is charged is the wall time it took.
//!
//! Everything the loop knows — reservations, usage accounts, placement,
//! statistics ([`rrs_core::SimStats`], the struct the simulator reports),
//! telemetry — is read through [`executor::RealTimeExecutor::control`];
//! the executor adds spawning, removal, mid-run CPU hot-add
//! ([`executor::RealTimeExecutor::grow_cpus`]) and the run loop.  The
//! backend-agnostic `realrate::api` host trait wraps it interchangeably
//! with `rrs-sim`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod executor;

pub use executor::{ExecutorConfig, RealTimeExecutor, StepOutcome};
pub use rrs_core::JobHandle;
