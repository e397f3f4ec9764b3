//! Wall-clock user-space executor.
//!
//! The paper's prototype controller ran as "a user-level program" above a
//! modified Linux kernel; this crate demonstrates that the same scheduler
//! and controller code paths used by the simulator (`rrs-sim`) also work
//! against real OS threads and real wall-clock time.  The executor emulates
//! a single CPU: worker threads each wait on a gate and are released one at
//! a time for one quantum, in the order decided by the
//! [`rrs_scheduler::Dispatcher`], while the [`rrs_core::Controller`] adjusts
//! their reservations from the progress they make on real shared queues.
//!
//! The executor is intentionally cooperative — tasks run one *step* per
//! quantum and return control — because a user-space library cannot preempt
//! arbitrary code.  The paper makes the same concession: its RBS can only
//! enforce allocations at dispatch time.
//!
//! Since the machine-layer refactor the executor emulates an `N`-CPU
//! machine (logical worker sharding), supports mid-run CPU hot-add
//! ([`executor::RealTimeExecutor::grow_cpus`]) and task removal, and
//! reports the same statistics struct as the simulator
//! ([`rrs_core::SimStats`]) — the parity that lets the
//! backend-agnostic `realrate::api` host trait treat it interchangeably
//! with `rrs-sim`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod executor;

pub use executor::{ExecutorConfig, RealTimeExecutor, StepOutcome};
pub use rrs_core::JobHandle;
