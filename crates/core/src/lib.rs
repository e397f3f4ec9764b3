//! The feedback-driven proportion allocator — the paper's primary
//! contribution.
//!
//! The adaptive controller (§3.3) sits between the progress monitors (the
//! symbiotic interfaces of `rrs-queue`) and the reservation scheduler
//! (`rrs-scheduler`).  Every controller period one cycle of
//! [`controller::Controller`] runs the paper's loop in six steps:
//!
//! ```text
//!   Sense ──▶ Classify ──▶ Estimate ──▶ Allocate ──▶ Place ──▶ Actuate
//!     │           │            │            │           │          │
//!  registry   taxonomy     PID + P'=kQ   squish /    CPU fit,  reservations
//!  samples,   (Figure 2)   (Figures      admit       migrate   + CPU, events
//!  usage                    3 & 4)       (§3.3)
//! ```
//!
//! 1. **Sense** samples each job's progress metrics through the
//!    meta-interface and picks up the dispatcher's usage feedback;
//! 2. **Classify** derives each job's class by the [`taxonomy`] of
//!    Figure 2 — real-time, aperiodic real-time, real-rate or
//!    miscellaneous — and pins reserved jobs' proportions and periods;
//! 3. **Estimate** computes the cumulative progress pressure `Q_t` via a
//!    PID control function ([`pressure`], Figure 3) and each adaptive
//!    job's new proportion `P'_t = k·Q_t`, reclaiming allocation from jobs
//!    that do not use what they were given ([`estimator`], Figure 4), and
//!    optionally adjusts periods to trade quantization error against
//!    jitter ([`period`]);
//! 4. **Allocate** detects overload against the machine-wide capacity
//!    (`threshold × CPUs`) and *squishes* real-rate and miscellaneous
//!    jobs by fair share or importance-weighted fair share ([`squish`]);
//! 5. **Place** assigns each job a CPU ([`config::PlacementConfig`]):
//!    least-loaded fit at admission, sticky placement in steady state,
//!    and threshold-triggered migration of one squishable job per cycle
//!    when the CPU load imbalance exceeds the configured bound — a no-op
//!    on the paper's single CPU;
//! 6. **Actuate** emits the reservations to apply (each tagged with its
//!    CPU) and raises quality exceptions when demand cannot be met
//!    ([`events`]).
//!
//! The cycle works on dense [`slot`]-indexed job storage and keeps what
//! it derived between periods — which jobs are real-rate and where their
//! queues are, the squish inputs, the per-CPU loads — so a steady-state
//! cycle costs the jobs whose inputs changed and allocates nothing.  A
//! structural change (a job added or removed, a CPU added, a registry
//! mutation, a new cycle length) makes the next cycle rebuild those
//! caches from the job table first and then recompute and actuate every
//! job.  The per-job and per-machine decisions are kernels of their own
//! in `pipeline`.  [`controller::Controller::control_cycle_with_dt`] is
//! the entry point (usage recorded by slot, borrowed output).  Its own
//! execution cost is modelled by
//! [`cost::ControllerCostModel`] so the Figure 5 overhead experiment can
//! be reproduced.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod control_loop;
pub mod controller;
pub mod cost;
pub mod estimator;
pub mod events;
pub mod handle;
pub mod period;
mod pipeline;
pub mod pressure;
pub mod slot;
pub mod squish;
pub mod taxonomy;
pub mod time;

pub use config::{ControllerConfig, PlacementConfig};
pub use control_loop::{ControlLoop, SimStats};
pub use controller::{
    Actuation, AdmitError, ControlOutput, Controller, JobId, MigratedJob, UsageSnapshot,
};
pub use cost::ControllerCostModel;
pub use events::{ControllerEvent, QualityException};
pub use handle::JobHandle;
pub use period::PeriodEstimator;
pub use pressure::PressureEstimator;
pub use slot::JobSlot;
pub use squish::{squish_fair_share, squish_weighted, Importance, SquishPolicy};
pub use taxonomy::{JobClass, JobSpec};
pub use time::SimTime;
