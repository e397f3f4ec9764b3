//! Reservation-based proportion/period scheduler (RBS).
//!
//! The paper's low-level scheduler (§3.1) allocates CPU to threads based on
//! two attributes: a **proportion** expressed in parts per thousand and a
//! **period** in milliseconds over which the allocation must be delivered.
//! The prototype implements rate-monotonic scheduling on top of Linux's
//! `goodness()`-based dispatcher with a 1 ms timer: threads with shorter
//! periods beat threads with longer ones, and a thread that has used its
//! allocation for the current period sleeps until its next period begins.
//!
//! This crate reproduces that scheduler as a pure state machine driven by an
//! explicit clock, so the same dispatcher runs under the discrete-event
//! simulator (`rrs-sim`) and the wall-clock backend (`rrs-api`).  It
//! schedules reservations and nothing else: every thread has one, and
//! whether a reservation fits — the paper's overload test, the sum of
//! proportions against a threshold — is ruled on by the adaptive controller
//! (`rrs-core`) before a thread is placed here.
//!
//! * [`Proportion`] / [`Period`] / [`Reservation`] — the allocation types.
//! * [`goodness`] — the Linux-style goodness function (rate monotonic).
//! * [`Dispatcher`] — goodness-ordered run queue and expiry-ordered timer
//!   list over dense slot-indexed thread storage, both on one sorted deque
//!   (`O(1)` pick — a pop, the pick rejoining only if its span leaves it
//!   runnable — next expiry and tail arm); per-period
//!   accounting, deadline-miss detection and dispatch-overhead modelling.
//! * [`Machine`] — the multi-CPU layer: `N` per-CPU dispatchers in
//!   lockstep behind the single-CPU API, with thread placement and
//!   cross-CPU migration ([`CpuId`]).  `N = 1` is bit-for-bit the
//!   single-dispatcher system.  A [`ThreadHandle`] addresses a thread
//!   without an id lookup.
//! * [`accounting::UsageAccount`] — per-thread usage the controller reads to
//!   reclaim over-allocated CPU.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accounting;
mod deque;
pub mod dispatcher;
pub mod error;
pub mod goodness;
pub mod machine;
pub mod reservation;
mod runqueue;
mod settle;
pub mod timerlist;
pub mod types;

pub use accounting::UsageAccount;
pub use dispatcher::{
    DispatchOutcome, DispatchStats, Dispatcher, DispatcherConfig, MigratedThread,
};
pub use error::SchedError;
pub use machine::{CpuStats, Machine};
pub use reservation::Reservation;
/// The trace/telemetry types [`Machine::set_telemetry`] speaks.
pub use rrs_telemetry as telemetry;
pub use types::{CpuId, Period, Proportion, ThreadHandle, ThreadId, ThreadState};
