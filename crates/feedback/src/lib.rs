//! Software feedback toolkit — the part of SWiFT's role the controller uses.
//!
//! The paper's adaptive controller is "implemented using the SWiFT software
//! feedback toolkit", a library of composable control-theory blocks (§3.3).
//! SWiFT itself is not available, and the controller in `rrs-core` composes
//! exactly three of its pieces, so this crate provides those and no general
//! block library:
//!
//! * [`PidController`] — proportional-integral-derivative control with
//!   anti-windup and output clamping; this computes the cumulative progress
//!   pressure `Q_t` of Figure 3.
//! * [`MovingAverage`] — the windowed low-pass filter the period estimator
//!   smooths its fill-swing samples with ([`filter`]).
//! * [`PulseTrain`] — the deterministic pulse generator the workloads use
//!   to reproduce the paper's rising/falling production-rate pulses
//!   (Figure 6) ([`signal`]).
//!
//! Everything is discrete-time: the controller is stepped with an explicit
//! `dt`, so the same code runs under the simulator clock and under
//! wall-clock time.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod filter;
pub mod pid;
pub mod signal;

pub use filter::MovingAverage;
pub use pid::{PidConfig, PidController};
pub use signal::PulseTrain;
