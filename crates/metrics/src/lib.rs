//! Measurement and reporting support for the real-rate scheduling reproduction.
//!
//! The paper's evaluation (Figures 5–8) reports time series of allocations,
//! queue fill levels, progress rates, controller overhead and dispatch
//! overhead.  This crate provides the small amount of numerical
//! infrastructure those experiments need:
//!
//! * [`TimeSeries`] — an append-only `(time, value)` series with windowing
//!   and summary statistics.
//! * [`stats`] — scalar summaries ([`stats::Summary`]).
//! * [`histogram`] — a fixed-bucket histogram with percentile queries.
//! * [`regression`] — ordinary-least-squares linear regression, used to fit
//!   the controller-overhead line of Figure 5.
//! * [`export`] — JSON emission of experiment records.
//! * [`plot`] — terminal-friendly ASCII plots for the example binaries.
//!
//! The crate is deliberately free of scheduling concepts: it only knows about
//! numbers over time, so every other crate in the workspace can depend on it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod histogram;
pub mod plot;
pub mod regression;
pub mod stats;
pub mod timeseries;

pub use export::ExperimentRecord;
pub use histogram::Histogram;
pub use regression::{linear_fit, LinearFit};
pub use stats::Summary;
pub use timeseries::TimeSeries;
