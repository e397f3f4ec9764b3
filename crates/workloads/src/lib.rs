//! Workload generators for the real-rate scheduling experiments.
//!
//! Every experiment in the paper's evaluation is driven by a small set of
//! synthetic applications; this crate reproduces them as [`rrs_sim::WorkModel`]
//! implementations:
//!
//! * [`hog::CpuHog`] — a miscellaneous job that consumes every cycle it is
//!   offered (the "competing load" of Figure 7).
//! * [`hog::DummyProcess`] — consumes no CPU but is scheduled, monitored and
//!   controlled (the Figure 5 overhead experiment).
//! * [`hog::FiniteWork`] — a fixed amount of work, then nothing (the
//!   scenario engine's transient workers).
//! * [`pipeline`] — the pulse-driven producer/consumer pipeline of
//!   Figures 6 and 7: a producer with a fixed reservation and a variable
//!   production rate, a consumer with a fixed consumption rate whose
//!   allocation the controller must discover.
//! * [`video`] — a multi-stage multimedia pipeline in which one stage (the
//!   decoder) needs far more CPU than the others (§4.4).
//! * [`server`] — a web-server model: requests arrive from the network into
//!   a bounded queue and the server thread consumes them (§3.2 "Server").
//! * [`interactive`] — an interactive job that sleeps on a tty and wakes for
//!   short bursts of work (§3.2 "Interactive").
//! * [`io`] — an I/O-intensive job consuming data produced by a simulated
//!   disk at fixed bandwidth (§3.2 "I/O intensive").
//! * [`modem`] — an isochronous software modem (§1) that must process a
//!   sample batch every period; the reservation-vs-best-effort comparison
//!   shows why such devices bypass the adaptive controller.
//! * [`latency`] — the shared per-request latency histograms the server
//!   and interactive models optionally record into, feeding the scenario
//!   engine's percentile SLOs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hog;
pub mod interactive;
pub mod io;
mod kernel;
pub mod latency;
pub mod modem;
pub mod pipeline;
pub mod server;
pub mod video;

pub use hog::{CpuHog, DummyProcess, FiniteWork};
pub use interactive::InteractiveJob;
pub use io::DiskReader;
pub use latency::{LatencyStats, LatencySummary};
pub use modem::{ModemConfig, ModemStats, SoftwareModem};
pub use pipeline::{PipelineConfig, PipelineHandles, PulsePipeline};
pub use server::{ServerConfig, WebServer};
pub use video::{VideoPipeline, VideoPipelineConfig, VideoPipelineHandles};
