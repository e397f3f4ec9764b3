//! Symbiotic interfaces: progress-exposing queues and the metric registry.
//!
//! The paper's key idea for monitoring progress without breaking the
//! OS/application boundary is the *symbiotic interface* (§3.2): a
//! communication abstraction (shared queue, pipe, socket) that exposes its
//! fill level, size and each endpoint's role (producer or consumer) to the
//! scheduler through a *meta-interface*.  The controller then infers
//! progress: a filling queue means the consumer is falling behind, a
//! draining queue means the producer is.
//!
//! This crate provides that substrate:
//!
//! * [`BoundedBuffer`] — a thread-safe bounded FIFO whose fill level is
//!   observable, the direct analogue of the paper's shared-queue library.
//! * [`ProgressMetric`] — the trait through which the controller samples any
//!   progress source; [`FillSample`] is one observation.
//! * [`MetricRegistry`] — the meta-interface: jobs register `(metric, role)`
//!   attachments and the controller enumerates them each period.
//! * [`Role`] — producer or consumer, which flips the sign of the pressure.
//!
//! Only the shared queue is modelled.  A byte-pipe model and the §4.5
//! pseudo-progress metrics (an arbitrary work counter mapped onto a
//! virtual fill level) would plug in through [`ProgressMetric`]; no
//! workload needs either yet.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bounded;
pub mod metric;
pub mod registry;
pub mod role;

pub use bounded::{BoundedBuffer, Full};
pub use metric::{FillSample, ProgressMetric, SharedMetric};
pub use registry::{Attachment, AttachmentId, JobKey, MetricRegistry};
pub use role::Role;
