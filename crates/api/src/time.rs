//! The one time type every host speaks.
//!
//! [`SimTime`] now lives in `rrs-core` (the event-calendar simulator keys
//! its schedule by it, and `rrs-sim` sits below this crate in the
//! dependency graph); this module re-exports it so `rrs_api::SimTime` and
//! `rrs_api::time::SimTime` keep working unchanged.

pub use rrs_core::time::SimTime;
