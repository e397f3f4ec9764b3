//! Controller events: quality exceptions, squishes and migrations.

use crate::controller::JobId;
use rrs_scheduler::{CpuId, Proportion};
use serde::{Deserialize, Serialize};

/// A quality exception raised towards an application.
///
/// "Upon reaching overload ... it can raise quality exceptions to notify the
/// jobs of the overload and renegotiate the proportions" (§3.1); "if it were
/// the case that there was not sufficient CPU to satisfy all the jobs, the
/// queue would eventually become full and trigger a quality exception,
/// allowing the application to adapt by lowering its resource requirements"
/// (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QualityException {
    /// The job being notified.
    pub job: JobId,
    /// The proportion the job appears to need.
    pub desired: Proportion,
    /// The proportion it was actually granted.
    pub granted: Proportion,
    /// The cumulative progress pressure at the time of the exception.
    pub pressure: f64,
    /// Controller time at which the exception was raised, in seconds.
    pub time: f64,
}

/// Anything of note the controller did during a control cycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ControllerEvent {
    /// A quality exception was raised.
    Quality(QualityException),
    /// The controller squished allocations because the CPU was
    /// oversubscribed.
    Squished {
        /// Sum of desired allocations before squishing, in parts per
        /// thousand (may exceed 1000).
        desired_total_ppt: u64,
        /// Capacity that was actually available for adaptive jobs, in parts
        /// per thousand.
        available_ppt: u32,
    },
    /// The Place rule moved a job to another CPU to rebalance load.
    Migrated {
        /// The job that moved.
        job: JobId,
        /// The CPU it left.
        from: CpuId,
        /// The CPU it now runs on.
        to: CpuId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_copyable_and_comparable() {
        let e1 = ControllerEvent::Squished {
            desired_total_ppt: 1500,
            available_ppt: 900,
        };
        let e2 = e1;
        assert_eq!(e1, e2);

        let q = QualityException {
            job: JobId(1),
            desired: Proportion::from_ppt(500),
            granted: Proportion::from_ppt(200),
            pressure: 0.5,
            time: 1.0,
        };
        let ev = ControllerEvent::Quality(q);
        assert!(matches!(ev, ControllerEvent::Quality(x) if x.job == JobId(1)));
    }

    #[test]
    fn serde_round_trip() {
        let ev = ControllerEvent::Migrated {
            job: JobId(3),
            from: CpuId(0),
            to: CpuId(1),
        };
        let json = serde_json::to_string(&ev).unwrap();
        let back: ControllerEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(ev, back);
    }
}
