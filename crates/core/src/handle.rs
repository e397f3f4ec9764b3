//! The job handle shared by every host backend.
//!
//! Historically the simulator and the wall-clock executor each defined
//! their own structurally identical handle type, which forked the front
//! door: workloads written against one backend could not hand their
//! handles to the other.  The single [`JobHandle`] lives here, one layer
//! below both backends, so a handle means the same thing everywhere: the
//! job's id (which is also its scheduler thread's) and the controller's
//! dense slot.

use crate::controller::JobId;
use crate::slot::JobSlot;
use rrs_scheduler::ThreadId;

/// Handle to a job registered with a host (simulator or wall-clock
/// executor).
///
/// Handles are small `Copy` values; holding one does not keep the job
/// alive.  The `slot` field is the controller's dense slot, shared by
/// every layer, so control-plane queries are `O(1)` without id lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobHandle {
    /// The controller-side job id.
    pub job: JobId,
    /// The controller's dense slot handle, shared by every layer.
    pub slot: JobSlot,
}

impl JobHandle {
    /// The scheduler-side thread id serving the job: the same raw value.
    #[inline]
    pub fn thread(self) -> ThreadId {
        ThreadId(self.job.0)
    }
}
