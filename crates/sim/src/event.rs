//! The typed events the simulator's calendar schedules.

use rrs_scheduler::ThreadId;

/// One scheduled occurrence in the simulator's event calendar.
///
/// Everything that changes the dispatch assignment — controller cycles,
/// trace samples, workload wake-ups — is a typed entry in the
/// [`crate::calendar::Schedule`]; between events nothing happens that the
/// dispatch assignment cannot describe analytically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A controller cycle is due: drain usage feedback, run the pipeline,
    /// apply the changed reservations, charge the modelled cost.
    Controller,
    /// A trace sample is due.
    Trace,
    /// A blocked thread announced (via
    /// [`crate::workload::WorkModel::next_transition`]) that it becomes
    /// runnable at this instant.
    Wake(ThreadId),
    /// At least one blocked thread could not announce its wake-up time;
    /// poll all such threads now (at dispatch-interval cadence).
    PollTick,
    /// The end of the current `run_for` window.  Nothing is processed —
    /// the loop stops exactly here so events landing *on* the horizon
    /// fire when the run resumes.
    Horizon,
}

impl Event {
    /// Tie-breaking rank for events scheduled at the same instant:
    /// controller work first, then the trace sample, then wake-ups.
    pub(crate) fn priority(&self) -> u8 {
        match self {
            Event::Controller => 0,
            Event::Trace => 1,
            Event::Wake(_) => 2,
            Event::PollTick => 3,
            Event::Horizon => 4,
        }
    }
}
