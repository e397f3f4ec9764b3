//! The multi-CPU machine layer.
//!
//! The paper's prototype ran on one 400 MHz CPU; this module makes "the
//! machine" a first-class abstraction so the same dispatcher state machine
//! scales to `N` CPUs.  A [`Machine`] owns one [`Dispatcher`] per CPU —
//! each with its own run queue, timer list and accounting — plus the
//! thread→CPU placement map, and routes every single-CPU call
//! (`add_thread_preadmitted`, `charge_at`, `set_reservation`,
//! `advance_to`, usage queries) to the owning CPU.  With `N = 1` it is a
//! transparent shell around one dispatcher: every operation takes the
//! exact code path the single-CPU system took, so the paper's figures
//! reproduce bit-for-bit.
//!
//! CPUs share one logical clock: [`Machine::advance_to`] moves every
//! dispatcher in lockstep, which is how both the discrete-event simulator
//! and the wall-clock executor drive it.  Cross-CPU migration
//! ([`Machine::migrate`]) transplants a thread's full mid-period state —
//! reservation, throttle status, usage account — via
//! `Dispatcher::take_thread` / `Dispatcher::inject_thread`, so a
//! throttled thread stays throttled until the period boundary its source
//! CPU had scheduled.
//!
//! # Thread handles
//!
//! Every id-keyed method resolves the thread's [`ThreadHandle`] — its CPU
//! and its dense slot in that CPU's dispatcher — through the two id maps
//! (`placement` here, `by_id` in the dispatcher) exactly once and calls
//! its handle-addressed twin (`set_reservation` →
//! [`Machine::set_reservation_at`], and likewise `reservation`,
//! `migrate`), which holds all the logic; block, wake and charge — what a
//! backend does every span — exist only handle-addressed
//! ([`Machine::block_at`], [`Machine::unblock_at`],
//! [`Machine::charge_at`]).  The calls that place
//! a thread ([`Machine::add_thread_preadmitted_on`],
//! [`Machine::inject_thread_on`], [`Machine::migrate_at`],
//! [`Machine::actuate`]) hand the handle back, so
//! a driver that stores it beside the `ThreadId` — both host backends do —
//! never touches a map on its per-cycle paths.  The handle belongs to
//! whoever placed the thread and goes stale when the thread next changes
//! slot: on `migrate*` (which returns the new one), `extract_thread` and
//! `remove_thread`.  A stale handle is harmless: every `_at` method checks
//! on every call that the slot still holds the named id and answers
//! [`SchedError::UnknownThread`] (or `None`) otherwise, so it can never
//! reach the thread that reused the slot; [`Machine::handle_of`] gets a
//! fresh one.

use crate::dispatcher::{
    DispatchOutcome, DispatchStats, Dispatcher, DispatcherConfig, MigratedThread,
};
use crate::error::SchedError;
use crate::reservation::Reservation;
use crate::types::{CpuId, ThreadHandle, ThreadId};
use crate::UsageAccount;
use rrs_telemetry::{Recorder, TraceEventKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-CPU counters of one host run, one entry per CPU.
///
/// The struct lives in the scheduler crate (rather than the simulator
/// that originally defined it) because every host backend — simulated or
/// wall-clock — drives the same [`Machine`] and reports the same per-CPU
/// breakdown.
///
/// `used_us` counts CPU time consumed by jobs while their thread was
/// placed on this CPU (time follows the thread's placement, so a
/// migrating thread's consumption splits across CPUs).  `idle_us` and
/// `deadlines_missed` mirror the owning dispatcher's accounting; the
/// migration counters attribute each applied migration to both its source
/// (`migrations_out`) and destination (`migrations_in`) CPU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CpuStats {
    /// CPU time consumed by threads while placed on this CPU, in
    /// microseconds.
    pub used_us: u64,
    /// Time this CPU had nothing runnable, in microseconds.
    pub idle_us: u64,
    /// Migrations that moved a thread onto this CPU.
    pub migrations_in: u64,
    /// Migrations that moved a thread off this CPU.
    pub migrations_out: u64,
    /// Deadlines missed at period boundaries on this CPU.
    pub deadlines_missed: u64,
}

/// A machine of `N` per-CPU dispatchers behind the single-CPU API.
///
/// # Examples
///
/// ```
/// use rrs_scheduler::{CpuId, Machine, DispatcherConfig, Period, Proportion, Reservation, ThreadId};
///
/// let mut m = Machine::new(DispatcherConfig::default(), 2);
/// let r = Reservation::new(Proportion::from_ppt(400), Period::from_millis(10));
/// // Least-loaded placement: the second thread lands on the other CPU.
/// m.add_thread_preadmitted(ThreadId(1), r).unwrap();
/// m.add_thread_preadmitted(ThreadId(2), r).unwrap();
/// assert_ne!(m.cpu_of(ThreadId(1)), m.cpu_of(ThreadId(2)));
/// assert_eq!(m.dispatch(CpuId(0)).thread.is_some(), true);
/// assert_eq!(m.dispatch(CpuId(1)).thread.is_some(), true);
/// ```
#[derive(Debug)]
pub struct Machine {
    cpus: Vec<Dispatcher>,
    /// Id → CPU, the machine's half of the id edge (the dispatcher's
    /// `by_id` is the other).
    placement: BTreeMap<ThreadId, CpuId>,
    /// Trace-event sink shared with every dispatcher; `None` when
    /// telemetry is disabled.
    telemetry: Option<Arc<Recorder>>,
}

impl Machine {
    /// The largest machine supported.  The controller's
    /// `PlacementConfig::MAX_CPUS` is defined as this bound, so placement
    /// can never address a CPU the machine refuses to grow to.
    pub const MAX_CPUS: usize = 4096;

    /// Creates a machine with `cpus` CPUs (clamped to
    /// `1..=`[`Machine::MAX_CPUS`]), each running a dispatcher with the
    /// given configuration.
    pub fn new(config: DispatcherConfig, cpus: usize) -> Self {
        let n = cpus.clamp(1, Self::MAX_CPUS);
        Self {
            cpus: (0..n).map(|_| Dispatcher::new(config)).collect(),
            placement: BTreeMap::new(),
            telemetry: None,
        }
    }

    /// Attaches (or detaches) a telemetry recorder, distributing it to
    /// every dispatcher (and to CPUs hot-added later).
    pub fn set_telemetry(&mut self, recorder: Option<Arc<Recorder>>) {
        self.telemetry = recorder;
        for (i, d) in self.cpus.iter_mut().enumerate() {
            d.set_telemetry(self.telemetry.clone(), i as u32);
        }
    }

    /// The attached telemetry recorder, if any.
    pub fn telemetry(&self) -> Option<Arc<Recorder>> {
        self.telemetry.clone()
    }

    /// Number of CPUs.
    pub fn cpu_count(&self) -> usize {
        self.cpus.len()
    }

    /// Hot-adds one CPU: a fresh dispatcher (same configuration as the
    /// rest of the machine) advanced to the shared clock, starting with an
    /// empty run queue.  Returns the new CPU's id, or `None` if the
    /// machine is already at [`Machine::MAX_CPUS`].
    ///
    /// There is no hot-*remove*: draining a CPU would require migrating
    /// every thread off it, which is a placement-authority decision, not a
    /// machine-layer one.
    pub(crate) fn add_cpu(&mut self) -> Option<CpuId> {
        if self.cpus.len() >= Self::MAX_CPUS {
            return None;
        }
        let mut d = Dispatcher::new(self.cpus[0].config());
        d.advance_to(self.now_us());
        d.set_telemetry(self.telemetry.clone(), self.cpus.len() as u32);
        self.cpus.push(d);
        Some(CpuId(self.cpus.len() as u32 - 1))
    }

    /// Grows the machine to `cpus` CPUs by hot-adding dispatchers one at
    /// a time (`Machine::add_cpu`), returning the resulting total.
    /// Shrinking is unsupported: a `cpus` at or below the current count
    /// is a no-op, and growth stops at [`Machine::MAX_CPUS`].
    pub fn grow_to(&mut self, cpus: usize) -> usize {
        while self.cpus.len() < cpus {
            if self.add_cpu().is_none() {
                break;
            }
        }
        self.cpus.len()
    }

    /// Read-only access to one CPU's dispatcher.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn dispatcher(&self, cpu: CpuId) -> &Dispatcher {
        &self.cpus[cpu.index()]
    }

    /// Mutable access to one CPU's dispatcher — the calendar driver borrows
    /// it once per window and runs its whole span loop (dispatch, charge,
    /// block, wake, idle booking) against it.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn dispatcher_mut(&mut self, cpu: CpuId) -> &mut Dispatcher {
        &mut self.cpus[cpu.index()]
    }

    /// The CPU a thread is currently placed on.
    pub fn cpu_of(&self, id: ThreadId) -> Option<CpuId> {
        self.placement.get(&id).copied()
    }

    /// A thread's current handle — the id edge, two map lookups.  Valid
    /// for the `_at` methods until the thread migrates or leaves.
    pub fn handle_of(&self, id: ThreadId) -> Option<ThreadHandle> {
        let cpu = self.cpu_of(id)?;
        let slot = self.cpus[cpu.index()].slot_of(id)?;
        Some(ThreadHandle { cpu, slot })
    }

    fn resolve(&self, id: ThreadId) -> Result<ThreadHandle, SchedError> {
        self.handle_of(id).ok_or(SchedError::UnknownThread(id))
    }

    /// The dispatcher a handle points into; a handle naming a CPU the
    /// machine does not have is as stale as one naming a freed slot.
    fn at(&mut self, handle: ThreadHandle, id: ThreadId) -> Result<&mut Dispatcher, SchedError> {
        self.cpus
            .get_mut(handle.cpu.index())
            .ok_or(SchedError::UnknownThread(id))
    }

    /// Total number of threads across all CPUs.
    pub fn thread_count(&self) -> usize {
        self.placement.len()
    }

    /// The shared logical clock, in microseconds (all CPUs advance in
    /// lockstep, so CPU 0's clock is the machine's).
    pub fn now_us(&self) -> u64 {
        self.cpus[0].now_us()
    }

    /// Sum of reserved proportions across all CPUs, in parts per thousand.
    /// Unclamped: an `N`-CPU machine can legitimately report up to
    /// `N × 1000`.
    pub fn total_reserved_ppt(&self) -> u32 {
        self.cpus.iter().map(|d| d.total_reserved_ppt()).sum()
    }

    /// One CPU's reserved load, in parts per thousand.
    pub fn cpu_load_ppt(&self, cpu: CpuId) -> u32 {
        self.cpus[cpu.index()].total_reserved_ppt()
    }

    /// The least-loaded CPU (by reserved proportion), lowest id winning
    /// ties — the machine-level analogue of least-loaded-fit placement.
    pub fn least_loaded_cpu(&self) -> CpuId {
        let mut best = CpuId::ZERO;
        let mut best_load = u32::MAX;
        for (i, d) in self.cpus.iter().enumerate() {
            let load = d.total_reserved_ppt();
            if load < best_load {
                best_load = load;
                best = CpuId(i as u32);
            }
        }
        best
    }

    /// Aggregate dispatch statistics summed over all CPUs.
    pub fn stats(&self) -> DispatchStats {
        let mut total = DispatchStats::default();
        for d in &self.cpus {
            total.merge(&d.stats());
        }
        total
    }

    /// Records that `id` now lives on `cpu` and returns its handle.
    fn placed(&mut self, id: ThreadId, cpu: CpuId) -> ThreadHandle {
        self.placement.insert(id, cpu);
        let slot = self.cpus[cpu.index()]
            .slot_of(id)
            .expect("the dispatcher indexed the thread it just accepted");
        ThreadHandle { cpu, slot }
    }

    /// Registers a pre-admitted thread on the least-loaded CPU (the
    /// controller already ruled on admission).  Returns the chosen CPU.
    pub fn add_thread_preadmitted(
        &mut self,
        id: ThreadId,
        reservation: Reservation,
    ) -> Result<CpuId, SchedError> {
        self.add_thread_preadmitted_on(self.least_loaded_cpu(), id, reservation)
            .map(|handle| handle.cpu)
    }

    /// Registers a pre-admitted thread on an explicit CPU — the placement
    /// authority (the control pipeline's Place stage) has already chosen.
    /// Returns the thread's handle.
    pub fn add_thread_preadmitted_on(
        &mut self,
        cpu: CpuId,
        id: ThreadId,
        reservation: Reservation,
    ) -> Result<ThreadHandle, SchedError> {
        if self.placement.contains_key(&id) {
            return Err(SchedError::DuplicateThread(id));
        }
        self.cpus[cpu.index()].add_thread_preadmitted(id, reservation)?;
        Ok(self.placed(id, cpu))
    }

    /// Removes a thread from whichever CPU holds it.
    pub fn remove_thread(&mut self, id: ThreadId) -> Result<(), SchedError> {
        let cpu = self
            .placement
            .remove(&id)
            .ok_or(SchedError::UnknownThread(id))?;
        self.cpus[cpu.index()].remove_thread(id)
    }

    /// Moves a thread to another CPU, preserving its reservation, throttle
    /// state and mid-period usage account.  Returns the CPU it came from;
    /// migrating a thread to the CPU it is already on is a no-op.
    pub fn migrate(&mut self, id: ThreadId, to: CpuId) -> Result<CpuId, SchedError> {
        let handle = self.resolve(id)?;
        self.migrate_at(handle, id, to).map(|_| handle.cpu)
    }

    /// [`Machine::migrate`] for a caller that holds the thread's handle;
    /// `handle.cpu` is the CPU it comes from.  Returns the thread's new
    /// handle (the old one is stale from here on), or `handle` itself when
    /// the thread is already on `to`.
    pub fn migrate_at(
        &mut self,
        handle: ThreadHandle,
        id: ThreadId,
        to: CpuId,
    ) -> Result<ThreadHandle, SchedError> {
        let from = handle.cpu;
        if !self.at(handle, id)?.holds(handle.slot, id) {
            return Err(SchedError::UnknownThread(id));
        }
        if to.index() >= self.cpus.len() {
            return Err(SchedError::InvalidState(id, "destination CPU out of range"));
        }
        if from == to {
            return Ok(handle);
        }
        let thread = self.cpus[from.index()].take_thread_slot(handle.slot, id)?;
        self.cpus[to.index()]
            .inject_thread(thread)
            .expect("destination cannot already hold the thread");
        let moved = self.placed(id, to);
        if let Some(t) = &self.telemetry {
            t.record(
                self.now_us(),
                TraceEventKind::Migration {
                    thread: id.0,
                    from: from.0,
                    to: to.0,
                },
            );
        }
        Ok(moved)
    }

    /// Applies one controller actuation through the thread's handle: sets
    /// the reservation and, when the controller's Place stage wants the
    /// thread on another `cpu`, migrates it there and refreshes `handle`.
    /// Returns the CPU the thread migrated from, if it migrated.  A failed
    /// migration (destination out of range) leaves the new reservation in
    /// force.
    pub fn actuate(
        &mut self,
        handle: &mut ThreadHandle,
        id: ThreadId,
        reservation: Reservation,
        cpu: CpuId,
    ) -> Result<Option<CpuId>, SchedError> {
        self.set_reservation_at(*handle, id, reservation)?;
        let from = handle.cpu;
        if from == cpu {
            return Ok(None);
        }
        *handle = self.migrate_at(*handle, id, cpu)?;
        Ok(Some(from))
    }

    /// Removes a thread from the machine but returns its transplantable
    /// mid-period state instead of discarding it, so the thread can be
    /// re-injected into a *different* machine (the sharded simulator's
    /// cross-shard migration path).  The counterpart of
    /// [`Machine::inject_thread_on`].
    pub fn extract_thread(&mut self, id: ThreadId) -> Result<MigratedThread, SchedError> {
        let handle = self.resolve(id)?;
        let thread = self.cpus[handle.cpu.index()].take_thread_slot(handle.slot, id)?;
        self.placement.remove(&id);
        Ok(thread)
    }

    /// Installs a thread previously removed with
    /// [`Machine::extract_thread`] (possibly from another machine) on an
    /// explicit CPU, preserving its reservation, throttle state and
    /// mid-period usage account.  Returns the thread's handle.
    pub fn inject_thread_on(
        &mut self,
        cpu: CpuId,
        thread: MigratedThread,
    ) -> Result<ThreadHandle, SchedError> {
        let id = thread.id;
        if cpu.index() >= self.cpus.len() {
            return Err(SchedError::InvalidState(id, "destination CPU out of range"));
        }
        if self.placement.contains_key(&id) {
            return Err(SchedError::DuplicateThread(id));
        }
        self.cpus[cpu.index()].inject_thread(thread)?;
        Ok(self.placed(id, cpu))
    }

    /// Changes a thread's reservation on its current CPU and returns that
    /// CPU.
    pub fn set_reservation(
        &mut self,
        id: ThreadId,
        reservation: Reservation,
    ) -> Result<CpuId, SchedError> {
        let handle = self.resolve(id)?;
        self.set_reservation_at(handle, id, reservation)?;
        Ok(handle.cpu)
    }

    /// [`Machine::set_reservation`] for a caller that holds the thread's
    /// handle — the controller's per-cycle actuation path.
    pub fn set_reservation_at(
        &mut self,
        handle: ThreadHandle,
        id: ThreadId,
        reservation: Reservation,
    ) -> Result<(), SchedError> {
        self.at(handle, id)?
            .set_reservation_slot(handle.slot, id, reservation)
    }

    /// Returns a thread's current reservation.
    pub fn reservation(&self, id: ThreadId) -> Option<Reservation> {
        self.reservation_at(self.handle_of(id)?, id)
    }

    /// [`Machine::reservation`] for a caller that holds the thread's
    /// handle.
    pub fn reservation_at(&self, handle: ThreadHandle, id: ThreadId) -> Option<Reservation> {
        self.cpus
            .get(handle.cpu.index())?
            .reservation_slot(handle.slot, id)
    }

    /// Marks the thread `handle` points at as blocked.
    pub fn block_at(&mut self, handle: ThreadHandle, id: ThreadId) -> Result<(), SchedError> {
        self.at(handle, id)?.block_slot(handle.slot, id)
    }

    /// Wakes the blocked thread `handle` points at — the backends' wake
    /// and poll paths.
    pub fn unblock_at(&mut self, handle: ThreadHandle, id: ThreadId) -> Result<(), SchedError> {
        self.at(handle, id)?.unblock_slot(handle.slot, id)
    }

    /// Charges CPU consumption to the thread `handle` points at.
    pub fn charge_at(
        &mut self,
        handle: ThreadHandle,
        id: ThreadId,
        us: u64,
    ) -> Result<(), SchedError> {
        self.at(handle, id)?.charge_slot(handle.slot, id, us)
    }

    /// Returns a copy of a thread's usage account.
    pub fn usage(&self, id: ThreadId) -> Option<UsageAccount> {
        let cpu = self.placement.get(&id)?;
        self.cpus[cpu.index()].usage(id)
    }

    /// Advances every CPU's clock to `now_us` in lockstep, processing each
    /// CPU's expired throttle-release timers.
    pub fn advance_to(&mut self, now_us: u64) {
        for d in &mut self.cpus {
            d.advance_to(now_us);
        }
    }

    /// Settles every thread's period-boundary backlog on every CPU (see
    /// [`Dispatcher::sync_all`]), so usage queries and statistics reflect
    /// the current instant.
    pub fn sync_all(&mut self) {
        for d in &mut self.cpus {
            d.sync_all();
        }
    }

    /// Visits every thread (machine-wide, CPU 0 first) whose
    /// usage ratio changed since its last visit — the changed-only usage
    /// feed for the controller (see [`Dispatcher::drain_usage_changes`]).
    pub fn drain_usage_changes(&mut self, mut f: impl FnMut(ThreadId, f64)) {
        for d in &mut self.cpus {
            d.drain_usage_changes(&mut f);
        }
    }

    /// Takes one dispatch decision on one CPU.
    pub fn dispatch(&mut self, cpu: CpuId) -> DispatchOutcome {
        self.cpus[cpu.index()].dispatch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Period, Proportion, ThreadState};

    fn res(ppt: u32, period_ms: u64) -> Reservation {
        Reservation::new(Proportion::from_ppt(ppt), Period::from_millis(period_ms))
    }

    fn charge(m: &mut Machine, id: ThreadId, us: u64) {
        let handle = m.handle_of(id).expect("resident");
        m.charge_at(handle, id, us).unwrap();
    }

    #[test]
    fn single_cpu_machine_matches_dispatcher_behaviour() {
        let mut m = Machine::new(DispatcherConfig::default(), 1);
        let mut d = Dispatcher::new(DispatcherConfig::default());
        m.add_thread_preadmitted(ThreadId(1), res(300, 10)).unwrap();
        d.add_thread_preadmitted(ThreadId(1), res(300, 10)).unwrap();
        for _ in 0..50 {
            let om = m.dispatch(CpuId::ZERO);
            let od = d.dispatch();
            assert_eq!(om, od);
            if let Some(t) = om.thread {
                charge(&mut m, t, om.quantum_us);
                d.charge(t, od.quantum_us).unwrap();
            }
            let next = m.now_us() + om.quantum_us;
            m.advance_to(next);
            d.advance_to(next);
        }
        assert_eq!(m.stats(), d.stats());
        assert_eq!(
            m.usage(ThreadId(1)).unwrap().total_used_us,
            d.usage(ThreadId(1)).unwrap().total_used_us
        );
    }

    #[test]
    fn zero_cpus_clamps_to_one() {
        let m = Machine::new(DispatcherConfig::default(), 0);
        assert_eq!(m.cpu_count(), 1);
    }

    #[test]
    fn least_loaded_placement_spreads_threads() {
        let mut m = Machine::new(DispatcherConfig::default(), 4);
        for i in 0..8 {
            m.add_thread_preadmitted(ThreadId(i), res(200, 10)).unwrap();
        }
        // Two threads per CPU: every CPU carries 400 ppt.
        for cpu in (0..m.cpu_count() as u32).map(CpuId) {
            assert_eq!(m.cpu_load_ppt(cpu), 400);
        }
        assert_eq!(m.total_reserved_ppt(), 1600, "aggregate is unclamped");
        assert_eq!(m.thread_count(), 8);
    }

    #[test]
    fn duplicate_ids_rejected_across_cpus() {
        let mut m = Machine::new(DispatcherConfig::default(), 2);
        m.add_thread_preadmitted_on(CpuId(0), ThreadId(1), res(100, 10))
            .unwrap();
        assert_eq!(
            m.add_thread_preadmitted_on(CpuId(1), ThreadId(1), res(1, 10)),
            Err(SchedError::DuplicateThread(ThreadId(1))),
            "a thread exists once per machine, not once per CPU"
        );
    }

    #[test]
    fn migration_preserves_throttled_state_mid_period() {
        let mut m = Machine::new(DispatcherConfig::default(), 2);
        m.add_thread_preadmitted_on(CpuId(0), ThreadId(1), res(100, 10))
            .unwrap();
        let o = m.dispatch(CpuId(0));
        charge(&mut m, ThreadId(1), o.quantum_us);
        assert_eq!(
            m.dispatcher(CpuId(0)).thread_state(ThreadId(1)),
            Some(ThreadState::Throttled)
        );
        let used = m.usage(ThreadId(1)).unwrap().total_used_us;

        let from = m.migrate(ThreadId(1), CpuId(1)).unwrap();
        assert_eq!(from, CpuId(0));
        assert_eq!(m.cpu_of(ThreadId(1)), Some(CpuId(1)));
        assert_eq!(
            m.dispatcher(CpuId(1)).thread_state(ThreadId(1)),
            Some(ThreadState::Throttled),
            "throttle survives migration"
        );
        assert_eq!(m.usage(ThreadId(1)).unwrap().total_used_us, used);
        assert_eq!(m.dispatch(CpuId(1)).thread, None, "still parked");
        // The original period boundary replenishes it on the new CPU.
        m.advance_to(10_000);
        assert_eq!(m.dispatch(CpuId(1)).thread, Some(ThreadId(1)));
        // The source CPU no longer knows it.
        assert_eq!(m.dispatch(CpuId(0)).thread, None);
        assert_eq!(m.cpu_load_ppt(CpuId(0)), 0);
        assert_eq!(m.cpu_load_ppt(CpuId(1)), 100);
    }

    #[test]
    fn migrate_to_same_cpu_is_a_noop() {
        let mut m = Machine::new(DispatcherConfig::default(), 2);
        m.add_thread_preadmitted_on(CpuId(1), ThreadId(1), res(100, 10))
            .unwrap();
        assert_eq!(m.migrate(ThreadId(1), CpuId(1)), Ok(CpuId(1)));
        assert_eq!(m.cpu_of(ThreadId(1)), Some(CpuId(1)));
    }

    #[test]
    fn migrate_errors() {
        let mut m = Machine::new(DispatcherConfig::default(), 2);
        assert_eq!(
            m.migrate(ThreadId(9), CpuId(1)),
            Err(SchedError::UnknownThread(ThreadId(9)))
        );
        m.add_thread_preadmitted_on(CpuId(0), ThreadId(1), res(100, 10))
            .unwrap();
        assert!(matches!(
            m.migrate(ThreadId(1), CpuId(7)),
            Err(SchedError::InvalidState(_, _))
        ));
    }

    #[test]
    fn lockstep_advance_and_aggregate_stats() {
        let mut m = Machine::new(DispatcherConfig::default(), 2);
        m.add_thread_preadmitted_on(CpuId(0), ThreadId(1), res(300, 10))
            .unwrap();
        m.add_thread_preadmitted_on(CpuId(1), ThreadId(2), res(300, 10))
            .unwrap();
        for _ in 0..20 {
            let mut max_q = 1;
            for cpu in [CpuId(0), CpuId(1)] {
                let o = m.dispatch(cpu);
                if let Some(t) = o.thread {
                    charge(&mut m, t, o.quantum_us);
                }
                max_q = max_q.max(o.quantum_us);
            }
            m.advance_to(m.now_us() + max_q);
        }
        for cpu in (0..m.cpu_count() as u32).map(CpuId) {
            assert_eq!(m.dispatcher(cpu).now_us(), m.now_us(), "lockstep clocks");
        }
        // Boundaries roll when a thread is next touched; settle them all.
        m.sync_all();
        let agg = m.stats();
        assert_eq!(agg.dispatches, 40);
        assert!(agg.period_rollovers > 0);
        // Both CPUs' threads consumed.
        for id in [ThreadId(1), ThreadId(2)] {
            assert!(m.usage(id).unwrap().total_used_us > 0);
        }
        assert_eq!(agg.deadlines_missed, 0);
    }

    #[test]
    fn remove_thread_frees_its_cpu() {
        let mut m = Machine::new(DispatcherConfig::default(), 2);
        m.add_thread_preadmitted(ThreadId(1), res(500, 10)).unwrap();
        m.remove_thread(ThreadId(1)).unwrap();
        assert_eq!(m.thread_count(), 0);
        assert_eq!(m.total_reserved_ppt(), 0);
        assert_eq!(
            m.remove_thread(ThreadId(1)),
            Err(SchedError::UnknownThread(ThreadId(1)))
        );
        assert_eq!(m.reservation(ThreadId(1)), None);
        assert!(m.usage(ThreadId(1)).is_none());
        assert!(m.usage(ThreadId(1)).is_none());
    }
}
