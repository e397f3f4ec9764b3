//! The feedback loop itself: sense → control → actuate, once.
//!
//! The paper has exactly one closed loop (§3, Figure 2): progress and
//! usage are sensed, the controller computes proportion and period, and
//! the result is actuated on the reservation scheduler.  [`ControlLoop`]
//! is that loop as a value.  It owns the [`Controller`], the
//! [`Machine`], the table of where each controller slot's scheduler
//! thread sits, the run's counters ([`SimStats`]) and the optional
//! trace [`Recorder`], and it holds every step both host backends share:
//! admission, retirement, cross-machine extract/inject, the controller
//! cycle, the statistics and telemetry views, CPU hot-add and the
//! next-cycle-due clock.
//!
//! A backend — the simulator, the wall-clock executor — keeps only what
//! really differs: how time passes, how a work model's consumption is
//! realised, and who is blocked waiting for what.

use crate::controller::{AdmitError, Controller, JobId, MigratedJob, UsageSnapshot};
use crate::events::ControllerEvent;
use crate::handle::JobHandle;
use crate::slot::JobSlot;
use crate::taxonomy::JobSpec;
use crate::time::SimTime;
use crate::ControllerConfig;
use rrs_queue::MetricRegistry;
use rrs_scheduler::telemetry::{Recorder, TelemetryConfig, TelemetrySnapshot, TraceEventKind};
use rrs_scheduler::{
    CpuId, CpuStats, Dispatcher, DispatcherConfig, Machine, MigratedThread, Period, Reservation,
    ThreadHandle, ThreadId, UsageAccount,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Aggregate statistics of a host run — one struct on every backend.
///
/// The name dates from when only the simulator reported it.  On the
/// wall-clock backend `steps` counts scheduling rounds, the two modelled
/// overhead sums stay zero unless the backend books them, and
/// timing-dependent fields (usage, idle) are only as deterministic as the
/// OS scheduler underneath.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Number of controller invocations.
    pub controller_invocations: u64,
    /// Total modelled controller execution cost, in microseconds.
    pub controller_cost_us: f64,
    /// Total modelled dispatcher overhead, in microseconds.
    pub dispatch_overhead_us: f64,
    /// Number of quality exceptions raised.
    pub quality_exceptions: u64,
    /// Number of control cycles in which allocations were squished.
    pub squish_events: u64,
    /// Number of real-time admission rejections observed.
    pub admission_rejections: u64,
    /// Number of cross-CPU migrations applied.
    pub migrations: u64,
    /// Number of scheduling steps executed.  On the simulator this counts
    /// *events handled* (controller cycles, trace samples, wake-ups, poll
    /// ticks); on the wall-clock executor it counts dispatch sweeps.
    pub steps: u64,
    /// Per-CPU breakdown (usage, idle, migrations), one entry per CPU.
    /// The machine-wide aggregates above are sums over these entries plus
    /// the controller's own counters, so consumers no longer recompute
    /// per-CPU views from job handles.
    pub per_cpu: Vec<CpuStats>,
}

impl SimStats {
    /// Total CPU time consumed by jobs across all CPUs, in microseconds.
    pub fn total_used_us(&self) -> u64 {
        self.per_cpu.iter().map(|c| c.used_us).sum()
    }

    /// Total idle time across all CPUs, in microseconds.
    pub fn idle_us(&self) -> u64 {
        self.per_cpu.iter().map(|c| c.idle_us).sum()
    }
}

/// The handle an unbound slot holds: it names no CPU, so the machine
/// answers every call through it as a stale handle.
const UNBOUND: ThreadHandle = ThreadHandle {
    cpu: CpuId(u32::MAX),
    slot: u32::MAX,
};

/// One controller driving one machine: the state and the steps every host
/// backend shares.
///
/// # Examples
///
/// ```
/// use rrs_core::{ControlLoop, ControllerConfig, JobSpec, SimTime};
/// use rrs_queue::MetricRegistry;
/// use rrs_scheduler::DispatcherConfig;
///
/// let mut ctl = ControlLoop::new(
///     ControllerConfig::default(),
///     DispatcherConfig::default(),
///     MetricRegistry::new(),
/// );
/// let job = ctl.admit(JobSpec::miscellaneous()).unwrap();
/// // A backend would now dispatch `ctl.machine_mut()` and `ctl.charge`
/// // what ran; when a cycle comes due it runs it and re-arms the clock.
/// let now = ctl.next_cycle_us();
/// ctl.cycle(SimTime::from_micros(now), 0);
/// assert_eq!(ctl.slot_of(job.thread()), Some(job.slot));
/// assert!(ctl.skip_to_next_cycle(now) > now);
/// assert_eq!(ctl.stats().controller_invocations, 1);
/// ctl.retire(job);
/// ```
#[derive(Debug)]
pub struct ControlLoop {
    controller: Controller,
    machine: Machine,
    /// Controller slot index → where the thread serving that job sits on
    /// the machine, the only copy of the handle: written where the thread
    /// is placed (`admit`, `inject`), refreshed where it moves
    /// ([`Machine::actuate`]) and set to `UNBOUND` where it leaves.  It is
    /// all a slot keeps: each call through it names the thread, which the
    /// machine checks, so a slot's former tenant cannot reach its next one.
    /// The way back is the thread's owner tag, its slot index, handed back
    /// with a dispatch ([`Dispatcher::span_owner`]) and a usage report.
    threads: Vec<ThreadHandle>,
    stats: SimStats,
    /// The structured trace recorder, when telemetry is enabled.  `None`
    /// (the default) keeps every hot path on a single branch.
    recorder: Option<Arc<Recorder>>,
    next_id: u64,
    /// Gap between consecutively allocated raw ids (see
    /// [`ControlLoop::with_ids`]).
    id_stride: u64,
    period_us: u64,
    next_cycle_us: u64,
    /// When the last controller cycle ran, in microseconds (zero before
    /// the first); the next cycle's `dt` is measured from here.
    last_cycle_us: u64,
}

impl ControlLoop {
    /// Creates a loop over a fresh controller and a fresh machine of
    /// `controller.placement` CPUs.  The controller keeps its caches
    /// between cycles ([`ControllerConfig::incremental`] is forced on), as
    /// the loop's integer-tick `dt` lets it.  The first cycle is due one
    /// controller period after time zero.
    pub fn new(
        mut controller: ControllerConfig,
        dispatcher: DispatcherConfig,
        registry: MetricRegistry,
    ) -> Self {
        controller.incremental = true;
        let machine = Machine::new(dispatcher, controller.placement.cpu_count());
        let period_us = ((controller.controller_period_s * 1e6).round() as u64).max(1);
        let mut controller = Controller::new(controller, registry);
        controller.set_dispatch_interval_us(dispatcher.dispatch_interval_us);
        Self {
            stats: SimStats {
                per_cpu: vec![CpuStats::default(); machine.cpu_count()],
                ..SimStats::default()
            },
            controller,
            machine,
            threads: Vec::new(),
            recorder: None,
            next_id: 1,
            id_stride: 1,
            period_us,
            next_cycle_us: period_us,
            last_cycle_us: 0,
        }
    }

    /// Returns the loop allocating raw job/thread ids `first_id, first_id +
    /// id_stride, ...` (both clamped to at least 1).
    ///
    /// The sharded simulator gives shard `k` of `S` the ids `k + 1, k + 1 +
    /// S, ...`, so ids stay globally unique and a job migrating between
    /// shards keeps its `JobId`/`ThreadId`/registry key.
    pub fn with_ids(mut self, first_id: u64, id_stride: u64) -> Self {
        self.next_id = first_id.max(1);
        self.id_stride = id_stride.max(1);
        self
    }

    /// Read-only access to the controller.
    #[inline]
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Read-only access to the machine.
    #[inline]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The machine, for the backend's dispatch / charge / block calls.
    /// Placing, moving and removing threads goes through the loop, which
    /// keeps the slot table in step.
    #[inline]
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The counters, for what only the backend can book: steps, per-CPU
    /// consumption, modelled dispatch overhead.
    #[inline]
    pub fn stats_mut(&mut self) -> &mut SimStats {
        &mut self.stats
    }

    /// The trace recorder, if telemetry is enabled.
    #[inline]
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.recorder.as_ref()
    }

    /// One CPU's share of the loop, split-borrowed for a backend's span
    /// loop: the CPU's dispatcher, whose picks name their job by owner tag
    /// ([`Dispatcher::span_owner`]: the slot index), and the recorder.
    /// Taken once per window, so the loop body re-resolves neither; what
    /// the window books (per-CPU use, dispatch overhead) goes through
    /// [`ControlLoop::stats_mut`] once it is over.
    #[inline]
    pub fn cpu_window(&mut self, cpu: CpuId) -> (&mut Dispatcher, Option<&Arc<Recorder>>) {
        (self.machine.dispatcher_mut(cpu), self.recorder.as_ref())
    }

    fn bind(&mut self, slot: JobSlot, handle: ThreadHandle) {
        if self.threads.len() <= slot.index() {
            self.threads.resize(slot.index() + 1, UNBOUND);
        }
        self.threads[slot.index()] = handle;
    }

    /// The controller slot of the job `thread` serves, if it serves one
    /// here: `None` once the job is retired or extracted, whoever holds
    /// its slot index now.  An id lookup, for the API edge; a thread the
    /// machine hands back carries its slot index as its owner tag.
    #[inline]
    pub fn slot_of(&self, thread: ThreadId) -> Option<JobSlot> {
        self.controller.slot_of(JobId(thread.0))
    }

    /// Admits a job: the controller rules on admission (real-time specs)
    /// and picks the CPU (least-loaded fit), and the job's thread starts
    /// there from its requested reservation or the minimum allocation.  A
    /// rejected real-time reservation is counted in
    /// [`SimStats::admission_rejections`] and consumes no id.
    pub fn admit(&mut self, spec: JobSpec) -> Result<JobHandle, AdmitError> {
        let job = JobId(self.next_id);
        let slot = self.controller.add_job(job, spec).inspect_err(|e| {
            if matches!(e, AdmitError::Rejected { .. }) {
                self.stats.admission_rejections += 1;
            }
        })?;
        self.next_id += self.id_stride;
        let config = self.controller.config();
        let initial = Reservation::new(
            spec.proportion.unwrap_or(config.min_proportion),
            spec.period.unwrap_or(Period::DEFAULT),
        );
        let cpu = self
            .controller
            .cpu_of_slot(slot)
            .expect("slot was just created");
        let handle = self
            .machine
            .add_thread_preadmitted_on(cpu, ThreadId(job.0), initial, slot.index() as u32)
            .expect("fresh thread id cannot clash");
        self.bind(slot, handle);
        Ok(JobHandle { job, slot })
    }

    /// Removes a job: withdraws its reservation, deregisters it from the
    /// controller (detaching its registry entries) and frees its slot.
    /// Unknown or already-removed handles are a no-op.
    pub fn retire(&mut self, handle: JobHandle) {
        if self.controller.job_of(handle.slot) != Some(handle.job) {
            return;
        }
        let thread = std::mem::replace(&mut self.threads[handle.slot.index()], UNBOUND);
        let _ = self.machine.remove_thread_at(thread, handle.thread());
        self.controller.remove_slot(handle.slot);
    }

    /// Detaches a job's controller entry and scheduler thread, mid-period
    /// state intact, for [`ControlLoop::inject`] into another loop.  The
    /// job's queue-metric attachments stay registered.  Returns `None` if
    /// the job is unknown.
    pub fn extract(&mut self, job: JobId) -> Option<(MigratedJob, MigratedThread)> {
        let slot = self.controller.slot_of(job)?;
        let mjob = self
            .controller
            .extract_job(job)
            .expect("slot resolved above");
        let thread = std::mem::replace(&mut self.threads[slot.index()], UNBOUND);
        let mthread = self
            .machine
            .extract_thread_at(thread, ThreadId(job.0))
            .expect("a live slot's handle points at its thread");
        Some((mjob, mthread))
    }

    /// Installs a job detached by [`ControlLoop::extract`] on an explicit
    /// CPU of this machine.  No admission control runs — the caller has
    /// already ruled on capacity; fails only on a duplicate id.
    pub fn inject(
        &mut self,
        mjob: MigratedJob,
        mthread: MigratedThread,
        cpu: CpuId,
    ) -> Result<JobHandle, AdmitError> {
        let job = mjob.job();
        let slot = self.controller.inject_job(mjob, cpu)?;
        let handle = self
            .machine
            .inject_thread_on(cpu, mthread, slot.index() as u32)
            .expect("controller accepted the id, so the machine must too");
        self.bind(slot, handle);
        Ok(JobHandle { job, slot })
    }

    /// Where the thread serving `slot` sits on the machine.  The machine
    /// checks every call through it against the thread the caller names,
    /// and thread ids are never reused, so a slot left over from a removed
    /// job cannot reach the slot's next tenant.
    fn handle_at(&self, slot: JobSlot) -> Option<ThreadHandle> {
        self.threads.get(slot.index()).copied()
    }

    /// Wakes `thread`, the thread serving `slot`; a stale slot or a thread
    /// that is not blocked is a no-op.
    pub fn unblock(&mut self, slot: JobSlot, thread: ThreadId) {
        if let Some(handle) = self.handle_at(slot) {
            let _ = self.machine.unblock_at(handle, thread);
        }
    }

    /// Marks `thread`, the thread serving `slot`, as blocked; a stale slot
    /// is a no-op.
    pub fn block(&mut self, slot: JobSlot, thread: ThreadId) {
        if let Some(handle) = self.handle_at(slot) {
            let _ = self.machine.block_at(handle, thread);
        }
    }

    /// Charges `us` of consumption to `thread`, the thread serving `slot`,
    /// and books it on the CPU the thread sits on; a stale slot is a
    /// no-op.
    pub fn charge(&mut self, slot: JobSlot, thread: ThreadId, us: u64) {
        if let Some(handle) = self.handle_at(slot) {
            if self.machine.charge_at(handle, thread, us).is_ok() {
                self.stats.per_cpu[handle.cpu.index()].used_us += us;
            }
        }
    }

    /// The reservation currently held by `thread`, the thread serving
    /// `slot`.
    pub fn reservation(&self, slot: JobSlot, thread: ThreadId) -> Option<Reservation> {
        self.machine.reservation_at(self.handle_at(slot)?, thread)
    }

    /// The CPU `thread`, the thread serving `slot`, sits on.
    pub fn cpu_of(&self, slot: JobSlot, thread: ThreadId) -> Option<CpuId> {
        let handle = self.handle_at(slot)?;
        self.machine.holds(handle, thread).then_some(handle.cpu)
    }

    /// A copy of the usage account of `thread`, the thread serving `slot`.
    pub fn usage(&self, slot: JobSlot, thread: ThreadId) -> Option<UsageAccount> {
        self.machine.usage_at(self.handle_at(slot)?, thread)
    }

    /// Sets the reservation of `thread`, the thread serving `slot`,
    /// outside the controller's actuation; a stale slot is a no-op.
    pub fn set_reservation(&mut self, slot: JobSlot, thread: ThreadId, reservation: Reservation) {
        if let Some(handle) = self.handle_at(slot) {
            let _ = self.machine.set_reservation_at(handle, thread, reservation);
        }
    }

    /// When the next controller cycle is due, in microseconds.
    #[inline]
    pub fn next_cycle_us(&self) -> u64 {
        self.next_cycle_us
    }

    /// Moves the next-cycle-due time past `now_us` on the period grid and
    /// returns it.  Ticks missed during a stall (or while the cycle's own
    /// modelled cost was charged to the clock) are skipped, not replayed
    /// back to back with near-zero `dt`.
    pub fn skip_to_next_cycle(&mut self, now_us: u64) -> u64 {
        while self.next_cycle_us <= now_us {
            self.next_cycle_us += self.period_us;
        }
        self.next_cycle_us
    }

    /// Runs one controller cycle at `now` and returns its modelled
    /// execution cost in whole microseconds, for the caller to charge to
    /// its clock (or not) before calling
    /// [`ControlLoop::skip_to_next_cycle`].
    ///
    /// * **Sense**: drains the usage ratios that changed since the last
    ///   cycle ([`Machine::drain_usage_changes`]) into the controller's
    ///   sticky snapshots, each reporting thread resolved by its owner tag
    ///   (its slot index).
    /// * **Control**: the cycle length is the exact integer time since the
    ///   previous cycle (at least one microsecond), whatever the backend's
    ///   clock.
    /// * **Actuate**: applies each actuation through the slot table; a
    ///   thread the Place rule moved migrates, is counted on both CPUs,
    ///   and is charged `migration_cost_us` (cache and TLB refill on the
    ///   destination; zero on a backend that pays it for real).
    pub fn cycle(&mut self, now: SimTime, migration_cost_us: u64) -> u64 {
        let Self {
            controller,
            machine,
            threads,
            stats,
            recorder,
            last_cycle_us,
            ..
        } = self;
        machine.drain_usage_changes(|_, owner, ratio| {
            if let Some(slot) = controller.slot_at(owner) {
                controller.record_usage(slot, UsageSnapshot { usage_ratio: ratio });
            }
        });
        let dt_us = now.as_micros().saturating_sub(*last_cycle_us).max(1);
        *last_cycle_us = now.as_micros();
        let full_before = controller.cycle_counts().0;
        // allow(determinism): wall-clock duration of the controller cycle
        // for the telemetry recorder only; never read back by the loop, so
        // event order and SimStats are identical with and without it.
        // Allowlisted in analysis.json.
        let timer = recorder.as_ref().map(|_| std::time::Instant::now());
        controller.control_cycle_with_dt(now.as_secs_f64(), dt_us as f64 * 1e-6);
        let out = controller.output();
        stats.controller_invocations += 1;
        stats.controller_cost_us += out.cost_us;
        for event in &out.events {
            match event {
                ControllerEvent::Quality(_) => stats.quality_exceptions += 1,
                ControllerEvent::Squished { .. } => stats.squish_events += 1,
                _ => {}
            }
        }
        for actuation in &out.actuations {
            let (Some(handle), Some(job)) = (
                threads.get_mut(actuation.slot.index()),
                controller.job_of(actuation.slot),
            ) else {
                continue;
            };
            let thread = ThreadId(job.0);
            let moved = machine.actuate(handle, thread, actuation.reservation, actuation.cpu);
            if let Ok(Some(from)) = moved {
                stats.migrations += 1;
                stats.per_cpu[from.index()].migrations_out += 1;
                stats.per_cpu[actuation.cpu.index()].migrations_in += 1;
                if migration_cost_us > 0 {
                    let _ = machine.charge_at(*handle, thread, migration_cost_us);
                }
            }
        }
        let cost_us = out.cost_us.round() as u64;
        if let (Some(recorder), Some(started)) = (recorder, timer) {
            let incremental = controller.cycle_counts().0 == full_before;
            let mut stage_ns = [0u32; 6];
            if !incremental {
                for (dst, src) in stage_ns.iter_mut().zip(controller.last_stage_ns()) {
                    *dst = src.min(u32::MAX as u64) as u32;
                }
            }
            recorder.record(
                now.as_micros(),
                TraceEventKind::ControllerCycle {
                    dur_ns: started.elapsed().as_nanos() as u64,
                    incremental,
                    jobs: controller.job_count() as u32,
                    stage_ns,
                },
            );
        }
        cost_us
    }

    /// Aggregate statistics, with the per-CPU idle and deadline counters
    /// filled in from the machine's dispatchers at read time.
    pub fn stats(&self) -> SimStats {
        let mut stats = self.stats.clone();
        for (i, cpu) in stats.per_cpu.iter_mut().enumerate() {
            let d = self.machine.dispatcher(CpuId(i as u32)).stats();
            cpu.idle_us = d.idle_us;
            cpu.deadlines_missed = d.deadlines_missed;
        }
        stats
    }

    /// A point-in-time snapshot of the subsystem counters: quantum-cache
    /// hits/misses, settles by reason, controller cycle split and stage
    /// timing, machine-level dispatch totals.  One schema on every
    /// backend; a backend with an event calendar adds its `events_*`
    /// counts on top.
    ///
    /// The counters behind this are always on (plain integer increments on
    /// paths that already write statistics); only the `trace_events_*`
    /// fields require an enabled recorder.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let dispatch = self.machine.stats();
        let (full, incremental) = self.controller.cycle_counts();
        let stage = self.controller.stage_total_ns();
        TelemetrySnapshot {
            quantum_cache_hits: dispatch.quantum_cache_hits,
            quantum_cache_misses: dispatch.quantum_cache_misses,
            settles_goodness: 0,
            settles_period_boundary: dispatch.settles_period_boundary,
            settles_throttle_edge: dispatch.settles_throttle_edge,
            settles_zero_span: dispatch.settles_zero_span,
            controller_full_cycles: full,
            controller_incremental_cycles: incremental,
            stage_sense_ns: stage[0],
            stage_classify_ns: stage[1],
            stage_estimate_ns: stage[2],
            stage_allocate_ns: stage[3],
            stage_place_ns: stage[4],
            stage_actuate_ns: stage[5],
            dispatches: dispatch.dispatches,
            context_switches: dispatch.context_switches,
            period_rollovers: dispatch.period_rollovers,
            migrations: self.stats.migrations,
            trace_events_recorded: self.recorder.as_ref().map_or(0, |r| r.recorded()),
            trace_events_dropped: self.recorder.as_ref().map_or(0, |r| r.dropped()),
            ..TelemetrySnapshot::default()
        }
        .finalize()
    }

    /// Grows the machine to `cpus` CPUs mid-run (hot-add), returning the
    /// resulting CPU count.
    ///
    /// New CPUs join with empty run queues at the shared clock; the
    /// controller's Place rule starts fitting jobs onto them (and its
    /// machine-wide squish capacity widens) on its next cycle.  Shrinking
    /// is not supported — the machine layer has no hot-remove — so a
    /// `cpus` at or below the current count is a no-op.  The count stays
    /// clamped to [`Machine::MAX_CPUS`].
    pub fn grow_cpus(&mut self, cpus: usize) -> usize {
        let n = self.machine.grow_to(cpus);
        self.controller.grow_cpus(n);
        self.stats.per_cpu.resize(n, CpuStats::default());
        n
    }

    /// Enables structured trace recording and controller stage timing,
    /// returning the shared recorder.
    ///
    /// The ring buffer is allocated up front
    /// ([`TelemetryConfig::ring_capacity`] events); once warm, recording
    /// overwrites the oldest entry and never allocates.  Calling this again
    /// replaces the recorder (and its ring).
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) -> Arc<Recorder> {
        let recorder = Recorder::new(config);
        self.attach_telemetry(recorder.clone());
        recorder
    }

    /// Attaches an *existing* recorder instead of creating one — the
    /// sharded simulator shares one ring across every shard.
    pub fn attach_telemetry(&mut self, recorder: Arc<Recorder>) {
        self.machine.set_telemetry(Some(recorder.clone()));
        self.controller.set_stage_timing(recorder.stage_timing());
        self.recorder = Some(recorder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_queue::{BoundedBuffer, JobKey, Role};
    use rrs_scheduler::{Period, Proportion, ThreadState};

    fn bare(cpus: usize) -> ControlLoop {
        ControlLoop::new(
            ControllerConfig::default().with_cpus(cpus),
            DispatcherConfig::default(),
            MetricRegistry::new(),
        )
    }

    /// Runs the cycle that is due, as a backend with no work to simulate
    /// would: straight at its due time, cost not charged.
    fn run_due_cycle(ctl: &mut ControlLoop) {
        let now = ctl.next_cycle_us();
        ctl.cycle(SimTime::from_micros(now), 0);
        ctl.skip_to_next_cycle(now);
    }

    fn state_of(ctl: &ControlLoop, thread: ThreadId) -> Option<ThreadState> {
        let cpu = ctl.machine().cpu_of(thread)?;
        ctl.machine().dispatcher(cpu).thread_state(thread)
    }

    #[test]
    fn rejection_is_counted_once_and_consumes_no_id() {
        let mut ctl = bare(1);
        let rt = |ppt| JobSpec::real_time(Proportion::from_ppt(ppt), Period::from_millis(10));
        let first = ctl.admit(rt(800)).unwrap();
        assert_eq!(first.job, JobId(1));
        assert!(matches!(
            ctl.admit(rt(400)),
            Err(AdmitError::Rejected { .. })
        ));
        assert_eq!(ctl.stats().admission_rejections, 1);
        assert_eq!(ctl.machine().thread_count(), 1, "nothing was placed");
        let next = ctl.admit(JobSpec::miscellaneous()).unwrap();
        assert_eq!(next.job, JobId(2), "the rejected request took no id");
        assert_eq!(next.thread(), ThreadId(2));
        assert_eq!(ctl.stats().admission_rejections, 1);
    }

    #[test]
    fn admit_cycle_retire_clears_the_slot_entry_and_reuses_it() {
        let mut ctl = bare(1);
        let a = ctl.admit(JobSpec::miscellaneous()).unwrap();
        let initial = ctl
            .reservation(a.slot, a.thread())
            .expect("placed at admission");
        assert_eq!(
            initial.proportion,
            ControllerConfig::default().min_proportion
        );
        for _ in 0..50 {
            run_due_cycle(&mut ctl);
        }
        assert_eq!(ctl.stats().controller_invocations, 50);
        assert_eq!(ctl.last_cycle_us, 500_000);
        assert_eq!(ctl.next_cycle_us(), 510_000);
        let grown = ctl.reservation(a.slot, a.thread()).unwrap();
        assert!(
            grown.proportion.ppt() > initial.proportion.ppt(),
            "the cycle's actuations reach the thread through the slot table"
        );

        assert_eq!(ctl.slot_of(a.thread()), Some(a.slot));
        ctl.retire(a);
        assert_eq!(ctl.reservation(a.slot, a.thread()), None, "entry cleared");
        assert_eq!(ctl.slot_of(a.thread()), None, "both ways");
        assert_eq!(ctl.controller().job_count(), 0);
        assert_eq!(ctl.machine().thread_count(), 0);
        ctl.retire(a); // an already-removed handle is a no-op

        let b = ctl.admit(JobSpec::miscellaneous()).unwrap();
        assert_eq!(b.slot.index(), a.slot.index(), "slot reused");
        assert!(ctl.reservation(b.slot, b.thread()).is_some());
        assert_eq!(ctl.slot_of(b.thread()), Some(b.slot));
        assert_eq!(
            ctl.slot_of(a.thread()),
            None,
            "a's id does not follow the index"
        );
        // The leftover handle reaches neither the entry nor its new tenant.
        assert_eq!(ctl.reservation(a.slot, a.thread()), None);
        ctl.retire(a);
        assert_eq!(ctl.controller().job_count(), 1, "b survives a's handle");
        run_due_cycle(&mut ctl);
        assert!(ctl.reservation(b.slot, b.thread()).is_some());
    }

    #[test]
    fn place_stage_migration_refreshes_the_handle_in_the_slot_table() {
        // a, b, c land cpu0 / cpu1 / cpu0; retiring b empties cpu1 while
        // a and c crowd cpu0, so the Place rule migrates one of them.
        let mut ctl = bare(2);
        let a = ctl.admit(JobSpec::miscellaneous()).unwrap();
        let b = ctl.admit(JobSpec::miscellaneous()).unwrap();
        let c = ctl.admit(JobSpec::miscellaneous()).unwrap();
        let before = [a, c].map(|h| ctl.machine().handle_of(h.thread()).unwrap());
        assert_eq!(before[0].cpu, before[1].cpu);
        ctl.retire(b);
        for _ in 0..1_000 {
            if ctl.stats().migrations > 0 {
                break;
            }
            run_due_cycle(&mut ctl);
        }
        let stats = ctl.stats();
        assert_eq!(stats.migrations, 1, "one survivor moved");
        assert_eq!(stats.per_cpu[0].migrations_out, 1);
        assert_eq!(stats.per_cpu[1].migrations_in, 1);
        assert_eq!(ctl.telemetry().migrations, 1);
        let (moved, stale) = if ctl.machine().cpu_of(a.thread()) == Some(CpuId(1)) {
            (a, before[0])
        } else {
            (c, before[1])
        };
        let fresh = ctl.machine().handle_of(moved.thread()).unwrap();
        assert_ne!(fresh, stale, "the pre-migration handle is stale");
        // The table holds the fresh one: the next cycles' actuations and
        // a wake-up still reach the thread on its new CPU.
        ctl.block(moved.slot, moved.thread());
        ctl.unblock(moved.slot, moved.thread());
        assert_eq!(state_of(&ctl, moved.thread()), Some(ThreadState::Ready));
        run_due_cycle(&mut ctl);
        assert_eq!(
            ctl.reservation(moved.slot, moved.thread()),
            ctl.machine().reservation_at(fresh, moved.thread())
        );

        // The slot's next tenant is out of reach of everything left over
        // from the old one: its handle, its slot, its id.
        ctl.retire(moved);
        let tenant = ctl.admit(JobSpec::miscellaneous()).unwrap();
        assert_eq!(tenant.slot.index(), moved.slot.index());
        ctl.block(tenant.slot, tenant.thread());
        ctl.unblock(moved.slot, moved.thread());
        assert_eq!(state_of(&ctl, tenant.thread()), Some(ThreadState::Blocked));
        assert_eq!(ctl.machine().reservation_at(stale, moved.thread()), None);
        assert_eq!(ctl.machine().reservation_at(fresh, moved.thread()), None);
        assert_eq!(ctl.reservation(moved.slot, moved.thread()), None);
        ctl.unblock(tenant.slot, tenant.thread());
        assert_eq!(state_of(&ctl, tenant.thread()), Some(ThreadState::Ready));
    }

    #[test]
    fn extract_and_inject_move_a_job_between_loops() {
        let registry = MetricRegistry::new();
        let shard = |first| {
            ControlLoop::new(
                ControllerConfig::default(),
                DispatcherConfig::default(),
                registry.clone(),
            )
            .with_ids(first, 2)
        };
        let (mut src, mut dst) = (shard(1), shard(2));
        let job = src.admit(JobSpec::miscellaneous()).unwrap();
        assert_eq!(src.admit(JobSpec::miscellaneous()).unwrap().job, JobId(3));
        for _ in 0..20 {
            run_due_cycle(&mut src);
        }
        let granted = src.reservation(job.slot, job.thread()).unwrap();
        assert!(src.extract(JobId(99)).is_none());
        let (mjob, mthread) = src.extract(job.job).unwrap();
        assert_eq!(src.reservation(job.slot, job.thread()), None);
        assert_eq!(src.slot_of(job.thread()), None);
        assert_eq!(src.machine().thread_count(), 1);
        let landed = dst.inject(mjob, mthread, CpuId(0)).unwrap();
        assert_eq!(landed.job, job.job, "the id travels with the job");
        assert_eq!(dst.slot_of(landed.thread()), Some(landed.slot));
        assert_eq!(dst.reservation(landed.slot, landed.thread()), Some(granted));
        assert_eq!(dst.admit(JobSpec::miscellaneous()).unwrap().job, JobId(2));
    }

    /// The loop keeps the handle alone for each slot; the slot's thread
    /// is named by every call through it.  A job handle carries its id
    /// once: the thread id is the same number.
    #[test]
    fn layout_budget() {
        assert!(std::mem::size_of::<ThreadHandle>() <= 8);
        assert!(std::mem::size_of::<JobHandle>() <= 16);
    }

    /// With the thread's id checked by the machine rather than kept beside
    /// the handle, a retired job's `(slot, thread)` pair still reaches
    /// nothing once its slot serves another job: block, unblock, charge
    /// and a reservation read all leave the new tenant alone.
    #[test]
    fn a_stale_slot_and_thread_pair_is_a_no_op_after_slot_reuse() {
        let mut ctl = bare(1);
        let old = ctl.admit(JobSpec::miscellaneous()).unwrap();
        ctl.block(old.slot, old.thread());
        ctl.retire(old);
        let tenant = ctl.admit(JobSpec::miscellaneous()).unwrap();
        assert_eq!(tenant.slot.index(), old.slot.index(), "slot reused");
        let granted = ctl.reservation(tenant.slot, tenant.thread()).unwrap();
        let used = |ctl: &ControlLoop| ctl.stats().total_used_us();

        ctl.block(old.slot, old.thread());
        assert_eq!(state_of(&ctl, tenant.thread()), Some(ThreadState::Ready));
        ctl.charge(old.slot, old.thread(), 500);
        assert_eq!(used(&ctl), 0);
        assert_eq!(ctl.reservation(old.slot, old.thread()), None);
        ctl.block(tenant.slot, tenant.thread());
        ctl.unblock(old.slot, old.thread());
        assert_eq!(state_of(&ctl, tenant.thread()), Some(ThreadState::Blocked));

        // The tenant's own pair reaches it.
        ctl.unblock(tenant.slot, tenant.thread());
        assert_eq!(state_of(&ctl, tenant.thread()), Some(ThreadState::Ready));
        ctl.charge(tenant.slot, tenant.thread(), 500);
        assert_eq!(used(&ctl), 500);
        assert_eq!(ctl.reservation(tenant.slot, tenant.thread()), Some(granted));
    }

    /// A shard that sees ten times its resident count of ids — admissions,
    /// retirements and migrations both ways — keeps one table entry per
    /// slot it has ever needed at once, not one per id it has seen.
    #[test]
    fn the_slot_table_stays_as_large_as_the_resident_jobs() {
        const RESIDENT: usize = 8;
        let registry = MetricRegistry::new();
        let shard = |first| {
            ControlLoop::new(
                ControllerConfig::default(),
                DispatcherConfig::default(),
                registry.clone(),
            )
            .with_ids(first, 2)
        };
        let (mut a, mut b) = (shard(1), shard(2));
        let mut jobs: Vec<JobHandle> = (0..RESIDENT)
            .map(|_| a.admit(JobSpec::miscellaneous()).unwrap())
            .collect();
        let mut guests = vec![b.admit(JobSpec::miscellaneous()).unwrap()];
        for round in 0..10 * RESIDENT {
            a.retire(jobs.remove(0));
            jobs.push(a.admit(JobSpec::miscellaneous()).unwrap());
            if round % 3 == 0 {
                // One job out to `b` and one of `b`'s in.
                let out = jobs.remove(0);
                let (mjob, mthread) = a.extract(out.job).unwrap();
                guests.push(b.inject(mjob, mthread, CpuId(0)).unwrap());
                let guest = guests.remove(0);
                let (mjob, mthread) = b.extract(guest.job).unwrap();
                jobs.push(a.inject(mjob, mthread, CpuId(0)).unwrap());
            }
            run_due_cycle(&mut a);
        }
        assert!(
            a.next_id > 20 * RESIDENT as u64,
            "ids issued: {}",
            a.next_id
        );
        assert_eq!(a.controller().job_count(), RESIDENT);
        assert!(
            a.threads.len() <= RESIDENT + 1,
            "{} entries",
            a.threads.len()
        );
        assert!(b.threads.len() <= 2, "{} entries", b.threads.len());
        for job in &jobs {
            assert_eq!(a.slot_of(job.thread()), Some(job.slot));
            assert!(a.reservation(job.slot, job.thread()).is_some());
        }
    }

    #[test]
    fn missed_cycles_are_skipped_not_replayed() {
        let mut ctl = bare(1);
        assert_eq!(ctl.next_cycle_us(), 10_000);
        // A stall until t = 47 ms: one cycle runs, the next is due at the
        // next grid point after the stall, not at 20 ms.
        ctl.cycle(SimTime::from_micros(47_000), 0);
        assert_eq!(ctl.skip_to_next_cycle(47_000), 50_000);
        assert_eq!(ctl.skip_to_next_cycle(47_000), 50_000, "idempotent");
        assert_eq!(ctl.stats().controller_invocations, 1);
    }

    /// §3.3's period heuristic grows a period whose budget is fewer than
    /// four dispatch quanta — quanta of the machine the loop drives.  A
    /// real-rate job pinned at 267 ‰ of a 30 ms period has an 8 ms
    /// budget: eight 1 ms quanta, enough to keep the period, but two 4 ms
    /// ones, too few.
    #[test]
    fn period_estimation_quantises_against_the_machines_dispatch_interval() {
        let period_after_cycles = |dispatch_interval_us| {
            let registry = MetricRegistry::new();
            let pinned = Proportion::from_ppt(267);
            let mut ctl = ControlLoop::new(
                ControllerConfig {
                    period_estimation: true,
                    min_proportion: pinned,
                    max_proportion: pinned,
                    ..ControllerConfig::default()
                },
                DispatcherConfig {
                    dispatch_interval_us,
                    ..DispatcherConfig::default()
                },
                registry.clone(),
            );
            let job = ctl.admit(JobSpec::real_rate()).unwrap();
            // A half-full queue that never moves: no jitter to shrink for.
            let queue = Arc::new(BoundedBuffer::<u8>::new("q", 4));
            queue.try_push(0).unwrap();
            queue.try_push(0).unwrap();
            registry.register(JobKey(job.job.0), Role::Consumer, queue);
            for _ in 0..3 {
                run_due_cycle(&mut ctl);
            }
            let reservation = ctl.reservation(job.slot, job.thread()).unwrap();
            assert_eq!(reservation.proportion, pinned);
            reservation.period.as_micros()
        };
        assert_eq!(period_after_cycles(1_000), 30_000);
        assert!(period_after_cycles(4_000) > 30_000);
    }

    #[test]
    fn grow_cpus_widens_machine_controller_and_counters_together() {
        let mut ctl = bare(1);
        assert_eq!(ctl.grow_cpus(3), 3);
        assert_eq!(ctl.machine().cpu_count(), 3);
        assert_eq!(ctl.controller().config().placement.cpu_count(), 3);
        assert_eq!(ctl.stats().per_cpu.len(), 3);
        assert_eq!(ctl.grow_cpus(2), 3, "shrinking is a no-op");
    }
}
