//! The simulation event loop.
//!
//! The simulator drives an [`rrs_scheduler::Machine`] of `N` per-CPU
//! dispatchers with one discrete-event loop.  Controller cycles, trace
//! samples, workload wake-ups and poll ticks are typed [`Event`]s in a
//! binary-heap [`Schedule`] keyed by [`SimTime`]; each turn
//! (`Simulation::step_until`) peeks the earliest event, advances every
//! CPU's usage *analytically* across the gap — dispatch, run the chosen
//! work model for the span the assignment stays valid, charge, repeat
//! (`Simulation::advance_cpus_to`) — then pops the event, checks that
//! event times never run backwards, handles it, and lets the handler push
//! its successor.  An idle CPU jumps straight to its next timer; there is
//! no idle fast-forward special case because idleness is simply "no event
//! until T".
//!
//! Cross-CPU migrations decided by the control pipeline's Place stage are
//! applied between cycles and charged a configurable cost.
//! `tests/sim_golden_stats.rs` pins `SimStats` at `N = 1` and `N = 8`.

use crate::calendar::{EventId, Schedule};
use crate::event::Event;
use crate::host::{Backend, Host};
use crate::trace::{JobSeries, Trace};
use crate::workload::WorkModel;
pub use rrs_core::SimStats;
use rrs_core::{
    controller::AdmitError, ControlLoop, Controller, ControllerConfig, JobHandle, JobId, JobSpec,
    SimTime,
};
use rrs_queue::MetricRegistry;
use rrs_scheduler::{
    CpuId, Dispatcher, DispatcherConfig, Machine, Reservation, ThreadId, ThreadState, UsageAccount,
};
use rrs_telemetry::{
    CalendarEventKind, Recorder, TelemetryConfig, TelemetrySnapshot, TraceEventKind,
};
use std::any::Any;
use std::borrow::Cow;
use std::sync::Arc;

/// The simulated CPU's clock rate, in Hz: the paper's testbed was a
/// 400 MHz Pentium II.  Work models convert cycles to time with it
/// ([`WorkModel::run`]), on both backends.
pub const CPU_CLOCK_HZ: f64 = 400e6;

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Dispatcher configuration (dispatch interval, overhead model, ...).
    pub dispatcher: DispatcherConfig,
    /// Controller configuration (controller period, gains, squish policy).
    pub controller: ControllerConfig,
    /// Whether the adaptive controller runs at all.  With the controller
    /// disabled, reservations stay at whatever they were set to — the
    /// configuration used for the Figure 8 dispatch-overhead sweep.
    pub controller_enabled: bool,
    /// Interval between trace samples, in seconds.
    pub trace_interval_s: f64,
    /// Modelled cost of one cross-CPU migration, in microseconds, charged
    /// to the migrating thread's budget (cache and TLB refill on the
    /// destination CPU).
    pub migration_cost_us: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            dispatcher: DispatcherConfig::default(),
            controller: ControllerConfig::default(),
            controller_enabled: true,
            trace_interval_s: 0.1,
            migration_cost_us: 50,
        }
    }
}

/// The instant a run of `dt_us` microseconds starting at `now_us` ends:
/// every "run for / advance by" entry point of both simulators computes
/// its horizon here.  Saturating, because a host may be told to advance
/// by `SimTime::from_micros(u64::MAX)`; a wrapped end would lie before
/// `now` and return at once.
pub(crate) fn end_after(now_us: u64, dt_us: u64) -> u64 {
    now_us.saturating_add(dt_us)
}

impl SimConfig {
    /// Returns a copy simulating a machine of `cpus` CPUs (clamped to at
    /// least one).  The default configuration is the paper's single CPU.
    pub fn with_cpus(mut self, cpus: usize) -> Self {
        self.controller = self.controller.with_cpus(cpus);
        self
    }

    /// Number of simulated CPUs.
    pub fn cpus(&self) -> usize {
        self.controller.placement.cpu_count()
    }

    /// The trace sampling interval in whole microseconds (at least one).
    pub fn trace_interval_us(&self) -> u64 {
        (self.trace_interval_s * 1e6).round().max(1.0) as u64
    }
}

/// A job's simulator-side state, one entry of [`Simulation::threads`]:
/// what the span loop calls into.  The fat pointer sits in the table
/// itself, so a dispatched thread's model is one dependent load from its
/// slot.  The job's trace series, read once per trace sample and never
/// per span, sit in [`Simulation::series`] beside it.
struct SimThread {
    work: Box<dyn WorkModel>,
}

/// The live entry of [`Simulation::threads`] at slot index `index` — a
/// dispatched thread's owner tag, or a [`rrs_core::JobSlot::index`].
#[inline]
fn entry_mut(threads: &mut [Option<SimThread>], index: usize) -> &mut SimThread {
    threads[index]
        .as_mut()
        .expect("a bound slot has its simulator entry")
}

/// Records `id` as the pending `Event::Wake` of the job at slot index
/// `index` in [`Simulation::wake_events`].
fn set_wake_event(wake_events: &mut Vec<Option<EventId>>, index: usize, id: EventId) {
    if wake_events.len() <= index {
        wake_events.resize(index + 1, None);
    }
    wake_events[index] = Some(id);
}

/// One CPU's window in [`Simulation::advance_cpu`]: what it borrows, and
/// the clock and counters it keeps until the window ends.
struct CpuWindow<'a> {
    dispatcher: &'a mut Dispatcher,
    recorder: Option<&'a Recorder>,
    calendar: &'a mut Schedule,
    wake_events: &'a mut Vec<Option<EventId>>,
    /// In-window wakes `(wake_at_us, id, dispatcher slot, owner tag)`.
    local_wakes: &'a mut Vec<(u64, ThreadId, u32, u32)>,
    /// In-window polls `(id, dispatcher slot, owner tag)`.
    local_poll: &'a mut Vec<(ThreadId, u32, u32)>,
    cpu: CpuId,
    /// The dispatch interval, at least 1 µs: the local poll cadence.
    interval: u64,
    target_us: u64,
    /// The CPU's local clock.
    t: u64,
    next_poll: u64,
    /// The CPU's dispatcher overhead watermark.
    last_overhead: f64,
    /// The fractional overhead not yet consumed as simulated time.
    carry: f64,
    /// The global dispatch overhead sum.
    overhead_sum: f64,
    used_sum: u64,
}

/// The whole part of `x`, a carry of at least 0 µs plus a booking's
/// `delta`, as an `f64`: the cast's truncation is the floor.  The general
/// span's booking finds it so; see [`whole_by_compare`] for a hit run's.
#[inline(always)]
fn whole_by_cast(x: f64, _delta: f64) -> f64 {
    (x as i64) as f64
}

/// [`whole_by_cast`], bit for bit, found by comparison.
///
/// A carry under 1 µs, the usual case, leaves the whole part the delta's
/// or one more, so two compares against the delta's whole part find it,
/// and the conversion round trip runs on the delta alone.  In a hit run
/// the delta is the dispatch cost, known a dispatch ahead, so the carry's
/// own dependency chain from one dispatch to the next is one add, one
/// subtract and a predicted branch instead of two conversions; that chain
/// bounds a run.  Elsewhere the delta and the branch's pattern vary, and
/// a mispredicted branch costs more than the conversions
/// (`spin_saturated` `run_wall_s` ×1.02–×1.05).  `delta`'s whole part is at
/// most `x`, and adding 1 or 2 to it rounds, if at all, only where `x`
/// is a whole number already, so every case gives the exact floor.
#[inline(always)]
fn whole_by_compare(x: f64, delta: f64) -> f64 {
    let below = (delta as i64) as f64;
    if x < below + 1.0 {
        below
    } else if x < below + 2.0 {
        below + 1.0
    } else {
        whole_by_cast(x, delta)
    }
}

impl CpuWindow<'_> {
    /// Books the CPU's dispatch overhead up to the dispatcher's total
    /// `total_us`, consuming whole microseconds of the window — found by
    /// `whole_part` ([`whole_by_cast`] or [`whole_by_compare`]) — and
    /// carrying the fractional remainder over.  Returns `false` when the
    /// charge reaches the window end: the pick then stands unexecuted, and
    /// the next window dispatches again.
    #[inline(always)]
    fn book_overhead(&mut self, total_us: f64, whole_part: fn(f64, f64) -> f64) -> bool {
        // `total - last` rather than the dispatch's own cost: the two are
        // not the same f64.
        let delta = total_us - self.last_overhead;
        self.last_overhead = total_us;
        self.overhead_sum += delta;
        if delta > 0.0 {
            debug_assert!(self.carry >= 0.0 && self.t < self.target_us);
            let carry = self.carry + delta;
            let whole = whole_part(carry, delta);
            // The carry only ever holds a non-negative remainder, so the
            // casts' truncation is the floor (and not the libm call
            // `floor` is on baseline x86-64).  The conversions go through
            // `i64`: the same values here, and one instruction each where
            // the unsigned ones take several.
            let charge = (whole as i64) as u64;
            let left = self.target_us - self.t;
            if charge < left {
                self.carry = carry - whole;
                self.t += charge;
                return true;
            }
            self.carry = carry - (left as i64) as f64;
            self.t = self.target_us;
            return false;
        }
        true
    }

    /// Books a charged span of `used` µs that `tid` ran from the local
    /// clock: counts it, records it and moves the clock past it.
    #[inline(always)]
    fn ran(&mut self, tid: ThreadId, used: u64) {
        self.used_sum += used;
        if let Some(recorder) = self.recorder {
            recorder.record(
                self.t,
                TraceEventKind::DispatchSpan {
                    cpu: self.cpu.0,
                    thread: tid.0,
                    len_us: used,
                },
            );
        }
        self.t += used;
    }

    /// Ends a span in which `work`, the pick `tid`, used `used` µs and
    /// perhaps `blocked`: charges the span and books it ([`CpuWindow::ran`]);
    /// a pick that blocked joins the local wake list, the local poll list
    /// or the calendar, and a span that used nothing still moves the clock
    /// one microsecond.  Returns whether the pick still runs.
    #[inline(always)]
    fn end_span(
        &mut self,
        work: &mut dyn WorkModel,
        tid: ThreadId,
        used: u64,
        blocked: bool,
    ) -> bool {
        let wake = if blocked {
            work.next_transition(SimTime::from_micros(self.t + used))
        } else {
            None
        };
        // Slot-addressed batched charge on the span's own CPU: no
        // placement lookup, no id map, and consecutive uncontended spans
        // settle in one account update.
        self.dispatcher.charge_span(used);
        self.ran(tid, used);
        let t = self.t;
        if blocked {
            let owner = self
                .dispatcher
                .span_owner()
                .expect("the span thread is here");
            let dslot = self.dispatcher.block_span();
            match wake {
                Some(w) => {
                    let at = w.as_micros().max(t + 1);
                    if at < self.target_us {
                        self.local_wakes.push((at, tid, dslot, owner));
                    } else {
                        let id = self
                            .calendar
                            .schedule(SimTime::from_micros(at), Event::Wake(tid));
                        set_wake_event(self.wake_events, owner as usize, id);
                    }
                }
                None => {
                    self.local_poll.push((tid, dslot, owner));
                    self.next_poll = self.next_poll.min(t + self.interval);
                }
            }
            return false;
        }
        if used == 0 {
            // Progress guard: a runnable model that consumed nothing still
            // moves the local clock one microsecond.
            self.dispatcher.rebook_idle_us(0, 1);
            self.t += 1;
            return false;
        }
        true
    }
}

/// The discrete-event simulation.
///
/// # Examples
///
/// ```
/// use rrs_core::JobSpec;
/// use rrs_sim::{Host, RunResult, SimConfig, Simulation, WorkModel};
///
/// struct Spin;
/// impl WorkModel for Spin {
///     fn run(&mut self, _now: u64, quantum_us: u64, _hz: f64) -> RunResult {
///         RunResult::ran(quantum_us)
///     }
/// }
///
/// let mut sim = Simulation::new(SimConfig::default());
/// sim.add_job("hog", JobSpec::miscellaneous(), Box::new(Spin)).unwrap();
/// sim.run_for(1.0);
/// assert!(sim.now_micros() >= 1_000_000);
/// ```
pub struct Simulation {
    config: SimConfig,
    /// The feedback loop proper: controller, machine, slot table, counters
    /// and recorder.  Everything below is the simulated clock and the work
    /// models it drives.
    ctl: ControlLoop,
    /// Dense thread table indexed by [`rrs_core::JobSlot::index`], entries
    /// inline; a dispatched thread's owner tag is that index
    /// ([`Dispatcher::span_owner`]), so the span loop reaches its work
    /// model with no lookup.  Not by id: a shard owns one id in every
    /// `id_stride` and migrations bring it ids from every other shard, so
    /// an id-indexed table is mostly holes and grows with every id issued.
    /// A removed job's id resolves to no slot ([`ControlLoop::slot_of`]),
    /// so a stale wake-up never reaches the index's next tenant.
    threads: Vec<Option<SimThread>>,
    /// Every job's trace series and name, indexed like `threads`.
    series: JobSeries,
    /// The blocked-thread calendar: the threads whose work model reported
    /// a block and has not yet been polled awake, as `(id, slot index)`.
    /// `blocked` is sorted by id, the order of the original full scan over
    /// every id.  A thread that blocks joins `arrivals`, which the next
    /// poll merges in, so joining is a push.
    blocked: Vec<(ThreadId, u32)>,
    arrivals: Vec<(ThreadId, u32)>,
    /// Scratch the poll gathers the still-blocked threads into.
    still_blocked: Vec<(ThreadId, u32)>,
    /// Scratch for in-window wake entries `(wake_at_us, id, dispatcher
    /// slot, owner tag)` in [`Simulation::advance_cpus_to`] (reused across
    /// CPUs/windows so the window loop stays allocation-free once warmed).
    scratch_wakes: Vec<(u64, ThreadId, u32, u32)>,
    /// Scratch for in-window poll entries `(id, dispatcher slot, owner
    /// tag)`, same reuse discipline as `scratch_wakes`.
    scratch_poll: Vec<(ThreadId, u32, u32)>,
    now_us: u64,
    /// Time of the last event popped off the calendar; event times must
    /// never run backwards (checked on every pop in debug builds).
    last_event_us: u64,
    next_trace_us: u64,
    /// Interval between trace samples, in whole microseconds
    /// ([`Simulation::set_trace_interval`]).
    trace_interval_us: u64,
    /// The gap between the previous trace sample's grid instant and
    /// `next_trace_us`: what the next `rate/` sample divides by.
    trace_gap_us: u64,
    /// The event calendar: controller cycles, trace samples, known
    /// wake-ups and poll ticks.
    calendar: Schedule,
    /// Pending `Event::Wake` entries indexed like `threads`, so removing
    /// or moving a job cancels its wake-up.  Apart from `threads`, and
    /// grown only by a wake-up, so jobs that never sleep pay nothing.
    wake_events: Vec<Option<EventId>>,
    /// The single outstanding `Event::PollTick`, if any.
    poll_tick: Option<EventId>,
    /// Per-CPU dispatcher overhead watermark.
    last_cpu_overhead: Vec<f64>,
    /// Per-CPU fractional overhead not yet consumed as simulated time.
    overhead_carry: Vec<f64>,
    /// The sample trace; the sharded machine closes its merge epochs.
    pub(crate) trace: Trace,
    /// Always-on calendar event counters, one per [`Event`] variant, in
    /// pop order: controller, trace, wake, poll-tick, horizon.
    event_counts: [u64; 5],
}

impl Simulation {
    /// Creates a simulation with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        Self::with_shard_identity(config, MetricRegistry::new(), 1, 1)
    }

    /// Creates a simulation that shares `registry` with its siblings and
    /// allocates raw job/thread ids `first_id, first_id + id_stride, ...`.
    ///
    /// This is the constructor the sharded simulator uses: with shard `k`
    /// of `S` passing `first_id = k + 1, id_stride = S`, ids stay globally
    /// unique across every shard, so a job migrating between shards keeps
    /// its `JobId`/`ThreadId`/registry key unchanged.  The plain
    /// [`Simulation::new`] is the `first_id = 1, id_stride = 1` special
    /// case.
    pub(crate) fn with_shard_identity(
        config: SimConfig,
        registry: MetricRegistry,
        first_id: u64,
        id_stride: u64,
    ) -> Self {
        let ctl = ControlLoop::new(config.controller, config.dispatcher, registry)
            .with_ids(first_id, id_stride);
        let mut calendar = Schedule::new();
        // Seed the periodic events; each handler reschedules itself.
        calendar.schedule(SimTime::ZERO, Event::Trace);
        if config.controller_enabled {
            calendar.schedule(SimTime::from_micros(ctl.next_cycle_us()), Event::Controller);
        }
        let cpus = ctl.machine().cpu_count();
        Self {
            config,
            ctl,
            threads: Vec::new(),
            series: JobSeries::new(),
            blocked: Vec::new(),
            arrivals: Vec::new(),
            still_blocked: Vec::new(),
            scratch_wakes: Vec::new(),
            scratch_poll: Vec::new(),
            now_us: 0,
            last_event_us: 0,
            next_trace_us: 0,
            trace_interval_us: config.trace_interval_us(),
            trace_gap_us: config.trace_interval_us(),
            calendar,
            wake_events: Vec::new(),
            poll_tick: None,
            last_cpu_overhead: vec![0.0; cpus],
            overhead_carry: vec![0.0; cpus],
            trace: Trace::new(),
            event_counts: [0; 5],
        }
    }

    /// Current simulated time in microseconds.
    pub fn now_micros(&self) -> u64 {
        self.now_us
    }

    /// Current simulated time in seconds.
    pub(crate) fn now_seconds(&self) -> f64 {
        self.now_us as f64 / 1e6
    }

    /// Changes the trace sampling interval mid-run (clamped to at least
    /// one microsecond).  Takes effect after the next already-scheduled
    /// sample, whose `rate/` values still span the old interval.
    pub fn set_trace_interval(&mut self, interval: SimTime) {
        self.trace_interval_us = interval.as_micros().max(1);
    }

    /// Read-only access to CPU 0's dispatcher — the whole machine on the
    /// default single-CPU configuration.  Multi-CPU queries should go
    /// through [`Simulation::machine`].
    pub fn dispatcher(&self) -> &Dispatcher {
        self.machine().dispatcher(CpuId::ZERO)
    }

    /// Read-only access to the multi-CPU machine.
    pub fn machine(&self) -> &Machine {
        self.ctl.machine()
    }

    /// Attaches an *existing* recorder instead of creating one — the
    /// sharded simulator shares one ring across every shard.
    pub(crate) fn attach_telemetry(&mut self, recorder: Arc<Recorder>) {
        self.ctl.attach_telemetry(recorder);
    }

    /// Stores a thread's simulator-side state in the dense table.
    fn install_thread(&mut self, handle: JobHandle, thread: SimThread) {
        let i = handle.slot.index();
        if self.threads.len() <= i {
            self.threads.resize_with(i + 1, || None);
        }
        self.threads[i] = Some(thread);
    }

    /// Forgets the block/wake status of `tid`, the thread serving slot
    /// index `index` (the thread is leaving).
    fn clear_wait(&mut self, tid: ThreadId, index: usize) {
        for set in [&mut self.blocked, &mut self.arrivals] {
            set.retain(|&(t, _)| t != tid);
        }
        if let Some(id) = self.wake_events.get_mut(index).and_then(Option::take) {
            self.calendar.cancel(id);
        }
    }

    /// Moves a job's complete simulator-side state — work model, trace
    /// series, controller entry, dispatcher thread, block/wake status — to
    /// CPU `cpu` of the sibling shard `to`, and returns its handle there
    /// with the grant (ppt) this shard's controller last settled on.  The
    /// job's queue-metric attachments stay registered (the registry is
    /// shared between shards).  A blocked thread's wake-up is re-derived
    /// from its work model there (the model is the authority; this shard's
    /// calendar entry is cancelled).  Returns `None` if the job is unknown
    /// here.
    ///
    /// # Panics
    ///
    /// Panics if `to` refuses the job: sibling shards issue disjoint ids,
    /// and the caller picks a CPU `to` has.
    pub(crate) fn migrate_job(
        &mut self,
        job: JobId,
        to: &mut Simulation,
        cpu: CpuId,
    ) -> Option<(JobHandle, u32)> {
        let tid = ThreadId(job.0);
        let slot = self.ctl.slot_of(tid)?;
        // From here on every layer must agree the job exists.
        let thread = self.threads[slot.index()]
            .take()
            .expect("a bound slot has its simulator entry");
        let (mjob, mthread) = self
            .ctl
            .extract(job)
            .expect("a thread in the table is a job in the loop");
        self.clear_wait(tid, slot.index());
        let granted_ppt = mjob.granted().ppt();
        let was_blocked = mthread.state() == ThreadState::Blocked;
        let handle = to
            .ctl
            .inject(mjob, mthread, cpu)
            .expect("ids are globally unique across shards");
        self.series
            .move_to(slot.index(), &mut to.series, handle.slot.index());
        let wake = if was_blocked {
            thread.work.next_transition(SimTime::from_micros(to.now_us))
        } else {
            None
        };
        to.install_thread(handle, thread);
        match wake {
            Some(w) => {
                let at = w.as_micros().max(to.now_us + 1);
                let id = to
                    .calendar
                    .schedule(SimTime::from_micros(at), Event::Wake(tid));
                set_wake_event(&mut to.wake_events, handle.slot.index(), id);
            }
            None if was_blocked => {
                to.arrivals.push((tid, handle.slot.index() as u32));
                to.ensure_poll_tick(to.now_us);
            }
            None => {}
        }
        Some((handle, granted_ppt))
    }

    /// Rebuilds a job's handle from its id, if the job is live here.
    pub(crate) fn handle_of(&self, job: JobId) -> Option<JobHandle> {
        let slot = self.ctl.controller().slot_of(job)?;
        Some(JobHandle { job, slot })
    }

    /// Runs the simulation for `duration_s` simulated seconds
    /// ([`Host::advance`] in seconds).
    pub fn run_for(&mut self, duration_s: f64) {
        self.advance(SimTime::from_micros((duration_s * 1e6).round() as u64));
    }

    /// Runs the simulation until the given absolute simulated time: turn
    /// after turn of [`Simulation::step_until`] up to the horizon.
    pub(crate) fn run_until_micros(&mut self, end_us: u64) {
        if self.now_us >= end_us {
            return;
        }
        // A sentinel pins the horizon so the gap up to `end_us` is always
        // bounded by a calendar entry; events scheduled exactly on the
        // horizon stay pending and fire when the simulation resumes.
        let horizon = self
            .calendar
            .schedule(SimTime::from_micros(end_us), Event::Horizon);
        while self.step_until(end_us) {}
        self.calendar.cancel(horizon);
        self.ctl.machine_mut().sync_all();
    }

    /// Executes one scheduling step: jumps to the next scheduled event,
    /// advancing every CPU's usage analytically across the gap, then
    /// handles every event due there.
    ///
    /// Unlike [`Host::advance`] this does not settle the
    /// dispatchers' lazy period-boundary backlog afterwards: total used
    /// time stays exact (charges are immediate), but per-period ratios and
    /// deadline statistics are only guaranteed current after a `run_*`
    /// call's final sync.
    pub fn step(&mut self) {
        if !self.step_until(u64::MAX) {
            // Nothing scheduled (controller and trace both produce events,
            // so this is defensive): burn one dispatch quantum.
            let target = self.now_us + self.config.dispatcher.dispatch_interval_us.max(1);
            self.advance_cpus_to(target);
            self.now_us = target;
            return;
        }
        while self
            .calendar
            .next_time()
            .is_some_and(|t| t.as_micros() <= self.now_us)
        {
            self.step_until(u64::MAX);
        }
    }

    /// One turn of the calendar loop, the only place an event leaves the
    /// calendar: peek the earliest event, advance every CPU analytically
    /// to it (or to `limit_us` if that comes first), pop it, handle it.
    /// Returns `false` without popping once the clock has reached
    /// `limit_us` or the calendar is empty.
    fn step_until(&mut self, limit_us: u64) -> bool {
        let Some(next) = self.calendar.next_time() else {
            return false;
        };
        let target = next.as_micros().min(limit_us);
        if target > self.now_us {
            self.advance_cpus_to(target);
            self.now_us = target;
        }
        if self.now_us >= limit_us {
            return false;
        }
        let (time, event) = self.calendar.pop().expect("peeked above");
        // minim's `assert!(cur_time <= time)`, in this simulator's terms:
        // the clock may run ahead of a same-instant event (a controller
        // cycle charges its modelled cost to the clock), but event times
        // never run backwards and no event fires before its time.
        debug_assert!(
            self.last_event_us <= time.as_micros() && time.as_micros() <= self.now_us,
            "calendar order broken: popped {time:?} after {} µs at {} µs",
            self.last_event_us,
            self.now_us
        );
        self.last_event_us = time.as_micros();
        self.ctl.stats_mut().steps += 1;
        self.handle_event(event);
        true
    }

    /// Handles one popped calendar event at the current clock.
    fn handle_event(&mut self, event: Event) {
        let kind = match event {
            Event::Controller => CalendarEventKind::Controller,
            Event::Trace => CalendarEventKind::Trace,
            Event::Wake(_) => CalendarEventKind::Wake,
            Event::PollTick => CalendarEventKind::PollTick,
            Event::Horizon => CalendarEventKind::Horizon,
        };
        self.event_counts[kind as usize] += 1;
        if let Some(recorder) = self.ctl.recorder() {
            recorder.record(self.now_us, TraceEventKind::CalendarEvent { kind });
        }
        match event {
            Event::Controller => {
                let next = self.run_controller();
                self.calendar
                    .schedule(SimTime::from_micros(next), Event::Controller);
            }
            Event::Trace => {
                let next = self.record_trace();
                self.calendar
                    .schedule(SimTime::from_micros(next), Event::Trace);
            }
            Event::Wake(tid) => {
                let now_us = self.now_us;
                let Some(slot) = self.ctl.slot_of(tid) else {
                    return;
                };
                if let Some(pending) = self.wake_events.get_mut(slot.index()) {
                    *pending = None;
                }
                let entry = entry_mut(&mut self.threads, slot.index());
                // The wake time came from the model's own `next_transition`,
                // but the model stays the authority: confirm via the poll
                // hook, and fall back to polling if it disagrees.
                if entry.work.poll_unblock(now_us) {
                    self.ctl.unblock(slot, tid);
                } else {
                    self.arrivals.push((tid, slot.index() as u32));
                    self.ensure_poll_tick(now_us);
                }
            }
            Event::PollTick => {
                self.poll_tick = None;
                self.poll_blocked();
                if !self.blocked.is_empty() {
                    self.ensure_poll_tick(self.now_us);
                }
            }
            Event::Horizon => {}
        }
    }

    /// Schedules the next machine-wide poll of blocked threads one
    /// dispatch interval after `now_us`, unless one is already pending.
    fn ensure_poll_tick(&mut self, now_us: u64) {
        if self.poll_tick.is_none() {
            let interval = self.config.dispatcher.dispatch_interval_us.max(1);
            let id = self
                .calendar
                .schedule(SimTime::from_micros(now_us + interval), Event::PollTick);
            self.poll_tick = Some(id);
        }
    }

    /// Advances every CPU analytically from the current clock to
    /// `target_us`: each CPU repeatedly dispatches, runs the chosen work
    /// model for the span its assignment stays valid, and charges the
    /// result; an idle CPU jumps straight to its next local event.
    ///
    /// Threads that block mid-window are handled locally (their own CPU is
    /// the only one a block or wake can affect — migrations only happen at
    /// controller events, which bound the window): a known wake time
    /// inside the window joins a local wake list, an unknown one joins a
    /// local poll list sampled at the dispatch-interval cadence.  Whatever
    /// is still pending at the window's end moves into the global calendar.
    fn advance_cpus_to(&mut self, target_us: u64) {
        let start = self.now_us;
        if target_us <= start {
            return;
        }
        for cpu in 0..self.ctl.machine().cpu_count() {
            // In-window wake/poll entries carry the dispatcher's dense slot
            // (returned by `block_span`) and the thread's owner tag, so
            // waking is slot-addressed: no placement or id map on the hot
            // path.  Slots are stable within a window — migrations and
            // removals only happen at controller events, which bound it.
            let mut local_wakes = std::mem::take(&mut self.scratch_wakes);
            let mut local_poll = std::mem::take(&mut self.scratch_poll);
            self.advance_cpu(
                CpuId(cpu as u32),
                start,
                target_us,
                &mut local_wakes,
                &mut local_poll,
            );
            // Window over: whatever is still blocked goes global (the
            // global paths wake through the thread's stored handle — a
            // controller event in between may migrate the thread and
            // invalidate this window's slot).
            for (at, tid, _, owner) in local_wakes.drain(..) {
                let id = self
                    .calendar
                    .schedule(SimTime::from_micros(at.max(target_us)), Event::Wake(tid));
                set_wake_event(&mut self.wake_events, owner as usize, id);
            }
            let had_poll = !local_poll.is_empty();
            let blocked = local_poll.drain(..).map(|(tid, _, owner)| (tid, owner));
            self.arrivals.extend(blocked);
            if had_poll {
                self.ensure_poll_tick(target_us);
            }
            self.scratch_wakes = local_wakes;
            self.scratch_poll = local_poll;
        }
    }

    /// One CPU's window from `start` to `target_us`, the simulator's
    /// innermost loop (see [`Simulation::advance_cpus_to`]).  The CPU's
    /// dispatcher, the thread table and the recorder are borrowed once,
    /// and the window's counters — the CPU's overhead watermark and carry,
    /// its used time, the global overhead sum — live in a [`CpuWindow`]
    /// written back when the window ends, so a span touches nothing
    /// through `self`.
    ///
    /// The loop head fires due local wakes and polls, releases due
    /// timers, and idles or dispatches; one span then runs the pick.
    /// After a span that leaves the pick running, with no local wake or
    /// poll pending, the pick goes on in a *hit run*: the next-quantum
    /// cache's re-issues of the same pick, served from a
    /// [`rrs_scheduler::HitRun`] copy of the dispatcher state with no
    /// dispatcher call, and written back once when the run stops.  The
    /// head would do nothing else: no wake or poll exists, and a live
    /// cache implies a runnable thread.  The run stops where the head's
    /// dispatch would not hit — at a throttle release due by the local
    /// clock, which the head then makes, or at the pick's period boundary
    /// — and at a span that blocks, uses nothing or must settle, which
    /// then goes through [`CpuWindow::end_span`] as any span does, or at
    /// the window end.  Every dispatcher mutation, overhead sum and
    /// recorder event happens in the order the head's dispatches would
    /// make them, so the counters and statistics are the same.
    fn advance_cpu(
        &mut self,
        cpu: CpuId,
        start: u64,
        target_us: u64,
        local_wakes: &mut Vec<(u64, ThreadId, u32, u32)>,
        local_poll: &mut Vec<(ThreadId, u32, u32)>,
    ) {
        let Self {
            ctl,
            threads,
            calendar,
            wake_events,
            last_cpu_overhead,
            overhead_carry,
            ..
        } = self;
        // Starts from the global sum and adds this CPU's deltas in span
        // order: per-CPU partials added at the end would re-associate the
        // f64 sum.
        let overhead_sum = ctl.stats_mut().dispatch_overhead_us;
        let (dispatcher, recorder) = ctl.cpu_window(cpu);
        let mut w = CpuWindow {
            dispatcher,
            recorder: recorder.map(Arc::as_ref),
            calendar,
            wake_events,
            local_wakes,
            local_poll,
            cpu,
            interval: self.config.dispatcher.dispatch_interval_us.max(1),
            target_us,
            t: start,
            next_poll: u64::MAX,
            last_overhead: last_cpu_overhead[cpu.index()],
            carry: overhead_carry[cpu.index()],
            overhead_sum,
            used_sum: 0,
        };
        'window: loop {
            let t = w.t;
            // Fire local wake-ups that have come due.
            let mut i = 0;
            while i < w.local_wakes.len() {
                let (at, tid, dslot, owner) = w.local_wakes[i];
                if at > t {
                    i += 1;
                    continue;
                }
                w.local_wakes.swap_remove(i);
                if entry_mut(threads, owner as usize).work.poll_unblock(t) {
                    w.dispatcher
                        .unblock_slot(dslot, tid)
                        .expect("a slot blocked in this window is still the thread's");
                } else {
                    w.local_poll.push((tid, dslot, owner));
                    w.next_poll = w.next_poll.min(t + w.interval);
                }
            }
            // Poll locally blocked threads at the dispatch cadence.
            if t >= w.next_poll && !w.local_poll.is_empty() {
                let mut j = 0;
                while j < w.local_poll.len() {
                    let (tid, dslot, owner) = w.local_poll[j];
                    if entry_mut(threads, owner as usize).work.poll_unblock(t) {
                        w.local_poll.swap_remove(j);
                        w.dispatcher
                            .unblock_slot(dslot, tid)
                            .expect("a slot blocked in this window is still the thread's");
                    } else {
                        j += 1;
                    }
                }
                w.next_poll = if w.local_poll.is_empty() {
                    u64::MAX
                } else {
                    t + w.interval
                };
            }

            // Settle throttle-release timers up to the local clock.
            w.dispatcher.advance_to(t);
            if t >= target_us {
                break;
            }

            if !w.dispatcher.has_runnable() {
                // Idle: jump straight to the next local event.
                let mut jump = target_us;
                if let Some(e) = w.dispatcher.next_timer_expiry() {
                    jump = jump.min(e);
                }
                for &(at, ..) in w.local_wakes.iter() {
                    jump = jump.min(at);
                }
                jump = jump.min(w.next_poll).clamp(t + 1, target_us);
                w.dispatcher.rebook_idle_us(0, jump - t);
                w.t = jump;
                continue;
            }

            let outcome = w.dispatcher.dispatch();
            if !w.book_overhead(w.dispatcher.overhead_us(), whole_by_cast) {
                continue;
            }
            let t = w.t;
            let Some(tid) = outcome.thread else {
                // Defensive: an idle dispatch despite `has_runnable`.
                let jump = (t + outcome.quantum_us.max(1)).min(target_us);
                w.dispatcher.rebook_idle_us(outcome.quantum_us, jump - t);
                w.t = jump;
                continue;
            };
            // The span thread's model, resolved once for the span and the
            // hit run after it.
            let owner = w.dispatcher.span_owner().expect("the span thread is here");
            let work = &mut *entry_mut(threads, owner as usize).work;
            let span = outcome.quantum_us.min(target_us - t).max(1);
            let result = work.run(t, span, CPU_CLOCK_HZ);
            let mut ended = (result.used_us.min(span), result.blocked);
            // The span, then while the pick runs on with nothing else due
            // a hit run, and the span that stops it.
            loop {
                let (used, blocked) = ended;
                if !w.end_span(work, tid, used, blocked)
                    || w.t >= target_us
                    || !w.local_wakes.is_empty()
                    || !w.local_poll.is_empty()
                {
                    continue 'window;
                }
                // A settle disarms the cache, so after a stop at a span
                // this opens no run.
                let Some(mut run) = w.dispatcher.hit_run() else {
                    continue 'window;
                };
                debug_assert!(w.dispatcher.has_runnable(), "a hit run on an idle CPU");
                // The hit run: each pass is the head's advance and dispatch
                // and one span, for as long as the cache serves the pick
                // and the span's charge defers.
                let stop = loop {
                    let Some(quantum) = run.hit(w.t, w.recorder) else {
                        break None;
                    };
                    if !w.book_overhead(run.overhead_us(), whole_by_compare) {
                        break None;
                    }
                    let span = quantum.min(target_us - w.t).max(1);
                    let result = work.run(w.t, span, CPU_CLOCK_HZ);
                    let used = result.used_us.min(span);
                    if result.blocked || !run.defer(used) {
                        break Some((used, result.blocked));
                    }
                    w.ran(tid, used);
                    if w.t >= target_us {
                        break None;
                    }
                };
                w.dispatcher.end_hit_run(run);
                match stop {
                    Some(span) => ended = span,
                    None => continue 'window,
                }
            }
        }
        let CpuWindow {
            last_overhead,
            carry,
            overhead_sum,
            used_sum,
            ..
        } = w;
        last_cpu_overhead[cpu.index()] = last_overhead;
        overhead_carry[cpu.index()] = carry;
        let stats = ctl.stats_mut();
        stats.dispatch_overhead_us = overhead_sum;
        stats.per_cpu[cpu.index()].used_us += used_sum;
    }

    /// One controller cycle ([`ControlLoop::cycle`]) at the current clock,
    /// its modelled cost charged to the clock (the controller is a
    /// user-level process on the real system).  Returns when the next
    /// cycle is due.
    fn run_controller(&mut self) -> u64 {
        self.now_us += self.ctl.cycle(
            SimTime::from_micros(self.now_us),
            self.config.migration_cost_us,
        );
        self.ctl.skip_to_next_cycle(self.now_us)
    }

    fn poll_blocked(&mut self) {
        let now = self.now_us;
        let Self {
            blocked,
            arrivals,
            still_blocked,
            threads,
            ctl,
            ..
        } = self;
        arrivals.sort_unstable_by_key(|&(tid, _)| tid);
        let (mut old, mut new) = (blocked.iter().peekable(), arrivals.iter().peekable());
        // Both in ascending thread id, merged: the order of the original
        // full scan.
        while let Some(&(tid, index)) = match (old.peek(), new.peek()) {
            (Some(a), Some(b)) if b.0 < a.0 => new.next(),
            (Some(_), _) => old.next(),
            (None, _) => new.next(),
        } {
            if entry_mut(threads, index as usize).work.poll_unblock(now) {
                let slot = ctl.controller().slot_at(index);
                ctl.unblock(slot.expect("a blocked thread serves a live job"), tid);
            } else {
                still_blocked.push((tid, index));
            }
        }
        arrivals.clear();
        blocked.clear();
        std::mem::swap(blocked, still_blocked);
    }

    /// Takes one round of trace samples and returns when the next is due.
    fn record_trace(&mut self) -> u64 {
        let (time, gap_s) = (self.now_seconds(), self.trace_gap_us as f64 / 1e6);
        let threads = &self.threads;
        self.series
            .sample_round(&mut self.trace, &self.ctl, time, gap_s, |index| {
                threads[index]
                    .as_ref()
                    .expect("a bound slot has its simulator entry")
                    .work
                    .progress_counter()
            });
        let at = self.next_trace_us;
        while self.next_trace_us <= self.now_us {
            self.next_trace_us += self.trace_interval_us;
        }
        self.trace_gap_us = self.next_trace_us - at;
        self.next_trace_us
    }
}

impl Host for Simulation {
    fn backend(&self) -> Backend {
        Backend::Sim
    }

    /// Registers the job with the controller (real-time jobs go through
    /// admission control) and with the dispatcher, starting from either
    /// its requested reservation or the minimum allocation
    /// ([`ControlLoop::admit`]).
    fn add_job(
        &mut self,
        name: &str,
        spec: JobSpec,
        work: Box<dyn WorkModel>,
    ) -> Result<JobHandle, AdmitError> {
        let handle = self.ctl.admit(spec)?;
        self.series.insert(handle.slot.index(), name);
        self.install_thread(handle, SimThread { work });
        Ok(handle)
    }

    fn remove_job(&mut self, handle: JobHandle) {
        // Only the slot's current tenant: a handle left over from a removed
        // job names an index that may be somebody else's by now.
        if self.ctl.controller().job_of(handle.slot) == Some(handle.job) {
            self.clear_wait(handle.thread(), handle.slot.index());
            self.threads[handle.slot.index()] = None;
            self.series.remove(handle.slot.index());
        }
        self.ctl.retire(handle);
    }

    fn advance(&mut self, dt: SimTime) {
        self.run_until_micros(end_after(self.now_us, dt.as_micros()));
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.now_us)
    }

    fn reservation(&self, handle: JobHandle) -> Option<Reservation> {
        self.ctl.reservation(handle.slot, handle.thread())
    }

    fn cpu_of(&self, handle: JobHandle) -> Option<CpuId> {
        self.ctl.cpu_of(handle.slot, handle.thread())
    }

    fn usage(&self, handle: JobHandle) -> Option<UsageAccount> {
        self.ctl.usage(handle.slot, handle.thread())
    }

    fn grow_cpus(&mut self, cpus: usize) -> usize {
        let n = self.ctl.grow_cpus(cpus);
        self.config.controller.placement.cpus = n;
        self.last_cpu_overhead.resize(n, 0.0);
        self.overhead_carry.resize(n, 0.0);
        n
    }

    fn cpu_count(&self) -> usize {
        self.machine().cpu_count()
    }

    fn controller(&self) -> &Controller {
        self.ctl.controller()
    }

    fn registry(&self) -> MetricRegistry {
        self.ctl.controller().registry().clone()
    }

    fn force_reservation(&mut self, handle: JobHandle, reservation: Reservation) {
        self.ctl
            .set_reservation(handle.slot, handle.thread(), reservation);
    }

    fn stats(&self) -> SimStats {
        self.ctl.stats()
    }

    /// The control loop's counters ([`ControlLoop::telemetry`]) plus the
    /// calendar's events by type.
    fn telemetry(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            events_controller: self.event_counts[0],
            events_trace: self.event_counts[1],
            events_wake: self.event_counts[2],
            events_poll_tick: self.event_counts[3],
            events_horizon: self.event_counts[4],
            ..self.ctl.telemetry()
        }
    }

    fn enable_telemetry(&mut self, config: TelemetryConfig) -> Arc<Recorder> {
        self.ctl.enable_telemetry(config)
    }

    fn telemetry_recorder(&self) -> Option<Arc<Recorder>> {
        self.ctl.recorder().cloned()
    }

    fn trace(&self) -> Cow<'_, Trace> {
        Cow::Borrowed(&self.trace)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now_us", &self.now_us)
            .field("threads", &self.threads.iter().flatten().count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::RunResult;
    use proptest::prelude::*;
    use rrs_core::ControllerCostModel;
    use rrs_queue::{JobKey, Role};
    use rrs_scheduler::{Period, Proportion};
    use std::sync::Arc;

    impl Simulation {
        /// The live job `tid` serves: its controller slot and its entry.
        fn thread_mut(&mut self, tid: ThreadId) -> Option<(rrs_core::JobSlot, &mut SimThread)> {
            let slot = self.ctl.slot_of(tid)?;
            Some((slot, entry_mut(&mut self.threads, slot.index())))
        }
    }

    /// Uses every cycle it is offered and never blocks.
    struct Spin {
        total_us: u64,
    }

    impl Spin {
        fn new() -> Self {
            Self { total_us: 0 }
        }
    }

    impl WorkModel for Spin {
        fn run(&mut self, _now: u64, quantum_us: u64, _hz: f64) -> RunResult {
            self.total_us += quantum_us;
            RunResult::ran(quantum_us)
        }

        fn progress_counter(&self) -> Option<f64> {
            Some(self.total_us as f64)
        }
    }

    /// Consumes no CPU: blocks immediately and wakes on every poll, like the
    /// dummy processes of the Figure 5 overhead experiment.
    struct Dummy;

    impl WorkModel for Dummy {
        fn run(&mut self, _now: u64, _quantum_us: u64, _hz: f64) -> RunResult {
            RunResult::blocked_after(0)
        }

        fn poll_unblock(&mut self, _now_us: u64) -> bool {
            false
        }
    }

    #[test]
    fn misc_job_alone_gets_most_of_the_cpu() {
        let mut sim = Simulation::new(SimConfig::default());
        let h = sim
            .add_job("hog", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        sim.run_for(5.0);
        let alloc = sim.allocation_ppt(h);
        assert!(alloc > 500, "allocation grew to {alloc}");
        let used_fraction = sim.cpu_used(h).as_micros() as f64 / sim.now_micros() as f64;
        assert!(used_fraction > 0.4, "hog used {used_fraction} of the CPU");
    }

    #[test]
    fn two_equal_misc_jobs_share_the_cpu() {
        let mut sim = Simulation::new(SimConfig::default());
        let a = sim
            .add_job("a", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        let b = sim
            .add_job("b", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        sim.run_for(10.0);
        let ua = sim.cpu_used(a).as_micros() as f64;
        let ub = sim.cpu_used(b).as_micros() as f64;
        let ratio = ua / ub;
        assert!(
            (0.7..1.4).contains(&ratio),
            "equal jobs should share roughly equally (ratio {ratio})"
        );
    }

    #[test]
    fn real_time_job_receives_its_reservation_despite_a_hog() {
        let mut sim = Simulation::new(SimConfig::default());
        let rt = sim
            .add_job(
                "rt",
                JobSpec::real_time(Proportion::from_ppt(300), Period::from_millis(10)),
                Box::new(Spin::new()),
            )
            .unwrap();
        let _hog = sim
            .add_job("hog", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        sim.run_for(5.0);
        let fraction = sim.cpu_used(rt).as_micros() as f64 / sim.now_micros() as f64;
        assert!(
            (fraction - 0.3).abs() < 0.05,
            "real-time job got {fraction}, expected ≈ 0.30"
        );
    }

    #[test]
    fn real_time_admission_rejection_is_reported() {
        let mut sim = Simulation::new(SimConfig::default());
        sim.add_job(
            "rt1",
            JobSpec::real_time(Proportion::from_ppt(800), Period::from_millis(10)),
            Box::new(Spin::new()),
        )
        .unwrap();
        let err = sim.add_job(
            "rt2",
            JobSpec::real_time(Proportion::from_ppt(400), Period::from_millis(10)),
            Box::new(Spin::new()),
        );
        assert!(err.is_err());
        assert_eq!(sim.stats().admission_rejections, 1);
    }

    #[test]
    fn controller_disabled_keeps_reservations_fixed() {
        let config = SimConfig {
            controller_enabled: false,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(config);
        let h = sim
            .add_job("hog", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        sim.force_reservation(
            h,
            Reservation::new(Proportion::from_ppt(123), Period::from_millis(10)),
        );
        sim.run_for(2.0);
        assert_eq!(sim.allocation_ppt(h), 123);
        assert_eq!(sim.stats().controller_invocations, 0);
    }

    #[test]
    fn dummy_processes_consume_no_cpu_but_are_controlled() {
        let mut sim = Simulation::new(SimConfig::default());
        let mut handles = Vec::new();
        for i in 0..5 {
            handles.push(
                sim.add_job(
                    &format!("dummy{i}"),
                    JobSpec::miscellaneous(),
                    Box::new(Dummy),
                )
                .unwrap(),
            );
        }
        sim.run_for(2.0);
        for h in &handles {
            assert_eq!(sim.cpu_used(*h).as_micros(), 0);
        }
        assert!(sim.stats().controller_invocations > 0);
        assert!(sim.stats().controller_cost_us > 0.0);
    }

    #[test]
    fn controller_cost_scales_with_number_of_dummies() {
        let run = |n: usize| {
            let mut sim = Simulation::new(SimConfig::default());
            for i in 0..n {
                sim.add_job(&format!("d{i}"), JobSpec::miscellaneous(), Box::new(Dummy))
                    .unwrap();
            }
            sim.run_for(2.0);
            sim.stats().controller_cost_us / (sim.now_seconds() * 1e6)
        };
        let few = run(2);
        let many = run(30);
        assert!(
            many > few,
            "controller overhead should grow with controlled processes ({few} vs {many})"
        );
    }

    #[test]
    fn trace_records_allocation_and_rate_series() {
        let mut sim = Simulation::new(SimConfig::default());
        sim.add_job("hog", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        sim.run_for(1.0);
        let trace = sim.trace();
        assert!(trace.get("alloc/hog").is_some());
        assert!(trace.get("rate/hog").is_some());
        assert!(trace.get("period/hog").is_some());
        assert!(trace.get("alloc/hog").unwrap().len() >= 5);
    }

    #[test]
    fn fill_level_series_recorded_for_registered_queues() {
        let mut sim = Simulation::new(SimConfig::default());
        let registry = sim.registry();
        let queue = Arc::new(rrs_queue::BoundedBuffer::<u8>::new("pipeline-q", 8));
        let h = sim
            .add_job("consumer", JobSpec::real_rate(), Box::new(Spin::new()))
            .unwrap();
        registry.register(JobKey(h.job.0), Role::Consumer, queue);
        sim.run_for(1.0);
        assert!(sim.trace().get("fill/pipeline-q").is_some());
    }

    #[test]
    fn multicore_idle_accounting_tracks_actual_elapsed_time() {
        // One throttled spinner on cpu0 leaves cpu1 permanently idle:
        // cpu1's idle jumps must book what actually elapses, keeping total
        // idle time within the machine's physical capacity.
        let config = SimConfig {
            controller_enabled: false,
            ..SimConfig::default().with_cpus(2)
        };
        let mut sim = Simulation::new(config);
        let h = sim
            .add_job("spin", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        sim.force_reservation(
            h,
            Reservation::new(Proportion::from_ppt(100), Period::from_millis(10)),
        );
        sim.run_for(2.0);
        let idle = sim.machine().stats().idle_us;
        let capacity = sim.now_micros() * sim.machine().cpu_count() as u64;
        assert!(
            idle <= capacity,
            "idle_us {idle} cannot exceed machine capacity {capacity}"
        );
        // cpu1 never runs anything and cpu0 idles ~90 % of each period:
        // idle should be most of the capacity, not a wild overcount.
        assert!(idle > capacity / 2, "idle {idle} of {capacity}");
    }

    /// Sips 1 µs of every quantum, then blocks until the next poll.
    struct Sip;

    impl WorkModel for Sip {
        fn run(&mut self, _now: u64, _quantum_us: u64, _hz: f64) -> RunResult {
            RunResult::blocked_after(1)
        }
        fn poll_unblock(&mut self, _now_us: u64) -> bool {
            true
        }
    }

    #[test]
    fn early_yielding_thread_books_its_idle_remainder() {
        let config = SimConfig {
            controller_enabled: false,
            ..SimConfig::default().with_cpus(2)
        };
        let mut sim = Simulation::new(config);
        let hog = sim
            .add_job("hog", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        let sip = sim
            .add_job("sip", JobSpec::miscellaneous(), Box::new(Sip))
            .unwrap();
        sim.force_reservation(
            hog,
            Reservation::new(Proportion::from_ppt(1000), Period::from_millis(10)),
        );
        sim.force_reservation(
            sip,
            Reservation::new(Proportion::from_ppt(500), Period::from_millis(10)),
        );
        assert_ne!(sim.cpu_of(hog), sim.cpu_of(sip));
        sim.run_for(1.0);
        // The sipper's CPU is idle for ~999/1000 of every busy round; that
        // remainder must show up in the machine's idle accounting.
        let idle = sim.machine().stats().idle_us;
        let now = sim.now_micros();
        assert!(
            idle > now * 8 / 10,
            "sipper CPU idleness must be booked: idle {idle} of {now}"
        );
        assert!(idle <= now * 2, "idle cannot exceed 2-CPU capacity");
    }

    #[test]
    fn dispatch_overhead_reduces_available_cpu_at_high_frequency() {
        let available = |interval_us: u64| {
            let config = SimConfig {
                controller_enabled: false,
                dispatcher: DispatcherConfig {
                    dispatch_interval_us: interval_us,
                    ..DispatcherConfig::default()
                },
                ..SimConfig::default()
            };
            let mut sim = Simulation::new(config);
            let h = sim
                .add_job("hog", JobSpec::miscellaneous(), Box::new(Spin::new()))
                .unwrap();
            sim.force_reservation(
                h,
                Reservation::new(Proportion::from_ppt(1000), Period::from_millis(10)),
            );
            sim.run_for(2.0);
            sim.cpu_used(h).as_micros() as f64 / sim.now_micros() as f64
        };
        let coarse = available(10_000);
        let fine = available(100);
        assert!(
            coarse > fine,
            "finer dispatch intervals must cost more CPU ({coarse} vs {fine})"
        );
        assert!(coarse > 0.95);
    }

    #[test]
    fn removing_a_job_stops_scheduling_it() {
        let mut sim = Simulation::new(SimConfig::default());
        let h = sim
            .add_job("hog", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        sim.run_for(0.5);
        let used_before = sim.cpu_used(h).as_micros();
        assert!(used_before > 0);
        sim.remove_job(h);
        sim.run_for(0.5);
        assert_eq!(
            sim.cpu_used(h).as_micros(),
            0,
            "removed job no longer tracked"
        );
        assert_eq!(sim.controller().job_count(), 0);
    }

    #[test]
    fn jobs_can_join_a_saturated_machine() {
        // Regression: adding a job after the running jobs' adaptive
        // allocations have grown to the overload threshold used to panic,
        // because the dispatcher's admission test rejected even the
        // bootstrap reservation.  Late arrivals must be admitted and
        // squished in like everyone else.
        let mut sim = Simulation::new(SimConfig::default());
        let first = sim
            .add_job("first", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        sim.run_for(3.0);
        assert!(sim.allocation_ppt(first) > 800, "machine is saturated");
        let late = sim
            .add_job("late", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .expect("late arrivals are admitted, not panicked on");
        sim.run_for(5.0);
        let a = sim.allocation_ppt(first);
        let b = sim.allocation_ppt(late);
        assert!(b > 100, "late job must ramp up, got {b}");
        assert!(a + b <= 952, "squish keeps the pair under the threshold");
        // The reused machinery also holds after a removal.
        sim.remove_job(first);
        let third = sim
            .add_job("third", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        assert_eq!(third.slot.index(), first.slot.index(), "slot reused");
        sim.run_for(3.0);
        assert!(sim.allocation_ppt(third) > 100);
    }

    #[test]
    fn simulated_time_advances_even_when_idle() {
        let mut sim = Simulation::new(SimConfig::default());
        sim.run_for(1.0);
        assert!(sim.now_seconds() >= 1.0);
        let dbg = format!("{sim:?}");
        assert!(dbg.contains("Simulation"));

        // With nothing runnable the clock jumps from event to event
        // (controller ticks at 10 ms, trace at 100 ms) instead of burning
        // one dispatch tick (1 ms) at a time: a step is an event handled,
        // so an idle second takes far fewer steps than the naive tick
        // count (1 s at the 1 ms dispatch interval = 1000 ticks).
        let naive_ticks = 1000;
        assert!(
            sim.stats().steps * 4 < naive_ticks,
            "steps = events handled ({} vs {naive_ticks})",
            sim.stats().steps
        );
    }

    #[test]
    fn idle_fast_forward_respects_the_run_horizon() {
        // No jobs, no controller, a 10 s trace interval: the only jump
        // target is far beyond the requested run; the clock must still
        // stop at (not overshoot) the horizon.
        let config = SimConfig {
            controller_enabled: false,
            trace_interval_s: 10.0,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(config);
        sim.run_for(0.5);
        assert!(sim.now_seconds() >= 0.5);
        assert!(
            sim.now_seconds() < 0.51,
            "overshot the requested horizon: {}",
            sim.now_seconds()
        );
    }

    #[test]
    fn idle_fast_forward_jumps_to_throttle_replenishment() {
        // A single reserved thread that exhausts its budget leaves the
        // machine idle until its period boundary; the idle jump must land
        // there — the throttled thread's release timer bounds it — and not
        // change how much CPU the thread receives (a 200 ‰ reservation
        // delivers a 0.2 fraction).
        let config = SimConfig {
            controller_enabled: false,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(config);
        let h = sim
            .add_job("spin", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        sim.force_reservation(
            h,
            Reservation::new(Proportion::from_ppt(200), Period::from_millis(10)),
        );
        sim.run_for(2.0);
        let frac = sim.cpu_used(h).as_micros() as f64 / sim.now_micros() as f64;
        assert!(
            (frac - 0.2).abs() < 0.02,
            "idle jumps must not change delivered CPU ({frac} vs 0.2)"
        );
        // A tick-at-a-time loop would take ~2000 steps (2 s at the 1 ms
        // dispatch interval); jumping across each period's idle tail must
        // land well below that.
        assert!(sim.stats().steps < 2000);
    }

    #[test]
    fn multicore_sim_runs_jobs_in_parallel() {
        let mut sim = Simulation::new(SimConfig::default().with_cpus(2));
        let a = sim
            .add_job("a", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        let b = sim
            .add_job("b", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        sim.run_for(5.0);
        // Each hog has a whole CPU: both should consume most of the
        // elapsed time, which is impossible on one CPU.
        let elapsed = sim.now_micros() as f64;
        let fa = sim.cpu_used(a).as_micros() as f64 / elapsed;
        let fb = sim.cpu_used(b).as_micros() as f64 / elapsed;
        assert!(fa > 0.6, "hog a got {fa}");
        assert!(fb > 0.6, "hog b got {fb}");
        assert_ne!(sim.cpu_of(a), sim.cpu_of(b), "placed on different CPUs");
        assert_eq!(sim.machine().cpu_count(), 2);
    }

    #[test]
    fn saturated_cpu_arrival_lands_on_the_empty_one() {
        let mut sim = Simulation::new(SimConfig::default().with_cpus(2));
        let first = sim
            .add_job("first", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        sim.run_for(3.0);
        assert!(
            sim.allocation_ppt(first) > 800,
            "first hog saturates its CPU"
        );
        let late = sim
            .add_job("late", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        assert_ne!(
            sim.cpu_of(first),
            sim.cpu_of(late),
            "least-loaded fit places the newcomer on the empty CPU"
        );
        sim.run_for(5.0);
        // Both can now grow toward a full CPU each — no squish fight.
        assert!(sim.allocation_ppt(first) > 700);
        assert!(sim.allocation_ppt(late) > 500);
    }

    #[test]
    fn per_cpu_breakdown_sums_to_the_aggregates() {
        let mut sim = Simulation::new(SimConfig::default().with_cpus(2));
        let a = sim
            .add_job("a", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        let b = sim
            .add_job("b", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        sim.run_for(3.0);
        let stats = sim.stats();
        assert_eq!(stats.per_cpu.len(), 2);
        let used: u64 = stats.per_cpu.iter().map(|c| c.used_us).sum();
        assert_eq!(
            used,
            sim.cpu_used(a).as_micros() + sim.cpu_used(b).as_micros()
        );
        let idle: u64 = stats.per_cpu.iter().map(|c| c.idle_us).sum();
        assert_eq!(idle, sim.machine().stats().idle_us);
        let migs: u64 = stats
            .per_cpu
            .iter()
            .map(|c| c.migrations_in + c.migrations_out)
            .sum();
        assert_eq!(migs, stats.migrations * 2, "each migration has two ends");
    }

    #[test]
    fn grow_cpus_hot_adds_capacity_mid_run() {
        // Two hogs contending for one CPU; hot-adding a second CPU lets
        // the Place stage spread them and the Allocate stage hand out two
        // CPUs' worth of proportion.
        let mut sim = Simulation::new(SimConfig::default());
        let a = sim
            .add_job("a", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        let b = sim
            .add_job("b", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        sim.run_for(3.0);
        assert_eq!(sim.cpu_of(a), sim.cpu_of(b), "one CPU holds both");
        let one_cpu_used = sim.cpu_used(a).as_micros() + sim.cpu_used(b).as_micros();
        assert!(one_cpu_used <= sim.now_micros());

        assert_eq!(sim.grow_cpus(2), 2);
        assert_eq!(sim.machine().cpu_count(), 2);
        assert_eq!(sim.stats().per_cpu.len(), 2);
        let before = sim.now_micros();
        sim.run_for(5.0);
        assert_ne!(sim.cpu_of(a), sim.cpu_of(b), "rebalanced onto the new CPU");
        assert!(sim.stats().migrations >= 1);
        let both_used = sim.cpu_used(a).as_micros() + sim.cpu_used(b).as_micros() - one_cpu_used;
        let elapsed = sim.now_micros() - before;
        assert!(
            both_used as f64 > elapsed as f64 * 1.2,
            "two CPUs deliver more than one: {both_used} in {elapsed}"
        );
        // Shrinking is a documented no-op.
        assert_eq!(sim.grow_cpus(1), 2);
    }

    #[test]
    fn mid_run_config_setters_take_effect() {
        let mut sim = Simulation::new(SimConfig {
            controller_enabled: false,
            ..SimConfig::default()
        });
        let h = sim
            .add_job("spin", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        sim.force_reservation(
            h,
            Reservation::new(Proportion::from_ppt(500), Period::from_millis(10)),
        );
        sim.run_for(1.0);
        let coarse = sim.trace().get("alloc/spin").unwrap().len();
        sim.set_trace_interval(SimTime::from_millis(10));
        assert_eq!(sim.trace_interval_us, 10_000);
        sim.run_for(1.0);
        let fine = sim.trace().get("alloc/spin").unwrap().len() - coarse;
        assert!(
            fine > coarse * 4,
            "10x finer sampling must record more: {coarse} then {fine}"
        );
    }

    #[test]
    fn fast_forward_never_skips_events_landing_on_the_run_horizon() {
        // A 100 ‰ spinner throttles 1 ms into every 10 ms period, so the
        // machine idles up to each boundary and fast-forward jumps from
        // event to event.  With a 100 ms trace interval and a 0.5 s
        // horizon, the final trace sample lands *exactly* on the horizon:
        // the run must stop there, and the sample must still be recorded
        // (at exactly t = 0.5) once the simulation continues.
        let run = |split: bool| {
            let mut sim = Simulation::new(SimConfig {
                controller_enabled: false,
                ..SimConfig::default()
            });
            let h = sim
                .add_job("spin", JobSpec::miscellaneous(), Box::new(Spin::new()))
                .unwrap();
            sim.force_reservation(
                h,
                Reservation::new(Proportion::from_ppt(100), Period::from_millis(10)),
            );
            let at_horizon = if split {
                sim.run_for(0.5);
                let at = sim.now_seconds();
                sim.run_for(0.1);
                at
            } else {
                sim.run_for(0.6);
                0.5
            };
            (sim, at_horizon)
        };
        let (fast, at_horizon) = run(true);
        assert_eq!(at_horizon, 0.5, "fast-forward stops exactly at the horizon");
        let series = fast.trace().get("alloc/spin").unwrap();
        assert!(
            series.iter().any(|(t, _)| t == 0.5),
            "the boundary sample must fire on resume: {:?}",
            series.samples()
        );
        let (oneshot, _) = run(false);
        assert_eq!(
            fast.trace().get("alloc/spin").unwrap().len(),
            oneshot.trace().get("alloc/spin").unwrap().len(),
            "stopping on the boundary must not skip any trace event"
        );

        // The same holds for a controller tick on the boundary: after
        // continuing past the horizon the split run has invoked the
        // controller exactly as often as a one-shot run to the same end.
        let run_ctl = |split: bool| {
            let mut sim = Simulation::new(SimConfig::default());
            let h = sim
                .add_job("spin", JobSpec::miscellaneous(), Box::new(Spin::new()))
                .unwrap();
            sim.force_reservation(
                h,
                Reservation::new(Proportion::from_ppt(100), Period::from_millis(10)),
            );
            if split {
                sim.run_until_micros(500_000);
            }
            sim.run_until_micros(600_000);
            sim.stats().controller_invocations
        };
        assert_eq!(run_ctl(true), run_ctl(false));
    }

    /// Runs a `burst_us` CPU burst, then sleeps `sleep_us` on a timer it
    /// reports through [`WorkModel::next_transition`].  Counts how often
    /// it is polled, to prove the calendar wakes it with a single event.
    struct Sleeper {
        burst_us: u64,
        sleep_us: u64,
        wake_at: Option<u64>,
        polls: Arc<std::sync::atomic::AtomicU64>,
    }

    impl WorkModel for Sleeper {
        fn run(&mut self, now: u64, quantum_us: u64, _hz: f64) -> RunResult {
            let used = self.burst_us.min(quantum_us);
            self.wake_at = Some(now + used + self.sleep_us);
            RunResult::blocked_after(used)
        }
        fn poll_unblock(&mut self, now_us: u64) -> bool {
            self.polls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.wake_at.is_none_or(|w| now_us >= w)
        }
        fn next_transition(&self, _now: SimTime) -> Option<SimTime> {
            self.wake_at.map(SimTime::from_micros)
        }
    }

    /// A shard that sees ten times its resident count of ids — sleepers
    /// with pending wake-ups and blocked pollers among them, admitted,
    /// removed and migrated both ways — keeps its thread table (and with
    /// it the wake-ups) as large as its resident jobs, not as the ids.
    #[test]
    fn the_thread_table_stays_as_large_as_the_resident_jobs() {
        const RESIDENT: usize = 6;
        let registry = MetricRegistry::new();
        let shard = |first| {
            Simulation::with_shard_identity(SimConfig::default(), registry.clone(), first, 2)
        };
        let (mut a, mut b) = (shard(1), shard(2));
        let polls = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let job = |i: usize| -> Box<dyn WorkModel> {
            match i % 3 {
                0 => Box::new(Spin::new()),
                1 => Box::new(Dummy),
                _ => Box::new(Sleeper {
                    burst_us: 200,
                    sleep_us: 30_000,
                    wake_at: None,
                    polls: polls.clone(),
                }),
            }
        };
        let mut jobs: Vec<JobHandle> = (0..RESIDENT)
            .map(|i| a.add_job("j", JobSpec::miscellaneous(), job(i)).unwrap())
            .collect();
        let mut guests = vec![b.add_job("g", JobSpec::miscellaneous(), job(2)).unwrap()];
        for round in 0..10 * RESIDENT {
            a.remove_job(jobs.remove(0));
            jobs.push(
                a.add_job("j", JobSpec::miscellaneous(), job(round))
                    .unwrap(),
            );
            if round % 3 == 0 {
                let out = jobs.remove(0);
                guests.push(a.migrate_job(out.job, &mut b, CpuId::ZERO).unwrap().0);
                let guest = guests.remove(0);
                jobs.push(b.migrate_job(guest.job, &mut a, CpuId::ZERO).unwrap().0);
            }
            a.run_for(0.02);
            b.run_for(0.02);
        }
        assert!(jobs.iter().any(|h| h.job.0 > 20 * RESIDENT as u64));
        assert!(!a.blocked.is_empty(), "the dummies wait in the poll set");
        assert!(a.blocked.len() + a.arrivals.len() <= RESIDENT);
        assert_eq!(a.controller().job_count(), RESIDENT);
        let sizes = |sim: &Simulation| (sim.threads.len(), sim.wake_events.len());
        let (threads, wakes) = sizes(&a);
        assert!(
            threads <= RESIDENT + 1 && wakes <= RESIDENT + 1,
            "{threads}, {wakes}"
        );
        let (threads, wakes) = sizes(&b);
        assert!(threads <= 2 && wakes <= 2, "{threads}, {wakes}");
        // Every pending wake-up belongs to a resident job: the calendar
        // holds those, the poll tick, the next cycle and the next sample.
        let pending = a.wake_events.iter().flatten().count();
        assert!(pending > 0, "the sleepers wait on the calendar");
        assert_eq!(a.calendar.len(), pending + a.poll_tick.iter().count() + 2);
    }

    #[test]
    fn calendar_wakes_timer_sleepers_without_polling() {
        // 1 ms of work, 9 ms of timer sleep: a 10 % duty cycle.  Each
        // sleep is one Wake event confirmed by one poll, not a poll every
        // dispatch tick.
        let polls = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let config = SimConfig {
            controller_enabled: false,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(config);
        let h = sim
            .add_job(
                "sleeper",
                JobSpec::miscellaneous(),
                Box::new(Sleeper {
                    burst_us: 1_000,
                    sleep_us: 9_000,
                    wake_at: None,
                    polls: polls.clone(),
                }),
            )
            .unwrap();
        sim.force_reservation(
            h,
            Reservation::new(Proportion::from_ppt(500), Period::from_millis(10)),
        );
        sim.run_for(2.0);
        let frac = sim.cpu_used(h).as_micros() as f64 / sim.now_micros() as f64;
        assert!(
            (frac - 0.1).abs() < 0.02,
            "10% duty cycle must survive event-driven wake-ups, got {frac}"
        );
        let cycles = sim.cpu_used(h).as_micros() / 1_000;
        let polled = polls.load(std::sync::atomic::Ordering::Relaxed);
        assert!(
            polled <= cycles * 2 + 10,
            "one confirming poll per wake-up, not per tick: {polled} polls for {cycles} sleeps"
        );
    }

    #[test]
    fn removing_a_job_cancels_its_pending_wake() {
        let config = SimConfig {
            controller_enabled: false,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(config);
        let h = sim
            .add_job(
                "sleeper",
                JobSpec::miscellaneous(),
                Box::new(Sleeper {
                    burst_us: 100,
                    // Sleeps far past every horizon below, so a Wake event
                    // is guaranteed pending when the job is removed.
                    sleep_us: 10_000_000,
                    wake_at: None,
                    polls: Arc::new(std::sync::atomic::AtomicU64::new(0)),
                }),
            )
            .unwrap();
        sim.force_reservation(
            h,
            Reservation::new(Proportion::from_ppt(500), Period::from_millis(10)),
        );
        sim.run_for(0.1);
        assert_eq!(sim.cpu_used(h).as_micros(), 100, "one burst, then asleep");
        sim.remove_job(h);
        // Running past the (cancelled) wake-up must not fire it against
        // the removed thread.
        sim.run_for(11.0);
        assert_eq!(
            sim.cpu_used(h).as_micros(),
            0,
            "removed job no longer tracked"
        );
    }

    /// Inline entries: with 10 000 jobs the table the span loop indexes is
    /// 160 KB of the 2 MiB L2 rather than 80 KB of pointers to 10 000
    /// separately boxed 80-byte threads (`spin_saturated` `run_wall_s`
    /// 0.189 → 0.153 for that alone).  Anything cold goes in a table
    /// beside it (the trace series sit in `Simulation::series`), not into
    /// the entry; the entry is the model's fat pointer alone.
    #[test]
    fn layout_budget() {
        assert!(std::mem::size_of::<Option<SimThread>>() <= 32);
    }

    fn sleeper(polls: &Arc<std::sync::atomic::AtomicU64>) -> Box<Sleeper> {
        Box::new(Sleeper {
            burst_us: 100,
            sleep_us: 10_000_000,
            wake_at: None,
            polls: polls.clone(),
        })
    }

    /// The thread table is indexed by slot, and slot indices are reused.
    /// What keeps a removed job's leftovers — a wake event, its handle —
    /// from reaching the index's next tenant is that they name the job's
    /// *thread id*, which resolves to no slot once the job is gone.
    #[test]
    fn a_removed_jobs_id_never_reaches_the_slots_next_tenant() {
        let polls = || Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (old_polls, new_polls) = (polls(), polls());
        let mut sim = Simulation::new(SimConfig {
            controller_enabled: false,
            ..SimConfig::default()
        });
        let old = sim
            .add_job("old", JobSpec::miscellaneous(), sleeper(&old_polls))
            .unwrap();
        sim.run_for(0.05);
        sim.remove_job(old);
        let new = sim
            .add_job("new", JobSpec::miscellaneous(), sleeper(&new_polls))
            .unwrap();
        sim.force_reservation(
            new,
            Reservation::new(Proportion::from_ppt(500), Period::from_millis(10)),
        );
        assert_eq!(new.slot.index(), old.slot.index(), "index reused");
        assert_ne!(new.thread(), old.thread());
        assert!(sim.thread_mut(old.thread()).is_none());
        assert_eq!(sim.thread_mut(new.thread()).map(|(s, _)| s), Some(new.slot));

        // A wake-up addressed to the old thread polls nobody's model, and
        // the old handle removes nothing.
        sim.run_for(0.05);
        let polled = new_polls.load(std::sync::atomic::Ordering::Relaxed);
        sim.handle_event(Event::Wake(old.thread()));
        sim.remove_job(old);
        assert_eq!(new_polls.load(std::sync::atomic::Ordering::Relaxed), polled);
        assert!(sim.thread_mut(new.thread()).is_some());
        assert_eq!(sim.controller().job_count(), 1);
        sim.run_for(0.05);
        assert_eq!(sim.cpu_used(new).as_micros(), 100, "the tenant's own burst");
    }

    #[test]
    fn calendar_horizon_boundary_events_fire_on_resume() {
        // A trace sample scheduled exactly on the run horizon stays
        // pending — the run stops at (not past) the horizon — and fires
        // first thing on resume, at exactly t = 0.5.
        let mut sim = Simulation::new(SimConfig {
            controller_enabled: false,
            ..SimConfig::default()
        });
        let h = sim
            .add_job("spin", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        sim.force_reservation(
            h,
            Reservation::new(Proportion::from_ppt(100), Period::from_millis(10)),
        );
        sim.run_for(0.5);
        assert_eq!(sim.now_seconds(), 0.5, "stops exactly at the horizon");
        let before = sim.trace().get("alloc/spin").unwrap().len();
        sim.run_for(0.1);
        let series = sim.trace().get("alloc/spin").unwrap();
        assert!(
            series.iter().any(|(t, _)| t == 0.5),
            "the boundary sample fires on resume: {:?}",
            series.samples()
        );
        assert!(sim.trace().get("alloc/spin").unwrap().len() > before);

        // Controller ticks behave the same: a split run and a straight
        // run invoke the controller the same number of times.
        let run_ctl = |split: bool| {
            let mut sim = Simulation::new(SimConfig::default());
            let h = sim
                .add_job("spin", JobSpec::miscellaneous(), Box::new(Spin::new()))
                .unwrap();
            sim.force_reservation(
                h,
                Reservation::new(Proportion::from_ppt(100), Period::from_millis(10)),
            );
            if split {
                sim.run_until_micros(500_000);
                sim.run_until_micros(600_000);
            } else {
                sim.run_until_micros(600_000);
            }
            sim.stats().controller_invocations
        };
        assert_eq!(run_ctl(true), run_ctl(false));
    }

    #[test]
    fn set_trace_interval_takes_exact_micros() {
        let mut sim = Simulation::new(SimConfig {
            controller_enabled: false,
            ..SimConfig::default()
        });
        let h = sim
            .add_job("spin", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        sim.force_reservation(
            h,
            Reservation::new(Proportion::from_ppt(500), Period::from_millis(10)),
        );
        sim.run_for(1.0);
        let coarse = sim.trace().get("alloc/spin").unwrap().len();
        sim.set_trace_interval(SimTime::from_millis(10));
        assert_eq!(sim.trace_interval_us, 10_000);
        sim.run_for(1.0);
        let fine = sim.trace().get("alloc/spin").unwrap().len() - coarse;
        assert!(
            fine > coarse * 4,
            "10x finer sampling must record more: {coarse} then {fine}"
        );
        // A zero interval clamps at 1 µs.
        sim.set_trace_interval(SimTime::ZERO);
        assert_eq!(sim.trace_interval_us, 1);
    }

    #[test]
    fn a_run_past_the_end_of_the_clock_ends_at_the_end_of_the_clock() {
        // The run itself cannot be tested (it never finishes); its horizon
        // can.  Unchecked, these panic in debug and wrap in release.
        assert_eq!(end_after(10_000, u64::MAX), u64::MAX);
        assert_eq!(end_after(u64::MAX, 1), u64::MAX);
        assert_eq!(end_after(u64::MAX - 5, 5), u64::MAX);
        assert_eq!(end_after(10_000, 2_500), 12_500);
        // `run_for`'s seconds → micros cast saturates the same way.
        assert_eq!(end_after(10_000, (f64::MAX * 1e6).round() as u64), u64::MAX);
    }

    #[test]
    fn telemetry_snapshot_counts_the_fast_paths() {
        // Counters are always on: even without a recorder the snapshot
        // reports cache hits, settles and calendar event counts.
        let mut sim = Simulation::new(SimConfig::default());
        sim.add_job("hog", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        sim.run_for(1.0);
        let snap = sim.telemetry();
        assert!(snap.quantum_cache_hits > 0, "warm spans must hit the cache");
        assert!(snap.cache_hit_rate > 0.0 && snap.cache_hit_rate <= 1.0);
        assert!(snap.settles_total() > 0, "spans must settle");
        assert!(snap.events_controller > 0 && snap.events_trace > 0);
        assert!(snap.controller_incremental_cycles > 0);
        assert_eq!(snap.trace_events_recorded, 0, "no recorder installed");
        assert!(sim.telemetry_recorder().is_none());

        // With a recorder the same run also captures structured events,
        // without dropping any on a sufficiently large ring.
        let mut sim = Simulation::new(SimConfig::default());
        let recorder = sim.enable_telemetry(TelemetryConfig::default());
        sim.add_job("hog", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        sim.run_for(1.0);
        assert!(sim.telemetry_recorder().is_some());
        let snap = sim.telemetry();
        assert!(snap.trace_events_recorded > 0);
        assert_eq!(snap.trace_events_recorded, recorder.recorded());
        let events = recorder.events();
        assert!(!events.is_empty());
        // The summary JSON parses and carries the same counters.
        let json = snap.summary_json();
        let parsed: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, snap);
    }

    /// Runs `burst_us` of CPU a quantum at a time, then blocks for
    /// `sleep_us` on a timer it reports through
    /// [`WorkModel::next_transition`].
    struct Bursty {
        burst_us: u64,
        sleep_us: u64,
        left_us: u64,
        wake_at: Option<u64>,
    }

    impl WorkModel for Bursty {
        fn run(&mut self, now: u64, quantum_us: u64, _hz: f64) -> RunResult {
            if self.left_us > quantum_us {
                self.left_us -= quantum_us;
                return RunResult::ran(quantum_us);
            }
            let used = std::mem::replace(&mut self.left_us, self.burst_us);
            self.wake_at = Some(now + used + self.sleep_us);
            RunResult::blocked_after(used)
        }
        fn poll_unblock(&mut self, now_us: u64) -> bool {
            self.wake_at.is_none_or(|w| now_us >= w)
        }
        fn next_transition(&self, _now: SimTime) -> Option<SimTime> {
            self.wake_at.map(SimTime::from_micros)
        }
    }

    /// Spins, except that every `every`-th span uses nothing and does not
    /// block.
    struct Stutter {
        every: u64,
        spans: u64,
    }

    impl WorkModel for Stutter {
        fn run(&mut self, _now: u64, quantum_us: u64, _hz: f64) -> RunResult {
            self.spans += 1;
            RunResult::ran(if self.spans.is_multiple_of(self.every) {
                0
            } else {
                quantum_us
            })
        }
    }

    /// One CPU, no controller, each job's reservation forced to
    /// `(ppt, period_ms)`: the machine the hit-run exit tests drive, with
    /// a recorder attached if `traced`.
    fn forced(
        traced: bool,
        jobs: Vec<(Box<dyn WorkModel>, u32, u64)>,
    ) -> (Simulation, Vec<JobHandle>) {
        let mut sim = Simulation::new(SimConfig {
            controller_enabled: false,
            ..SimConfig::default()
        });
        if traced {
            sim.enable_telemetry(TelemetryConfig::default());
        }
        let handles = jobs
            .into_iter()
            .enumerate()
            .map(|(i, (work, ppt, period_ms))| {
                let h = sim
                    .add_job(&format!("j{i}"), JobSpec::miscellaneous(), work)
                    .unwrap();
                let period = Period::from_millis(period_ms);
                sim.force_reservation(h, Reservation::new(Proportion::from_ppt(ppt), period));
                h
            })
            .collect();
        (sim, handles)
    }

    /// The scheduling counters of a telemetry snapshot: everything but
    /// the derived rates, the stage timings (wall clock) and the ring's
    /// own counts.
    fn counters(t: &TelemetrySnapshot) -> [u64; 17] {
        [
            t.quantum_cache_hits,
            t.quantum_cache_misses,
            t.settles_period_boundary,
            t.settles_throttle_edge,
            t.settles_zero_span,
            t.events_controller,
            t.events_trace,
            t.events_wake,
            t.events_poll_tick,
            t.events_horizon,
            t.controller_full_cycles,
            t.controller_incremental_cycles,
            t.dispatches,
            t.context_switches,
            t.period_rollovers,
            t.migrations,
            t.rebalance_cycles,
        ]
    }

    /// What a hit-run exit test pins: the whole `SimStats`, then the
    /// snapshot's [`counters`].
    fn pinned(sim: &Simulation) -> String {
        format!("{:?} {:?}", sim.stats(), counters(&sim.telemetry()))
    }

    /// Checks a hit-run exit test's machine against its `pinned` line,
    /// traced or not; traced, the ring, which dropped nothing, also holds
    /// one `CacheHit` event per counted cache hit.
    fn assert_pinned(sim: &Simulation, want: &str) {
        let traced = sim.telemetry_recorder();
        assert_eq!(pinned(sim), want, "traced: {}", traced.is_some());
        if let Some(recorder) = traced {
            assert_eq!(recorder.dropped(), 0);
            let hits = recorder
                .events()
                .iter()
                .filter(|e| matches!(e.kind, TraceEventKind::CacheHit { .. }))
                .count();
            assert_eq!(hits as u64, sim.telemetry().quantum_cache_hits);
        }
    }

    /// A window that ends inside a cache hit's overhead charge leaves the
    /// pick standing unexecuted, and the next window dispatches again.
    #[test]
    fn a_hit_run_ends_inside_a_dispatch_charge_at_the_window_end() {
        for traced in [false, true] {
            let (mut sim, h) = forced(traced, vec![(Box::new(Spin::new()), 500, 10)]);
            // 8 µs of switch, a 1 000 µs span, then the hit's 7 µs charge
            // meets the window's end 4 µs in.
            sim.run_until_micros(1_012);
            assert_eq!(sim.telemetry().quantum_cache_hits, 1);
            assert_eq!(sim.cpu_used(h[0]).as_micros(), 1_000, "the hit stood");
            for end in (1..=40).map(|k| 1_012 + k * 1_237) {
                sim.run_until_micros(end);
            }
            assert_pinned(&sim, HIT_RUN_WINDOW_END);
        }
    }

    /// A throttled thread's release inside another thread's run of hits
    /// bounds the run, and the released thread preempts at once.
    #[test]
    fn a_hit_run_stops_at_another_threads_release() {
        for traced in [false, true] {
            let (mut sim, h) = forced(
                traced,
                vec![
                    (Box::new(Spin::new()), 100, 10),
                    (Box::new(Spin::new()), 600, 20),
                ],
            );
            sim.run_until_micros(60_000);
            assert_eq!(sim.cpu_used(h[0]).as_micros(), 6_000, "every release ran");
            assert_pinned(&sim, HIT_RUN_RELEASE);
        }
    }

    /// The pick blocks mid-run; its wake falls inside the window.
    #[test]
    fn a_hit_run_ends_when_the_pick_blocks() {
        for traced in [false, true] {
            let (mut sim, h) = forced(
                traced,
                vec![(
                    Box::new(Bursty {
                        burst_us: 3_500,
                        sleep_us: 2_000,
                        left_us: 3_500,
                        wake_at: None,
                    }),
                    800,
                    10,
                )],
            );
            sim.run_until_micros(60_000);
            assert!(sim.telemetry().events_wake == 0, "every wake was local");
            assert!(sim.cpu_used(h[0]).as_micros() > 20_000);
            assert_pinned(&sim, HIT_RUN_BLOCK);
        }
    }

    /// Uses half of every quantum and never blocks: its quantum is capped
    /// by its remaining budget, so it never exhausts it.
    struct Half;

    impl WorkModel for Half {
        fn run(&mut self, _now: u64, quantum_us: u64, _hz: f64) -> RunResult {
            RunResult::ran(quantum_us / 2)
        }
    }

    /// A pick that never throttles runs into its period boundary, where
    /// the cache stops serving it.
    #[test]
    fn a_hit_run_ends_at_the_picks_period_boundary() {
        for traced in [false, true] {
            let (mut sim, _) = forced(traced, vec![(Box::new(Half), 1_000, 10)]);
            sim.run_until_micros(60_000);
            let t = sim.telemetry();
            assert_eq!((t.quantum_cache_misses, t.settles_throttle_edge), (6, 0));
            assert_pinned(&sim, HIT_RUN_BOUNDARY);
        }
    }

    /// A span that uses nothing ends the run, and the clock moves a
    /// microsecond.
    #[test]
    fn a_hit_run_ends_at_a_zero_use_span() {
        for traced in [false, true] {
            let stutter = Stutter { every: 4, spans: 0 };
            let (mut sim, _) = forced(traced, vec![(Box::new(stutter), 500, 10)]);
            sim.run_until_micros(60_000);
            assert!(sim.telemetry().settles_zero_span > 0);
            assert_pinned(&sim, HIT_RUN_ZERO_SPAN);
        }
    }

    // Each exit test's `pinned` line, taken on the simulator before the
    // hit run existed.
    const HIT_RUN_WINDOW_END: &str = concat!(
        "SimStats { controller_invocations: 0, controller_cost_us: 0.0, ",
        "dispatch_overhead_us: 297.0000000000002, quality_exceptions: 0, squish_events: 0, admission_rejections: 0, migrations: 0, steps: 1, ",
        "per_cpu: [CpuStats { used_us: 25483, idle_us: 24712, migrations_in: 0, migrations_out: 0, deadlines_missed: 0 }] }",
        " [16, 26, 0, 5, 0, 0, 1, 0, 0, 0, 0, 0, 42, 6, 5, 0, 0]",
    );
    const HIT_RUN_RELEASE: &str = concat!(
        "SimStats { controller_invocations: 0, controller_cost_us: 0.0, ",
        "dispatch_overhead_us: 308.4000000000002, quality_exceptions: 0, squish_events: 0, admission_rejections: 0, migrations: 0, steps: 1, ",
        "per_cpu: [CpuStats { used_us: 42000, idle_us: 17692, migrations_in: 0, migrations_out: 0, deadlines_missed: 0 }] }",
        " [30, 12, 0, 9, 0, 0, 1, 0, 0, 0, 0, 0, 42, 12, 9, 0, 0]",
    );
    const HIT_RUN_BLOCK: &str = concat!(
        "SimStats { controller_invocations: 0, controller_cost_us: 0.0, ",
        "dispatch_overhead_us: 320.10000000000025, quality_exceptions: 0, squish_events: 0, admission_rejections: 0, migrations: 0, steps: 1, ",
        "per_cpu: [CpuStats { used_us: 38500, idle_us: 21180, migrations_in: 0, migrations_out: 0, deadlines_missed: 6 }] }",
        " [30, 14, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 44, 11, 6, 0, 0]",
    );
    const HIT_RUN_BOUNDARY: &str = concat!(
        "SimStats { controller_invocations: 0, controller_cost_us: 0.0, ",
        "dispatch_overhead_us: 885.8999999999982, quality_exceptions: 0, squish_events: 0, admission_rejections: 0, migrations: 0, steps: 1, ",
        "per_cpu: [CpuStats { used_us: 59115, idle_us: 0, migrations_in: 0, migrations_out: 0, deadlines_missed: 6 }] }",
        " [124, 6, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 130, 1, 6, 0, 0]",
    );
    const HIT_RUN_ZERO_SPAN: &str = concat!(
        "SimStats { controller_invocations: 0, controller_cost_us: 0.0, ",
        "dispatch_overhead_us: 276.6000000000002, quality_exceptions: 0, squish_events: 0, admission_rejections: 0, migrations: 0, steps: 1, ",
        "per_cpu: [CpuStats { used_us: 30000, idle_us: 29724, migrations_in: 0, migrations_out: 0, deadlines_missed: 0 }] }",
        " [24, 15, 0, 6, 9, 0, 1, 0, 0, 0, 0, 0, 39, 6, 6, 0, 0]",
    );

    /// `whole_by_compare` against `whole_by_cast` on the edges of its
    /// compares and of exact integer `f64`s.
    #[test]
    fn whole_by_compare_is_the_cast_at_the_edges() {
        let ulp_below_1 = 1.0 - f64::EPSILON / 2.0;
        let carries = [0.0, 0.25, ulp_below_1, 1.0, 1.5, 2.0 - f64::EPSILON, 3.75];
        let deltas = [
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            1.9,
            6.8,
            8.7,
            (1u64 << 52) as f64 - 0.5,
            (1u64 << 52) as f64,
            (1u64 << 53) as f64 - 1.0,
            (1u64 << 53) as f64,
            (1u64 << 54) as f64 + 4.0,
            9.2e18,
            (1u64 << 63) as f64,
            1e30,
            f64::MAX,
            f64::INFINITY,
        ];
        for carry in carries {
            for delta in deltas {
                let x = carry + delta;
                assert_eq!(
                    whole_by_compare(x, delta).to_bits(),
                    whole_by_cast(x, delta).to_bits(),
                    "carry {carry:e} delta {delta:e}"
                );
            }
        }
    }

    proptest! {
        /// `whole_by_compare` against `whole_by_cast`, for any carry in
        /// `[0, 4)` and any positive finite delta, bit for bit.
        #[test]
        fn whole_by_compare_is_the_cast(
            carry_bits in 0u64..0x4010_0000_0000_0000,
            delta_bits in 1u64..0x7FF0_0000_0000_0000,
            small_delta in 0.0f64..64.0,
        ) {
            let carry = f64::from_bits(carry_bits);
            for delta in [f64::from_bits(delta_bits), small_delta] {
                if delta > 0.0 {
                    let x = carry + delta;
                    prop_assert_eq!(whole_by_compare(x, delta).to_bits(), whole_by_cast(x, delta).to_bits());
                }
            }
        }

        /// Closed-form oracle: on blocking-free workloads with fixed
        /// under-committed reservations every thread drains its whole
        /// budget every period (total demand stays below each CPU's
        /// capacity, so scheduling order cannot change totals), and the
        /// run ends exactly on its horizon — per-thread consumed CPU and
        /// the final clock are known to the microsecond.
        #[test]
        fn stepping_matches_the_closed_form_oracle(
            cpus in 1usize..4,
            specs in proptest::collection::vec((20u32..46, 0usize..3), 1..6),
        ) {
            let mut config = SimConfig {
                controller_enabled: false,
                ..SimConfig::default().with_cpus(cpus)
            };
            config.dispatcher.dispatch_cost_us = 0.0;
            config.dispatcher.context_switch_cost_us = 0.0;
            let mut sim = Simulation::new(config);
            let mut handles = Vec::new();
            let mut expected = Vec::new();
            for (i, &(ppt, period_idx)) in specs.iter().enumerate() {
                let h = sim
                    .add_job(&format!("j{i}"), JobSpec::miscellaneous(), Box::new(Spin::new()))
                    .unwrap();
                let period_ms = [10u64, 20, 40][period_idx];
                sim.force_reservation(h, Reservation::new(Proportion::from_ppt(ppt), Period::from_millis(period_ms)));
                handles.push(h);
                let budget_us = period_ms * 1_000 * u64::from(ppt) / 1_000;
                expected.push(budget_us * (120 / period_ms));
            }
            // Two calls cover stopping and resuming at a horizon.
            sim.run_for(0.06);
            sim.run_for(0.06);
            let used: Vec<u64> = handles.iter().map(|&h| sim.cpu_used(h).as_micros()).collect();
            prop_assert_eq!(sim.now_micros(), 120_000);
            prop_assert_eq!(used, expected);
        }

        /// Every microsecond of every CPU's window is booked exactly once —
        /// as a job's use, as idle time or as consumed dispatch overhead —
        /// across windows of odd sizes, blocking and polling models and
        /// migrations.  With the controller's cost off the clock, the only
        /// slack is the CPUs' overhead carry: booked in
        /// `dispatch_overhead_us`, not yet consumed.  That is a
        /// sub-microsecond remainder, except where a window ended inside
        /// a dispatch's charge (a 1 µs run leaves 7.7 µs of an 8.7 µs
        /// switch), so the slack is held to the carry itself.  A counter a
        /// window fails to write back breaks it.
        #[test]
        fn windows_conserve_capacity_to_the_microsecond(
            cpus in 1usize..5,
            jobs in proptest::collection::vec(0u8..3, 1..7),
            chunks in proptest::collection::vec(1u64..25_000, 1..8),
        ) {
            let mut config = SimConfig::default().with_cpus(cpus);
            config.controller.cost_model = ControllerCostModel {
                fixed_us: 0.0,
                per_job_us: 0.0,
            };
            let mut sim = Simulation::new(config);
            for (i, &kind) in jobs.iter().enumerate() {
                let work: Box<dyn WorkModel> = match kind {
                    0 => Box::new(Spin::new()),
                    1 => Box::new(Sip),
                    _ => Box::new(Sleeper {
                        burst_us: 700,
                        sleep_us: 2_300,
                        wake_at: None,
                        polls: Arc::new(std::sync::atomic::AtomicU64::new(0)),
                    }),
                };
                sim.add_job(&format!("j{i}"), JobSpec::miscellaneous(), work)
                    .unwrap();
            }
            for &chunk in &chunks {
                sim.advance(SimTime::from_micros(chunk));
                let stats = sim.stats();
                let booked = (stats.total_used_us() + stats.idle_us()) as f64
                    + stats.dispatch_overhead_us;
                let slack = booked - (cpus as u64 * sim.now_micros()) as f64;
                let carry: f64 = sim.overhead_carry.iter().sum();
                prop_assert!(
                    slack >= 0.0 && (slack - carry).abs() < 1e-3,
                    "slack {slack} µs against a carry of {carry} µs over {cpus} CPUs at {} µs",
                    sim.now_micros()
                );
            }
        }

        /// A recorder never changes what is simulated.  The same random mix
        /// of spinners, sippers and sleepers — some under tight forced
        /// reservations that throttle them — over the same odd windows,
        /// with and without `enable_telemetry`, gives identical `SimStats`
        /// and identical telemetry [`counters`], on `Simulation` and on a
        /// sequential two-shard `ShardedSim`.
        #[test]
        fn a_recorder_never_changes_what_is_simulated(
            cpus in 1usize..4,
            controller in proptest::bool::ANY,
            jobs in proptest::collection::vec((0u8..3, 0u32..400, 0usize..3), 1..7),
            chunks in proptest::collection::vec(1u64..25_000, 1..8),
        ) {
            let config = SimConfig {
                controller_enabled: controller,
                ..SimConfig::default().with_cpus(cpus)
            };
            let drive = |host: &mut dyn Host, traced: bool| {
                if traced {
                    host.enable_telemetry(TelemetryConfig::default());
                }
                for (i, &(kind, ppt, period)) in jobs.iter().enumerate() {
                    let work: Box<dyn WorkModel> = match kind {
                        0 => Box::new(Spin::new()),
                        1 => Box::new(Sip),
                        _ => Box::new(Sleeper {
                            burst_us: 700,
                            sleep_us: 2_300,
                            wake_at: None,
                            polls: Arc::new(std::sync::atomic::AtomicU64::new(0)),
                        }),
                    };
                    let h = host.add_job(&format!("j{i}"), JobSpec::miscellaneous(), work).unwrap();
                    // Below 20‰ the job keeps the reservation it was admitted with.
                    if ppt >= 20 {
                        let period = Period::from_millis([5, 10, 30][period]);
                        host.force_reservation(h, Reservation::new(Proportion::from_ppt(ppt), period));
                    }
                }
                for &chunk in &chunks {
                    host.advance(SimTime::from_micros(chunk));
                }
                (host.stats(), counters(&host.telemetry()))
            };
            let single = |traced| drive(&mut Simulation::new(config), traced);
            prop_assert_eq!(single(false), single(true));
            let sharded = |traced| {
                let shards = crate::ShardConfig {
                    shards: 2,
                    parallel: false,
                    ..crate::ShardConfig::default()
                };
                drive(&mut crate::ShardedSim::new(config, shards), traced)
            };
            prop_assert_eq!(sharded(false), sharded(true));
        }

        /// Replaying the same mixed workload gives bitwise-identical
        /// statistics: the event order is deterministic.
        #[test]
        fn calendar_replay_is_deterministic(
            jobs in proptest::collection::vec(0u8..3, 1..6),
        ) {
            let run = || {
                let mut sim = Simulation::new(SimConfig::default().with_cpus(2));
                for (i, &kind) in jobs.iter().enumerate() {
                    let work: Box<dyn WorkModel> = match kind {
                        0 => Box::new(Spin::new()),
                        1 => Box::new(Dummy),
                        _ => Box::new(Sleeper {
                            burst_us: 500,
                            sleep_us: 4_500,
                            wake_at: None,
                            polls: Arc::new(std::sync::atomic::AtomicU64::new(0)),
                        }),
                    };
                    sim.add_job(&format!("j{i}"), JobSpec::miscellaneous(), work)
                        .unwrap();
                }
                sim.run_for(1.0);
                (sim.now_micros(), sim.stats())
            };
            let (now_a, stats_a) = run();
            let (now_b, stats_b) = run();
            prop_assert_eq!(now_a, now_b);
            prop_assert_eq!(stats_a, stats_b);
        }
    }

    #[test]
    fn imbalance_triggers_migration_to_the_emptied_cpu() {
        // A, B, C land cpu0/cpu1/cpu0; removing B empties cpu1 while A and
        // C crowd cpu0.  The Place stage must notice the widening gap and
        // migrate one of the survivors across.
        let mut sim = Simulation::new(SimConfig::default().with_cpus(2));
        let a = sim
            .add_job("a", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        let b = sim
            .add_job("b", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        let c = sim
            .add_job("c", JobSpec::miscellaneous(), Box::new(Spin::new()))
            .unwrap();
        assert_eq!(sim.cpu_of(a), sim.cpu_of(c), "tie placement crowds cpu0");
        assert_ne!(sim.cpu_of(a), sim.cpu_of(b));
        sim.run_for(2.0);
        sim.remove_job(b);
        sim.run_for(5.0);
        assert!(sim.stats().migrations >= 1, "a survivor migrated");
        assert_ne!(sim.cpu_of(a), sim.cpu_of(c), "the pair ends up one per CPU");
        // Rebalanced, both can use most of a CPU each.
        let elapsed = sim.now_micros() as f64;
        assert!(sim.cpu_used(a).as_micros() as f64 / elapsed > 0.4);
        assert!(sim.cpu_used(c).as_micros() as f64 / elapsed > 0.4);
    }
}
