//! The proportion/period dispatcher.
//!
//! This is the "low-level scheduler" of §3.1: at each dispatch point it
//! picks the runnable thread with the highest goodness, charges the running
//! thread for the CPU it consumed, throttles threads that have used their
//! allocation for the current period, and rolls per-thread periods when
//! their timers expire.  It is a pure state machine over an explicit clock
//! (`now_us`), driven either by the discrete-event simulator or by the
//! wall-clock executor.
//!
//! Internally threads live in dense slot-indexed storage (mirroring the
//! controller's `SlotTable`) and every runnable thread but the last pick
//! is kept ranked in a goodness-ordered run queue (a sorted deque,
//! `runqueue.rs`), so a dispatch decision is an `O(1)` pop from the front
//! of the queue instead of the original full scan over every registered
//! thread.  The pick stays off the queue for as long as it stays runnable,
//! and goes back through the queue only when it must: the next slow
//! dispatch compares its key with the queue's front and picks it again in
//! place — no link, no pop — while it still sorts first, or links it and
//! pops the front once it is outranked.  On a saturated CPU nearly every
//! pick ends in a throttle, and on an uncontended one the pick nearly
//! always still sorts first, so a slow dispatch there is one pop or one
//! compare.  Re-ranking is lazy: a thread's queue entry is only touched by
//! the state changes that can affect it (block/unblock, throttle, charge,
//! a reservation change that moves the period or releases the thread,
//! pick), so an idle dispatcher — the paper's "no work
//! unless at least one timer has expired" case — re-dispatches in
//! constant time.
//!
//! # Dense handles and the span fast path
//!
//! The `ThreadId → slot` resolution happens once, at the edge: every
//! public id-keyed method resolves through `by_id` exactly once and hands
//! the slot to its slot-addressed twin (`set_reservation` →
//! `Dispatcher::set_reservation_slot`, and likewise `reservation`,
//! `block`, `unblock`, `charge`, `take_thread`), which holds all the logic.
//! A caller that keeps the slot ([`Dispatcher::slot_of`], or the
//! machine-level [`crate::ThreadHandle`]) calls the twin directly and
//! skips the map.  A slot stays a thread's from the call that registered
//! it until the thread is removed or taken for migration, and freed slots
//! are reused LIFO, so every slot-addressed entry point checks — always,
//! not only in debug builds — that the slot still holds the id the caller
//! names: a stale slot is [`SchedError::UnknownThread`], never another
//! thread's state.  From the edge inwards the hot loop runs entirely on
//! dense `u32` slots — the run queue, the [`TimerList`] (whose expired
//! front names its slot) and the watch list all speak slots.
//! The steady-state span loop the simulator drives
//! ([`Dispatcher::dispatch`] → [`Dispatcher::charge_span`] →
//! [`Dispatcher::advance_to`]) therefore touches no maps at all, and two
//! further mechanisms remove the remaining per-span work on an uncontended
//! CPU:
//!
//! * **The next-quantum cache.** `queue_gen` counts every mutation that
//!   can change the run-queue head (any re-rank or removal, and every
//!   charge settled into the pick's account).  When a
//!   dispatch picks a thread whose re-keyed pick still sorts before the
//!   queue's front (or the queue is empty), the decision is cached by
//!   recording the post-pick generation; as long as the generation is
//!   unchanged and the clock has not reached the thread's period boundary,
//!   the next dispatch re-issues the pick in `O(1)` without touching the
//!   queue.  A span loop runs a stretch of such hits without calling the
//!   dispatcher at all: [`Dispatcher::hit_run`] hands out a [`HitRun`], a
//!   copy of the state a hit reads and writes, and
//!   [`Dispatcher::end_hit_run`] writes it back once the run stops; a
//!   cached dispatch is a run of one hit.  The cached thread is the
//!   off-queue pick, so it has no queue key to go stale: a fast pick bumps
//!   the pick sequence on the entry, which only pushes it further behind
//!   threads of its own goodness — and the front has none, or the pick
//!   would not have sorted first.  A settled span disarms the cache but
//!   leaves the pick off the queue, so the counted miss that follows is a
//!   compare with the front, not a link and a pop.
//! * **Batched span charging.** [`Dispatcher::charge_span`] accumulates
//!   consecutive charges to the cached thread in `span_pending_us` and
//!   settles them into the account in one batch, but only while the
//!   deferral is invisible: `crate::settle::span_settle_reason` forces a
//!   settle on any period boundary, throttle edge or zero-length charge,
//!   and every other operation that could read or roll the account
//!   ([`Dispatcher::dispatch`]'s slow path,
//!   [`Dispatcher::charge`], block/unblock, migration, re-reservation,
//!   [`Dispatcher::sync_all`], [`Dispatcher::drain_usage_changes`])
//!   settles on entry.  Invariant: while `span_pending_us > 0`, the
//!   pending slot's account has strictly positive remaining budget after
//!   the batch and its next period boundary is still in the future at
//!   every accumulation instant, so the batch always lands in the period
//!   it was consumed in.  The drain in `advance_to` never settles: the
//!   span thread is running (never throttled), so no armed timer can name
//!   its slot, and other slots' rollovers cannot touch its account.
//!
//! The golden SimStats captures pin the whole optimisation as
//! observationally invisible.
//!
//! # Period boundaries and timers
//!
//! Period boundaries roll lazily: a thread's account is brought up to
//! date when the thread is next touched (picked, charged, blocked,
//! unblocked, re-reserved, migrated) or explicitly synced
//! ([`Dispatcher::sync_all`], [`Dispatcher::drain_usage_changes`]), so
//! [`Dispatcher::usage`] may lag until then.  What happens at a boundary,
//! and who keeps a timer, are each stated once:
//!
//! * **The boundary roll** (`roll`) closes the thread's whole backlog of
//!   periods in its [`UsageAccount`] in one `O(1)` batch on the exact
//!   periodic grid anchored at the last reservation change
//!   (`sync_entry`), moves its next boundary, releases it if it was
//!   throttled, books the rollovers and missed deadlines — one per
//!   boundary it sat runnable and underserved through — and puts it on
//!   the usage watch list if its ratio moved.
//! * **The timer rule** (`rearm`): only a throttled thread keeps a timer,
//!   at its next boundary — its release is the one boundary that can
//!   change a dispatch decision, and the paper's "no work unless at least
//!   one timer has expired".
//!
//! The run queue and the timer list keep no record of a slot's key: both
//! keys and both memberships are functions of the thread's entry
//! (`Filing`).  Every site that changes a key input (pick sequence,
//! period, next boundary) or a membership state reads the filing before
//! the change and hands it to `refile` after, which unlinks under it.
//!
//! The cache and the span batch are counted by the always-on [`DispatchStats`]
//! (exposed per CPU by [`Dispatcher::stats`] and machine-wide by
//! [`crate::Machine::stats`]): every dispatch decision is
//! either a `quantum_cache_hits` (served by the cache in `O(1)`) or a
//! `quantum_cache_misses` (slow path), and every forced settle lands in
//! exactly one of `settles_period_boundary`, `settles_throttle_edge` or
//! `settles_zero_span` — the [`SettleCause`] taxonomy.
//! With a telemetry recorder attached ([`Dispatcher::set_telemetry`]) the
//! same points also emit
//! structured trace events (`quantum_cache_hit` / `quantum_cache_miss`
//! instants, `settle:<reason>` points, `period_rollover` marks).

use crate::accounting::UsageAccount;
use crate::error::SchedError;
use crate::goodness::rbs_goodness;
use crate::hit_run::HitRun;
use crate::idmap::IdMap;
use crate::reservation::Reservation;
use crate::runqueue::{RunKey, RunQueue};
use crate::settle::{charge_exhausts, span_settle_reason};
use crate::timerlist::TimerList;
use crate::types::{ThreadId, ThreadState};
use rrs_telemetry::{Recorder, SettleCause, TraceEventKind};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration for the dispatcher.
#[derive(Debug, Clone, Copy)]
pub struct DispatcherConfig {
    /// The dispatch (timer) interval in microseconds; the paper's prototype
    /// uses 1 ms.
    pub dispatch_interval_us: u64,
    /// Modelled cost of one dispatch decision (`schedule()` plus
    /// `do_timers()`), in microseconds.  Used for the Figure 8 overhead
    /// experiment; set to 0.0 to disable overhead modelling.
    pub dispatch_cost_us: f64,
    /// Additional modelled cost per context switch (cache and TLB refill),
    /// in microseconds.
    pub context_switch_cost_us: f64,
    /// Ignored: period boundaries always roll lazily (see the module
    /// docs).  Kept one more change for callers that still name it; its
    /// removal is queued with the benchmark's other renames.
    pub lazy_rollovers: bool,
}

impl Default for DispatcherConfig {
    fn default() -> Self {
        Self {
            dispatch_interval_us: 1_000,
            // Calibrated so that a 250 µs dispatch interval costs ≈ 2.7 % of
            // the CPU, matching the knee reported in Figure 8.
            dispatch_cost_us: 6.8,
            context_switch_cost_us: 1.9,
            lazy_rollovers: true,
        }
    }
}

/// Counters describing what the dispatcher has done so far.
///
/// The last five are the counter names the module docs' fast-path
/// invariants refer to: `quantum_cache_hits` / `quantum_cache_misses`
/// split every dispatch decision by whether the next-quantum cache served
/// it, and the three `settles_*` counters split batched span settles by
/// their [`SettleCause`].  Always counted (an increment is cheaper than a
/// branch to skip it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DispatchStats {
    /// Number of dispatch decisions taken.
    pub dispatches: u64,
    /// Number of dispatch decisions that switched to a different thread.
    pub context_switches: u64,
    /// Number of per-thread period boundaries processed.
    pub period_rollovers: u64,
    /// Number of missed deadlines detected at period boundaries.
    pub deadlines_missed: u64,
    /// Modelled scheduling overhead accumulated so far, in microseconds.
    pub overhead_us: f64,
    /// Time during which no thread was runnable, in microseconds.
    pub idle_us: u64,
    /// Dispatch decisions served by the next-quantum cache in `O(1)`.
    pub quantum_cache_hits: u64,
    /// Dispatch decisions that took the slow path (a pop off the run queue).
    pub quantum_cache_misses: u64,
    /// Span settles forced by reaching the thread's period boundary.
    pub settles_period_boundary: u64,
    /// Span settles forced by budget exhaustion (the throttle edge).
    pub settles_throttle_edge: u64,
    /// Span settles forced by a zero-length charge.
    pub settles_zero_span: u64,
}

impl DispatchStats {
    /// Accumulates another CPU's counters into this one.
    pub fn merge(&mut self, other: &DispatchStats) {
        self.dispatches += other.dispatches;
        self.context_switches += other.context_switches;
        self.period_rollovers += other.period_rollovers;
        self.deadlines_missed += other.deadlines_missed;
        self.overhead_us += other.overhead_us;
        self.idle_us += other.idle_us;
        self.quantum_cache_hits += other.quantum_cache_hits;
        self.quantum_cache_misses += other.quantum_cache_misses;
        self.settles_period_boundary += other.settles_period_boundary;
        self.settles_throttle_edge += other.settles_throttle_edge;
        self.settles_zero_span += other.settles_zero_span;
    }
}

/// The result of one dispatch decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchOutcome {
    /// The thread selected to run, or `None` if nothing is runnable.
    pub thread: Option<ThreadId>,
    /// How long the selection is valid for, in microseconds: the caller
    /// should run the thread (or idle) for at most this long before calling
    /// [`Dispatcher::advance_to`] and dispatching again.
    pub quantum_us: u64,
}

#[derive(Debug)]
struct ThreadEntry {
    id: ThreadId,
    reservation: Reservation,
    state: ThreadState,
    account: UsageAccount,
    /// Monotonic sequence number of the last time this thread was picked;
    /// used to round-robin among equal-period threads.
    last_picked_seq: u64,
    /// The earliest period boundary not yet rolled into the account — the
    /// one source of truth ([`Dispatcher::rearm`] arms the timer here,
    /// [`Dispatcher::roll`] moves it).  Boundaries sit on the exact
    /// periodic grid anchored at the last reservation change, so
    /// [`Dispatcher::sync_entry`] can batch any backlog in `O(1)`.
    next_boundary_us: u64,
    /// The last usage ratio handed out through
    /// [`Dispatcher::drain_usage_changes`]; a thread is only re-reported
    /// when the ratio moves.  Starts at 1.0 — the controller's default
    /// assumption for a thread it has never heard about.
    last_reported_ratio: f64,
    /// Whether this entry currently sits on [`Dispatcher::watch_list`].
    watched: bool,
    /// The caller's tag for the job this thread serves (the control
    /// loop's slot index), handed back by [`Dispatcher::span_owner`] and
    /// the usage feed so a caller resolves a thread without an id lookup.
    /// Opaque here, and carried across CPUs.
    owner: u32,
}

impl ThreadEntry {
    /// The key this thread ranks under in the run queue.
    fn run_key(&self) -> RunKey {
        RunKey {
            neg_goodness: -rbs_goodness(self.reservation.period),
            last_picked_seq: self.last_picked_seq,
            id: self.id,
        }
    }

    /// Where the rules file this thread (`off_queue`: it is that pick).
    fn filing(&self, off_queue: bool) -> Filing {
        Filing {
            queued: (self.state.is_runnable() && !off_queue).then(|| self.run_key()),
            armed: (self.state == ThreadState::Throttled)
                .then_some((self.next_boundary_us, self.id)),
        }
    }
}

/// The keys a thread is filed under, both derived from its entry: its run
/// key while it is runnable and not the off-queue pick, its release timer
/// `(next boundary, id)` while it is throttled (the timer rule).
#[derive(Clone, Copy, Default)]
struct Filing {
    queued: Option<RunKey>,
    armed: Option<(u64, ThreadId)>,
}

/// A thread lifted out of one dispatcher for insertion into another — the
/// payload of a cross-CPU migration.
///
/// Carries everything the destination CPU needs to continue the thread's
/// current period exactly where the source CPU left it: the reservation,
/// run state, the full usage account (budget, consumption, lifetime
/// totals) and the next period boundary.  Obtained from
/// `Dispatcher::take_thread`, consumed by `Dispatcher::inject_thread`.
#[derive(Debug, Clone, Copy)]
pub struct MigratedThread {
    /// The migrating thread's id.
    pub id: ThreadId,
    reservation: Reservation,
    state: ThreadState,
    account: UsageAccount,
    /// The thread's next period boundary on the source CPU.  Carried
    /// verbatim so a mid-period reservation change (which re-anchors from
    /// the change instant, not the period start) survives migration.
    next_boundary_us: u64,
    /// The thread's owner tag; a move between machines sets a new one
    /// ([`crate::Machine::inject_thread_on`]).
    pub(crate) owner: u32,
}

impl MigratedThread {
    /// The thread's reservation at the moment it was taken.
    pub fn reservation(&self) -> Reservation {
        self.reservation
    }

    /// The thread's run state at the moment it was taken.
    pub fn state(&self) -> ThreadState {
        self.state
    }
}

/// The reservation-based dispatcher.
///
/// # Examples
///
/// ```
/// use rrs_scheduler::{Dispatcher, DispatcherConfig, Period, Proportion, Reservation, ThreadId};
///
/// let mut d = Dispatcher::new(DispatcherConfig::default());
/// let r = Reservation::new(Proportion::from_ppt(500), Period::from_millis(10));
/// d.add_thread_preadmitted(ThreadId(1), r).unwrap();
/// let outcome = d.dispatch();
/// assert_eq!(outcome.thread, Some(ThreadId(1)));
/// ```
#[derive(Debug)]
pub struct Dispatcher {
    config: DispatcherConfig,
    /// Dense slot-indexed thread storage; freed slots are reused LIFO.
    entries: Vec<Option<ThreadEntry>>,
    free: Vec<u32>,
    /// Id → dense slot.  Boxed: only the id-keyed edge reads it, and
    /// inline its 80 bytes spread the fields a dispatch span touches over
    /// one more cache line (`spin_uncontended` `run_wall_s` ×1.05).
    by_id: Box<IdMap<ThreadId, u32>>,
    /// Every runnable thread but the off-queue pick, by dispatch key.
    runnable: RunQueue,
    /// Running sum of reserved proportions, in parts per thousand.
    reserved_ppt: u32,
    /// Every throttled thread's release timer.
    timers: TimerList,
    now_us: u64,
    running: Option<ThreadId>,
    pick_seq: u64,
    stats: DispatchStats,
    /// Dense slots whose usage ratio may have moved since the last
    /// [`Dispatcher::drain_usage_changes`] — the changed-only usage feed
    /// for the controller.  May hold stale slots (cleared on drain).
    watch_list: Vec<u32>,
    /// Generation counter bumped on every mutation that can change the run
    /// queue's composition or ranking (any re-rank or removal).  The
    /// next-quantum cache is valid only while it is unchanged.
    queue_gen: u64,
    /// Dense slot of the most recently dispatched thread — the implicit
    /// target of [`Dispatcher::charge_span`] and
    /// [`Dispatcher::block_span`].  Cleared when that thread leaves the
    /// dispatcher or a dispatch goes idle.
    span_slot: Option<u32>,
    /// Dense slot of the last slow-path pick while it is runnable — it is
    /// then off the run queue: [`Dispatcher::dispatch_slow`] pops its pick,
    /// or picks this one again in place, and a pick that stays runnable
    /// only rejoins the queue when the next slow dispatch finds it
    /// outranked.  A throttle, block or removal clears it.
    off_queue_pick: Option<u32>,
    /// `Some(queue_gen)` recorded when a dispatch armed the next-quantum
    /// cache; the cache is live while it equals the current `queue_gen`
    /// (the counter only grows, so any mutation disarms it for good).
    quantum_cache_gen: Option<u64>,
    /// Span charges accumulated against `span_slot`'s account but not yet
    /// settled into it (see the module docs).
    span_pending_us: u64,
    /// Trace-event sink when telemetry is enabled; `None` costs one branch
    /// per instrumentation point.
    telemetry: Option<Arc<Recorder>>,
    /// The CPU index recorded on this dispatcher's trace events.
    telemetry_cpu: u32,
}

impl Dispatcher {
    /// Creates a dispatcher with the given configuration.
    pub fn new(config: DispatcherConfig) -> Self {
        Self {
            config,
            entries: Vec::new(),
            free: Vec::new(),
            by_id: Box::default(),
            runnable: RunQueue::default(),
            reserved_ppt: 0,
            timers: TimerList::new(),
            now_us: 0,
            running: None,
            pick_seq: 0,
            stats: DispatchStats::default(),
            watch_list: Vec::new(),
            queue_gen: 0,
            span_slot: None,
            off_queue_pick: None,
            quantum_cache_gen: None,
            span_pending_us: 0,
            telemetry: None,
            telemetry_cpu: 0,
        }
    }

    /// Attaches (or detaches) a telemetry recorder; `cpu` is the index
    /// stamped on this dispatcher's trace events.
    pub fn set_telemetry(&mut self, recorder: Option<Arc<Recorder>>, cpu: u32) {
        self.telemetry = recorder;
        self.telemetry_cpu = cpu;
    }

    /// Current scheduler time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// The configuration the dispatcher was created with.
    pub fn config(&self) -> DispatcherConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DispatchStats {
        self.stats
    }

    /// [`DispatchStats::overhead_us`] alone — what a span loop reads after
    /// every dispatch, without copying the other ten counters.
    #[inline]
    pub fn overhead_us(&self) -> f64 {
        self.stats.overhead_us
    }

    /// Sum of the proportions of all threads' reservations, in parts per
    /// thousand.  Unlike [`crate::Proportion`], this is not clamped at 1000, so an
    /// oversubscribed system reports a value above 1000.  Maintained
    /// incrementally, so least-loaded placement stays `O(1)` per query.
    pub(crate) fn total_reserved_ppt(&self) -> u32 {
        self.reserved_ppt
    }

    /// Number of threads registered here.
    pub(crate) fn thread_count(&self) -> usize {
        self.by_id.len()
    }

    /// The dense slot `id` occupies — the id → slot edge.  Valid for the
    /// slot-addressed methods until the thread is removed or taken.
    pub fn slot_of(&self, id: ThreadId) -> Option<u32> {
        self.by_id.get(id)
    }

    fn resolve(&self, id: ThreadId) -> Result<u32, SchedError> {
        self.slot_of(id).ok_or(SchedError::UnknownThread(id))
    }

    /// The entry at `slot`, provided it is still `id`'s.
    fn entry_at(&self, slot: u32, id: ThreadId) -> Option<&ThreadEntry> {
        self.entries
            .get(slot as usize)?
            .as_ref()
            .filter(|e| e.id == id)
    }

    /// Whether `slot` is (still) the slot `id` occupies.
    pub(crate) fn holds(&self, slot: u32, id: ThreadId) -> bool {
        self.entry_at(slot, id).is_some()
    }

    /// Fails with [`SchedError::UnknownThread`] unless `slot` holds `id`:
    /// the identity check behind every slot-addressed entry point.
    fn verify(&self, slot: u32, id: ThreadId) -> Result<(), SchedError> {
        if self.holds(slot, id) {
            Ok(())
        } else {
            Err(SchedError::UnknownThread(id))
        }
    }

    fn entry_of(&self, id: ThreadId) -> Option<&ThreadEntry> {
        self.entry_at(self.slot_of(id)?, id)
    }

    /// Stores a fresh entry, indexes it, and returns its dense slot.
    fn link(&mut self, entry: ThreadEntry) -> u32 {
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.entries.push(None);
                u32::try_from(self.entries.len() - 1).expect("fewer than 2^32 threads")
            }
        };
        self.reserved_ppt += entry.reservation.proportion.ppt();
        self.by_id.insert(entry.id, idx);
        self.entries[idx as usize] = Some(entry);
        self.refile(idx, Filing::default());
        // A fresh reservation's ratio is about to diverge from whatever the
        // controller last saw, so it goes straight on watch.
        self.watch(idx);
        idx
    }

    /// Removes the entry at `idx` from every index and frees the slot.
    fn unlink(&mut self, idx: u32) -> ThreadEntry {
        let entry = self.entries[idx as usize]
            .take()
            .expect("unlink is only called with a resolved or verified slot, which is occupied");
        self.queue_gen += 1;
        if self.span_slot == Some(idx) {
            debug_assert_eq!(self.span_pending_us, 0, "unlinked slot with pending charge");
            self.span_slot = None;
            self.span_pending_us = 0;
        }
        let off_queue = self.off_queue_pick.take_if(|pick| *pick == idx).is_some();
        let was = entry.filing(off_queue);
        self.reindex(idx, was.queued, None);
        self.rearm(idx, was.armed, None);
        self.reserved_ppt -= entry.reservation.proportion.ppt();
        self.by_id.remove(entry.id);
        self.free.push(idx);
        entry
    }

    /// Moves the thread at `idx` from `was`, its filing read before a
    /// change, to where the rules file it now: `O(1)` at either end of a
    /// structure, a binary search plus a shift elsewhere, nothing for a
    /// key that did not change.  Always bumps `queue_gen`.
    fn refile(&mut self, idx: u32, was: Filing) {
        self.queue_gen += 1;
        let entry = self.entries[idx as usize]
            .as_ref()
            .expect("a re-file follows a change to an occupied slot");
        if !entry.state.is_runnable() {
            self.off_queue_pick.take_if(|pick| *pick == idx);
        }
        let now = entry.filing(self.off_queue_pick == Some(idx));
        self.reindex(idx, was.queued, now.queued);
        self.rearm(idx, was.armed, now.armed);
    }

    /// Re-ranks the slot from `was`, the key it is queued under, to `now`.
    fn reindex(&mut self, idx: u32, was: Option<RunKey>, now: Option<RunKey>) {
        if was == now {
            return;
        }
        if let Some(key) = was {
            let queued = self.runnable.remove(idx, key);
            debug_assert!(queued, "slot {idx} was not queued under its derived key");
        }
        if let Some(key) = now {
            self.runnable.insert(idx, key);
        }
    }

    /// Registers a thread under `reservation`: it starts Ready with a full
    /// budget for a period opened now, its first boundary one period away.
    ///
    /// The dispatcher has no admission test of its own.  Whether the
    /// reservation fits is the adaptive controller's ruling, made against
    /// its overload threshold before it calls here ("preadmitted"); it
    /// squishes allocations instead of rejecting them, so its running jobs
    /// can legitimately sit at that threshold.  Fails only on a duplicate
    /// id.  The thread's owner tag is 0.
    pub fn add_thread_preadmitted(
        &mut self,
        id: ThreadId,
        reservation: Reservation,
    ) -> Result<(), SchedError> {
        self.add_thread_owned(id, reservation, 0)
    }

    /// [`Dispatcher::add_thread_preadmitted`] with an owner tag.
    pub(crate) fn add_thread_owned(
        &mut self,
        id: ThreadId,
        reservation: Reservation,
        owner: u32,
    ) -> Result<(), SchedError> {
        if self.by_id.contains(id) {
            return Err(SchedError::DuplicateThread(id));
        }
        let mut account = UsageAccount::new(self.now_us, reservation.budget_micros());
        account.mark_runnable();
        self.link(ThreadEntry {
            id,
            reservation,
            state: ThreadState::Ready,
            account,
            last_picked_seq: 0,
            next_boundary_us: self.now_us + reservation.period.as_micros(),
            last_reported_ratio: 1.0,
            watched: false,
            owner,
        });
        Ok(())
    }

    /// Lifts a thread out of this dispatcher for migration to another CPU,
    /// preserving its reservation, run state and usage account.
    ///
    /// A running thread is demoted to Ready (it is not running on the
    /// destination CPU); a throttled one's release timer goes with its
    /// entry here and is armed again by [`Dispatcher::inject_thread`].
    #[cfg(test)]
    pub(crate) fn take_thread(&mut self, id: ThreadId) -> Result<MigratedThread, SchedError> {
        let slot = self.resolve(id)?;
        self.take_thread_slot(slot, id)
    }

    /// [`Dispatcher::take_thread`] for a caller that holds the thread's
    /// dense slot.
    pub(crate) fn take_thread_slot(
        &mut self,
        idx: u32,
        id: ThreadId,
    ) -> Result<MigratedThread, SchedError> {
        self.settle_span();
        self.verify(idx, id)?;
        // Settle any boundary backlog on this CPU's clock, then hand the
        // next boundary to the destination.
        self.sync_entry(idx);
        if self.running == Some(id) {
            self.running = None;
        }
        let entry = self.unlink(idx);
        let state = match entry.state {
            ThreadState::Running => ThreadState::Ready,
            other => other,
        };
        Ok(MigratedThread {
            id,
            reservation: entry.reservation,
            state,
            account: entry.account,
            next_boundary_us: entry.next_boundary_us,
            owner: entry.owner,
        })
    }

    /// Inserts a migrated thread, continuing its current period.
    ///
    /// The thread keeps the boundary grid the source CPU had scheduled.  A
    /// boundary that has already passed on this CPU's clock rolls at once;
    /// a thread still throttled gets its release timer at its next
    /// boundary.  Placement is the migrating authority's responsibility,
    /// exactly like the controller's actuation path.
    pub(crate) fn inject_thread(&mut self, thread: MigratedThread) -> Result<(), SchedError> {
        if self.by_id.contains(thread.id) {
            return Err(SchedError::DuplicateThread(thread.id));
        }
        let idx = self.link(ThreadEntry {
            id: thread.id,
            reservation: thread.reservation,
            state: thread.state,
            account: thread.account,
            last_picked_seq: 0,
            next_boundary_us: thread.next_boundary_us,
            last_reported_ratio: 1.0,
            watched: false,
            owner: thread.owner,
        });
        self.sync_entry(idx);
        Ok(())
    }

    /// The next throttle release, if any — the next instant at which an
    /// idle CPU has work to do.
    pub fn next_timer_expiry(&self) -> Option<u64> {
        self.timers.next_expiry()
    }

    /// Re-books idle time after an idle dispatch.
    ///
    /// An idle [`Dispatcher::dispatch`] charges its returned quantum to
    /// [`DispatchStats::idle_us`] on the assumption that the caller idles
    /// for exactly that long.  A driver that idles for a different span —
    /// the simulator jumps an idle CPU straight to its next local event,
    /// and books the jump with `recorded_us = 0` — calls this with what
    /// was recorded and what actually elapsed so the statistic stays
    /// truthful.
    pub fn rebook_idle_us(&mut self, recorded_us: u64, actual_us: u64) {
        self.stats.idle_us = self.stats.idle_us.saturating_sub(recorded_us) + actual_us;
    }

    /// Removes a thread from the dispatcher.
    #[cfg(test)]
    pub(crate) fn remove_thread(&mut self, id: ThreadId) -> Result<(), SchedError> {
        self.settle_span();
        let idx = self.resolve(id)?;
        self.remove_thread_slot(idx, id)
    }

    /// Removes the thread at `idx`, provided it is still `id`'s.
    pub(crate) fn remove_thread_slot(&mut self, idx: u32, id: ThreadId) -> Result<(), SchedError> {
        self.settle_span();
        self.verify(idx, id)?;
        // Settle the departing thread's boundary backlog so the global
        // rollover and miss statistics don't lose its final periods.
        self.sync_entry(idx);
        self.unlink(idx);
        if self.running == Some(id) {
            self.running = None;
        }
        Ok(())
    }

    /// Changes a thread's reservation — the actuation path used by the
    /// controller every controller period.  The change takes effect
    /// immediately for the budget of future periods; the current period's
    /// budget is adjusted proportionally if it grows.
    ///
    /// Nothing is checked against a threshold here: the controller is
    /// responsible for keeping the total under its own (it squishes
    /// allocations when the system would otherwise be oversubscribed).
    pub fn set_reservation(
        &mut self,
        id: ThreadId,
        reservation: Reservation,
    ) -> Result<(), SchedError> {
        let slot = self.resolve(id)?;
        self.set_reservation_slot(slot, id, reservation)
    }

    /// [`Dispatcher::set_reservation`] for a caller that holds the
    /// thread's dense slot — the per-actuation path, with no id → slot
    /// lookup.
    ///
    /// Most actuations under overload move the grant alone.  Unless the
    /// period changes or a throttled thread may be released, its filing
    /// does not move, so it skips the re-file and the run key it would
    /// read; it still bumps `queue_gen`, as a re-file would.
    pub(crate) fn set_reservation_slot(
        &mut self,
        slot: u32,
        id: ThreadId,
        reservation: Reservation,
    ) -> Result<(), SchedError> {
        let now = self.now_us;
        self.settle_span();
        self.verify(slot, id)?;
        // Settle the old reservation's boundary backlog before the grid is
        // re-anchored below.
        self.sync_entry(slot);
        let entry = self.entries[slot as usize]
            .as_mut()
            .expect("verified occupied above; neither settle nor sync frees a slot");
        let new_period = entry.reservation.period != reservation.period;
        let was = (new_period || entry.state == ThreadState::Throttled)
            .then(|| entry.filing(self.off_queue_pick == Some(slot)));
        let old = std::mem::replace(&mut entry.reservation, reservation);
        let new_budget = reservation.budget_micros();
        // Growing the budget mid-period can un-throttle the thread; a
        // shrinking budget only applies from the next period so work already
        // granted is not clawed back.
        if new_budget > entry.account.budget_us {
            entry.account.budget_us = new_budget;
            if entry.state == ThreadState::Throttled && !entry.account.exhausted() {
                entry.state = ThreadState::Ready;
                entry.account.mark_runnable();
            }
        }
        if new_period {
            // New period length: re-anchor the boundary grid from now.
            entry.next_boundary_us = now + reservation.period.as_micros();
        }
        self.reserved_ppt -= old.proportion.ppt();
        self.reserved_ppt += reservation.proportion.ppt();
        self.queue_gen += 1;
        if let Some(was) = was {
            self.refile(slot, was);
        }
        self.watch(slot);
        Ok(())
    }

    /// Returns a thread's current reservation.
    pub fn reservation(&self, id: ThreadId) -> Option<Reservation> {
        self.reservation_slot(self.slot_of(id)?, id)
    }

    /// [`Dispatcher::reservation`] for a caller that holds the thread's
    /// dense slot.
    pub(crate) fn reservation_slot(&self, slot: u32, id: ThreadId) -> Option<Reservation> {
        self.entry_at(slot, id).map(|t| t.reservation)
    }

    /// Returns a thread's current state.
    pub fn thread_state(&self, id: ThreadId) -> Option<ThreadState> {
        self.entry_of(id).map(|t| t.state)
    }

    /// Returns a copy of a thread's usage account.
    pub fn usage(&self, id: ThreadId) -> Option<UsageAccount> {
        self.entry_of(id).map(|t| t.account)
    }

    /// [`Dispatcher::usage`] for a caller that holds the thread's dense
    /// slot.
    pub(crate) fn usage_slot(&self, slot: u32, id: ThreadId) -> Option<UsageAccount> {
        self.entry_at(slot, id).map(|t| t.account)
    }

    /// Marks a thread as blocked (waiting on I/O or a queue).
    pub fn block(&mut self, id: ThreadId) -> Result<(), SchedError> {
        let slot = self.resolve(id)?;
        self.block_slot(slot, id)
    }

    /// [`Dispatcher::block`] for a caller that holds the thread's dense
    /// slot.
    pub(crate) fn block_slot(&mut self, slot: u32, id: ThreadId) -> Result<(), SchedError> {
        self.settle_span();
        self.verify(slot, id)?;
        self.block_inner(slot);
        Ok(())
    }

    /// Blocks the thread picked by the last [`Dispatcher::dispatch`]
    /// without resolving its id — the simulator's hot-path pairing when a
    /// span ends in a voluntary block.  Returns the blocked thread's dense
    /// slot so the caller can hand it back to
    /// [`Dispatcher::unblock_slot`] at wake-up time.
    pub fn block_span(&mut self) -> u32 {
        let idx = self
            .span_slot
            .expect("block_span without a dispatched span");
        self.settle_span();
        self.block_inner(idx);
        idx
    }

    fn block_inner(&mut self, idx: u32) {
        // Roll boundaries while the thread still counts as runnable, so
        // the periods it sat runnable through count their misses.
        self.sync_entry(idx);
        let entry = self.entries[idx as usize].as_mut().expect(
            "block_inner receives the current span's slot or a verified one, both occupied",
        );
        let was = entry.filing(self.off_queue_pick == Some(idx));
        let id = entry.id;
        entry.state = ThreadState::Blocked;
        if self.running == Some(id) {
            self.running = None;
        }
        self.refile(idx, was);
    }

    /// Wakes a blocked thread.  Threads that are throttled stay throttled
    /// until their next period even if woken.
    pub fn unblock(&mut self, id: ThreadId) -> Result<(), SchedError> {
        let slot = self.resolve(id)?;
        self.unblock_slot(slot, id)
    }

    /// [`Dispatcher::unblock`] for a caller that holds the thread's dense
    /// slot (from [`Dispatcher::block_span`], say) — the simulator's wake
    /// path, with no id → slot lookup.
    pub fn unblock_slot(&mut self, slot: u32, id: ThreadId) -> Result<(), SchedError> {
        self.settle_span();
        self.verify(slot, id)?;
        self.unblock_inner(slot);
        Ok(())
    }

    fn unblock_inner(&mut self, idx: u32) {
        // Refresh the budget first: a thread that slept across its boundary
        // wakes into a fresh period, not a stale throttle.
        self.sync_entry(idx);
        let Some(entry) = self.entries[idx as usize].as_mut() else {
            return;
        };
        if entry.state == ThreadState::Blocked {
            // A blocked thread is filed nowhere.
            if entry.account.exhausted() {
                entry.state = ThreadState::Throttled;
            } else {
                entry.state = ThreadState::Ready;
                entry.account.mark_runnable();
            }
            self.refile(idx, Filing::default());
        }
    }

    /// Advances the scheduler clock to `now_us`, releasing every throttled
    /// thread whose timer expired on the way (`do_timers()` in the
    /// prototype).  The "is a timer due" test is inlined with the clock
    /// store, so a span loop pays a compare and a peek at the timer list's
    /// front and makes no call unless a timer has expired — the paper's "no
    /// work unless at least one timer has expired".
    #[inline]
    pub fn advance_to(&mut self, now_us: u64) {
        if now_us > self.now_us {
            self.now_us = now_us;
            if self.timers.next_expiry().is_some_and(|e| e <= now_us) {
                self.release_expired();
            }
        }
    }

    /// Releases every throttled thread whose timer has expired by the
    /// clock: out of line, so [`Dispatcher::advance_to`] inlines only its
    /// test.
    #[inline(never)]
    fn release_expired(&mut self) {
        // The roll releases the thread, and its re-file takes the timer off
        // the front: the same slot twice in a row would spin, so it fails.
        let mut last = None;
        while let Some(idx) = self.timers.next_expired(self.now_us) {
            assert_ne!(last.replace(idx), Some(idx), "a timer outlived its release");
            self.sync_entry(idx);
        }
    }

    /// Rolls the slot's period-boundary backlog into its account in one
    /// `O(1)` batch on the grid.  No-op when no boundary has passed.
    fn sync_entry(&mut self, idx: u32) {
        let now = self.now_us;
        let Some(entry) = self.entries.get(idx as usize).and_then(Option::as_ref) else {
            return;
        };
        if entry.next_boundary_us > now {
            return;
        }
        let period = entry.reservation.period.as_micros().max(1);
        let k = (now - entry.next_boundary_us) / period + 1;
        let final_start = entry.next_boundary_us + (k - 1) * period;
        self.roll(idx, k, final_start);
    }

    /// The period-boundary roll: closes `k` periods of the thread's
    /// account, the last one ending — and the open one starting — at
    /// `final_start_us`, puts its next boundary one period after that,
    /// releases it if it was throttled, and books the rollovers and missed
    /// deadlines.
    fn roll(&mut self, idx: u32, k: u64, final_start_us: u64) {
        // A boundary roll must never race an unsettled span batch for the
        // same slot: every settle point runs before its roll.
        debug_assert!(
            self.span_pending_us == 0 || self.span_slot != Some(idx),
            "boundary roll with an unsettled span batch for the same slot"
        );
        let entry = self.entries[idx as usize]
            .as_mut()
            .expect("both callers hold a live slot: a popped timer's or a probed entry's");
        let reservation = entry.reservation;
        let runnable_rest = entry.state.is_runnable();
        // Only a release moves a filing (the run key ignores the boundary).
        let released = entry.state == ThreadState::Throttled;
        let was = released.then(|| entry.filing(false));
        let missed = entry.account.roll_periods(
            k,
            reservation.budget_micros(),
            runnable_rest,
            final_start_us,
        );
        entry.next_boundary_us = final_start_us + reservation.period.as_micros().max(1);
        if released {
            entry.state = ThreadState::Ready;
        }
        if entry.state.is_runnable() {
            entry.account.mark_runnable();
        }
        let ratio_changed = entry.account.last_period_usage_ratio() != entry.last_reported_ratio;
        let thread = entry.id.0;
        self.stats.period_rollovers += k;
        self.stats.deadlines_missed += missed;
        if let Some(t) = &self.telemetry {
            t.record(
                self.now_us,
                TraceEventKind::PeriodRollover {
                    cpu: self.telemetry_cpu,
                    thread,
                    count: k as u32,
                },
            );
        }
        if let Some(was) = was {
            self.refile(idx, was);
        }
        if ratio_changed {
            self.watch(idx);
        }
    }

    /// The timer rule: only a throttled thread keeps a timer, at its next
    /// boundary (its release is the one boundary that can change a
    /// dispatch decision).  Re-arms the slot from `was`, the timer it
    /// holds, to `now`, the one the rule gives it after a change.
    fn rearm(&mut self, idx: u32, was: Option<(u64, ThreadId)>, now: Option<(u64, ThreadId)>) {
        if was == now {
            return;
        }
        if let Some((expiry, id)) = was {
            let armed = self.timers.cancel(idx, id, expiry);
            debug_assert!(armed, "slot {idx} was not armed at its derived expiry");
        }
        if let Some((expiry, id)) = now {
            self.timers.arm(idx, id, expiry);
        }
    }

    /// Settles the pending span batch and every thread's boundary backlog,
    /// so that [`Dispatcher::usage`]-style queries and final statistics
    /// reflect the current instant.
    pub fn sync_all(&mut self) {
        self.settle_span();
        for idx in 0..self.entries.len() as u32 {
            self.sync_entry(idx);
        }
    }

    /// Visits every thread whose usage ratio changed since its last visit,
    /// after settling its boundary backlog — the changed-only usage feed
    /// the controller consumes instead of a sweep over every account.
    ///
    /// A thread leaves the watch set once it has settled at a 0.0 ratio
    /// with nothing consumed in the current period, under a non-zero
    /// budget both now and from the next boundary on; any later activity
    /// (pick, charge, reservation change) re-watches it.  A zero budget
    /// keeps it watched: a period it governs closes at the 0/0 ratio 1.0
    /// (`UsageAccount::last_period_usage_ratio`), and no timer would
    /// re-watch an untouched thread for that boundary.  `f` gets each
    /// thread's id, owner tag and ratio.
    pub fn drain_usage_changes(&mut self, mut f: impl FnMut(ThreadId, u32, f64)) {
        self.settle_span();
        let mut i = 0;
        while i < self.watch_list.len() {
            let idx = self.watch_list[i];
            let live = self.entries[idx as usize]
                .as_ref()
                .is_some_and(|e| e.watched);
            if !live {
                // The slot was freed (and possibly recycled) since it was
                // watched; drop the stale occurrence.
                self.watch_list.swap_remove(i);
                continue;
            }
            self.sync_entry(idx);
            let entry = self.entries[idx as usize]
                .as_mut()
                .expect("occupancy verified by the `live` probe two lines up");
            let ratio = entry.account.last_period_usage_ratio();
            if ratio != entry.last_reported_ratio {
                entry.last_reported_ratio = ratio;
                f(entry.id, entry.owner, ratio);
            }
            let settled = ratio == 0.0
                && entry.account.used_this_period_us == 0
                && entry.account.budget_us > 0
                && entry.reservation.budget_micros() > 0;
            if settled {
                entry.watched = false;
                self.watch_list.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Puts the slot on the usage watch list (idempotent).
    fn watch(&mut self, idx: u32) {
        if let Some(entry) = self.entries[idx as usize].as_mut() {
            if !entry.watched {
                entry.watched = true;
                self.watch_list.push(idx);
            }
        }
    }

    /// Returns `true` if any thread is currently runnable — the calendar
    /// driver's `O(1)` "is this CPU busy?" probe.  The off-queue pick
    /// counts: a CPU whose only runnable thread is mid-span is busy.
    pub fn has_runnable(&self) -> bool {
        self.off_queue_pick.is_some() || self.runnable.peek().is_some()
    }

    /// Takes one dispatch decision: picks the runnable thread with the
    /// highest goodness and returns it together with the quantum it may run
    /// for.  Charges the modelled dispatch overhead.
    ///
    /// When the next-quantum cache is valid — nothing mutated the queue
    /// since the last pick, and that pick's period boundary is still ahead
    /// — the decision is re-issued in `O(1)` without touching the queue.
    /// That check is all a span loop inlines; the slow path is out of line.
    #[inline]
    pub fn dispatch(&mut self) -> DispatchOutcome {
        match self.dispatch_cached() {
            Some(outcome) => outcome,
            None => self.dispatch_slow(),
        }
    }

    /// [`Dispatcher::dispatch`] past the next-quantum cache: pick again the
    /// last pick in place if it is still runnable and sorts before the run
    /// queue's front, or else (linking the last pick first, if runnable)
    /// pop the front; then re-arm the cache.
    #[inline(never)]
    fn dispatch_slow(&mut self) -> DispatchOutcome {
        self.settle_span();
        self.stats.dispatches += 1;
        self.stats.overhead_us += self.config.dispatch_cost_us;
        self.stats.quantum_cache_misses += 1;
        if let Some(t) = &self.telemetry {
            t.record(
                self.now_us,
                TraceEventKind::CacheMiss {
                    cpu: self.telemetry_cpu,
                },
            );
        }
        // Pick the best runnable thread: highest goodness, ties broken by
        // least recently picked, then lowest id.  A last pick still
        // runnable is off the queue: picked again in place while it sorts
        // before the front, linked and passed over once it does not.  The
        // pick's key is only needed against a front, so a pick alone on
        // its CPU does not compute one.
        let (idx, key) = match self.off_queue_pick {
            Some(last) => {
                let entry = self.entries[last as usize]
                    .as_ref()
                    .expect("unlink clears the off-queue pick before freeing its slot");
                debug_assert!(entry.state.is_runnable(), "the off-queue pick is runnable");
                match self.runnable.peek() {
                    None => (last, None),
                    Some(front) => {
                        let key = entry.run_key();
                        if (key, last) < front {
                            (last, Some(key))
                        } else {
                            self.runnable.insert(last, key);
                            let (key, idx) = self
                                .runnable
                                .pop_front()
                                .expect("the queue held a front, and gained a thread");
                            (idx, Some(key))
                        }
                    }
                }
            }
            None => match self.runnable.pop_front() {
                Some((key, idx)) => (idx, Some(key)),
                None => {
                    // Nothing runnable: idle until the next timer or one
                    // dispatch interval, whichever comes first.
                    let quantum = self
                        .timers
                        .next_expiry()
                        .map(|t| t.saturating_sub(self.now_us).max(1))
                        .unwrap_or(self.config.dispatch_interval_us)
                        .min(self.config.dispatch_interval_us.max(1));
                    self.stats.idle_us += quantum;
                    if self.running.is_some() {
                        self.running = None;
                    }
                    self.span_slot = None;
                    self.quantum_cache_gen = None;
                    return DispatchOutcome {
                        thread: None,
                        quantum_us: quantum,
                    };
                }
            },
        };
        self.off_queue_pick = Some(idx);
        // Bring the picked thread's account up to date before the quantum is
        // capped by its remaining budget.  The rank key is period-derived,
        // so a roll cannot invalidate the pick.
        self.sync_entry(idx);

        self.pick_seq += 1;
        let pick_seq = self.pick_seq;
        let entry = self.entries[idx as usize]
            .as_mut()
            .expect("the runqueue only holds occupied slots (remove precedes unlink)");
        let picked = entry.id;
        if self.running != Some(picked) {
            self.stats.context_switches += 1;
            self.stats.overhead_us += self.config.context_switch_cost_us;
        }
        self.running = Some(picked);
        entry.last_picked_seq = pick_seq;
        entry.state = ThreadState::Running;
        entry.account.mark_runnable();

        let budget_cap = entry.account.remaining_us().max(1);
        let quantum = self.config.dispatch_interval_us.max(1).min(budget_cap);
        // Arm the next-quantum cache: if the re-keyed pick still sorts
        // before the queue's front (there is none if the pick had no key),
        // nothing can outrank it until some operation bumps `queue_gen`.
        self.span_slot = Some(idx);
        let sorts_first = key.is_none_or(|key| {
            let rekeyed = RunKey {
                last_picked_seq: pick_seq,
                ..key
            };
            self.runnable
                .peek()
                .is_none_or(|front| (rekeyed, idx) < front)
        });
        self.quantum_cache_gen = sorts_first.then_some(self.queue_gen);
        DispatchOutcome {
            thread: Some(picked),
            quantum_us: quantum,
        }
    }

    /// The `O(1)` fast path of [`Dispatcher::dispatch`]: a run of one cache
    /// hit ([`Dispatcher::hit_run`]).  Re-issues the cached pick when the
    /// queue generation is unchanged and the pick's period boundary is
    /// still ahead, and returns `None` — having changed nothing —
    /// otherwise.  Touches no map and no queue; observably identical to
    /// the slow path re-picking the same thread.
    #[inline]
    fn dispatch_cached(&mut self) -> Option<DispatchOutcome> {
        let mut run = self.hit_run()?;
        let quantum_us = run.hit(self.now_us, self.telemetry.as_deref())?;
        self.end_hit_run(run);
        Some(DispatchOutcome {
            thread: Some(run.thread),
            quantum_us,
        })
    }

    /// Opens a run of next-quantum cache hits: a copy of the state the
    /// cached pick's dispatches and deferred span charges read and write,
    /// or `None` when the cache is not live.  A span loop serves hits from
    /// it ([`HitRun::hit`], [`HitRun::defer`]) for as long as nothing else
    /// happens on the CPU, then hands it to [`Dispatcher::end_hit_run`].
    /// A live cache implies [`Dispatcher::has_runnable`].
    #[inline]
    pub fn hit_run(&self) -> Option<HitRun> {
        if self.quantum_cache_gen != Some(self.queue_gen) {
            return None;
        }
        let entry = self.entries[self.span_slot? as usize]
            .as_ref()
            .expect("queue mutations invalidate the cache before a slot can be freed");
        // Every change to the pick's state re-files it, which disarms the
        // cache, and a boundary roll marks a running thread runnable again.
        debug_assert_eq!(self.running, Some(entry.id), "cache survived a preemption");
        debug_assert!(
            entry.state == ThreadState::Running && entry.account.was_runnable_this_period,
            "the cached pick runs and counts as runnable this period"
        );
        Some(HitRun {
            now_us: self.now_us,
            pending_us: self.span_pending_us,
            pick_seq: self.pick_seq,
            overhead_us: self.stats.overhead_us,
            budget_us: entry.account.budget_us,
            used_us: entry.account.used_this_period_us,
            next_boundary_us: entry.next_boundary_us,
            next_expiry_us: self.timers.next_expiry().unwrap_or(u64::MAX),
            interval_us: self.config.dispatch_interval_us.max(1),
            dispatch_cost_us: self.config.dispatch_cost_us,
            thread: entry.id,
            cpu: self.telemetry_cpu,
        })
    }

    /// Writes a hit run back, once, when it ends: the clock, the pending
    /// batch, the pick sequence (on the pick's entry too), the overhead
    /// total, and one dispatch and one cache hit per hit served.  The
    /// state is then what the same dispatches and charges, made one by
    /// one, would have left.
    #[inline]
    pub fn end_hit_run(&mut self, run: HitRun) {
        debug_assert!(
            self.quantum_cache_gen == Some(self.queue_gen),
            "the dispatcher moved under an open hit run"
        );
        let hits = run.pick_seq - self.pick_seq;
        self.now_us = run.now_us;
        self.span_pending_us = run.pending_us;
        self.pick_seq = run.pick_seq;
        self.stats.dispatches += hits;
        self.stats.quantum_cache_hits += hits;
        self.stats.overhead_us = run.overhead_us;
        let idx = self.span_slot.expect("a hit run has a span slot");
        self.entries[idx as usize]
            .as_mut()
            .expect("a hit run's span slot is occupied")
            .last_picked_seq = run.pick_seq;
    }

    /// The owner tag of the thread the last [`Dispatcher::dispatch`]
    /// picked, while it is here — how a span loop finds the job it runs
    /// without an id lookup.  `None` after an idle dispatch.
    #[inline]
    pub fn span_owner(&self) -> Option<u32> {
        Some(self.entries.get(self.span_slot? as usize)?.as_ref()?.owner)
    }

    /// Charges `us` microseconds of CPU consumption to a thread, throttling
    /// it if its budget is exhausted.
    pub fn charge(&mut self, id: ThreadId, us: u64) -> Result<(), SchedError> {
        let slot = self.resolve(id)?;
        self.charge_slot(slot, id, us)
    }

    /// [`Dispatcher::charge`] for a caller that holds the thread's dense
    /// slot.
    pub(crate) fn charge_slot(
        &mut self,
        slot: u32,
        id: ThreadId,
        us: u64,
    ) -> Result<(), SchedError> {
        self.settle_span();
        self.verify(slot, id)?;
        self.charge_inner(slot, us);
        Ok(())
    }

    /// Charges `us` microseconds to the thread picked by the last
    /// [`Dispatcher::dispatch`] without resolving its id — the simulator's
    /// hot-path pairing.  Consecutive charges accumulate into a pending
    /// batch and settle in one account update when the deferral could
    /// change a decision (see `crate::settle`).  The batching is all a span
    /// loop inlines; a forced settle is out of line.
    #[inline]
    pub fn charge_span(&mut self, us: u64) {
        let idx = self
            .span_slot
            .expect("charge_span without a dispatched span");
        let entry = self.entries[idx as usize]
            .as_ref()
            .expect("unlink clears span_slot, so a live span always points at an occupied slot");
        let reason = span_settle_reason(
            us,
            entry.account.used_this_period_us + self.span_pending_us,
            entry.account.budget_us,
            self.now_us,
            entry.next_boundary_us,
        );
        match reason {
            None => self.span_pending_us += us,
            Some(reason) => self.charge_span_slow(idx, us, reason),
        }
    }

    /// [`Dispatcher::charge_span`] when the batch must settle first.
    #[inline(never)]
    fn charge_span_slow(&mut self, idx: u32, us: u64, cause: SettleCause) {
        self.note_settle(idx, cause);
        self.settle_span();
        self.charge_inner(idx, us);
    }

    /// Counts a forced span settle by its reason and, when telemetry is
    /// enabled, records the settle point as a trace event.
    fn note_settle(&mut self, idx: u32, cause: SettleCause) {
        match cause {
            SettleCause::PeriodBoundary => self.stats.settles_period_boundary += 1,
            SettleCause::ThrottleEdge => self.stats.settles_throttle_edge += 1,
            SettleCause::ZeroSpan => self.stats.settles_zero_span += 1,
        }
        if let Some(t) = &self.telemetry {
            let thread = self.entries[idx as usize]
                .as_ref()
                .map(|e| e.id.0)
                .unwrap_or(0);
            t.record(
                self.now_us,
                TraceEventKind::Settle {
                    cpu: self.telemetry_cpu,
                    thread,
                    cause,
                },
            );
        }
    }

    /// Applies the pending span batch to its account in one charge.  The
    /// batch can never throttle or cross a boundary — the settlement rule
    /// settles *before* either edge — so this is a plain account update
    /// plus a re-rank and a controller watch, identical in sum to having
    /// charged each span on its own.
    fn settle_span(&mut self) {
        if self.span_pending_us == 0 {
            return;
        }
        let idx = self.span_slot.expect("pending charge without a span slot");
        let us = std::mem::take(&mut self.span_pending_us);
        self.apply_charge(idx, us);
    }

    /// The full per-charge path for a resolved slot: sync the period
    /// backlog, then apply the charge.
    fn charge_inner(&mut self, idx: u32, us: u64) {
        // Charge against the current period, not a stale one.
        self.sync_entry(idx);
        self.apply_charge(idx, us);
    }

    /// Charges `us` to the slot's account, throttling it at the edge.  A
    /// charge that leaves the thread runnable moves no key (the off-queue
    /// pick stays off the queue), but the `queue_gen` bump disarms the
    /// next-quantum cache, so the next dispatch is a counted miss — one
    /// that picks it again in place while it still sorts first.
    fn apply_charge(&mut self, idx: u32, us: u64) {
        let entry = self.entries[idx as usize]
            .as_mut()
            .expect("apply_charge receives a span slot or a verified one, both occupied");
        let id = entry.id;
        // The shared settlement arithmetic IS the throttle test: the
        // batcher's edge prediction and this reference path cannot drift.
        let exhausts = charge_exhausts(
            entry.account.budget_us,
            entry.account.used_this_period_us,
            us,
        );
        entry.account.charge(us);
        debug_assert_eq!(exhausts, entry.account.exhausted());
        self.queue_gen += 1;
        if exhausts && entry.state.is_runnable() {
            let was = entry.filing(self.off_queue_pick == Some(idx));
            entry.state = ThreadState::Throttled;
            if self.running == Some(id) {
                self.running = None;
            }
            self.refile(idx, was);
        } else if entry.state == ThreadState::Running {
            entry.state = ThreadState::Ready;
        }
        self.watch(idx);
    }

    /// Test convenience: advances time by one quantum for the outcome of a
    /// dispatch where the selected thread ran for the full quantum.
    #[cfg(test)]
    fn run_quantum(&mut self) -> DispatchOutcome {
        let outcome = self.dispatch();
        if let Some(id) = outcome.thread {
            self.charge(id, outcome.quantum_us).expect("thread exists");
        }
        self.advance_to(self.now_us + outcome.quantum_us);
        outcome
    }

    /// The pre-index full-scan pick, kept as the oracle for the property
    /// test: the run-queue peek must always agree with it.  Scans the dense
    /// entry storage with an explicit lowest-id tie-break (the id-ordered
    /// original relied on first-seen-wins iteration order).
    #[cfg(test)]
    fn oracle_pick(&self) -> Option<ThreadId> {
        use std::cmp::Reverse;
        let mut best: Option<(i64, u64, Reverse<u64>)> = None;
        let mut best_id = None;
        for entry in self.entries.iter().flatten() {
            if !entry.state.is_runnable() {
                continue;
            }
            let g = rbs_goodness(entry.reservation.period);
            let key = (g, u64::MAX - entry.last_picked_seq, Reverse(entry.id.0));
            if best.is_none_or(|b| key > b) {
                best = Some(key);
                best_id = Some(entry.id);
            }
        }
        best_id
    }

    /// Cross-checks every derived index against a full recomputation.
    /// The run queue and the timer list are held to the filing rules
    /// exactly: a live slot is queued under its run key exactly when it is
    /// runnable and not the off-queue pick, and armed at
    /// `(next_boundary_us, id)` exactly when it is throttled; neither holds
    /// anything else.
    #[cfg(test)]
    pub(crate) fn assert_consistent(&self) {
        use std::collections::BTreeMap;
        self.runnable.assert_consistent();
        self.timers.assert_consistent();
        let mut queued: BTreeMap<u32, RunKey> = self
            .runnable
            .iter()
            .map(|(key, slot)| (slot, key))
            .collect();
        let mut armed: BTreeMap<u32, (u64, ThreadId)> =
            self.timers.iter().map(|(key, slot)| (slot, key)).collect();
        let mut reserved = 0u32;
        let mut live = 0usize;
        for (slot, entry) in self.entries.iter().enumerate() {
            let Some(entry) = entry else { continue };
            let idx = slot as u32;
            let id = entry.id;
            live += 1;
            assert_eq!(
                self.by_id.get(id),
                Some(idx),
                "by_id disagrees with dense storage for {id}"
            );
            reserved += entry.reservation.proportion.ppt();
            let off_queue = self.off_queue_pick == Some(idx);
            assert!(
                !off_queue || entry.state.is_runnable(),
                "off-queue pick {id} is not runnable"
            );
            assert_eq!(
                queued.remove(&idx),
                (entry.state.is_runnable() && !off_queue).then(|| entry.run_key()),
                "run-queue filing broken for {id} ({:?})",
                entry.state
            );
            // The timer rule ([`Dispatcher::rearm`]), restated: only a
            // throttled thread keeps a timer, at its next boundary.
            assert_eq!(
                armed.remove(&idx),
                (entry.state == ThreadState::Throttled).then_some((entry.next_boundary_us, id)),
                "timer rule broken for {id} ({:?})",
                entry.state
            );
            if entry.watched {
                assert!(
                    self.watch_list.contains(&idx),
                    "watched flag set for {id} but slot missing from watch list"
                );
            }
        }
        assert!(
            queued.is_empty(),
            "the run queue holds freed slots {queued:?}"
        );
        assert!(
            armed.is_empty(),
            "the timer list holds freed slots {armed:?}"
        );
        if let Some(pick) = self.off_queue_pick {
            assert!(
                self.entries[pick as usize].is_some(),
                "the off-queue pick names a freed slot"
            );
        }
        assert_eq!(self.by_id.len(), live, "by_id holds a freed slot");
        assert_eq!(self.reserved_ppt, reserved);
        // Span-batch invariants: pending usage always has a live owner and
        // stays strictly under its budget (the throttle edge
        // settles before it is reached).
        if self.span_pending_us > 0 {
            let idx = self.span_slot.expect("pending charge without a span slot");
            let entry = self.entries[idx as usize]
                .as_ref()
                .expect("span slot freed with pending charge");
            assert!(
                entry.account.used_this_period_us + self.span_pending_us < entry.account.budget_us,
                "span batch for {} reached the throttle edge unsettled",
                entry.id
            );
        }
        // Next-quantum-cache invariant: an armed cache means the queue has
        // not moved since the pick, so the cached slot is the off-queue
        // pick and its current key still sorts before the queue's front.
        if self.quantum_cache_gen == Some(self.queue_gen) {
            let idx = self.span_slot.expect("armed cache without a span slot");
            assert_eq!(
                self.off_queue_pick,
                Some(idx),
                "armed cache but the cached slot is not the off-queue pick"
            );
            let key = self.entries[idx as usize]
                .as_ref()
                .expect("armed cache on a freed slot")
                .run_key();
            assert!(
                self.runnable.peek().is_none_or(|front| (key, idx) < front),
                "armed cache but the cached pick no longer sorts first"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Period, Proportion};
    use proptest::prelude::*;

    /// The dispatch span's per-thread footprint.  With 10 000 threads the
    /// tables below do not fit the 2 MiB L2, so the span's cost is cache
    /// misses and every byte added to an entry is paid on each of them.
    /// `ThreadEntry` is held at the size it has, not rounded up: padding it
    /// to 192 B (`align(64)`) read `spin_saturated` `run_wall_s` 0.130 →
    /// 0.135 — footprint, not alignment, is the lever.  The queued pairs
    /// of the run queue and the timer list stay within half a line, so a
    /// walk in from the tail covers two places per line; neither keeps
    /// anything per slot (both keys derive from the entry).
    #[test]
    fn layout_budget() {
        use std::mem::size_of;
        assert!(size_of::<ThreadEntry>() <= 136);
        assert!(size_of::<(RunKey, u32)>() <= 32);
        assert!(size_of::<((u64, ThreadId), u32)>() <= 32);
    }

    fn reserved(ppt: u32, period_ms: u64) -> Reservation {
        Reservation::new(Proportion::from_ppt(ppt), Period::from_millis(period_ms))
    }

    /// Where the rules file the thread at `idx` now.
    fn filing(d: &Dispatcher, idx: u32) -> Filing {
        let entry = d.entries[idx as usize].as_ref().expect("occupied");
        entry.filing(d.off_queue_pick == Some(idx))
    }

    fn ids(d: &Dispatcher) -> Vec<ThreadId> {
        let mut ids: Vec<ThreadId> = d.entries.iter().flatten().map(|e| e.id).collect();
        ids.sort();
        ids
    }

    /// Re-reserves `id` at `ppt` under its current period — the
    /// grant-only actuation a squish makes.  `None` if `id` is not here.
    fn regrant(d: &mut Dispatcher, id: ThreadId, ppt: u32) -> Option<Result<(), SchedError>> {
        let period = d.reservation(id)?.period;
        Some(d.set_reservation(id, Reservation::new(Proportion::from_ppt(ppt), period)))
    }

    /// How one side of [`match_per_boundary_reference`] charges a pick.
    #[derive(Clone, Copy, PartialEq)]
    enum Charging {
        /// [`Dispatcher::charge`]: settled at once, by id.
        PerCharge,
        /// [`Dispatcher::charge_span`]: batched until a settle point.
        Span,
    }

    /// Lazy rollovers against a per-boundary (eager) reference: identical
    /// `(selector, id, ppt, aux)` operation sequences drive two
    /// dispatchers.  The lazy side is never synced, so boundaries pile up
    /// and roll in batches.  The reference is synced after every operation
    /// — except one that left a span batch open, which settles at the next
    /// operation's sync, so an advance can meet it — and its clock only
    /// ever moves to its own next period boundary, so each boundary rolls
    /// on its own, at its instant.  Picks, quanta, usage feeds, post-sync
    /// accounts, states, reservations and stats (except idle bookkeeping)
    /// must match exactly.  Selector 9 re-reserves under the current
    /// period, the grant-only path.
    fn match_per_boundary_reference(
        ops: &[(u8, u64, u32, u64)],
        lazy_charging: Charging,
        ref_charging: Charging,
    ) {
        fn charge(d: &mut Dispatcher, how: Charging, t: ThreadId, used: u64) {
            match how {
                Charging::PerCharge => d.charge(t, used).expect("picked exists"),
                Charging::Span => d.charge_span(used),
            }
        }
        let mut lazy = Dispatcher::new(DispatcherConfig::default());
        let mut refd = Dispatcher::new(DispatcherConfig::default());
        for &(op, i, p, aux) in ops {
            let id = ThreadId(i);
            let mut span_open = false;
            match op {
                0 => {
                    let a = lazy.add_thread_preadmitted(id, reserved(p, aux));
                    assert_eq!(a, refd.add_thread_preadmitted(id, reserved(p, aux)));
                }
                1 => {
                    let a = lazy.remove_thread(id);
                    assert_eq!(a, refd.remove_thread(id));
                }
                2 => {
                    let _ = lazy.block(id);
                    let _ = refd.block(id);
                }
                3 => {
                    let _ = lazy.unblock(id);
                    let _ = refd.unblock(id);
                }
                4 => {
                    let _ = lazy.set_reservation(id, reserved(p, aux));
                    let _ = refd.set_reservation(id, reserved(p, aux));
                }
                5 => {
                    // The reference's next boundary: none has passed since
                    // its last sync, so this rolls exactly one.
                    let next = refd
                        .entries
                        .iter()
                        .flatten()
                        .map(|e| e.next_boundary_us)
                        .min();
                    if let Some(t) = next {
                        lazy.advance_to(t);
                        refd.advance_to(t);
                    }
                }
                6 => {
                    // The same changed-usage feed, order aside.
                    let mut a = Vec::new();
                    lazy.drain_usage_changes(|id, _, r| a.push((id, r.to_bits())));
                    let mut b = Vec::new();
                    refd.drain_usage_changes(|id, _, r| b.push((id, r.to_bits())));
                    a.sort_unstable();
                    b.sort_unstable();
                    assert_eq!(a, b, "usage feeds diverged");
                }
                9 => {
                    let a = regrant(&mut lazy, id, p);
                    assert_eq!(a, regrant(&mut refd, id, p));
                }
                _ => {
                    let ol = lazy.dispatch();
                    let or = refd.dispatch();
                    assert_eq!(ol.thread, or.thread, "picks diverged");
                    if let Some(t) = ol.thread {
                        assert_eq!(ol.quantum_us, or.quantum_us, "quanta diverged");
                        let used = (ol.quantum_us * (aux % 3 + 1) / 3).max(1);
                        charge(&mut lazy, lazy_charging, t, used);
                        charge(&mut refd, ref_charging, t, used);
                        span_open = ref_charging == Charging::Span;
                    }
                }
            }
            if !span_open {
                refd.sync_all();
            }
            lazy.assert_consistent();
            refd.assert_consistent();
        }
        // Settle both backlogs, then every observable must agree.
        lazy.sync_all();
        refd.sync_all();
        assert_eq!(ids(&lazy), ids(&refd));
        for id in ids(&refd) {
            assert_eq!(lazy.thread_state(id), refd.thread_state(id));
            assert_eq!(lazy.reservation(id), refd.reservation(id));
            let (la, ra) = (lazy.usage(id).unwrap(), refd.usage(id).unwrap());
            assert_eq!(
                format!("{la:?}"),
                format!("{ra:?}"),
                "account diverged for {:?}",
                id
            );
        }
        let (ls, rs) = (lazy.stats(), refd.stats());
        assert_eq!(ls.dispatches, rs.dispatches);
        assert_eq!(ls.context_switches, rs.context_switches);
        assert_eq!(ls.period_rollovers, rs.period_rollovers);
        assert_eq!(ls.deadlines_missed, rs.deadlines_missed);
    }

    #[test]
    fn add_and_remove_threads() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        d.add_thread_preadmitted(ThreadId(1), reserved(100, 30))
            .unwrap();
        assert_eq!(
            d.add_thread_preadmitted(ThreadId(1), reserved(1, 10)),
            Err(SchedError::DuplicateThread(ThreadId(1)))
        );
        assert_eq!(d.by_id.len(), 1);
        d.remove_thread(ThreadId(1)).unwrap();
        assert_eq!(
            d.remove_thread(ThreadId(1)),
            Err(SchedError::UnknownThread(ThreadId(1)))
        );
        assert_eq!(d.by_id.len(), 0);
    }

    #[test]
    fn shorter_period_beats_longer_period() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        d.add_thread_preadmitted(ThreadId(1), reserved(100, 100))
            .unwrap();
        d.add_thread_preadmitted(ThreadId(2), reserved(100, 10))
            .unwrap();
        assert_eq!(d.dispatch().thread, Some(ThreadId(2)));
    }

    #[test]
    fn exhausted_thread_is_throttled_until_next_period() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        // 10 % of 10 ms = 1 ms budget, equal to one dispatch interval.
        d.add_thread_preadmitted(ThreadId(1), reserved(100, 10))
            .unwrap();
        let o = d.dispatch();
        assert_eq!(o.thread, Some(ThreadId(1)));
        assert_eq!(o.quantum_us, 1000);
        d.charge(ThreadId(1), 1000).unwrap();
        assert_eq!(d.thread_state(ThreadId(1)), Some(ThreadState::Throttled));
        // Nothing else to run.
        d.advance_to(2000);
        assert_eq!(d.dispatch().thread, None);
        // At the period boundary the thread is replenished.
        d.advance_to(10_000);
        assert_eq!(d.thread_state(ThreadId(1)), Some(ThreadState::Ready));
        assert_eq!(d.dispatch().thread, Some(ThreadId(1)));
    }

    #[test]
    fn quantum_is_capped_by_remaining_budget() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        // 5 % of 10 ms = 500 µs budget < 1 ms dispatch interval.
        d.add_thread_preadmitted(ThreadId(1), reserved(50, 10))
            .unwrap();
        let o = d.dispatch();
        assert_eq!(o.quantum_us, 500);
    }

    /// Equal periods mean equal goodness: the pick sequence breaks the tie,
    /// least recently picked first, so neither thread starves the other.
    #[test]
    fn equal_period_threads_round_robin() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        d.add_thread_preadmitted(ThreadId(1), reserved(400, 10))
            .unwrap();
        d.add_thread_preadmitted(ThreadId(2), reserved(400, 10))
            .unwrap();
        let mut picks = Vec::new();
        for _ in 0..6 {
            let o = d.dispatch();
            let id = o.thread.unwrap();
            picks.push(id.0);
            d.charge(id, o.quantum_us).unwrap();
            d.advance_to(d.now_us() + o.quantum_us);
        }
        assert_eq!(picks, [1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn blocked_thread_is_not_dispatched() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        d.add_thread_preadmitted(ThreadId(1), reserved(100, 10))
            .unwrap();
        d.block(ThreadId(1)).unwrap();
        assert_eq!(d.dispatch().thread, None);
        d.unblock(ThreadId(1)).unwrap();
        assert_eq!(d.dispatch().thread, Some(ThreadId(1)));
    }

    #[test]
    fn unblocking_exhausted_thread_keeps_it_throttled() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        d.add_thread_preadmitted(ThreadId(1), reserved(100, 10))
            .unwrap();
        let o = d.dispatch();
        d.charge(ThreadId(1), o.quantum_us).unwrap();
        d.block(ThreadId(1)).unwrap();
        d.unblock(ThreadId(1)).unwrap();
        assert_eq!(d.thread_state(ThreadId(1)), Some(ThreadState::Throttled));
    }

    #[test]
    fn idle_system_reports_idle_time() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        let o = d.dispatch();
        assert_eq!(o.thread, None);
        assert!(o.quantum_us > 0);
        assert!(d.stats().idle_us > 0);
    }

    #[test]
    fn missed_deadline_detected_under_oversubscription() {
        // Two threads each wanting 60 % of a 10 ms period: only ~100 % is
        // available so someone must miss.
        let config = DispatcherConfig {
            dispatch_cost_us: 0.0,
            context_switch_cost_us: 0.0,
            ..DispatcherConfig::default()
        };
        let mut d = Dispatcher::new(config);
        d.add_thread_preadmitted(ThreadId(1), reserved(600, 10))
            .unwrap();
        d.add_thread_preadmitted(ThreadId(2), reserved(600, 10))
            .unwrap();
        assert_eq!(d.total_reserved_ppt(), 1200);
        // Run for 30 ms of simulated time.
        while d.now_us() < 30_000 {
            d.run_quantum();
        }
        assert!(d.stats().deadlines_missed > 0);
    }

    #[test]
    fn set_reservation_changes_budget_and_can_unthrottle() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        d.add_thread_preadmitted(ThreadId(1), reserved(100, 10))
            .unwrap();
        let o = d.dispatch();
        d.charge(ThreadId(1), o.quantum_us).unwrap();
        assert_eq!(d.thread_state(ThreadId(1)), Some(ThreadState::Throttled));
        // Doubling the proportion mid-period un-throttles the thread.
        d.set_reservation(
            ThreadId(1),
            Reservation::new(Proportion::from_ppt(200), Period::from_millis(10)),
        )
        .unwrap();
        assert_eq!(d.thread_state(ThreadId(1)), Some(ThreadState::Ready));
        assert_eq!(d.reservation(ThreadId(1)).unwrap().proportion.ppt(), 200);
    }

    #[test]
    fn set_reservation_on_unknown_thread_fails() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        let r = Reservation::new(Proportion::from_ppt(10), Period::from_millis(10));
        assert!(d.set_reservation(ThreadId(9), r).is_err());
    }

    #[test]
    fn reserved_thread_gets_its_proportion_over_time() {
        let config = DispatcherConfig {
            dispatch_cost_us: 0.0,
            context_switch_cost_us: 0.0,
            ..DispatcherConfig::default()
        };
        let mut d = Dispatcher::new(config);
        // 30 % reservation competing with a longer-period hog that would
        // take the whole CPU if it could.
        d.add_thread_preadmitted(ThreadId(1), reserved(300, 10))
            .unwrap();
        d.add_thread_preadmitted(ThreadId(2), reserved(1000, 30))
            .unwrap();
        while d.now_us() < 1_000_000 {
            d.run_quantum();
        }
        let usage = d.usage(ThreadId(1)).unwrap();
        let fraction = usage.total_used_us as f64 / 1_000_000.0;
        assert!(
            (fraction - 0.3).abs() < 0.02,
            "reserved thread got {fraction} of the CPU"
        );
        // The hog gets the rest.
        let hog = d.usage(ThreadId(2)).unwrap();
        let hog_fraction = hog.total_used_us as f64 / 1_000_000.0;
        assert!(hog_fraction > 0.6, "hog got {hog_fraction}");
    }

    #[test]
    fn overhead_accumulates_with_dispatches() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        d.add_thread_preadmitted(ThreadId(1), reserved(500, 10))
            .unwrap();
        for _ in 0..10 {
            d.run_quantum();
        }
        let stats = d.stats();
        assert_eq!(stats.dispatches, 10);
        assert!(stats.overhead_us >= 10.0 * 5.0);
    }

    #[test]
    fn preadmitted_thread_bypasses_admission_but_not_duplicates() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        d.add_thread_preadmitted(ThreadId(1), reserved(900, 10))
            .unwrap();
        // The CPU is all but full; the dispatcher has no threshold of its
        // own to refuse with, so a reservation the controller admitted
        // still lands.
        let r = reserved(300, 10);
        d.add_thread_preadmitted(ThreadId(2), r).unwrap();
        assert_eq!(d.reservation(ThreadId(2)), Some(r));
        assert_eq!(d.total_reserved_ppt(), 1200);
        assert_eq!(
            d.add_thread_preadmitted(ThreadId(2), r),
            Err(SchedError::DuplicateThread(ThreadId(2)))
        );
    }

    #[test]
    fn usage_views_agree() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        d.add_thread_preadmitted(ThreadId(1), reserved(300, 10))
            .unwrap();
        d.add_thread_preadmitted(ThreadId(2), reserved(200, 10))
            .unwrap();
        for _ in 0..5 {
            d.run_quantum();
        }
        for id in [ThreadId(1), ThreadId(2)] {
            let used = d.usage(id).unwrap().total_used_us;
            assert!(used > 0);
        }
        assert!(d.usage(ThreadId(9)).is_none());
    }

    #[test]
    fn take_and_inject_preserve_account_and_throttle() {
        let mut src = Dispatcher::new(DispatcherConfig::default());
        let mut dst = Dispatcher::new(DispatcherConfig::default());
        src.add_thread_preadmitted(ThreadId(1), reserved(100, 10))
            .unwrap();
        // Exhaust the budget so the thread is throttled mid-period.
        let o = src.dispatch();
        src.charge(ThreadId(1), o.quantum_us).unwrap();
        assert_eq!(src.thread_state(ThreadId(1)), Some(ThreadState::Throttled));
        let used = src.usage(ThreadId(1)).unwrap().total_used_us;

        let taken = src.take_thread(ThreadId(1)).unwrap();
        assert_eq!(taken.state(), ThreadState::Throttled);
        assert!(src.take_thread(ThreadId(1)).is_err(), "already taken");
        dst.inject_thread(taken).unwrap();
        // Still throttled on the destination, with the account intact.
        assert_eq!(dst.thread_state(ThreadId(1)), Some(ThreadState::Throttled));
        assert_eq!(dst.usage(ThreadId(1)).unwrap().total_used_us, used);
        assert_eq!(dst.dispatch().thread, None);
        // The period boundary scheduled by the source replenishes it here.
        dst.advance_to(10_000);
        assert_eq!(dst.thread_state(ThreadId(1)), Some(ThreadState::Ready));
        assert_eq!(dst.dispatch().thread, Some(ThreadId(1)));
        // Duplicate injection is rejected.
        assert_eq!(
            dst.inject_thread(MigratedThread {
                id: ThreadId(1),
                reservation: reserved(10, 10),
                state: ThreadState::Ready,
                account: UsageAccount::new(0, 0),
                next_boundary_us: 10_000,
                owner: 0,
            }),
            Err(SchedError::DuplicateThread(ThreadId(1)))
        );
    }

    #[test]
    fn taking_the_running_thread_demotes_it_to_ready() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        d.add_thread_preadmitted(ThreadId(1), reserved(500, 10))
            .unwrap();
        assert_eq!(d.dispatch().thread, Some(ThreadId(1)));
        let taken = d.take_thread(ThreadId(1)).unwrap();
        assert_eq!(taken.state(), ThreadState::Ready);
        assert_eq!(taken.reservation(), reserved(500, 10));
        // The source no longer schedules it.
        assert_eq!(d.dispatch().thread, None);
    }

    #[test]
    fn advance_to_is_monotone() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        d.advance_to(1000);
        d.advance_to(500); // ignored
        assert_eq!(d.now_us(), 1000);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        d.add_thread_preadmitted(ThreadId(1), reserved(100, 10))
            .unwrap();
        d.add_thread_preadmitted(ThreadId(2), reserved(100, 20))
            .unwrap();
        d.remove_thread(ThreadId(1)).unwrap();
        d.add_thread_preadmitted(ThreadId(3), reserved(100, 30))
            .unwrap();
        assert_eq!(d.entries.len(), 2, "dense storage does not grow on reuse");
        assert_eq!(d.by_id.len(), 2);
        d.assert_consistent();
    }

    /// A slot handle outliving its thread names the slot's next tenant;
    /// every slot-addressed entry point must refuse it and leave the tenant
    /// exactly as it was.
    #[test]
    fn stale_slot_never_reaches_the_slots_next_tenant() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        d.add_thread_preadmitted(ThreadId(1), reserved(100, 10))
            .unwrap();
        let slot = d.slot_of(ThreadId(1)).unwrap();
        d.remove_thread(ThreadId(1)).unwrap();
        let gone = Err(SchedError::UnknownThread(ThreadId(1)));
        assert_eq!(d.unblock_slot(slot, ThreadId(1)), gone, "freed slot");
        d.add_thread_preadmitted(ThreadId(2), reserved(200, 20))
            .unwrap();
        assert_eq!(d.slot_of(ThreadId(2)), Some(slot), "LIFO reuse");
        d.block(ThreadId(2)).unwrap();
        let r = Reservation::new(Proportion::from_ppt(900), Period::from_millis(1));
        assert_eq!(d.set_reservation_slot(slot, ThreadId(1), r), gone);
        assert_eq!(d.reservation_slot(slot, ThreadId(1)), None);
        assert_eq!(d.unblock_slot(slot, ThreadId(1)), gone);
        assert_eq!(d.block_slot(slot, ThreadId(1)), gone);
        assert_eq!(d.charge_slot(slot, ThreadId(1), 500), gone);
        assert!(d.take_thread_slot(slot, ThreadId(1)).is_err());
        assert_eq!(
            d.unblock_slot(slot + 7, ThreadId(2)),
            Err(SchedError::UnknownThread(ThreadId(2))),
            "out of range"
        );
        // The tenant: still blocked, still on its own reservation,
        // nothing charged.
        assert_eq!(d.thread_state(ThreadId(2)), Some(ThreadState::Blocked));
        assert_eq!(d.reservation(ThreadId(2)).unwrap().proportion.ppt(), 200);
        assert_eq!(d.usage(ThreadId(2)).unwrap().total_used_us, 0);
        assert_eq!(d.total_reserved_ppt(), 200);
        // Under its own id the same slot works.
        d.unblock_slot(slot, ThreadId(2)).unwrap();
        assert_eq!(d.thread_state(ThreadId(2)), Some(ThreadState::Ready));
        d.assert_consistent();
    }

    #[test]
    fn exhausted_thread_is_replenished_at_the_boundary() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        d.add_thread_preadmitted(ThreadId(1), reserved(100, 10))
            .unwrap();
        let o = d.dispatch();
        assert_eq!(o.thread, Some(ThreadId(1)));
        assert_eq!(o.quantum_us, 1000);
        d.charge(ThreadId(1), 1000).unwrap();
        assert_eq!(d.thread_state(ThreadId(1)), Some(ThreadState::Throttled));
        // The throttle release is the only armed timer.
        assert_eq!(d.next_timer_expiry(), Some(10_000));
        d.assert_consistent();
        d.advance_to(2000);
        assert_eq!(d.dispatch().thread, None);
        d.advance_to(10_000);
        assert_eq!(d.thread_state(ThreadId(1)), Some(ThreadState::Ready));
        // Released: no timer armed until the thread throttles again.
        assert_eq!(d.next_timer_expiry(), None);
        assert_eq!(d.dispatch().thread, Some(ThreadId(1)));
        d.assert_consistent();
    }

    #[test]
    fn sync_batches_a_multi_period_backlog() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        d.add_thread_preadmitted(ThreadId(1), reserved(100, 10))
            .unwrap();
        // Runnable but never picked for 5 whole periods: no timers fire,
        // no per-boundary work happens...
        d.advance_to(52_000);
        assert_eq!(d.stats().period_rollovers, 0);
        // ...until one O(1) sync settles the whole backlog, counting every
        // starved period as a miss.
        d.sync_all();
        let stats = d.stats();
        assert_eq!(stats.period_rollovers, 5);
        assert_eq!(stats.deadlines_missed, 5);
        let acct = d.usage(ThreadId(1)).unwrap();
        assert_eq!(acct.period_start_us, 50_000, "boundaries stay on the grid");
        assert_eq!(acct.periods_completed, 5);
        d.assert_consistent();
        // Syncing again is a no-op.
        d.sync_all();
        assert_eq!(d.stats().period_rollovers, 5);
    }

    #[test]
    fn blocked_thread_misses_only_its_runnable_period() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        d.add_thread_preadmitted(ThreadId(1), reserved(100, 10))
            .unwrap();
        d.block(ThreadId(1)).unwrap();
        d.advance_to(45_000);
        d.unblock(ThreadId(1)).unwrap();
        // Period 1 was runnable-until-blocked and unserved (one miss); the
        // blocked periods don't count.
        assert_eq!(d.stats().deadlines_missed, 1);
        assert_eq!(d.stats().period_rollovers, 4);
        assert_eq!(d.thread_state(ThreadId(1)), Some(ThreadState::Ready));
        d.assert_consistent();
    }

    #[test]
    fn take_and_inject_keep_the_release_timer() {
        let mut src = Dispatcher::new(DispatcherConfig::default());
        let mut dst = Dispatcher::new(DispatcherConfig::default());
        src.add_thread_preadmitted(ThreadId(1), reserved(100, 10))
            .unwrap();
        let o = src.dispatch();
        src.charge(ThreadId(1), o.quantum_us).unwrap();
        assert_eq!(src.thread_state(ThreadId(1)), Some(ThreadState::Throttled));
        let taken = src.take_thread(ThreadId(1)).unwrap();
        assert_eq!(src.next_timer_expiry(), None);
        dst.inject_thread(taken).unwrap();
        // Still throttled on the destination, release armed at the same
        // grid boundary.
        assert_eq!(dst.thread_state(ThreadId(1)), Some(ThreadState::Throttled));
        assert_eq!(dst.next_timer_expiry(), Some(10_000));
        dst.assert_consistent();
        dst.advance_to(10_000);
        assert_eq!(dst.thread_state(ThreadId(1)), Some(ThreadState::Ready));
        assert_eq!(dst.dispatch().thread, Some(ThreadId(1)));
        dst.assert_consistent();
    }

    #[test]
    fn drain_usage_changes_reports_only_transitions() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        d.add_thread_preadmitted(ThreadId(1), reserved(100, 10))
            .unwrap();
        let drain = |d: &mut Dispatcher| {
            let mut got = Vec::new();
            d.drain_usage_changes(|id, _, ratio| got.push((id, ratio)));
            got
        };
        // Nothing has happened: the controller's default assumption (1.0)
        // still holds, so nothing is reported.
        assert_eq!(drain(&mut d), vec![]);
        // Consume the full budget; after the boundary the completed period
        // reads 1.0 — still no transition.
        let o = d.dispatch();
        d.charge(ThreadId(1), o.quantum_us).unwrap();
        d.advance_to(10_000);
        assert_eq!(drain(&mut d), vec![]);
        // An idle period is a 1.0 → 0.0 transition, reported exactly once,
        // after which the settled thread leaves the watch set.
        d.advance_to(20_000);
        assert_eq!(drain(&mut d), vec![(ThreadId(1), 0.0)]);
        assert_eq!(drain(&mut d), vec![]);
        d.assert_consistent();
        // Activity re-watches it and the next boundary reports 1.0 again.
        let o = d.dispatch();
        d.charge(ThreadId(1), o.quantum_us).unwrap();
        d.advance_to(30_000);
        assert_eq!(drain(&mut d), vec![(ThreadId(1), 1.0)]);
        d.assert_consistent();
    }

    /// Drives a dispatcher through `steps` on thread 3.  A step is
    /// `(kind, n, ppt)`: `add` or `reserve` it at `ppt` ‰ per `n` ms,
    /// `block` it, `advance` to `n` µs, or `drain` the usage feed and check
    /// it equals the next entry of `want`.
    fn usage_feed(steps: &[(&str, u64, u32)], want: &[Vec<(ThreadId, f64)>]) {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        let mut wants = want.iter();
        for &(step, n, ppt) in steps {
            match step {
                "add" => d
                    .add_thread_preadmitted(ThreadId(3), reserved(ppt, n))
                    .unwrap(),
                "reserve" => d.set_reservation(ThreadId(3), reserved(ppt, n)).unwrap(),
                "block" => d.block(ThreadId(3)).unwrap(),
                "advance" => d.advance_to(n),
                "drain" => {
                    let want = wants.next().expect("a want per drain");
                    let mut got = Vec::new();
                    d.drain_usage_changes(|id, _, ratio| got.push((id, ratio)));
                    assert_eq!(&got, want, "at {} µs", d.now_us());
                }
                other => unreachable!("unknown step {other}"),
            }
            d.assert_consistent();
        }
        assert!(wants.next().is_none(), "more wants than drains");
    }

    /// A 0 ‰ reservation's period closes at the 0/0 ratio 1.0, so a thread
    /// under one stays watched after its 0.0 report and the feed hears the
    /// 1.0 at the boundary, though no timer marks it.
    #[test]
    fn a_zero_budget_period_is_reported() {
        usage_feed(
            &[
                ("add", 16, 254),
                ("reserve", 39, 0),
                ("advance", 39_000, 0),
                ("drain", 0, 0),
                ("advance", 78_000, 0),
                ("drain", 0, 0),
            ],
            &[vec![(ThreadId(3), 0.0)], vec![(ThreadId(3), 1.0)]],
        );
    }

    /// The deferred shrink: a 0 ‰ grant on an idle, settled thread applies
    /// from its next boundary, so the thread must stay watched through the
    /// period that still has budget until the 0/0 period closes.
    #[test]
    fn a_deferred_shrink_to_zero_is_reported() {
        usage_feed(
            &[
                ("add", 16, 254),
                ("block", 0, 0),
                ("advance", 16_000, 0),
                ("drain", 0, 0),
                ("advance", 32_000, 0),
                ("drain", 0, 0),
                ("reserve", 16, 0),
                ("drain", 0, 0),
                ("advance", 48_000, 0),
                ("drain", 0, 0),
                ("advance", 64_000, 0),
                ("drain", 0, 0),
            ],
            &[
                vec![(ThreadId(3), 0.0)],
                vec![],
                vec![],
                vec![],
                vec![(ThreadId(3), 1.0)],
            ],
        );
    }

    /// A re-reservation that moves only the grant leaves the run queue,
    /// the timer list and the off-queue pick as they were, and still
    /// disarms the next-quantum cache — on the pick too; one that releases
    /// a throttled thread or changes the period re-ranks as before.
    #[test]
    fn a_grant_only_re_reservation_skips_the_re_rank() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        for (id, ppt, period_ms) in [(1, 100, 10), (2, 100, 20), (3, 100, 40), (4, 50, 30)] {
            d.add_thread_preadmitted(ThreadId(id), reserved(ppt, period_ms))
                .unwrap();
        }
        // Thread 4 throttles (a release timer), thread 1 is picked.
        d.charge(ThreadId(4), 1_500).unwrap();
        assert_eq!(d.thread_state(ThreadId(4)), Some(ThreadState::Throttled));
        assert_eq!(d.dispatch().thread, Some(ThreadId(1)));
        let s1 = d.slot_of(ThreadId(1)).unwrap();
        assert_eq!(d.quantum_cache_gen, Some(d.queue_gen), "cache armed");
        let snapshot = |d: &Dispatcher| {
            (
                d.runnable.iter().collect::<Vec<_>>(),
                format!("{:?}", d.timers),
                d.off_queue_pick,
            )
        };
        let before = snapshot(&d);
        // Queued, grown; throttled, shrunk (no release): nothing moves.
        for (id, r) in [(2, reserved(300, 20)), (4, reserved(20, 30))] {
            d.set_reservation(ThreadId(id), r).unwrap();
            assert_eq!(snapshot(&d), before, "thread {id}");
            assert_ne!(d.quantum_cache_gen, Some(d.queue_gen), "cache disarmed");
            assert_eq!(d.reservation(ThreadId(id)), Some(r));
            d.assert_consistent();
        }
        assert_eq!(d.total_reserved_ppt(), 100 + 300 + 100 + 20);
        // The next dispatch misses the cache and re-picks thread 1.
        let misses = d.stats().quantum_cache_misses;
        assert_eq!(d.dispatch().thread, Some(ThreadId(1)));
        assert_eq!(d.stats().quantum_cache_misses, misses + 1);
        assert_eq!(d.off_queue_pick, Some(s1));
        // A grant on the pick moves nothing either: it stays the off-queue
        // pick, for the next slow dispatch to rank against the front.
        let before = snapshot(&d);
        d.set_reservation(ThreadId(1), reserved(150, 10)).unwrap();
        assert_eq!(snapshot(&d), before);
        assert_eq!(d.off_queue_pick, Some(s1));
        assert_ne!(d.quantum_cache_gen, Some(d.queue_gen), "cache disarmed");
        d.assert_consistent();
        // A release re-ranks and drops the timer; a new period re-ranks.
        d.set_reservation(ThreadId(4), reserved(200, 30)).unwrap();
        assert_eq!(d.thread_state(ThreadId(4)), Some(ThreadState::Ready));
        let s4 = d.slot_of(ThreadId(4)).unwrap();
        assert_eq!(d.timers.expiry_of(s4), None);
        assert!(d.runnable.key_of(s4).is_some());
        d.set_reservation(ThreadId(3), reserved(100, 5)).unwrap();
        assert_eq!(
            d.dispatch().thread,
            Some(ThreadId(3)),
            "shortest period now"
        );
        assert!(
            d.runnable.key_of(s1).is_some(),
            "the outranked pick is linked"
        );
        d.assert_consistent();
    }

    #[test]
    fn charge_span_batches_until_the_throttle_edge() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        d.add_thread_preadmitted(ThreadId(1), reserved(100, 10))
            .unwrap();
        let o = d.dispatch();
        assert_eq!(o.thread, Some(ThreadId(1)));
        assert_eq!(o.quantum_us, 1000);
        for spans in 1..=9u64 {
            d.charge_span(100);
            // The batch is invisible to the account until settlement...
            assert_eq!(d.usage(ThreadId(1)).unwrap().used_this_period_us, 0);
            // ...but the cached re-pick still caps the next quantum under
            // what the batch has consumed.
            let o = d.dispatch();
            assert_eq!(o.thread, Some(ThreadId(1)));
            assert_eq!(o.quantum_us, 1000 - spans * 100);
        }
        // The tenth span reaches the budget edge: the batch settles first,
        // then the edge charge throttles the thread.
        d.charge_span(100);
        assert_eq!(d.thread_state(ThreadId(1)), Some(ThreadState::Throttled));
        assert_eq!(d.usage(ThreadId(1)).unwrap().used_this_period_us, 1000);
        assert_eq!(d.dispatch().thread, None);
        d.assert_consistent();
    }

    #[test]
    fn block_span_settles_and_unblock_slot_rewakes() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        d.add_thread_preadmitted(ThreadId(1), reserved(100, 10))
            .unwrap();
        d.add_thread_preadmitted(ThreadId(2), reserved(100, 20))
            .unwrap();
        let o = d.dispatch();
        assert_eq!(o.thread, Some(ThreadId(1)), "shorter period wins");
        d.charge_span(300);
        // Blocking through the span handle settles the batch and hands the
        // slot back for the wake-up.
        let slot = d.block_span();
        assert_eq!(d.thread_state(ThreadId(1)), Some(ThreadState::Blocked));
        assert_eq!(d.usage(ThreadId(1)).unwrap().used_this_period_us, 300);
        assert_eq!(d.dispatch().thread, Some(ThreadId(2)));
        // The slot wakes the thread without an id lookup.
        d.unblock_slot(slot, ThreadId(1)).unwrap();
        assert_eq!(d.thread_state(ThreadId(1)), Some(ThreadState::Ready));
        assert_eq!(d.dispatch().thread, Some(ThreadId(1)));
        d.assert_consistent();
    }

    #[test]
    fn next_quantum_cache_invalidates_on_queue_change() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        d.add_thread_preadmitted(ThreadId(1), reserved(100, 20))
            .unwrap();
        assert_eq!(d.dispatch().thread, Some(ThreadId(1)));
        d.charge_span(50);
        // A queue mutation between spans bumps the generation: the next
        // dispatch must re-pick through the queue and see the newcomer (and
        // settle the outstanding batch on the way).
        d.add_thread_preadmitted(ThreadId(2), reserved(100, 10))
            .unwrap();
        assert_eq!(d.dispatch().thread, Some(ThreadId(2)));
        assert_eq!(d.usage(ThreadId(1)).unwrap().used_this_period_us, 50);
        d.assert_consistent();
    }

    /// The pick leaves the run queue and stays off it while it is
    /// runnable.  Mid-span the sole runnable thread is queued nowhere yet
    /// the CPU reads busy.  A span that ends runnable leaves it the
    /// off-queue pick and the queue untouched but disarms the cache, so the
    /// next dispatch is a counted miss — which picks it again in place
    /// while it still sorts first, and links it and passes over it once it
    /// is outranked.  A throttle or a block has nothing to remove.
    #[test]
    fn a_runnable_pick_stays_off_the_run_queue_until_outranked() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        d.add_thread_preadmitted(ThreadId(1), reserved(100, 10))
            .unwrap();
        let s1 = d.slot_of(ThreadId(1)).unwrap();
        assert_eq!(d.dispatch().thread, Some(ThreadId(1)));
        assert!(d.has_runnable());
        assert_eq!(d.runnable.len(), 0);
        d.assert_consistent();
        // Nothing moved, so the next-quantum cache re-issues the pick.
        assert_eq!(d.dispatch().thread, Some(ThreadId(1)), "unexecuted");
        let stats = d.stats();
        assert_eq!(
            (stats.quantum_cache_hits, stats.quantum_cache_misses),
            (1, 1)
        );
        assert_eq!((d.runnable.len(), d.off_queue_pick), (0, Some(s1)));

        // Two longer-period threads queue behind; thread 1's span ends
        // runnable and it stays the off-queue pick, the queue untouched.
        d.add_thread_preadmitted(ThreadId(2), reserved(100, 20))
            .unwrap();
        d.add_thread_preadmitted(ThreadId(3), reserved(100, 40))
            .unwrap();
        let queued: Vec<_> = d.runnable.iter().collect();
        assert_eq!(d.dispatch().thread, Some(ThreadId(1)));
        assert_eq!(d.quantum_cache_gen, Some(d.queue_gen), "cache armed");
        d.charge(ThreadId(1), 100).unwrap();
        assert_eq!(d.thread_state(ThreadId(1)), Some(ThreadState::Ready));
        assert_eq!(d.off_queue_pick, Some(s1));
        assert_eq!(d.runnable.iter().collect::<Vec<_>>(), queued);
        assert_ne!(d.quantum_cache_gen, Some(d.queue_gen), "cache disarmed");
        d.assert_consistent();
        // The miss picks it again in place: no link, no pop.
        let misses = d.stats().quantum_cache_misses;
        assert_eq!(d.dispatch().thread, Some(ThreadId(1)));
        assert_eq!(d.stats().quantum_cache_misses, misses + 1);
        assert_eq!(d.entries[s1 as usize].as_ref().unwrap().last_picked_seq, 4);
        assert_eq!(d.off_queue_pick, Some(s1));
        assert_eq!(d.runnable.iter().collect::<Vec<_>>(), queued);
        d.assert_consistent();

        // A throttle leaves the queue as it was...
        d.charge_span(900);
        assert_eq!(d.thread_state(ThreadId(1)), Some(ThreadState::Throttled));
        assert_eq!(d.runnable.iter().collect::<Vec<_>>(), queued);
        // ...and so does a block.
        assert_eq!(d.dispatch().thread, Some(ThreadId(2)));
        let queued: Vec<_> = d.runnable.iter().collect();
        d.block_span();
        assert_eq!(d.runnable.iter().collect::<Vec<_>>(), queued);
        assert_eq!(d.off_queue_pick, None);
        d.assert_consistent();

        // A pick outranked once its span settles is linked and passed
        // over.
        assert_eq!(d.dispatch().thread, Some(ThreadId(3)));
        let s3 = d.slot_of(ThreadId(3)).unwrap();
        d.charge_span(100);
        d.unblock(ThreadId(2)).unwrap();
        assert_eq!(d.off_queue_pick, Some(s3), "the settle leaves it off");
        assert_eq!(d.runnable.key_of(s3), None);
        assert_eq!(d.dispatch().thread, Some(ThreadId(2)));
        assert!(d.runnable.key_of(s3).is_some());
        d.assert_consistent();
    }

    #[test]
    fn span_batch_settles_before_the_boundary_roll() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        d.add_thread_preadmitted(ThreadId(1), reserved(500, 10))
            .unwrap();
        assert_eq!(d.dispatch().thread, Some(ThreadId(1)));
        d.charge_span(1000);
        d.advance_to(10_000);
        // The cached decision expired with the period: the next dispatch
        // takes the full path, settling the batch into the *old* period
        // before the boundary rolls it.
        assert_eq!(d.dispatch().thread, Some(ThreadId(1)));
        let acct = d.usage(ThreadId(1)).unwrap();
        assert_eq!(acct.periods_completed, 1);
        assert_eq!(acct.used_this_period_us, 0);
        d.assert_consistent();
    }

    /// The timer rule over its whole table: from any state the rules
    /// filed a thread in, a change of state, with or without a moved
    /// boundary, leaves it a timer at its next boundary exactly when it is
    /// throttled — and a run-queue place exactly when it is runnable.
    #[test]
    fn rearm_holds_the_timer_rule_in_every_mode_and_state() {
        use ThreadState::{Blocked, Ready, Running, Throttled};
        let states = [Ready, Running, Throttled, Blocked];
        for (from, to, moved) in states
            .into_iter()
            .flat_map(|from| states.map(|to| (from, to)))
            .flat_map(|(from, to)| [(from, to, false), (from, to, true)])
        {
            let mut d = Dispatcher::new(DispatcherConfig::default());
            for id in 1..=3 {
                d.add_thread_preadmitted(ThreadId(id), reserved(100, 10 * id))
                    .unwrap();
            }
            let idx = d.slot_of(ThreadId(2)).unwrap();
            for (state, shift) in [(from, 0), (to, if moved { 5_000 } else { 0 })] {
                let was = filing(&d, idx);
                let entry = d.entries[idx as usize].as_mut().unwrap();
                entry.state = state;
                entry.next_boundary_us += shift;
                d.refile(idx, was);
                d.assert_consistent();
            }
            let boundary = if moved { 25_000 } else { 20_000 };
            assert_eq!(
                d.timers.expiry_of(idx),
                (to == Throttled).then_some(boundary),
                "{from:?} to {to:?}, boundary moved: {moved}"
            );
            assert_eq!(d.runnable.key_of(idx).is_some(), to.is_runnable());
        }
    }

    /// Re-filing a thread whose keys did not change leaves both structures
    /// as they were; so does a charge that leaves a queued thread runnable.
    #[test]
    fn a_re_file_under_unchanged_keys_moves_nothing() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        for id in 0..20u64 {
            d.add_thread_preadmitted(ThreadId(id), reserved(40, 10 + id % 3))
                .unwrap();
        }
        for id in [3, 7, 11] {
            d.charge(ThreadId(id), 1_000).unwrap();
            assert_eq!(d.thread_state(ThreadId(id)), Some(ThreadState::Throttled));
        }
        let snapshot = |d: &Dispatcher| {
            (
                d.runnable.iter().collect::<Vec<_>>(),
                d.timers.iter().collect::<Vec<_>>(),
            )
        };
        let before = snapshot(&d);
        assert_eq!(before.1.len(), 3);
        for idx in 0..20u32 {
            let was = filing(&d, idx);
            d.refile(idx, was);
        }
        assert_eq!(snapshot(&d), before);
        d.charge(ThreadId(13), 10).unwrap();
        assert_eq!(snapshot(&d), before);
        d.assert_consistent();
    }

    /// Admission places a thread in one step: ready, with a full budget
    /// for a period opened at the admission instant, once on the run queue
    /// and once on the watch list, its timer where the rule says — and a
    /// zero-proportion reservation still runs one minimal quantum, then
    /// throttles, instead of winning every dispatch for free.
    #[test]
    fn preadmitted_thread_is_placed_whole_in_one_step() {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        d.advance_to(3_000);
        let r = reserved(250, 20);
        d.add_thread_preadmitted(ThreadId(7), r).unwrap();
        let idx = d.slot_of(ThreadId(7)).unwrap();
        assert_eq!(d.thread_state(ThreadId(7)), Some(ThreadState::Ready));
        assert_eq!(d.reservation(ThreadId(7)), Some(r));
        let a = d.usage(ThreadId(7)).unwrap();
        assert_eq!(a.period_start_us, 3_000);
        assert_eq!((a.budget_us, a.used_this_period_us), (r.budget_micros(), 0));
        assert!(a.was_runnable_this_period);
        let entry = d.entries[idx as usize].as_ref().unwrap();
        assert_eq!(entry.next_boundary_us, 23_000);
        assert_eq!(d.runnable.len(), 1);
        assert!(d.runnable.key_of(idx).is_some());
        assert_eq!(d.watch_list, [idx]);
        assert_eq!(d.timers.expiry_of(idx), None);
        assert_eq!(d.total_reserved_ppt(), 250);
        d.assert_consistent();

        // Zero proportion, shorter period: it outranks thread 7 once,
        // for the minimal quantum, and is throttled by that charge.
        d.add_thread_preadmitted(ThreadId(8), reserved(0, 10))
            .unwrap();
        assert_eq!(d.usage(ThreadId(8)).unwrap().budget_us, 0);
        let o = d.dispatch();
        assert_eq!((o.thread, o.quantum_us), (Some(ThreadId(8)), 1));
        d.charge(ThreadId(8), o.quantum_us).unwrap();
        assert_eq!(d.thread_state(ThreadId(8)), Some(ThreadState::Throttled));
        assert_eq!(d.dispatch().thread, Some(ThreadId(7)));
        d.assert_consistent();
    }

    proptest! {
        /// The tentpole's safety net: over arbitrary thread-state
        /// sequences, the run queue's pick must equal the naive full-scan
        /// pick, and every derived index must stay consistent — over enough
        /// ids that the queue outgrows the few places its tail walk covers.
        ///
        /// Ops are encoded as `(selector, id, ppt, aux)` tuples because the
        /// vendored proptest miniature has no `prop_oneof`; selectors 7–10
        /// all dispatch so the pick comparison dominates the mix, and 7
        /// charges nothing, so the pick stands unexecuted and the next slow
        /// dispatch must re-link it first.  Selector 11 re-reserves under
        /// the current period, the grant-only path.
        #[test]
        fn indexed_pick_matches_naive_scan(
            ops in proptest::collection::vec((0u8..12, 0u64..48, 0u32..600, 1u64..60), 1..250),
        ) {
            let mut d = Dispatcher::new(DispatcherConfig::default());
            for &(op, i, p, aux) in &ops {
                match op {
                    0 => {
                        let _ = d.add_thread_preadmitted(ThreadId(i), reserved(p, aux));
                    }
                    1 => {
                        let _ = d.remove_thread(ThreadId(i));
                    }
                    2 => {
                        let _ = d.block(ThreadId(i));
                    }
                    3 => {
                        let _ = d.unblock(ThreadId(i));
                    }
                    4 => {
                        let _ = d.charge(ThreadId(i), p as u64 * 37);
                    }
                    5 => {
                        let _ = d.set_reservation(ThreadId(i), reserved(p, aux));
                    }
                    6 => d.advance_to(d.now_us() + aux * 499),
                    11 => {
                        let _ = regrant(&mut d, ThreadId(i), p);
                    }
                    _ => {
                        let oracle = d.oracle_pick();
                        let outcome = d.dispatch();
                        prop_assert_eq!(
                            outcome.thread, oracle,
                            "indexed pick diverged from the full scan"
                        );
                        if let (Some(t), false) = (outcome.thread, op == 7) {
                            d.charge(t, outcome.quantum_us).expect("picked exists");
                        }
                    }
                }
                d.assert_consistent();
            }
        }

        /// Migration between two dispatchers keeps both sides' indices
        /// consistent and the picks oracle-true on the destination.
        #[test]
        fn migration_keeps_indices_consistent(
            seed_threads in proptest::collection::vec((0u32..400, 1u64..40), 1..8),
            moves in proptest::collection::vec(proptest::bool::ANY, 1..20),
        ) {
            let mut src = Dispatcher::new(DispatcherConfig::default());
            let mut dst = Dispatcher::new(src.config());
            for (i, &(ppt, ms)) in seed_threads.iter().enumerate() {
                src.add_thread_preadmitted(ThreadId(i as u64), reserved(ppt, ms)).unwrap();
            }
            let n = seed_threads.len() as u64;
            for (step, &forward) in moves.iter().enumerate() {
                let id = ThreadId(step as u64 % n);
                let (from, to) = if forward { (&mut src, &mut dst) } else { (&mut dst, &mut src) };
                if let Ok(taken) = from.take_thread(id) {
                    to.inject_thread(taken).unwrap();
                }
                src.advance_to(src.now_us() + 500);
                dst.advance_to(dst.now_us() + 500);
                let o_src = src.oracle_pick();
                prop_assert_eq!(src.dispatch().thread, o_src);
                let o_dst = dst.oracle_pick();
                prop_assert_eq!(dst.dispatch().thread, o_dst);
                src.assert_consistent();
                dst.assert_consistent();
            }
        }

        /// Lazy rollovers against the per-boundary reference: the lazy side
        /// charges through [`Dispatcher::charge_span`] and is never synced,
        /// the reference settles every charge through
        /// [`Dispatcher::charge`] (see [`match_per_boundary_reference`]).
        #[test]
        fn lazy_rollovers_match_per_boundary_reference(
            ops in proptest::collection::vec((0u8..10, 0u64..6, 0u32..500, 1u64..40), 1..120),
        ) {
            match_per_boundary_reference(&ops, Charging::Span, Charging::PerCharge);
        }

        /// Lazy rollovers against the eager reference: both sides charge
        /// through [`Dispatcher::charge`], so the two differ only in when
        /// boundaries roll — in batches on the lazy side, one at a time at
        /// their instants on the eagerly synced reference.
        #[test]
        fn lazy_rollovers_match_eager_reference(
            ops in proptest::collection::vec((0u8..10, 0u64..6, 0u32..500, 1u64..40), 1..120),
        ) {
            match_per_boundary_reference(&ops, Charging::PerCharge, Charging::PerCharge);
        }

        /// Span batching under eager rollovers: the reference charges
        /// through [`Dispatcher::charge_span`] and leaves the batch open
        /// until its next operation, so a boundary it advances to meets an
        /// open batch, which must land in the period it was consumed in;
        /// the lazy side settles every charge through
        /// [`Dispatcher::charge`].
        #[test]
        fn eager_span_charges_match_the_lazy_reference(
            ops in proptest::collection::vec((0u8..10, 0u64..6, 0u32..500, 1u64..40), 1..120),
        ) {
            match_per_boundary_reference(&ops, Charging::PerCharge, Charging::Span);
        }

        /// The span fast path (next-quantum cache + batched `charge_span`)
        /// against an always-settled reference: identical op sequences
        /// drive two dispatcher pairs (two "CPUs"), the fast side
        /// charging spans through [`Dispatcher::charge_span`] and the
        /// reference settling every charge through [`Dispatcher::charge`].
        /// The per-id charge re-ranks the queue after every span, so the
        /// reference can never serve a pick from the cache; picks, quanta,
        /// post-sync accounts and stats must nevertheless match exactly,
        /// across wakes, re-reservations (selector 12 moves the grant
        /// alone), cross-CPU migrations and picks that stand unexecuted
        /// (selector 7 charges nothing).
        #[test]
        fn span_fast_path_matches_settled_reference(
            ops in proptest::collection::vec((0u8..13, 0u64..8, 0u32..500, 1u64..40), 1..150),
        ) {
            let mut fast = [Dispatcher::new(DispatcherConfig::default()), Dispatcher::new(DispatcherConfig::default())];
            let mut refd = [Dispatcher::new(DispatcherConfig::default()), Dispatcher::new(DispatcherConfig::default())];
            for (op, i, p, aux) in ops {
                let id = ThreadId(i);
                let cpu = (aux % 2) as usize;
                match op {
                    0 => {
                        // A thread lives on at most one CPU at a time.
                        if fast.iter().all(|d| d.thread_state(id).is_none()) {
                            let a = fast[cpu].add_thread_preadmitted(id, reserved(p, aux));
                            let b = refd[cpu].add_thread_preadmitted(id, reserved(p, aux));
                            prop_assert_eq!(a, b);
                        }
                    }
                    1 => for c in 0..2 {
                        let a = fast[c].remove_thread(id);
                        let b = refd[c].remove_thread(id);
                        prop_assert_eq!(a.is_ok(), b.is_ok());
                    },
                    2 => for c in 0..2 {
                        let _ = fast[c].block(id);
                        let _ = refd[c].block(id);
                    },
                    3 => for c in 0..2 {
                        let _ = fast[c].unblock(id);
                        let _ = refd[c].unblock(id);
                    },
                    4 => for c in 0..2 {
                        let a = fast[c].set_reservation(id, reserved(p, aux));
                        let b = refd[c].set_reservation(id, reserved(p, aux));
                        prop_assert_eq!(a.is_ok(), b.is_ok());
                    },
                    5 => for c in 0..2 {
                        // Both CPUs share one clock, like the machine layer.
                        let t = fast[c].now_us() + aux * 499;
                        fast[c].advance_to(t);
                        refd[c].advance_to(t);
                    },
                    6 => {
                        // Cross-CPU migration; both sides move the same
                        // thread (which also settles any open span batch).
                        let to = 1 - cpu;
                        if let Ok(t) = fast[cpu].take_thread(id) {
                            let tr = refd[cpu].take_thread(id).expect("mirrored population");
                            fast[to].inject_thread(t).unwrap();
                            refd[to].inject_thread(tr).unwrap();
                        }
                    }
                    12 => for c in 0..2 {
                        let a = regrant(&mut fast[c], id, p);
                        prop_assert_eq!(a, regrant(&mut refd[c], id, p));
                    },
                    _ => {
                        let of = fast[cpu].dispatch();
                        let or = refd[cpu].dispatch();
                        prop_assert_eq!(of.thread, or.thread, "picks diverged");
                        prop_assert_eq!(of.quantum_us, or.quantum_us, "quanta diverged");
                        if let (Some(t), false) = (of.thread, op == 7) {
                            let used = (of.quantum_us * (p as u64 % 3 + 1) / 3).max(1);
                            fast[cpu].charge_span(used);
                            refd[cpu].charge(t, used).expect("picked exists");
                        }
                    }
                }
                for c in 0..2 {
                    fast[c].assert_consistent();
                    refd[c].assert_consistent();
                }
            }
            // Settle the batches, then every observable must agree — except
            // that an uncharged last pick stays Running on the reference
            // while the fast side's closing settle makes it Ready.
            let settled = |s: Option<ThreadState>| {
                s.map(|s| if s == ThreadState::Running { ThreadState::Ready } else { s })
            };
            for c in 0..2 {
                fast[c].sync_all();
                refd[c].sync_all();
                prop_assert_eq!(ids(&refd[c]), ids(&fast[c]));
                for id in ids(&refd[c]) {
                    prop_assert_eq!(
                        settled(refd[c].thread_state(id)),
                        settled(fast[c].thread_state(id))
                    );
                    let (ra, fa) = (refd[c].usage(id).unwrap(), fast[c].usage(id).unwrap());
                    prop_assert_eq!(
                        format!("{ra:?}"),
                        format!("{fa:?}"),
                        "account diverged for {:?} on cpu {}", id, c
                    );
                }
                let (rs, fs) = (refd[c].stats(), fast[c].stats());
                prop_assert_eq!(rs.dispatches, fs.dispatches);
                prop_assert_eq!(rs.context_switches, fs.context_switches);
                prop_assert_eq!(rs.period_rollovers, fs.period_rollovers);
                prop_assert_eq!(rs.deadlines_missed, fs.deadlines_missed);
            }
        }
    }
}
