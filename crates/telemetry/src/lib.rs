//! Zero-cost runtime telemetry for the real-rate scheduler.
//!
//! The paper argues for its feedback-driven allocator almost entirely
//! through traces — time series of allocation, usage, period adaptation
//! and quality.  This crate is the repo's equivalent instrument: a
//! [`Recorder`] that subsystems write structured [`TraceEvent`]s into,
//! plus one shared counter schema ([`TelemetrySnapshot`]) that both host
//! backends (discrete-event simulator and wall-clock executor) fill so
//! sim-vs-real comparisons line up column for column.
//!
//! # Cost model
//!
//! Telemetry is strictly pay-for-use:
//!
//! - **Disabled** (the default): no [`Recorder`] exists.  Instrumented
//!   subsystems hold an `Option<Arc<Recorder>>` that is `None`, so the
//!   hot-path cost is one branch.  Plain `u64` subsystem counters (cache
//!   hits, settle reasons, calendar event mix) stay on unconditionally —
//!   an increment is cheaper than the branch to skip it — and feed
//!   `Host::telemetry()` even without a recorder.  The steady state
//!   remains allocation-free (`tests/zero_alloc_steady_state.rs`).
//! - **Enabled**: events go into a bounded ring buffer that is fully
//!   allocated up front; once warm, recording never allocates — the ring
//!   overwrites its oldest entries and counts them in
//!   [`Recorder::dropped`].
//!
//! # Export
//!
//! [`Recorder::chrome_trace_json`] renders the ring as Chrome
//! trace-event JSON (the `{"traceEvents": [...]}` object form) loadable
//! in Perfetto or `chrome://tracing`: dispatch spans become complete
//! (`"X"`) slices on per-CPU tracks, controller cycles become balanced
//! `"B"`/`"E"` pairs with per-stage sub-slices, and everything else
//! (settles, cache hits/misses, calendar pops, migrations, rollovers)
//! becomes instant (`"i"`) events.  [`TelemetrySnapshot::summary_json`]
//! is the compact counter summary.

#![forbid(unsafe_code)]

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration for an enabled telemetry recorder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Capacity of the bounded trace-event ring, in events.  The ring is
    /// allocated once at enable time; when full it overwrites the oldest
    /// events (counted by [`Recorder::dropped`]).
    pub ring_capacity: usize,
    /// Record per-stage (sense/classify/estimate/allocate/place/actuate)
    /// wall-clock timing inside full controller cycles.
    pub stage_timing: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            ring_capacity: 65_536,
            stage_timing: true,
        }
    }
}

/// Why a batched span charge had to settle instead of accumulating: the
/// scheduler's settlement rule decides with it, counts by it and records
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SettleCause {
    /// The clock reached the thread's next period boundary: the pending
    /// usage belongs to the finished period and must land in the account
    /// before the boundary rolls.
    PeriodBoundary,
    /// The charge exhausts the period budget: the thread throttles now,
    /// which unlinks it from the run queue and arms its release timer.
    ThrottleEdge,
    /// A zero-length charge still publishes the Running → Ready transition
    /// and re-watches the thread for the controller's usage feed, so it
    /// takes the full per-charge path.
    ZeroSpan,
}

impl SettleCause {
    /// Stable lowercase label used in trace event names and counters.
    pub fn label(self) -> &'static str {
        match self {
            SettleCause::PeriodBoundary => "period_boundary",
            SettleCause::ThrottleEdge => "throttle_edge",
            SettleCause::ZeroSpan => "zero_span",
        }
    }
}

/// The simulator's calendar event types, mirrored for counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalendarEventKind {
    /// A controller cycle is due.
    Controller,
    /// A trace sample is due.
    Trace,
    /// A throttled/blocked thread wakes.
    Wake,
    /// A queue poll tick.
    PollTick,
    /// The run horizon.
    Horizon,
}

impl CalendarEventKind {
    /// Stable lowercase label used in trace event names and counters.
    pub fn label(self) -> &'static str {
        match self {
            CalendarEventKind::Controller => "controller",
            CalendarEventKind::Trace => "trace",
            CalendarEventKind::Wake => "wake",
            CalendarEventKind::PollTick => "poll_tick",
            CalendarEventKind::Horizon => "horizon",
        }
    }
}

/// The six controller pipeline stages, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// Read progress/fill signals from the registry.
    Sense,
    /// Classify jobs (real-time / real-rate / adaptive / best-effort).
    Classify,
    /// Estimate required proportions and periods.
    Estimate,
    /// Squish/stretch allocations to capacity.
    Allocate,
    /// Choose CPU placement.
    Place,
    /// Emit actuations.
    Actuate,
}

impl Stage {
    /// All stages, in pipeline order (indexes match the per-stage timing
    /// arrays).
    pub(crate) const ALL: [Stage; 6] = [
        Stage::Sense,
        Stage::Classify,
        Stage::Estimate,
        Stage::Allocate,
        Stage::Place,
        Stage::Actuate,
    ];

    /// Stable lowercase label used in trace event names.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Sense => "sense",
            Stage::Classify => "classify",
            Stage::Estimate => "estimate",
            Stage::Allocate => "allocate",
            Stage::Place => "place",
            Stage::Actuate => "actuate",
        }
    }
}

/// One structured trace event.  Payloads are fixed-size `Copy` data so
/// recording into the pre-allocated ring never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEventKind {
    /// A dispatched thread ran for `len_us` starting at the event's
    /// timestamp.
    DispatchSpan {
        /// CPU the span ran on.
        cpu: u32,
        /// Thread that ran.
        thread: u64,
        /// Span length in microseconds.
        len_us: u64,
    },
    /// A batched span charge settled into the account.
    Settle {
        /// CPU the settle happened on.
        cpu: u32,
        /// Thread whose account settled.
        thread: u64,
        /// Why the batch could not keep accumulating.
        cause: SettleCause,
    },
    /// A dispatch was served by the next-quantum cache (no queue walk).
    CacheHit {
        /// CPU the dispatch ran on.
        cpu: u32,
    },
    /// A dispatch took the slow path and re-armed the cache.
    CacheMiss {
        /// CPU the dispatch ran on.
        cpu: u32,
    },
    /// The simulator popped a calendar event.
    CalendarEvent {
        /// The popped event's type.
        kind: CalendarEventKind,
    },
    /// One controller cycle ran.
    ControllerCycle {
        /// Wall-clock cost of the cycle, in nanoseconds.
        dur_ns: u64,
        /// `true` for the dirty-set incremental path, `false` for a full
        /// pipeline cycle.
        incremental: bool,
        /// Jobs visible to the cycle.
        jobs: u32,
        /// Per-stage wall-clock nanoseconds (indexes per `Stage::ALL`);
        /// all zero unless stage timing is enabled and the cycle was full.
        stage_ns: [u32; 6],
    },
    /// The placement authority moved a thread between CPUs.
    Migration {
        /// Thread that moved.
        thread: u64,
        /// Source CPU.
        from: u32,
        /// Destination CPU.
        to: u32,
    },
    /// Period boundary rollovers applied to a thread's account.
    PeriodRollover {
        /// CPU the thread lives on.
        cpu: u32,
        /// Thread whose period rolled.
        thread: u64,
        /// Number of boundaries crossed at once: a thread's boundaries roll
        /// when it is next touched, so several can roll in one batch.
        count: u32,
    },
    /// The top-level rebalancer acted on the sharded machine.  Recorded
    /// once per rebalance cycle (with `thread == 0` and `moved` jobs
    /// migrated in total) and once per cross-shard job migration (with the
    /// moved thread's id and `moved == 1`).
    Rebalance {
        /// Source shard index (cycle events report the busiest shard).
        from_shard: u32,
        /// Destination shard index (cycle events report the least loaded).
        to_shard: u32,
        /// Raw id of the migrated thread, or `0` for a cycle summary.
        thread: u64,
        /// Jobs moved: per-migration events record `1`; cycle summaries
        /// record the cycle's total (possibly `0` for a no-op decision).
        moved: u32,
    },
}

/// A timestamped [`TraceEventKind`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Host-clock timestamp in microseconds (sim time or wall time since
    /// the executor epoch).
    pub ts_us: u64,
    /// The event payload.
    pub kind: TraceEventKind,
}

/// Fixed-capacity overwrite-oldest ring of trace events.
struct Ring {
    buf: Vec<TraceEvent>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    /// Events overwritten because the ring was full.
    dropped: u64,
    /// Total events ever recorded.
    recorded: u64,
}

impl Ring {
    fn push(&mut self, ev: TraceEvent) {
        self.recorded += 1;
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(ev);
        } else if !self.buf.is_empty() {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.buf.len();
            self.dropped += 1;
        } else {
            self.dropped += 1;
        }
    }

    fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

/// A bounded, pre-allocated trace-event recorder.
///
/// Shared as `Arc<Recorder>` between the host and every instrumented
/// subsystem; `record` takes a short mutex and writes into storage that
/// was fully allocated at construction, so steady-state recording is
/// allocation-free.
pub struct Recorder {
    ring: Mutex<Ring>,
    stage_timing: bool,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ring = self.ring.lock();
        f.debug_struct("Recorder")
            .field("capacity", &ring.buf.capacity())
            .field("len", &ring.buf.len())
            .field("dropped", &ring.dropped)
            .field("stage_timing", &self.stage_timing)
            .finish()
    }
}

impl Recorder {
    /// Creates a recorder with the ring fully allocated up front.
    pub fn new(config: TelemetryConfig) -> Arc<Self> {
        Arc::new(Self {
            ring: Mutex::new(Ring {
                buf: Vec::with_capacity(config.ring_capacity.max(1)),
                head: 0,
                dropped: 0,
                recorded: 0,
            }),
            stage_timing: config.stage_timing,
        })
    }

    /// Whether per-stage controller timing was requested.
    pub fn stage_timing(&self) -> bool {
        self.stage_timing
    }

    /// Records one event.  Never allocates: a full ring overwrites its
    /// oldest entry.
    pub fn record(&self, ts_us: u64, kind: TraceEventKind) {
        self.ring.lock().push(TraceEvent { ts_us, kind });
    }

    /// Events currently held (at most the configured capacity).
    pub fn len(&self) -> usize {
        self.ring.lock().buf.len()
    }

    /// `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.ring.lock().buf.capacity()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped
    }

    /// Total events ever recorded (held + overwritten).
    pub fn recorded(&self) -> u64 {
        self.ring.lock().recorded
    }

    /// The held events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring.lock().snapshot()
    }

    /// Renders the held events as Chrome trace-event JSON (the object
    /// form, `{"traceEvents": [...]}`), loadable in Perfetto.
    ///
    /// Track layout: `pid` is always 0; per-CPU events use the CPU index
    /// as `tid`, calendar events use `TID_CALENDAR`, controller cycles
    /// and stage slices use `TID_CONTROLLER`.  Controller cycles render
    /// as balanced `"B"`/`"E"` pairs, dispatch spans as complete `"X"`
    /// slices, and point events as instants (`"ph":"i"`).  Entries are
    /// emitted in non-decreasing timestamp order.
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace(&self.events())
    }
}

/// Synthetic `tid` for the simulator's calendar track.
pub(crate) const TID_CALENDAR: u32 = 998;
/// Synthetic `tid` for the controller track.
pub(crate) const TID_CONTROLLER: u32 = 999;
/// Synthetic `tid` for the sharded machine's rebalancer track.
pub(crate) const TID_REBALANCER: u32 = 997;

/// One renderable Chrome trace entry, pre-sorting.
struct ChromeEntry {
    ts_us: f64,
    json: String,
}

fn chrome_event(
    name: &str,
    cat: &str,
    ph: char,
    ts_us: f64,
    tid: u32,
    dur_us: Option<f64>,
    args: &str,
) -> String {
    let mut s = format!(
        "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"ts\":{ts_us:.3},\"pid\":0,\"tid\":{tid}"
    );
    if let Some(dur) = dur_us {
        s.push_str(&format!(",\"dur\":{dur:.3}"));
    }
    if ph == 'i' {
        // Instant scope: thread-local.
        s.push_str(",\"s\":\"t\"");
    }
    if !args.is_empty() {
        s.push_str(&format!(",\"args\":{{{args}}}"));
    }
    s.push('}');
    s
}

/// Renders a slice of trace events as Chrome trace-event JSON.
pub(crate) fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut entries: Vec<ChromeEntry> = Vec::new();
    let mut push = |ts_us: f64, json: String| entries.push(ChromeEntry { ts_us, json });

    for ev in events {
        let ts = ev.ts_us as f64;
        match ev.kind {
            TraceEventKind::DispatchSpan {
                cpu,
                thread,
                len_us,
            } => push(
                ts,
                chrome_event(
                    &format!("t{thread}"),
                    "dispatch",
                    'X',
                    ts,
                    cpu,
                    Some(len_us as f64),
                    &format!("\"thread\":{thread}"),
                ),
            ),
            TraceEventKind::Settle { cpu, thread, cause } => push(
                ts,
                chrome_event(
                    &format!("settle:{}", cause.label()),
                    "settle",
                    'i',
                    ts,
                    cpu,
                    None,
                    &format!("\"thread\":{thread}"),
                ),
            ),
            TraceEventKind::CacheHit { cpu } => push(
                ts,
                chrome_event("quantum_cache_hit", "cache", 'i', ts, cpu, None, ""),
            ),
            TraceEventKind::CacheMiss { cpu } => push(
                ts,
                chrome_event("quantum_cache_miss", "cache", 'i', ts, cpu, None, ""),
            ),
            TraceEventKind::CalendarEvent { kind } => push(
                ts,
                chrome_event(
                    &format!("event:{}", kind.label()),
                    "calendar",
                    'i',
                    ts,
                    TID_CALENDAR,
                    None,
                    "",
                ),
            ),
            TraceEventKind::ControllerCycle {
                dur_ns,
                incremental,
                jobs,
                stage_ns,
            } => {
                let name = if incremental {
                    "incremental_cycle"
                } else {
                    "control_cycle"
                };
                let stage_total_ns: u64 = stage_ns.iter().map(|&n| n as u64).sum();
                let dur = (dur_ns.max(stage_total_ns)) as f64 / 1000.0;
                push(
                    ts,
                    chrome_event(
                        name,
                        "controller",
                        'B',
                        ts,
                        TID_CONTROLLER,
                        None,
                        &format!("\"jobs\":{jobs}"),
                    ),
                );
                if stage_total_ns > 0 {
                    let mut offset_ns = 0u64;
                    for (stage, &ns) in Stage::ALL.iter().zip(stage_ns.iter()) {
                        let sts = ts + offset_ns as f64 / 1000.0;
                        push(
                            sts,
                            chrome_event(
                                stage.label(),
                                "stage",
                                'X',
                                sts,
                                TID_CONTROLLER,
                                Some(ns as f64 / 1000.0),
                                "",
                            ),
                        );
                        offset_ns += ns as u64;
                    }
                }
                let ets = ts + dur;
                push(
                    ets,
                    chrome_event(name, "controller", 'E', ets, TID_CONTROLLER, None, ""),
                );
            }
            TraceEventKind::Migration { thread, from, to } => push(
                ts,
                chrome_event(
                    "migrate",
                    "placement",
                    'i',
                    ts,
                    to,
                    None,
                    &format!("\"thread\":{thread},\"from\":{from},\"to\":{to}"),
                ),
            ),
            TraceEventKind::PeriodRollover { cpu, thread, count } => push(
                ts,
                chrome_event(
                    "period_rollover",
                    "accounting",
                    'i',
                    ts,
                    cpu,
                    None,
                    &format!("\"thread\":{thread},\"count\":{count}"),
                ),
            ),
            TraceEventKind::Rebalance {
                from_shard,
                to_shard,
                thread,
                moved,
            } => push(
                ts,
                chrome_event(
                    if thread == 0 {
                        "rebalance_cycle"
                    } else {
                        "rebalance_migrate"
                    },
                    "rebalance",
                    'i',
                    ts,
                    TID_REBALANCER,
                    None,
                    &format!(
                        "\"from_shard\":{from_shard},\"to_shard\":{to_shard},\"thread\":{thread},\"moved\":{moved}"
                    ),
                ),
            ),
        }
    }

    // Chrome/Perfetto require non-decreasing timestamps per track; sort
    // globally (stable, so a B at the same timestamp as its E stays
    // first).
    entries.sort_by(|a, b| a.ts_us.partial_cmp(&b.ts_us).unwrap());

    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&e.json);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// The shared counter schema both backends fill for `Host::telemetry()`.
///
/// Counters are cumulative since host construction.  The two `*_rate`
/// fields are derived; [`TelemetrySnapshot::finalize`] recomputes them
/// from the raw counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Dispatches served by the next-quantum cache (no queue walk).
    #[serde(default)]
    pub quantum_cache_hits: u64,
    /// Dispatches that took the slow path.
    #[serde(default)]
    pub quantum_cache_misses: u64,
    /// `hits / (hits + misses)`, or 0 when no dispatches ran.
    #[serde(default)]
    pub cache_hit_rate: f64,
    /// Always 0: the one cause that moved it (a best-effort thread's span)
    /// left the scheduler in PR 20.  `benchmark/src/measure.rs` reads the
    /// field, so removing it takes a `benchmark`-only PR first.
    #[serde(default)]
    pub settles_goodness: u64,
    /// Span settles forced by a period boundary.
    #[serde(default)]
    pub settles_period_boundary: u64,
    /// Span settles forced by budget exhaustion (throttle).
    #[serde(default)]
    pub settles_throttle_edge: u64,
    /// Span settles forced by a zero-length charge.
    #[serde(default)]
    pub settles_zero_span: u64,
    /// Calendar pops: controller cycles due.
    #[serde(default)]
    pub events_controller: u64,
    /// Calendar pops: trace samples due.
    #[serde(default)]
    pub events_trace: u64,
    /// Calendar pops: thread wakes.
    #[serde(default)]
    pub events_wake: u64,
    /// Calendar pops: queue poll ticks.
    #[serde(default)]
    pub events_poll_tick: u64,
    /// Calendar pops: run horizons.
    #[serde(default)]
    pub events_horizon: u64,
    /// Controller cycles that ran the full pipeline.
    #[serde(default)]
    pub controller_full_cycles: u64,
    /// Controller cycles served by the dirty-set incremental path.
    #[serde(default)]
    pub controller_incremental_cycles: u64,
    /// `incremental / (full + incremental)`, or 0 when no cycles ran.
    #[serde(default)]
    pub incremental_skip_rate: f64,
    /// Cumulative sense-stage nanoseconds (stage timing only).
    #[serde(default)]
    pub stage_sense_ns: u64,
    /// Cumulative classify-stage nanoseconds (stage timing only).
    #[serde(default)]
    pub stage_classify_ns: u64,
    /// Cumulative estimate-stage nanoseconds (stage timing only).
    #[serde(default)]
    pub stage_estimate_ns: u64,
    /// Cumulative allocate-stage nanoseconds (stage timing only).
    #[serde(default)]
    pub stage_allocate_ns: u64,
    /// Cumulative place-stage nanoseconds (stage timing only).
    #[serde(default)]
    pub stage_place_ns: u64,
    /// Cumulative actuate-stage nanoseconds (stage timing only).
    #[serde(default)]
    pub stage_actuate_ns: u64,
    /// Total dispatch decisions (cache hits + slow-path dispatches).
    #[serde(default)]
    pub dispatches: u64,
    /// Dispatches that switched the running thread.
    #[serde(default)]
    pub context_switches: u64,
    /// Period boundary rollovers applied.
    #[serde(default)]
    pub period_rollovers: u64,
    /// Threads moved between CPUs.
    #[serde(default)]
    pub migrations: u64,
    /// Rebalancer cycles run over the sharded machine (0 unsharded).
    #[serde(default)]
    pub rebalance_cycles: u64,
    /// Jobs migrated between shards by the rebalancer.
    #[serde(default)]
    pub rebalance_migrations: u64,
    /// Trace events recorded into the ring (0 when telemetry is off).
    #[serde(default)]
    pub trace_events_recorded: u64,
    /// Trace events overwritten because the ring was full.
    #[serde(default)]
    pub trace_events_dropped: u64,
}

impl TelemetrySnapshot {
    /// Settles of every cause combined.
    pub fn settles_total(&self) -> u64 {
        self.settles_goodness
            + self.settles_period_boundary
            + self.settles_throttle_edge
            + self.settles_zero_span
    }

    /// Calendar pops of every type combined.
    pub fn calendar_events_total(&self) -> u64 {
        self.events_controller
            + self.events_trace
            + self.events_wake
            + self.events_poll_tick
            + self.events_horizon
    }

    /// Recomputes the derived rate fields from the raw counters.
    pub fn finalize(mut self) -> Self {
        let dispatches = self.quantum_cache_hits + self.quantum_cache_misses;
        self.cache_hit_rate = if dispatches > 0 {
            self.quantum_cache_hits as f64 / dispatches as f64
        } else {
            0.0
        };
        let cycles = self.controller_full_cycles + self.controller_incremental_cycles;
        self.incremental_skip_rate = if cycles > 0 {
            self.controller_incremental_cycles as f64 / cycles as f64
        } else {
            0.0
        };
        self
    }

    /// Adds `other`'s raw counters into this snapshot field by field —
    /// how the sharded simulator aggregates per-shard snapshots into one
    /// machine-wide view.  The derived rates are left stale; call
    /// [`TelemetrySnapshot::finalize`] after the last `absorb`.  Note the
    /// `trace_events_*` counters are summed too: when shards share one
    /// ring, overwrite them from the shared recorder afterwards.
    pub fn absorb(&mut self, other: &TelemetrySnapshot) {
        self.quantum_cache_hits += other.quantum_cache_hits;
        self.quantum_cache_misses += other.quantum_cache_misses;
        self.settles_goodness += other.settles_goodness;
        self.settles_period_boundary += other.settles_period_boundary;
        self.settles_throttle_edge += other.settles_throttle_edge;
        self.settles_zero_span += other.settles_zero_span;
        self.events_controller += other.events_controller;
        self.events_trace += other.events_trace;
        self.events_wake += other.events_wake;
        self.events_poll_tick += other.events_poll_tick;
        self.events_horizon += other.events_horizon;
        self.controller_full_cycles += other.controller_full_cycles;
        self.controller_incremental_cycles += other.controller_incremental_cycles;
        self.stage_sense_ns += other.stage_sense_ns;
        self.stage_classify_ns += other.stage_classify_ns;
        self.stage_estimate_ns += other.stage_estimate_ns;
        self.stage_allocate_ns += other.stage_allocate_ns;
        self.stage_place_ns += other.stage_place_ns;
        self.stage_actuate_ns += other.stage_actuate_ns;
        self.dispatches += other.dispatches;
        self.context_switches += other.context_switches;
        self.period_rollovers += other.period_rollovers;
        self.migrations += other.migrations;
        self.rebalance_cycles += other.rebalance_cycles;
        self.rebalance_migrations += other.rebalance_migrations;
        self.trace_events_recorded += other.trace_events_recorded;
        self.trace_events_dropped += other.trace_events_dropped;
    }

    /// The counters accumulated since an `earlier` snapshot of the same
    /// host: every cumulative field is subtracted (saturating, so a stale
    /// `earlier` cannot underflow) and the derived rates are recomputed
    /// over the window.  This is how per-phase counter attribution works:
    /// snapshot at each phase boundary and diff.
    pub fn delta_since(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        TelemetrySnapshot {
            quantum_cache_hits: self
                .quantum_cache_hits
                .saturating_sub(earlier.quantum_cache_hits),
            quantum_cache_misses: self
                .quantum_cache_misses
                .saturating_sub(earlier.quantum_cache_misses),
            cache_hit_rate: 0.0,
            settles_goodness: self
                .settles_goodness
                .saturating_sub(earlier.settles_goodness),
            settles_period_boundary: self
                .settles_period_boundary
                .saturating_sub(earlier.settles_period_boundary),
            settles_throttle_edge: self
                .settles_throttle_edge
                .saturating_sub(earlier.settles_throttle_edge),
            settles_zero_span: self
                .settles_zero_span
                .saturating_sub(earlier.settles_zero_span),
            events_controller: self
                .events_controller
                .saturating_sub(earlier.events_controller),
            events_trace: self.events_trace.saturating_sub(earlier.events_trace),
            events_wake: self.events_wake.saturating_sub(earlier.events_wake),
            events_poll_tick: self
                .events_poll_tick
                .saturating_sub(earlier.events_poll_tick),
            events_horizon: self.events_horizon.saturating_sub(earlier.events_horizon),
            controller_full_cycles: self
                .controller_full_cycles
                .saturating_sub(earlier.controller_full_cycles),
            controller_incremental_cycles: self
                .controller_incremental_cycles
                .saturating_sub(earlier.controller_incremental_cycles),
            incremental_skip_rate: 0.0,
            stage_sense_ns: self.stage_sense_ns.saturating_sub(earlier.stage_sense_ns),
            stage_classify_ns: self
                .stage_classify_ns
                .saturating_sub(earlier.stage_classify_ns),
            stage_estimate_ns: self
                .stage_estimate_ns
                .saturating_sub(earlier.stage_estimate_ns),
            stage_allocate_ns: self
                .stage_allocate_ns
                .saturating_sub(earlier.stage_allocate_ns),
            stage_place_ns: self.stage_place_ns.saturating_sub(earlier.stage_place_ns),
            stage_actuate_ns: self
                .stage_actuate_ns
                .saturating_sub(earlier.stage_actuate_ns),
            dispatches: self.dispatches.saturating_sub(earlier.dispatches),
            context_switches: self
                .context_switches
                .saturating_sub(earlier.context_switches),
            period_rollovers: self
                .period_rollovers
                .saturating_sub(earlier.period_rollovers),
            migrations: self.migrations.saturating_sub(earlier.migrations),
            rebalance_cycles: self
                .rebalance_cycles
                .saturating_sub(earlier.rebalance_cycles),
            rebalance_migrations: self
                .rebalance_migrations
                .saturating_sub(earlier.rebalance_migrations),
            trace_events_recorded: self
                .trace_events_recorded
                .saturating_sub(earlier.trace_events_recorded),
            trace_events_dropped: self
                .trace_events_dropped
                .saturating_sub(earlier.trace_events_dropped),
        }
        .finalize()
    }

    /// The compact JSON counter summary.
    pub fn summary_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialises")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_since_subtracts_and_recomputes_rates() {
        let earlier = TelemetrySnapshot {
            quantum_cache_hits: 10,
            quantum_cache_misses: 10,
            dispatches: 20,
            settles_goodness: 3,
            controller_full_cycles: 2,
            controller_incremental_cycles: 2,
            migrations: 1,
            ..TelemetrySnapshot::default()
        }
        .finalize();
        let later = TelemetrySnapshot {
            quantum_cache_hits: 40,
            quantum_cache_misses: 20,
            dispatches: 60,
            settles_goodness: 5,
            controller_full_cycles: 3,
            controller_incremental_cycles: 5,
            migrations: 1,
            ..TelemetrySnapshot::default()
        }
        .finalize();
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.quantum_cache_hits, 30);
        assert_eq!(delta.quantum_cache_misses, 10);
        assert_eq!(delta.dispatches, 40);
        assert_eq!(delta.settles_goodness, 2);
        assert_eq!(delta.migrations, 0);
        // The rates are the window's, not the cumulative run's.
        assert!((delta.cache_hit_rate - 0.75).abs() < 1e-12);
        assert!((delta.incremental_skip_rate - 0.75).abs() < 1e-12);
        // A stale `earlier` saturates instead of wrapping.
        let stale = earlier.delta_since(&later);
        assert_eq!(stale.quantum_cache_hits, 0);
        assert_eq!(stale.dispatches, 0);
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let rec = Recorder::new(TelemetryConfig {
            ring_capacity: 4,
            stage_timing: false,
        });
        for i in 0..10u64 {
            rec.record(i, TraceEventKind::CacheHit { cpu: 0 });
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.capacity(), 4);
        assert_eq!(rec.dropped(), 6);
        assert_eq!(rec.recorded(), 10);
        let events = rec.events();
        let ts: Vec<u64> = events.iter().map(|e| e.ts_us).collect();
        assert_eq!(ts, vec![6, 7, 8, 9]);
    }

    #[test]
    fn chrome_trace_is_parseable_sorted_and_balanced() {
        let rec = Recorder::new(TelemetryConfig::default());
        rec.record(
            100,
            TraceEventKind::DispatchSpan {
                cpu: 0,
                thread: 7,
                len_us: 50,
            },
        );
        rec.record(
            150,
            TraceEventKind::Settle {
                cpu: 0,
                thread: 7,
                cause: SettleCause::ThrottleEdge,
            },
        );
        rec.record(
            200,
            TraceEventKind::ControllerCycle {
                dur_ns: 4_000,
                incremental: false,
                jobs: 3,
                stage_ns: [500, 500, 500, 500, 500, 500],
            },
        );
        rec.record(
            300,
            TraceEventKind::CalendarEvent {
                kind: CalendarEventKind::Wake,
            },
        );
        let json = rec.chrome_trace_json();
        let value: serde::Value = serde_json::from_str(&json).expect("trace must parse");
        let events = value
            .field("traceEvents")
            .as_arr()
            .expect("traceEvents array");
        assert!(!events.is_empty());
        let mut last_ts = f64::MIN;
        let mut begins = 0i64;
        let mut ends = 0i64;
        for ev in events {
            let obj = ev.as_obj().expect("event object");
            let ts = match ev.field("ts") {
                serde::Value::Num(n) => n.as_f64(),
                other => panic!("ts must be a number, got {other:?}"),
            };
            assert!(ts >= last_ts, "timestamps must be non-decreasing");
            last_ts = ts;
            let ph = match ev.field("ph") {
                serde::Value::Str(s) => s.as_str(),
                other => panic!("ph must be a string, got {other:?}"),
            };
            match ph {
                "B" => begins += 1,
                "E" => ends += 1,
                "X" | "i" => {}
                other => panic!("unexpected phase {other}"),
            }
            assert!(obj.iter().any(|(k, _)| k == "pid"));
            assert!(obj.iter().any(|(k, _)| k == "tid"));
            assert!(obj.iter().any(|(k, _)| k == "name"));
        }
        assert_eq!(begins, 1);
        assert_eq!(begins, ends, "begin/end pairs must balance");
    }

    #[test]
    fn snapshot_rates_and_summary_round_trip() {
        let snap = TelemetrySnapshot {
            quantum_cache_hits: 90,
            quantum_cache_misses: 10,
            controller_full_cycles: 1,
            controller_incremental_cycles: 3,
            settles_throttle_edge: 5,
            ..Default::default()
        }
        .finalize();
        assert!((snap.cache_hit_rate - 0.9).abs() < 1e-12);
        assert!((snap.incremental_skip_rate - 0.75).abs() < 1e-12);
        assert_eq!(snap.settles_total(), 5);
        let json = snap.summary_json();
        let back: TelemetrySnapshot = serde_json::from_str(&json).expect("summary parses");
        assert_eq!(back, snap);
    }
}
