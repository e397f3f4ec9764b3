//! The sharded simulator: a two-level control plane for large machines.
//!
//! One [`Simulation`] — one controller walking every job each cycle, one
//! calendar driving every CPU — is the scalability wall above a few dozen
//! CPUs.  [`ShardedSim`] splits the machine into shards: groups of CPUs,
//! each owning its own [`Simulation`] (dispatchers, controller pipeline
//! instance, calendar, timer state), so a shard's steady-state work
//! touches only shard-local dense slot storage and the per-shard
//! zero-alloc guarantee is preserved.  Above the shards a top-level
//! *rebalancer* runs on a slower cadence than the 10 ms controller cycle:
//! at each rebalance barrier it compares per-CPU granted load across
//! shards and migrates adaptive jobs from the most to the least loaded
//! shard through the controller/machine extract–inject machinery, keeping
//! the single `add_job`/`Host` API unchanged.
//!
//! Between two barriers shards share *nothing* on their hot paths — ids
//! are strided so they stay globally unique (`Simulation::with_shard_identity`),
//! the metric registry and telemetry ring are the only shared structures,
//! and both are internally synchronised — so the shard advance loop runs
//! each shard on its own OS thread ([`std::thread::scope`]) when
//! [`ShardConfig::parallel`] is set.  Sequential and parallel execution
//! are bit-for-bit identical: shards only interact at barriers.
//!
//! # Placement policy
//!
//! Queue-coupled jobs (classes `RealRate`, `RealTime`,
//! `AperiodicRealTime` — producers and consumers of shared bounded
//! queues, plus reservation jobs subject to single-authority admission
//! control) are *anchored to shard 0*, so a coupled pipeline never spans
//! two shards and never observes a queue mid-window from a shard whose
//! clock is behind.  `Miscellaneous` jobs — the elastic bulk of large
//! workloads — spread across shards by granted load at admission and are
//! the only jobs the rebalancer will migrate (and only while they have no
//! registry attachments).
//!
//! # `shards = 1`
//!
//! With one shard every call delegates *directly* to the inner
//! [`Simulation`] — no barriers, no rebalancer, no trace merging — so a
//! single-shard [`ShardedSim`] reproduces the unsharded simulator's
//! golden [`SimStats`] bit for bit (`tests/sharded_sim.rs` pins this
//! against the captures in `tests/sim_golden_stats.rs`).

use crate::host::{Backend, Host};
use crate::simulation::{end_after, SimConfig, SimStats, Simulation};
use crate::trace::Trace;
use crate::workload::WorkModel;
use rrs_core::{controller::AdmitError, Controller, JobClass, JobHandle, JobId, JobSpec, SimTime};
use rrs_queue::MetricRegistry;
use rrs_scheduler::{CpuId, Reservation, ThreadId, UsageAccount};
use rrs_telemetry::{Recorder, TelemetryConfig, TelemetrySnapshot, TraceEventKind};
use std::any::Any;
use std::borrow::Cow;
use std::sync::Arc;

// The parallel advance hands each shard to its own scoped thread; this
// holds as long as every piece of shard state (work models included —
// `WorkModel: Send`) is `Send`.
const _: () = {
    const fn requires_send<T: Send>() {}
    requires_send::<Simulation>();
};

/// Sharding parameters for [`ShardedSim`].
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Number of shards the machine's CPUs are split into (clamped to
    /// `1..=cpus`).  CPUs are dealt as evenly as possible: with `T` CPUs
    /// and `S` shards, the first `T mod S` shards get `⌈T/S⌉` CPUs and
    /// the rest get `⌊T/S⌋`.
    pub shards: usize,
    /// Seconds between rebalance barriers — the top level's cadence,
    /// deliberately slower than the 10 ms controller cycle so the
    /// per-shard controllers converge between interventions.
    pub rebalance_interval_s: f64,
    /// Minimum per-CPU granted-load gap (parts per thousand) between the
    /// most and least loaded shard before the rebalancer moves anything —
    /// hysteresis against migration churn.
    pub rebalance_threshold_ppt: u64,
    /// Run shards on parallel OS threads between barriers.  Sequential
    /// (`false`) and parallel execution produce identical results; the
    /// knob exists for single-core hosts and allocation-sensitive tests.
    pub parallel: bool,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            rebalance_interval_s: 0.1,
            rebalance_threshold_ppt: 50,
            parallel: true,
        }
    }
}

/// A machine of `S` independent [`Simulation`] shards behind the
/// single-simulation API, with a slow-cadence rebalancer on top.
///
/// # Examples
///
/// ```
/// use rrs_core::JobSpec;
/// use rrs_sim::{RunResult, ShardConfig, ShardedSim, SimConfig, WorkModel};
///
/// struct Spin;
/// impl WorkModel for Spin {
///     fn run(&mut self, _now: u64, quantum_us: u64, _hz: f64) -> RunResult {
///         RunResult::ran(quantum_us)
///     }
/// }
///
/// let mut sim = ShardedSim::new(
///     SimConfig::default().with_cpus(8),
///     ShardConfig { shards: 4, ..ShardConfig::default() },
/// );
/// for i in 0..16 {
///     sim.add_job(&format!("hog{i}"), JobSpec::miscellaneous(), Box::new(Spin)).unwrap();
/// }
/// sim.run_for(1.0);
/// assert!(sim.now_micros() >= 1_000_000);
/// ```
pub struct ShardedSim {
    config: SimConfig,
    shard_config: ShardConfig,
    registry: MetricRegistry,
    shards: Vec<Simulation>,
    /// Global CPU index of each shard's CPU 0 (prefix sums of per-shard
    /// CPU counts), plus one trailing entry holding the total.
    cpu_base: Vec<usize>,
    /// Owning shard per raw job id (dense, indexed by `JobId.0`;
    /// `u32::MAX` = not ours / removed).
    job_shard: Vec<u32>,
    /// Absolute time of the next rebalance barrier, in microseconds.
    next_rebalance_us: u64,
    /// The requested-horizon clock: `run_until_micros(end)` leaves this
    /// at `max(clock, end)`.  Individual shards may sit slightly past it
    /// (controller-cost charges overshoot, exactly as in the unsharded
    /// simulator).
    clock_us: u64,
    telemetry: Option<Arc<Recorder>>,
    rebalance_cycles: u64,
    rebalance_migrations: u64,
    /// Where the cross-shard trace view's merge epochs end: one row per
    /// barrier (or end of an advance) that saw new samples, each row every
    /// shard's [`Trace::close_epoch`] in shard order.  [`Host::trace`]
    /// assembles the view from the shards' own stores through these rows.
    trace_marks: Vec<u32>,
    /// Rebalancer scratch (reused across cycles).
    loads: Vec<u64>,
    candidates: Vec<(JobId, u32)>,
}

impl ShardedSim {
    /// Creates a sharded simulation: `config.cpus()` CPUs dealt across
    /// `shard.shards` shards, each running an independent [`Simulation`]
    /// over one shared metric registry.
    pub fn new(config: SimConfig, shard: ShardConfig) -> Self {
        let total_cpus = config.cpus().max(1);
        let shards_n = shard.shards.clamp(1, total_cpus);
        let registry = MetricRegistry::new();
        let mut shards = Vec::with_capacity(shards_n);
        let mut cpu_base = Vec::with_capacity(shards_n + 1);
        let mut base = 0usize;
        for k in 0..shards_n {
            let cpus_k = total_cpus / shards_n + usize::from(k < total_cpus % shards_n);
            cpu_base.push(base);
            base += cpus_k;
            shards.push(Simulation::with_shard_identity(
                config.with_cpus(cpus_k),
                registry.clone(),
                (k + 1) as u64,
                shards_n as u64,
            ));
        }
        cpu_base.push(base);
        let interval_us = (shard.rebalance_interval_s * 1e6).round().max(1.0) as u64;
        Self {
            config,
            shard_config: shard,
            registry,
            shards,
            cpu_base,
            job_shard: Vec::new(),
            next_rebalance_us: interval_us,
            clock_us: 0,
            telemetry: None,
            rebalance_cycles: 0,
            rebalance_migrations: 0,
            trace_marks: Vec::new(),
            loads: vec![0; shards_n],
            candidates: Vec::new(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Read-only access to one shard's simulation.
    pub fn shard(&self, k: usize) -> &Simulation {
        &self.shards[k]
    }

    /// The shard currently owning a job, if the job is live.
    pub fn shard_of(&self, job: JobId) -> Option<usize> {
        match self.job_shard.get(job.0 as usize) {
            Some(&s) if s != u32::MAX => Some(s as usize),
            _ => None,
        }
    }

    /// The global configuration the machine was built from.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The sharding configuration.
    pub fn shard_config(&self) -> &ShardConfig {
        &self.shard_config
    }

    /// Current simulated time in microseconds: the horizon every shard
    /// has reached (single shard: that shard's own clock).
    pub fn now_micros(&self) -> u64 {
        if self.shards.len() == 1 {
            self.shards[0].now_micros()
        } else {
            self.clock_us
        }
    }

    fn owning_shard(&self, job: JobId) -> Option<&Simulation> {
        self.shard_of(job).map(|s| &self.shards[s])
    }

    fn note_job(&mut self, job: JobId, shard: usize) {
        let i = job.0 as usize;
        if self.job_shard.len() <= i {
            self.job_shard.resize(i + 1, u32::MAX);
        }
        self.job_shard[i] = shard as u32;
    }

    /// The shard with the lowest granted load per CPU (lowest index wins
    /// ties).
    fn least_loaded_shard(&self) -> usize {
        let mut best = 0usize;
        let mut best_load = u64::MAX;
        for (k, shard) in self.shards.iter().enumerate() {
            let cpus = shard.machine().cpu_count().max(1) as u64;
            let load = shard.controller().granted_total_ppt() / cpus;
            if load < best_load {
                best_load = load;
                best = k;
            }
        }
        best
    }

    /// Adds a job, choosing its shard by class: queue-coupled and
    /// reservation classes (`RealRate`, `RealTime`, `AperiodicRealTime`)
    /// anchor to shard 0; `Miscellaneous` jobs go to the least-loaded
    /// shard (see the module docs for why).
    pub fn add_job(
        &mut self,
        name: &str,
        spec: JobSpec,
        work: Box<dyn WorkModel>,
    ) -> Result<JobHandle, AdmitError> {
        let shard = match spec.classify() {
            JobClass::Miscellaneous => self.least_loaded_shard(),
            _ => 0,
        };
        let handle = self.shards[shard].add_job(name, spec, work)?;
        self.note_job(handle.job, shard);
        Ok(handle)
    }

    /// Changes the trace sampling interval on every shard.
    pub fn set_trace_interval(&mut self, interval: SimTime) {
        for shard in &mut self.shards {
            shard.set_trace_interval(interval);
        }
    }

    /// Runs the simulation for `duration_s` simulated seconds
    /// ([`Host::advance`] in seconds).
    pub fn run_for(&mut self, duration_s: f64) {
        self.advance(SimTime::from_micros((duration_s * 1e6).round() as u64));
    }

    /// Runs the simulation until the given absolute simulated time.
    ///
    /// Multi-shard: shards advance independently (in parallel when
    /// configured) to each rebalance barrier at the
    /// [`ShardConfig::rebalance_interval_s`] cadence; at the barrier the
    /// rebalancer runs and a trace merge epoch ends.  Single shard: direct
    /// delegation, no barriers.
    pub(crate) fn run_until_micros(&mut self, end_us: u64) {
        if self.shards.len() == 1 {
            self.shards[0].run_until_micros(end_us);
            return;
        }
        let interval_us = (self.shard_config.rebalance_interval_s * 1e6)
            .round()
            .max(1.0) as u64;
        while self.clock_us < end_us {
            if end_us <= self.next_rebalance_us {
                self.advance_all(end_us);
                self.clock_us = end_us;
                break;
            }
            let barrier = self.next_rebalance_us;
            self.advance_all(barrier);
            self.clock_us = barrier;
            self.mark_traces();
            self.rebalance(barrier);
            while self.next_rebalance_us <= barrier {
                self.next_rebalance_us += interval_us;
            }
        }
        self.mark_traces();
    }

    /// Advances every shard to `target_us` — each on its own scoped OS
    /// thread when parallel execution is on.  Shards share no mutable
    /// state on this path (the registry and telemetry ring are internally
    /// synchronised), so sequential and parallel advance are identical.
    fn advance_all(&mut self, target_us: u64) {
        if self.shard_config.parallel {
            std::thread::scope(|scope| {
                for shard in &mut self.shards {
                    if shard.now_micros() < target_us {
                        scope.spawn(move || shard.run_until_micros(target_us));
                    }
                }
            });
        } else {
            for shard in &mut self.shards {
                if shard.now_micros() < target_us {
                    shard.run_until_micros(target_us);
                }
            }
        }
    }

    /// One rebalance cycle at a barrier: compare per-CPU granted load
    /// across shards and migrate `Miscellaneous` jobs (with no registry
    /// attachments) from the most to the least loaded shard until the gap
    /// halves or candidates run out.
    fn rebalance(&mut self, barrier_us: u64) {
        self.rebalance_cycles += 1;
        for (k, shard) in self.shards.iter().enumerate() {
            let cpus = shard.machine().cpu_count().max(1) as u64;
            self.loads[k] = shard.controller().granted_total_ppt() / cpus;
        }
        let (mut src, mut dst) = (0usize, 0usize);
        for k in 1..self.loads.len() {
            if self.loads[k] > self.loads[src] {
                src = k;
            }
            if self.loads[k] < self.loads[dst] {
                dst = k;
            }
        }
        let gap = self.loads[src].saturating_sub(self.loads[dst]);
        let mut moved = 0u32;
        if src != dst && gap > self.shard_config.rebalance_threshold_ppt {
            // Move roughly half the per-CPU gap's worth of granted load,
            // scaled by the destination's CPU count.
            let want_ppt = gap / 2 * self.shards[dst].machine().cpu_count().max(1) as u64;
            self.candidates.clear();
            {
                let registry = &self.registry;
                let candidates = &mut self.candidates;
                self.shards[src]
                    .controller()
                    .for_each_job(|job, class, granted| {
                        if class == JobClass::Miscellaneous && !registry.has_attachments(job.key())
                        {
                            candidates.push((job, granted.ppt()));
                        }
                    });
            }
            let mut moved_ppt = 0u64;
            for i in 0..self.candidates.len() {
                if moved_ppt >= want_ppt {
                    break;
                }
                let (job, _) = self.candidates[i];
                let Some(migrated) = self.shards[src].extract_job(job) else {
                    continue;
                };
                let granted = migrated.granted_ppt() as u64;
                let cpu = self.shards[dst].machine().least_loaded_cpu();
                let handle = self.shards[dst]
                    .inject_job(migrated, cpu)
                    .expect("ids are globally unique across shards");
                self.note_job(handle.job, dst);
                moved_ppt += granted;
                moved += 1;
                self.rebalance_migrations += 1;
                if let Some(t) = &self.telemetry {
                    t.record(
                        barrier_us,
                        TraceEventKind::Rebalance {
                            from_shard: src as u32,
                            to_shard: dst as u32,
                            thread: job.0,
                            moved: 1,
                        },
                    );
                }
            }
        }
        if let Some(t) = &self.telemetry {
            t.record(
                barrier_us,
                TraceEventKind::Rebalance {
                    from_shard: src as u32,
                    to_shard: dst as u32,
                    thread: 0,
                    moved,
                },
            );
        }
    }

    /// Ends a trace merge epoch: the samples every shard recorded since
    /// the last one join the cross-shard view after the earlier epochs'.
    /// A row is kept only if some shard recorded something, so a quiet
    /// barrier (tracing at a slow cadence, or pushed past the horizon, as
    /// the throughput benches do) costs one comparison per shard.
    fn mark_traces(&mut self) {
        let last = self.trace_marks.len().checked_sub(self.shards.len());
        let mut moved = false;
        for (k, shard) in self.shards.iter_mut().enumerate() {
            let before = last.map_or(0, |at| self.trace_marks[at + k]);
            moved |= shard.trace.close_epoch() != before;
        }
        if moved {
            let marks = self.shards.iter_mut().map(|s| s.trace.close_epoch());
            self.trace_marks.extend(marks);
        }
    }
}

impl Host for ShardedSim {
    fn backend(&self) -> Backend {
        Backend::Sim
    }

    fn add_job(
        &mut self,
        name: &str,
        spec: JobSpec,
        work: Box<dyn WorkModel>,
    ) -> Result<JobHandle, AdmitError> {
        ShardedSim::add_job(self, name, spec, work)
    }

    /// The handle's slot may be stale (the rebalancer reassigns slots on
    /// migration); only the job id is trusted.
    fn remove_job(&mut self, handle: JobHandle) {
        let Some(s) = self.shard_of(handle.job) else {
            return;
        };
        if let Some(fresh) = self.shards[s].handle_of(handle.job) {
            self.shards[s].remove_job(fresh);
        }
        self.job_shard[handle.job.0 as usize] = u32::MAX;
    }

    fn advance(&mut self, dt: SimTime) {
        self.run_until_micros(end_after(self.now_micros(), dt.as_micros()));
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.now_micros())
    }

    fn reservation(&self, handle: JobHandle) -> Option<Reservation> {
        self.owning_shard(handle.job)?
            .machine()
            .reservation(ThreadId(handle.job.0))
    }

    /// The owning shard's CPU base plus the job's local CPU index.
    fn cpu_of(&self, handle: JobHandle) -> Option<CpuId> {
        let s = self.shard_of(handle.job)?;
        let local = self.shards[s].machine().cpu_of(ThreadId(handle.job.0))?;
        Some(CpuId((self.cpu_base[s] + local.index()) as u32))
    }

    fn usage(&self, handle: JobHandle) -> Option<UsageAccount> {
        self.owning_shard(handle.job)?
            .machine()
            .usage(ThreadId(handle.job.0))
    }

    /// Deals the new capacity across shards with the same even split as
    /// construction.
    fn grow_cpus(&mut self, cpus: usize) -> usize {
        let current = self.cpu_count();
        if cpus <= current {
            return current;
        }
        let shards_n = self.shards.len();
        let mut base = 0usize;
        for k in 0..shards_n {
            let target = cpus / shards_n + usize::from(k < cpus % shards_n);
            // Per-shard grow is monotonic, so an already-larger shard
            // keeps its size (mirrors the unsharded no-shrink rule).
            let got = if target > self.shards[k].machine().cpu_count() {
                self.shards[k].grow_cpus(target)
            } else {
                self.shards[k].machine().cpu_count()
            };
            self.cpu_base[k] = base;
            base += got;
        }
        self.cpu_base[shards_n] = base;
        base
    }

    fn cpu_count(&self) -> usize {
        *self.cpu_base.last().expect("one trailing entry always")
    }

    /// Shard 0's controller; per-shard controllers are reachable through
    /// [`ShardedSim::shard`].
    fn controller(&self) -> &Controller {
        self.shards[0].controller()
    }

    fn registry(&self) -> MetricRegistry {
        self.registry.clone()
    }

    fn force_reservation(&mut self, handle: JobHandle, reservation: Reservation) {
        if let Some(s) = self.shard_of(handle.job) {
            if let Some(fresh) = self.shards[s].handle_of(handle.job) {
                self.shards[s].force_reservation(fresh, reservation);
            }
        }
    }

    /// Scalar counters summed, per-CPU entries concatenated in shard
    /// order (so [`Host::cpu_of`]'s global index indexes `per_cpu`).
    fn stats(&self) -> SimStats {
        if self.shards.len() == 1 {
            return self.shards[0].stats();
        }
        let mut total = SimStats::default();
        for shard in &self.shards {
            let s = shard.stats();
            total.controller_invocations += s.controller_invocations;
            total.controller_cost_us += s.controller_cost_us;
            total.dispatch_overhead_us += s.dispatch_overhead_us;
            total.quality_exceptions += s.quality_exceptions;
            total.squish_events += s.squish_events;
            total.admission_rejections += s.admission_rejections;
            total.migrations += s.migrations;
            total.steps += s.steps;
            total.per_cpu.extend(s.per_cpu);
        }
        total.migrations += self.rebalance_migrations;
        total
    }

    /// Per-shard snapshots summed, the shared ring's `trace_events_*`
    /// taken once, and the rebalancer's own counters added.
    fn telemetry(&self) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::default();
        for shard in &self.shards {
            snap.absorb(&shard.telemetry());
        }
        snap.trace_events_recorded = self.telemetry.as_ref().map(|r| r.recorded()).unwrap_or(0);
        snap.trace_events_dropped = self.telemetry.as_ref().map(|r| r.dropped()).unwrap_or(0);
        snap.rebalance_cycles = self.rebalance_cycles;
        snap.rebalance_migrations = self.rebalance_migrations;
        snap.finalize()
    }

    /// One shared ring across every shard (the recorder is internally
    /// synchronised and recording never allocates).
    fn enable_telemetry(&mut self, config: TelemetryConfig) -> Arc<Recorder> {
        let recorder = Recorder::new(config);
        for shard in &mut self.shards {
            shard.attach_telemetry(recorder.clone());
        }
        self.telemetry = Some(recorder.clone());
        recorder
    }

    fn telemetry_recorder(&self) -> Option<Arc<Recorder>> {
        self.telemetry.clone()
    }

    /// The inner simulation's own trace with one shard; otherwise the
    /// cross-shard view, assembled from the shards' stores on each call:
    /// merge epoch by epoch (the rebalance barriers and the ends of
    /// advances), each shard's samples in shard order, per-job series
    /// from the shard that recorded them and `fill/*` from shard 0 only.
    fn trace(&self) -> Cow<'_, Trace> {
        if self.shards.len() == 1 {
            return self.shards[0].trace();
        }
        let shards: Vec<&Trace> = self.shards.iter().map(|s| &s.trace).collect();
        Cow::Owned(Trace::merged(&shards, &self.trace_marks))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl std::fmt::Debug for ShardedSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSim")
            .field("shards", &self.shards.len())
            .field("cpus", &self.cpu_count())
            .field("now_us", &self.now_micros())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::RunResult;
    use rrs_scheduler::{Period, Proportion};

    struct Spin;
    impl WorkModel for Spin {
        fn run(&mut self, _now: u64, quantum_us: u64, _hz: f64) -> RunResult {
            RunResult::ran(quantum_us)
        }
    }

    fn sharded(cpus: usize, shards: usize) -> ShardedSim {
        ShardedSim::new(
            SimConfig::default().with_cpus(cpus),
            ShardConfig {
                shards,
                ..ShardConfig::default()
            },
        )
    }

    #[test]
    fn cpus_are_dealt_evenly() {
        let sim = sharded(10, 4);
        let counts: Vec<usize> = (0..4).map(|k| sim.shard(k).machine().cpu_count()).collect();
        assert_eq!(counts, vec![3, 3, 2, 2]);
        assert_eq!(sim.cpu_count(), 10);
    }

    #[test]
    fn ids_are_globally_unique_and_strided() {
        let mut sim = sharded(4, 4);
        let mut ids = Vec::new();
        for i in 0..12 {
            let h = sim
                .add_job(&format!("j{i}"), JobSpec::miscellaneous(), Box::new(Spin))
                .unwrap();
            ids.push(h.job.0);
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "raw ids must never collide");
    }

    #[test]
    fn misc_jobs_spread_and_coupled_jobs_anchor() {
        let mut sim = sharded(8, 4);
        for i in 0..8 {
            sim.add_job(&format!("hog{i}"), JobSpec::miscellaneous(), Box::new(Spin))
                .unwrap();
        }
        sim.run_for(0.05);
        let populated = (0..4)
            .filter(|&k| sim.shard(k).controller().job_count() > 0)
            .count();
        assert!(populated > 1, "misc jobs should spread across shards");
        let rt = sim
            .add_job(
                "rt",
                JobSpec::real_time(Proportion::from_ppt(100), Period::from_millis(10)),
                Box::new(Spin),
            )
            .unwrap();
        assert_eq!(
            sim.shard_of(rt.job),
            Some(0),
            "reservations anchor to shard 0"
        );
    }

    #[test]
    fn rebalancer_levels_a_skewed_machine() {
        let mut sim = ShardedSim::new(
            SimConfig::default().with_cpus(4),
            ShardConfig {
                shards: 2,
                rebalance_interval_s: 0.05,
                rebalance_threshold_ppt: 10,
                parallel: false,
            },
        );
        // Load shard 0 only: misc spread is by granted load, which is
        // zero for everyone at admission, so force the skew by adding
        // them before any controller cycle grows grants apart.
        let mut handles = Vec::new();
        for i in 0..12 {
            handles.push(
                sim.add_job(&format!("hog{i}"), JobSpec::miscellaneous(), Box::new(Spin))
                    .unwrap(),
            );
        }
        sim.run_for(1.0);
        let cycles = sim.telemetry().rebalance_cycles;
        assert!(cycles >= 10, "rebalancer must run at its cadence");
        // No job lost: every handle still resolves.
        for h in &handles {
            assert!(sim.shard_of(h.job).is_some());
            assert!(sim.allocation_ppt(*h) > 0);
        }
        let c0 = sim.shard(0).controller().job_count();
        let c1 = sim.shard(1).controller().job_count();
        assert_eq!(c0 + c1, 12, "jobs are conserved across shards");
    }

    /// Spins and counts what it ran, so it has a `rate/` series.
    struct Counter(f64);
    impl WorkModel for Counter {
        fn run(&mut self, _now: u64, quantum_us: u64, _hz: f64) -> RunResult {
            self.0 += quantum_us as f64;
            RunResult::ran(quantum_us)
        }
        fn progress_counter(&self) -> Option<f64> {
            Some(self.0)
        }
    }

    /// The cross-shard view is what the barrier merge it replaced built:
    /// epoch by epoch, each shard's new samples in shard order, `fill/*`
    /// from shard 0 only.  The reference merge below is that merge, run
    /// after every advance; advancing half a rebalance interval at a time
    /// makes those the machine's merge points too (a call that starts on
    /// a barrier merges nothing new there).  Jobs named alike land on
    /// both shards, the rebalancer migrates some mid-run, one is removed,
    /// and a queue's fill is sampled by both shards.
    #[test]
    fn the_cross_shard_trace_keeps_the_barrier_merge_order() {
        use crate::trace::Reference;
        use rrs_queue::{BoundedBuffer, Role};
        use std::collections::BTreeMap;

        let mut sim = ShardedSim::new(
            SimConfig::default().with_cpus(4),
            ShardConfig {
                shards: 2,
                rebalance_interval_s: 0.05,
                rebalance_threshold_ppt: 10,
                parallel: false,
            },
        );
        sim.set_trace_interval(SimTime::from_millis(10));
        let queue = Arc::new(BoundedBuffer::<u8>::new("pipe", 8));
        let consumer = sim
            .add_job("consumer", JobSpec::real_rate(), Box::new(Counter(0.0)))
            .unwrap();
        sim.registry()
            .register(consumer.job.key(), Role::Consumer, queue.clone());
        // Admitted before any grant, so all on shard 0 until rebalanced.
        let mut handles: Vec<JobHandle> = (0..6)
            .map(|i| {
                let name = if i % 2 == 0 {
                    "hog".to_string()
                } else {
                    format!("solo{i}")
                };
                sim.add_job(&name, JobSpec::miscellaneous(), Box::new(Counter(0.0)))
                    .unwrap()
            })
            .collect();

        let mut reference = Reference::default();
        let mut cursors: Vec<BTreeMap<String, usize>> = vec![BTreeMap::new(); 2];
        for step in 0..40 {
            sim.advance(SimTime::from_micros(25_000));
            if step % 3 == 0 {
                let _ = queue.try_push(0);
            } else {
                queue.try_pop();
            }
            match step {
                8 => {
                    for _ in 0..3 {
                        let h = sim
                            .add_job("hog", JobSpec::miscellaneous(), Box::new(Counter(0.0)))
                            .unwrap();
                        handles.push(h);
                    }
                }
                20 => sim.remove_job(handles.remove(0)),
                _ => {}
            }
            for (k, cursor) in cursors.iter_mut().enumerate() {
                for (name, series) in sim.shard(k).trace().iter() {
                    if k > 0 && name.starts_with("fill/") {
                        continue;
                    }
                    let seen = cursor.entry(name.to_string()).or_insert(0);
                    for s in &series.samples()[*seen..] {
                        reference.record(name, s.time, s.value);
                    }
                    *seen = series.len();
                }
            }
            reference.assert_read_back(&sim.trace());
        }
        assert!(
            sim.telemetry().rebalance_migrations > 0,
            "the rebalancer moved jobs"
        );
        for k in 0..2 {
            let shard = sim.shard(k).trace();
            assert!(shard.get("alloc/hog").is_some(), "shard {k} samples a hog");
            assert!(
                shard.get("fill/pipe").is_some(),
                "shard {k} samples the queue"
            );
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// The conservation oracle: across random interleavings of job
        /// arrivals, removals, advances (spanning many rebalance
        /// barriers) and CPU hot-adds, the sharded machine never loses a
        /// job, never loses or duplicates CPU capacity, and every live
        /// job stays reachable through the public by-id queries even
        /// after the rebalancer has reassigned its slot.
        #[test]
        fn sharded_conserves_jobs_and_capacity(
            shards in 1usize..5,
            ops in proptest::collection::vec((0u8..4, 1u64..200), 5..30),
        ) {
            let mut sim = ShardedSim::new(
                SimConfig::default().with_cpus(8),
                ShardConfig {
                    shards,
                    rebalance_interval_s: 0.02,
                    rebalance_threshold_ppt: 10,
                    parallel: false,
                },
            );
            let mut live: Vec<JobHandle> = Vec::new();
            let mut added = 0u64;
            for (op, arg) in ops {
                match op {
                    0 => {
                        let h = sim
                            .add_job(&format!("j{added}"), JobSpec::miscellaneous(), Box::new(Spin))
                            .expect("misc admission never fails");
                        added += 1;
                        live.push(h);
                    }
                    1 => {
                        if !live.is_empty() {
                            let h = live.remove(arg as usize % live.len());
                            sim.remove_job(h);
                            prop_assert!(sim.shard_of(h.job).is_none());
                        }
                    }
                    2 => sim.run_for(arg as f64 / 1000.0),
                    _ => {
                        let target = sim.cpu_count() + arg as usize % 3;
                        let got = sim.grow_cpus(target);
                        prop_assert!(got >= target.min(got));
                    }
                }
                // No job loss, no duplication: the shards' controllers
                // together hold exactly the live set.
                let tracked: usize = (0..sim.shard_count())
                    .map(|k| sim.shard(k).controller().job_count())
                    .sum();
                prop_assert_eq!(tracked, live.len());
                for h in &live {
                    prop_assert!(sim.shard_of(h.job).is_some());
                    let fresh = sim
                        .shard(sim.shard_of(h.job).unwrap())
                        .handle_of(h.job);
                    prop_assert!(fresh.is_some(), "live job must stay resolvable by id");
                }
                // Capacity conservation: the shards partition the machine.
                let shard_cpus: usize = (0..sim.shard_count())
                    .map(|k| sim.shard(k).machine().cpu_count())
                    .sum();
                prop_assert_eq!(shard_cpus, sim.cpu_count());
                // Per-shard grants never exceed the shard's capacity (the
                // squish stage's guarantee must survive inject).
                for k in 0..sim.shard_count() {
                    let cap = 1000 * sim.shard(k).machine().cpu_count() as u64;
                    prop_assert!(sim.shard(k).controller().granted_total_ppt() <= cap);
                }
            }
        }
    }

    #[test]
    fn parallel_and_sequential_advance_agree() {
        let run = |parallel: bool| {
            let mut sim = ShardedSim::new(
                SimConfig::default().with_cpus(4),
                ShardConfig {
                    shards: 2,
                    rebalance_interval_s: 0.05,
                    rebalance_threshold_ppt: 10,
                    parallel,
                },
            );
            for i in 0..8 {
                sim.add_job(&format!("hog{i}"), JobSpec::miscellaneous(), Box::new(Spin))
                    .unwrap();
            }
            sim.run_for(0.5);
            (sim.stats(), sim.telemetry())
        };
        let (seq_stats, seq_snap) = run(false);
        let (par_stats, par_snap) = run(true);
        assert_eq!(seq_stats, par_stats);
        assert_eq!(seq_snap, par_snap);
    }
}
