//! The adaptive controller tying monitoring, estimation and actuation
//! together.
//!
//! The controller owns the dense slot-indexed job table
//! (`crate::slot::SlotTable`), the per-CPU loads, the caches its cycle
//! maintains and the reused output buffers, and runs one cycle per
//! controller period through the kernels of `crate::pipeline`.  The cycle
//! entry point, [`Controller::control_cycle_with_dt`], performs no heap
//! allocation once the buffers have warmed up.

use crate::config::ControllerConfig;
use crate::estimator::ProportionEstimator;
use crate::events::{ControllerEvent, QualityException};
use crate::period::DEFAULT_DISPATCH_INTERVAL_US;
use crate::pipeline::{self, CpuLoads, JobEntry, JobTable, ResolvedSense};
use crate::slot::{JobSlot, SlotSet};
use crate::squish::{SquishColumns, SquishPolicy, SquishRequest};
use crate::taxonomy::{JobClass, JobSpec};
use rrs_queue::{JobKey, MetricRegistry};
use rrs_scheduler::{CpuId, Period, Proportion, Reservation};
use serde::{Deserialize, Serialize};

/// The share of each CPU, in parts per thousand, that the controller hands
/// out before it squishes: §3.3's overload threshold, 95 % in the paper's
/// prototype.  It is also the admission bound of a real-time reservation,
/// as for the paper's RBS; a machine of `n` CPUs has `n` times this
/// capacity.
pub(crate) const OVERLOAD_THRESHOLD_PPT: u32 = 950;

/// The constant pseudo-pressure of a miscellaneous job: with no progress
/// metric of its own it keeps asking for more CPU until it is satisfied or
/// squished, as the paper's controller treats such jobs.
pub(crate) const MISC_PRESSURE: f64 = 0.25;

/// Identifies a job to the controller.
///
/// A job is "a collection of cooperating threads"; in this reproduction each
/// controller job maps to one schedulable thread, and the same raw id is
/// used for the scheduler's `ThreadId` and the registry's `JobKey`.
///
/// `JobId` is the stable external name of a job.  Layers that talk to the
/// controller every cycle should prefer the dense [`JobSlot`] handle
/// returned by [`Controller::add_job`], which resolves in `O(1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u64);

impl JobId {
    /// The registry key corresponding to this job.
    pub fn key(self) -> JobKey {
        JobKey(self.0)
    }
}

impl From<JobId> for u64 {
    fn from(id: JobId) -> u64 {
        id.0
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// A job's detached controller-side state, in transit between two
/// controller instances (the sharded machine's cross-shard migration
/// path).  Opaque: produced by [`crate::ControlLoop::extract`], consumed by
/// [`crate::ControlLoop::inject`].
#[derive(Debug)]
pub struct MigratedJob {
    job: JobId,
    entry: JobEntry,
}

impl MigratedJob {
    /// The migrating job's id.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// The grant the source controller last settled on.
    pub fn granted(&self) -> Proportion {
        self.entry.granted
    }
}

/// Per-job usage feedback the caller provides to each control cycle,
/// normally read from the dispatcher's accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsageSnapshot {
    /// Fraction of the allocation the job used in its last completed
    /// period, in `[0, 1]`.
    pub usage_ratio: f64,
}

impl Default for UsageSnapshot {
    fn default() -> Self {
        Self { usage_ratio: 1.0 }
    }
}

/// One actuation: the reservation the scheduler should apply to a job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Actuation {
    /// The dense handle of the job whose reservation changes; consumer
    /// layers index their own side tables with it
    /// ([`Controller::job_of`] names the job).
    pub slot: JobSlot,
    /// The new reservation.
    pub reservation: Reservation,
    /// The CPU the Place rule has the job on.  Consumers holding the
    /// thread on a different CPU should migrate it; on a single-CPU
    /// machine this is always `cpu0`.
    pub cpu: CpuId,
}

/// The result of one control cycle.
#[derive(Debug, Clone, Default)]
pub struct ControlOutput {
    /// Reservations to apply, one per managed job.
    pub actuations: Vec<Actuation>,
    /// Noteworthy events (squishes, quality exceptions, admissions).
    pub events: Vec<ControllerEvent>,
    /// Modelled execution cost of this controller invocation, in
    /// microseconds (Figure 5).
    pub cost_us: f64,
    /// Sum of the granted proportions, in parts per thousand.
    pub total_granted_ppt: u32,
}

impl ControlOutput {
    /// Returns the quality exceptions raised this cycle.
    pub fn quality_exceptions(&self) -> Vec<QualityException> {
        self.events
            .iter()
            .filter_map(|e| match e {
                ControllerEvent::Quality(q) => Some(*q),
                _ => None,
            })
            .collect()
    }
}

/// Errors returned when registering jobs with the controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The job id is already registered.
    Duplicate(JobId),
    /// Admission control rejected a real-time reservation.
    Rejected {
        /// The proportion requested.
        requested: Proportion,
        /// The proportion available for real-time reservations.
        available: Proportion,
    },
    /// The CPU a migrating job was to land on is not on this machine.
    NoSuchCpu(CpuId),
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Duplicate(id) => write!(f, "{id} is already registered"),
            AdmitError::Rejected {
                requested,
                available,
            } => write!(
                f,
                "real-time admission rejected: requested {requested}, available {available}"
            ),
            AdmitError::NoSuchCpu(cpu) => write!(f, "{cpu} is not on this machine"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// The feedback-driven proportion allocator.
///
/// Each cycle is one pass of the paper's loop — sense, control, actuate —
/// over the jobs whose inputs changed.  A structural change (a job added
/// or removed, a CPU added, a registry mutation, a new cycle length)
/// first rebuilds what the cycle keeps between periods from the job
/// table; that cycle then recomputes and actuates every job.
///
/// # Examples
///
/// ```
/// use rrs_core::{Controller, ControllerConfig, JobId, JobSpec, UsageSnapshot};
/// use rrs_queue::MetricRegistry;
///
/// let registry = MetricRegistry::new();
/// let config = ControllerConfig::default().with_incremental(true);
/// let mut controller = Controller::new(config, registry);
/// let slot = controller.add_job(JobId(1), JobSpec::miscellaneous()).unwrap();
///
/// // The admission forces a rebuild: the cycle actuates every job.
/// controller.record_usage(slot, UsageSnapshot { usage_ratio: 1.0 });
/// let out = controller.control_cycle_with_dt(0.01, 0.01);
/// assert_eq!(out.actuations.len(), 1);
/// assert_eq!(out.actuations[0].slot, slot);
/// assert_eq!(controller.cycle_counts(), (1, 0));
/// // The next cycle revisits what changed: the job's growing grant.
/// let out = controller.control_cycle_with_dt(0.02, 0.01);
/// assert_eq!(out.actuations.len(), 1);
/// assert_eq!(controller.cycle_counts(), (1, 1));
/// ```
#[derive(Debug)]
pub struct Controller {
    config: ControllerConfig,
    registry: MetricRegistry,
    estimator: ProportionEstimator,
    /// The scheduler's dispatch interval, which period estimation (§3.3)
    /// quantises budgets against: the machine's when a
    /// [`crate::ControlLoop`] built the controller, the estimator's
    /// default for a bare one.
    dispatch_interval_us: u64,
    jobs: JobTable,
    loads: CpuLoads,
    output: ControlOutput,
    cycles: u64,
    /// Cycles that began with a rebuild.
    full_cycles: u64,
    /// Cycles that ran on the caches as they stood.
    incremental_cycles: u64,
    /// Measure per-stage wall-clock time inside rebuild cycles (telemetry).
    stage_timing: bool,
    /// Per-stage nanoseconds of the last *timed* rebuild cycle, in loop
    /// order (sense, classify, estimate, allocate, place, actuate).
    last_stage_ns: [u64; 6],
    /// Cumulative per-stage nanoseconds over all timed rebuild cycles.
    stage_total_ns: [u64; 6],
    incr: IncrState,
}

/// What the cycle keeps between controller periods, so a period costs
/// the jobs whose inputs changed rather than the population.
///
/// Everything here is derived from the job table and the registry: which
/// jobs are real-rate and where their queues are, the squish inputs, the
/// registry version and cycle length they hold for, and which jobs must
/// be looked at.  `Controller::rebuild` derives it all afresh; every other
/// cycle maintains it under the changes it applies.
#[derive(Debug)]
struct IncrState {
    /// A structural change (job add/remove, importance, CPU count)
    /// invalidated the caches; the next cycle must rebuild.
    structural_dirty: bool,
    /// Registry version the cached `has_metric` flags and `sense` were
    /// read at.
    registry_version: u64,
    /// Cycle length of the last rebuild (bitwise-compared).
    last_dt: f64,
    /// Slots whose next recompute is not a proven no-op: the usage
    /// snapshot or the committed grant changed since the last one, or the
    /// last one still moved state.  A rebuild cycle leaves every slot
    /// marked.
    dirty: SlotSet,
    /// Real-rate slots.  Their pressure is sampled every cycle, and a
    /// clean one is recomputed only when the sample moved.
    real_rate: SlotSet,
    /// Each job's attachments as the last rebuild resolved them, so the
    /// real-rate samples above read their queues without the registry's
    /// lock or tree.
    sense: ResolvedSense,
    /// The squishable jobs' requests and held grants, one row each in
    /// slot order.
    columns: SquishColumns,
    /// Row → job, aligned with `columns`.
    request_slots: Vec<JobSlot>,
    /// Slot index → row, for squishable slots.
    row_of: Vec<u32>,
    /// Scratch: the rows this cycle recomputed, each with the cycle's
    /// `Q_t` as captured before any reclaim damping.
    recomputed: Vec<(u32, f64)>,
    /// Scratch: the fill levels one real-rate job's queues were sampled
    /// at, for the period heuristic.
    fills: Vec<f64>,
}

impl IncrState {
    fn new(squish_policy: SquishPolicy) -> Self {
        Self {
            structural_dirty: true,
            registry_version: 0,
            last_dt: 0.0,
            dirty: SlotSet::default(),
            real_rate: SlotSet::default(),
            sense: ResolvedSense::default(),
            columns: SquishColumns::new(squish_policy),
            request_slots: Vec::new(),
            row_of: Vec::new(),
            recomputed: Vec::new(),
            fills: Vec::new(),
        }
    }

    /// Whether every squish row's held grant is its job's committed grant.
    fn held_mirrors(&self, jobs: &JobTable) -> bool {
        self.request_slots.iter().enumerate().all(|(row, &slot)| {
            jobs.get(slot)
                .is_some_and(|e| e.granted == self.columns.held(row))
        })
    }
}

/// Wall-clock laps over a rebuild cycle's six stages — sense, classify,
/// estimate, allocate, place, actuate — when stage timing is on; inert
/// otherwise.
struct Laps {
    mark: Option<std::time::Instant>,
    ns: [u64; 6],
}

impl Laps {
    // allow(determinism): opt-in stage timing (off by default) measures
    // wall-clock cost per stage for telemetry; the durations feed
    // TelemetrySnapshot only and never a control decision.  Allowlisted
    // in analysis.json.
    fn start(on: bool) -> Self {
        Self {
            mark: on.then(std::time::Instant::now),
            ns: [0; 6],
        }
    }

    /// Ends `stage`'s lap.
    fn lap(&mut self, stage: usize) {
        if let Some(mark) = &mut self.mark {
            let now = std::time::Instant::now();
            self.ns[stage] = now.duration_since(*mark).as_nanos() as u64;
            *mark = now;
        }
    }
}

impl Controller {
    /// Creates a controller over the given metric registry.
    pub fn new(config: ControllerConfig, registry: MetricRegistry) -> Self {
        Self {
            estimator: ProportionEstimator::new(&config),
            dispatch_interval_us: DEFAULT_DISPATCH_INTERVAL_US,
            config,
            registry,
            jobs: JobTable::new(),
            loads: CpuLoads::new(config.placement.cpu_count()),
            output: {
                let mut output = ControlOutput::default();
                // Room for a squish event, a migration and a couple of
                // quality exceptions before the event buffer ever grows,
                // so a rare first-ever event does not allocate mid-cycle.
                output.events.reserve(4);
                output
            },
            cycles: 0,
            full_cycles: 0,
            incremental_cycles: 0,
            stage_timing: false,
            last_stage_ns: [0; 6],
            stage_total_ns: [0; 6],
            incr: IncrState::new(config.squish_policy),
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Grows the machine jobs are placed on to `cpus` CPUs (at most
    /// `PlacementConfig::MAX_CPUS`), mid-run; a count at or below the
    /// current one changes nothing, as the machine layer has no
    /// hot-remove.  The next cycle rebuilds: the squish capacity
    /// (`overload_threshold × CPUs`) widens and Place starts fitting jobs
    /// onto the new CPUs.
    pub(crate) fn grow_cpus(&mut self, cpus: usize) {
        let placement = &mut self.config.placement;
        placement.cpus = cpus.clamp(
            placement.cpu_count(),
            crate::config::PlacementConfig::MAX_CPUS,
        );
        self.loads.grow(placement.cpus);
        self.incr.structural_dirty = true;
    }

    /// Sets the dispatch interval period estimation quantises budgets
    /// against — how [`crate::ControlLoop::new`] hands down its machine's.
    pub(crate) fn set_dispatch_interval_us(&mut self, us: u64) {
        self.dispatch_interval_us = us;
    }

    /// The metric registry the controller samples.
    pub fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    /// Number of managed jobs.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Number of control cycles executed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// `(full, incremental)` cycle counts: how many cycles began with a
    /// rebuild versus ran on the caches as they stood.  Their sum
    /// is [`Controller::cycles`]; `incremental / total` is the
    /// incremental-cycle skip rate telemetry reports.
    pub fn cycle_counts(&self) -> (u64, u64) {
        (self.full_cycles, self.incremental_cycles)
    }

    /// Enables (or disables) per-stage wall-clock timing inside rebuild
    /// cycles.  Off by default: the steady-state cycle stays free of
    /// clock reads.
    pub(crate) fn set_stage_timing(&mut self, on: bool) {
        self.stage_timing = on;
    }

    /// Per-stage nanoseconds of the last timed rebuild cycle, in loop
    /// order (sense, classify, estimate, allocate, place, actuate).  All
    /// zero until a rebuild cycle runs with stage timing enabled.
    pub(crate) fn last_stage_ns(&self) -> [u64; 6] {
        self.last_stage_ns
    }

    /// Cumulative per-stage nanoseconds over all timed rebuild cycles.
    pub fn stage_total_ns(&self) -> [u64; 6] {
        self.stage_total_ns
    }

    /// The dense slot currently assigned to a job id.
    pub fn slot_of(&self, job: JobId) -> Option<JobSlot> {
        self.jobs.slot_of(job)
    }

    /// The live slot at a dense index ([`JobSlot::index`]), if one is —
    /// how a side table indexed by slot index names its job.
    pub fn slot_at(&self, index: u32) -> Option<JobSlot> {
        self.jobs.slot_at(index)
    }

    /// The job id stored at a slot, if the slot is live and current.
    pub fn job_of(&self, slot: JobSlot) -> Option<JobId> {
        self.jobs.id_of(slot)
    }

    /// The class the controller currently assigns to a job.
    ///
    /// A job registered without a progress metric is reclassified as
    /// real-rate as soon as a metric is attached to it in the registry, and
    /// vice versa, so the class can change over a job's lifetime.
    pub fn job_class(&self, job: JobId) -> Option<JobClass> {
        let entry = self.jobs.get_by_id(job)?;
        Some(self.effective_spec(job, entry.spec).classify())
    }

    /// The proportion most recently granted to a job.
    pub fn granted(&self, job: JobId) -> Option<Proportion> {
        self.jobs.get_by_id(job).map(|e| e.granted)
    }

    /// Sum of every job's current grant, in parts per thousand — the
    /// sharded machine's per-shard load metric.  `O(CPUs)`: summed from
    /// the per-CPU load accumulators, not the job table.
    pub fn granted_total_ppt(&self) -> u64 {
        self.loads.granted_total_ppt()
    }

    /// Visits every live job in slot order with its id, effective class
    /// and current grant, without allocating — the rebalancer's candidate
    /// enumeration.
    pub fn for_each_job(&self, mut f: impl FnMut(JobId, JobClass, Proportion)) {
        for (_, id, e) in self.jobs.iter() {
            f(id, e.spec.classify(), e.granted);
        }
    }

    /// Registers a job and returns its dense slot.
    ///
    /// The importance weight is read from the spec
    /// ([`JobSpec::with_importance`]).  Real-time jobs (proportion and
    /// period both specified) are subject to admission control: if the
    /// requested proportion does not fit under the overload threshold
    /// together with the already-admitted real-time jobs, the registration
    /// is rejected.
    pub fn add_job(&mut self, job: JobId, spec: JobSpec) -> Result<JobSlot, AdmitError> {
        if self.jobs.slot_of(job).is_some() {
            return Err(AdmitError::Duplicate(job));
        }
        let class = spec.classify();
        let cpu = if matches!(class, JobClass::RealTime | JobClass::AperiodicRealTime) {
            // Real-time reservations must fit on one specific CPU: admit
            // against the CPU with the lightest fixed load (least-loaded
            // fit), which on a single CPU is the paper's original test.
            let requested = spec.proportion.unwrap_or(Proportion::ZERO);
            let (cpu, reserved) = self.least_loaded_cpu(true);
            let available = Proportion::from_ppt(
                (OVERLOAD_THRESHOLD_PPT as u64).saturating_sub(reserved) as u32,
            );
            if requested.ppt() > available.ppt() {
                return Err(AdmitError::Rejected {
                    requested,
                    available,
                });
            }
            cpu
        } else {
            // Adaptive jobs go wherever the granted load is lightest.
            self.least_loaded_cpu(false).0
        };
        let mut entry = JobEntry::new(spec, &self.config);
        entry.cpu = cpu;
        self.loads.shift(&entry, true);
        self.incr.structural_dirty = true;
        Ok(self
            .jobs
            .insert(job, entry)
            .expect("duplicate ids were rejected above"))
    }

    /// Removes a job and detaches its registry entries.
    pub fn remove_job(&mut self, job: JobId) -> bool {
        let removed = self.extract_job(job).is_some();
        if removed {
            self.registry.unregister_job(job.key());
        }
        removed
    }

    /// Removes the job at `slot` (if live) and detaches its registry
    /// entries.
    pub(crate) fn remove_slot(&mut self, slot: JobSlot) -> bool {
        match self.jobs.id_of(slot) {
            Some(job) => self.remove_job(job),
            None => false,
        }
    }

    /// Detaches a job's full controller-side state — spec, estimators,
    /// grant, usage feedback — without unregistering its queue-metric
    /// attachments, so the job can be re-registered on a *different*
    /// controller instance (the sharded machine's cross-shard migration
    /// path).  Returns `None` if the job is unknown.  The counterpart of
    /// [`Controller::inject_job`]; use [`Controller::remove_job`] when the
    /// job is actually leaving the system.
    pub(crate) fn extract_job(&mut self, job: JobId) -> Option<MigratedJob> {
        let (_, entry) = self.jobs.remove(job)?;
        self.loads.shift(&entry, false);
        self.incr.structural_dirty = true;
        Some(MigratedJob { job, entry })
    }

    /// Re-registers a job previously detached with
    /// [`Controller::extract_job`] (possibly from another controller) on
    /// an explicit CPU, preserving its estimator and grant state.
    ///
    /// No admission control runs here — the caller (the rebalancer) has
    /// already ruled on capacity.  Fails on a duplicate id and on a CPU
    /// this machine does not have.
    pub(crate) fn inject_job(
        &mut self,
        migrated: MigratedJob,
        cpu: CpuId,
    ) -> Result<JobSlot, AdmitError> {
        let MigratedJob { job, mut entry } = migrated;
        if self.jobs.slot_of(job).is_some() {
            return Err(AdmitError::Duplicate(job));
        }
        if cpu.index() >= self.loads.granted.len() {
            return Err(AdmitError::NoSuchCpu(cpu));
        }
        entry.cpu = cpu;
        self.loads.shift(&entry, true);
        // The receiving controller has never cycled over this job; the
        // rebuild this forces recomputes it.
        self.incr.structural_dirty = true;
        Ok(self
            .jobs
            .insert(job, entry)
            .expect("duplicate ids were rejected above"))
    }

    /// Records usage feedback for the job at `slot`.  Returns `false` if
    /// the slot is stale.
    ///
    /// Snapshots are sticky: the recorded ratio persists until overwritten,
    /// so callers only need to report *changes*.  A job that has never
    /// reported is assumed to have used its full allocation.
    pub fn record_usage(&mut self, slot: JobSlot, usage: UsageSnapshot) -> bool {
        match self.jobs.get_mut(slot) {
            Some(e) => {
                if e.usage.usage_ratio.to_bits() != usage.usage_ratio.to_bits() {
                    e.usage = usage;
                    self.incr.dirty.insert(slot.index());
                }
                true
            }
            None => false,
        }
    }

    /// The least-loaded CPU and its load in parts per thousand — by fixed
    /// reservations when admitting a real-time job (`fixed_only`), by
    /// granted proportions otherwise — read off the per-CPU accumulators
    /// every admission, removal, grant and migration keeps current.
    /// Lowest id wins ties, so a single-CPU machine always answers `cpu0`.
    fn least_loaded_cpu(&self, fixed_only: bool) -> (CpuId, u64) {
        let loads = if fixed_only {
            &self.loads.fixed
        } else {
            &self.loads.granted
        };
        let mut best = CpuId::ZERO;
        let mut best_load = u64::MAX;
        for (i, &load) in loads.iter().enumerate() {
            if load < best_load {
                best_load = load;
                best = CpuId(i as u32);
            }
        }
        (best, best_load)
    }

    /// The CPU the Place rule currently has a job on.
    pub fn cpu_of(&self, job: JobId) -> Option<CpuId> {
        self.jobs.get_by_id(job).map(|e| e.cpu)
    }

    /// The CPU the Place rule currently has the job at `slot` on.
    pub(crate) fn cpu_of_slot(&self, slot: JobSlot) -> Option<CpuId> {
        self.jobs.get(slot).map(|e| e.cpu)
    }

    /// The spec with `has_progress_metric` refreshed from the registry, so
    /// that attaching a queue at run time promotes a miscellaneous job to
    /// real-rate.
    fn effective_spec(&self, job: JobId, spec: JobSpec) -> JobSpec {
        spec.with_progress_metric(self.registry.has_attachments(job.key()))
    }

    /// Runs one control cycle at `now_s` (seconds) over a cycle length of
    /// `dt` seconds (non-positive falls back to the configured period) and
    /// returns a reference to the reused output buffers.
    ///
    /// Once the buffers have warmed up it performs no heap allocation.
    /// Usage feedback is taken from the sticky snapshots recorded via
    /// [`Controller::record_usage`] (full usage when none was ever
    /// recorded).
    ///
    /// The cycle recomputes only the jobs whose inputs changed and emits
    /// actuations only for jobs whose `(grant, period, cpu)` moved — unless
    /// it must rebuild its caches first (see
    /// [`ControllerConfig::incremental`]), when it recomputes and actuates
    /// every job.  A `dt` that is not bitwise-equal to the previous one
    /// forces a rebuild, so callers derive `dt` from integer ticks
    /// ([`crate::ControlLoop::cycle`] does): differences of accumulated
    /// floating-point timestamps jitter in the last ulp.
    pub fn control_cycle_with_dt(&mut self, now_s: f64, dt: f64) -> &ControlOutput {
        let dt = if dt > 0.0 {
            dt
        } else {
            self.config.controller_period_s
        };
        self.cycles += 1;
        let rebuild = self.needs_rebuild(dt);
        let mut laps = Laps::start(rebuild && self.stage_timing);
        if rebuild {
            self.full_cycles += 1;
            self.rebuild(dt, &mut laps);
        } else {
            self.incremental_cycles += 1;
        }
        self.cycle(now_s, dt, rebuild, &mut laps);
        if laps.mark.is_some() {
            self.last_stage_ns = laps.ns;
            for (total, n) in self.stage_total_ns.iter_mut().zip(laps.ns) {
                *total += n;
            }
        }
        &self.output
    }

    /// The last cycle's output, as [`Controller::control_cycle_with_dt`]
    /// returned it.
    pub(crate) fn output(&self) -> &ControlOutput {
        &self.output
    }

    /// Whether the next cycle must rebuild its caches first.
    fn needs_rebuild(&self, dt: f64) -> bool {
        !self.config.incremental
            || self.config.period_estimation
            || self.incr.structural_dirty
            || self.registry.version() != self.incr.registry_version
            || dt.to_bits() != self.incr.last_dt.to_bits()
    }

    /// Derives everything the cycle keeps between periods afresh from the
    /// job table and the registry — Sense: each job's queues and whether
    /// it has any; Classify: the real-time jobs' periods and grants, the
    /// per-CPU loads and the squishable jobs' squish rows.  Every slot is
    /// left marked and the squish due, so the cycle that follows
    /// recomputes and regrants every job.
    fn rebuild(&mut self, dt: f64, laps: &mut Laps) {
        let Self {
            config,
            registry,
            jobs,
            loads,
            incr,
            ..
        } = self;
        incr.registry_version = registry.version();
        incr.sense.resolve(registry, jobs);
        laps.lap(0);

        let dense_len = jobs.dense_len();
        incr.dirty.reset(dense_len);
        incr.real_rate.reset(dense_len);
        incr.row_of.clear();
        incr.row_of.resize(dense_len, u32::MAX);
        incr.request_slots.clear();
        loads.clear();
        let mut fixed_total_ppt = 0;
        for (slot, _, entry) in jobs.iter_mut() {
            let index = slot.index();
            incr.dirty.insert(index);
            match entry.class() {
                JobClass::RealTime | JobClass::AperiodicRealTime => {
                    let p = entry
                        .spec
                        .proportion
                        .expect("a reservation has a proportion");
                    entry.granted = p;
                    entry.period = entry.spec.period.unwrap_or(Period::DEFAULT);
                    fixed_total_ppt += p.ppt();
                }
                class => {
                    if class == JobClass::RealRate {
                        incr.real_rate.insert(index);
                    }
                    incr.row_of[index] = incr.request_slots.len() as u32;
                    incr.request_slots.push(slot);
                }
            }
            loads.shift(entry, true);
        }
        // The machine's capacity is `overload_threshold × CPUs`: on the
        // paper's single CPU exactly the original threshold.  The rows'
        // desires are placeholders the cycle overwrites.
        let capacity_ppt = OVERLOAD_THRESHOLD_PPT * config.placement.cpu_count() as u32;
        let floor = config.min_proportion;
        incr.columns.rebuild(
            capacity_ppt.saturating_sub(fixed_total_ppt),
            incr.request_slots.iter().map(|&slot| {
                let entry = jobs.get(slot).expect("request slot is live");
                let request = SquishRequest {
                    desired: Proportion::ZERO,
                    importance: entry.spec.importance,
                    floor,
                };
                (request, entry.granted)
            }),
        );
        debug_assert!(incr.held_mirrors(jobs), "a rebuilt held grant diverged");
        incr.last_dt = dt;
        incr.structural_dirty = false;
        laps.lap(1);
    }

    /// One pass of the loop, at a cost that follows the jobs whose inputs
    /// changed rather than the population: recompute the marked slots
    /// (and the real-rate ones whose queues moved), re-squish only when
    /// some desired proportion moved and the squish columns cannot prove
    /// the grants unchanged, scan for a migration only when the per-CPU
    /// load gap exceeds the bound, and emit actuations only for jobs whose
    /// committed `(grant, period, cpu)` changed.
    ///
    /// After a `rebuild` every slot is marked, so the same pass recomputes
    /// and regrants every job, raises `Squished` whenever the machine is
    /// overloaded and actuates every job — fixed reservations first, then
    /// the adaptive ones, each in slot order.  Otherwise a job leaves the
    /// dirty set only after a recompute proved itself a bitwise no-op
    /// (`PressureState::fingerprint`), and every input a
    /// recompute reads either re-marks the slot when it changes (usage,
    /// committed grant), is re-sampled every cycle (a real-rate job's
    /// pressure) or forces a rebuild (cycle length, importance, spec,
    /// registry attachments): committed grants and placements evolve
    /// exactly as if every cycle rebuilt.
    fn cycle(&mut self, now_s: f64, dt: f64, rebuild: bool, laps: &mut Laps) {
        let Self {
            config,
            registry,
            estimator,
            dispatch_interval_us,
            jobs,
            loads,
            output,
            incr,
            ..
        } = self;
        output.actuations.clear();
        output.events.clear();
        incr.recomputed.clear();

        // Sense / classify / estimate, fused over the marked slots in slot
        // order.  Only real-rate jobs sample queues, through the
        // attachments the last rebuild resolved (they, like the cached
        // `has_metric`, are valid while the registry version is unchanged,
        // which `needs_rebuild` guarantees here).
        let mut desired_changed = rebuild;
        for w in 0..incr.dirty.word_count() {
            let mut pending = incr.dirty.word(w) | incr.real_rate.word(w);
            while pending != 0 {
                let index = w * 64 + pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let Some((_, job, entry)) = jobs.entry_at_mut(index) else {
                    continue;
                };
                let class = entry.class();
                if !class.is_squishable() {
                    // Fixed reservations cannot change between structural
                    // events, and those force a rebuild.
                    incr.dirty.remove(index);
                    continue;
                }
                let estimate_period = config.period_estimation && class == JobClass::RealRate;
                let summed = match class {
                    JobClass::RealRate => {
                        debug_assert!(
                            incr.sense.mirrors(registry, index, job.key()),
                            "{job}'s resolved metrics diverged from the registry"
                        );
                        let fills = if estimate_period {
                            incr.fills.clear();
                            Some(&mut incr.fills)
                        } else {
                            None
                        };
                        incr.sense.summed_pressure(index, fills)
                    }
                    _ => MISC_PRESSURE,
                };
                if !incr.dirty.contains(index)
                    && summed.to_bits() == entry.pressure.last_summed_pressure().to_bits()
                {
                    continue;
                }

                let before = entry.pressure.fingerprint();
                let (q, desired) =
                    entry.demand(&config.pid, estimator, summed, entry.usage.usage_ratio, dt);
                if estimate_period {
                    entry.estimate_period(&incr.fills, *dispatch_interval_us);
                } else if entry.spec.period.is_none() {
                    entry.period = Period::DEFAULT;
                }
                let row = incr.row_of[index];
                let same_desired = desired == incr.columns.desired(row as usize);
                if !same_desired {
                    desired_changed = true;
                    incr.columns.set_desired(row as usize, desired);
                }
                // The recompute was a bitwise no-op: repeating it with the
                // same inputs stays a no-op, so the job may be skipped
                // until an input changes.
                if same_desired && entry.pressure.fingerprint() == before {
                    incr.dirty.remove(index);
                } else {
                    incr.dirty.insert(index);
                }
                incr.recomputed.push((row, q));
            }
        }
        laps.lap(2);

        // Allocate (§3.3, "Responding to Overload"): the squish is a pure
        // function of (desires, importances, available); nothing changed
        // unless some desired moved.
        if desired_changed {
            if incr.columns.overloaded() {
                output.events.push(ControllerEvent::Squished {
                    desired_total_ppt: incr.columns.desired_total_ppt(),
                    available_ppt: incr.columns.available_ppt(),
                });
            }
            if let Some(moved) = incr.columns.regrant() {
                for &(row, grant) in moved {
                    let slot = incr.request_slots[row as usize];
                    let entry = jobs.get_mut(slot).expect("request slot is live");
                    let load = &mut loads.granted[entry.cpu.index()];
                    *load = *load - entry.granted.ppt() as u64 + grant.ppt() as u64;
                    entry.granted = grant;
                    // The grant is an input of the next recompute.
                    incr.dirty.insert(slot.index());
                    output.actuations.push(Actuation {
                        slot,
                        reservation: Reservation::new(grant, entry.period),
                        cpu: entry.cpu,
                    });
                }
                debug_assert!(incr.held_mirrors(jobs), "a regranted held grant diverged");
            }
        }
        laps.lap(3);

        // Place: the per-CPU loads are current; run the candidate scan only
        // when the imbalance bound is actually exceeded.
        if let Some((max_c, min_c, gap)) = pipeline::imbalance(&loads.granted, config) {
            let on_max = jobs.iter().filter_map(|(slot, job, entry)| {
                (entry.cpu.index() == max_c && entry.class().is_squishable())
                    .then_some(((slot, job), entry.granted))
            });
            if let Some((slot, job)) = pipeline::migrant(gap, on_max) {
                let entry = jobs.get_mut(slot).expect("candidate slot is live");
                let from = entry.cpu;
                let to = CpuId(min_c as u32);
                entry.cpu = to;
                let g = entry.granted.ppt() as u64;
                loads.granted[from.index()] -= g;
                loads.granted[to.index()] += g;
                output
                    .events
                    .push(ControllerEvent::Migrated { job, from, to });
                // Carry the new CPU on this cycle's actuation for the job,
                // patching the grant-change one if it exists.
                let reservation = Reservation::new(entry.granted, entry.period);
                match output.actuations.iter_mut().find(|a| a.slot == slot) {
                    Some(a) => a.cpu = to,
                    None => output.actuations.push(Actuation {
                        slot,
                        reservation,
                        cpu: to,
                    }),
                }
            }
        }
        laps.lap(4);

        // Actuate: quality exceptions for the jobs this cycle recomputed,
        // read off the squish columns.
        for &(row, q) in &incr.recomputed {
            let row = row as usize;
            let job = || {
                jobs.id_of(incr.request_slots[row])
                    .expect("request slot is live")
            };
            output.events.extend(pipeline::quality_exception(
                job,
                incr.columns.desired(row),
                incr.columns.held(row),
                q,
                now_s,
            ));
        }
        if rebuild {
            // Every job's reservation, fixed ones first; every slot stays
            // marked, so the next cycle recomputes every job once more.
            output.actuations.clear();
            for fixed in [true, false] {
                for (slot, _, entry) in jobs.iter() {
                    if entry.class().is_squishable() == fixed {
                        continue;
                    }
                    incr.dirty.insert(slot.index());
                    output.actuations.push(Actuation {
                        slot,
                        reservation: Reservation::new(entry.granted, entry.period),
                        cpu: entry.cpu,
                    });
                }
            }
        }
        output.total_granted_ppt = loads.granted_total_ppt() as u32;
        output.cost_us = config.cost_model.invocation_cost_us(jobs.len());
        laps.lap(5);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::squish::Importance;
    use proptest::prelude::*;

    impl ControlOutput {
        /// The actuation for the job at `slot`, if any.
        pub(crate) fn actuation_for(&self, slot: JobSlot) -> Option<Actuation> {
            self.actuations.iter().copied().find(|a| a.slot == slot)
        }

        /// The actuation for `job`, if any, in an output of `c`.
        pub(crate) fn actuation_for_job(&self, c: &Controller, job: JobId) -> Option<Actuation> {
            self.actuation_for(c.slot_of(job)?)
        }
    }
    use rrs_queue::{BoundedBuffer, Role};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn controller() -> (Controller, MetricRegistry) {
        let registry = MetricRegistry::new();
        let c = Controller::new(ControllerConfig::default(), registry.clone());
        (c, registry)
    }

    fn run_cycles(c: &mut Controller, n: usize, dt: f64) -> ControlOutput {
        for i in 1..=n {
            c.control_cycle_with_dt(i as f64 * dt, dt);
        }
        c.output.clone()
    }

    /// Asserts the live per-CPU load accumulators equal a recount over the
    /// job table — the scan `least_loaded_cpu` used to make per admission.
    fn assert_cpu_loads_current(c: &Controller) {
        let cpus = c.config.placement.cpu_count();
        let (mut granted, mut fixed) = (vec![0u64; cpus], vec![0u64; cpus]);
        for (_, _, e) in c.jobs.iter() {
            granted[e.cpu.index()] += e.granted.ppt() as u64;
            if !e.spec.classify().is_squishable() {
                fixed[e.cpu.index()] += e.spec.proportion.map_or(0, |p| p.ppt() as u64);
            }
        }
        assert_eq!(c.loads.granted, granted, "granted load per CPU");
        assert_eq!(c.loads.fixed, fixed, "fixed load per CPU");
        let total: u64 = c.jobs.iter().map(|(_, _, e)| e.granted.ppt() as u64).sum();
        assert_eq!(c.granted_total_ppt(), total, "granted total");
    }

    #[test]
    fn add_and_remove_jobs() {
        let (mut c, _reg) = controller();
        c.add_job(JobId(1), JobSpec::miscellaneous()).unwrap();
        assert_eq!(
            c.add_job(JobId(1), JobSpec::miscellaneous()),
            Err(AdmitError::Duplicate(JobId(1)))
        );
        assert_eq!(c.job_count(), 1);
        assert!(c.remove_job(JobId(1)));
        assert!(!c.remove_job(JobId(1)));
    }

    #[test]
    fn slots_resolve_both_ways_and_go_stale_on_removal() {
        let (mut c, _reg) = controller();
        let slot = c.add_job(JobId(7), JobSpec::miscellaneous()).unwrap();
        assert_eq!(c.slot_of(JobId(7)), Some(slot));
        assert_eq!(c.job_of(slot), Some(JobId(7)));
        assert!(c.jobs.get(slot).map(|e| e.granted).is_some());
        assert!(c.remove_slot(slot));
        assert_eq!(c.job_of(slot), None, "slot is stale after removal");
        assert!(!c.record_usage(slot, UsageSnapshot::default()));
        // The freed slot index is reused under a fresh generation.
        let next = c.add_job(JobId(8), JobSpec::miscellaneous()).unwrap();
        assert_eq!(next.index(), slot.index());
        assert_ne!(next, slot);
        assert_eq!(c.jobs.get(slot).map(|e| e.granted), None);
    }

    #[test]
    fn real_time_job_keeps_its_reservation() {
        let (mut c, _reg) = controller();
        let spec = JobSpec::real_time(Proportion::from_ppt(300), Period::from_millis(20));
        c.add_job(JobId(1), spec).unwrap();
        let out = run_cycles(&mut c, 5, 0.01);
        let a = out.actuation_for_job(&c, JobId(1)).unwrap();
        assert_eq!(a.reservation.proportion.ppt(), 300);
        assert_eq!(a.reservation.period, Period::from_millis(20));
        assert_eq!(c.job_class(JobId(1)), Some(JobClass::RealTime));
    }

    #[test]
    fn aperiodic_real_time_gets_default_period() {
        let (mut c, _reg) = controller();
        c.add_job(
            JobId(1),
            JobSpec::aperiodic_real_time(Proportion::from_ppt(200)),
        )
        .unwrap();
        let out = run_cycles(&mut c, 1, 0.01);
        let a = out.actuation_for_job(&c, JobId(1)).unwrap();
        assert_eq!(a.reservation.proportion.ppt(), 200);
        assert_eq!(a.reservation.period, Period::from_millis(30));
    }

    #[test]
    fn real_time_admission_control_rejects_oversubscription() {
        let (mut c, _reg) = controller();
        c.add_job(
            JobId(1),
            JobSpec::real_time(Proportion::from_ppt(800), Period::from_millis(10)),
        )
        .unwrap();
        let err = c
            .add_job(
                JobId(2),
                JobSpec::real_time(Proportion::from_ppt(300), Period::from_millis(10)),
            )
            .unwrap_err();
        assert!(matches!(err, AdmitError::Rejected { .. }));
        // A real-rate job is always admitted: it will be squished instead.
        c.add_job(JobId(3), JobSpec::real_rate()).unwrap();
    }

    #[test]
    fn consumer_of_full_queue_gains_allocation() {
        let (mut c, reg) = controller();
        let queue = Arc::new(BoundedBuffer::<u8>::new("q", 10));
        for i in 0..10 {
            queue.try_push(i).unwrap();
        }
        reg.register(JobKey(1), Role::Consumer, queue);
        c.add_job(JobId(1), JobSpec::real_rate()).unwrap();

        let first = run_cycles(&mut c, 1, 0.01);
        let later = run_cycles(&mut c, 30, 0.01);
        let p_first = first
            .actuation_for_job(&c, JobId(1))
            .unwrap()
            .reservation
            .proportion;
        let p_later = later
            .actuation_for_job(&c, JobId(1))
            .unwrap()
            .reservation
            .proportion;
        assert!(
            p_later.ppt() > p_first.ppt(),
            "allocation should grow under persistent positive pressure ({} -> {})",
            p_first.ppt(),
            p_later.ppt()
        );
    }

    #[test]
    fn producer_into_full_queue_loses_allocation() {
        let (mut c, reg) = controller();
        let queue = Arc::new(BoundedBuffer::<u8>::new("q", 10));
        for i in 0..10 {
            queue.try_push(i).unwrap();
        }
        reg.register(JobKey(1), Role::Producer, queue);
        c.add_job(JobId(1), JobSpec::real_rate()).unwrap();
        let out = run_cycles(&mut c, 30, 0.01);
        let p = out
            .actuation_for_job(&c, JobId(1))
            .unwrap()
            .reservation
            .proportion;
        assert_eq!(p, ControllerConfig::default().min_proportion);
    }

    #[test]
    fn balanced_queue_exerts_no_pressure() {
        let (mut c, reg) = controller();
        let queue = Arc::new(BoundedBuffer::<u8>::new("q", 10));
        for i in 0..5 {
            queue.try_push(i).unwrap();
        }
        reg.register(JobKey(1), Role::Consumer, queue);
        c.add_job(JobId(1), JobSpec::real_rate()).unwrap();
        let out = run_cycles(&mut c, 20, 0.01);
        let p = out
            .actuation_for_job(&c, JobId(1))
            .unwrap()
            .reservation
            .proportion;
        // No pressure: the allocation stays near the bottom.
        assert!(p.ppt() <= 50, "got {}", p.ppt());
    }

    #[test]
    fn miscellaneous_job_grows_until_squished() {
        let (mut c, _reg) = controller();
        c.add_job(JobId(1), JobSpec::miscellaneous()).unwrap();
        let out = run_cycles(&mut c, 200, 0.01);
        let p = out
            .actuation_for_job(&c, JobId(1))
            .unwrap()
            .reservation
            .proportion;
        // Alone on the machine it should end up with a large fraction,
        // bounded by the overload threshold.
        assert!(p.ppt() > 500, "got {}", p.ppt());
        assert!(p.ppt() <= OVERLOAD_THRESHOLD_PPT);
    }

    #[test]
    fn squish_event_raised_under_overload() {
        let (mut c, reg) = controller();
        // Two greedy jobs: a misc hog and a consumer of a full queue.
        c.add_job(JobId(1), JobSpec::miscellaneous()).unwrap();
        let queue = Arc::new(BoundedBuffer::<u8>::new("q", 4));
        for i in 0..4 {
            queue.try_push(i).unwrap();
        }
        reg.register(JobKey(2), Role::Consumer, queue);
        c.add_job(JobId(2), JobSpec::real_rate()).unwrap();

        let mut squished = false;
        let mut last_total = 0;
        for i in 1..=300 {
            let out = c.control_cycle_with_dt(i as f64 * 0.01, 0.01);
            last_total = out.total_granted_ppt;
            if out
                .events
                .iter()
                .any(|e| matches!(e, ControllerEvent::Squished { .. }))
            {
                squished = true;
            }
        }
        assert!(squished, "two greedy jobs must eventually oversubscribe");
        assert!(last_total <= OVERLOAD_THRESHOLD_PPT + 2);
    }

    #[test]
    fn real_time_reservation_is_never_squished() {
        let (mut c, _reg) = controller();
        c.add_job(
            JobId(1),
            JobSpec::real_time(Proportion::from_ppt(400), Period::from_millis(10)),
        )
        .unwrap();
        c.add_job(JobId(2), JobSpec::miscellaneous()).unwrap();
        c.add_job(JobId(3), JobSpec::miscellaneous()).unwrap();
        let out = run_cycles(&mut c, 300, 0.01);
        let rt = out
            .actuation_for_job(&c, JobId(1))
            .unwrap()
            .reservation
            .proportion;
        assert_eq!(rt.ppt(), 400);
        // The adaptive jobs share what is left under the threshold.
        let a = out
            .actuation_for_job(&c, JobId(2))
            .unwrap()
            .reservation
            .proportion;
        let b = out
            .actuation_for_job(&c, JobId(3))
            .unwrap()
            .reservation
            .proportion;
        assert!(a.ppt() + b.ppt() <= 950 - 400 + 2);
        assert!(a.ppt() > 0 && b.ppt() > 0);
    }

    #[test]
    fn importance_weights_the_squish() {
        let (mut c, _reg) = controller();
        c.add_job(
            JobId(1),
            JobSpec::miscellaneous().with_importance(Importance::new(4.0)),
        )
        .unwrap();
        c.add_job(
            JobId(2),
            JobSpec::miscellaneous().with_importance(Importance::new(1.0)),
        )
        .unwrap();
        let out = run_cycles(&mut c, 300, 0.01);
        let important = out
            .actuation_for_job(&c, JobId(1))
            .unwrap()
            .reservation
            .proportion;
        let normal = out
            .actuation_for_job(&c, JobId(2))
            .unwrap()
            .reservation
            .proportion;
        assert!(
            important.ppt() > normal.ppt(),
            "important {} should exceed normal {}",
            important.ppt(),
            normal.ppt()
        );
        assert!(normal.ppt() > 0, "less important job must not be starved");
    }

    #[test]
    fn quality_exception_raised_when_demand_cannot_be_met() {
        let registry = MetricRegistry::new();
        let mut c = Controller::new(ControllerConfig::default(), registry.clone());
        // Consumer of a permanently full queue (its producer is not CPU
        // limited), but an admitted reservation holds all of the CPU the
        // controller hands out but 200 ‰.
        let reserved = Proportion::from_ppt(OVERLOAD_THRESHOLD_PPT - 200);
        c.add_job(
            JobId(3),
            JobSpec::real_time(reserved, Period::from_millis(10)),
        )
        .unwrap();
        let queue = Arc::new(BoundedBuffer::<u8>::new("q", 4));
        for i in 0..4 {
            queue.try_push(i).unwrap();
        }
        registry.register(JobKey(1), Role::Consumer, queue);
        c.add_job(JobId(1), JobSpec::real_rate()).unwrap();
        c.add_job(JobId(2), JobSpec::miscellaneous()).unwrap();

        let mut saw_exception = false;
        for i in 1..=400 {
            let out = c.control_cycle_with_dt(i as f64 * 0.01, 0.01);
            if !out.quality_exceptions().is_empty() {
                saw_exception = true;
                let q = out.quality_exceptions()[0];
                assert_eq!(q.job, JobId(1));
                assert!(q.granted.ppt() < q.desired.ppt());
            }
        }
        assert!(saw_exception);
    }

    /// The period estimator is created by the first real-rate Estimate that
    /// reaches a job.  A miscellaneous job that gains a progress metric
    /// mid-run must decide its periods exactly as one whose estimator was
    /// there from admission: until then nothing would have been observed.
    #[test]
    fn a_late_period_estimator_decides_like_one_present_from_admission() {
        let run = |from_admission: bool| {
            let registry = MetricRegistry::new();
            let config = ControllerConfig {
                period_estimation: true,
                ..ControllerConfig::default()
            };
            let mut c = Controller::new(config, registry.clone());
            let slot = c.add_job(JobId(1), JobSpec::miscellaneous()).unwrap();
            if from_admission {
                c.jobs.get_mut(slot).unwrap().period_estimator =
                    Some(Box::new(crate::PeriodEstimator::with_defaults()));
            }
            let queue = Arc::new(BoundedBuffer::<u8>::new("q", 10));
            let mut periods = Vec::new();
            for i in 1..=160 {
                if i == 40 {
                    registry.register(JobKey(1), Role::Consumer, queue.clone());
                }
                // Swing the fill level from cycle to cycle so the jitter
                // branch has something to average.
                if i % 2 == 0 {
                    while queue.try_push(0).is_ok() {}
                } else {
                    queue.drain();
                }
                let out = c.control_cycle_with_dt(i as f64 * 0.01, 0.01).clone();
                periods.push(
                    out.actuation_for_job(&c, JobId(1))
                        .map(|a| a.reservation.period),
                );
                let created = c.jobs.get(slot).unwrap().period_estimator.is_some();
                assert_eq!(created, from_admission || i >= 40, "cycle {i}");
            }
            periods
        };
        let late = run(false);
        assert_eq!(late, run(true));
        let distinct: std::collections::BTreeSet<_> = late.iter().flatten().collect();
        assert!(distinct.len() > 1, "the heuristic moved the period");
    }

    #[test]
    fn usage_feedback_reclaims_unused_allocation() {
        let (mut c, reg) = controller();
        let queue = Arc::new(BoundedBuffer::<u8>::new("q", 4));
        for i in 0..4 {
            queue.try_push(i).unwrap();
        }
        reg.register(JobKey(1), Role::Consumer, queue);
        let slot = c.add_job(JobId(1), JobSpec::real_rate()).unwrap();

        // First grow the allocation with full usage (the default for a job
        // that has never reported).
        let mut grown = 0;
        for i in 1..=100 {
            grown = c
                .control_cycle_with_dt(i as f64 * 0.01, 0.01)
                .actuation_for(slot)
                .unwrap()
                .reservation
                .proportion
                .ppt();
        }
        // Now report that the job only uses 10 % of what it is given (for
        // example because the disk is the real bottleneck).
        c.record_usage(slot, UsageSnapshot { usage_ratio: 0.1 });
        let mut shrunk = grown;
        for i in 101..=200 {
            shrunk = c
                .control_cycle_with_dt(i as f64 * 0.01, 0.01)
                .actuation_for(slot)
                .unwrap()
                .reservation
                .proportion
                .ppt();
        }
        assert!(
            shrunk < grown,
            "allocation should shrink when unused ({grown} -> {shrunk})"
        );
    }

    #[test]
    fn usage_snapshots_are_sticky_until_overwritten() {
        let (mut c, _reg) = controller();
        let slot = c.add_job(JobId(1), JobSpec::miscellaneous()).unwrap();
        // Grow the allocation first.
        for i in 1..=50 {
            c.control_cycle_with_dt(i as f64 * 0.01, 0.01);
        }
        let grown = c.jobs.get(slot).map(|e| e.granted).unwrap().ppt();
        let reclaim = crate::estimator::RECLAIM_PPT;
        assert!(
            grown > 2 * reclaim + 1,
            "fixture needs headroom, got {grown}"
        );
        // A low-usage snapshot triggers a −C reclamation — and persists, so
        // the following cycle reclaims again without a fresh recording.
        c.record_usage(slot, UsageSnapshot { usage_ratio: 0.0 });
        c.control_cycle_with_dt(0.51, 0.01);
        assert_eq!(
            c.jobs.get(slot).map(|e| e.granted).unwrap().ppt(),
            grown - reclaim
        );
        c.control_cycle_with_dt(0.52, 0.01);
        assert_eq!(
            c.jobs.get(slot).map(|e| e.granted).unwrap().ppt(),
            grown - 2 * reclaim
        );
        // Overwriting the snapshot with full usage ends the reclamation:
        // under constant positive misc pressure the grant recovers.
        c.record_usage(slot, UsageSnapshot { usage_ratio: 1.0 });
        let floor = c.jobs.get(slot).map(|e| e.granted).unwrap().ppt();
        for i in 1..=30 {
            c.control_cycle_with_dt(0.52 + i as f64 * 0.01, 0.01);
        }
        assert!(
            c.jobs.get(slot).map(|e| e.granted).unwrap().ppt() >= floor,
            "full usage must stop the shrink ({floor} -> {})",
            c.jobs.get(slot).map(|e| e.granted).unwrap().ppt()
        );
    }

    #[test]
    fn metric_attachment_promotes_misc_job_to_real_rate() {
        let (mut c, reg) = controller();
        c.add_job(JobId(1), JobSpec::miscellaneous()).unwrap();
        assert_eq!(c.job_class(JobId(1)), Some(JobClass::Miscellaneous));
        let queue = Arc::new(BoundedBuffer::<u8>::new("q", 4));
        reg.register(JobKey(1), Role::Consumer, queue);
        assert_eq!(c.job_class(JobId(1)), Some(JobClass::RealRate));
    }

    #[test]
    fn multi_cpu_admission_fits_real_time_jobs_per_cpu() {
        let config = ControllerConfig::default().with_cpus(2);
        let registry = MetricRegistry::new();
        let mut c = Controller::new(config, registry);
        // Two 800 ‰ reservations: one per CPU.
        c.add_job(
            JobId(1),
            JobSpec::real_time(Proportion::from_ppt(800), Period::from_millis(10)),
        )
        .unwrap();
        c.add_job(
            JobId(2),
            JobSpec::real_time(Proportion::from_ppt(800), Period::from_millis(10)),
        )
        .unwrap();
        assert_ne!(c.cpu_of(JobId(1)), c.cpu_of(JobId(2)));
        // A third fits on neither CPU.
        let err = c
            .add_job(
                JobId(3),
                JobSpec::real_time(Proportion::from_ppt(800), Period::from_millis(10)),
            )
            .unwrap_err();
        assert!(matches!(err, AdmitError::Rejected { .. }));
        let slot = c.slot_of(JobId(1)).unwrap();
        assert_eq!(c.cpu_of_slot(slot), c.cpu_of(JobId(1)));
    }

    #[test]
    fn adaptive_jobs_spread_over_cpus_by_granted_load() {
        let config = ControllerConfig::default().with_cpus(2);
        let registry = MetricRegistry::new();
        let mut c = Controller::new(config, registry);
        c.add_job(JobId(1), JobSpec::miscellaneous()).unwrap();
        // Let job 1's grant grow so cpu0 carries real load.
        for i in 1..=100 {
            c.control_cycle_with_dt(i as f64 * 0.01, 0.01);
        }
        assert!(c.granted(JobId(1)).unwrap().ppt() > 100);
        // The newcomer lands on the other, empty CPU.
        c.add_job(JobId(2), JobSpec::miscellaneous()).unwrap();
        assert_ne!(c.cpu_of(JobId(1)), c.cpu_of(JobId(2)));
    }

    #[test]
    fn cpu_load_accumulators_follow_every_mutation() {
        for incremental in [false, true] {
            let config = ControllerConfig::default()
                .with_cpus(3)
                .with_incremental(incremental);
            let mut c = Controller::new(config, MetricRegistry::new());
            let mut other = Controller::new(config, MetricRegistry::new());
            let rt = JobSpec::real_time(Proportion::from_ppt(300), Period::from_millis(10));
            let mut now = 0.0;
            let mut cycle = |c: &mut Controller, n: usize| {
                for _ in 0..n {
                    now += 0.01;
                    c.control_cycle_with_dt(now, 0.01);
                    assert_cpu_loads_current(c);
                }
            };
            for i in 0..4 {
                c.add_job(JobId(i), rt).unwrap();
                assert_cpu_loads_current(&c);
            }
            // Four 300 ‰ reservations over three CPUs: least-loaded fit
            // with the lowest id winning ties.
            let placed: Vec<u32> = (0..4).map(|i| c.cpu_of(JobId(i)).unwrap().0).collect();
            assert_eq!(placed, vec![0, 1, 2, 0]);
            for i in 4..10 {
                c.add_job(JobId(i), JobSpec::miscellaneous()).unwrap();
                assert_cpu_loads_current(&c);
            }
            // Grants grow, squish and (on three CPUs) migrate.
            cycle(&mut c, 120);
            let slot = c.slot_of(JobId(5)).unwrap();
            c.record_usage(slot, UsageSnapshot { usage_ratio: 0.1 });
            cycle(&mut c, 20);
            assert!(c.remove_job(JobId(0)));
            assert_cpu_loads_current(&c);
            // Grow under the jobs, admit onto the empty CPU, let Place
            // spread the load.
            c.grow_cpus(4);
            assert_cpu_loads_current(&c);
            c.add_job(JobId(20), JobSpec::miscellaneous()).unwrap();
            assert_eq!(c.cpu_of(JobId(20)), Some(CpuId(3)));
            assert_cpu_loads_current(&c);
            cycle(&mut c, 5);
            // Cross-controller migration.
            let moved = c.extract_job(JobId(6)).unwrap();
            assert_cpu_loads_current(&c);
            other.inject_job(moved, CpuId(1)).unwrap();
            assert_cpu_loads_current(&other);
            cycle(&mut other, 3);
            cycle(&mut c, 3);
        }
    }

    #[test]
    fn inject_rejects_a_cpu_off_the_machine() {
        let config = ControllerConfig::default().with_cpus(2);
        let mut src = Controller::new(config, MetricRegistry::new());
        let mut dst = Controller::new(config, MetricRegistry::new());
        src.add_job(JobId(1), JobSpec::miscellaneous()).unwrap();
        let moved = src.extract_job(JobId(1)).unwrap();
        let err = dst.inject_job(moved, CpuId(2)).unwrap_err();
        assert_eq!(err, AdmitError::NoSuchCpu(CpuId(2)));
        assert_eq!(err.to_string(), "cpu2 is not on this machine");
        assert_eq!(dst.job_count(), 0);
        assert_cpu_loads_current(&dst);
        // The same job lands on a CPU the machine has.
        src.add_job(JobId(2), JobSpec::miscellaneous()).unwrap();
        let moved = src.extract_job(JobId(2)).unwrap();
        dst.inject_job(moved, CpuId(1)).unwrap();
        assert_eq!(dst.cpu_of(JobId(2)), Some(CpuId(1)));
        assert_cpu_loads_current(&dst);
    }

    #[test]
    fn multi_cpu_capacity_lets_two_hogs_saturate_two_cpus() {
        let config = ControllerConfig::default().with_cpus(2);
        let registry = MetricRegistry::new();
        let mut c = Controller::new(config, registry);
        c.add_job(JobId(1), JobSpec::miscellaneous()).unwrap();
        c.add_job(JobId(2), JobSpec::miscellaneous()).unwrap();
        let mut last = 0;
        for i in 1..=300 {
            last = c
                .control_cycle_with_dt(i as f64 * 0.01, 0.01)
                .total_granted_ppt;
        }
        // On one CPU the pair would be squished under 950 ‰; two CPUs let
        // both grow toward a full CPU each.
        assert!(
            last > 1200,
            "aggregate grant should exceed one CPU, got {last}"
        );
        assert!(c.cpu_of(JobId(1)).is_some());
    }

    #[test]
    fn cost_model_scales_with_job_count() {
        let (mut c, _reg) = controller();
        for i in 0..10 {
            c.add_job(JobId(i), JobSpec::miscellaneous()).unwrap();
        }
        let out = run_cycles(&mut c, 1, 0.01);
        let expected = ControllerConfig::default()
            .cost_model
            .invocation_cost_us(10);
        assert_eq!(out.cost_us, expected);
    }

    #[test]
    fn every_job_always_gets_nonzero_allocation() {
        let (mut c, _reg) = controller();
        for i in 0..20 {
            c.add_job(JobId(i), JobSpec::miscellaneous()).unwrap();
        }
        let out = run_cycles(&mut c, 100, 0.01);
        for a in &out.actuations {
            assert!(a.reservation.proportion.ppt() >= 1);
        }
    }

    /// A NaN PID limit means "no clamp" (`f64::clamp` with NaN bounds
    /// panics): a controller configured with both limits NaN cycles, and
    /// its jobs' pressure drives their grants exactly as with the limits
    /// at infinity.
    #[test]
    fn nan_pid_limits_do_not_clamp() {
        let grants = |limit: f64| {
            let mut config = ControllerConfig::default();
            config.pid.integral_limit = limit;
            config.pid.output_limit = limit;
            let registry = MetricRegistry::new();
            let queue = Arc::new(BoundedBuffer::<u8>::new("q", 4));
            for i in 0..4 {
                queue.try_push(i).unwrap();
            }
            registry.register(JobKey(1), Role::Consumer, queue);
            let mut c = Controller::new(config, registry);
            c.add_job(JobId(1), JobSpec::real_rate()).unwrap();
            c.add_job(JobId(2), JobSpec::miscellaneous()).unwrap();
            (1..=50)
                .map(|i| {
                    let out = c.control_cycle_with_dt(i as f64 * 0.01, 0.01);
                    out.total_granted_ppt
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(grants(f64::NAN), grants(f64::INFINITY));
    }

    /// A rebuild cycle actuates every job, so the output buffer holds one
    /// actuation per job at its high-water mark: the job it is for is its
    /// slot's (`Controller::job_of`), not a copy in each row.
    #[test]
    fn layout_budget() {
        assert!(std::mem::size_of::<Actuation>() <= 32);
    }

    #[test]
    fn output_helpers() {
        let (mut c, _reg) = controller();
        c.add_job(JobId(5), JobSpec::miscellaneous()).unwrap();
        let out = run_cycles(&mut c, 1, 0.01);
        assert!(out.actuation_for_job(&c, JobId(5)).is_some());
        assert!(out.actuation_for_job(&c, JobId(99)).is_none());
        assert!(out.quality_exceptions().is_empty());
        assert_eq!(c.cycles(), 1);
        assert_eq!(c.slot_of(JobId(5)).map(|s| s.index()), Some(0));
        assert!(c.granted(JobId(5)).unwrap().ppt() > 0);
    }

    #[test]
    fn in_place_cycle_reuses_output_buffers() {
        let (mut c, _reg) = controller();
        for i in 0..8 {
            c.add_job(JobId(i), JobSpec::miscellaneous()).unwrap();
        }
        // Warm up, then capture buffer capacities.
        for i in 1..=50 {
            c.control_cycle_with_dt(i as f64 * 0.01, 0.01);
        }
        let caps = {
            let out = c.control_cycle_with_dt(0.51, 0.01);
            (out.actuations.capacity(), out.events.capacity())
        };
        for i in 52..=300 {
            let out = c.control_cycle_with_dt(i as f64 * 0.01, 0.01);
            assert_eq!(out.actuations.len(), 8);
            assert_eq!(
                (out.actuations.capacity(), out.events.capacity()),
                caps,
                "steady-state cycles must not reallocate the output"
            );
        }
    }

    #[test]
    fn incremental_cycles_match_full_and_go_quiet_at_the_fixed_point() {
        let registry_full = MetricRegistry::new();
        let registry_incr = MetricRegistry::new();
        let mut full = Controller::new(ControllerConfig::default(), registry_full);
        let mut incr = Controller::new(
            ControllerConfig::default().with_incremental(true),
            registry_incr,
        );
        for i in 0..4 {
            full.add_job(JobId(i), JobSpec::miscellaneous()).unwrap();
            incr.add_job(JobId(i), JobSpec::miscellaneous()).unwrap();
        }
        // Step both on an exact grid (dt bitwise-stable) until the misc
        // jobs' PID integrals clamp and the population reaches its fixed
        // point.  Committed state must agree every single cycle.
        let dt = 0.01;
        for i in 1..=900u32 {
            let now = i as f64 * dt;
            let a = full.control_cycle_with_dt(now, dt).total_granted_ppt;
            let b = incr.control_cycle_with_dt(now, dt).total_granted_ppt;
            assert_eq!(a, b, "granted totals diverged at cycle {i}");
            for j in 0..4 {
                assert_eq!(
                    full.granted(JobId(j)),
                    incr.granted(JobId(j)),
                    "grant for job {j} diverged at cycle {i}"
                );
            }
        }
        // At the fixed point the rebuilding controller still re-emits every
        // actuation, while the maintained one emits none (and costs the same by the
        // model, which charges per managed job).
        let out_full = full.control_cycle_with_dt(9.01, dt).clone();
        let out_incr = incr.control_cycle_with_dt(9.01, dt).clone();
        assert_eq!(out_full.actuations.len(), 4);
        assert_eq!(
            out_incr.actuations.len(),
            0,
            "a settled population must emit no actuations"
        );
        assert_eq!(out_full.total_granted_ppt, out_incr.total_granted_ppt);
        assert_eq!(out_full.cost_us, out_incr.cost_us);
        // A structural change snaps the incremental controller back to a
        // rebuild (all-actuations) cycle.
        incr.add_job(JobId(99), JobSpec::miscellaneous()).unwrap();
        let out = incr.control_cycle_with_dt(9.02, dt);
        assert_eq!(out.actuations.len(), 5);
    }

    #[test]
    fn incremental_usage_feedback_matches_full() {
        let mut full = Controller::new(ControllerConfig::default(), MetricRegistry::new());
        let mut incr = Controller::new(
            ControllerConfig::default().with_incremental(true),
            MetricRegistry::new(),
        );
        let sf = full.add_job(JobId(1), JobSpec::miscellaneous()).unwrap();
        let si = incr.add_job(JobId(1), JobSpec::miscellaneous()).unwrap();
        let dt = 0.01;
        let mut cycle = 0u32;
        let mut step = |full: &mut Controller, incr: &mut Controller| {
            cycle += 1;
            let now = cycle as f64 * dt;
            let a = full.control_cycle_with_dt(now, dt).total_granted_ppt;
            let b = incr.control_cycle_with_dt(now, dt).total_granted_ppt;
            assert_eq!(a, b, "diverged at cycle {cycle}");
        };
        for _ in 0..60 {
            step(&mut full, &mut incr);
        }
        // Sticky low usage shrinks both controllers identically...
        full.record_usage(sf, UsageSnapshot { usage_ratio: 0.0 });
        incr.record_usage(si, UsageSnapshot { usage_ratio: 0.0 });
        for _ in 0..10 {
            step(&mut full, &mut incr);
        }
        // ...and full usage lets both recover identically.
        full.record_usage(sf, UsageSnapshot { usage_ratio: 1.0 });
        incr.record_usage(si, UsageSnapshot { usage_ratio: 1.0 });
        for _ in 0..60 {
            step(&mut full, &mut incr);
        }
        assert_eq!(full.granted(JobId(1)), incr.granted(JobId(1)));
    }

    /// A maintained cycle samples the metrics the last rebuild resolved,
    /// not the registry — and must sum them to the registry's value bit
    /// for bit, because its skip test compares `to_bits()`.  A producer at
    /// exactly half fill contributes `−1 · 0 = −0.0`: two of them sum to
    /// `−0.0` under `Iterator::sum` (the registry's fold) but to `+0.0`
    /// under `0.0 + …`.
    #[test]
    fn resolved_sense_is_bit_identical_to_the_registrys() {
        let registry = MetricRegistry::new();
        let mut c = Controller::new(
            ControllerConfig::default().with_incremental(true),
            registry.clone(),
        );
        let half = Arc::new(BoundedBuffer::<u8>::new("half", 4));
        let other = Arc::new(BoundedBuffer::<u8>::new("other", 6));
        for i in 0..2 {
            half.try_push(i).unwrap();
        }
        registry.register(JobKey(1), Role::Producer, half);
        registry.register(JobKey(1), Role::Producer, other.clone());
        let slot = c.add_job(JobId(1), JobSpec::real_rate()).unwrap();
        let sensed = |c: &Controller| {
            let resolved = c.incr.sense.summed_pressure(slot.index(), None);
            let expected = registry.summed_pressure(JobKey(1)).unwrap();
            assert_eq!(
                resolved.to_bits(),
                expected.to_bits(),
                "{resolved} vs {expected}"
            );
            resolved
        };
        // The first cycle rebuilds; walk the second queue through every
        // level on maintained cycles, crossing half fill both ways.
        let levels = [3, 0, 1, 2, 3, 4, 5, 6, 3];
        for (i, level) in levels.into_iter().enumerate() {
            other.drain();
            for _ in 0..level {
                other.try_push(0).unwrap();
            }
            c.control_cycle_with_dt((i + 1) as f64 * 0.01, 0.01);
            let summed = sensed(&c);
            if level == 3 {
                assert_eq!(summed.to_bits(), (-0.0f64).to_bits());
            }
            // The job is never skipped here (the sample moved, or its
            // PID state did), so the cycle recorded what it sensed.
            if i > 0 {
                let entry = c.jobs.get(slot).unwrap();
                assert_eq!(
                    entry.pressure.last_summed_pressure().to_bits(),
                    summed.to_bits()
                );
            }
        }
        assert_eq!(c.cycle_counts(), (1, levels.len() as u64 - 1));
    }

    proptest! {
        /// The incremental controller against the rebuild-every-cycle
        /// reference: the same operation sequence drives one of each on a
        /// two-CPU machine, and after every paired cycle the committed
        /// state (grants, placements, totals) must match exactly, as must
        /// the state reconstructed by *applying* each side's emitted
        /// actuations (the incremental side's changed-only stream must
        /// suffice to track the full side's every-cycle stream).
        ///
        /// Real-rate jobs attach to one or both of two queues, in either
        /// order, so the incremental side's resolved sense sums one- and
        /// two-term lists in registration order.
        ///
        /// Ops are `(selector, id, ratio_sel, flag)` tuples because the
        /// vendored proptest miniature has no `prop_oneof`; selectors 7–9
        /// all run a paired cycle so the comparison dominates the mix.
        #[test]
        fn incremental_matches_full_under_arbitrary_ops(
            ops in proptest::collection::vec(
                (0u8..10, 0u64..6, 0u8..4, proptest::bool::ANY),
                1..120,
            ),
        ) {
            let registry = MetricRegistry::new();
            let queues = [
                Arc::new(BoundedBuffer::<u8>::new("pq", 8)),
                Arc::new(BoundedBuffer::<u8>::new("pq2", 6)),
            ];
            let mut full = Controller::new(
                ControllerConfig::default().with_cpus(2),
                registry.clone(),
            );
            let mut incr = Controller::new(
                ControllerConfig::default().with_cpus(2).with_incremental(true),
                registry.clone(),
            );
            let mut mirror_full: BTreeMap<JobId, (Reservation, CpuId)> = BTreeMap::new();
            let mut mirror_incr: BTreeMap<JobId, (Reservation, CpuId)> = BTreeMap::new();
            let mut now = 0.0f64;
            for (op, i, ratio_sel, flag) in ops {
                let job = JobId(i);
                match op {
                    0 => {
                        let a = full.add_job(job, JobSpec::miscellaneous());
                        let b = incr.add_job(job, JobSpec::miscellaneous());
                        prop_assert_eq!(a.is_ok(), b.is_ok());
                    }
                    1 => {
                        // A real-rate job on the shared queues: `ratio_sel`
                        // picks the first, the second, or both in either
                        // order, `flag` its role on the first it attaches
                        // to (the other role on a second).  Both
                        // controllers read the same registry, so they
                        // sense identical pressures.
                        let a = full.add_job(job, JobSpec::real_rate());
                        let b = incr.add_job(job, JobSpec::real_rate());
                        prop_assert_eq!(a.is_ok(), b.is_ok());
                        if a.is_ok() {
                            let order: &[usize] = match ratio_sel {
                                0 => &[0],
                                1 => &[1],
                                2 => &[0, 1],
                                _ => &[1, 0],
                            };
                            for (k, &q) in order.iter().enumerate() {
                                let role = if flag == (k == 0) {
                                    Role::Producer
                                } else {
                                    Role::Consumer
                                };
                                registry.register(job.key(), role, queues[q].clone());
                            }
                        }
                    }
                    2 => {
                        let spec = JobSpec::real_time(
                            Proportion::from_ppt(150),
                            Period::from_millis(10 + i),
                        );
                        let a = full.add_job(job, spec);
                        let b = incr.add_job(job, spec);
                        prop_assert_eq!(a.is_ok(), b.is_ok());
                    }
                    3 => {
                        let a = full.remove_job(job);
                        let b = incr.remove_job(job);
                        prop_assert_eq!(a, b);
                        mirror_full.remove(&job);
                        mirror_incr.remove(&job);
                    }
                    4 => {
                        let ratio = [0.0, 0.3, 0.6, 1.0][ratio_sel as usize];
                        let snap = UsageSnapshot { usage_ratio: ratio };
                        if let Some(slot) = full.slot_of(job) {
                            full.record_usage(slot, snap);
                        }
                        if let Some(slot) = incr.slot_of(job) {
                            incr.record_usage(slot, snap);
                        }
                    }
                    5 => {
                        let _ = queues[flag as usize].try_push(0);
                    }
                    6 => {
                        let _ = queues[flag as usize].try_pop();
                    }
                    _ => {
                        let dt = if flag { 0.01 } else { 0.02 };
                        now += dt;
                        let out_full = full.control_cycle_with_dt(now, dt).clone();
                        let out_incr = incr.control_cycle_with_dt(now, dt).clone();
                        for a in &out_full.actuations {
                            mirror_full.insert(full.job_of(a.slot).unwrap(), (a.reservation, a.cpu));
                        }
                        for a in &out_incr.actuations {
                            mirror_incr.insert(incr.job_of(a.slot).unwrap(), (a.reservation, a.cpu));
                        }
                        prop_assert_eq!(
                            out_full.total_granted_ppt, out_incr.total_granted_ppt,
                            "granted totals diverged"
                        );
                        prop_assert_eq!(out_full.cost_us, out_incr.cost_us);
                        for job in (0..6).map(JobId) {
                            prop_assert_eq!(full.granted(job), incr.granted(job));
                            prop_assert_eq!(full.cpu_of(job), incr.cpu_of(job));
                        }
                        prop_assert_eq!(
                            &mirror_full, &mirror_incr,
                            "actuation-applied reservations diverged"
                        );
                    }
                }
                assert_cpu_loads_current(&full);
                assert_cpu_loads_current(&incr);
            }
        }
    }
}
