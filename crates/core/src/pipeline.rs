//! The staged control-plane pipeline.
//!
//! One controller period flows through six explicit stages, each a named
//! function over a shared, reusable `CycleContext`:
//!
//! 1. **sense** — sample every job's progress metrics (fill levels, signed
//!    pressure) and dispatcher usage feedback into dense cycle records;
//! 2. **classify** — derive each job's effective Figure 2 class from its
//!    spec plus the sensed metric visibility, and fix reserved jobs'
//!    proportions and periods;
//! 3. **estimate** — run the per-job PID pressure function (Figure 3) and
//!    the proportion estimator (Figure 4) for adaptive jobs, including the
//!    usage-based reclamation branch and optional period estimation;
//! 4. **allocate** — detect overload against the machine-wide admission
//!    threshold (`threshold × CPUs`) and squish adaptive allocations by
//!    the configured policy (§3.3);
//! 5. **place** — assign each job a CPU: keep the placement the job
//!    already has, pull jobs that fell off a shrunken machine back on,
//!    and migrate one squishable job per cycle from the most to the
//!    least loaded CPU when the imbalance exceeds the configured bound
//!    (a no-op on the paper's single CPU);
//! 6. **actuate** — commit grants and placements to the job table and
//!    emit the reservation actuations, squish/migration events and
//!    quality exceptions.
//!
//! Every buffer the stages touch lives in the `CycleContext` (or the
//! reused [`crate::ControlOutput`]), so a warmed-up steady-state cycle
//! performs **no heap allocation** and runs in `O(jobs + attachments)`
//! with cache-friendly linear scans over the slot table.  The stages only
//! communicate through the context, which keeps them independently
//! testable and swappable.
//!
//! What the stages decide for one job or one machine — `JobEntry::demand`
//! (Figures 3–4 with the reclaim damping), `imbalance` and `migrant`
//! (the Place rule), `quality_exception` — are kernels of their own:
//! the incremental cycle (`Controller::incremental_cycle`) calls the same
//! ones and differs from the staged cycle only in what it walks (its dirty
//! set, its squish columns, the changed grants).

use crate::config::ControllerConfig;
use crate::controller::{Actuation, ControlOutput, JobId, UsageSnapshot};
use crate::estimator::ProportionEstimator;
use crate::events::{ControllerEvent, QualityException};
use crate::period::{PeriodEstimator, PeriodEstimatorConfig};
use crate::pressure::PressureEstimator;
use crate::slot::{JobSlot, SlotTable};
use crate::squish::{squish_into, Importance, SquishRequest, SquishScratch};
use crate::taxonomy::{JobClass, JobSpec};
use rrs_queue::{Attachment, JobKey, MetricRegistry};
use rrs_scheduler::{CpuId, Period, Proportion, Reservation};

/// Per-job controller state: the payload of the controller's slot table.
#[derive(Debug)]
pub(crate) struct JobEntry {
    pub(crate) spec: JobSpec,
    pub(crate) importance: Importance,
    pub(crate) pressure: PressureEstimator,
    /// The §3.3 period heuristic's state, out of line and created by the
    /// first real-rate Estimate that reaches the job with period
    /// estimation on: every other job (all of them, in the paper's
    /// configuration) would carry its 128 bytes and heap-allocated window
    /// through each cycle's cache without ever reading them.  A fresh
    /// estimator has seen nothing, so creating it late decides the same.
    pub(crate) period_estimator: Option<Box<PeriodEstimator>>,
    pub(crate) period: Period,
    pub(crate) granted: Proportion,
    /// The CPU the Place stage has the job on.
    pub(crate) cpu: CpuId,
    /// Usage feedback most recently recorded.  Sticky: it persists until
    /// the caller overwrites it, so a job that stops reporting keeps its
    /// last known ratio.
    pub(crate) usage: UsageSnapshot,
    /// Incremental cache: whether the registry exposed a progress metric
    /// for this job at the last full cycle (valid while the registry
    /// version is unchanged).
    pub(crate) has_metric: bool,
}

/// The controller's dense per-job working state for one cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CycleRecord {
    pub(crate) slot: JobSlot,
    pub(crate) job: JobId,
    /// Sense: `true` if the registry exposes a progress metric for the job.
    pub(crate) has_metric: bool,
    /// Sense: summed signed pressure `Σ_i R_{t,i}·F_{t,i}`, if sensed.
    pub(crate) summed_pressure: Option<f64>,
    /// Sense: fraction of the last allocation the job actually used.
    pub(crate) usage_ratio: f64,
    /// Sense: this job's span inside [`CycleContext::fills`].
    fills_start: u32,
    fills_len: u32,
    /// Classify: the effective class this cycle.
    pub(crate) class: JobClass,
    /// Classify: importance weight (copied out so Allocate needs no table).
    pub(crate) importance: Importance,
    /// Estimate: cumulative progress pressure `Q_t` (adaptive jobs).
    pub(crate) pressure_q: f64,
    /// Classify (fixed) / Estimate (adaptive): desired proportion.
    pub(crate) desired: Proportion,
    /// Classify (fixed) / Estimate (adaptive): period to actuate.
    pub(crate) period: Period,
    /// Place: the grant this cycle settled on (desired for fixed jobs,
    /// the squish result for adaptive ones).
    pub(crate) granted: Proportion,
    /// Place: the CPU the job runs on this cycle.
    pub(crate) cpu: CpuId,
}

/// Reusable scratch shared by the pipeline stages.
///
/// All vectors are cleared — never shrunk — between cycles, so their
/// capacity warms up to the live job count and stays there.
#[derive(Debug, Default)]
pub(crate) struct CycleContext {
    /// Controller time at the start of the cycle, in seconds.
    now_s: f64,
    /// Seconds elapsed since the previous cycle.
    dt: f64,
    pub(crate) records: Vec<CycleRecord>,
    /// Flat pool of fill-level samples; records index into it.
    pub(crate) fills: Vec<f64>,
    /// Indices into `records` of the squishable (adaptive) jobs.
    pub(crate) adaptive: Vec<u32>,
    pub(crate) requests: Vec<SquishRequest>,
    pub(crate) granted: Vec<Proportion>,
    squish_scratch: SquishScratch,
    pub(crate) fixed_total_ppt: u32,
    pub(crate) available_ppt: u32,
    pub(crate) desired_total_ppt: u64,
    pub(crate) squished: bool,
    /// Committed granted load per CPU, in parts per thousand.  Unlike the
    /// scratch above this (and `cpu_fixed_load`) is live between cycles:
    /// the Place stage recounts it, and the controller adjusts it on every
    /// admission, removal, incremental grant change and migration, so
    /// admission reads the least-loaded CPU without scanning the jobs.
    pub(crate) cpu_load: Vec<u64>,
    /// Fixed (real-time) reservations per CPU, in parts per thousand.
    pub(crate) cpu_fixed_load: Vec<u64>,
    /// Committed grants of jobs placed on a CPU outside the machine (after
    /// a shrink, until the Place stage pulls them back): in no CPU's load,
    /// but still part of the controller's granted total.
    pub(crate) off_machine_load: u64,
    /// Place: the migrations decided this cycle (at most one).
    pub(crate) migrations: Vec<(JobId, CpuId, CpuId)>,
}

impl CycleContext {
    /// Creates an empty context.
    pub fn new() -> Self {
        let mut ctx = Self::default();
        // The Place stage decides at most one migration per cycle; holding
        // the slot up front keeps the first-ever migration from allocating
        // inside a steady-state cycle.
        ctx.migrations.reserve(1);
        ctx
    }

    /// Begins a cycle: stores the clock and resets per-cycle accumulators.
    pub(crate) fn begin(&mut self, now_s: f64, dt: f64) {
        self.now_s = now_s;
        self.dt = dt;
        self.records.clear();
        self.fills.clear();
        self.adaptive.clear();
        self.requests.clear();
        self.granted.clear();
        self.migrations.clear();
        self.fixed_total_ppt = 0;
        self.available_ppt = 0;
        self.desired_total_ppt = 0;
        self.squished = false;
    }

    /// Zeroes the per-CPU loads over `cpus` CPUs.
    pub(crate) fn reset_cpu_loads(&mut self, cpus: usize) {
        for loads in [&mut self.cpu_load, &mut self.cpu_fixed_load] {
            loads.clear();
            loads.resize(cpus, 0);
        }
        self.off_machine_load = 0;
    }

    /// Adds a job's committed grant and, for a fixed reservation, its
    /// proportion to its CPU's loads (`add`), or takes them off again.  A
    /// job on a CPU outside the machine loads no CPU.
    pub(crate) fn shift_cpu_load(&mut self, entry: &JobEntry, add: bool) {
        let cpu = entry.cpu.index();
        let granted = entry.granted.ppt() as u64;
        if cpu >= self.cpu_load.len() {
            if add {
                self.off_machine_load += granted;
            } else {
                self.off_machine_load -= granted;
            }
            return;
        }
        let fixed = if entry.spec.classify().is_squishable() {
            0
        } else {
            entry.spec.proportion.map_or(0, |p| p.ppt() as u64)
        };
        if add {
            self.cpu_load[cpu] += granted;
            self.cpu_fixed_load[cpu] += fixed;
        } else {
            self.cpu_load[cpu] -= granted;
            self.cpu_fixed_load[cpu] -= fixed;
        }
    }

    /// Sum of every job's committed grant, in parts per thousand, read off
    /// the per-CPU accumulators.
    pub(crate) fn granted_total_ppt(&self) -> u64 {
        self.cpu_load.iter().sum::<u64>() + self.off_machine_load
    }
}

pub(crate) type JobTable = SlotTable<JobId, JobEntry>;

/// Every job's attachments as one full Sense found them in the registry,
/// each job's in registration order.  Valid while the registry version is
/// unchanged; the incremental cycle samples them directly instead of
/// taking the registry's lock and looking the job up again every cycle.
#[derive(Debug, Default)]
pub(crate) struct ResolvedSense {
    /// The jobs' attachments, concatenated in slot order.
    attachments: Vec<Attachment>,
    /// Slot index → `(start, len)` of its attachments, up to the last slot
    /// that has any.
    span: Vec<(u32, u32)>,
}

impl ResolvedSense {
    fn of(&self, index: usize) -> &[Attachment] {
        let (start, len) = self.span[index];
        &self.attachments[start as usize..][..len as usize]
    }

    /// The summed signed pressure `Σ_i R_{t,i}·F_{t,i}` of the job at slot
    /// `index`, folded exactly as [`MetricRegistry::summed_pressure`] folds
    /// it: `Iterator::sum` over the same terms in the same order, so the
    /// result is bit-identical — a job whose terms are all `−0.0` sums to
    /// `−0.0`, where `0.0 + …` would give `+0.0`.
    pub(crate) fn summed_pressure(&self, index: usize) -> f64 {
        self.of(index)
            .iter()
            .map(|a| a.role.sign() * a.sample().centered())
            .sum()
    }

    /// Whether the attachments resolved for `index` are still exactly
    /// `job`'s in the registry, in order.  With the shared fold that makes
    /// the two sums equal bit for bit, without sampling a live queue twice.
    pub(crate) fn mirrors(&self, registry: &MetricRegistry, index: usize, job: JobKey) -> bool {
        let mut resolved = self.of(index).iter();
        let mut same = true;
        registry.for_each_attachment(job, |a| {
            same &= resolved.next().is_some_and(|r| r.id == a.id);
        });
        same && resolved.next().is_none()
    }
}

/// Stage 1 — **Sense**: samples the registry's progress metrics and the
/// per-job usage feedback into dense [`CycleRecord`]s.
///
/// Each attachment is sampled exactly once; the sample feeds both the
/// summed signed pressure (Figure 3) and, when period estimation is on,
/// the fill pool the Estimate stage replays into the period estimator.
/// Given `resolved`, the stage also rebuilds it from the attachments it
/// visits.  Usage snapshots are sticky: the stage reads whatever was most
/// recently recorded and leaves it in place, so a job that stops
/// reporting keeps its last known ratio until the caller overwrites it.
pub(crate) fn sense(
    registry: &MetricRegistry,
    jobs: &mut JobTable,
    collect_fills: bool,
    mut resolved: Option<&mut ResolvedSense>,
    ctx: &mut CycleContext,
) {
    if let Some(r) = resolved.as_deref_mut() {
        r.attachments.clear();
        r.span.clear();
    }
    for (slot, job, entry) in jobs.iter_mut() {
        let fills_start = ctx.fills.len() as u32;
        let mut any = false;
        let mut sum = 0.0;
        let fills = &mut ctx.fills;
        let start = resolved.as_ref().map_or(0, |r| r.attachments.len() as u32);
        registry.for_each_attachment(job.key(), |a| {
            any = true;
            let sample = a.sample();
            sum += a.role.sign() * sample.centered();
            if collect_fills {
                fills.push(sample.fraction());
            }
            if let Some(r) = resolved.as_deref_mut() {
                r.attachments.push(a.clone());
            }
        });
        if let Some(r) = resolved.as_deref_mut().filter(|_| any) {
            // Grown only as far as the last job with a metric: a population
            // without queues keeps no per-slot table.
            let index = slot.index();
            if r.span.len() <= index {
                r.span.resize(index + 1, (0, 0));
            }
            r.span[index] = (start, r.attachments.len() as u32 - start);
        }
        let usage_ratio = entry.usage.usage_ratio;
        ctx.records.push(CycleRecord {
            slot,
            job,
            has_metric: any,
            summed_pressure: if any { Some(sum) } else { None },
            usage_ratio,
            fills_start,
            fills_len: ctx.fills.len() as u32 - fills_start,
            // Placeholders; later stages overwrite these.
            class: JobClass::Miscellaneous,
            importance: entry.importance,
            pressure_q: 0.0,
            desired: Proportion::ZERO,
            period: entry.period,
            granted: Proportion::ZERO,
            cpu: entry.cpu,
        });
    }
}

/// Stage 2 — **Classify**: derives each job's effective Figure 2 class
/// from its spec plus the sensed metric visibility.
///
/// Attaching a queue at run time promotes a miscellaneous job to
/// real-rate, and vice versa.  Real-time and aperiodic real-time jobs get
/// their reserved proportion and period fixed here and contribute to the
/// cycle's fixed total; squishable jobs are queued for the Estimate stage.
pub(crate) fn classify(config: &ControllerConfig, jobs: &mut JobTable, ctx: &mut CycleContext) {
    for (i, record) in ctx.records.iter_mut().enumerate() {
        let entry = jobs.get_mut(record.slot).expect("record slot is live");
        let spec = entry.spec.with_progress_metric(record.has_metric);
        let class = spec.classify();
        record.class = class;
        match class {
            JobClass::RealTime => {
                let p = spec.proportion.expect("real-time has proportion");
                let t = spec.period.expect("real-time has period");
                entry.period = t;
                record.desired = p;
                record.period = t;
                ctx.fixed_total_ppt += p.ppt();
            }
            JobClass::AperiodicRealTime => {
                let p = spec.proportion.expect("aperiodic has proportion");
                entry.period = config.default_period;
                record.desired = p;
                record.period = entry.period;
                ctx.fixed_total_ppt += p.ppt();
            }
            JobClass::RealRate | JobClass::Miscellaneous => {
                ctx.adaptive.push(i as u32);
            }
        }
    }
}

/// Stage 3 — **Estimate**: turns sensed pressure into desired allocations
/// for the adaptive (real-rate and miscellaneous) jobs.
///
/// Runs the per-job PID control function over the summed pressure
/// (Figure 3), then the proportion estimator `P'_t = k·Q_t` with the
/// usage-based "too generous" reclamation branch (Figure 4).  When a
/// reclamation fires, the PID state is damped so the reclaimed allocation
/// is not immediately re-requested.  Optionally replays the sensed fill
/// levels into the period estimator (§3.3's heuristic, off by default as
/// in the paper), which quantises budgets against the scheduler's
/// `dispatch_interval_us`.
pub(crate) fn estimate(
    config: &ControllerConfig,
    estimator: &ProportionEstimator,
    dispatch_interval_us: u64,
    jobs: &mut JobTable,
    ctx: &mut CycleContext,
) {
    // Split the context into disjoint field borrows so each record can be
    // updated in place (no per-record copy in and out of the vec).
    let CycleContext {
        dt,
        records,
        fills,
        adaptive,
        ..
    } = ctx;
    let dt = *dt;
    for &rec_idx in adaptive.iter() {
        let record = &mut records[rec_idx as usize];
        let entry = jobs.get_mut(record.slot).expect("record slot is live");

        let summed = match record.class {
            // Real-rate: drive from observed progress.  Miscellaneous:
            // constant positive pressure — keep asking for more CPU until
            // satisfied or squished.
            JobClass::RealRate => record.summed_pressure.unwrap_or(config.misc_pressure),
            _ => config.misc_pressure,
        };
        let (q, desired) = entry.demand(estimator, summed, record.usage_ratio, dt);

        if config.period_estimation && record.class == JobClass::RealRate {
            let start = record.fills_start as usize;
            let period_estimator = entry.period_estimator.get_or_insert_with(|| {
                Box::new(PeriodEstimator::new(PeriodEstimatorConfig {
                    dispatch_interval_us,
                    ..PeriodEstimatorConfig::default()
                }))
            });
            for &fill in &fills[start..start + record.fills_len as usize] {
                period_estimator.observe_fill(fill);
            }
            entry.period = period_estimator.end_period(entry.granted, entry.period);
        } else if entry.spec.period.is_none() {
            entry.period = config.default_period;
        }

        record.pressure_q = q;
        record.desired = desired;
        record.period = entry.period;
    }
}

/// Stage 4 — **Allocate**: overload detection and squishing (§3.3,
/// "Responding to Overload").
///
/// Sums the adaptive jobs' desired proportions against the capacity left
/// under the overload threshold by the fixed reservations.  The machine's
/// capacity is `overload_threshold × CPUs`: on the paper's single CPU
/// this is exactly the original threshold, and each extra CPU adds one
/// threshold's worth of grantable allocation.  Under overload, applies
/// the configured squish policy (fair share or importance-weighted
/// water-fill); otherwise grants every desire unchanged.  Grants land in
/// the context, aligned with the adaptive index list.
pub(crate) fn allocate(config: &ControllerConfig, ctx: &mut CycleContext) {
    let capacity_ppt = config.overload_threshold_ppt * config.placement.cpu_count() as u32;
    ctx.available_ppt = capacity_ppt.saturating_sub(ctx.fixed_total_ppt);
    ctx.desired_total_ppt = ctx
        .adaptive
        .iter()
        .map(|&i| ctx.records[i as usize].desired.ppt() as u64)
        .sum();

    if ctx.desired_total_ppt > ctx.available_ppt as u64 {
        ctx.squished = true;
        ctx.requests.clear();
        for &i in &ctx.adaptive {
            let r = &ctx.records[i as usize];
            ctx.requests.push(SquishRequest {
                desired: r.desired,
                importance: r.importance,
                floor: config.min_proportion,
            });
        }
        squish_into(
            config.squish_policy,
            &ctx.requests,
            ctx.available_ppt,
            &mut ctx.squish_scratch,
            &mut ctx.granted,
        );
    } else {
        ctx.granted.clear();
        for &i in &ctx.adaptive {
            ctx.granted.push(ctx.records[i as usize].desired);
        }
    }
}

/// Stage 5 — **Place**: assigns each job a CPU and decides migrations.
///
/// Jobs keep the CPU they are on (placement is sticky — moving a thread
/// costs cache and, on a real machine, TLB state); jobs whose CPU fell
/// off a shrunken machine are pulled back onto it.  When the most loaded
/// CPU's granted proportion exceeds the least loaded CPU's by more than
/// the configured imbalance bound, the squishable job whose grant is
/// closest to half the gap migrates — moving half the gap is the largest
/// step that cannot overshoot and flip the imbalance, and one migration
/// per cycle keeps the stage `O(jobs)` and the system stable.  Real-time
/// jobs never migrate: their reservation was admitted against a specific
/// CPU.  Per-CPU over-subscription that placement cannot resolve (for
/// example three equal grants on two CPUs) is left to the dispatcher's
/// rate-monotonic best effort and heals through usage feedback: a job
/// that cannot actually consume its grant on a crowded CPU is reclaimed
/// by the Estimate stage the following cycles.
///
/// On the default single CPU this stage only pins every job to `cpu0`
/// and computes the (single) load sum: grants, periods and ordering are
/// untouched, so the paper's figures reproduce exactly.
pub(crate) fn place(config: &ControllerConfig, jobs: &mut JobTable, ctx: &mut CycleContext) {
    let cpus = config.placement.cpu_count();
    ctx.reset_cpu_loads(cpus);
    ctx.migrations.clear();

    // Fold the Allocate stage's grants back into the records so every
    // record carries its final grant (fixed jobs keep their desire).
    for record in ctx.records.iter_mut() {
        if !record.class.is_squishable() {
            record.granted = record.desired;
        }
    }
    for (&i, &grant) in ctx.adaptive.iter().zip(ctx.granted.iter()) {
        ctx.records[i as usize].granted = grant;
    }

    // Sticky placement + per-CPU load accounting.
    for record in ctx.records.iter_mut() {
        let entry = jobs.get_mut(record.slot).expect("record slot is live");
        if entry.cpu.index() >= cpus {
            entry.cpu = CpuId((entry.cpu.index() % cpus) as u32);
        }
        record.cpu = entry.cpu;
        ctx.cpu_load[entry.cpu.index()] += record.granted.ppt() as u64;
        if !record.class.is_squishable() {
            ctx.cpu_fixed_load[entry.cpu.index()] += record.granted.ppt() as u64;
        }
    }

    // Threshold-triggered migration: most → least loaded CPU.
    let Some((max_c, min_c, gap)) = imbalance(&ctx.cpu_load, config) else {
        return;
    };
    let on_max = ctx.records.iter().enumerate().filter_map(|(idx, record)| {
        (record.cpu.index() == max_c && record.class.is_squishable())
            .then_some((idx, record.granted))
    });
    let Some(idx) = migrant(gap, on_max) else {
        return;
    };
    let record = &mut ctx.records[idx];
    let from = record.cpu;
    let to = CpuId(min_c as u32);
    record.cpu = to;
    jobs.get_mut(record.slot).expect("record slot is live").cpu = to;
    ctx.cpu_load[max_c] -= record.granted.ppt() as u64;
    ctx.cpu_load[min_c] += record.granted.ppt() as u64;
    ctx.migrations.push((record.job, from, to));
}

/// Stage 6 — **Actuate**: commits grants to the job table and writes the
/// cycle's outputs — reservation actuations (each carrying its Place-stage
/// CPU), the squish and migration events, and quality exceptions for
/// adaptive jobs whose demand could not be met — into the reusable
/// [`ControlOutput`].
pub(crate) fn actuate(
    config: &ControllerConfig,
    jobs: &mut JobTable,
    ctx: &CycleContext,
    out: &mut ControlOutput,
) {
    out.actuations.clear();
    out.events.clear();
    out.total_granted_ppt = 0;

    if ctx.squished {
        out.events.push(ControllerEvent::Squished {
            desired_total_ppt: ctx.desired_total_ppt,
            available_ppt: ctx.available_ppt,
        });
    }
    for &(job, from, to) in &ctx.migrations {
        out.events.push(ControllerEvent::Migrated { job, from, to });
    }

    // Fixed reservations first, then adaptive grants, mirroring the order
    // in which they were decided.
    for record in &ctx.records {
        if record.class.is_squishable() {
            continue;
        }
        let entry = jobs.get_mut(record.slot).expect("record slot is live");
        entry.granted = record.desired;
        out.total_granted_ppt += record.desired.ppt();
        out.actuations.push(Actuation {
            slot: record.slot,
            job: record.job,
            reservation: Reservation::new(record.desired, record.period),
            cpu: record.cpu,
        });
    }

    for (&i, &grant) in ctx.adaptive.iter().zip(ctx.granted.iter()) {
        let record = &ctx.records[i as usize];
        let entry = jobs.get_mut(record.slot).expect("record slot is live");
        entry.granted = grant;
        out.total_granted_ppt += grant.ppt();
        out.events.extend(quality_exception(
            config,
            record.job,
            record.desired,
            grant,
            record.pressure_q,
            ctx.now_s,
        ));
        out.actuations.push(Actuation {
            slot: record.slot,
            job: record.job,
            reservation: Reservation::new(grant, record.period),
            cpu: record.cpu,
        });
    }

    out.cost_us = config.cost_model.invocation_cost_us(jobs.len());
}

/// The Place rule's trigger: the most and the least loaded CPU (lowest id
/// on ties) and the granted-load gap between them, when the gap exceeds
/// the configured imbalance bound.  A single CPU is never imbalanced.
pub(crate) fn imbalance(
    cpu_load: &[u64],
    config: &ControllerConfig,
) -> Option<(usize, usize, u64)> {
    let (mut max_c, mut min_c) = (0usize, 0usize);
    for (i, &load) in cpu_load.iter().enumerate() {
        if load > cpu_load[max_c] {
            max_c = i;
        }
        if load < cpu_load[min_c] {
            min_c = i;
        }
    }
    let gap = cpu_load[max_c] - cpu_load[min_c];
    (gap > config.placement.imbalance_threshold_ppt as u64).then_some((max_c, min_c, gap))
}

/// The Place rule's choice: among the squishable jobs on the most loaded
/// CPU (`candidates`, each with its grant), the one whose grant is closest
/// to half the gap.  Only moves that strictly reduce the gap qualify
/// (`0 < grant < gap`); the first candidate wins a tie.
pub(crate) fn migrant<K>(gap: u64, candidates: impl Iterator<Item = (K, Proportion)>) -> Option<K> {
    let mut best: Option<(u64, K)> = None;
    for (key, granted) in candidates {
        let g = granted.ppt() as u64;
        if g == 0 || g >= gap {
            continue;
        }
        let dist = g.abs_diff(gap / 2);
        if best.as_ref().is_none_or(|(d, _)| dist < *d) {
            best = Some((dist, key));
        }
    }
    best.map(|(_, key)| key)
}

/// The quality exception an adaptive job raises when its demand could not
/// be met: granted less than it desired *and* under at least the
/// configured pressure.
pub(crate) fn quality_exception(
    config: &ControllerConfig,
    job: JobId,
    desired: Proportion,
    granted: Proportion,
    pressure: f64,
    time: f64,
) -> Option<ControllerEvent> {
    let unmet =
        granted.ppt() < desired.ppt() && pressure.abs() >= config.quality_exception_pressure;
    unmet.then_some(ControllerEvent::Quality(QualityException {
        job,
        desired,
        granted,
        pressure,
        time,
    }))
}

impl JobEntry {
    /// Figures 3–4 for one adaptive job: feeds the summed pressure through
    /// the PID control function, turns the resulting `Q_t` into a desired
    /// proportion (`P'_t = k·Q_t`, or the usage-based reclaim), and on a
    /// reclaim damps the PID state so the reclaimed allocation is not
    /// immediately re-requested.  Returns `(Q_t, desired)`, `Q_t` as it was
    /// before any damping.
    pub(crate) fn demand(
        &mut self,
        estimator: &ProportionEstimator,
        summed: f64,
        usage_ratio: f64,
        dt: f64,
    ) -> (f64, Proportion) {
        let q = self.pressure.update(summed, dt);
        let outcome = estimator.estimate(self.granted, q, usage_ratio);
        if outcome.reclaimed {
            let target = if self.granted.ppt() > 0 {
                outcome.desired.ppt() as f64 / self.granted.ppt() as f64
            } else {
                0.0
            };
            self.pressure.scale_state(target.clamp(0.0, 1.0));
        }
        (q, outcome.desired)
    }

    pub(crate) fn new(spec: JobSpec, importance: Importance, config: &ControllerConfig) -> Self {
        let class = spec.classify();
        let period = spec.period.unwrap_or(config.default_period);
        let initial = match class {
            JobClass::RealTime | JobClass::AperiodicRealTime => {
                spec.proportion.unwrap_or(config.min_proportion)
            }
            _ => config.min_proportion,
        };
        Self {
            spec,
            importance,
            pressure: PressureEstimator::new(config.pid),
            period_estimator: None,
            period,
            granted: initial,
            cpu: CpuId::ZERO,
            usage: UsageSnapshot::default(),
            has_metric: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_queue::{BoundedBuffer, JobKey, Role};
    use std::sync::Arc;

    /// Every cycle's Estimate and Actuate walk the job table, and 10 000
    /// entries do not fit the 2 MiB L2.  Moving the period estimator out of
    /// line took an entry from 296 B to 176 B and, on top of the inline
    /// thread tables, `spin_saturated` `run_wall_s` 0.140 → 0.130 and
    /// `sharded_churn` 0.499 → 0.474; three cache lines is the budget.
    #[test]
    fn layout_budget() {
        assert!(std::mem::size_of::<JobEntry>() <= 192);
    }

    fn table_with(specs: &[(u64, JobSpec)]) -> (JobTable, ControllerConfig) {
        let config = ControllerConfig::default();
        let mut table = JobTable::new();
        for &(id, spec) in specs {
            let entry = JobEntry::new(spec, Importance::NORMAL, &config);
            table.insert(JobId(id), entry).expect("unique test ids");
        }
        (table, config)
    }

    fn full_queue(capacity: usize) -> Arc<BoundedBuffer<u8>> {
        let q = Arc::new(BoundedBuffer::new("q", capacity));
        for i in 0..capacity {
            q.try_push(i as u8).unwrap();
        }
        q
    }

    fn run_sense(registry: &MetricRegistry, jobs: &mut JobTable, ctx: &mut CycleContext) {
        ctx.begin(0.01, 0.01);
        sense(registry, jobs, true, None, ctx);
    }

    #[test]
    fn sense_samples_pressure_fills_and_usage() {
        let (mut jobs, _config) = table_with(&[(1, JobSpec::real_rate())]);
        let registry = MetricRegistry::new();
        registry.register(JobKey(1), Role::Consumer, full_queue(4));
        let slot = jobs.slot_of(JobId(1)).unwrap();
        jobs.get_mut(slot).unwrap().usage = UsageSnapshot { usage_ratio: 0.25 };

        let mut ctx = CycleContext::new();
        run_sense(&registry, &mut jobs, &mut ctx);

        assert_eq!(ctx.records.len(), 1);
        let r = &ctx.records[0];
        assert!(r.has_metric);
        // Consumer of a full queue: summed signed pressure +1/2.
        assert_eq!(r.summed_pressure, Some(0.5));
        assert_eq!(r.usage_ratio, 0.25);
        let fills = &ctx.fills[r.fills_start as usize..][..r.fills_len as usize];
        assert_eq!(fills, &[1.0]);
        // Snapshots are sticky: sensing leaves the recorded value in place,
        // so the next cycle sees the same ratio until it is overwritten.
        assert_eq!(
            jobs.get(slot).unwrap().usage,
            UsageSnapshot { usage_ratio: 0.25 }
        );
    }

    #[test]
    fn sense_reports_no_metric_without_attachments() {
        let (mut jobs, _config) = table_with(&[(1, JobSpec::miscellaneous())]);
        let registry = MetricRegistry::new();
        let mut ctx = CycleContext::new();
        run_sense(&registry, &mut jobs, &mut ctx);
        assert!(!ctx.records[0].has_metric);
        assert_eq!(ctx.records[0].summed_pressure, None);
        assert!(ctx.fills.is_empty());
    }

    #[test]
    fn classify_splits_fixed_from_adaptive_and_fixes_periods() {
        use rrs_scheduler::{Period, Proportion};
        let (mut jobs, config) = table_with(&[
            (
                1,
                JobSpec::real_time(Proportion::from_ppt(300), Period::from_millis(20)),
            ),
            (2, JobSpec::aperiodic_real_time(Proportion::from_ppt(100))),
            (3, JobSpec::miscellaneous()),
        ]);
        let registry = MetricRegistry::new();
        // Job 4 registered as miscellaneous but with a visible metric: the
        // classify stage must promote it to real-rate.
        let entry = JobEntry::new(JobSpec::miscellaneous(), Importance::NORMAL, &config);
        jobs.insert(JobId(4), entry).unwrap();
        registry.register(JobKey(4), Role::Consumer, full_queue(2));

        let mut ctx = CycleContext::new();
        run_sense(&registry, &mut jobs, &mut ctx);
        classify(&config, &mut jobs, &mut ctx);

        assert_eq!(ctx.records[0].class, JobClass::RealTime);
        assert_eq!(ctx.records[0].desired.ppt(), 300);
        assert_eq!(ctx.records[0].period, Period::from_millis(20));
        assert_eq!(ctx.records[1].class, JobClass::AperiodicRealTime);
        assert_eq!(ctx.records[1].period, config.default_period);
        assert_eq!(ctx.records[2].class, JobClass::Miscellaneous);
        assert_eq!(ctx.records[3].class, JobClass::RealRate);
        assert_eq!(ctx.fixed_total_ppt, 400);
        assert_eq!(ctx.adaptive, vec![2, 3]);
    }

    #[test]
    fn estimate_grows_desire_under_positive_pressure() {
        let (mut jobs, config) = table_with(&[(1, JobSpec::real_rate())]);
        let registry = MetricRegistry::new();
        registry.register(JobKey(1), Role::Consumer, full_queue(4));
        let estimator = ProportionEstimator::new(&config);

        let mut ctx = CycleContext::new();
        let mut last = 0;
        for cycle in 1..=20 {
            ctx.begin(cycle as f64 * 0.01, 0.01);
            sense(&registry, &mut jobs, false, None, &mut ctx);
            classify(&config, &mut jobs, &mut ctx);
            estimate(&config, &estimator, 1_000, &mut jobs, &mut ctx);
            last = ctx.records[0].desired.ppt();
        }
        assert!(
            last > 100,
            "persistent +1/2 pressure must grow demand, got {last}"
        );
        assert!(ctx.records[0].pressure_q > 0.0);
    }

    #[test]
    fn estimate_reclaims_when_usage_is_low() {
        let (mut jobs, config) = table_with(&[(1, JobSpec::miscellaneous())]);
        let registry = MetricRegistry::new();
        let estimator = ProportionEstimator::new(&config);
        let slot = jobs.slot_of(JobId(1)).unwrap();
        jobs.get_mut(slot).unwrap().granted = Proportion::from_ppt(500);
        jobs.get_mut(slot).unwrap().usage = UsageSnapshot { usage_ratio: 0.1 };

        let mut ctx = CycleContext::new();
        ctx.begin(0.01, 0.01);
        sense(&registry, &mut jobs, false, None, &mut ctx);
        classify(&config, &mut jobs, &mut ctx);
        estimate(&config, &estimator, 1_000, &mut jobs, &mut ctx);

        let desired = ctx.records[0].desired.ppt();
        assert_eq!(
            desired,
            500 - config.reclaim_ppt,
            "reclamation takes the −C branch"
        );
    }

    #[test]
    fn allocate_passes_through_when_capacity_suffices() {
        let (mut jobs, config) = table_with(&[(1, JobSpec::miscellaneous())]);
        let registry = MetricRegistry::new();
        let estimator = ProportionEstimator::new(&config);
        let mut ctx = CycleContext::new();
        ctx.begin(0.01, 0.01);
        sense(&registry, &mut jobs, false, None, &mut ctx);
        classify(&config, &mut jobs, &mut ctx);
        estimate(&config, &estimator, 1_000, &mut jobs, &mut ctx);
        allocate(&config, &mut ctx);
        assert!(!ctx.squished);
        assert_eq!(ctx.granted.len(), 1);
        assert_eq!(ctx.granted[0], ctx.records[0].desired);
    }

    #[test]
    fn allocate_squishes_on_overload_and_respects_the_threshold() {
        let (mut jobs, config) =
            table_with(&[(1, JobSpec::miscellaneous()), (2, JobSpec::miscellaneous())]);
        let registry = MetricRegistry::new();
        let mut ctx = CycleContext::new();
        ctx.begin(0.01, 0.01);
        sense(&registry, &mut jobs, false, None, &mut ctx);
        classify(&config, &mut jobs, &mut ctx);
        // Force each job to want the whole machine: skip Estimate and plant
        // desires directly, which is exactly what stage isolation allows.
        for &i in &ctx.adaptive.clone() {
            ctx.records[i as usize].desired = Proportion::from_ppt(1000);
        }
        allocate(&config, &mut ctx);
        assert!(ctx.squished);
        let total: u32 = ctx.granted.iter().map(|p| p.ppt()).sum();
        assert!(total <= config.overload_threshold_ppt);
        assert!(ctx.granted.iter().all(|p| p.ppt() >= 1), "no starvation");
    }

    #[test]
    fn place_is_a_noop_on_a_single_cpu() {
        let (mut jobs, config) =
            table_with(&[(1, JobSpec::miscellaneous()), (2, JobSpec::miscellaneous())]);
        let registry = MetricRegistry::new();
        let estimator = ProportionEstimator::new(&config);
        let mut ctx = CycleContext::new();
        ctx.begin(0.01, 0.01);
        sense(&registry, &mut jobs, false, None, &mut ctx);
        classify(&config, &mut jobs, &mut ctx);
        estimate(&config, &estimator, 1_000, &mut jobs, &mut ctx);
        allocate(&config, &mut ctx);
        let grants_before = ctx.granted.clone();
        place(&config, &mut jobs, &mut ctx);
        assert_eq!(ctx.granted, grants_before, "grants untouched");
        assert!(ctx.migrations.is_empty());
        assert_eq!(ctx.cpu_load.len(), 1);
        assert!(ctx.records.iter().all(|r| r.cpu == CpuId::ZERO));
    }

    #[test]
    fn place_migrates_one_job_when_imbalance_exceeds_the_bound() {
        use rrs_scheduler::Proportion;
        let config = ControllerConfig::default().with_cpus(2);
        let mut jobs = JobTable::new();
        for id in 1..=3 {
            let entry = JobEntry::new(JobSpec::miscellaneous(), Importance::NORMAL, &config);
            jobs.insert(JobId(id), entry).unwrap();
        }
        // All three jobs crowded onto cpu0 with meaningful grants.
        for (_, _, e) in jobs.iter_mut() {
            e.cpu = CpuId(0);
        }
        let registry = MetricRegistry::new();
        let mut ctx = CycleContext::new();
        ctx.begin(0.01, 0.01);
        sense(&registry, &mut jobs, false, None, &mut ctx);
        classify(&config, &mut jobs, &mut ctx);
        // Plant grants directly (stage isolation): 300 ‰ each on cpu0.
        ctx.granted.clear();
        for _ in 0..ctx.adaptive.len() {
            ctx.granted.push(Proportion::from_ppt(300));
        }
        place(&config, &mut jobs, &mut ctx);
        // Gap was 900 > 200: exactly one job moved to cpu1.
        assert_eq!(ctx.migrations.len(), 1);
        let (job, from, to) = ctx.migrations[0];
        assert_eq!((from, to), (CpuId(0), CpuId(1)));
        assert_eq!(ctx.cpu_load, vec![600, 300]);
        let moved = jobs.get_by_id(job).unwrap();
        assert_eq!(moved.cpu, CpuId(1));
        // A second cycle with the same grants is already balanced enough:
        // gap 300 > 200 but moving a 300 ‰ job cannot shrink it.
        ctx.begin(0.02, 0.01);
        sense(&registry, &mut jobs, false, None, &mut ctx);
        classify(&config, &mut jobs, &mut ctx);
        ctx.granted.clear();
        for _ in 0..ctx.adaptive.len() {
            ctx.granted.push(Proportion::from_ppt(300));
        }
        place(&config, &mut jobs, &mut ctx);
        assert!(ctx.migrations.is_empty(), "no oscillation");
    }

    #[test]
    fn place_pulls_jobs_back_onto_a_shrunken_machine() {
        let config = ControllerConfig::default(); // one CPU
        let mut jobs = JobTable::new();
        let entry = JobEntry::new(JobSpec::miscellaneous(), Importance::NORMAL, &config);
        let slot = jobs.insert(JobId(1), entry).unwrap();
        jobs.get_mut(slot).unwrap().cpu = CpuId(5);
        let registry = MetricRegistry::new();
        let mut ctx = CycleContext::new();
        ctx.begin(0.01, 0.01);
        sense(&registry, &mut jobs, false, None, &mut ctx);
        classify(&config, &mut jobs, &mut ctx);
        allocate(&config, &mut ctx);
        place(&config, &mut jobs, &mut ctx);
        assert_eq!(jobs.get_by_id(JobId(1)).unwrap().cpu, CpuId(0));
        assert_eq!(ctx.records[0].cpu, CpuId(0));
    }

    #[test]
    fn place_never_migrates_fixed_reservations() {
        use rrs_scheduler::{Period, Proportion};
        let config = ControllerConfig::default().with_cpus(2);
        let mut jobs = JobTable::new();
        let spec = JobSpec::real_time(Proportion::from_ppt(600), Period::from_millis(10));
        let entry = JobEntry::new(spec, Importance::NORMAL, &config);
        jobs.insert(JobId(1), entry).unwrap();
        let registry = MetricRegistry::new();
        let mut ctx = CycleContext::new();
        ctx.begin(0.01, 0.01);
        sense(&registry, &mut jobs, false, None, &mut ctx);
        classify(&config, &mut jobs, &mut ctx);
        allocate(&config, &mut ctx);
        place(&config, &mut jobs, &mut ctx);
        // 600 vs 0 exceeds the bound, but a real-time job stays put.
        assert_eq!(ctx.cpu_load, vec![600, 0]);
        assert!(ctx.migrations.is_empty());
        assert_eq!(jobs.get_by_id(JobId(1)).unwrap().cpu, CpuId(0));
    }

    #[test]
    fn actuate_commits_grants_and_raises_quality_exceptions() {
        use rrs_scheduler::{Period, Proportion};
        let config = ControllerConfig {
            overload_threshold_ppt: 200,
            ..ControllerConfig::default()
        };
        let mut jobs = JobTable::new();
        jobs.insert(
            JobId(1),
            JobEntry::new(
                JobSpec::real_time(Proportion::from_ppt(150), Period::from_millis(10)),
                Importance::NORMAL,
                &config,
            ),
        )
        .unwrap();
        jobs.insert(
            JobId(2),
            JobEntry::new(JobSpec::miscellaneous(), Importance::NORMAL, &config),
        )
        .unwrap();
        let registry = MetricRegistry::new();
        let mut ctx = CycleContext::new();
        ctx.begin(0.5, 0.01);
        sense(&registry, &mut jobs, false, None, &mut ctx);
        classify(&config, &mut jobs, &mut ctx);
        // Plant an unmeetable demand with pressure above the exception bar.
        let i = ctx.adaptive[0] as usize;
        ctx.records[i].desired = Proportion::from_ppt(800);
        ctx.records[i].pressure_q = 1.0;
        allocate(&config, &mut ctx);

        let mut out = ControlOutput::default();
        actuate(&config, &mut jobs, &ctx, &mut out);

        assert_eq!(out.actuations.len(), 2);
        let rt = out.actuation_for(JobId(1)).unwrap();
        assert_eq!(rt.reservation.proportion.ppt(), 150);
        let misc = out.actuation_for(JobId(2)).unwrap();
        assert!(misc.reservation.proportion.ppt() < 800);
        assert_eq!(out.quality_exceptions().len(), 1);
        assert_eq!(out.quality_exceptions()[0].job, JobId(2));
        assert_eq!(out.quality_exceptions()[0].time, 0.5);
        // Squish event precedes quality exceptions.
        assert!(matches!(out.events[0], ControllerEvent::Squished { .. }));
        // Grants were committed to the table.
        let misc_slot = jobs.slot_of(JobId(2)).unwrap();
        assert_eq!(
            jobs.get(misc_slot).unwrap().granted,
            misc.reservation.proportion
        );
        assert_eq!(
            out.total_granted_ppt,
            150 + misc.reservation.proportion.ppt()
        );
    }

    #[test]
    fn imbalance_needs_a_gap_strictly_over_the_bound_and_breaks_ties_low() {
        let config = ControllerConfig::default().with_cpus(4);
        let bound = config.placement.imbalance_threshold_ppt as u64;
        assert_eq!(
            imbalance(&[100 + bound, 100], &config),
            None,
            "at the bound"
        );
        assert_eq!(
            imbalance(&[100, 101 + bound], &config),
            Some((1, 0, bound + 1))
        );
        // Two CPUs tie at each end: the lowest id is named for both.
        assert_eq!(imbalance(&[900, 100, 900, 100], &config), Some((0, 1, 800)));
        assert_eq!(imbalance(&[700], &config), None, "one CPU has no gap");
    }

    #[test]
    fn migrant_takes_the_grant_closest_to_half_the_gap() {
        let ppt = Proportion::from_ppt;
        let pick = |gap, grants: &[u32]| migrant(gap, grants.iter().map(|&g| ppt(g)).enumerate());
        // Half the gap is 200: 150 is closer than 300 or 20.
        assert_eq!(pick(400, &[300, 150, 20]), Some(1));
        // A zero grant moves nothing and a grant of the whole gap (or more)
        // only flips the imbalance: neither ever qualifies.
        assert_eq!(pick(400, &[0, 400, 401]), None);
        assert_eq!(pick(400, &[0, 399, 400]), Some(1));
        // 150 and 250 are equally far from 200: the first one seen wins.
        assert_eq!(pick(400, &[250, 150]), Some(0));
        assert_eq!(pick(400, &[150, 250]), Some(0));
        assert_eq!(pick(400, &[]), None);
    }

    #[test]
    fn quality_exception_needs_a_short_grant_and_the_pressure_bar() {
        let config = ControllerConfig::default();
        let bar = config.quality_exception_pressure;
        let ppt = Proportion::from_ppt;
        let raise = |desired, granted, q| {
            quality_exception(&config, JobId(7), ppt(desired), ppt(granted), q, 0.5)
        };
        assert_eq!(raise(300, 300, 1.0), None, "demand met");
        assert_eq!(raise(300, 100, bar / 2.0), None, "pressure under the bar");
        // The bar is inclusive and reads the pressure's magnitude.
        for q in [bar, -bar] {
            assert_eq!(
                raise(300, 100, q),
                Some(ControllerEvent::Quality(QualityException {
                    job: JobId(7),
                    desired: ppt(300),
                    granted: ppt(100),
                    pressure: q,
                    time: 0.5,
                }))
            );
        }
    }

    #[test]
    fn context_buffers_are_reused_across_cycles() {
        let (mut jobs, config) = table_with(&[
            (1, JobSpec::miscellaneous()),
            (2, JobSpec::miscellaneous()),
            (3, JobSpec::miscellaneous()),
        ]);
        let registry = MetricRegistry::new();
        let estimator = ProportionEstimator::new(&config);
        let mut ctx = CycleContext::new();
        let mut out = ControlOutput::default();
        let run = |ctx: &mut CycleContext, out: &mut ControlOutput, jobs: &mut JobTable, t: f64| {
            ctx.begin(t, 0.01);
            sense(&registry, jobs, false, None, ctx);
            classify(&config, jobs, ctx);
            estimate(&config, &estimator, 1_000, jobs, ctx);
            allocate(&config, ctx);
            actuate(&config, jobs, ctx, out);
        };
        run(&mut ctx, &mut out, &mut jobs, 0.01);
        let caps = (
            ctx.records.capacity(),
            ctx.adaptive.capacity(),
            out.actuations.capacity(),
        );
        for i in 2..100 {
            run(&mut ctx, &mut out, &mut jobs, i as f64 * 0.01);
        }
        assert_eq!(
            caps,
            (
                ctx.records.capacity(),
                ctx.adaptive.capacity(),
                out.actuations.capacity()
            ),
            "scratch capacity must stabilise after the first cycle"
        );
        assert_eq!(out.actuations.len(), 3);
    }
}
