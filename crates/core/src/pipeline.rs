//! The controller's kernels: what one cycle decides for one job or one
//! machine, each a function of its own.
//!
//! * [`JobEntry`] is a job's controller state, the payload of the
//!   controller's slot table; [`JobEntry::demand`] turns its summed
//!   progress pressure into a desired proportion (Figures 3–4 with the
//!   reclaim damping) and [`JobEntry::estimate_period`] runs the §3.3
//!   period heuristic over the cycle's fill samples.
//! * [`ResolvedSense`] holds every job's queue attachments as the registry
//!   listed them, so a cycle samples the queues without the registry's
//!   lock or tree.
//! * [`imbalance`] and [`migrant`] are the Place rule: when the most loaded
//!   CPU's grant exceeds the least loaded one's by more than the bound,
//!   the squishable job whose grant is closest to half the gap moves.
//! * [`quality_exception`] is the event an adaptive job raises when its
//!   demand could not be met.
//! * [`CpuLoads`] are the per-CPU granted and fixed loads admission and
//!   Place read, kept current on every mutation.
//!
//! `Controller`'s one cycle walks the job table and calls these; none of
//! them allocates once its buffers have warmed up.

use crate::config::ControllerConfig;
use crate::controller::{JobId, UsageSnapshot};
use crate::estimator::ProportionEstimator;
use crate::events::{ControllerEvent, QualityException};
use crate::period::PeriodEstimator;
use crate::pressure::PressureState;
use crate::slot::SlotTable;
use crate::taxonomy::{JobClass, JobSpec};
use rrs_feedback::PidConfig;
use rrs_queue::{Attachment, JobKey, MetricRegistry};
use rrs_scheduler::{CpuId, Period, Proportion};

/// Per-job controller state: the payload of the controller's slot table.
#[derive(Debug)]
pub(crate) struct JobEntry {
    pub(crate) spec: JobSpec,
    /// The PID state of Figure 3's `G`; the gains are the controller's
    /// one `config.pid`, passed to each step.
    pub(crate) pressure: PressureState,
    /// The §3.3 period heuristic's state, out of line and created by the
    /// first real-rate cycle that reaches the job with period estimation
    /// on: every other job (all of them, in the paper's configuration)
    /// would carry its 128 bytes and heap-allocated window through each
    /// cycle's cache without ever reading them.  A fresh estimator has
    /// seen nothing, so creating it late decides the same.
    pub(crate) period_estimator: Option<Box<PeriodEstimator>>,
    pub(crate) period: Period,
    pub(crate) granted: Proportion,
    /// The CPU the Place rule has the job on.
    pub(crate) cpu: CpuId,
    /// Usage feedback most recently recorded.  Sticky: it persists until
    /// the caller overwrites it, so a job that stops reporting keeps its
    /// last known ratio.
    pub(crate) usage: UsageSnapshot,
    /// Whether the registry exposed a progress metric for this job when
    /// [`ResolvedSense::resolve`] last ran (valid while the registry
    /// version is unchanged).
    pub(crate) has_metric: bool,
}

/// The committed load of every CPU, in parts per thousand: each job's
/// grant on its CPU (`granted`) and, for fixed real-time reservations,
/// its reserved proportion (`fixed`).  Live between cycles: admission,
/// removal, every grant change and every migration adjust them, so
/// admission reads the least-loaded CPU and Place the imbalance without
/// scanning the jobs.
#[derive(Debug, Default)]
pub(crate) struct CpuLoads {
    pub(crate) granted: Vec<u64>,
    pub(crate) fixed: Vec<u64>,
}

impl CpuLoads {
    /// Zeroed loads over `cpus` CPUs.
    pub(crate) fn new(cpus: usize) -> Self {
        Self {
            granted: vec![0; cpus],
            fixed: vec![0; cpus],
        }
    }

    /// Zeroes every CPU's loads, for a recount.
    pub(crate) fn clear(&mut self) {
        self.granted.fill(0);
        self.fixed.fill(0);
    }

    /// Widens the loads to `cpus` CPUs; the new ones carry nothing.
    pub(crate) fn grow(&mut self, cpus: usize) {
        self.granted.resize(cpus, 0);
        self.fixed.resize(cpus, 0);
    }

    /// Adds a job's committed grant and, for a fixed reservation, its
    /// proportion to its CPU's loads (`add`), or takes them off again.
    pub(crate) fn shift(&mut self, entry: &JobEntry, add: bool) {
        let cpu = entry.cpu.index();
        let granted = entry.granted.ppt() as u64;
        let fixed = if entry.spec.classify().is_squishable() {
            0
        } else {
            entry.spec.proportion.map_or(0, |p| p.ppt() as u64)
        };
        if add {
            self.granted[cpu] += granted;
            self.fixed[cpu] += fixed;
        } else {
            self.granted[cpu] -= granted;
            self.fixed[cpu] -= fixed;
        }
    }

    /// Sum of every job's committed grant.
    pub(crate) fn granted_total_ppt(&self) -> u64 {
        self.granted.iter().sum()
    }
}

pub(crate) type JobTable = SlotTable<JobId, JobEntry>;

/// Every job's attachments as the registry listed them at the last
/// rebuild, each job's in registration order.  Valid while the registry
/// version is unchanged; a cycle samples them directly instead of taking
/// the registry's lock and looking the job up again.
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

    /// Lists every job's attachments afresh from `registry` and records on
    /// each entry whether it has any — the metric visibility the Figure 2
    /// taxonomy reads, which promotes a miscellaneous job that gained a
    /// queue to real-rate and back.
    pub(crate) fn resolve(&mut self, registry: &MetricRegistry, jobs: &mut JobTable) {
        self.attachments.clear();
        self.span.clear();
        for (slot, job, entry) in jobs.iter_mut() {
            let start = self.attachments.len() as u32;
            registry.for_each_attachment(job.key(), |a| self.attachments.push(a.clone()));
            let len = self.attachments.len() as u32 - start;
            entry.has_metric = len > 0;
            if len > 0 {
                // Grown only as far as the last job with a metric: a
                // population without queues keeps no per-slot table.
                let index = slot.index();
                if self.span.len() <= index {
                    self.span.resize(index + 1, (0, 0));
                }
                self.span[index] = (start, len);
            }
        }
    }

    /// The summed signed pressure `Σ_i R_{t,i}·F_{t,i}` of the job at slot
    /// `index`, sampling each of its queues once and, given `fills`,
    /// appending each sample's fill level there for the period heuristic.
    /// Folded exactly as [`MetricRegistry::summed_pressure`] folds it:
    /// `Iterator::sum` over the same terms in the same order, so the result
    /// is bit-identical — a job whose terms are all `−0.0` sums to `−0.0`,
    /// where `0.0 + …` would give `+0.0`.
    pub(crate) fn summed_pressure(&self, index: usize, mut fills: Option<&mut Vec<f64>>) -> f64 {
        self.of(index)
            .iter()
            .map(|a| {
                let sample = a.sample();
                if let Some(fills) = fills.as_deref_mut() {
                    fills.push(sample.fraction());
                }
                a.role.sign() * sample.centered()
            })
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

/// The pressure magnitude at which an adaptive job whose demand was not met
/// raises the paper's quality exception: its queue is nearly full or
/// nearly empty, so the application, not the allocator, must adapt.
const QUALITY_EXCEPTION_PRESSURE: f64 = 0.45;

/// The quality exception an adaptive job raises when its demand could not
/// be met: granted less than it desired *and* under at least
/// [`QUALITY_EXCEPTION_PRESSURE`].  The job is named (`job()`) only when it
/// raises one: the cycle resolves it from the job table, a row it would
/// otherwise not touch.
pub(crate) fn quality_exception(
    job: impl FnOnce() -> JobId,
    desired: Proportion,
    granted: Proportion,
    pressure: f64,
    time: f64,
) -> Option<ControllerEvent> {
    let unmet = granted.ppt() < desired.ppt() && pressure.abs() >= QUALITY_EXCEPTION_PRESSURE;
    unmet.then(|| {
        ControllerEvent::Quality(QualityException {
            job: job(),
            desired,
            granted,
            pressure,
            time,
        })
    })
}

impl JobEntry {
    /// Figures 3–4 for one adaptive job: feeds the summed pressure through
    /// the PID control function `pid`, turns the resulting `Q_t` into a
    /// desired proportion (`P'_t = k·Q_t`, or the usage-based reclaim), and
    /// on a reclaim damps the PID state so the reclaimed allocation is not
    /// immediately re-requested.  Returns `(Q_t, desired)`, `Q_t` as it was
    /// before any damping.
    pub(crate) fn demand(
        &mut self,
        pid: &PidConfig,
        estimator: &ProportionEstimator,
        summed: f64,
        usage_ratio: f64,
        dt: f64,
    ) -> (f64, Proportion) {
        let q = self.pressure.update(pid, summed, dt);
        let outcome = estimator.estimate(self.granted, q, usage_ratio);
        if outcome.reclaimed {
            let target = if self.granted.ppt() > 0 {
                outcome.desired.ppt() as f64 / self.granted.ppt() as f64
            } else {
                0.0
            };
            self.pressure.scale(pid, target.clamp(0.0, 1.0));
        }
        (q, outcome.desired)
    }

    /// The §3.3 period heuristic for one real-rate job: replays the fill
    /// levels this cycle sampled into the job's period estimator (created
    /// on first use, quantising budgets against `dispatch_interval_us`)
    /// and moves the period where it decides, against the grant the job
    /// held through the samples.
    pub(crate) fn estimate_period(&mut self, fills: &[f64], dispatch_interval_us: u64) {
        let estimator = self
            .period_estimator
            .get_or_insert_with(|| Box::new(PeriodEstimator::new(dispatch_interval_us)));
        for &fill in fills {
            estimator.observe_fill(fill);
        }
        self.period = estimator.end_period(self.granted, self.period);
    }

    /// The job's Figure 2 class, with the metric visibility the last
    /// rebuild resolved.
    pub(crate) fn class(&self) -> JobClass {
        self.spec.with_progress_metric(self.has_metric).classify()
    }

    pub(crate) fn new(spec: JobSpec, config: &ControllerConfig) -> Self {
        let class = spec.classify();
        let period = spec.period.unwrap_or(Period::DEFAULT);
        let initial = match class {
            JobClass::RealTime | JobClass::AperiodicRealTime => {
                spec.proportion.unwrap_or(config.min_proportion)
            }
            _ => config.min_proportion,
        };
        Self {
            spec,
            pressure: PressureState::default(),
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
    use crate::controller::{ControlOutput, Controller, MISC_PRESSURE, OVERLOAD_THRESHOLD_PPT};
    use crate::estimator::RECLAIM_PPT;
    use rrs_queue::{BoundedBuffer, JobKey, Role};
    use std::sync::Arc;

    /// Every cycle's walk visits the job table, and 10 000 entries do not
    /// fit the 2 MiB L2.  Moving the period estimator out of line took an
    /// entry from 296 B to 176 B and, on top of the inline thread tables,
    /// `spin_saturated` `run_wall_s` 0.140 → 0.130 and `sharded_churn`
    /// 0.499 → 0.474.  Keeping the PID gains and the importance once per
    /// controller instead of once per job took it to 120 B.
    #[test]
    fn layout_budget() {
        assert!(std::mem::size_of::<JobEntry>() <= 120);
    }

    fn table_with(specs: &[(u64, JobSpec)]) -> (JobTable, ControllerConfig) {
        let config = ControllerConfig::default();
        let mut table = JobTable::new();
        for &(id, spec) in specs {
            let entry = JobEntry::new(spec, &config);
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

    /// A rebuild-every-cycle controller over `registry`.
    fn rebuilding(config: ControllerConfig, registry: &MetricRegistry) -> Controller {
        Controller::new(config.with_incremental(false), registry.clone())
    }

    fn run_cycles(c: &mut Controller, n: usize) -> ControlOutput {
        for i in 1..n {
            c.control_cycle_with_dt(i as f64 * 0.01, 0.01);
        }
        c.control_cycle_with_dt(n as f64 * 0.01, 0.01).clone()
    }

    fn squished(out: &ControlOutput) -> bool {
        out.events
            .iter()
            .any(|e| matches!(e, ControllerEvent::Squished { .. }))
    }

    fn migrated(out: &ControlOutput) -> bool {
        out.events
            .iter()
            .any(|e| matches!(e, ControllerEvent::Migrated { .. }))
    }

    #[test]
    fn sense_samples_pressure_fills_and_usage() {
        let (mut jobs, _config) = table_with(&[(1, JobSpec::real_rate())]);
        let registry = MetricRegistry::new();
        registry.register(JobKey(1), Role::Consumer, full_queue(4));
        let slot = jobs.slot_of(JobId(1)).unwrap();
        jobs.get_mut(slot).unwrap().usage = UsageSnapshot { usage_ratio: 0.25 };

        let mut sense = ResolvedSense::default();
        sense.resolve(&registry, &mut jobs);
        assert!(jobs.get(slot).unwrap().has_metric);
        // Consumer of a full queue: summed signed pressure +1/2, sampled
        // once for both the sum and the fill pool.
        let mut fills = Vec::new();
        assert_eq!(sense.summed_pressure(slot.index(), Some(&mut fills)), 0.5);
        assert_eq!(fills, [1.0]);
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
        let mut sense = ResolvedSense::default();
        sense.resolve(&registry, &mut jobs);
        let entry = jobs.get_by_id(JobId(1)).unwrap();
        assert!(!entry.has_metric);
        assert_eq!(entry.class(), JobClass::Miscellaneous);
        assert!(sense.span.is_empty(), "no per-slot table without queues");
    }

    /// The buffers a rebuild refills are cleared, never shrunk, so their
    /// capacity settles after the first one.
    #[test]
    fn context_buffers_are_reused_across_cycles() {
        let (mut jobs, _config) = table_with(&[
            (1, JobSpec::real_rate()),
            (2, JobSpec::miscellaneous()),
            (3, JobSpec::real_rate()),
        ]);
        let registry = MetricRegistry::new();
        registry.register(JobKey(1), Role::Consumer, full_queue(2));
        registry.register(JobKey(3), Role::Producer, full_queue(2));
        registry.register(JobKey(3), Role::Consumer, full_queue(3));
        let mut sense = ResolvedSense::default();
        sense.resolve(&registry, &mut jobs);
        let caps = (sense.attachments.capacity(), sense.span.capacity());
        for _ in 0..100 {
            sense.resolve(&registry, &mut jobs);
        }
        assert_eq!(caps, (sense.attachments.capacity(), sense.span.capacity()));
        assert_eq!(sense.attachments.len(), 3);
        assert_eq!(sense.span, [(0, 1), (0, 0), (1, 2)]);
    }

    /// Fixed reservations keep their proportion and period (the default
    /// one when aperiodic), a visible metric promotes a miscellaneous job
    /// to real-rate, and a rebuild cycle actuates the fixed jobs first.
    #[test]
    fn classify_splits_fixed_from_adaptive_and_fixes_periods() {
        let registry = MetricRegistry::new();
        let config = ControllerConfig::default();
        let mut c = rebuilding(config, &registry);
        c.add_job(JobId(3), JobSpec::miscellaneous()).unwrap();
        c.add_job(
            JobId(1),
            JobSpec::real_time(Proportion::from_ppt(300), Period::from_millis(20)),
        )
        .unwrap();
        c.add_job(JobId(4), JobSpec::miscellaneous()).unwrap();
        c.add_job(
            JobId(2),
            JobSpec::aperiodic_real_time(Proportion::from_ppt(100)),
        )
        .unwrap();
        // Job 4 registered as miscellaneous but with a visible metric.
        registry.register(JobKey(4), Role::Consumer, full_queue(2));

        let out = run_cycles(&mut c, 1);
        let order: Vec<u64> = out
            .actuations
            .iter()
            .map(|a| c.job_of(a.slot).unwrap().0)
            .collect();
        assert_eq!(order, [1, 2, 3, 4], "fixed first, each half in slot order");
        let rt = out.actuations[0].reservation;
        assert_eq!(
            (rt.proportion.ppt(), rt.period),
            (300, Period::from_millis(20))
        );
        let aperiodic = out.actuations[1].reservation;
        assert_eq!(
            (aperiodic.proportion.ppt(), aperiodic.period),
            (100, Period::DEFAULT)
        );
        assert_eq!(c.job_class(JobId(3)), Some(JobClass::Miscellaneous));
        assert_eq!(c.job_class(JobId(4)), Some(JobClass::RealRate));
    }

    #[test]
    fn estimate_grows_desire_under_positive_pressure() {
        let (mut jobs, config) = table_with(&[(1, JobSpec::real_rate())]);
        let estimator = ProportionEstimator::new(&config);
        let entry = jobs.entry_at_mut(0).unwrap().2;
        let (mut q, mut desired) = (0.0, Proportion::ZERO);
        for _ in 0..20 {
            (q, desired) = entry.demand(&config.pid, &estimator, 0.5, 1.0, 0.01);
        }
        assert!(
            desired.ppt() > 100,
            "persistent +1/2 pressure must grow demand, got {}",
            desired.ppt()
        );
        assert!(q > 0.0);
    }

    #[test]
    fn estimate_reclaims_when_usage_is_low() {
        let (mut jobs, config) = table_with(&[(1, JobSpec::miscellaneous())]);
        let estimator = ProportionEstimator::new(&config);
        let entry = jobs.entry_at_mut(0).unwrap().2;
        entry.granted = Proportion::from_ppt(500);
        let (_, desired) = entry.demand(&config.pid, &estimator, MISC_PRESSURE, 0.1, 0.01);
        assert_eq!(
            desired.ppt(),
            500 - RECLAIM_PPT,
            "reclamation takes the −C branch"
        );
    }

    #[test]
    fn allocate_passes_through_when_capacity_suffices() {
        let registry = MetricRegistry::new();
        let config = ControllerConfig::default();
        let mut c = rebuilding(config, &registry);
        c.add_job(JobId(1), JobSpec::miscellaneous()).unwrap();
        // What Estimate desires for a fresh job...
        let (mut jobs, _) = table_with(&[(1, JobSpec::miscellaneous())]);
        let fresh = jobs.entry_at_mut(0).unwrap().2;
        let estimator = ProportionEstimator::new(&config);
        let (_, desired) = fresh.demand(&config.pid, &estimator, MISC_PRESSURE, 1.0, 0.01);
        // ...is granted unchanged: nothing to squish.
        let out = run_cycles(&mut c, 1);
        assert!(!squished(&out));
        assert!(out.quality_exceptions().is_empty());
        assert_eq!(out.actuations[0].reservation.proportion, desired);
    }

    #[test]
    fn allocate_squishes_on_overload_and_respects_the_threshold() {
        let registry = MetricRegistry::new();
        let config = ControllerConfig::default();
        let mut c = rebuilding(config, &registry);
        c.add_job(JobId(1), JobSpec::miscellaneous()).unwrap();
        c.add_job(JobId(2), JobSpec::miscellaneous()).unwrap();
        let mut out = run_cycles(&mut c, 1);
        for i in 2..=300 {
            if squished(&out) {
                break;
            }
            out = c.control_cycle_with_dt(i as f64 * 0.01, 0.01).clone();
        }
        assert!(squished(&out), "two greedy jobs must oversubscribe one CPU");
        assert!(out.total_granted_ppt <= OVERLOAD_THRESHOLD_PPT);
        assert!(
            out.actuations
                .iter()
                .all(|a| a.reservation.proportion.ppt() >= 1),
            "no starvation"
        );
    }

    #[test]
    fn place_is_a_noop_on_a_single_cpu() {
        let registry = MetricRegistry::new();
        let mut c = rebuilding(ControllerConfig::default(), &registry);
        c.add_job(JobId(1), JobSpec::miscellaneous()).unwrap();
        c.add_job(JobId(2), JobSpec::miscellaneous()).unwrap();
        for i in 1..=200 {
            let out = c.control_cycle_with_dt(i as f64 * 0.01, 0.01);
            assert!(!migrated(out));
            assert!(out.actuations.iter().all(|a| a.cpu == CpuId::ZERO));
        }
    }

    /// Three 300 ‰ jobs crowded onto cpu0 of two: the gap of 900 exceeds
    /// the bound, and moving one job (all are equally close to half the
    /// gap, so the first) leaves 600 vs 300.  That gap still exceeds the
    /// bound, but moving a 300 ‰ job cannot shrink it: no oscillation.
    #[test]
    fn place_migrates_one_job_when_imbalance_exceeds_the_bound() {
        let config = ControllerConfig::default().with_cpus(2);
        let grants = [Proportion::from_ppt(300); 3];
        let mut loads = vec![900, 0];
        let (from, to, gap) = imbalance(&loads, &config).unwrap();
        assert_eq!((from, to, gap), (0, 1, 900));
        assert_eq!(migrant(gap, grants.iter().copied().enumerate()), Some(0));
        loads = vec![600, 300];
        let (_, _, gap) = imbalance(&loads, &config).unwrap();
        assert_eq!(migrant(gap, grants[1..].iter().copied().enumerate()), None);
    }

    #[test]
    fn place_never_migrates_fixed_reservations() {
        let registry = MetricRegistry::new();
        let mut c = rebuilding(ControllerConfig::default().with_cpus(2), &registry);
        let spec = JobSpec::real_time(Proportion::from_ppt(600), Period::from_millis(10));
        c.add_job(JobId(1), spec).unwrap();
        // 600 vs 0 exceeds the bound, but a real-time job stays put.
        for i in 1..=20 {
            let out = c.control_cycle_with_dt(i as f64 * 0.01, 0.01);
            assert!(!migrated(out));
        }
        assert_eq!(c.cpu_of(JobId(1)), Some(CpuId(0)));
        assert_eq!(c.granted_total_ppt(), 600);
    }

    #[test]
    fn actuate_commits_grants_and_raises_quality_exceptions() {
        let registry = MetricRegistry::new();
        let mut c = rebuilding(ControllerConfig::default(), &registry);
        let reserved = OVERLOAD_THRESHOLD_PPT - 50;
        c.add_job(
            JobId(1),
            JobSpec::real_time(Proportion::from_ppt(reserved), Period::from_millis(10)),
        )
        .unwrap();
        c.add_job(JobId(2), JobSpec::miscellaneous()).unwrap();
        // The hog's demand outgrows the 50 ‰ left beside the reservation
        // until its pressure passes the exception bar.
        let mut out = run_cycles(&mut c, 1);
        let mut now = 0.01;
        for i in 2..=300 {
            if !out.quality_exceptions().is_empty() {
                break;
            }
            now = i as f64 * 0.01;
            out = c.control_cycle_with_dt(now, 0.01).clone();
        }
        let exceptions = out.quality_exceptions();
        assert_eq!(exceptions.len(), 1);
        assert_eq!(exceptions[0].job, JobId(2));
        assert_eq!(exceptions[0].time, now);
        // Squish event precedes quality exceptions.
        assert!(matches!(out.events[0], ControllerEvent::Squished { .. }));

        assert_eq!(out.actuations.len(), 2);
        let rt = out.actuations[0];
        assert_eq!(
            (c.job_of(rt.slot), rt.reservation.proportion.ppt()),
            (Some(JobId(1)), reserved)
        );
        let misc = out.actuations[1];
        assert!(misc.reservation.proportion.ppt() < exceptions[0].desired.ppt());
        // Grants were committed.
        assert_eq!(c.granted(JobId(2)), Some(misc.reservation.proportion));
        assert_eq!(
            out.total_granted_ppt,
            reserved + misc.reservation.proportion.ppt()
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
        let bar = QUALITY_EXCEPTION_PRESSURE;
        let ppt = Proportion::from_ppt;
        let raise = |desired, granted, q| {
            quality_exception(|| JobId(7), ppt(desired), ppt(granted), q, 0.5)
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
}
