//! The meta-interface: registration of progress metrics with the scheduler.
//!
//! "When an application initializes a symbiotic interface ... the interface
//! creates a linkage to the kernel using a meta-interface system call that
//! registers the queue (or socket, etc.) and the application's use of that
//! queue (producer or consumer)" (§3.2).  `MetricRegistry` plays the role of
//! that kernel-side table: jobs register attachments, the controller
//! enumerates and samples them every controller period.
//!
//! Attachments are stored bucketed by job, under one lock.  Per-cycle
//! readers do not come here per sample: the controller's full Sense stage
//! visits each job's bucket via [`MetricRegistry::for_each_attachment`]
//! (`O(log jobs + attachments-of-job)`, without allocating) and keeps
//! clones of the attachments it found, and the trace sampler resolves its
//! `fill/<queue>` series the same way; both re-resolve only when
//! [`MetricRegistry::version`] moves, and otherwise sample the metrics
//! directly.

use crate::metric::{FillSample, SharedMetric};
use crate::role::Role;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifies a job (a collection of cooperating threads) to the registry.
///
/// The registry is deliberately agnostic about what a job is; the scheduler
/// and simulator map their own thread identifiers onto `JobKey`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobKey(pub u64);

/// Identifies one registered attachment (one `(job, metric, role)` linkage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttachmentId(u64);

/// One `(job, metric, role)` linkage.
#[derive(Clone)]
pub struct Attachment {
    /// The attachment identifier assigned at registration.
    pub id: AttachmentId,
    /// The job this attachment belongs to.
    pub job: JobKey,
    /// The job's role on the metric (producer or consumer).
    pub role: Role,
    /// The progress metric itself.
    pub metric: SharedMetric,
}

impl Attachment {
    /// Samples the metric and returns the observation.
    pub fn sample(&self) -> FillSample {
        self.metric.sample()
    }

    /// The signed, centred pressure contribution `R_{t,i} · F_{t,i}` of this
    /// attachment (Figure 3).
    pub(crate) fn signed_pressure(&self) -> f64 {
        self.role.sign() * self.sample().centered()
    }
}

impl std::fmt::Debug for Attachment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Attachment")
            .field("id", &self.id)
            .field("job", &self.job)
            .field("role", &self.role)
            .field("metric", &self.metric.name())
            .finish()
    }
}

/// The registry of progress-metric attachments (the meta-interface).
///
/// Cloning the registry is cheap; clones share the same underlying table, so
/// the simulator, the workloads and the controller can all hold a handle.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use rrs_queue::{BoundedBuffer, JobKey, MetricRegistry, Role};
///
/// let registry = MetricRegistry::new();
/// let queue = Arc::new(BoundedBuffer::<u32>::new("frames", 8));
/// registry.register(JobKey(1), Role::Producer, queue.clone());
/// registry.register(JobKey(2), Role::Consumer, queue);
/// assert!(registry.has_attachments(JobKey(2)));
/// assert_eq!(registry.len(), 2);
/// ```
#[derive(Clone, Default)]
pub struct MetricRegistry {
    inner: Arc<RegistryInner>,
}

#[derive(Default)]
struct RegistryInner {
    next_id: AtomicU64,
    version: AtomicU64,
    /// Attachments bucketed by owning job.
    table: RwLock<BTreeMap<JobKey, Vec<Attachment>>>,
}

impl MetricRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a `(job, role, metric)` linkage and returns its id.
    pub fn register(&self, job: JobKey, role: Role, metric: SharedMetric) -> AttachmentId {
        let id = AttachmentId(self.inner.next_id.fetch_add(1, Ordering::Relaxed));
        let attachment = Attachment {
            id,
            job,
            role,
            metric,
        };
        let mut table = self.inner.table.write();
        table.entry(job).or_default().push(attachment);
        self.inner.version.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// Removes every attachment belonging to `job` and returns how many were
    /// removed.  Called when a job exits.
    pub fn unregister_job(&self, job: JobKey) -> usize {
        let Some(bucket) = self.inner.table.write().remove(&job) else {
            return 0;
        };
        self.inner.version.fetch_add(1, Ordering::Relaxed);
        bucket.len()
    }

    /// A counter bumped on every [`register`](Self::register) and every
    /// successful [`unregister_job`](Self::unregister_job).  Callers that
    /// cache derived per-job state (e.g. "does this job have a progress
    /// metric?") can compare versions instead of re-enumerating the table.
    pub fn version(&self) -> u64 {
        self.inner.version.load(Ordering::Relaxed)
    }

    /// Visits every attachment of `job` without allocating.
    ///
    /// The registry's read lock is held for the duration of the call; do not
    /// register or unregister from inside `f`.
    pub fn for_each_attachment(&self, job: JobKey, mut f: impl FnMut(&Attachment)) {
        if let Some(bucket) = self.inner.table.read().get(&job) {
            for a in bucket {
                f(a);
            }
        }
    }

    /// Returns `true` if `job` has at least one registered attachment —
    /// the "progress metric visible" input to the Figure 2 taxonomy.
    pub fn has_attachments(&self, job: JobKey) -> bool {
        self.inner.table.read().contains_key(&job)
    }

    /// Returns every registered attachment, ordered by job then
    /// registration order.
    pub fn all_attachments(&self) -> Vec<Attachment> {
        self.inner
            .table
            .read()
            .values()
            .flatten()
            .cloned()
            .collect()
    }

    /// Returns the distinct jobs that currently have attachments.
    pub fn jobs(&self) -> Vec<JobKey> {
        self.inner.table.read().keys().copied().collect()
    }

    /// Returns the summed signed pressure `Σ_i R_{t,i} · F_{t,i}` for `job`,
    /// or `None` if the job has no attachments (i.e. no progress metric).
    /// Does not allocate.
    pub fn summed_pressure(&self, job: JobKey) -> Option<f64> {
        let table = self.inner.table.read();
        let bucket = table.get(&job)?;
        Some(bucket.iter().map(Attachment::signed_pressure).sum())
    }

    /// Number of registered attachments.
    pub fn len(&self) -> usize {
        self.inner.table.read().values().map(Vec::len).sum()
    }

    /// Returns `true` if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for MetricRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricRegistry")
            .field("attachments", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded::BoundedBuffer;
    use crate::metric::ConstantMetric;

    fn buffer(capacity: usize) -> Arc<BoundedBuffer<u32>> {
        Arc::new(BoundedBuffer::new("q", capacity))
    }

    #[test]
    fn register_and_enumerate() {
        let reg = MetricRegistry::new();
        let q = buffer(4);
        reg.register(JobKey(1), Role::Producer, q.clone());
        reg.register(JobKey(2), Role::Consumer, q);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.jobs(), vec![JobKey(1), JobKey(2)]);
        let count = |job| {
            let mut n = 0;
            reg.for_each_attachment(job, |_| n += 1);
            n
        };
        assert_eq!(count(JobKey(1)), 1);
        assert_eq!(count(JobKey(3)), 0);
        assert!(reg.has_attachments(JobKey(1)));
        assert!(!reg.has_attachments(JobKey(3)));
    }

    #[test]
    fn unregister_job_removes_every_attachment_of_the_job() {
        let reg = MetricRegistry::new();
        let q = buffer(4);
        reg.register(JobKey(1), Role::Producer, q.clone());
        reg.register(JobKey(1), Role::Consumer, q.clone());
        reg.register(JobKey(2), Role::Consumer, q);
        assert_eq!(reg.unregister_job(JobKey(1)), 2);
        assert_eq!(reg.unregister_job(JobKey(1)), 0);
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
        assert!(!reg.has_attachments(JobKey(1)));
    }

    #[test]
    fn version_bumps_on_every_mutation() {
        let reg = MetricRegistry::new();
        let v0 = reg.version();
        reg.register(JobKey(1), Role::Producer, buffer(4));
        assert!(reg.version() > v0);
        let v1 = reg.version();
        assert_eq!(reg.unregister_job(JobKey(1)), 1);
        assert!(reg.version() > v1);
        let v2 = reg.version();
        // Failed unregister leaves the version alone.
        assert_eq!(reg.unregister_job(JobKey(1)), 0);
        assert_eq!(reg.version(), v2);
    }

    #[test]
    fn clones_share_state() {
        let reg = MetricRegistry::new();
        let clone = reg.clone();
        clone.register(JobKey(7), Role::Consumer, buffer(2));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn signed_pressure_flips_for_producer() {
        let reg = MetricRegistry::new();
        let q = buffer(4);
        // Fill the queue completely: centred fill level = +1/2.
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        reg.register(JobKey(1), Role::Producer, q.clone());
        reg.register(JobKey(2), Role::Consumer, q);
        // Full queue: producer should slow down (negative), consumer speed up.
        assert_eq!(reg.summed_pressure(JobKey(1)), Some(-0.5));
        assert_eq!(reg.summed_pressure(JobKey(2)), Some(0.5));
    }

    #[test]
    fn summed_pressure_adds_multiple_queues() {
        let reg = MetricRegistry::new();
        // A pipeline stage that consumes from a full queue and produces into
        // an empty one is doubly behind: both terms push it positive.
        let full = Arc::new(ConstantMetric::new(100, 100));
        let empty = Arc::new(ConstantMetric::new(0, 100));
        reg.register(JobKey(5), Role::Consumer, full);
        reg.register(JobKey(5), Role::Producer, empty);
        let q = reg.summed_pressure(JobKey(5)).unwrap();
        assert_eq!(q, 1.0);
    }

    #[test]
    fn job_without_metrics_has_no_pressure() {
        let reg = MetricRegistry::new();
        assert_eq!(reg.summed_pressure(JobKey(9)), None);
    }

    #[test]
    fn for_each_attachment_visits_only_the_given_job() {
        let reg = MetricRegistry::new();
        let q = buffer(4);
        reg.register(JobKey(1), Role::Producer, q.clone());
        reg.register(JobKey(1), Role::Consumer, q.clone());
        reg.register(JobKey(2), Role::Consumer, q);
        let mut visited = 0;
        reg.for_each_attachment(JobKey(1), |a| {
            assert_eq!(a.job, JobKey(1));
            visited += 1;
        });
        assert_eq!(visited, 2);
        reg.for_each_attachment(JobKey(9), |_| visited += 100);
        assert_eq!(visited, 2);
    }

    #[test]
    fn attachment_debug_includes_metric_name() {
        let reg = MetricRegistry::new();
        reg.register(JobKey(1), Role::Consumer, buffer(2));
        let attachments = reg.all_attachments();
        let text = format!("{:?}", attachments[0]);
        assert!(text.contains("q"));
        assert!(format!("{reg:?}").contains("attachments"));
    }
}
