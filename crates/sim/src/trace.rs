//! Named time-series traces recorded during a simulation run.

use rrs_metrics::timeseries::{Sample, TimeSeries};
use rrs_queue::{Attachment, MetricRegistry};
use rrs_scheduler::Reservation;
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::BTreeSet;

/// A dense handle to one series of a [`Trace`], from
/// [`Trace::series_id`]; recording through it skips the name lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SeriesId(u32);

/// A collection of named [`TimeSeries`] recorded during a run.
///
/// The simulator records allocations, queue fill levels and progress rates
/// under conventional names (`alloc/<job>`, `fill/<queue>`,
/// `rate/<job>`); workloads and benches may record arbitrary extra series.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The series, in creation order; [`SeriesId`] indexes here.
    series: Vec<TimeSeries>,
    /// Name → position in `series`, and the name-ordered view.
    by_name: BTreeMap<String, u32>,
    total_samples: u64,
    fills: FillSeries,
}

/// What [`Trace::record_fills`] samples, resolved against one registry
/// version: for each distinct metric name, the first attachment and the
/// handle of its `fill/<name>` series in this trace.
#[derive(Debug, Clone, Default)]
struct FillSeries {
    /// The registry version `series` was resolved at; `None` before the
    /// first sample.
    version: Option<u64>,
    series: Vec<(SeriesId, Attachment)>,
}

/// One job's share of the sample trace — the `alloc/<job>`, `period/<job>`
/// and `rate/<job>` series every host backend records — with each series
/// name spelled and looked up once, at that series' first sample.
#[derive(Debug)]
pub struct JobSeries {
    name: String,
    /// Handles into the trace being sampled, indexed like
    /// [`JobSeries::KINDS`].
    ids: [Option<SeriesId>; 3],
    /// The progress counter at the previous sample (`rate/` is its
    /// difference quotient).
    last_progress: f64,
}

impl JobSeries {
    const KINDS: [&str; 3] = ["alloc", "period", "rate"];
    const ALLOC: usize = 0;
    const PERIOD: usize = 1;
    const RATE: usize = 2;

    /// The series of the job called `name`, with no sample taken yet.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            ids: [None; 3],
            last_progress: 0.0,
        }
    }

    /// Points the job at a *different* trace (the sharded simulator moves
    /// jobs between shards): the handles into the old trace are dropped,
    /// the progress baseline is kept.
    pub(crate) fn rebase(&mut self) {
        self.ids = [None; 3];
    }

    fn push(&mut self, trace: &mut Trace, kind: usize, sample: Sample) {
        let id = match self.ids[kind] {
            Some(id) => id,
            None => {
                let id = trace.series_id(&format!("{}/{}", Self::KINDS[kind], self.name));
                self.ids[kind] = Some(id);
                id
            }
        };
        trace.record_at(id, sample);
    }

    /// Takes one sample at `time` (seconds): the job's reserved proportion
    /// (ppt) and period (ms) if it holds a reservation, and the rate of its
    /// progress counter over the `interval` (seconds) since the previous
    /// sample if its work model reports one.
    pub fn sample(
        &mut self,
        trace: &mut Trace,
        time: f64,
        interval: f64,
        reservation: Option<Reservation>,
        progress: Option<f64>,
    ) {
        let at = |value: f64| Sample { time, value };
        if let Some(r) = reservation {
            self.push(trace, Self::ALLOC, at(r.proportion.ppt() as f64));
            self.push(trace, Self::PERIOD, at(r.period.as_secs_f64() * 1e3));
        }
        if let Some(progress) = progress {
            let rate = (progress - self.last_progress) / interval;
            self.last_progress = progress;
            self.push(trace, Self::RATE, at(rate));
        }
    }
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The handle of the named series, creating it (empty) if needed.  A
    /// caller that samples the same series again and again resolves the
    /// name once, right before its first sample, and keeps the handle.
    pub(crate) fn series_id(&mut self, name: &str) -> SeriesId {
        match self.by_name.entry(name.to_string()) {
            Entry::Occupied(entry) => SeriesId(*entry.get()),
            Entry::Vacant(entry) => {
                let id = u32::try_from(self.series.len()).expect("fewer than 2^32 series");
                self.series.push(TimeSeries::new(name));
                SeriesId(*entry.insert(id))
            }
        }
    }

    /// Appends a sample to the named series, creating it if needed.
    pub fn record(&mut self, name: &str, time_s: f64, value: f64) {
        // Look up by `&str` first: only a series' first sample pays for
        // the owned key `series_id` builds.
        let id = match self.by_name.get(name) {
            Some(&id) => SeriesId(id),
            None => self.series_id(name),
        };
        self.record_at(
            id,
            Sample {
                time: time_s,
                value,
            },
        );
    }

    /// Appends a sample to the series behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from another trace with more series than this
    /// one.
    pub(crate) fn record_at(&mut self, id: SeriesId, sample: Sample) {
        self.series[id.0 as usize].push(sample.time, sample.value);
        self.total_samples += 1;
    }

    /// Samples every registered queue's fill level into `fill/<queue>` at
    /// `time` (seconds), once per metric name however many jobs attach
    /// to it.  The queues are looked up again only when the registry's
    /// version has moved since the last sample; a trace samples one
    /// registry.
    pub fn record_fills(&mut self, time: f64, registry: &MetricRegistry) {
        let version = registry.version();
        if self.fills.version != Some(version) {
            self.resolve_fills(version, registry);
        }
        let Self {
            series,
            fills,
            total_samples,
            ..
        } = self;
        for (id, attachment) in &fills.series {
            series[id.0 as usize].push(time, attachment.sample().fraction());
        }
        *total_samples += fills.series.len() as u64;
    }

    /// Re-resolves [`Trace::record_fills`]' queues at registry `version`:
    /// the first attachment of each metric name, in
    /// [`MetricRegistry::all_attachments`] order, each with its series
    /// (created, empty, if this is its first sample).
    #[cold]
    fn resolve_fills(&mut self, version: u64, registry: &MetricRegistry) {
        let attachments = registry.all_attachments();
        let mut seen = BTreeSet::new();
        let mut series = Vec::new();
        for attachment in &attachments {
            let name = attachment.metric.name();
            if seen.insert(name) {
                let id = self.series_id(&format!("fill/{name}"));
                series.push((id, attachment.clone()));
            }
        }
        self.fills = FillSeries {
            version: Some(version),
            series,
        };
    }

    /// Monotonic count of samples ever recorded, across all series.
    ///
    /// Lets a reader that folds traces incrementally (the sharded
    /// machine's barrier merge) detect "nothing new since last look"
    /// with one comparison instead of walking every series.
    pub(crate) fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// Returns the named series, if it exists.
    pub fn get(&self, name: &str) -> Option<&TimeSeries> {
        self.by_name.get(name).map(|&id| &self.series[id as usize])
    }

    /// Returns the names of all recorded series.
    pub fn names(&self) -> Vec<String> {
        self.by_name.keys().cloned().collect()
    }

    /// Iterates over `(name, series)` pairs in name order, without
    /// cloning.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TimeSeries)> {
        self.by_name
            .iter()
            .map(|(name, &id)| (name.as_str(), &self.series[id as usize]))
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_queue::{BoundedBuffer, JobKey, Role};
    use std::sync::Arc;

    #[test]
    fn record_and_get() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.record("alloc/consumer", 0.0, 100.0);
        t.record("alloc/consumer", 0.1, 150.0);
        t.record("fill/q", 0.0, 0.5);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get("alloc/consumer").unwrap().len(), 2);
        assert!(t.get("missing").is_none());
        assert_eq!(
            t.names(),
            vec!["alloc/consumer".to_string(), "fill/q".to_string()]
        );
    }

    #[test]
    fn recording_by_id_is_recording_by_name() {
        let mut by_name = Trace::new();
        let mut by_id = Trace::new();
        // Created out of name order, so position and name order differ.
        let z = by_id.series_id("z");
        let a = by_id.series_id("a");
        assert_eq!(
            by_id.series_id("z"),
            z,
            "resolving again finds the same series"
        );
        for (i, (name, id)) in [("z", z), ("a", a), ("z", z)].into_iter().enumerate() {
            by_name.record(name, i as f64, 10.0 * i as f64);
            by_id.record_at(
                id,
                Sample {
                    time: i as f64,
                    value: 10.0 * i as f64,
                },
            );
        }
        assert_eq!(by_id.total_samples(), 3);
        assert_eq!(by_id.names(), by_name.names());
        assert_eq!(by_id.names(), vec!["a".to_string(), "z".to_string()]);
        for (x, y) in by_id.iter().zip(by_name.iter()) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.samples(), y.1.samples());
        }
        assert_eq!(by_id.get("z").unwrap().len(), 2);
    }

    /// `record_fills` as it was before it kept its queues resolved:
    /// every sample enumerates the registry and looks each name up.
    fn record_fills_by_name(trace: &mut Trace, time: f64, registry: &MetricRegistry) {
        let mut seen = BTreeSet::new();
        for attachment in registry.all_attachments() {
            let name = attachment.metric.name().to_string();
            if seen.insert(name.clone()) {
                trace.record(
                    &format!("fill/{name}"),
                    time,
                    attachment.sample().fraction(),
                );
            }
        }
    }

    #[test]
    fn fill_series_follow_the_registry() {
        let registry = MetricRegistry::new();
        let (mut resolved, mut by_name) = (Trace::new(), Trace::new());
        let queue = |name: &str, capacity: usize, level: usize| {
            let q = Arc::new(BoundedBuffer::<u8>::new(name, capacity));
            for _ in 0..level {
                q.try_push(0).unwrap();
            }
            q
        };
        let mut time = 0.0;
        let mut sample = |resolved: &mut Trace, by_name: &mut Trace| {
            resolved.record_fills(time, &registry);
            record_fills_by_name(by_name, time, &registry);
            time += 0.1;
        };
        // Two jobs on "b" and one on "a": job 2's "b" comes first in
        // `all_attachments` order, so it is the one sampled.
        let b = queue("b", 8, 2);
        let a = queue("a", 4, 1);
        registry.register(JobKey(3), Role::Consumer, b.clone());
        registry.register(JobKey(2), Role::Producer, b.clone());
        registry.register(JobKey(5), Role::Producer, a.clone());
        sample(&mut resolved, &mut by_name);
        a.try_push(0).unwrap();
        sample(&mut resolved, &mut by_name);
        // A second queue that shares job 2's queue's name, and a new name
        // that sorts first.
        let other_b = queue("b", 2, 2);
        let c = queue("0c", 5, 4);
        registry.register(JobKey(1), Role::Consumer, other_b.clone());
        registry.register(JobKey(4), Role::Consumer, c);
        sample(&mut resolved, &mut by_name);
        // Unregistering job 1 hands "b" back to the first queue.
        registry.unregister_job(JobKey(1));
        b.try_pop().unwrap();
        sample(&mut resolved, &mut by_name);
        registry.unregister_job(JobKey(5));
        sample(&mut resolved, &mut by_name);

        let order =
            |t: &Trace| -> Vec<String> { t.series.iter().map(|s| s.name().to_string()).collect() };
        assert_eq!(order(&resolved), ["fill/b", "fill/a", "fill/0c"]);
        assert_eq!(order(&resolved), order(&by_name));
        assert_eq!(resolved.names(), by_name.names());
        assert_eq!(resolved.total_samples(), by_name.total_samples());
        for ((x, xs), (y, ys)) in resolved.iter().zip(by_name.iter()) {
            assert_eq!(x, y);
            assert_eq!(xs.samples(), ys.samples(), "{x}");
        }
        let b_fills: Vec<f64> = resolved.get("fill/b").unwrap().values();
        assert_eq!(b_fills, [0.25, 0.25, 1.0, 0.125, 0.125]);
        assert_eq!(resolved.get("fill/a").unwrap().len(), 4);
    }
}
