//! Named time-series traces recorded during a simulation run.

use rrs_metrics::timeseries::{Sample, TimeSeries};
use rrs_queue::MetricRegistry;
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
    /// to it.
    pub fn record_fills(&mut self, time: f64, registry: &MetricRegistry) {
        let mut seen = BTreeSet::new();
        for attachment in registry.all_attachments() {
            let name = attachment.metric.name().to_string();
            if seen.insert(name.clone()) {
                self.record(
                    &format!("fill/{name}"),
                    time,
                    attachment.sample().fraction(),
                );
            }
        }
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
}
