//! The sample trace: named `(time, value)` series recorded during a run.
//!
//! # Storage model
//!
//! A [`Trace`] is a columnar, run-length store shaped for what a sampler
//! records: every series sampled once per round at one shared instant,
//! most of them repeating their previous value.
//!
//! - **Slots.** Consecutive samples with the same time bits, whatever their
//!   series, share one *slot*, and a slot's time is stored once.  The time
//!   column is itself run-length: slots on an arithmetic grid of whole
//!   microseconds (a sampler's cadence) are one 24 B run, and a time that
//!   is not a whole number of microseconds is a run of its own.
//! - **Series.** A series is a 40 B header holding its *open* runs.  Its
//!   closed runs live in two arenas shared by every series (in chunks of
//!   4 096 runs, so growing never copies), each run linked to the series'
//!   previous one:
//!   - a *value run* (16 B) is a value's bits and how many consecutive
//!     samples of the series repeat them.  Runs compare bits, not `==`:
//!     `0.0` and `-0.0` are different values and a NaN keeps its payload;
//!   - a *slot run* (16 B) is `per_slot` samples in each of `slots`
//!     consecutive slots.
//! - **Names** sit back to back in one string, found through an
//!   open-addressing hash index (8 B per series) at a series' first sample.
//!   Name order is built only when a reader asks for it.
//!
//! So a round that repeats the last one costs counter bumps and no
//! allocation.  A sample costs 16 B when its value differs from its
//! series' previous one, and another 16 B when its series' slot pattern
//! breaks: a round that skips the series, or that holds a different
//! number of its samples than the round before.  A series costs its
//! header, its name and its index entry.  A plain list of samples holds
//! 16 B per sample plus a growing `Vec`'s slack; a sampler's rounds, which
//! repeat most values and keep their pattern, cost a fraction of a byte
//! per sample (the `constant_rounds_cost_no_bytes_per_sample` test bounds
//! it).  Free-form [`Trace::record`] calls that move the time on every
//! sample can cost up to 56 B a sample, which only tests and small traces
//! do.
//!
//! Reads materialise: [`Trace::get`] and [`Trace::iter`] return owned
//! [`TimeSeries`] holding each series' samples in recording order.

use rrs_core::ControlLoop;
use rrs_metrics::timeseries::{Sample, TimeSeries};
use rrs_queue::{Attachment, MetricRegistry};
use rrs_scheduler::{Reservation, ThreadId};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{BuildHasher, Hasher, RandomState};
use std::mem::size_of;

/// "No run yet" in a series' links, and an empty index bucket.
const NONE: u32 = u32::MAX;

/// A dense handle to one series of a [`Trace`], from
/// [`Trace::series_id`]; recording through it skips the name lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SeriesId(u32);

/// A collection of named series recorded during a run, stored as
/// described in the [module documentation](self).
///
/// The simulator records allocations, queue fill levels and progress rates
/// under conventional names (`alloc/<job>`, `fill/<queue>`,
/// `rate/<job>`); workloads and benches may record arbitrary extra series.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The time column, run-length: slot `i`'s time is the `i`-th time
    /// these runs expand to.
    times: Vec<TimeRun>,
    /// Slots so far.
    slots: u32,
    /// The bits of the last slot's time.
    last_time: u64,
    /// The next sample opens a new slot whatever its time
    /// ([`Trace::close_epoch`]).
    sealed: bool,
    /// The series, in creation order; [`SeriesId`] indexes here.
    columns: Vec<Column>,
    /// Closed value runs of every series.
    values: Arena<ValueRun>,
    /// Closed slot runs of every series.
    slot_runs: Arena<SlotRun>,
    /// Every series' name, back to back.
    names: String,
    /// Open-addressing hash index over the names: a series per occupied
    /// bucket, [`NONE`] elsewhere; a power of two, at most half full.
    /// Only lookups probe it, so its (seeded) order is never observed.
    index: Vec<u32>,
    hasher: RandomState,
    total_samples: u64,
    fills: FillSeries,
}

/// One run of the time column.
#[derive(Debug, Clone, Copy)]
enum TimeRun {
    /// `slots` consecutive slots at `first_us + i·step_us` microseconds.
    Grid {
        first_us: u64,
        step_us: u64,
        slots: u32,
    },
    /// One slot at a time that is not a whole number of microseconds.
    Raw(f64),
}

/// One series: its name and its open runs.  The closed runs sit in the
/// trace's arenas, the newest one linked from here.
#[derive(Debug, Clone)]
struct Column {
    /// The name's byte range in [`Trace::names`].
    name: (u32, u32),
    /// The open value run: a value's bits and how many consecutive
    /// samples hold them (0 before the first sample).
    bits: u64,
    repeats: u32,
    /// The newest closed value run, or [`NONE`].
    last_value: u32,
    /// The open slot: the newest sample's slot and how many samples the
    /// series has in it (0 before the first sample).
    slot: u32,
    in_slot: u32,
    /// The newest closed slot run, or [`NONE`].
    last_slots: u32,
}

/// Closed runs of every series, in chunks of [`Arena::CHUNK`]: growing
/// never copies what is stored, and every chunk has one size, so a dropped
/// trace's chunks serve the next one whole (a doubling `Vec` leaves a
/// trail of ever larger freed blocks resident in the heap).
#[derive(Debug, Clone)]
struct Arena<T> {
    chunks: Vec<Vec<T>>,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self { chunks: Vec::new() }
    }
}

impl<T: Copy> Arena<T> {
    const CHUNK: usize = 4096;

    /// Appends `run` and returns its index.
    fn push(&mut self, run: T) -> u32 {
        let len = self.chunks.last().map_or(0, Vec::len);
        let at = (self.chunks.len().max(1) - 1) * Self::CHUNK + len;
        let at = u32::try_from(at)
            .ok()
            .filter(|&at| at != NONE)
            .expect("fewer than 2^32 - 1 runs");
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < Self::CHUNK => chunk.push(run),
            _ => {
                let mut chunk = Vec::with_capacity(Self::CHUNK);
                chunk.push(run);
                self.chunks.push(chunk);
            }
        }
        at
    }

    fn get_mut(&mut self, at: u32) -> Option<&mut T> {
        let at = at as usize;
        self.chunks
            .get_mut(at / Self::CHUNK)?
            .get_mut(at % Self::CHUNK)
    }

    /// A series' closed runs, oldest first, walked back from `newest`
    /// through `prev`.
    fn runs_of(&self, newest: u32, prev: impl Fn(&T) -> u32) -> Vec<T> {
        let mut runs = Vec::new();
        let mut at = newest as usize;
        while at != NONE as usize {
            let run = self.chunks[at / Self::CHUNK][at % Self::CHUNK];
            runs.push(run);
            at = prev(&run) as usize;
        }
        runs.reverse();
        runs
    }

    fn heap_bytes(&self) -> usize {
        self.chunks.capacity() * size_of::<Vec<T>>()
            + self.chunks.len() * Self::CHUNK * size_of::<T>()
    }
}

/// `count` consecutive samples of one series holding the value `bits`.
#[derive(Debug, Clone, Copy)]
struct ValueRun {
    bits: u64,
    count: u32,
    /// The series' previous value run, or [`NONE`].
    prev: u32,
}

/// `per_slot` samples of one series in each of the `slots` slots from
/// `first`.
#[derive(Debug, Clone, Copy)]
struct SlotRun {
    first: u32,
    slots: u32,
    per_slot: u32,
    /// The series' previous slot run, or [`NONE`].
    prev: u32,
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

/// Every job's share of the sample trace — the `alloc/<job>`,
/// `period/<job>` and `rate/<job>` series every host backend records — in
/// one table indexed by the job's [`rrs_core::JobSlot::index`], beside the
/// backend's own slot-indexed job table.
///
/// A row is 32 B: the three series handles, each looked up by name once,
/// at that series' first sample; the progress counter at the previous
/// sample; and the job's name as a byte range of one string that holds
/// every row's name back to back.  So admitting a job costs no allocation
/// of its own, only the amortised growth of the two tables.  A removed
/// job's name bytes stay behind until an admission would grow the string
/// while at least half of it is such leftovers; it packs the string
/// instead.
#[derive(Debug, Default)]
pub struct JobSeries {
    rows: Vec<SeriesRow>,
    /// Every row's name, back to back, with removed rows' bytes between.
    names: String,
    /// Bytes of `names` no row refers to.
    garbage: usize,
}

/// One job's row of [`JobSeries`].
#[derive(Debug, Clone, Copy)]
struct SeriesRow {
    /// Handles into the trace being sampled, indexed like
    /// [`JobSeries::KINDS`]; [`NONE`] until the series' first sample.
    ids: [u32; 3],
    /// The name's byte range in [`JobSeries::names`]; empty for a free
    /// row.
    name: (u32, u32),
    /// The progress counter at the previous sample (`rate/` is its
    /// difference quotient).
    last_progress: f64,
}

impl SeriesRow {
    const FREE: SeriesRow = SeriesRow {
        ids: [NONE; 3],
        name: (0, 0),
        last_progress: 0.0,
    };

    fn name_len(&self) -> usize {
        (self.name.1 - self.name.0) as usize
    }

    /// The row's name in `names`, its table's string.
    fn name_in<'a>(&self, names: &'a str) -> &'a str {
        &names[self.name.0 as usize..self.name.1 as usize]
    }
}

impl JobSeries {
    const KINDS: [&str; 3] = ["alloc/", "period/", "rate/"];
    const ALLOC: usize = 0;
    const PERIOD: usize = 1;
    const RATE: usize = 2;

    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gives the job at slot `index` the series of the job called `name`,
    /// with no sample taken yet.  Whatever the row held before is
    /// forgotten.
    pub fn insert(&mut self, index: usize, name: &str) {
        self.insert_row(index, name, 0.0);
    }

    /// Frees the row at slot `index` (a no-op for a row never inserted).
    pub fn remove(&mut self, index: usize) {
        if let Some(row) = self.rows.get_mut(index) {
            self.garbage += row.name_len();
            *row = SeriesRow::FREE;
        }
    }

    /// Moves the row at `index` to slot `to_index` of `to`, a table
    /// sampling a *different* trace (the sharded simulator moves jobs
    /// between shards): the handles into the old trace are dropped, the
    /// name and the progress baseline travel.
    pub(crate) fn move_to(&mut self, index: usize, to: &mut JobSeries, to_index: usize) {
        let row = self.rows[index];
        to.insert_row(to_index, row.name_in(&self.names), row.last_progress);
        self.remove(index);
    }

    fn insert_row(&mut self, index: usize, name: &str, last_progress: f64) {
        self.remove(index);
        if self.names.len() + name.len() > self.names.capacity()
            && self.garbage > 0
            && 2 * self.garbage >= self.names.len()
        {
            self.pack();
        }
        if self.rows.len() <= index {
            self.rows.resize(index + 1, SeriesRow::FREE);
        }
        let start = self.names.len();
        self.names.push_str(name);
        let offset = |at: usize| u32::try_from(at).expect("job names fit in 4 GiB");
        self.rows[index] = SeriesRow {
            ids: [NONE; 3],
            name: (offset(start), offset(self.names.len())),
            last_progress,
        };
    }

    /// Drops the removed rows' name bytes, into a string of the same
    /// capacity: at least half of it is free again.
    #[cold]
    fn pack(&mut self) {
        let mut names = String::with_capacity(self.names.capacity());
        for row in &mut self.rows {
            let start = names.len() as u32;
            names.push_str(row.name_in(&self.names));
            row.name = (start, names.len() as u32);
        }
        self.names = names;
        self.garbage = 0;
    }

    /// Takes one sample at `time` (seconds) for the job at slot `index`:
    /// its reserved proportion (ppt) and period (ms) if it holds a
    /// reservation, and the rate of its progress counter over the
    /// `interval` (seconds) since the previous sample if its work model
    /// reports one.
    ///
    /// # Panics
    ///
    /// Panics if no row was inserted at `index`.
    pub fn sample(
        &mut self,
        index: usize,
        trace: &mut Trace,
        time: f64,
        interval: f64,
        reservation: Option<Reservation>,
        progress: Option<f64>,
    ) {
        let Self { rows, names, .. } = self;
        let row = &mut rows[index];
        let name = row.name_in(names);
        let mut push = |kind: usize, value: f64| {
            if row.ids[kind] == NONE {
                row.ids[kind] = trace.series_id(Self::KINDS[kind], name).0;
            }
            trace.record_at(SeriesId(row.ids[kind]), Sample { time, value });
        };
        if let Some(r) = reservation {
            push(Self::ALLOC, r.proportion.ppt() as f64);
            push(Self::PERIOD, r.period.as_secs_f64() * 1e3);
        }
        if let Some(progress) = progress {
            let rate = (progress - row.last_progress) / interval;
            push(Self::RATE, rate);
            row.last_progress = progress;
        }
    }

    /// Takes the sample round both backends take at `time` (seconds):
    /// [`JobSeries::sample`] for every row whose slot `ctl` holds a job
    /// in, in slot order, then every registered queue's `fill/` level,
    /// once per metric name.  `progress(index)` reads the progress
    /// counter of the job at slot index `index`; `interval` (seconds) is
    /// what its `rate/` sample divides by.  Every read of a [`Trace`] goes
    /// by name, so the walk's order shows only where jobs of one name
    /// share a series: as the order of their samples within a round.
    pub fn sample_round(
        &mut self,
        trace: &mut Trace,
        ctl: &ControlLoop,
        time: f64,
        interval: f64,
        mut progress: impl FnMut(usize) -> Option<f64>,
    ) {
        let controller = ctl.controller();
        for index in 0..self.rows.len() {
            let Some(slot) = controller.slot_at(index as u32) else {
                continue;
            };
            let job = controller.job_of(slot).expect("a live slot holds a job");
            let reservation = ctl.reservation(slot, ThreadId(job.0));
            self.sample(index, trace, time, interval, reservation, progress(index));
        }
        trace.record_fills(time, controller.registry());
    }
}

/// `time` as a whole number of microseconds, if it is exactly that
/// number's `us as f64 / 1e6` — as every clock reading a sampler takes is.
fn whole_micros(time: f64) -> Option<u64> {
    let us = (time * 1e6).round();
    if !(0.0..9.0e15).contains(&us) {
        return None;
    }
    let us = us as u64;
    ((us as f64 / 1e6).to_bits() == time.to_bits()).then_some(us)
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The handle of the series named `prefix` followed by `name`,
    /// creating it (empty) if needed.  A caller that samples the same
    /// series again and again resolves the name once, right before its
    /// first sample, and keeps the handle.
    pub(crate) fn series_id(&mut self, prefix: &str, name: &str) -> SeriesId {
        let bucket = match self.find(prefix, name) {
            Ok(id) => return SeriesId(id),
            Err(bucket) => bucket,
        };
        let id = u32::try_from(self.columns.len())
            .ok()
            .filter(|&id| id != NONE)
            .expect("fewer than 2^32 - 1 series");
        let start = self.names.len();
        self.names.push_str(prefix);
        self.names.push_str(name);
        let end = self.names.len();
        let offset = |at: usize| u32::try_from(at).expect("series names fit in 4 GiB");
        self.columns.push(Column {
            name: (offset(start), offset(end)),
            bits: 0,
            repeats: 0,
            last_value: NONE,
            slot: 0,
            in_slot: 0,
            last_slots: NONE,
        });
        if 2 * self.columns.len() > self.index.len() {
            self.rehash();
        } else {
            self.index[bucket] = id;
        }
        SeriesId(id)
    }

    /// The series named `prefix` followed by `name`, or the empty bucket
    /// its index entry would take.
    fn find(&self, prefix: &str, name: &str) -> Result<u32, usize> {
        if self.index.is_empty() {
            return Err(0);
        }
        let mask = self.index.len() - 1;
        let mut bucket = self.name_hash(prefix, name);
        loop {
            bucket &= mask;
            match self.index[bucket] {
                NONE => return Err(bucket),
                id => {
                    let stored = self.name_of(id);
                    if stored.len() == prefix.len() + name.len()
                        && stored.starts_with(prefix)
                        && &stored[prefix.len()..] == name
                    {
                        return Ok(id);
                    }
                }
            }
            bucket += 1;
        }
    }

    /// Rebuilds the name index at twice the series count (at least 16
    /// buckets).
    #[cold]
    fn rehash(&mut self) {
        let buckets = (2 * self.columns.len()).next_power_of_two().max(16);
        self.index.clear();
        self.index.resize(buckets, NONE);
        for id in 0..self.columns.len() as u32 {
            let mut bucket = self.name_hash("", self.name_of(id));
            loop {
                bucket &= buckets - 1;
                if self.index[bucket] == NONE {
                    self.index[bucket] = id;
                    break;
                }
                bucket += 1;
            }
        }
    }

    /// The hash of the name `prefix` followed by `name`: byte by byte, so
    /// it does not depend on where the name is split.
    fn name_hash(&self, prefix: &str, name: &str) -> usize {
        let mut hasher = self.hasher.build_hasher();
        for &byte in prefix.as_bytes().iter().chain(name.as_bytes()) {
            hasher.write_u8(byte);
        }
        hasher.finish() as usize
    }

    fn name_of(&self, id: u32) -> &str {
        let (start, end) = self.columns[id as usize].name;
        &self.names[start as usize..end as usize]
    }

    /// Appends a sample to the named series, creating it if needed.
    pub fn record(&mut self, name: &str, time_s: f64, value: f64) {
        let id = self.series_id("", name);
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
        let slot = self.slot_at(sample.time);
        self.push(id, slot, sample.value);
        self.total_samples += 1;
    }

    /// The slot a sample at `time` lands in: the last one if it holds the
    /// same time bits (and no epoch closed since), a new one otherwise.
    fn slot_at(&mut self, time: f64) -> u32 {
        let bits = time.to_bits();
        if self.slots > 0 && !self.sealed && bits == self.last_time {
            return self.slots - 1;
        }
        self.sealed = false;
        self.last_time = bits;
        let us = whole_micros(time);
        if !us.is_some_and(|us| self.extend_grid(us)) {
            self.times.push(match us {
                Some(us) => TimeRun::Grid {
                    first_us: us,
                    step_us: 0,
                    slots: 1,
                },
                None => TimeRun::Raw(time),
            });
        }
        let slot = self.slots;
        self.slots = slot
            .checked_add(1)
            .filter(|&n| n != NONE)
            .expect("fewer than 2^32 - 1 slots");
        slot
    }

    /// Adds a slot at `us` microseconds to the last time run if that run
    /// is a grid `us` continues (any later time continues a one-slot run).
    fn extend_grid(&mut self, us: u64) -> bool {
        let Some(TimeRun::Grid {
            first_us,
            step_us,
            slots,
        }) = self.times.last_mut()
        else {
            return false;
        };
        if *slots == 1 && us >= *first_us {
            *step_us = us - *first_us;
        } else if *slots == u32::MAX
            || step_us
                .checked_mul(*slots as u64)
                .and_then(|gap| gap.checked_add(*first_us))
                != Some(us)
        {
            return false;
        }
        *slots += 1;
        true
    }

    /// Appends `value` at `slot` to the series behind `id`: a counter bump
    /// when it repeats the series' previous value and slot pattern, one
    /// closed run per pattern that breaks.
    fn push(&mut self, id: SeriesId, slot: u32, value: f64) {
        let bits = value.to_bits();
        let column = &mut self.columns[id.0 as usize];
        if column.repeats == 0 {
            column.bits = bits;
            column.repeats = 1;
        } else if column.bits == bits && column.repeats < u32::MAX {
            column.repeats += 1;
        } else {
            let closed = ValueRun {
                bits: column.bits,
                count: column.repeats,
                prev: column.last_value,
            };
            column.last_value = self.values.push(closed);
            column.bits = bits;
            column.repeats = 1;
        }
        if column.in_slot == 0 {
            column.slot = slot;
            column.in_slot = 1;
        } else if column.slot == slot && column.in_slot < u32::MAX {
            column.in_slot += 1;
        } else {
            match self.slot_runs.get_mut(column.last_slots) {
                Some(run)
                    if run.first as u64 + run.slots as u64 == column.slot as u64
                        && run.per_slot == column.in_slot
                        && run.slots < u32::MAX =>
                {
                    run.slots += 1;
                }
                _ => {
                    let closed = SlotRun {
                        first: column.slot,
                        slots: 1,
                        per_slot: column.in_slot,
                        prev: column.last_slots,
                    };
                    column.last_slots = self.slot_runs.push(closed);
                }
            }
            column.slot = slot;
            column.in_slot = 1;
        }
    }

    /// Samples every registered queue's fill level into `fill/<queue>` at
    /// `time` (seconds), once per metric name however many jobs attach
    /// to it.  The queues are looked up again only when the registry's
    /// version has moved since the last sample; a trace samples one
    /// registry.
    pub(crate) fn record_fills(&mut self, time: f64, registry: &MetricRegistry) {
        let version = registry.version();
        if self.fills.version != Some(version) {
            self.resolve_fills(version, registry);
        }
        for i in 0..self.fills.series.len() {
            let (id, attachment) = &self.fills.series[i];
            let (id, value) = (*id, attachment.sample().fraction());
            self.record_at(id, Sample { time, value });
        }
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
                let id = self.series_id("fill/", name);
                series.push((id, attachment.clone()));
            }
        }
        self.fills = FillSeries {
            version: Some(version),
            series,
        };
    }

    /// Ends a merge epoch of the sharded machine: a later sample opens a
    /// new slot even at the last slot's time, so the slots counted so far
    /// (the number returned) hold exactly the samples recorded so far.
    /// Idempotent until the next sample.
    pub(crate) fn close_epoch(&mut self) -> u32 {
        self.sealed = true;
        self.slots
    }

    /// Every slot's time, in slot order.
    fn slot_times(&self) -> Vec<f64> {
        let mut times = Vec::with_capacity(self.slots as usize);
        for run in &self.times {
            match *run {
                TimeRun::Grid {
                    first_us,
                    step_us,
                    slots,
                } => times.extend((0..slots as u64).map(|i| (first_us + i * step_us) as f64 / 1e6)),
                TimeRun::Raw(time) => times.push(time),
            }
        }
        times
    }

    /// Calls `f(slot, sample)` for each sample of series `id`, in
    /// recording order; `times` is [`Trace::slot_times`].
    fn for_each_sample(&self, id: u32, times: &[f64], mut f: impl FnMut(u32, Sample)) {
        let column = &self.columns[id as usize];
        let values = self
            .values
            .runs_of(column.last_value, |r| r.prev)
            .into_iter()
            .map(|r| (r.bits, r.count))
            .chain(std::iter::once((column.bits, column.repeats)))
            .flat_map(|(bits, count)| std::iter::repeat_n(f64::from_bits(bits), count as usize));
        let slots = self
            .slot_runs
            .runs_of(column.last_slots, |r| r.prev)
            .into_iter()
            .flat_map(|r| {
                (r.first..r.first + r.slots)
                    .flat_map(move |slot| std::iter::repeat_n(slot, r.per_slot as usize))
            })
            .chain(std::iter::repeat_n(column.slot, column.in_slot as usize));
        for (slot, value) in slots.zip(values) {
            let time = times[slot as usize];
            f(slot, Sample { time, value });
        }
    }

    /// Series `id`, materialised.
    fn series(&self, id: u32, times: &[f64]) -> TimeSeries {
        let mut samples = Vec::new();
        self.for_each_sample(id, times, |_, sample| samples.push(sample));
        TimeSeries::from_samples(self.name_of(id), samples)
    }

    /// The series, in name order.
    fn name_order(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..self.columns.len() as u32).collect();
        ids.sort_unstable_by(|&a, &b| self.name_of(a).cmp(self.name_of(b)));
        ids
    }

    /// Monotonic count of samples ever recorded, across all series.
    pub fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// The heap bytes the store holds (capacity, not length), for
    /// footprint checks.
    pub fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * size_of::<T>()
        }
        bytes(&self.times)
            + bytes(&self.columns)
            + self.values.heap_bytes()
            + self.slot_runs.heap_bytes()
            + self.names.capacity()
            + bytes(&self.index)
            + bytes(&self.fills.series)
    }

    /// Returns the named series' samples, materialised, if it exists.
    pub fn get(&self, name: &str) -> Option<TimeSeries> {
        let id = self.find("", name).ok()?;
        Some(self.series(id, &self.slot_times()))
    }

    /// Returns the names of all recorded series, in name order.
    pub fn names(&self) -> Vec<String> {
        let order = self.name_order();
        order
            .into_iter()
            .map(|id| self.name_of(id).to_string())
            .collect()
    }

    /// Iterates over `(name, series)` pairs in name order, each series
    /// materialised as it is reached.
    pub fn iter(&self) -> impl Iterator<Item = (&str, TimeSeries)> {
        let times = self.slot_times();
        self.name_order()
            .into_iter()
            .map(move |id| (self.name_of(id), self.series(id, &times)))
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The sharded machine's cross-shard view of its shards' traces.
    ///
    /// `marks` holds one row per merge point that saw new samples, each
    /// row every shard's [`Trace::close_epoch`] in shard order.  A series
    /// takes, epoch by epoch and shard by shard, the samples that shard
    /// recorded under its name in that epoch; samples after the last row
    /// are not merged yet.  `fill/*` series come from shard 0 only: the
    /// registry is shared, so every shard samples every queue.
    pub(crate) fn merged(shards: &[&Trace], marks: &[u32]) -> Trace {
        let mut merged = Trace::new();
        let Some(last) = marks.len().checked_sub(shards.len()).map(|at| &marks[at..]) else {
            return merged;
        };
        let rows: Vec<&[u32]> = marks.chunks_exact(shards.len()).collect();
        let times: Vec<Vec<f64>> = shards.iter().map(|t| t.slot_times()).collect();
        let mut sources: BTreeMap<&str, Vec<(usize, u32)>> = BTreeMap::new();
        for (k, shard) in shards.iter().enumerate() {
            for id in 0..shard.columns.len() as u32 {
                let name = shard.name_of(id);
                if k == 0 || !name.starts_with("fill/") {
                    sources.entry(name).or_default().push((k, id));
                }
            }
        }
        let mut samples: Vec<(usize, usize, Sample)> = Vec::new();
        for (name, from) in sources {
            samples.clear();
            for (source, &(k, id)) in from.iter().enumerate() {
                shards[k].for_each_sample(id, &times[k], |slot, sample| {
                    if slot < last[k] {
                        let epoch = rows.partition_point(|row| row[k] <= slot);
                        samples.push((epoch, source, sample));
                    }
                });
            }
            if samples.is_empty() {
                continue;
            }
            // Stable: within one (epoch, shard) the shard's own order holds.
            samples.sort_by_key(|&(epoch, source, _)| (epoch, source));
            let id = merged.series_id("", name);
            for &(_, _, sample) in &samples {
                merged.record_at(id, sample);
            }
        }
        merged
    }
}

/// The store [`Trace`] replaced, kept as the equivalence oracle: one
/// `Vec<Sample>` per name behind a `BTreeMap`.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct Reference {
    series: BTreeMap<String, Vec<Sample>>,
    total_samples: u64,
}

#[cfg(test)]
impl Reference {
    pub(crate) fn record(&mut self, name: &str, time: f64, value: f64) {
        let series = self.series.entry(name.to_string()).or_default();
        series.push(Sample { time, value });
        self.total_samples += 1;
    }

    /// [`JobSeries::sample`] for the job called `name`, whose progress
    /// counter read `last_progress` at its previous sample.
    fn sample_job(
        &mut self,
        name: &str,
        last_progress: &mut f64,
        time: f64,
        interval: f64,
        reservation: Option<Reservation>,
        progress: Option<f64>,
    ) {
        if let Some(r) = reservation {
            self.record(&format!("alloc/{name}"), time, r.proportion.ppt() as f64);
            self.record(
                &format!("period/{name}"),
                time,
                r.period.as_secs_f64() * 1e3,
            );
        }
        if let Some(progress) = progress {
            let rate = (progress - *last_progress) / interval;
            *last_progress = progress;
            self.record(&format!("rate/{name}"), time, rate);
        }
    }

    /// [`Trace::record_fills`] without the resolved queues: every sample
    /// enumerates the registry and looks each name up.
    fn record_fills(&mut self, time: f64, registry: &MetricRegistry) {
        let mut seen = BTreeSet::new();
        for attachment in registry.all_attachments() {
            let name = attachment.metric.name().to_string();
            if seen.insert(name.clone()) {
                let value = attachment.sample().fraction();
                self.record(&format!("fill/{name}"), time, value);
            }
        }
    }

    /// Asserts that every read of `trace` returns exactly these samples,
    /// bit for bit and in this order.
    pub(crate) fn assert_read_back(&self, trace: &Trace) {
        let bits = |samples: &[Sample]| -> Vec<(u64, u64)> {
            samples
                .iter()
                .map(|s| (s.time.to_bits(), s.value.to_bits()))
                .collect()
        };
        let names: Vec<String> = self.series.keys().cloned().collect();
        assert_eq!(trace.names(), names);
        assert_eq!(trace.len(), self.series.len());
        assert_eq!(trace.is_empty(), self.series.is_empty());
        assert_eq!(trace.total_samples(), self.total_samples);
        let mut read = 0;
        for ((name, series), (want_name, want)) in trace.iter().zip(&self.series) {
            assert_eq!(name, want_name);
            assert_eq!(series.name(), want_name);
            assert_eq!(bits(series.samples()), bits(want), "{name}");
            let got = trace.get(name).expect("every listed series reads back");
            assert_eq!(bits(got.samples()), bits(want), "{name}");
            read += 1;
        }
        assert_eq!(read, self.series.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rrs_queue::{BoundedBuffer, JobKey, Role};
    use rrs_scheduler::{Period, Proportion};
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
        let z = by_id.series_id("", "z");
        let a = by_id.series_id("", "a");
        assert_eq!(
            by_id.series_id("", "z"),
            z,
            "resolving again finds the same series"
        );
        assert_eq!(by_id.series_id("a", ""), a, "prefix and name join");
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

    /// The sharded machine's view: epoch by epoch, then shard by shard,
    /// `fill/*` from shard 0 only, and nothing after the last mark.  An
    /// epoch that ends between two samples at the same time still splits
    /// them.
    #[test]
    fn merged_orders_by_epoch_then_shard() {
        let (mut a, mut b) = (Trace::new(), Trace::new());
        let mut marks = Vec::new();
        let mut close = |a: &mut Trace, b: &mut Trace| {
            marks.extend([a.close_epoch(), b.close_epoch()]);
        };
        a.record("x", 1.0, 1.0);
        b.record("x", 0.5, 2.0);
        b.record("fill/q", 0.5, 0.1);
        close(&mut a, &mut b);
        b.record("x", 1.0, 3.0);
        a.record("x", 1.0, 4.0);
        a.record("fill/q", 1.0, 0.2);
        close(&mut a, &mut b);
        a.record("x", 2.0, 5.0);
        let merged = Trace::merged(&[&a, &b], &marks);
        let x = merged.get("x").unwrap();
        assert_eq!(x.values(), [1.0, 2.0, 4.0, 3.0]);
        assert_eq!(
            x.iter().map(|(t, _)| t).collect::<Vec<_>>(),
            [1.0, 0.5, 1.0, 1.0]
        );
        assert_eq!(merged.get("fill/q").unwrap().values(), [0.2]);
        assert_eq!(merged.total_samples(), 5);
        assert!(Trace::merged(&[&a, &b], &[]).is_empty());
    }

    /// Runs that fill several arena chunks read back in order: every
    /// sample moves its series' value, and series `i` skips every
    /// `i + 2`-th round, so its slot pattern breaks too.
    #[test]
    fn runs_span_arena_chunks() {
        let (mut trace, mut reference) = (Trace::new(), Reference::default());
        for round in 0..3 * Arena::<ValueRun>::CHUNK as u64 {
            let time = (round * 1_000) as f64 / 1e6;
            for (i, name) in ["a", "b", "c"].into_iter().enumerate() {
                if round % (i as u64 + 2) != 0 {
                    let value = (round * 7 + i as u64) as f64;
                    trace.record(name, time, value);
                    reference.record(name, time, value);
                }
            }
        }
        assert!(trace.values.chunks.len() > 2 && trace.slot_runs.chunks.len() > 2);
        reference.assert_read_back(&trace);
    }

    #[test]
    fn whole_micros_round_trips_exactly() {
        assert_eq!(whole_micros(0.0), Some(0));
        assert_eq!(whole_micros(0.1), Some(100_000));
        assert_eq!(whole_micros(123_456_789_f64 / 1e6), Some(123_456_789));
        assert_eq!(whole_micros(1e-7), None);
        assert_eq!(whole_micros(0.1 + 0.2), None, "not any us / 1e6");
        for time in [-0.0, -1.0, f64::NAN, f64::INFINITY, 1e300] {
            assert_eq!(whole_micros(time), None, "{time}");
        }
    }

    #[test]
    fn fill_series_follow_the_registry() {
        let registry = MetricRegistry::new();
        let (mut resolved, mut reference) = (Trace::new(), Reference::default());
        let queue = |name: &str, capacity: usize, level: usize| {
            let q = Arc::new(BoundedBuffer::<u8>::new(name, capacity));
            for _ in 0..level {
                q.try_push(0).unwrap();
            }
            q
        };
        let mut time = 0.0;
        let mut sample = |resolved: &mut Trace, reference: &mut Reference| {
            resolved.record_fills(time, &registry);
            reference.record_fills(time, &registry);
            time += 0.1;
        };
        // Two jobs on "b" and one on "a": job 2's "b" comes first in
        // `all_attachments` order, so it is the one sampled.
        let b = queue("b", 8, 2);
        let a = queue("a", 4, 1);
        registry.register(JobKey(3), Role::Consumer, b.clone());
        registry.register(JobKey(2), Role::Producer, b.clone());
        registry.register(JobKey(5), Role::Producer, a.clone());
        sample(&mut resolved, &mut reference);
        a.try_push(0).unwrap();
        sample(&mut resolved, &mut reference);
        // A second queue that shares job 2's queue's name, and a new name
        // that sorts first.
        let other_b = queue("b", 2, 2);
        let c = queue("0c", 5, 4);
        registry.register(JobKey(1), Role::Consumer, other_b.clone());
        registry.register(JobKey(4), Role::Consumer, c);
        sample(&mut resolved, &mut reference);
        // Unregistering job 1 hands "b" back to the first queue.
        registry.unregister_job(JobKey(1));
        b.try_pop().unwrap();
        sample(&mut resolved, &mut reference);
        registry.unregister_job(JobKey(5));
        sample(&mut resolved, &mut reference);

        let order: Vec<&str> = (0..resolved.len() as u32)
            .map(|id| resolved.name_of(id))
            .collect();
        assert_eq!(order, ["fill/b", "fill/a", "fill/0c"]);
        reference.assert_read_back(&resolved);
        let b_fills: Vec<f64> = resolved.get("fill/b").unwrap().values();
        assert_eq!(b_fills, [0.25, 0.25, 1.0, 0.125, 0.125]);
        assert_eq!(resolved.get("fill/a").unwrap().len(), 4);
    }

    /// A removed row's name bytes are packed away before the string would
    /// grow, so a table whose rows are replaced again and again stays the
    /// size of its live names; a moved row keeps its name and progress
    /// baseline in the table it lands in, and resolves its series there.
    #[test]
    fn job_names_pack_and_travel() {
        let mut table = JobSeries::new();
        for i in 0..1000 {
            table.insert(i % 10, &format!("job{i}"));
        }
        let live: usize = (990..1000).map(|i| format!("job{i}").len()).sum();
        assert_eq!(table.names.len() - table.garbage, live);
        assert!(
            table.names.capacity() <= 4 * live,
            "{}",
            table.names.capacity()
        );
        table.remove(4);
        table.remove(4);
        assert_eq!(table.names.len() - table.garbage, live - "job994".len());

        let reservation = Reservation::new(Proportion::from_ppt(30), Period::from_millis(10));
        let (mut here, mut there) = (Trace::new(), Trace::new());
        table.sample(3, &mut here, 0.0, 1.0, Some(reservation), Some(10.0));
        let mut other = JobSeries::new();
        other.insert(0, "elsewhere");
        table.move_to(3, &mut other, 7);
        assert_eq!(table.rows[3].name_len(), 0);
        other.sample(7, &mut there, 1.0, 1.0, None, Some(30.0));
        assert_eq!(here.get("alloc/job993").unwrap().len(), 1);
        assert_eq!(there.names(), ["rate/job993"]);
        assert_eq!(there.get("rate/job993").unwrap().values(), [20.0]);
    }

    /// A sample round's walk order is not observable: the same rounds
    /// taken with the jobs at opposite slot indices, so their series are
    /// created in opposite orders, read back alike through every reader.
    #[test]
    fn a_rounds_job_order_does_not_show_in_the_trace() {
        let names = ["decoder", "audio", "renderer", "net"];
        let n = names.len();
        let (mut forward, mut backward) = (JobSeries::new(), JobSeries::new());
        for (i, name) in names.iter().enumerate() {
            forward.insert(i, name);
            backward.insert(n - 1 - i, name);
        }
        let (mut ft, mut bt) = (Trace::new(), Trace::new());
        for round in 0..6usize {
            let time = round as f64 * 0.1;
            let take = |job: usize| {
                let ppt = 10 * (job + 1) as u32 * (1 + round as u32 % 2);
                let reservation = (job != 1 || round > 2)
                    .then(|| Reservation::new(Proportion::from_ppt(ppt), Period::from_millis(10)));
                let progress = (job != 3).then(|| (job * round * round) as f64);
                (reservation, progress)
            };
            for i in 0..n {
                let (reservation, progress) = take(i);
                forward.sample(i, &mut ft, time, 0.1, reservation, progress);
            }
            for i in 0..n {
                let job = n - 1 - i;
                let (reservation, progress) = take(job);
                backward.sample(i, &mut bt, time, 0.1, reservation, progress);
            }
        }
        assert_eq!(ft.total_samples(), bt.total_samples());
        assert_eq!(ft.names(), bt.names());
        assert_eq!(ft.names().len(), 11);
        for name in ft.names() {
            let (f, b) = (ft.get(&name).unwrap(), bt.get(&name).unwrap());
            assert_eq!(f.samples(), b.samples(), "{name}");
        }
    }

    /// A resident job's row: three handles, the progress baseline and its
    /// name's byte range, with no allocation of its own.
    #[test]
    fn series_row_layout_budget() {
        assert!(std::mem::size_of::<SeriesRow>() <= 32);
    }

    /// The footprint guard: a sampler's rounds of constant reservations
    /// cost their run counters and nothing per sample.  64 jobs share one
    /// name (as `pipeline_blocking`'s decoders do) and 64 more have their
    /// own; 2 000 rounds of 256 samples stay under 1 byte per sample,
    /// where a list of samples holds 16.
    #[test]
    fn constant_rounds_cost_no_bytes_per_sample() {
        let mut trace = Trace::new();
        let mut jobs = JobSeries::new();
        for i in 0..128 {
            jobs.insert(
                i,
                &if i < 64 {
                    "decoder".into()
                } else {
                    format!("web{i}")
                },
            );
        }
        let reservation = Reservation::new(Proportion::from_ppt(30), Period::from_millis(10));
        for round in 0..2_000u64 {
            let time = (round * 100_000) as f64 / 1e6;
            for i in 0..128 {
                jobs.sample(i, &mut trace, time, 0.1, Some(reservation), None);
            }
        }
        assert_eq!(trace.total_samples(), 2_000 * 256);
        assert_eq!(trace.len(), 2 + 2 * 64);
        let per_sample = trace.heap_bytes() as f64 / trace.total_samples() as f64;
        assert!(per_sample < 1.0, "{per_sample} B per sample");
        let decoder = trace.get("alloc/decoder").unwrap();
        assert_eq!(decoder.len(), 2_000 * 64);
        assert_eq!(decoder.samples()[64 * 1999].time, 199.9);
        assert!(decoder.values().iter().all(|&v| v == 30.0));
    }

    /// Values a proptest op picks from: repeats, both zeros, NaNs with
    /// different payloads, and ordinary numbers.
    fn value(code: u64) -> f64 {
        match code % 8 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::from_bits(f64::NAN.to_bits() | 0x5),
            4 => 250.0,
            5 => 1.0 / 3.0,
            6 => (code / 8) as f64 * 0.5,
            _ => 250.0,
        }
    }

    /// Times a free-form `record` picks from: the current round's,
    /// earlier ones, both zeros, a NaN, and times that are not whole
    /// microseconds.
    fn free_time(code: u64, round_time: f64) -> f64 {
        match code % 7 {
            0 | 1 => round_time,
            2 => round_time - 0.35,
            3 => -0.0,
            4 => f64::NAN,
            5 => round_time + 1e-7,
            _ => (code % 5) as f64,
        }
    }

    proptest! {
        /// The columnar store reads back exactly what the name → `Vec`
        /// store it replaced holds, over random sequences of sampler
        /// rounds (jobs sharing names, jobs removed and re-added, queues
        /// registered and moving), free-form records (at non-monotone
        /// times, into the sampler's series too) and values chosen to
        /// repeat or to differ only in bits.
        #[test]
        fn columnar_store_matches_the_reference(
            ops in proptest::collection::vec((0u8..6, 0u64..1_000_000), 1..120),
        ) {
            const NAMES: [&str; 3] = ["decoder", "web", "capture"];
            let registry = MetricRegistry::new();
            let queues: Vec<_> = (0..3)
                .map(|k| Arc::new(BoundedBuffer::<u8>::new(format!("q{}", k % 2), 4)))
                .collect();
            let (mut trace, mut reference) = (Trace::new(), Reference::default());
            // Live jobs: the sampler's row (slots are reused, as a host's
            // are), the reference's progress baseline, and the name both
            // sample under.
            let mut table = JobSeries::new();
            let mut free: Vec<usize> = Vec::new();
            let mut jobs: Vec<(usize, f64, &str)> = Vec::new();
            let mut round = 0u64;
            for (op, arg) in ops {
                let round_time = (round * 100_000) as f64 / 1e6;
                match op {
                    0 => {
                        let name = NAMES[arg as usize % NAMES.len()];
                        let slot = free.pop().unwrap_or(jobs.len() + free.len());
                        table.insert(slot, name);
                        jobs.push((slot, 0.0, name));
                    }
                    1 if !jobs.is_empty() => {
                        let (slot, _, _) = jobs.remove(arg as usize % jobs.len());
                        table.remove(slot);
                        free.push(slot);
                    }
                    2 | 3 => {
                        round += 1;
                        let time = (round * 100_000) as f64 / 1e6;
                        for (i, (slot, last, name)) in jobs.iter_mut().enumerate() {
                            let pick = arg.rotate_left(7 * i as u32);
                            let reservation = (pick % 3 != 0).then(|| {
                                Reservation::new(
                                    Proportion::from_ppt((pick % 4) as u32 * 100),
                                    Period::from_millis(10),
                                )
                            });
                            let progress = (pick % 5 != 0).then(|| value(pick / 5));
                            table.sample(*slot, &mut trace, time, 0.1, reservation, progress);
                            reference.sample_job(name, last, time, 0.1, reservation, progress);
                        }
                        trace.record_fills(time, &registry);
                        reference.record_fills(time, &registry);
                    }
                    4 => {
                        let name = ["alloc/web", "x", "fill/q0"][arg as usize % 3];
                        let time = free_time(arg / 3, round_time);
                        let value = value(arg / 21);
                        trace.record(name, time, value);
                        reference.record(name, time, value);
                    }
                    _ => {
                        let queue = &queues[arg as usize % queues.len()];
                        match arg / 3 % 4 {
                            0 => {
                                registry.register(JobKey(arg % 5), Role::Consumer, queue.clone());
                            }
                            1 => {
                                registry.unregister_job(JobKey(arg % 5));
                            }
                            2 => {
                                let _ = queue.try_push(0);
                            }
                            _ => {
                                queue.try_pop();
                            }
                        }
                    }
                }
            }
            reference.assert_read_back(&trace);
        }
    }
}
