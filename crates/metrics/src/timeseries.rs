//! Append-only time series of `(time, value)` samples.

use crate::stats::Summary;
use serde::{Deserialize, Serialize};

/// A single `(time, value)` sample.
///
/// Time is expressed in seconds from the start of the experiment; the value
/// is whatever quantity the experiment records (allocation in parts per
/// thousand, queue fill level, bytes per second, ...).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Sample timestamp in seconds.
    pub time: f64,
    /// Sample value.
    pub value: f64,
}

/// An append-only series of [`Sample`]s ordered by insertion.
///
/// The series does not require strictly increasing timestamps, but every
/// experiment in this workspace appends in time order, and the windowing
/// helpers assume that ordering.
///
/// # Examples
///
/// ```
/// use rrs_metrics::TimeSeries;
///
/// let mut ts = TimeSeries::new("fill-level");
/// ts.push(0.0, 0.5);
/// ts.push(1.0, 0.75);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.last().unwrap().value, 0.75);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    samples: Vec<Sample>,
}

impl TimeSeries {
    /// Creates an empty series with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            samples: Vec::new(),
        }
    }

    /// Creates a series holding `samples`, in their order.
    ///
    /// ```
    /// use rrs_metrics::timeseries::{Sample, TimeSeries};
    ///
    /// let ts = TimeSeries::from_samples("alloc", vec![Sample { time: 0.1, value: 200.0 }]);
    /// assert_eq!(ts.values(), [200.0]);
    /// ```
    pub fn from_samples(name: impl Into<String>, samples: Vec<Sample>) -> Self {
        Self {
            name: name.into(),
            samples,
        }
    }

    /// Returns the series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    pub fn push(&mut self, time: f64, value: f64) {
        self.samples.push(Sample { time, value });
    }

    /// Returns the number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Returns the samples as a slice.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Returns the last sample, if any.
    pub fn last(&self) -> Option<Sample> {
        self.samples.last().copied()
    }

    /// Returns the first sample, if any.
    pub fn first(&self) -> Option<Sample> {
        self.samples.first().copied()
    }

    /// Returns an iterator over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.samples.iter().map(|s| (s.time, s.value))
    }

    /// Returns the values only.
    pub fn values(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.value).collect()
    }

    /// Returns a summary of the sample values.
    pub fn summary(&self) -> Summary {
        Summary::from_values(self.samples.iter().map(|s| s.value))
    }

    /// Returns the sub-series with `start <= time < end`.
    ///
    /// Assumes samples were appended in non-decreasing time order.
    pub fn window(&self, start: f64, end: f64) -> TimeSeries {
        let samples = self
            .samples
            .iter()
            .filter(|s| s.time >= start && s.time < end)
            .copied()
            .collect();
        TimeSeries {
            name: format!("{}[{start:.3}..{end:.3}]", self.name),
            samples,
        }
    }

    /// Returns the mean value over `start <= time < end`, or `None` if the
    /// window is empty.
    pub fn window_mean(&self, start: f64, end: f64) -> Option<f64> {
        let w = self.window(start, end);
        if w.is_empty() {
            None
        } else {
            Some(w.summary().mean)
        }
    }

    /// Returns the value at the given time using zero-order hold (the value
    /// of the latest sample at or before `time`), or `None` if `time`
    /// precedes the first sample.
    pub fn value_at(&self, time: f64) -> Option<f64> {
        let mut result = None;
        for s in &self.samples {
            if s.time <= time {
                result = Some(s.value);
            } else {
                break;
            }
        }
        result
    }

    /// Returns the time of the first sample (at or after `from`) whose value
    /// satisfies `pred`, or `None` if none does.
    ///
    /// Used to measure controller response times: "when did the consumer's
    /// allocation first reach 90 % of its final value after the pulse?".
    pub fn first_time_where<F: Fn(f64) -> bool>(&self, from: f64, pred: F) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.time >= from && pred(s.value))
            .map(|s| s.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[(f64, f64)]) -> TimeSeries {
        let mut ts = TimeSeries::new("test");
        for &(t, v) in values {
            ts.push(t, v);
        }
        ts
    }

    #[test]
    fn push_and_len() {
        let ts = series(&[(0.0, 1.0), (1.0, 2.0)]);
        assert_eq!(ts.len(), 2);
        assert!(!ts.is_empty());
        assert_eq!(ts.first().unwrap().value, 1.0);
        assert_eq!(ts.last().unwrap().value, 2.0);
    }

    #[test]
    fn empty_series_has_no_first_or_last() {
        let ts = TimeSeries::new("empty");
        assert!(ts.is_empty());
        assert!(ts.first().is_none());
        assert!(ts.last().is_none());
        assert!(ts.value_at(1.0).is_none());
    }

    #[test]
    fn window_selects_half_open_interval() {
        let ts = series(&[(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)]);
        let w = ts.window(1.0, 3.0);
        assert_eq!(w.len(), 2);
        assert_eq!(w.values(), vec![2.0, 3.0]);
    }

    #[test]
    fn window_mean_of_empty_window_is_none() {
        let ts = series(&[(0.0, 1.0)]);
        assert!(ts.window_mean(5.0, 6.0).is_none());
        assert_eq!(ts.window_mean(0.0, 1.0), Some(1.0));
    }

    #[test]
    fn value_at_uses_zero_order_hold() {
        let ts = series(&[(0.0, 1.0), (2.0, 5.0)]);
        assert_eq!(ts.value_at(0.0), Some(1.0));
        assert_eq!(ts.value_at(1.0), Some(1.0));
        assert_eq!(ts.value_at(2.0), Some(5.0));
        assert_eq!(ts.value_at(10.0), Some(5.0));
        assert_eq!(ts.value_at(-1.0), None);
    }

    #[test]
    fn first_time_where_finds_threshold_crossing() {
        let ts = series(&[(0.0, 0.0), (1.0, 0.4), (2.0, 0.9), (3.0, 1.0)]);
        assert_eq!(ts.first_time_where(0.0, |v| v >= 0.9), Some(2.0));
        assert_eq!(ts.first_time_where(2.5, |v| v >= 0.9), Some(3.0));
        assert_eq!(ts.first_time_where(0.0, |v| v >= 2.0), None);
    }

    #[test]
    fn summary_reflects_values() {
        let ts = series(&[(0.0, 1.0), (1.0, 3.0)]);
        let s = ts.summary();
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }
}
