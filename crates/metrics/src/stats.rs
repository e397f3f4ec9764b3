//! Scalar summary statistics.

use serde::{Deserialize, Serialize};

/// Summary statistics over a collection of values.
///
/// # Examples
///
/// ```
/// use rrs_metrics::TimeSeries;
///
/// let mut series = TimeSeries::new("samples");
/// for (t, v) in [1.0, 2.0, 3.0, 4.0].into_iter().enumerate() {
///     series.push(t as f64, v);
/// }
/// let s = series.summary();
/// assert_eq!(s.count, 4);
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of values.
    pub count: usize,
    /// Arithmetic mean (0.0 when empty).
    pub mean: f64,
    /// Population variance (0.0 when empty).
    pub variance: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Minimum value (0.0 when empty).
    pub min: f64,
    /// Maximum value (0.0 when empty).
    pub max: f64,
    /// Sum of all values.
    pub sum: f64,
}

impl Summary {
    /// Computes a summary from an iterator of values.
    pub(crate) fn from_values<I: IntoIterator<Item = f64>>(values: I) -> Self {
        let mut online = OnlineStats::new();
        for v in values {
            online.push(v);
        }
        online.summary()
    }

    /// Returns an all-zero summary for an empty collection.
    pub(crate) fn empty() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            variance: 0.0,
            stddev: 0.0,
            min: 0.0,
            max: 0.0,
            sum: 0.0,
        }
    }
}

/// Streaming (Welford) mean/variance accumulator behind
/// [`Summary::from_values`].
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub(crate) struct OnlineStats {
    count: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Adds a value.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = value - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Current mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 when empty).
    pub(crate) fn variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub(crate) fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum pushed value (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum pushed value (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Converts the accumulated state into a [`Summary`].
    pub fn summary(&self) -> Summary {
        if self.count == 0 {
            return Summary::empty();
        }
        Summary {
            count: self.count,
            mean: self.mean(),
            variance: self.variance(),
            stddev: self.stddev(),
            min: self.min(),
            max: self.max(),
            sum: self.sum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_summary_is_all_zero() {
        let s = Summary::from_values(std::iter::empty());
        assert_eq!(s, Summary::empty());
    }

    #[test]
    fn single_value_summary() {
        let s = Summary::from_values([42.0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
    }

    #[test]
    fn welford_matches_known_values() {
        let mut s = OnlineStats::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(v);
        }
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.variance(), 4.0);
        assert_eq!(s.stddev(), 2.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.summary().sum, 40.0);
    }

    proptest! {
        #[test]
        fn mean_is_bounded_by_min_and_max(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let s = Summary::from_values(values.iter().copied());
            prop_assert!(s.min <= s.mean + 1e-9);
            prop_assert!(s.mean <= s.max + 1e-9);
            prop_assert!(s.variance >= 0.0);
        }
    }
}
