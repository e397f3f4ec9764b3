//! Fixed-bucket histogram with percentile queries.

use serde::{Deserialize, Serialize};

/// A histogram over a fixed range `[lo, hi)` with uniformly sized buckets.
///
/// Values below the range are clamped into the first bucket and values at or
/// above the range into the last bucket, so no sample is ever dropped.
///
/// # Examples
///
/// ```
/// use rrs_metrics::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 10);
/// for v in [1.0, 1.5, 2.0, 8.0] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(50.0) <= 3.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    count: u64,
    underflow_min: f64,
    overflow_max: f64,
}

impl Histogram {
    /// Creates a histogram covering `[lo, hi)` with `buckets` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `hi <= lo` or `buckets == 0`.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(buckets > 0, "histogram must have at least one bucket");
        Self {
            lo,
            hi,
            buckets: vec![0; buckets],
            count: 0,
            underflow_min: f64::INFINITY,
            overflow_max: f64::NEG_INFINITY,
        }
    }

    /// Records a value.
    pub fn record(&mut self, value: f64) {
        let idx = self.bucket_index(value);
        self.buckets[idx] += 1;
        self.count += 1;
        if value < self.lo {
            self.underflow_min = self.underflow_min.min(value);
        }
        if value >= self.hi {
            self.overflow_max = self.overflow_max.max(value);
        }
    }

    fn bucket_index(&self, value: f64) -> usize {
        if value < self.lo {
            return 0;
        }
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        let idx = ((value - self.lo) / width) as usize;
        idx.min(self.buckets.len() - 1)
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Approximates the `p`-th percentile (0–100) using the bucket midpoints.
    ///
    /// Returns 0.0 if the histogram is empty. `p` is clamped to `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 100.0);
        let target = (p / 100.0 * self.count as f64).ceil().max(1.0) as u64;
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return self.lo + width * (i as f64 + 0.5);
            }
        }
        self.hi
    }

    /// Merges another histogram with the same shape into this one.
    ///
    /// # Panics
    ///
    /// Panics if the ranges or bucket counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.lo, other.lo, "histogram ranges must match");
        assert_eq!(self.hi, other.hi, "histogram ranges must match");
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "histogram bucket counts must match"
        );
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.underflow_min = self.underflow_min.min(other.underflow_min);
        self.overflow_max = self.overflow_max.max(other.overflow_max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn records_land_in_expected_buckets() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.5);
        h.record(9.5);
        h.record(5.0);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[9], 1);
        assert_eq!(h.buckets[5], 1);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn out_of_range_values_are_clamped() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-5.0);
        h.record(100.0);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn percentile_of_empty_histogram_is_zero() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.percentile(50.0), 0.0);
    }

    #[test]
    fn percentile_ordering() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64);
        }
        let p10 = h.percentile(10.0);
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        assert!(p10 < p50 && p50 < p99);
        assert!((p50 - 49.5).abs() < 1.0);
    }

    #[test]
    fn merge_accumulates_counts() {
        let mut a = Histogram::new(0.0, 10.0, 10);
        let mut b = Histogram::new(0.0, 10.0, 10);
        a.record(1.0);
        b.record(2.0);
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
    }

    #[test]
    #[should_panic(expected = "histogram ranges must match")]
    fn merge_rejects_mismatched_ranges() {
        let mut a = Histogram::new(0.0, 10.0, 10);
        let b = Histogram::new(0.0, 5.0, 10);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "histogram range must be non-empty")]
    fn new_rejects_empty_range() {
        let _ = Histogram::new(1.0, 1.0, 4);
    }

    proptest! {
        #[test]
        fn count_equals_number_of_records(values in proptest::collection::vec(-100.0f64..100.0, 0..500)) {
            let mut h = Histogram::new(0.0, 50.0, 25);
            for &v in &values {
                h.record(v);
            }
            prop_assert_eq!(h.count(), values.len() as u64);
            let bucket_total: u64 = h.buckets.iter().sum();
            prop_assert_eq!(bucket_total, values.len() as u64);
        }

        #[test]
        fn percentiles_are_monotone(values in proptest::collection::vec(0.0f64..100.0, 1..300)) {
            let mut h = Histogram::new(0.0, 100.0, 50);
            for &v in &values {
                h.record(v);
            }
            let mut prev = f64::NEG_INFINITY;
            for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
                let q = h.percentile(p);
                prop_assert!(q >= prev);
                prev = q;
            }
        }
    }
}
