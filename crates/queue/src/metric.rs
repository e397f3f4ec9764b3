//! The progress-metric abstraction sampled by the controller.

use std::sync::Arc;

/// One observation of a progress metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FillSample {
    /// Current number of items (or bytes) in the queue.
    pub level: usize,
    /// Queue capacity in the same unit as `level`.
    pub capacity: usize,
}

impl FillSample {
    /// Creates a sample; `level` is clamped to `capacity`.
    pub fn new(level: usize, capacity: usize) -> Self {
        Self {
            level: level.min(capacity),
            capacity,
        }
    }

    /// Fill fraction in `[0, 1]`; an empty (zero-capacity) queue reports 0.5
    /// so that it exerts no pressure.
    pub fn fraction(&self) -> f64 {
        if self.capacity == 0 {
            0.5
        } else {
            self.level as f64 / self.capacity as f64
        }
    }

    /// The centred fill level `F_{t,i} ∈ [-1/2, 1/2]` of Figure 3:
    /// `fill/size − 1/2`.  Half-full is 0, full is +1/2, empty is −1/2.
    pub fn centered(&self) -> f64 {
        self.fraction() - 0.5
    }

    /// Returns `true` if the queue is completely full.
    pub fn is_full(&self) -> bool {
        self.capacity > 0 && self.level >= self.capacity
    }

    /// Returns `true` if the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.level == 0
    }
}

/// A source of progress observations.
///
/// Implemented by [`crate::BoundedBuffer`]; the controller only ever sees
/// this trait.
pub trait ProgressMetric: Send + Sync {
    /// Samples the current fill level.
    fn sample(&self) -> FillSample;

    /// A short human-readable name for traces and debugging.
    fn name(&self) -> &str {
        "progress-metric"
    }
}

/// A shareable, dynamically typed progress metric handle.
pub type SharedMetric = Arc<dyn ProgressMetric>;

impl<M: ProgressMetric + ?Sized> ProgressMetric for Arc<M> {
    fn sample(&self) -> FillSample {
        (**self).sample()
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// A fixed-value metric: the fake the registry and `Arc` delegation
/// tests sample.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct ConstantMetric {
    sample: FillSample,
    name: String,
}

#[cfg(test)]
impl ConstantMetric {
    /// Creates a metric that always reports `level` out of `capacity`.
    pub(crate) fn new(level: usize, capacity: usize) -> Self {
        Self {
            sample: FillSample::new(level, capacity),
            name: format!("constant({level}/{capacity})"),
        }
    }
}

#[cfg(test)]
impl ProgressMetric for ConstantMetric {
    fn sample(&self) -> FillSample {
        self.sample
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fraction_and_centering() {
        let half = FillSample::new(50, 100);
        assert_eq!(half.fraction(), 0.5);
        assert_eq!(half.centered(), 0.0);

        let full = FillSample::new(100, 100);
        assert_eq!(full.centered(), 0.5);
        assert!(full.is_full());

        let empty = FillSample::new(0, 100);
        assert_eq!(empty.centered(), -0.5);
        assert!(empty.is_empty());
    }

    #[test]
    fn level_is_clamped_to_capacity() {
        let s = FillSample::new(500, 100);
        assert_eq!(s.level, 100);
        assert!(s.is_full());
    }

    #[test]
    fn zero_capacity_exerts_no_pressure() {
        let s = FillSample::new(0, 0);
        assert_eq!(s.fraction(), 0.5);
        assert_eq!(s.centered(), 0.0);
        assert!(!s.is_full());
    }

    #[test]
    fn constant_metric_reports_fixed_sample() {
        let m = ConstantMetric::new(25, 100);
        assert_eq!(m.sample().fraction(), 0.25);
        assert!(m.name().contains("constant"));
    }

    #[test]
    fn arc_metric_delegates() {
        let m: SharedMetric = Arc::new(ConstantMetric::new(10, 20));
        assert_eq!(m.sample().fraction(), 0.5);
        assert!(m.name().contains("constant"));
    }

    proptest! {
        #[test]
        fn centered_is_in_half_open_band(level in 0usize..10_000, capacity in 1usize..10_000) {
            let s = FillSample::new(level, capacity);
            let c = s.centered();
            prop_assert!((-0.5..=0.5).contains(&c));
        }

        #[test]
        fn fraction_is_monotone_in_level(capacity in 1usize..1000, a in 0usize..1000, b in 0usize..1000) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let s_lo = FillSample::new(lo, capacity);
            let s_hi = FillSample::new(hi, capacity);
            prop_assert!(s_lo.fraction() <= s_hi.fraction() + 1e-12);
        }
    }
}
