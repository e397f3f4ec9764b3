//! Order statistics for timing samples.
//!
//! Timings on a shared box are long-tailed, so every timed number the
//! benchmark prints comes with its median, quartiles and sample count,
//! and a tail is the highest percentile that still has at least ten
//! samples beyond it.

/// Median, quartiles and count of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The `p`-th percentile (`0..=100`), linearly interpolated; 0 for an
/// empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    quantile_sorted(&sorted(samples), p / 100.0)
}

/// The median; 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest of p99.9 / p99 / p95 / p90 / p75 that has at least ten
/// samples beyond it, as `(percentile, value)`; `None` below 40 samples,
/// where none qualifies.
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len() as f64;
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n * (100.0 - p) / 100.0 >= 10.0)
        .map(|p| (p, percentile(samples, p)))
}

/// Summarises a sample set.
pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        n: s.len(),
        median: quantile_sorted(&s, 0.5),
        q1: quantile_sorted(&s, 0.25),
        q3: quantile_sorted(&s, 0.75),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s = summarize(&[5.0, 1.0, 2.0, 4.0, 3.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        assert_eq!(percentile(&[10.0, 20.0], 25.0), 12.5);
        assert_eq!(percentile(&[10.0, 20.0], 100.0), 20.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let ramp = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&ramp(19)), None);
        assert_eq!(tail_percentile(&ramp(40)).unwrap().0, 75.0);
        assert_eq!(tail_percentile(&ramp(100)).unwrap().0, 90.0);
        assert_eq!(tail_percentile(&ramp(200)).unwrap().0, 95.0);
        assert_eq!(tail_percentile(&ramp(999)).unwrap().0, 95.0);
        assert_eq!(tail_percentile(&ramp(1000)).unwrap().0, 99.0);
        let (p, v) = tail_percentile(&ramp(10_001)).unwrap();
        assert_eq!(p, 99.9);
        assert!((v - 9990.0).abs() < 1e-6);
    }
}
