//! Shared per-request latency histograms.
//!
//! Request-serving workloads (the web server, interactive jobs) measure a
//! latency per unit of work: queueing-plus-service time per request,
//! keystroke-to-completion time per keystroke.  [`LatencyStats`] is the
//! `Arc`-shared sink those models record into — the model moves into the
//! host when installed, so the observer's half must be a shared handle,
//! the same split [`crate::ModemStats`] uses for the modem's counters.
//!
//! Recording is opt-in: models carry an `Option<Arc<LatencyStats>>` that
//! defaults to `None`, so uninstrumented installs pay nothing per
//! request.  The histogram itself reuses [`rrs_metrics::Histogram`];
//! percentile queries are bucket-midpoint approximations at 250 µs
//! resolution.

use rrs_metrics::Histogram;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// Upper edge of the latency histogram range, in microseconds.  Samples
/// at or above it are clamped into the last bucket (never dropped).
pub(crate) const LATENCY_RANGE_US: f64 = 1_000_000.0;

/// Number of uniform buckets over `[0, LATENCY_RANGE_US)`.
pub(crate) const LATENCY_BUCKETS: usize = 4000;

/// An `Arc`-shared latency histogram a workload records into.
#[derive(Debug)]
pub struct LatencyStats {
    hist: Mutex<Histogram>,
}

impl LatencyStats {
    /// Resolution of one bucket, in microseconds.
    #[cfg(test)]
    pub(crate) const BUCKET_WIDTH_US: f64 = LATENCY_RANGE_US / LATENCY_BUCKETS as f64;

    /// A fresh, shareable histogram over `[0, 1 s)` at 250 µs resolution.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            hist: Mutex::new(Histogram::new(0.0, LATENCY_RANGE_US, LATENCY_BUCKETS)),
        })
    }

    /// Records one latency sample, in microseconds.
    pub fn record_us(&self, us: u64) {
        self.hist
            .lock()
            .expect("latency lock poisoned")
            .record(us as f64);
    }

    /// Number of samples recorded so far.
    pub fn count(&self) -> u64 {
        self.hist.lock().expect("latency lock poisoned").count()
    }

    /// The `p`-th percentile (0–100) of the recorded latencies, in
    /// microseconds.  Returns 0 when nothing was recorded.
    pub fn percentile_us(&self, p: f64) -> f64 {
        self.hist
            .lock()
            .expect("latency lock poisoned")
            .percentile(p)
    }

    /// A serialisable summary of the distribution, labelled `source`.
    pub fn summary(&self, source: &str) -> LatencySummary {
        let hist = self.hist.lock().expect("latency lock poisoned");
        let pct = |p: f64| {
            if hist.count() == 0 {
                0.0
            } else {
                hist.percentile(p) / 1e3
            }
        };
        LatencySummary {
            source: source.to_string(),
            count: hist.count(),
            p50_ms: pct(50.0),
            p99_ms: pct(99.0),
            p999_ms: pct(99.9),
        }
    }
}

/// A point-in-time percentile summary of one [`LatencyStats`], as it
/// appears in scenario reports.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Which workload the samples came from (the member or job name).
    pub source: String,
    /// Number of samples.
    #[serde(default)]
    pub count: u64,
    /// Median latency in milliseconds.
    #[serde(default)]
    pub p50_ms: f64,
    /// 99th-percentile latency in milliseconds.
    #[serde(default)]
    pub p99_ms: f64,
    /// 99.9th-percentile latency in milliseconds.
    #[serde(default)]
    pub p999_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarises() {
        let stats = LatencyStats::new();
        assert_eq!(stats.count(), 0);
        assert_eq!(stats.percentile_us(99.0), 0.0);
        let empty = stats.summary("s");
        assert_eq!(empty.count, 0);
        assert_eq!(empty.p99_ms, 0.0);

        for us in [1_000u64, 2_000, 3_000, 100_000] {
            stats.record_us(us);
        }
        assert_eq!(stats.count(), 4);
        let p50 = stats.percentile_us(50.0);
        let p99 = stats.percentile_us(99.0);
        assert!(p50 < p99, "p50 {p50} < p99 {p99}");
        assert!((p99 - 100_000.0).abs() < LatencyStats::BUCKET_WIDTH_US);

        let summary = stats.summary("server");
        assert_eq!(summary.source, "server");
        assert_eq!(summary.count, 4);
        assert!(summary.p50_ms <= summary.p99_ms && summary.p99_ms <= summary.p999_ms);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let stats = LatencyStats::new();
        stats.record_us(5_000);
        let summary = stats.summary("typist");
        let json = serde_json::to_string(&summary).unwrap();
        let back: LatencySummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, summary);
    }

    #[test]
    fn oversized_samples_clamp_into_the_top_bucket() {
        let stats = LatencyStats::new();
        stats.record_us(10_000_000); // 10 s, far past the 1 s range
        assert_eq!(stats.count(), 1);
        assert!(stats.percentile_us(100.0) >= LATENCY_RANGE_US - LatencyStats::BUCKET_WIDTH_US);
    }
}
