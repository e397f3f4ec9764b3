//! Seeded input generation.
//!
//! The benchmark owns the seed: the program under test only ever sees
//! the generated job set (pipeline configurations, churn schedule), so
//! the same `--seed` reproduces the same inputs on any commit.

use rrs_workloads::{ServerConfig, VideoPipelineConfig};

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Poisson-distributed count with the given mean (Knuth's product
    /// method; the means used here are single digits).
    pub fn poisson(&mut self, mean: f64) -> usize {
        let limit = (-mean).exp();
        let mut k = 0;
        let mut p = self.unit();
        while p > limit {
            k += 1;
            p *= self.unit();
        }
        k
    }
}

/// One member of the `pipeline_blocking` job set.
#[derive(Debug, Clone, Copy)]
pub enum PipelineMember {
    Video(VideoPipelineConfig),
    Web(ServerConfig),
}

/// The `pipeline_blocking` job set: `videos` video pipelines and `webs`
/// web servers, each with its own rate and per-item cost so that clones
/// do not phase-lock on a shared period.
///
/// Frame rates are drawn from 24–60 fps, decode costs from 2–6 Mcycles
/// per frame and request rates from 50–150 Hz.  Decode costs and request
/// rates are then scaled so the set offers the same total load on every
/// seed (the mean of the ranges: 168 Mcycles/s of decoding per pipeline,
/// 100 requests/s per server).  A seed decides which pipelines are the
/// heavy ones, not how far over capacity the machine is; unscaled, the
/// offered load moved 5 % between seeds and every metric followed it.
pub fn pipeline_job_set(seed: u64, videos: usize, webs: usize) -> Vec<PipelineMember> {
    let mut rng = Rng::new(seed ^ 0x7069_7065);
    let mut video: Vec<VideoPipelineConfig> = (0..videos)
        .map(|_| VideoPipelineConfig {
            fps: rng.range(24.0, 60.0),
            decode_cycles_per_frame: rng.range(2.0e6, 6.0e6),
            ..VideoPipelineConfig::default()
        })
        .collect();
    let mut web: Vec<ServerConfig> = (0..webs)
        .map(|_| ServerConfig {
            arrival_rate_hz: rng.range(50.0, 150.0),
            ..ServerConfig::default()
        })
        .collect();
    let decode_hz: f64 = video
        .iter()
        .map(|v| v.fps * v.decode_cycles_per_frame)
        .sum();
    for v in &mut video {
        v.decode_cycles_per_frame *= videos as f64 * 42.0 * 4.0e6 / decode_hz;
    }
    let request_hz: f64 = web.iter().map(|w| w.arrival_rate_hz).sum();
    for w in &mut web {
        w.arrival_rate_hz *= webs as f64 * 100.0 / request_hz;
    }
    video
        .into_iter()
        .map(PipelineMember::Video)
        .chain(web.into_iter().map(PipelineMember::Web))
        .collect()
}

/// Churn applied at one chunk edge of `sharded_churn`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnStep {
    /// Jobs to add.
    pub adds: usize,
    /// One draw per removal: `(skewed, pick)`.  A skewed removal takes
    /// its victim from the lower half of the shards; `pick` selects
    /// among the candidates.
    pub removes: Vec<(bool, u64)>,
}

/// Share of removals aimed at the lower half of the shards, so load
/// drains unevenly and the rebalancer has something to do.
const REMOVE_SKEW: f64 = 0.9;

/// The `sharded_churn` schedule: Poisson adds and removes at every chunk
/// edge, `rate_per_chunk` of each on average.
pub fn churn_schedule(seed: u64, chunks: usize, rate_per_chunk: f64) -> Vec<ChurnStep> {
    let mut rng = Rng::new(seed ^ 0x6368_7572);
    (0..chunks)
        .map(|_| {
            let adds = rng.poisson(rate_per_chunk);
            let removes = (0..rng.poisson(rate_per_chunk))
                .map(|_| (rng.unit() < REMOVE_SKEW, rng.next_u64()))
                .collect();
            ChurnStep { adds, removes }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn video_key(m: &PipelineMember) -> (u64, u64) {
        match m {
            PipelineMember::Video(v) => (v.fps.to_bits(), v.decode_cycles_per_frame.to_bits()),
            PipelineMember::Web(w) => (w.arrival_rate_hz.to_bits(), 0),
        }
    }

    #[test]
    fn same_seed_same_job_set() {
        let a: Vec<_> = pipeline_job_set(7, 8, 4).iter().map(video_key).collect();
        let b: Vec<_> = pipeline_job_set(7, 8, 4).iter().map(video_key).collect();
        let c: Vec<_> = pipeline_job_set(8, 8, 4).iter().map(video_key).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(churn_schedule(7, 50, 5.0), churn_schedule(7, 50, 5.0));
        assert_ne!(churn_schedule(7, 50, 5.0), churn_schedule(8, 50, 5.0));
    }

    #[test]
    fn generated_values_stay_in_range() {
        for seed in 0..20 {
            let set = pipeline_job_set(seed, 64, 32);
            let (mut decode_hz, mut request_hz) = (0.0, 0.0);
            for m in set {
                match m {
                    PipelineMember::Video(v) => {
                        assert!((24.0..60.0).contains(&v.fps));
                        // 2–6 Mcycles before the load is evened out.
                        assert!((1.5e6..7.0e6).contains(&v.decode_cycles_per_frame));
                        decode_hz += v.fps * v.decode_cycles_per_frame;
                    }
                    PipelineMember::Web(w) => {
                        assert!((40.0..180.0).contains(&w.arrival_rate_hz));
                        request_hz += w.arrival_rate_hz;
                    }
                }
            }
            assert!((decode_hz / (64.0 * 168.0e6) - 1.0).abs() < 1e-9);
            assert!((request_hz / 3200.0 - 1.0).abs() < 1e-9);
        }
        let mean = churn_schedule(5, 2000, 5.0)
            .iter()
            .map(|s| s.adds)
            .sum::<usize>() as f64
            / 2000.0;
        assert!((mean - 5.0).abs() < 0.3, "poisson mean {mean}");
    }
}
