//! Seeded, deterministic arrival processes.
//!
//! Scenario populations are driven by stochastic arrival processes rather
//! than hand-placed jobs, so a spec can scale to hundreds of transient
//! jobs from a few lines.  Every process is sampled with a splitmix64
//! generator seeded from the scenario, so a given `(spec, seed)` pair
//! always produces the identical run — the corpus is reproducible and CI
//! can assert on its SLOs.
//!
//! Time-varying processes ([`ArrivalProcess::Diurnal`],
//! [`ArrivalProcess::FlashCrowd`], [`ArrivalProcess::OnOff`]) are sampled
//! by Lewis–Shedler thinning: candidates are drawn from a homogeneous
//! Poisson process at the peak rate and accepted with probability
//! `rate(t) / peak`, which keeps the draw exact for any bounded rate
//! function.

use serde::{Deserialize, Serialize};

/// Deterministic splitmix64 generator used for arrival sampling.
#[derive(Debug, Clone)]
pub struct ArrivalRng {
    state: u64,
}

impl ArrivalRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Advances and returns 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub(crate) fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An exponentially distributed interarrival gap with the given rate
    /// (events per second).
    pub fn exp_gap(&mut self, rate_hz: f64) -> f64 {
        let u = self.unit_f64();
        // `1 - u` is in (0, 1], so the log is finite and non-positive.
        (-(1.0 - u).ln() / rate_hz).max(1e-9)
    }
}

/// A stochastic arrival process, in events per second.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at a fixed rate.
    Poisson {
        /// Mean arrival rate in events per second.
        rate_hz: f64,
    },
    /// Bursty on/off arrivals: Poisson at `rate_hz` for `on_s` seconds,
    /// silent for `off_s`, repeating.
    OnOff {
        /// Length of each burst, in seconds.
        on_s: f64,
        /// Length of each silence, in seconds.
        off_s: f64,
        /// Arrival rate during bursts, in events per second.
        rate_hz: f64,
    },
    /// A diurnal ramp: the rate swings sinusoidally from `base_hz` (at
    /// t = 0) up to `peak_hz` (half a "day" in) and back, with period
    /// `day_s`.
    Diurnal {
        /// Off-peak arrival rate in events per second.
        base_hz: f64,
        /// Peak arrival rate in events per second.
        peak_hz: f64,
        /// Length of one simulated "day", in seconds.
        day_s: f64,
    },
    /// A flash crowd: `base_hz` background arrivals with a rectangular
    /// spike to `spike_hz` during `[at_s, at_s + duration_s)`.
    FlashCrowd {
        /// Background arrival rate in events per second.
        base_hz: f64,
        /// When the crowd arrives, in seconds from the scenario start.
        at_s: f64,
        /// How long the crowd stays, in seconds.
        duration_s: f64,
        /// Arrival rate during the spike, in events per second.
        spike_hz: f64,
    },
}

/// Hard cap on the arrivals one `sample` call may produce, protecting
/// fuzzed specs from accidentally unbounded populations.
pub(crate) const MAX_ARRIVALS_PER_WINDOW: usize = 100_000;

impl ArrivalProcess {
    /// The instantaneous arrival rate at scenario time `t_s`.
    pub(crate) fn rate_at(&self, t_s: f64) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_hz } => rate_hz,
            ArrivalProcess::OnOff {
                on_s,
                off_s,
                rate_hz,
            } => {
                let cycle = on_s + off_s;
                if cycle <= 0.0 {
                    return 0.0;
                }
                let phase = t_s.rem_euclid(cycle);
                if phase < on_s {
                    rate_hz
                } else {
                    0.0
                }
            }
            ArrivalProcess::Diurnal {
                base_hz,
                peak_hz,
                day_s,
            } => {
                if day_s <= 0.0 {
                    return base_hz;
                }
                let swing = 0.5 * (1.0 - (2.0 * std::f64::consts::PI * t_s / day_s).cos());
                base_hz + (peak_hz - base_hz) * swing
            }
            ArrivalProcess::FlashCrowd {
                base_hz,
                at_s,
                duration_s,
                spike_hz,
            } => {
                if t_s >= at_s && t_s < at_s + duration_s {
                    spike_hz
                } else {
                    base_hz
                }
            }
        }
    }

    /// An upper bound on the rate over all time (the thinning envelope).
    pub(crate) fn peak_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_hz } => rate_hz,
            ArrivalProcess::OnOff { rate_hz, .. } => rate_hz,
            ArrivalProcess::Diurnal {
                base_hz, peak_hz, ..
            } => base_hz.max(peak_hz),
            ArrivalProcess::FlashCrowd {
                base_hz, spike_hz, ..
            } => base_hz.max(spike_hz),
        }
    }

    /// Samples the arrival instants in `[start_s, end_s)` with every rate
    /// scaled by `scale` (a phase's load multiplier), in ascending order.
    ///
    /// Sampling is exact thinning against the peak-rate envelope and fully
    /// determined by `rng`'s state.  At most
    /// `MAX_ARRIVALS_PER_WINDOW` arrivals are returned.
    pub fn sample(&self, rng: &mut ArrivalRng, start_s: f64, end_s: f64, scale: f64) -> Vec<f64> {
        let envelope = self.peak_rate() * scale;
        if envelope <= 0.0 || end_s <= start_s {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut t = start_s;
        loop {
            t += rng.exp_gap(envelope);
            if t >= end_s {
                break;
            }
            // Strict comparison: a zero-rate window (an OnOff silence, a
            // FlashCrowd off-period) must never emit an arrival, even when
            // the uniform draw is exactly 0.0.
            let accept = rng.unit_f64() * envelope;
            if accept < self.rate_at(t) * scale {
                out.push(t);
                if out.len() >= MAX_ARRIVALS_PER_WINDOW {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(process: ArrivalProcess, seed: u64, start: f64, end: f64) -> usize {
        let mut rng = ArrivalRng::new(seed);
        process.sample(&mut rng, start, end, 1.0).len()
    }

    #[test]
    fn poisson_rate_is_respected_on_average() {
        let p = ArrivalProcess::Poisson { rate_hz: 50.0 };
        let n = count(p, 7, 0.0, 20.0);
        // 1000 expected; a 20 % band is ~6 sigma.
        assert!((800..=1200).contains(&n), "got {n} arrivals");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let p = ArrivalProcess::Poisson { rate_hz: 10.0 };
        let mut a = ArrivalRng::new(42);
        let mut b = ArrivalRng::new(42);
        assert_eq!(
            p.sample(&mut a, 0.0, 5.0, 1.0),
            p.sample(&mut b, 0.0, 5.0, 1.0)
        );
        let mut c = ArrivalRng::new(43);
        assert_ne!(p.sample(&mut c, 0.0, 5.0, 1.0).len(), 0);
    }

    #[test]
    fn arrivals_are_ordered_and_inside_the_window() {
        let p = ArrivalProcess::Diurnal {
            base_hz: 5.0,
            peak_hz: 40.0,
            day_s: 4.0,
        };
        let mut rng = ArrivalRng::new(1);
        let times = p.sample(&mut rng, 2.0, 6.0, 1.0);
        assert!(!times.is_empty());
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times.iter().all(|&t| (2.0..6.0).contains(&t)));
    }

    #[test]
    fn on_off_silences_produce_no_arrivals() {
        let p = ArrivalProcess::OnOff {
            on_s: 1.0,
            off_s: 1.0,
            rate_hz: 30.0,
        };
        let mut rng = ArrivalRng::new(3);
        let times = p.sample(&mut rng, 0.0, 10.0, 1.0);
        assert!(!times.is_empty());
        assert!(
            times.iter().all(|t| t.rem_euclid(2.0) < 1.0),
            "every arrival falls in an on-window"
        );
    }

    #[test]
    fn flash_crowd_concentrates_arrivals_in_the_spike() {
        let p = ArrivalProcess::FlashCrowd {
            base_hz: 1.0,
            at_s: 5.0,
            duration_s: 1.0,
            spike_hz: 100.0,
        };
        let mut rng = ArrivalRng::new(11);
        let times = p.sample(&mut rng, 0.0, 10.0, 1.0);
        let in_spike = times.iter().filter(|&&t| (5.0..6.0).contains(&t)).count();
        assert!(
            in_spike * 2 > times.len(),
            "spike holds the majority: {in_spike} of {}",
            times.len()
        );
    }

    #[test]
    fn zero_scale_mutes_the_process() {
        let p = ArrivalProcess::Poisson { rate_hz: 100.0 };
        let mut rng = ArrivalRng::new(5);
        assert!(p.sample(&mut rng, 0.0, 10.0, 0.0).is_empty());
        assert!(p.sample(&mut rng, 5.0, 5.0, 1.0).is_empty());
    }

    #[test]
    fn rate_at_matches_the_declared_shapes() {
        let d = ArrivalProcess::Diurnal {
            base_hz: 2.0,
            peak_hz: 10.0,
            day_s: 8.0,
        };
        assert!((d.rate_at(0.0) - 2.0).abs() < 1e-9);
        assert!((d.rate_at(4.0) - 10.0).abs() < 1e-9);
        assert_eq!(d.peak_rate(), 10.0);
        let f = ArrivalProcess::FlashCrowd {
            base_hz: 1.0,
            at_s: 2.0,
            duration_s: 0.5,
            spike_hz: 50.0,
        };
        assert_eq!(f.rate_at(1.9), 1.0);
        assert_eq!(f.rate_at(2.1), 50.0);
        assert_eq!(f.rate_at(2.6), 1.0);
    }
}
