//! The deterministic pulse-train generator.
//!
//! The responsiveness experiment (Figure 6) drives the producer with "rising
//! pulses of various widths, doubling its rate of production ... before
//! falling back to the original rate", followed by falling pulses.
//! [`PulseTrain`] expresses that as a pure function of time so simulator
//! runs are reproducible.

use serde::{Deserialize, Serialize};

/// A pulse train: a base level with rectangular pulses of a different level.
///
/// Each pulse `i` starts at `starts[i]` and lasts `widths[i]` seconds; during
/// a pulse the output is `pulse_level`, otherwise `base_level`.
///
/// # Examples
///
/// ```
/// use rrs_feedback::PulseTrain;
///
/// // Production rate doubles from 50 to 100 bytes/cycle for 4 seconds at t=10.
/// let p = PulseTrain::new(50.0, 100.0, vec![(10.0, 4.0)]);
/// assert_eq!(p.value(5.0), 50.0);
/// assert_eq!(p.value(12.0), 100.0);
/// assert_eq!(p.value(14.5), 50.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PulseTrain {
    base_level: f64,
    pulse_level: f64,
    /// `(start, width)` pairs in seconds.
    pulses: Vec<(f64, f64)>,
}

impl PulseTrain {
    /// Creates a pulse train with the given base level, pulse level and
    /// `(start, width)` pulse list.
    pub fn new(base_level: f64, pulse_level: f64, pulses: Vec<(f64, f64)>) -> Self {
        Self {
            base_level,
            pulse_level,
            pulses,
        }
    }

    /// Reproduces the Figure 6 stimulus: three rising pulses of the given
    /// widths, then the signal stays at the pulse level and emits three
    /// falling pulses (drops back to the base level) of the same widths.
    ///
    /// `start` is the time of the first pulse and `gap` the idle time
    /// between pulses.
    pub fn rising_then_falling(
        base_level: f64,
        pulse_level: f64,
        start: f64,
        widths: &[f64],
        gap: f64,
    ) -> Self {
        let mut pulses = Vec::new();
        let mut t = start;
        // Rising pulses: base -> pulse -> base.
        for &w in widths {
            pulses.push((t, w));
            t += w + gap;
        }
        // After the rising phase the level stays high; falling pulses are
        // represented as gaps in one long pulse.
        let high_start = t;
        let mut falling_edges = Vec::new();
        let mut ft = t + gap;
        for &w in widths {
            falling_edges.push((ft, w));
            ft += w + gap;
        }
        let high_end = ft + gap;
        // Build the "high" stretch with holes at the falling pulses.
        let mut cursor = high_start;
        for (fs, fw) in falling_edges {
            pulses.push((cursor, fs - cursor));
            cursor = fs + fw;
        }
        pulses.push((cursor, high_end - cursor));
        Self::new(base_level, pulse_level, pulses)
    }

    /// Returns the signal value at time `t` (seconds).
    pub fn value(&self, t: f64) -> f64 {
        for &(start, width) in &self.pulses {
            if t >= start && t < start + width {
                return self.pulse_level;
            }
        }
        self.base_level
    }

    /// Returns the pulse list as `(start, width)` pairs.
    pub fn pulses(&self) -> &[(f64, f64)] {
        &self.pulses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pulse_train_levels() {
        let p = PulseTrain::new(1.0, 2.0, vec![(5.0, 2.0), (10.0, 1.0)]);
        assert_eq!(p.value(0.0), 1.0);
        assert_eq!(p.value(5.0), 2.0);
        assert_eq!(p.value(6.9), 2.0);
        assert_eq!(p.value(7.0), 1.0);
        assert_eq!(p.value(10.5), 2.0);
        assert_eq!(p.pulses().len(), 2);
    }

    #[test]
    fn rising_then_falling_starts_low_and_has_falling_gaps() {
        let p = PulseTrain::rising_then_falling(50.0, 100.0, 2.0, &[4.0, 2.0, 1.0], 2.0);
        // Before the first pulse: base rate.
        assert_eq!(p.value(0.0), 50.0);
        // During the first rising pulse: doubled rate.
        assert_eq!(p.value(3.0), 100.0);
        // Between rising pulses: back to base.
        assert_eq!(p.value(7.0), 50.0);
        // Well into the high stretch the value is high most of the time but
        // drops to base during falling pulses; verify both levels occur.
        let mut saw_high = false;
        let mut saw_low = false;
        let high_phase_start = 2.0 + (4.0 + 2.0) + (2.0 + 2.0) + (1.0 + 2.0);
        let mut t = high_phase_start;
        while t < high_phase_start + 15.0 {
            let v = p.value(t);
            if v == 100.0 {
                saw_high = true;
            } else if v == 50.0 {
                saw_low = true;
            }
            t += 0.1;
        }
        assert!(saw_high && saw_low);
    }

    proptest! {
        #[test]
        fn pulse_train_only_emits_two_levels(
            t in 0.0f64..100.0,
            starts in proptest::collection::vec(0.0f64..100.0, 0..5),
        ) {
            let pulses: Vec<(f64, f64)> = starts.iter().map(|&s| (s, 1.0)).collect();
            let p = PulseTrain::new(10.0, 20.0, pulses);
            let v = p.value(t);
            prop_assert!(v == 10.0 || v == 20.0);
        }
    }
}
