//! Interactive jobs: servers that listen to ttys (§3.2).
//!
//! "Interactive jobs are servers that listen to ttys instead of sockets.
//! Since interactive jobs have specific requirements (periods relative to
//! human perception), the scheduler only needs to know that the job is
//! interactive and the ttys in which it is interested."  The model here
//! sleeps until a keystroke arrives, then runs a short burst of work; its
//! response time (keystroke to completed burst) is the metric of interest.

use crate::kernel::Burn;
use crate::latency::LatencyStats;
use rrs_sim::{RunResult, SimTime, WorkModel};
use std::sync::Arc;

/// An interactive job driven by keystrokes at a fixed typing rate.
#[derive(Debug)]
pub struct InteractiveJob {
    /// Interval between keystrokes, in microseconds.
    keystroke_interval_us: u64,
    /// Cycles of work each keystroke triggers (echo, redraw, etc.).
    cycles_per_keystroke: f64,
    next_keystroke_us: u64,
    cycles_remaining: f64,
    pending_keystroke_arrival_us: Option<u64>,
    handled: u64,
    latency: Option<Arc<LatencyStats>>,
}

impl InteractiveJob {
    /// Creates an interactive job with the given typing rate (keystrokes per
    /// second) and work per keystroke in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `keystrokes_per_second` is not positive.
    pub fn new(keystrokes_per_second: f64, cycles_per_keystroke: f64) -> Self {
        assert!(keystrokes_per_second > 0.0, "typing rate must be positive");
        Self {
            keystroke_interval_us: ((1e6 / keystrokes_per_second).round() as u64).max(1),
            cycles_per_keystroke,
            next_keystroke_us: 0,
            cycles_remaining: 0.0,
            pending_keystroke_arrival_us: None,
            handled: 0,
            latency: None,
        }
    }

    /// Records every keystroke's response time into `stats` (shared with
    /// the observer; see [`LatencyStats`]).
    pub fn with_latency_stats(mut self, stats: Arc<LatencyStats>) -> Self {
        self.latency = Some(stats);
        self
    }

    /// A typist at five keystrokes per second with 2 Mcycles of work per
    /// keystroke (echo plus a screen update).
    pub fn typist() -> Self {
        Self::new(5.0, 2.0e6)
    }
}

impl WorkModel for InteractiveJob {
    fn run(&mut self, now_us: u64, quantum_us: u64, cpu_hz: f64) -> RunResult {
        if self.next_keystroke_us == 0 {
            self.next_keystroke_us = now_us + self.keystroke_interval_us;
        }
        // Accept a keystroke that has arrived.
        if self.pending_keystroke_arrival_us.is_none() && self.next_keystroke_us <= now_us {
            self.pending_keystroke_arrival_us = Some(self.next_keystroke_us);
            self.cycles_remaining = self.cycles_per_keystroke;
            self.next_keystroke_us += self.keystroke_interval_us;
        }
        let Some(arrival) = self.pending_keystroke_arrival_us else {
            // Nothing to do until the next keystroke.
            return RunResult::blocked_after(0);
        };

        let mut burn = Burn::new(quantum_us, cpu_hz);
        if !burn.spend(&mut self.cycles_remaining) {
            return RunResult::ran(quantum_us.max(1));
        }
        let used_us = burn.used_us();
        self.pending_keystroke_arrival_us = None;
        self.handled += 1;
        if let Some(stats) = &self.latency {
            stats.record_us((now_us + used_us).saturating_sub(arrival));
        }
        // Burst finished: block until the next keystroke.
        RunResult::blocked_after(used_us.max(1))
    }

    fn poll_unblock(&mut self, now_us: u64) -> bool {
        self.pending_keystroke_arrival_us.is_some()
            || self.next_keystroke_us == 0
            || now_us + 1 >= self.next_keystroke_us
    }

    fn next_transition(&self, now: SimTime) -> Option<SimTime> {
        // Blocked only between keystrokes; the arrival clock is known.
        if self.pending_keystroke_arrival_us.is_some() || self.next_keystroke_us == 0 {
            return Some(now);
        }
        Some(SimTime::from_micros(
            self.next_keystroke_us.saturating_sub(1),
        ))
    }

    fn progress_counter(&self) -> Option<f64> {
        Some(self.handled as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hog::CpuHog;
    use rrs_core::JobSpec;
    use rrs_sim::{Host, SimConfig, Simulation};

    #[test]
    fn typist_keystrokes_are_handled() {
        let mut sim = Simulation::new(SimConfig::default());
        sim.add_job(
            "editor",
            JobSpec::miscellaneous(),
            Box::new(InteractiveJob::typist()),
        )
        .unwrap();
        sim.run_for(10.0);
        let handled = sim
            .trace()
            .get("rate/editor")
            .unwrap()
            .window_mean(5.0, 10.0)
            .unwrap();
        assert!(
            handled > 3.0,
            "should handle close to 5 keystrokes/s, got {handled}"
        );
    }

    #[test]
    fn interactive_job_stays_responsive_next_to_a_hog() {
        let mut sim = Simulation::new(SimConfig::default());
        let _hog = sim
            .add_job("hog", JobSpec::miscellaneous(), Box::new(CpuHog::new()))
            .unwrap();
        let editor = InteractiveJob::typist();
        sim.add_job("editor", JobSpec::miscellaneous(), Box::new(editor))
            .unwrap();
        sim.run_for(10.0);
        // The editor keeps making progress even though the hog wants
        // everything: no starvation.
        let handled = sim
            .trace()
            .get("rate/editor")
            .unwrap()
            .window_mean(5.0, 10.0)
            .unwrap();
        assert!(
            handled > 2.0,
            "editor starved next to hog: {handled} keystrokes/s"
        );
    }

    #[test]
    fn response_accounting() {
        let mut job = InteractiveJob::new(10.0, 1000.0);
        assert_eq!(job.handled, 0);
        // Drive it by hand: first run arms the keystroke clock.
        job.run(0, 100, 400e6);
        // Jump past the first keystroke and give it plenty of quantum.
        job.run(200_000, 1000, 400e6);
        assert_eq!(job.handled, 1);
        assert_eq!(job.progress_counter(), Some(1.0));
    }

    #[test]
    fn latency_stats_capture_every_response() {
        let stats = LatencyStats::new();
        let mut job = InteractiveJob::new(10.0, 1000.0).with_latency_stats(Arc::clone(&stats));
        job.run(0, 100, 400e6);
        job.run(200_000, 1000, 400e6);
        assert_eq!(job.handled, 1);
        assert_eq!(stats.count(), 1);
        // Arrived at 100 ms, finished inside the quantum granted at 200 ms.
        assert!(
            (stats.percentile_us(100.0) - 100_000.0).abs() <= LatencyStats::BUCKET_WIDTH_US,
            "the histogram holds the keystroke-to-completion time"
        );
    }

    #[test]
    #[should_panic(expected = "typing rate must be positive")]
    fn zero_typing_rate_rejected() {
        let _ = InteractiveJob::new(0.0, 1000.0);
    }
}
