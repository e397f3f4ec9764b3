//! CPU hogs and dummy processes.

use crate::kernel::Burn;
use rrs_sim::{RunResult, WorkModel};

/// A miscellaneous job that consumes every cycle it is offered and never
/// blocks — the "competing load" of Figure 7 and the probe process of the
/// Figure 8 dispatch-overhead experiment.
#[derive(Debug, Default)]
pub struct CpuHog {
    total_cycles: f64,
}

impl CpuHog {
    /// Creates a hog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total cycles consumed so far.
    pub fn cycles(&self) -> f64 {
        self.total_cycles
    }
}

impl WorkModel for CpuHog {
    fn run(&mut self, _now_us: u64, quantum_us: u64, cpu_hz: f64) -> RunResult {
        self.total_cycles += quantum_us as f64 * cpu_hz / 1e6;
        RunResult::ran(quantum_us)
    }

    fn progress_counter(&self) -> Option<f64> {
        Some(self.total_cycles)
    }
}

/// A process that consumes no CPU at all but remains registered with the
/// scheduler and controller.
///
/// Figure 5 measures controller overhead against "dummy processes that
/// consume no CPU but are scheduled, monitored, and controlled"; this is
/// that process.
#[derive(Debug, Default)]
pub struct DummyProcess;

impl DummyProcess {
    /// Creates a dummy process.
    pub fn new() -> Self {
        Self
    }
}

impl WorkModel for DummyProcess {
    fn run(&mut self, _now_us: u64, _quantum_us: u64, _cpu_hz: f64) -> RunResult {
        RunResult::blocked_after(0)
    }

    fn poll_unblock(&mut self, _now_us: u64) -> bool {
        false
    }
}

/// A transient job with a fixed amount of work: spins until it is done,
/// then blocks for good (its host removes it at its scheduled departure).
#[derive(Debug)]
pub struct FiniteWork {
    cycles_remaining: f64,
}

impl FiniteWork {
    /// A job with `cycles` of work to do.
    pub fn new(cycles: f64) -> Self {
        Self {
            cycles_remaining: cycles,
        }
    }
}

impl WorkModel for FiniteWork {
    fn run(&mut self, _now_us: u64, quantum_us: u64, cpu_hz: f64) -> RunResult {
        if self.cycles_remaining <= 0.0 {
            return RunResult::blocked_after(0);
        }
        let mut burn = Burn::new(quantum_us, cpu_hz);
        if burn.spend(&mut self.cycles_remaining) {
            burn.blocked()
        } else {
            RunResult::ran(quantum_us)
        }
    }

    fn poll_unblock(&mut self, _now_us: u64) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::JobSpec;
    use rrs_sim::{Host, SimConfig, Simulation};

    #[test]
    fn hog_uses_full_quantum() {
        let mut hog = CpuHog::new();
        let r = hog.run(0, 1000, 400e6);
        assert_eq!(r.used_us, 1000);
        assert!(!r.blocked);
        assert_eq!(hog.cycles(), 400e6 * 0.001);
        assert_eq!(hog.progress_counter(), Some(hog.cycles()));
    }

    #[test]
    fn dummy_never_uses_cpu_and_never_wakes() {
        let mut d = DummyProcess::new();
        let r = d.run(0, 1000, 400e6);
        assert_eq!(r.used_us, 0);
        assert!(r.blocked);
        assert!(!d.poll_unblock(1_000_000));
    }

    #[test]
    fn finite_work_spins_until_done_then_blocks_for_good() {
        // 1 000 µs at 400 MHz = 400 000 cycles a quantum.
        let mut work = FiniteWork::new(500_000.0);
        assert_eq!(work.run(0, 1_000, 400e6), RunResult::ran(1_000));
        assert_eq!(work.run(1_000, 1_000, 400e6), RunResult::blocked_after(250));
        assert_eq!(work.run(2_000, 1_000, 400e6), RunResult::blocked_after(0));
        assert!(!work.poll_unblock(1_000_000));
    }

    #[test]
    fn hog_in_simulation_consumes_nearly_all_cpu_when_alone() {
        let mut sim = Simulation::new(SimConfig::default());
        let h = sim
            .add_job("hog", JobSpec::miscellaneous(), Box::new(CpuHog::new()))
            .unwrap();
        sim.run_for(5.0);
        let fraction = sim.cpu_used(h).as_micros() as f64 / sim.now_micros() as f64;
        assert!(fraction > 0.5, "hog got {fraction}");
    }
}
