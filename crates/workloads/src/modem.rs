//! An isochronous software device — the "software modem" of §1.
//!
//! A software modem must process a sample buffer every few milliseconds or
//! the line drops: it is the paper's canonical example of an *isochronous
//! software device* that knows its proportion and period exactly and should
//! therefore bypass the adaptive controller with a reservation (§3.3,
//! real-time threads).  The model here processes one sample batch per
//! period; a batch that is not finished by the arrival of the next one is a
//! missed deadline.

use crate::kernel::{Burn, Cadence};
use rrs_api::Host;
use rrs_core::{JobHandle, JobSpec};
use rrs_scheduler::{Period, Proportion};
use rrs_sim::{RunResult, SimTime, WorkModel, CPU_CLOCK_HZ};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared deadline counters, readable while the simulation owns the model.
#[derive(Debug, Default)]
pub struct ModemStats {
    batches_completed: AtomicU64,
    deadlines_missed: AtomicU64,
}

impl ModemStats {
    /// Sample batches fully processed.
    pub fn batches_completed(&self) -> u64 {
        self.batches_completed.load(Ordering::Relaxed)
    }

    /// Batches that were not finished before the next one arrived.
    pub fn deadlines_missed(&self) -> u64 {
        self.deadlines_missed.load(Ordering::Relaxed)
    }
}

/// Configuration of the software modem.
#[derive(Debug, Clone, Copy)]
pub struct ModemConfig {
    /// Sample-batch period in microseconds (how often a batch arrives).
    pub batch_period_us: u64,
    /// CPU cycles needed to process one batch.
    pub cycles_per_batch: f64,
}

impl Default for ModemConfig {
    fn default() -> Self {
        // A batch every 10 ms costing 800 kcycles: 20 % of a 400 MHz CPU.
        Self {
            batch_period_us: 10_000,
            cycles_per_batch: 0.8e6,
        }
    }
}

impl ModemConfig {
    /// The proportion of the given CPU this modem needs to meet every
    /// deadline, with the given safety headroom factor (e.g. 1.2 = 20 %).
    pub fn required_proportion(&self, cpu_hz: f64, headroom: f64) -> Proportion {
        let cycles_per_sec = self.cycles_per_batch * 1e6 / self.batch_period_us as f64;
        Proportion::from_fraction(cycles_per_sec * headroom / cpu_hz)
    }

    /// The reservation period matching the batch period.
    pub fn period(&self) -> Period {
        Period::from_micros(self.batch_period_us.max(1))
    }
}

/// The modem work model.
#[derive(Debug)]
pub struct SoftwareModem {
    cycles_per_batch: f64,
    stats: Arc<ModemStats>,
    batches: Cadence,
    cycles_remaining: f64,
    batch_in_flight: bool,
}

impl SoftwareModem {
    /// Creates a modem and returns it together with its shared statistics.
    pub fn new(config: ModemConfig) -> (Self, Arc<ModemStats>) {
        let stats = Arc::new(ModemStats::default());
        (
            Self {
                cycles_per_batch: config.cycles_per_batch,
                stats: Arc::clone(&stats),
                batches: Cadence::every(config.batch_period_us),
                cycles_remaining: 0.0,
                batch_in_flight: false,
            },
            stats,
        )
    }

    /// Installs the modem into any [`Host`] as a real-time job with
    /// exactly the reservation it needs (plus 20 % headroom), as the paper
    /// recommends for isochronous devices.  The reservation is sized
    /// against the paper's 400 MHz CPU ([`CPU_CLOCK_HZ`]), the
    /// clock rate every `rrs_api::Runtime` host runs work models at.
    /// Returns the handle and the shared statistics.
    pub fn install_with_reservation(
        host: &mut (impl Host + ?Sized),
        config: ModemConfig,
    ) -> (JobHandle, Arc<ModemStats>) {
        let (modem, stats) = SoftwareModem::new(config);
        let spec = JobSpec::real_time(
            config.required_proportion(CPU_CLOCK_HZ, 1.2),
            config.period(),
        );
        let handle = host
            .add_job("modem", spec, Box::new(modem))
            .expect("modem reservation must be admitted");
        (handle, stats)
    }

    /// Installs the modem as a plain miscellaneous job (no reservation, no
    /// progress metric) — the configuration the paper warns against for
    /// isochronous devices.
    pub fn install_best_effort(
        host: &mut (impl Host + ?Sized),
        config: ModemConfig,
    ) -> (JobHandle, Arc<ModemStats>) {
        let (modem, stats) = SoftwareModem::new(config);
        let handle = host
            .add_job("modem", JobSpec::miscellaneous(), Box::new(modem))
            .expect("misc jobs are always admitted");
        (handle, stats)
    }
}

impl WorkModel for SoftwareModem {
    fn run(&mut self, now_us: u64, quantum_us: u64, cpu_hz: f64) -> RunResult {
        // New batch arrivals; an unfinished batch at arrival time is a miss
        // and is abandoned (the line glitches and we resynchronise).
        self.batches.tick(now_us, |_| {
            if self.batch_in_flight {
                self.stats.deadlines_missed.fetch_add(1, Ordering::Relaxed);
            }
            self.batch_in_flight = true;
            self.cycles_remaining = self.cycles_per_batch;
        });
        if !self.batch_in_flight {
            return RunResult::blocked_after(0);
        }
        let mut burn = Burn::new(quantum_us, cpu_hz);
        if !burn.spend(&mut self.cycles_remaining) {
            return RunResult::ran(quantum_us.max(1));
        }
        self.batch_in_flight = false;
        self.stats.batches_completed.fetch_add(1, Ordering::Relaxed);
        RunResult::blocked_after(burn.used_us().max(1))
    }

    fn poll_unblock(&mut self, now_us: u64) -> bool {
        self.batch_in_flight || self.batches.due(now_us)
    }

    fn next_transition(&self, now: SimTime) -> Option<SimTime> {
        // Sample batches arrive on the line's fixed cadence.
        if self.batch_in_flight {
            return Some(now);
        }
        Some(self.batches.wake_at(now))
    }

    fn progress_counter(&self) -> Option<f64> {
        Some(self.stats.batches_completed() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hog::CpuHog;
    use rrs_sim::{SimConfig, Simulation};

    #[test]
    fn required_proportion_matches_the_arithmetic() {
        let config = ModemConfig::default();
        // 0.8 Mcycles per 10 ms = 80 Mcycles/s = 20 % of 400 MHz; with 1.2×
        // headroom that is 240 ‰.
        assert_eq!(config.required_proportion(400e6, 1.2).ppt(), 240);
        assert_eq!(config.period(), Period::from_millis(10));
    }

    #[test]
    fn reserved_modem_meets_its_deadlines_despite_hogs() {
        let mut sim = Simulation::new(SimConfig::default());
        let (_handle, stats) =
            SoftwareModem::install_with_reservation(&mut sim, ModemConfig::default());
        for i in 0..3 {
            sim.add_job(
                &format!("hog{i}"),
                JobSpec::miscellaneous(),
                Box::new(CpuHog::new()),
            )
            .unwrap();
        }
        sim.run_for(10.0);
        assert!(
            stats.batches_completed() > 900,
            "completed {}",
            stats.batches_completed()
        );
        assert!(
            stats.deadlines_missed() * 100 < stats.batches_completed(),
            "reserved modem should essentially never miss, missed {}",
            stats.deadlines_missed()
        );
    }

    #[test]
    fn best_effort_modem_misses_under_heavy_load() {
        let mut sim = Simulation::new(SimConfig::default());
        let (_handle, stats) = SoftwareModem::install_best_effort(&mut sim, ModemConfig::default());
        for i in 0..6 {
            sim.add_job(
                &format!("hog{i}"),
                JobSpec::miscellaneous(),
                Box::new(CpuHog::new()),
            )
            .unwrap();
        }
        sim.run_for(10.0);
        // Without a reservation (and without a progress metric) the modem is
        // squished like any other job and drops batches.
        assert!(
            stats.deadlines_missed() > 0,
            "an unreserved isochronous device should miss under load"
        );
    }

    #[test]
    fn idle_modem_uses_roughly_its_required_share() {
        let mut sim = Simulation::new(SimConfig::default());
        let (handle, stats) =
            SoftwareModem::install_with_reservation(&mut sim, ModemConfig::default());
        sim.run_for(5.0);
        assert!(stats.deadlines_missed() * 100 < stats.batches_completed());
        let used = sim.cpu_used(handle).as_micros() as f64 / sim.now_micros() as f64;
        assert!(
            (0.15..0.30).contains(&used),
            "the modem needs ≈20 % of the CPU, used {used}"
        );
    }
}
