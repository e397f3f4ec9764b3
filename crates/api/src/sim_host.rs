//! [`Host`] implemented for the deterministic simulator.
//!
//! The impl is a thin veneer: every trait method forwards to the
//! identically-behaved inherent method, so a program driven through
//! `dyn Host` takes the exact code path (and reproduces the exact
//! statistics, bit for bit) of one written against `rrs_sim::Simulation`
//! directly.  `tests/sim_golden_stats.rs` in the workspace root pins
//! this.

use crate::host::{Backend, Host};
use crate::time::SimTime;
use rrs_core::{controller::AdmitError, Controller, JobHandle, JobSpec, SimStats};
use rrs_queue::MetricRegistry;
use rrs_scheduler::{CpuId, Machine, Reservation, UsageAccount};
use rrs_sim::{Simulation, Trace, WorkModel};
use rrs_telemetry::{Recorder, TelemetryConfig, TelemetrySnapshot};
use std::any::Any;
use std::sync::Arc;

impl Host for Simulation {
    fn backend(&self) -> Backend {
        Backend::Sim
    }

    fn add_job(
        &mut self,
        name: &str,
        spec: JobSpec,
        work: Box<dyn WorkModel>,
    ) -> Result<JobHandle, AdmitError> {
        Simulation::add_job(self, name, spec, work)
    }

    fn remove_job(&mut self, handle: JobHandle) {
        Simulation::remove_job(self, handle)
    }

    fn advance(&mut self, dt: SimTime) {
        self.run_for_micros(dt.as_micros());
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.now_micros())
    }

    fn reservation(&self, handle: JobHandle) -> Option<Reservation> {
        self.machine().reservation(handle.thread)
    }

    fn cpu_of(&self, handle: JobHandle) -> Option<CpuId> {
        Simulation::cpu_of(self, handle)
    }

    fn usage(&self, handle: JobHandle) -> Option<UsageAccount> {
        self.machine().usage(handle.thread)
    }

    fn grow_cpus(&mut self, cpus: usize) -> usize {
        Simulation::grow_cpus(self, cpus)
    }

    fn cpu_count(&self) -> usize {
        self.machine().cpu_count()
    }

    fn cpu_hz(&self) -> f64 {
        self.config().cpu.clock_hz
    }

    fn controller(&self) -> &Controller {
        Simulation::controller(self)
    }

    fn machine(&self) -> &Machine {
        Simulation::machine(self)
    }

    fn registry(&self) -> MetricRegistry {
        Simulation::registry(self)
    }

    fn force_reservation(&mut self, handle: JobHandle, reservation: Reservation) {
        Simulation::force_reservation(self, handle, reservation.proportion, reservation.period)
    }

    fn stats(&self) -> SimStats {
        Simulation::stats(self)
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        Simulation::telemetry_snapshot(self)
    }

    fn enable_telemetry(&mut self, config: TelemetryConfig) -> Arc<Recorder> {
        Simulation::enable_telemetry(self, config)
    }

    fn telemetry_recorder(&self) -> Option<Arc<Recorder>> {
        Simulation::telemetry_recorder(self)
    }

    fn trace(&self) -> &Trace {
        Simulation::trace(self)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
