//! [`Host`] implemented for the sharded simulator.
//!
//! Same veneer pattern as the unsharded impl in `sim_host.rs`: every
//! method forwards to the identically-behaved inherent method on
//! [`ShardedSim`].  Two methods deserve a note: [`Host::controller`] and
//! [`Host::machine`] return *shard 0's* instances (the anchor shard every
//! reservation and queue-coupled job runs on) because the trait promises
//! a single reference; machine-wide numbers come from [`Host::stats`] and
//! [`Host::telemetry`], which aggregate over every shard.

use crate::host::{Backend, Host};
use crate::time::SimTime;
use rrs_core::{controller::AdmitError, Controller, JobHandle, JobSpec, SimStats};
use rrs_queue::MetricRegistry;
use rrs_scheduler::{CpuId, Machine, Reservation, UsageAccount};
use rrs_sim::{ShardedSim, Trace, WorkModel};
use rrs_telemetry::{Recorder, TelemetryConfig, TelemetrySnapshot};
use std::any::Any;
use std::sync::Arc;

impl Host for ShardedSim {
    fn backend(&self) -> Backend {
        Backend::Sim
    }

    fn add_job(
        &mut self,
        name: &str,
        spec: JobSpec,
        work: Box<dyn WorkModel>,
    ) -> Result<JobHandle, AdmitError> {
        ShardedSim::add_job(self, name, spec, work)
    }

    fn remove_job(&mut self, handle: JobHandle) {
        ShardedSim::remove_job(self, handle)
    }

    fn advance(&mut self, dt: SimTime) {
        self.run_for_micros(dt.as_micros());
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.now_micros())
    }

    fn reservation(&self, handle: JobHandle) -> Option<Reservation> {
        ShardedSim::reservation(self, handle)
    }

    fn cpu_of(&self, handle: JobHandle) -> Option<CpuId> {
        ShardedSim::cpu_of(self, handle)
    }

    fn usage(&self, handle: JobHandle) -> Option<UsageAccount> {
        ShardedSim::usage(self, handle)
    }

    fn grow_cpus(&mut self, cpus: usize) -> usize {
        ShardedSim::grow_cpus(self, cpus)
    }

    fn cpu_count(&self) -> usize {
        ShardedSim::cpu_count(self)
    }

    fn cpu_hz(&self) -> f64 {
        self.config().cpu.clock_hz
    }

    fn controller(&self) -> &Controller {
        ShardedSim::controller(self)
    }

    fn machine(&self) -> &Machine {
        ShardedSim::machine(self)
    }

    fn registry(&self) -> MetricRegistry {
        ShardedSim::registry(self)
    }

    fn force_reservation(&mut self, handle: JobHandle, reservation: Reservation) {
        ShardedSim::force_reservation(self, handle, reservation.proportion, reservation.period)
    }

    fn stats(&self) -> SimStats {
        ShardedSim::stats(self)
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        ShardedSim::telemetry_snapshot(self)
    }

    fn enable_telemetry(&mut self, config: TelemetryConfig) -> Arc<Recorder> {
        ShardedSim::enable_telemetry(self, config)
    }

    fn telemetry_recorder(&self) -> Option<Arc<Recorder>> {
        ShardedSim::telemetry_recorder(self)
    }

    fn trace(&self) -> &Trace {
        ShardedSim::trace(self)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
