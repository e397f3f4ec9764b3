//! [`Host`] over the wall-clock executor: real OS threads running
//! [`WorkModel`]s.
//!
//! This backend is a parity harness, not OS scheduling.  The simulator
//! *books* a work model's computed CPU consumption against a simulated
//! clock; this host *spin-realises* it — each job's model runs on a
//! dedicated worker thread that computes its consumption for the granted
//! quantum (same cycles-to-time arithmetic, same virtual clock rate) and
//! then busy-waits that long before reporting back.  Blocking works the
//! same way as in the simulator: a model that blocks is re-polled
//! (`poll_unblock`) until it reports runnable.
//!
//! What it validates is the control math under real timing noise:
//! everything above the work model is the production code path — the same
//! [`rrs_core::ControlLoop`] the simulator drives decides who runs and
//! adapts reservations from the real `rrs-queue` progress metrics.
//! Results match the simulator within scheduling tolerance, not
//! bit-for-bit.

use crate::host::{Backend, Host};
use crate::time::SimTime;
use parking_lot::Mutex;
use rrs_core::{controller::AdmitError, Controller, JobHandle, JobSpec, SimStats};
use rrs_queue::MetricRegistry;
use rrs_realtime::{ExecutorConfig, RealTimeExecutor, StepOutcome};
use rrs_scheduler::{CpuId, Machine, Reservation, UsageAccount};
use rrs_sim::{JobSeries, SimConfig, Trace, WorkModel};
use rrs_telemetry::{Recorder, TelemetryConfig, TelemetrySnapshot};
use std::any::Any;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct WallJob {
    series: JobSeries,
    /// Shared between the worker thread that steps the model and the host
    /// thread that samples its progress counter.
    model: Arc<Mutex<Box<dyn WorkModel>>>,
}

/// The wall-clock backend: [`WorkModel`]s running for real on OS threads.
///
/// Build one with [`crate::Runtime::wall_clock`].
pub(crate) struct WallClockHost {
    exec: RealTimeExecutor,
    /// Indexed by [`rrs_core::JobSlot::index`], like the executor's tasks.
    jobs: Vec<Option<WallJob>>,
    /// The virtual clock rate work models convert cycles to time with —
    /// the simulator's, so a workload's CPU demand means the same thing
    /// on both backends.
    cpu_hz: f64,
    trace: Trace,
    /// Interval between trace samples — the simulator's.
    trace_interval: SimTime,
    next_trace: SimTime,
    last_trace: SimTime,
}

impl WallClockHost {
    /// Creates a wall-clock host.
    pub fn new(executor: ExecutorConfig) -> Self {
        let sim = SimConfig::default();
        let trace_interval_us = (sim.trace_interval_s * 1e6).round().max(1.0) as u64;
        Self {
            exec: RealTimeExecutor::new(executor),
            jobs: Vec::new(),
            cpu_hz: sim.cpu.clock_hz,
            trace: Trace::new(),
            trace_interval: SimTime::from_micros(trace_interval_us),
            next_trace: SimTime::ZERO,
            last_trace: SimTime::ZERO,
        }
    }

    /// Burns `us` microseconds of real CPU.
    fn spin_for_us(us: u64) {
        let t0 = Instant::now();
        while (t0.elapsed().as_micros() as u64) < us {
            std::hint::spin_loop();
        }
    }

    /// Records one trace sample round if one is due, through the
    /// simulator's sampler ([`JobSeries`], [`Trace::record_fills`]) and in
    /// its order (thread id, so slot reuse does not renumber the series).
    fn maybe_record_trace(&mut self) {
        let now = Host::now(self);
        if now < self.next_trace {
            return;
        }
        let t = now.as_secs_f64();
        let interval = (now.saturating_sub(self.last_trace))
            .as_secs_f64()
            .max(1e-9);
        let ctl = self.exec.control();
        for (thread, slot) in ctl.threads_by_id() {
            let job = self.jobs[slot.index()]
                .as_mut()
                .expect("a bound slot has its host entry");
            let progress = job.model.lock().progress_counter();
            job.series.sample(
                &mut self.trace,
                t,
                interval,
                ctl.reservation(slot, thread),
                progress,
            );
        }
        self.trace.record_fills(t, ctl.controller().registry());
        self.last_trace = now;
        while self.next_trace <= now {
            self.next_trace += self.trace_interval;
        }
    }
}

impl Host for WallClockHost {
    fn backend(&self) -> Backend {
        Backend::WallClock
    }

    fn add_job(
        &mut self,
        name: &str,
        spec: JobSpec,
        work: Box<dyn WorkModel>,
    ) -> Result<JobHandle, AdmitError> {
        let model = Arc::new(Mutex::new(work));
        let worker_model = Arc::clone(&model);
        let epoch = self.exec.epoch();
        let cpu_hz = self.cpu_hz;
        let mut blocked = false;
        let handle = self.exec.try_spawn(name, spec, move |quantum: Duration| {
            let now_us = epoch.elapsed().as_micros() as u64;
            let quantum_us = (quantum.as_micros() as u64).max(1);
            let mut model = worker_model.lock();
            if blocked && !model.poll_unblock(now_us) {
                return StepOutcome::Blocked;
            }
            let result = model.run(now_us, quantum_us, cpu_hz);
            blocked = result.blocked;
            drop(model);
            // Realise the model's computed consumption: burn that much
            // real CPU (the simulator books it; we spend it).
            WallClockHost::spin_for_us(result.used_us.min(quantum_us));
            if result.blocked {
                StepOutcome::Blocked
            } else {
                StepOutcome::Continue
            }
        })?;
        let index = handle.slot.index();
        if self.jobs.len() <= index {
            self.jobs.resize_with(index + 1, || None);
        }
        self.jobs[index] = Some(WallJob {
            series: JobSeries::new(name),
            model,
        });
        Ok(handle)
    }

    fn remove_job(&mut self, handle: JobHandle) {
        // Slot indices are reused: a leftover handle must not evict the
        // slot's next tenant.
        if self.exec.control().slot_of(handle.thread) == Some(handle.slot) {
            self.jobs[handle.slot.index()] = None;
            self.exec.remove(handle);
        }
    }

    fn advance(&mut self, dt: SimTime) {
        let target = Host::now(self) + dt;
        loop {
            self.maybe_record_trace();
            let now = Host::now(self);
            if now >= target {
                break;
            }
            // Run up to the next trace sample (at least 1 ms so the
            // executor always makes progress), then sample.
            let until_trace = self.next_trace.saturating_sub(now);
            let chunk = (target - now)
                .as_micros()
                .min(until_trace.as_micros().max(1_000));
            self.exec.run_for(Duration::from_micros(chunk));
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from(self.exec.epoch().elapsed())
    }

    fn reservation(&self, handle: JobHandle) -> Option<Reservation> {
        self.exec.control().reservation(handle.slot, handle.thread)
    }

    fn cpu_of(&self, handle: JobHandle) -> Option<CpuId> {
        self.machine().cpu_of(handle.thread)
    }

    fn usage(&self, handle: JobHandle) -> Option<UsageAccount> {
        self.machine().usage(handle.thread)
    }

    fn grow_cpus(&mut self, cpus: usize) -> usize {
        self.exec.grow_cpus(cpus)
    }

    fn cpu_count(&self) -> usize {
        self.machine().cpu_count()
    }

    fn cpu_hz(&self) -> f64 {
        self.cpu_hz
    }

    fn controller(&self) -> &Controller {
        self.exec.control().controller()
    }

    fn machine(&self) -> &Machine {
        self.exec.control().machine()
    }

    fn registry(&self) -> MetricRegistry {
        self.controller().registry().clone()
    }

    fn force_reservation(&mut self, handle: JobHandle, reservation: Reservation) {
        self.exec.force_reservation(handle, reservation)
    }

    fn stats(&self) -> SimStats {
        self.exec.control().stats()
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        // The executor has no event calendar, so the `events_*` counters
        // stay zero on this backend.
        self.exec.control().telemetry_snapshot()
    }

    fn enable_telemetry(&mut self, config: TelemetryConfig) -> Arc<Recorder> {
        self.exec.enable_telemetry(config)
    }

    fn telemetry_recorder(&self) -> Option<Arc<Recorder>> {
        self.exec.control().recorder().cloned()
    }

    fn trace(&self) -> &Trace {
        &self.trace
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
