//! [`Host`] over the wall-clock executor: real OS threads running
//! [`WorkModel`]s.
//!
//! The simulator *books* a work model's computed CPU consumption against
//! a simulated clock; this host *realises* it — each job's model runs on
//! a dedicated worker thread that computes its consumption for the
//! granted quantum (same cycles-to-time arithmetic, same virtual clock
//! rate) and then actually burns that much CPU before reporting back.
//! Blocking works the same way as in the simulator: a model that blocks
//! is re-polled (`poll_unblock`) until it reports runnable.
//!
//! Everything above the work model is the production code path: the real
//! `rrs-scheduler` machine decides who runs, the real `rrs-core`
//! controller adapts reservations from the real `rrs-queue` progress
//! metrics.  Results match the simulator within scheduling tolerance, not
//! bit-for-bit — OS timing noise is the point of this backend.

use crate::host::{Backend, Host};
use crate::time::SimTime;
use parking_lot::Mutex;
use rrs_core::{controller::AdmitError, Controller, JobHandle, JobSpec, SimStats};
use rrs_queue::MetricRegistry;
use rrs_realtime::{ExecutorConfig, RealTimeExecutor, StepOutcome};
use rrs_scheduler::{CpuId, Machine, Reservation, ThreadId, UsageAccount};
use rrs_sim::{JobSeries, Trace, WorkModel};
use rrs_telemetry::{Recorder, TelemetryConfig, TelemetrySnapshot};
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of the wall-clock host.
#[derive(Debug, Clone, Copy)]
pub struct WallClockConfig {
    /// Executor configuration (dispatcher, controller, idle sleeps).
    pub executor: ExecutorConfig,
    /// The virtual clock rate work models convert cycles to time with,
    /// in Hz.  Defaults to the simulator's 400 MHz so a workload's CPU
    /// demand means the same thing on both backends.
    pub cpu_hz: f64,
    /// Interval between trace samples.
    pub trace_interval: SimTime,
}

impl Default for WallClockConfig {
    fn default() -> Self {
        Self {
            executor: ExecutorConfig::default(),
            cpu_hz: 400e6,
            trace_interval: SimTime::from_millis(100),
        }
    }
}

/// A work model plus its blocked flag, shared between the worker thread
/// that steps it and the host thread that samples its progress counter.
struct ModelCell {
    model: Box<dyn WorkModel>,
    blocked: bool,
}

struct WallJob {
    series: JobSeries,
    handle: JobHandle,
    cell: Arc<Mutex<ModelCell>>,
}

/// The wall-clock backend: [`WorkModel`]s running for real on OS threads.
///
/// Build one with [`crate::Runtime::wall_clock`].
pub(crate) struct WallClockHost {
    exec: RealTimeExecutor,
    config: WallClockConfig,
    /// The epoch worker closures timestamp `WorkModel::run` calls with;
    /// created alongside the executor so both clocks agree.
    epoch: Instant,
    jobs: BTreeMap<ThreadId, WallJob>,
    trace: Trace,
    next_trace: SimTime,
    last_trace: SimTime,
}

impl WallClockHost {
    /// Creates a wall-clock host.
    pub fn new(mut config: WallClockConfig) -> Self {
        // A zero interval would make the trace sampler spin without
        // progress; clamp rather than hang the first `advance`.
        config.trace_interval = config.trace_interval.max(SimTime::from_micros(1));
        Self {
            exec: RealTimeExecutor::new(config.executor),
            config,
            epoch: Instant::now(),
            jobs: BTreeMap::new(),
            trace: Trace::new(),
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
    /// simulator's sampler ([`JobSeries`], [`Trace::record_fills`]).
    fn maybe_record_trace(&mut self) {
        let now = Host::now(self);
        if now < self.next_trace {
            return;
        }
        let t = now.as_secs_f64();
        let interval = (now.saturating_sub(self.last_trace))
            .as_secs_f64()
            .max(1e-9);
        for job in self.jobs.values_mut() {
            let progress = job.cell.lock().model.progress_counter();
            job.series.sample(
                &mut self.trace,
                t,
                interval,
                self.exec.reservation(job.handle),
                progress,
            );
        }
        self.trace
            .record_fills(t, self.exec.controller().registry());
        self.last_trace = now;
        while self.next_trace <= now {
            self.next_trace += self.config.trace_interval;
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
        let cell = Arc::new(Mutex::new(ModelCell {
            model: work,
            blocked: false,
        }));
        let worker_cell = Arc::clone(&cell);
        let epoch = self.epoch;
        let cpu_hz = self.config.cpu_hz;
        let handle = self.exec.try_spawn(name, spec, move |quantum: Duration| {
            let now_us = epoch.elapsed().as_micros() as u64;
            let quantum_us = (quantum.as_micros() as u64).max(1);
            let mut cell = worker_cell.lock();
            if cell.blocked {
                if !cell.model.poll_unblock(now_us) {
                    return StepOutcome::Blocked;
                }
                cell.blocked = false;
            }
            let result = cell.model.run(now_us, quantum_us, cpu_hz);
            cell.blocked = result.blocked;
            drop(cell);
            // Realise the model's computed consumption: burn that much
            // real CPU (the simulator books it; we spend it).
            WallClockHost::spin_for_us(result.used_us.min(quantum_us));
            if result.blocked {
                StepOutcome::Blocked
            } else {
                StepOutcome::Continue
            }
        })?;
        self.jobs.insert(
            handle.thread,
            WallJob {
                series: JobSeries::new(name),
                handle,
                cell,
            },
        );
        Ok(handle)
    }

    fn remove_job(&mut self, handle: JobHandle) {
        self.jobs.remove(&handle.thread);
        self.exec.remove(handle);
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
        self.maybe_record_trace();
    }

    fn now(&self) -> SimTime {
        SimTime::from(self.exec.elapsed())
    }

    fn allocation_ppt(&self, handle: JobHandle) -> u32 {
        self.exec.current_allocation_ppt(handle)
    }

    fn reservation(&self, handle: JobHandle) -> Option<Reservation> {
        self.exec.reservation(handle)
    }

    fn cpu_of(&self, handle: JobHandle) -> Option<CpuId> {
        self.exec.cpu_of(handle)
    }

    fn cpu_used(&self, handle: JobHandle) -> SimTime {
        SimTime::from(self.exec.cpu_time(handle))
    }

    fn usage(&self, handle: JobHandle) -> Option<UsageAccount> {
        self.exec.usage(handle)
    }

    fn grow_cpus(&mut self, cpus: usize) -> usize {
        self.exec.grow_cpus(cpus)
    }

    fn cpu_count(&self) -> usize {
        self.exec.cpu_count()
    }

    fn cpu_hz(&self) -> f64 {
        self.config.cpu_hz
    }

    fn controller(&self) -> &Controller {
        self.exec.controller()
    }

    fn machine(&self) -> &Machine {
        self.exec.machine()
    }

    fn registry(&self) -> MetricRegistry {
        self.exec.registry()
    }

    fn force_reservation(&mut self, handle: JobHandle, reservation: Reservation) {
        self.exec.force_reservation(handle, reservation)
    }

    fn stats(&self) -> SimStats {
        self.exec.stats()
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        self.exec.telemetry_snapshot()
    }

    fn enable_telemetry(&mut self, config: TelemetryConfig) -> Arc<Recorder> {
        self.exec.enable_telemetry(config)
    }

    fn telemetry_recorder(&self) -> Option<Arc<Recorder>> {
        self.exec.telemetry_recorder()
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

impl std::fmt::Debug for WallClockHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WallClockHost")
            .field("jobs", &self.jobs.len())
            .field("cpus", &self.exec.cpu_count())
            .finish()
    }
}
