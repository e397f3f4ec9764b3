//! The cooperative wall-clock executor.
//!
//! Emulates an `N`-CPU machine over real OS threads: every scheduling
//! round dispatches each CPU of an [`rrs_scheduler::Machine`], releases
//! the selected workers in parallel, and waits for all of them to report
//! back (logical sharding — workers are not pinned to hardware cores, but
//! at most one worker runs per simulated CPU at a time).  `N = 1` (the
//! default) behaves exactly like the original single-CPU executor.

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use rrs_core::{
    controller::AdmitError, ControlLoop, Controller, ControllerConfig, JobHandle, JobSpec,
    SimStats, SimTime,
};
use rrs_queue::MetricRegistry;
use rrs_scheduler::{CpuId, DispatcherConfig, Machine, Reservation, ThreadId, UsageAccount};
use rrs_telemetry::{Recorder, TelemetryConfig, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a task step reports back to the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The task has more work and wants to be scheduled again.
    Continue,
    /// The task is waiting for input; do not schedule it until the next
    /// controller period (the executor re-polls blocked tasks periodically,
    /// like the dispatcher waking threads whose queues changed).
    Blocked,
    /// The task has finished and should be removed.
    Done,
}

/// Executor configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecutorConfig {
    /// Dispatcher configuration (dispatch interval is interpreted in real
    /// microseconds).
    pub dispatcher: DispatcherConfig,
    /// Controller configuration.  Its `placement.cpus` sets how many
    /// logical CPUs the executor shards workers over (default 1).
    pub controller: ControllerConfig,
    /// Shortest sleep when no task is runnable, in microseconds.  The
    /// idle sleep is the dispatcher's idle quantum clamped to
    /// [`ExecutorConfig::idle_sleep_min_us`,
    /// `ExecutorConfig::idle_sleep_max_us`]: the lower bound stops the
    /// loop from busy-spinning on sub-100 µs quanta the OS timer cannot
    /// honour anyway, the upper bound keeps the executor responsive to
    /// period boundaries however long the quantum.
    pub idle_sleep_min_us: u64,
    /// Longest sleep when no task is runnable, in microseconds.
    pub idle_sleep_max_us: u64,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            dispatcher: DispatcherConfig::default(),
            controller: ControllerConfig::default(),
            idle_sleep_min_us: 100,
            idle_sleep_max_us: 1_000,
        }
    }
}

impl ExecutorConfig {
    /// Returns a copy sharding workers over `cpus` logical CPUs (clamped
    /// to at least one).
    pub fn with_cpus(mut self, cpus: usize) -> Self {
        self.controller = self.controller.with_cpus(cpus);
        self
    }

    /// The idle sleep for a given idle quantum: the quantum clamped to the
    /// configured bounds.
    pub(crate) fn idle_sleep(&self, quantum_us: u64) -> Duration {
        let max = self.idle_sleep_max_us.max(self.idle_sleep_min_us);
        Duration::from_micros(quantum_us.clamp(self.idle_sleep_min_us, max))
    }
}

enum WorkerMessage {
    /// Run one step with the given quantum.
    Run(Duration),
    /// Shut down.
    Stop,
}

struct WorkerReport {
    thread: ThreadId,
    elapsed: Duration,
    outcome: StepOutcome,
}

struct TaskSlot {
    to_worker: Sender<WorkerMessage>,
    join: Option<JoinHandle<()>>,
    blocked: bool,
    done: bool,
}

/// A cooperative wall-clock executor emulating a single CPU.
///
/// # Examples
///
/// ```
/// use rrs_core::JobSpec;
/// use rrs_realtime::{ExecutorConfig, RealTimeExecutor, StepOutcome};
/// use std::sync::{atomic::{AtomicU64, Ordering}, Arc};
/// use std::time::Duration;
///
/// let mut exec = RealTimeExecutor::new(ExecutorConfig::default());
/// let counter = Arc::new(AtomicU64::new(0));
/// let c = Arc::clone(&counter);
/// exec.spawn("worker", JobSpec::miscellaneous(), move |_quantum| {
///     c.fetch_add(1, Ordering::Relaxed);
///     StepOutcome::Continue
/// });
/// exec.run_for(Duration::from_millis(50));
/// exec.shutdown();
/// assert!(counter.load(Ordering::Relaxed) > 0);
/// ```
pub struct RealTimeExecutor {
    config: ExecutorConfig,
    /// The feedback loop proper — the same one the simulator drives.
    /// Everything else here is real time and the worker threads.
    ctl: ControlLoop,
    tasks: BTreeMap<ThreadId, TaskSlot>,
    reports: (Sender<WorkerReport>, Receiver<WorkerReport>),
    start: Instant,
    cpu_time: Arc<Mutex<BTreeMap<u64, Duration>>>,
}

impl RealTimeExecutor {
    /// Creates an executor.
    pub fn new(config: ExecutorConfig) -> Self {
        Self {
            ctl: ControlLoop::new(config.controller, config.dispatcher, MetricRegistry::new()),
            config,
            tasks: BTreeMap::new(),
            reports: bounded(64),
            start: Instant::now(),
            cpu_time: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// Enables structured trace recording and controller stage timing,
    /// returning the shared recorder: the same ring buffer and event
    /// vocabulary as the simulator, timestamps from the executor's own
    /// elapsed clock.
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) -> Arc<Recorder> {
        self.ctl.enable_telemetry(config)
    }

    /// The trace recorder installed by
    /// [`RealTimeExecutor::enable_telemetry`], if any.
    pub fn telemetry_recorder(&self) -> Option<Arc<Recorder>> {
        self.ctl.recorder().cloned()
    }

    /// A point-in-time snapshot of the subsystem counters
    /// ([`ControlLoop::telemetry_snapshot`]).  The executor has no event
    /// calendar, so the `events_*` counters stay zero on this backend.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.ctl.telemetry_snapshot()
    }

    /// The number of logical CPUs workers are sharded over.
    pub fn cpu_count(&self) -> usize {
        self.machine().cpu_count()
    }

    /// The CPU a task is currently placed on.
    pub fn cpu_of(&self, handle: JobHandle) -> Option<CpuId> {
        self.machine().cpu_of(handle.thread)
    }

    /// Read-only access to the multi-CPU machine the workers are sharded
    /// over — the same [`rrs_scheduler::Machine`] the simulator drives.
    pub fn machine(&self) -> &Machine {
        self.ctl.machine()
    }

    /// Read-only access to the controller.
    pub fn controller(&self) -> &Controller {
        self.ctl.controller()
    }

    /// Grows the machine to `cpus` logical CPUs mid-run (hot-add),
    /// returning the resulting CPU count (see
    /// [`ControlLoop::grow_cpus`]).  The next scheduling round dispatches
    /// the new CPUs.
    pub fn grow_cpus(&mut self, cpus: usize) -> usize {
        self.ctl.grow_cpus(cpus)
    }

    /// Wall-clock time elapsed since the executor was created — the
    /// executor's notion of "now".
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Aggregate statistics — the struct the simulator reports, measured
    /// over real time; `steps` counts scheduling rounds (one dispatch sweep
    /// over every CPU each).
    pub fn stats(&self) -> SimStats {
        self.ctl.stats()
    }

    /// The progress-metric registry shared with tasks.
    pub fn registry(&self) -> MetricRegistry {
        self.controller().registry().clone()
    }

    /// Total CPU time granted to a task so far.
    pub fn cpu_time(&self, handle: JobHandle) -> Duration {
        self.cpu_time
            .lock()
            .get(&handle.thread.raw())
            .copied()
            .unwrap_or_default()
    }

    /// The proportion currently reserved for a task, in parts per thousand.
    pub fn current_allocation_ppt(&self, handle: JobHandle) -> u32 {
        self.reservation(handle)
            .map(|r| r.proportion.ppt())
            .unwrap_or(0)
    }

    /// The reservation currently held by a task.
    pub fn reservation(&self, handle: JobHandle) -> Option<Reservation> {
        self.machine().reservation(handle.thread)
    }

    /// A task's dispatcher-side usage account (budget, period rollovers,
    /// missed deadlines).
    pub fn usage(&self, handle: JobHandle) -> Option<UsageAccount> {
        self.machine().usage(handle.thread)
    }

    /// Forces a reservation directly on the dispatcher, bypassing the
    /// controller — the wall-clock analogue of the simulator's
    /// `force_reservation`.  The controller may overwrite it on its next
    /// cycle unless the job is real-time.
    pub fn force_reservation(&mut self, handle: JobHandle, reservation: Reservation) {
        let _ = self
            .ctl
            .machine_mut()
            .set_reservation(handle.thread, reservation);
    }

    /// Spawns a task.
    ///
    /// `step` is called once per granted quantum with the quantum length and
    /// must return whether the task wants to continue, block or finish.
    /// The importance weight is read from the spec
    /// ([`JobSpec::with_importance`]).
    ///
    /// # Panics
    ///
    /// Panics if a real-time reservation is rejected by admission control;
    /// use [`RealTimeExecutor::try_spawn`] to handle rejection.
    pub fn spawn<F>(&mut self, name: &str, spec: JobSpec, step: F) -> JobHandle
    where
        F: FnMut(Duration) -> StepOutcome + Send + 'static,
    {
        self.try_spawn(name, spec, step)
            .expect("admission rejected: reduce the requested reservation")
    }

    /// Spawns a task, reporting real-time admission rejection instead of
    /// panicking.
    ///
    /// `step` is called once per granted quantum with the quantum length and
    /// must return whether the task wants to continue, block or finish.
    pub fn try_spawn<F>(
        &mut self,
        name: &str,
        spec: JobSpec,
        mut step: F,
    ) -> Result<JobHandle, AdmitError>
    where
        F: FnMut(Duration) -> StepOutcome + Send + 'static,
    {
        let handle = self.ctl.admit(spec)?;
        let thread = handle.thread;
        let raw = thread.raw();

        let (to_worker, from_executor) = bounded::<WorkerMessage>(1);
        let report_tx = self.reports.0.clone();
        let cpu_time = Arc::clone(&self.cpu_time);
        let worker_name = name.to_string();
        let join = std::thread::Builder::new()
            .name(worker_name)
            .spawn(move || {
                while let Ok(msg) = from_executor.recv() {
                    match msg {
                        WorkerMessage::Stop => break,
                        WorkerMessage::Run(quantum) => {
                            let t0 = Instant::now();
                            let outcome = step(quantum);
                            let elapsed = t0.elapsed();
                            *cpu_time.lock().entry(raw).or_default() += elapsed;
                            if report_tx
                                .send(WorkerReport {
                                    thread,
                                    elapsed,
                                    outcome,
                                })
                                .is_err()
                            {
                                break;
                            }
                            if outcome == StepOutcome::Done {
                                break;
                            }
                        }
                    }
                }
            })
            .expect("spawning a worker thread");

        self.tasks.insert(
            thread,
            TaskSlot {
                to_worker,
                join: Some(join),
                blocked: false,
                done: false,
            },
        );
        Ok(handle)
    }

    /// Removes a task: stops its worker thread, deregisters it from the
    /// controller and withdraws its reservation.
    ///
    /// Safe to call between scheduling rounds (workers only run inside
    /// [`RealTimeExecutor::run_for`], which waits for every released
    /// worker before returning).  Removing an unknown or already-removed
    /// handle is a no-op.
    pub fn remove(&mut self, handle: JobHandle) {
        let Some(mut slot) = self.tasks.remove(&handle.thread) else {
            return;
        };
        let _ = slot.to_worker.send(WorkerMessage::Stop);
        if let Some(join) = slot.join.take() {
            let _ = join.join();
        }
        // Thread ids are never reused, so the per-task counter would
        // otherwise accumulate forever under job churn.
        self.cpu_time.lock().remove(&handle.thread.raw());
        self.ctl.retire(handle);
    }

    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Runs the scheduling loop for the given wall-clock duration.
    ///
    /// The controller's next-cycle-due time lives in the control loop and
    /// so persists across calls: a caller advancing in chunks shorter than
    /// the controller period still gets its cycles (and its blocked tasks
    /// re-polled) on the period grid.
    pub fn run_for(&mut self, duration: Duration) {
        let deadline = Instant::now() + duration;

        while Instant::now() < deadline {
            self.ctl.stats_mut().steps += 1;
            let now_us = self.now_us();
            if now_us >= self.ctl.next_cycle_us() {
                // The cycle's cost elapses for real, so none is charged.
                self.ctl.cycle(SimTime::from_micros(now_us), 0);
                self.ctl.skip_to_next_cycle(self.now_us());
                // Re-poll blocked tasks at controller frequency.
                for (&tid, task) in &mut self.tasks {
                    if task.blocked && !task.done {
                        task.blocked = false;
                        let _ = self.ctl.machine_mut().unblock(tid);
                    }
                }
            }

            let now_us = self.now_us();
            self.ctl.machine_mut().advance_to(now_us);

            // Dispatch every CPU, release the selected workers in
            // parallel, then wait for all of them (each simulated CPU runs
            // at most one worker at a time).
            let mut running = 0usize;
            let mut min_idle_quantum = u64::MAX;
            for cpu in 0..self.ctl.machine().cpu_count() {
                let outcome = self.ctl.machine_mut().dispatch(CpuId(cpu as u32));
                let Some(tid) = outcome.thread else {
                    min_idle_quantum = min_idle_quantum.min(outcome.quantum_us);
                    continue;
                };
                let quantum = Duration::from_micros(outcome.quantum_us);
                let slot = self.tasks.get_mut(&tid).expect("dispatched task exists");
                if slot.done || slot.to_worker.send(WorkerMessage::Run(quantum)).is_err() {
                    let _ = self.ctl.machine_mut().block(tid);
                    continue;
                }
                running += 1;
            }

            if running == 0 {
                if min_idle_quantum < u64::MAX {
                    std::thread::sleep(self.config.idle_sleep(min_idle_quantum));
                }
                continue;
            }
            for _ in 0..running {
                match self.reports.1.recv_timeout(Duration::from_secs(5)) {
                    Ok(report) => self.handle_report(report),
                    Err(_) => return,
                }
            }
        }
    }

    fn handle_report(&mut self, report: WorkerReport) {
        let used_us = report.elapsed.as_micros().max(1) as u64;
        // Attribute the consumption to the CPU the worker ran on, like the
        // simulator's per-CPU breakdown.
        if let Some(cpu) = self.ctl.machine().cpu_of(report.thread) {
            if let Some(c) = self.ctl.stats_mut().per_cpu.get_mut(cpu.index()) {
                c.used_us += used_us;
            }
        }
        let _ = self.ctl.machine_mut().charge(report.thread, used_us);
        // A report may outlive its task: if `run_for` timed out waiting
        // while a worker was mid-step and the task was then removed, the
        // stale report drains here on the next round.  Drop it.
        let Some(slot) = self.tasks.get_mut(&report.thread) else {
            return;
        };
        match report.outcome {
            StepOutcome::Continue => {}
            StepOutcome::Blocked => {
                slot.blocked = true;
                let _ = self.ctl.machine_mut().block(report.thread);
            }
            StepOutcome::Done => {
                slot.done = true;
                let _ = self.ctl.machine_mut().block(report.thread);
            }
        }
    }

    /// Stops every worker thread and waits for them to exit.
    pub fn shutdown(&mut self) {
        for slot in self.tasks.values_mut() {
            let _ = slot.to_worker.send(WorkerMessage::Stop);
        }
        // Drain any in-flight report so workers are not stuck sending.
        while self.reports.1.try_recv().is_ok() {}
        for slot in self.tasks.values_mut() {
            if let Some(join) = slot.join.take() {
                let _ = join.join();
            }
        }
        self.tasks.clear();
    }
}

impl Drop for RealTimeExecutor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for RealTimeExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RealTimeExecutor")
            .field("tasks", &self.tasks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_scheduler::{Period, Proportion};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn spin_for(duration: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < duration {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn tasks_run_and_shutdown_cleanly() {
        let mut exec = RealTimeExecutor::new(ExecutorConfig::default());
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        let handle = exec.spawn("spin", JobSpec::miscellaneous(), move |q| {
            spin_for(q.min(Duration::from_micros(500)));
            c.fetch_add(1, Ordering::Relaxed);
            StepOutcome::Continue
        });
        exec.run_for(Duration::from_millis(100));
        exec.shutdown();
        assert!(counter.load(Ordering::Relaxed) > 0);
        assert!(exec.cpu_time(handle) > Duration::ZERO);
        assert!(exec.tasks.is_empty());
    }

    #[test]
    fn done_task_stops_being_scheduled() {
        let mut exec = RealTimeExecutor::new(ExecutorConfig::default());
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        exec.spawn("once", JobSpec::miscellaneous(), move |_q| {
            c.fetch_add(1, Ordering::Relaxed);
            StepOutcome::Done
        });
        exec.run_for(Duration::from_millis(80));
        exec.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn misc_task_allocation_grows_under_the_controller() {
        let mut exec = RealTimeExecutor::new(ExecutorConfig::default());
        let handle = exec.spawn("spin", JobSpec::miscellaneous(), move |q| {
            spin_for(q.min(Duration::from_micros(300)));
            StepOutcome::Continue
        });
        exec.run_for(Duration::from_millis(300));
        let alloc = exec.current_allocation_ppt(handle);
        exec.shutdown();
        assert!(alloc > 1, "allocation should have grown, got {alloc}");
    }

    #[test]
    fn real_time_task_keeps_its_reservation() {
        let mut exec = RealTimeExecutor::new(ExecutorConfig::default());
        let spec = JobSpec::real_time(Proportion::from_ppt(300), Period::from_millis(20));
        let rt = exec.spawn("rt", spec, move |q| {
            spin_for(q.min(Duration::from_micros(300)));
            StepOutcome::Continue
        });
        let _bg = exec.spawn("bg", JobSpec::miscellaneous(), move |q| {
            spin_for(q.min(Duration::from_micros(300)));
            StepOutcome::Continue
        });
        exec.run_for(Duration::from_millis(200));
        let alloc = exec.current_allocation_ppt(rt);
        exec.shutdown();
        assert_eq!(alloc, 300);
    }

    #[test]
    fn idle_sleep_is_the_quantum_clamped_to_the_configured_bounds() {
        let config = ExecutorConfig::default();
        assert_eq!(config.idle_sleep_min_us, 100);
        assert_eq!(config.idle_sleep_max_us, 1_000);
        assert_eq!(config.idle_sleep(5), Duration::from_micros(100));
        assert_eq!(config.idle_sleep(500), Duration::from_micros(500));
        assert_eq!(config.idle_sleep(50_000), Duration::from_micros(1_000));

        let wide = ExecutorConfig {
            idle_sleep_min_us: 10,
            idle_sleep_max_us: 20_000,
            ..ExecutorConfig::default()
        };
        assert_eq!(wide.idle_sleep(50_000), Duration::from_micros(20_000));
        assert_eq!(wide.idle_sleep(15), Duration::from_micros(15));
        // A min above the max is forgiven, not panicked on.
        let crossed = ExecutorConfig {
            idle_sleep_min_us: 5_000,
            idle_sleep_max_us: 10,
            ..ExecutorConfig::default()
        };
        assert_eq!(crossed.idle_sleep(1), Duration::from_micros(5_000));
    }

    #[test]
    fn idle_executor_honours_a_larger_sleep_bound() {
        // With no tasks at all, the loop is pure idle sleeping; it must
        // still return promptly and not busy-spin.
        let mut exec = RealTimeExecutor::new(ExecutorConfig {
            idle_sleep_min_us: 2_000,
            idle_sleep_max_us: 4_000,
            ..ExecutorConfig::default()
        });
        let t0 = Instant::now();
        exec.run_for(Duration::from_millis(30));
        assert!(t0.elapsed() >= Duration::from_millis(30));
        assert!(t0.elapsed() < Duration::from_millis(300));
    }

    #[test]
    fn two_cpu_executor_runs_two_workers_concurrently() {
        let mut exec = RealTimeExecutor::new(ExecutorConfig::default().with_cpus(2));
        assert_eq!(exec.cpu_count(), 2);
        let a = exec.spawn("a", JobSpec::miscellaneous(), move |q| {
            spin_for(q.min(Duration::from_micros(500)));
            StepOutcome::Continue
        });
        let b = exec.spawn("b", JobSpec::miscellaneous(), move |q| {
            spin_for(q.min(Duration::from_micros(500)));
            StepOutcome::Continue
        });
        exec.run_for(Duration::from_millis(200));
        let (ca, cb) = (exec.cpu_of(a), exec.cpu_of(b));
        let (ta, tb) = (exec.cpu_time(a), exec.cpu_time(b));
        exec.shutdown();
        assert_ne!(ca, cb, "workers sharded over distinct CPUs");
        assert!(ta > Duration::ZERO && tb > Duration::ZERO);
    }

    #[test]
    fn blocked_tasks_are_woken_by_the_controller_tick() {
        let mut exec = RealTimeExecutor::new(ExecutorConfig::default());
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        exec.spawn("blocker", JobSpec::miscellaneous(), move |_q| {
            c.fetch_add(1, Ordering::Relaxed);
            StepOutcome::Blocked
        });
        exec.run_for(Duration::from_millis(150));
        exec.shutdown();
        // It blocks after every step but should still have run several
        // times because the controller tick re-polls it.
        assert!(counter.load(Ordering::Relaxed) >= 2);
    }
}
