//! The cooperative wall-clock executor.
//!
//! A backend is a clock and a way to spend a quantum.  The clock here is
//! [`Instant`]; a quantum is spent by releasing the dispatched task's
//! worker thread for one *step* and charging what the step took.  All the
//! rest — admission, the controller cycle, actuation, statistics,
//! telemetry — is the [`ControlLoop`] the simulator drives too, read
//! through [`RealTimeExecutor::control`].
//!
//! Every scheduling round dispatches each CPU of the loop's machine,
//! releases the selected workers in parallel and waits for all of them to
//! report back (logical sharding — workers are not pinned to hardware
//! cores, but at most one worker runs per logical CPU at a time).

use crossbeam::channel::{bounded, Receiver, Sender};
use rrs_core::{
    controller::AdmitError, ControlLoop, ControllerConfig, JobHandle, JobSpec, SimTime,
};
use rrs_queue::MetricRegistry;
use rrs_scheduler::{CpuId, DispatcherConfig, Reservation};
use rrs_telemetry::{Recorder, TelemetryConfig};
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
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecutorConfig {
    /// Dispatcher configuration (dispatch interval is interpreted in real
    /// microseconds).
    pub dispatcher: DispatcherConfig,
    /// Controller configuration.  Its `placement.cpus` sets how many
    /// logical CPUs the executor shards workers over (default 1).
    pub controller: ControllerConfig,
}

impl ExecutorConfig {
    /// Returns a copy sharding workers over `cpus` logical CPUs (clamped
    /// to at least one).
    pub fn with_cpus(mut self, cpus: usize) -> Self {
        self.controller = self.controller.with_cpus(cpus);
        self
    }
}

/// Shortest sleep when no task is runnable, in microseconds: stops the
/// loop from busy-spinning on sub-100 µs idle quanta the OS timer cannot
/// honour anyway.
const IDLE_SLEEP_MIN_US: u64 = 100;
/// Longest sleep when no task is runnable, in microseconds: keeps the
/// executor responsive to period boundaries however long the idle quantum.
const IDLE_SLEEP_MAX_US: u64 = 1_000;

/// The idle sleep for a given idle quantum: the quantum clamped to
/// [`IDLE_SLEEP_MIN_US`, `IDLE_SLEEP_MAX_US`].
fn idle_sleep(quantum_us: u64) -> Duration {
    Duration::from_micros(quantum_us.clamp(IDLE_SLEEP_MIN_US, IDLE_SLEEP_MAX_US))
}

struct WorkerReport {
    handle: JobHandle,
    elapsed: Duration,
    outcome: StepOutcome,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    Runnable,
    /// Blocked until the next controller tick re-polls it.
    Blocked,
    /// Finished: blocked for good.
    Done,
}

/// One task's worker thread, at its job's controller slot in
/// [`RealTimeExecutor::tasks`].
struct Task {
    /// Slot indices are reused, thread ids never: the id tells this task
    /// from a former tenant of its slot.
    handle: JobHandle,
    /// Releases the worker for one step of the sent quantum; dropping it
    /// stops the worker.
    to_worker: Sender<Duration>,
    join: JoinHandle<()>,
    state: TaskState,
}

/// A cooperative wall-clock executor over `N` logical CPUs.
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
/// let job = exec
///     .try_spawn("worker", JobSpec::miscellaneous(), move |_quantum| {
///         c.fetch_add(1, Ordering::Relaxed);
///         StepOutcome::Continue
///     })
///     .expect("miscellaneous jobs are always admitted");
/// exec.run_for(Duration::from_millis(50));
/// exec.shutdown();
/// assert!(counter.load(Ordering::Relaxed) > 0);
/// // Everything the control loop knows is read through `control()`.
/// assert!(exec.control().machine().usage(job.thread).unwrap().total_used_us > 0);
/// ```
pub struct RealTimeExecutor {
    /// The feedback loop proper — the same one the simulator drives.
    /// Everything else here is real time and the worker threads.
    ctl: ControlLoop,
    /// Indexed by [`rrs_core::JobSlot::index`]; the loop owns the one id →
    /// slot table ([`ControlLoop::slot_of`]).
    tasks: Vec<Option<Task>>,
    reports: (Sender<WorkerReport>, Receiver<WorkerReport>),
    start: Instant,
}

impl RealTimeExecutor {
    /// Creates an executor.
    pub fn new(config: ExecutorConfig) -> Self {
        Self {
            ctl: ControlLoop::new(config.controller, config.dispatcher, MetricRegistry::new()),
            tasks: Vec::new(),
            reports: bounded(64),
            start: Instant::now(),
        }
    }

    /// The control loop, read-only: controller, machine (reservations,
    /// usage accounts, placement), the progress-metric registry, statistics
    /// (`steps` counts scheduling rounds here) and telemetry.  There is no
    /// mutable twin: retiring a job without stopping its worker must stay
    /// impossible.
    pub fn control(&self) -> &ControlLoop {
        &self.ctl
    }

    /// Enables structured trace recording and controller stage timing,
    /// returning the shared recorder: the same ring buffer and event
    /// vocabulary as the simulator, timestamps from the executor's own
    /// elapsed clock.
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) -> Arc<Recorder> {
        self.ctl.enable_telemetry(config)
    }

    /// Grows the machine to `cpus` logical CPUs mid-run (hot-add),
    /// returning the resulting CPU count (see
    /// [`ControlLoop::grow_cpus`]).  The next scheduling round dispatches
    /// the new CPUs.
    pub fn grow_cpus(&mut self, cpus: usize) -> usize {
        self.ctl.grow_cpus(cpus)
    }

    /// When the executor was created: time zero of its clock, the one
    /// its control loop, statistics and trace timestamps run on.
    pub fn epoch(&self) -> Instant {
        self.start
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

    /// Spawns a task on a worker thread of its own, or reports that
    /// admission control rejected its real-time reservation.
    ///
    /// `step` is called once per granted quantum with the quantum length and
    /// must return whether the task wants to continue, block or finish.
    /// The importance weight is read from the spec
    /// ([`JobSpec::with_importance`]).
    pub fn try_spawn(
        &mut self,
        name: &str,
        spec: JobSpec,
        mut step: impl FnMut(Duration) -> StepOutcome + Send + 'static,
    ) -> Result<JobHandle, AdmitError> {
        let handle = self.ctl.admit(spec)?;
        let (to_worker, from_executor) = bounded::<Duration>(1);
        let report_tx = self.reports.0.clone();
        let join = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                while let Ok(quantum) = from_executor.recv() {
                    let t0 = Instant::now();
                    let outcome = step(quantum);
                    let report = WorkerReport {
                        handle,
                        elapsed: t0.elapsed(),
                        outcome,
                    };
                    if report_tx.send(report).is_err() || outcome == StepOutcome::Done {
                        break;
                    }
                }
            })
            .expect("spawning a worker thread");

        let index = handle.slot.index();
        if self.tasks.len() <= index {
            self.tasks.resize_with(index + 1, || None);
        }
        self.tasks[index] = Some(Task {
            handle,
            to_worker,
            join,
            state: TaskState::Runnable,
        });
        Ok(handle)
    }

    /// Removes a task: stops its worker thread, deregisters it from the
    /// controller, withdraws its reservation and frees its slot's entry.
    ///
    /// Safe to call between scheduling rounds (workers only run inside
    /// [`RealTimeExecutor::run_for`], which waits for every released
    /// worker before returning).  Removing an unknown or already-removed
    /// handle is a no-op.
    pub fn remove(&mut self, handle: JobHandle) {
        // Slot indices are reused: only the slot's present tenant goes.
        let tenant = |task: &mut Task| task.handle.thread == handle.thread;
        let Some(task) = self
            .tasks
            .get_mut(handle.slot.index())
            .and_then(|entry| entry.take_if(tenant))
        else {
            return;
        };
        drop(task.to_worker);
        let _ = task.join.join();
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
                for task in self.tasks.iter_mut().flatten() {
                    if task.state == TaskState::Blocked {
                        task.state = TaskState::Runnable;
                        self.ctl.unblock(task.handle.slot, task.handle.thread);
                    }
                }
            }

            let now_us = self.now_us();
            self.ctl.machine_mut().advance_to(now_us);

            // Dispatch every CPU, release the selected workers in
            // parallel, then wait for all of them (each logical CPU runs
            // at most one worker at a time).
            let mut running = 0usize;
            let mut min_idle_quantum = u64::MAX;
            for cpu in 0..self.ctl.machine().cpu_count() {
                let outcome = self.ctl.machine_mut().dispatch(CpuId(cpu as u32));
                let Some(tid) = outcome.thread else {
                    min_idle_quantum = min_idle_quantum.min(outcome.quantum_us);
                    continue;
                };
                let slot = self
                    .ctl
                    .slot_of(tid)
                    .expect("dispatched thread serves a job");
                let task = self.tasks[slot.index()]
                    .as_ref()
                    .expect("dispatched job has a task");
                let quantum = Duration::from_micros(outcome.quantum_us);
                // A worker whose step panicked is gone; park its thread.
                if task.to_worker.send(quantum).is_err() {
                    self.ctl.block(slot, tid);
                    continue;
                }
                running += 1;
            }

            if running == 0 {
                std::thread::sleep(idle_sleep(min_idle_quantum));
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
        let handle = report.handle;
        let used_us = report.elapsed.as_micros().max(1) as u64;
        // A report may outlive its task: if `run_for` timed out waiting
        // while a worker was mid-step and the task was then removed, the
        // stale report drains here on a later round — by when the slot may
        // serve another job.  The loop refuses the stale charge by thread
        // id, the task table likewise.
        self.ctl.charge(handle.slot, handle.thread, used_us);
        let Some(task) = self
            .tasks
            .get_mut(handle.slot.index())
            .and_then(Option::as_mut)
            .filter(|task| task.handle.thread == handle.thread)
        else {
            return;
        };
        task.state = match report.outcome {
            StepOutcome::Continue => return,
            StepOutcome::Blocked => TaskState::Blocked,
            StepOutcome::Done => TaskState::Done,
        };
        self.ctl.block(handle.slot, handle.thread);
    }

    /// Stops every worker thread and waits for them to exit.
    pub fn shutdown(&mut self) {
        // Dropping a task drops its sender, which is its stop signal.
        let joins: Vec<JoinHandle<()>> = self
            .tasks
            .drain(..)
            .flatten()
            .map(|task| task.join)
            .collect();
        // Drain any in-flight report so workers are not stuck sending.
        while self.reports.1.try_recv().is_ok() {}
        for join in joins {
            let _ = join.join();
        }
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
            .field("tasks", &self.tasks.iter().flatten().count())
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

    /// A task that burns up to `cap_us` of each quantum and never blocks.
    fn spinner(cap_us: u64) -> impl FnMut(Duration) -> StepOutcome + Send + 'static {
        move |q| {
            spin_for(q.min(Duration::from_micros(cap_us)));
            StepOutcome::Continue
        }
    }

    fn allocation_ppt(exec: &RealTimeExecutor, handle: JobHandle) -> u32 {
        exec.control()
            .reservation(handle.slot, handle.thread)
            .map_or(0, |r| r.proportion.ppt())
    }

    fn cpu_used_us(exec: &RealTimeExecutor, handle: JobHandle) -> u64 {
        exec.control()
            .machine()
            .usage(handle.thread)
            .map_or(0, |u| u.total_used_us)
    }

    #[test]
    fn tasks_run_and_shutdown_cleanly() {
        let mut exec = RealTimeExecutor::new(ExecutorConfig::default());
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        let handle = exec
            .try_spawn("spin", JobSpec::miscellaneous(), move |q| {
                spin_for(q.min(Duration::from_micros(500)));
                c.fetch_add(1, Ordering::Relaxed);
                StepOutcome::Continue
            })
            .unwrap();
        exec.run_for(Duration::from_millis(100));
        exec.shutdown();
        assert!(counter.load(Ordering::Relaxed) > 0);
        assert!(cpu_used_us(&exec, handle) > 0);
        assert!(exec.tasks.is_empty());
    }

    #[test]
    fn done_task_stops_being_scheduled() {
        let mut exec = RealTimeExecutor::new(ExecutorConfig::default());
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        exec.try_spawn("once", JobSpec::miscellaneous(), move |_q| {
            c.fetch_add(1, Ordering::Relaxed);
            StepOutcome::Done
        })
        .unwrap();
        exec.run_for(Duration::from_millis(80));
        exec.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn misc_task_allocation_grows_under_the_controller() {
        let mut exec = RealTimeExecutor::new(ExecutorConfig::default());
        let handle = exec
            .try_spawn("spin", JobSpec::miscellaneous(), spinner(300))
            .unwrap();
        exec.run_for(Duration::from_millis(300));
        let alloc = allocation_ppt(&exec, handle);
        exec.shutdown();
        assert!(alloc > 1, "allocation should have grown, got {alloc}");
    }

    #[test]
    fn real_time_task_keeps_its_reservation() {
        let mut exec = RealTimeExecutor::new(ExecutorConfig::default());
        let spec = JobSpec::real_time(Proportion::from_ppt(300), Period::from_millis(20));
        let rt = exec.try_spawn("rt", spec, spinner(300)).unwrap();
        // A second reservation that does not fit is refused, not panicked on.
        let too_much = JobSpec::real_time(Proportion::from_ppt(800), Period::from_millis(20));
        assert!(exec.try_spawn("rt2", too_much, spinner(300)).is_err());
        assert_eq!(exec.control().stats().admission_rejections, 1);
        exec.try_spawn("bg", JobSpec::miscellaneous(), spinner(300))
            .unwrap();
        exec.run_for(Duration::from_millis(200));
        let alloc = allocation_ppt(&exec, rt);
        exec.shutdown();
        assert_eq!(alloc, 300);
    }

    #[test]
    fn idle_sleep_is_the_quantum_clamped_to_the_configured_bounds() {
        assert_eq!(idle_sleep(5), Duration::from_micros(IDLE_SLEEP_MIN_US));
        assert_eq!(idle_sleep(500), Duration::from_micros(500));
        assert_eq!(idle_sleep(50_000), Duration::from_micros(IDLE_SLEEP_MAX_US));

        // With no tasks at all the loop is pure idle sleeping; it must
        // still return promptly and not busy-spin past its deadline.
        let mut exec = RealTimeExecutor::new(ExecutorConfig::default());
        let t0 = Instant::now();
        exec.run_for(Duration::from_millis(30));
        assert!(t0.elapsed() >= Duration::from_millis(30));
        assert!(t0.elapsed() < Duration::from_millis(300));
        assert!(exec.control().stats().steps > 0);
    }

    #[test]
    fn two_cpu_executor_runs_two_workers_concurrently() {
        let mut exec = RealTimeExecutor::new(ExecutorConfig::default().with_cpus(2));
        assert_eq!(exec.control().machine().cpu_count(), 2);
        let a = exec
            .try_spawn("a", JobSpec::miscellaneous(), spinner(500))
            .unwrap();
        let b = exec
            .try_spawn("b", JobSpec::miscellaneous(), spinner(500))
            .unwrap();
        exec.run_for(Duration::from_millis(200));
        let machine = exec.control().machine();
        let (ca, cb) = (machine.cpu_of(a.thread), machine.cpu_of(b.thread));
        let (ta, tb) = (cpu_used_us(&exec, a), cpu_used_us(&exec, b));
        let per_cpu = exec.control().stats().per_cpu;
        exec.shutdown();
        assert_ne!(ca, cb, "workers sharded over distinct CPUs");
        assert!(ta > 0 && tb > 0);
        // Each worker's consumption is booked on the CPU it ran on.
        assert!(per_cpu.iter().all(|cpu| cpu.used_us > 0), "{per_cpu:?}");
        assert_eq!(per_cpu.iter().map(|cpu| cpu.used_us).sum::<u64>(), ta + tb);
    }

    #[test]
    fn blocked_tasks_are_woken_by_the_controller_tick() {
        let mut exec = RealTimeExecutor::new(ExecutorConfig::default());
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        exec.try_spawn("blocker", JobSpec::miscellaneous(), move |_q| {
            c.fetch_add(1, Ordering::Relaxed);
            StepOutcome::Blocked
        })
        .unwrap();
        exec.run_for(Duration::from_millis(150));
        exec.shutdown();
        // It blocks after every step but should still have run several
        // times because the controller tick re-polls it.
        assert!(counter.load(Ordering::Relaxed) >= 2);
    }

    #[test]
    fn removal_frees_the_slot_and_its_next_tenant_gets_a_fresh_worker() {
        let mut exec = RealTimeExecutor::new(ExecutorConfig::default());
        let old = exec
            .try_spawn("old", JobSpec::miscellaneous(), spinner(300))
            .unwrap();
        exec.run_for(Duration::from_millis(30));
        exec.remove(old);
        assert!(exec.tasks[old.slot.index()].is_none(), "entry freed");
        assert_eq!(exec.control().slot_of(old.thread), None);
        exec.remove(old); // an already-removed handle is a no-op

        let steps = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&steps);
        let new = exec
            .try_spawn("new", JobSpec::miscellaneous(), move |q| {
                s.fetch_add(1, Ordering::Relaxed);
                spin_for(q.min(Duration::from_micros(300)));
                StepOutcome::Continue
            })
            .unwrap();
        assert_eq!(new.slot.index(), old.slot.index(), "slot reused");
        assert_ne!(new.thread, old.thread);

        // A report the old worker left behind (it can outlive a `run_for`
        // that timed out) reaches neither the slot's new tenant's account
        // nor its state, and the leftover handle cannot remove it.
        let booked = exec.control().stats().total_used_us();
        exec.handle_report(WorkerReport {
            handle: old,
            elapsed: Duration::from_millis(7),
            outcome: StepOutcome::Done,
        });
        exec.remove(old);
        assert_eq!(exec.control().stats().total_used_us(), booked);
        assert_eq!(cpu_used_us(&exec, new), 0);
        let tenant = exec.tasks[new.slot.index()].as_ref().expect("still there");
        assert_eq!(tenant.handle, new);
        assert_eq!(tenant.state, TaskState::Runnable);

        exec.run_for(Duration::from_millis(60));
        assert!(steps.load(Ordering::Relaxed) > 0, "the fresh worker runs");
        assert!(cpu_used_us(&exec, new) > 0);
        exec.shutdown();
    }
}
