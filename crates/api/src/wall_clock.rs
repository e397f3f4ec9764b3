//! The wall-clock backend: [`WorkModel`]s on real OS threads, under the
//! same [`ControlLoop`] the simulator drives.
//!
//! A backend is a clock and a way to spend a quantum.  The clock here is
//! [`Instant`]; a quantum is spent by releasing the dispatched job's
//! worker thread, whose model computes its consumption for the quantum
//! (the simulator's cycles-to-time arithmetic at the simulator's clock
//! rate) and then busy-waits that long: the simulator *books* a model's
//! consumption, this host *spends* it.  Admission, the controller cycle,
//! actuation, statistics and telemetry are the loop's.
//!
//! Every scheduling round dispatches each CPU, releases the selected
//! workers in parallel and waits for their reports.  Workers are not
//! pinned to hardware cores, but at most one runs per logical CPU at a
//! time.  The host is cooperative — a user-space library cannot preempt
//! arbitrary code, and the paper's dispatcher too enforces allocations
//! only at dispatch time — and a step is charged the wall time it took.
//! A model that blocks is re-polled (`poll_unblock`) at each controller
//! tick.
//!
//! What it validates is the control math under real timing noise, not
//! OS scheduling: results match the simulator within scheduling
//! tolerance, not bit-for-bit.

use crate::time::SimTime;
use crate::{Backend, Host};
use rrs_core::{
    controller::AdmitError, ControlLoop, Controller, ControllerConfig, JobHandle, JobSpec, SimStats,
};
use rrs_queue::MetricRegistry;
use rrs_scheduler::{CpuId, DispatcherConfig, Reservation, UsageAccount};
use rrs_sim::{JobSeries, SimConfig, Trace, WorkModel};
use rrs_telemetry::{Recorder, TelemetryConfig, TelemetrySnapshot};
use std::any::Any;
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shortest sleep when no job is runnable, in microseconds: stops the
/// round from busy-spinning on sub-100 µs idle quanta the OS timer cannot
/// honour anyway.
const IDLE_SLEEP_MIN_US: u64 = 100;
/// Longest sleep when no job is runnable, in microseconds: keeps the host
/// responsive to period boundaries however long the idle quantum.
const IDLE_SLEEP_MAX_US: u64 = 1_000;
/// How long a round waits for a report before giving up on the round
/// (a model that does not return); the late report drains in a later one.
const REPORT_TIMEOUT: Duration = Duration::from_secs(5);

/// The idle sleep for a given idle quantum: the quantum clamped to
/// [`IDLE_SLEEP_MIN_US`, `IDLE_SLEEP_MAX_US`].
fn idle_sleep(quantum_us: u64) -> Duration {
    Duration::from_micros(quantum_us.clamp(IDLE_SLEEP_MIN_US, IDLE_SLEEP_MAX_US))
}

/// Burns `us` microseconds of real CPU.
fn spin_for_us(us: u64) {
    let t0 = Instant::now();
    while (t0.elapsed().as_micros() as u64) < us {
        std::hint::spin_loop();
    }
}

/// What a worker sends back for each quantum it was released for.
struct Report {
    handle: JobHandle,
    elapsed: Duration,
    blocked: bool,
    /// The model's progress counter after the step.
    progress: Option<f64>,
    /// The model panicked; the worker has exited.
    died: bool,
}

/// One job's worker thread and what the host keeps of it, at the job's
/// controller slot in [`WallClockHost::tasks`].
struct Task {
    /// Slot indices are reused, thread ids never: the id tells this task
    /// from a former tenant of its slot.
    handle: JobHandle,
    /// Releases the worker for one quantum (µs); dropping it stops the
    /// worker.
    to_worker: SyncSender<u64>,
    join: JoinHandle<()>,
    /// Blocked until the next controller tick re-polls it.
    blocked: bool,
    series: JobSeries,
    /// The model's progress counter as of its last report.
    progress: Option<f64>,
}

/// The wall-clock backend.  Build one with [`crate::Runtime::wall_clock`].
pub(crate) struct WallClockHost {
    /// The feedback loop proper — the same one the simulator drives.
    ctl: ControlLoop,
    /// Indexed by [`rrs_core::JobSlot::index`]; the loop owns the one id →
    /// slot table ([`ControlLoop::slot_of`]).
    tasks: Vec<Option<Task>>,
    reports: (SyncSender<Report>, Receiver<Report>),
    /// Time zero of the host's clock, the one its control loop,
    /// statistics and trace timestamps run on.
    start: Instant,
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
    /// A host sharding its workers over `cpus` logical CPUs (at least
    /// one), with the default dispatcher and controller.
    pub(crate) fn new(cpus: usize) -> Self {
        let sim = SimConfig::default();
        let trace_interval_us = (sim.trace_interval_s * 1e6).round().max(1.0) as u64;
        let controller = ControllerConfig::default().with_cpus(cpus);
        Self {
            ctl: ControlLoop::new(
                controller,
                DispatcherConfig::default(),
                MetricRegistry::new(),
            ),
            tasks: Vec::new(),
            reports: sync_channel(64),
            start: Instant::now(),
            cpu_hz: sim.cpu.clock_hz,
            trace: Trace::new(),
            trace_interval: SimTime::from_micros(trace_interval_us),
            next_trace: SimTime::ZERO,
            last_trace: SimTime::ZERO,
        }
    }

    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// One scheduling round: the controller cycle if one is due (which
    /// re-polls the blocked tasks), then every CPU dispatched, the
    /// selected workers released in parallel and every report collected —
    /// or, with nothing runnable, an idle sleep.
    ///
    /// The next-cycle-due time lives in the control loop, so a caller
    /// advancing in chunks shorter than the controller period still gets
    /// its cycles on the period grid.
    fn round(&mut self) {
        self.ctl.stats_mut().steps += 1;
        let now_us = self.now_us();
        if now_us >= self.ctl.next_cycle_us() {
            // The cycle's cost elapses for real, so none is charged.
            self.ctl.cycle(SimTime::from_micros(now_us), 0);
            self.ctl.skip_to_next_cycle(self.now_us());
            for task in self.tasks.iter_mut().flatten().filter(|t| t.blocked) {
                task.blocked = false;
                self.ctl.unblock(task.handle.slot, task.handle.thread);
            }
        }
        let now_us = self.now_us();
        self.ctl.machine_mut().advance_to(now_us);

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
            // A worker whose model panicked behind a round that gave up
            // waiting may be gone before its report drains; park it.
            if task.to_worker.send(outcome.quantum_us).is_err() {
                self.ctl.block(slot, tid);
                continue;
            }
            running += 1;
        }

        if running == 0 {
            std::thread::sleep(idle_sleep(min_idle_quantum));
            return;
        }
        for _ in 0..running {
            match self.reports.1.recv_timeout(REPORT_TIMEOUT) {
                Ok(report) => self.handle_report(report),
                Err(_) => return,
            }
        }
    }

    fn handle_report(&mut self, report: Report) {
        let handle = report.handle;
        let used_us = report.elapsed.as_micros().max(1) as u64;
        // A report may outlive its task: if a round gave up waiting while
        // a worker was mid-step and the job was then removed, the stale
        // report drains here in a later round — by when the slot may serve
        // another job.  The loop refuses the stale charge by thread id,
        // the task table likewise.
        self.ctl.charge(handle.slot, handle.thread, used_us);
        let Some(task) = self
            .tasks
            .get_mut(handle.slot.index())
            .and_then(Option::as_mut)
            .filter(|task| task.handle.thread == handle.thread)
        else {
            return;
        };
        task.progress = report.progress;
        if report.blocked || report.died {
            // A dead worker is parked for good: never re-polled.
            task.blocked = !report.died;
            self.ctl.block(handle.slot, handle.thread);
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
        for (thread, slot) in self.ctl.threads_by_id() {
            let task = self.tasks[slot.index()]
                .as_mut()
                .expect("a bound slot has its task");
            let reservation = self.ctl.reservation(slot, thread);
            task.series
                .sample(&mut self.trace, t, interval, reservation, task.progress);
        }
        self.trace.record_fills(t, self.ctl.controller().registry());
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
        mut work: Box<dyn WorkModel>,
    ) -> Result<JobHandle, AdmitError> {
        let handle = self.ctl.admit(spec)?;
        let progress = work.progress_counter();
        let (to_worker, from_host) = sync_channel::<u64>(1);
        let to_host = self.reports.0.clone();
        let (epoch, cpu_hz) = (self.start, self.cpu_hz);
        let join = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                let mut blocked = false;
                while let Ok(quantum_us) = from_host.recv() {
                    let t0 = Instant::now();
                    let step = catch_unwind(AssertUnwindSafe(|| {
                        let now_us = epoch.elapsed().as_micros() as u64;
                        let quantum_us = quantum_us.max(1);
                        if !blocked || work.poll_unblock(now_us) {
                            let result = work.run(now_us, quantum_us, cpu_hz);
                            blocked = result.blocked;
                            spin_for_us(result.used_us.min(quantum_us));
                        }
                        work.progress_counter()
                    }));
                    let died = step.is_err();
                    let report = Report {
                        handle,
                        elapsed: t0.elapsed(),
                        blocked,
                        progress: step.ok().flatten(),
                        died,
                    };
                    if to_host.send(report).is_err() || died {
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
            blocked: false,
            series: JobSeries::new(name),
            progress,
        });
        Ok(handle)
    }

    /// Stops the job's worker thread — after its current step, should a
    /// round have given up waiting on one — then retires the job.
    fn remove_job(&mut self, handle: JobHandle) {
        // Slot indices are reused: a leftover handle must not evict the
        // slot's next tenant.
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

    fn advance(&mut self, dt: SimTime) {
        let target = Host::now(self) + dt;
        loop {
            self.maybe_record_trace();
            if Host::now(self) >= target {
                break;
            }
            self.round();
        }
        self.ctl.machine_mut().sync_all();
    }

    fn now(&self) -> SimTime {
        SimTime::from(self.start.elapsed())
    }

    fn reservation(&self, handle: JobHandle) -> Option<Reservation> {
        self.ctl.reservation(handle.slot, handle.thread)
    }

    fn cpu_of(&self, handle: JobHandle) -> Option<CpuId> {
        self.ctl.machine().cpu_of(handle.thread)
    }

    fn usage(&self, handle: JobHandle) -> Option<UsageAccount> {
        self.ctl.machine().usage(handle.thread)
    }

    fn grow_cpus(&mut self, cpus: usize) -> usize {
        self.ctl.grow_cpus(cpus)
    }

    fn cpu_count(&self) -> usize {
        self.ctl.machine().cpu_count()
    }

    fn controller(&self) -> &Controller {
        self.ctl.controller()
    }

    fn registry(&self) -> MetricRegistry {
        self.controller().registry().clone()
    }

    fn force_reservation(&mut self, handle: JobHandle, reservation: Reservation) {
        let _ = self
            .ctl
            .machine_mut()
            .set_reservation(handle.thread, reservation);
    }

    fn stats(&self) -> SimStats {
        self.ctl.stats()
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        // There is no event calendar, so the `events_*` counters stay zero
        // on this backend.
        self.ctl.telemetry()
    }

    fn enable_telemetry(&mut self, config: TelemetryConfig) -> Arc<Recorder> {
        self.ctl.enable_telemetry(config)
    }

    fn telemetry_recorder(&self) -> Option<Arc<Recorder>> {
        self.ctl.recorder().cloned()
    }

    fn trace(&self) -> Cow<'_, Trace> {
        Cow::Borrowed(&self.trace)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl Drop for WallClockHost {
    fn drop(&mut self) {
        // Dropping a task drops its sender, its worker's stop signal.
        let joins: Vec<JoinHandle<()>> = self.tasks.drain(..).flatten().map(|t| t.join).collect();
        // Drain in-flight reports so no worker is stuck sending.
        while self.reports.1.try_recv().is_ok() {}
        for join in joins {
            let _ = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_scheduler::{Period, Proportion};
    use rrs_sim::RunResult;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Uses up to `cap_us` of each quantum, counting its steps.
    struct Spinner {
        cap_us: u64,
        steps: Arc<AtomicU64>,
    }

    impl WorkModel for Spinner {
        fn run(&mut self, _now: u64, quantum_us: u64, _hz: f64) -> RunResult {
            self.steps.fetch_add(1, Ordering::Relaxed);
            RunResult::ran(quantum_us.min(self.cap_us))
        }
    }

    fn spinner(cap_us: u64) -> (Box<dyn WorkModel>, Arc<AtomicU64>) {
        let steps = Arc::new(AtomicU64::new(0));
        let model = Spinner {
            cap_us,
            steps: Arc::clone(&steps),
        };
        (Box::new(model), steps)
    }

    fn misc(host: &mut WallClockHost, name: &str, work: Box<dyn WorkModel>) -> JobHandle {
        host.add_job(name, JobSpec::miscellaneous(), work)
            .expect("miscellaneous jobs are always admitted")
    }

    #[test]
    fn dropping_the_host_joins_its_workers() {
        let mut host = WallClockHost::new(1);
        let (work, steps) = spinner(500);
        let job = misc(&mut host, "spin", work);
        host.advance(SimTime::from_millis(100));
        assert!(steps.load(Ordering::Relaxed) > 0);
        assert!(host.cpu_used(job) > SimTime::ZERO);
        // The worker owns the model, and with it this clone of `steps`:
        // once the host is dropped, the worker has exited.
        assert_eq!(Arc::strong_count(&steps), 2);
        drop(host);
        assert_eq!(Arc::strong_count(&steps), 1);
    }

    #[test]
    fn idle_sleep_is_the_quantum_clamped_to_the_configured_bounds() {
        assert_eq!(idle_sleep(5), Duration::from_micros(IDLE_SLEEP_MIN_US));
        assert_eq!(idle_sleep(500), Duration::from_micros(500));
        assert_eq!(idle_sleep(50_000), Duration::from_micros(IDLE_SLEEP_MAX_US));

        // With no jobs at all the host only sleeps; it must still return
        // promptly and not busy-spin past its deadline.
        let mut host = WallClockHost::new(1);
        let t0 = Instant::now();
        host.advance(SimTime::from_millis(30));
        assert!(t0.elapsed() >= Duration::from_millis(30));
        assert!(t0.elapsed() < Duration::from_millis(300));
        let rounds = host.stats().steps;
        assert!(rounds > 0);
        assert!(
            rounds <= 30_000 / IDLE_SLEEP_MIN_US,
            "{rounds} rounds in 30 ms"
        );
    }

    #[test]
    fn misc_task_allocation_grows_under_the_controller() {
        let mut host = WallClockHost::new(1);
        let job = misc(&mut host, "spin", spinner(300).0);
        host.advance(SimTime::from_millis(300));
        let alloc = host.allocation_ppt(job);
        assert!(alloc > 1, "allocation should have grown, got {alloc}");
    }

    #[test]
    fn real_time_task_keeps_its_reservation() {
        let mut host = WallClockHost::new(1);
        let spec = JobSpec::real_time(Proportion::from_ppt(300), Period::from_millis(20));
        let rt = host.add_job("rt", spec, spinner(300).0).unwrap();
        // A second reservation that does not fit is refused, not panicked on.
        let too_much = JobSpec::real_time(Proportion::from_ppt(800), Period::from_millis(20));
        assert!(host.add_job("rt2", too_much, spinner(300).0).is_err());
        assert_eq!(host.stats().admission_rejections, 1);
        misc(&mut host, "bg", spinner(300).0);
        host.advance(SimTime::from_millis(200));
        assert_eq!(host.allocation_ppt(rt), 300);
    }

    /// Blocks after every step and is runnable again as soon as asked.
    struct Blocker(Arc<AtomicU64>);

    impl WorkModel for Blocker {
        fn run(&mut self, _now: u64, _quantum_us: u64, _hz: f64) -> RunResult {
            self.0.fetch_add(1, Ordering::Relaxed);
            RunResult::blocked_after(10)
        }
    }

    #[test]
    fn blocked_tasks_are_woken_by_the_controller_tick() {
        let mut host = WallClockHost::new(1);
        let runs = Arc::new(AtomicU64::new(0));
        misc(&mut host, "blocker", Box::new(Blocker(Arc::clone(&runs))));
        host.advance(SimTime::from_millis(150));
        // It blocks after every step but should still have run several
        // times because the controller tick re-polls it.
        assert!(runs.load(Ordering::Relaxed) >= 2);
    }

    #[test]
    fn two_cpu_host_runs_two_workers_concurrently() {
        let mut host = WallClockHost::new(2);
        assert_eq!(host.cpu_count(), 2);
        let a = misc(&mut host, "a", spinner(500).0);
        let b = misc(&mut host, "b", spinner(500).0);
        host.advance(SimTime::from_millis(200));
        assert_ne!(
            host.cpu_of(a),
            host.cpu_of(b),
            "workers sharded over distinct CPUs"
        );
        let (ta, tb) = (host.cpu_used(a).as_micros(), host.cpu_used(b).as_micros());
        assert!(ta > 0 && tb > 0);
        // Each worker's consumption is booked on the CPU it ran on.
        let per_cpu = host.stats().per_cpu;
        assert!(per_cpu.iter().all(|cpu| cpu.used_us > 0), "{per_cpu:?}");
        assert_eq!(per_cpu.iter().map(|cpu| cpu.used_us).sum::<u64>(), ta + tb);
    }

    #[test]
    fn removal_frees_the_slot_and_its_next_tenant_gets_a_fresh_worker() {
        let mut host = WallClockHost::new(1);
        let (work, old_steps) = spinner(300);
        let old = misc(&mut host, "old", work);
        host.advance(SimTime::from_millis(30));
        host.remove_job(old);
        assert!(host.tasks[old.slot.index()].is_none(), "entry freed");
        assert_eq!(host.ctl.slot_of(old.thread), None);
        assert_eq!(Arc::strong_count(&old_steps), 1, "its worker exited");
        host.remove_job(old); // an already-removed handle is a no-op

        let (work, steps) = spinner(300);
        let new = misc(&mut host, "new", work);
        assert_eq!(new.slot.index(), old.slot.index(), "slot reused");
        assert_ne!(new.thread, old.thread);

        // A report the old worker left behind (it can outlive a round
        // that gave up waiting) reaches neither the slot's new tenant's
        // account nor its state, and the leftover handle cannot remove it.
        let booked = host.stats().total_used_us();
        host.handle_report(Report {
            handle: old,
            elapsed: Duration::from_millis(7),
            blocked: true,
            progress: Some(1.0),
            died: false,
        });
        host.remove_job(old);
        assert_eq!(host.stats().total_used_us(), booked);
        assert_eq!(host.cpu_used(new), SimTime::ZERO);
        let tenant = host.tasks[new.slot.index()].as_ref().expect("still there");
        assert_eq!(tenant.handle, new);
        assert!(!tenant.blocked);
        assert_eq!(tenant.progress, None);

        host.advance(SimTime::from_millis(60));
        assert!(steps.load(Ordering::Relaxed) > 0, "the fresh worker runs");
        assert!(host.cpu_used(new) > SimTime::ZERO);
    }

    /// Panics on its first run.
    struct Panicky;

    impl WorkModel for Panicky {
        fn run(&mut self, _now: u64, _quantum_us: u64, _hz: f64) -> RunResult {
            panic!("a work model bug");
        }
    }

    #[test]
    fn a_panicking_model_is_parked_at_once() {
        let mut host = WallClockHost::new(1);
        let dead = misc(&mut host, "panicky", Box::new(Panicky));
        let spin = misc(&mut host, "spin", spinner(500).0);
        let t0 = Instant::now();
        host.advance(SimTime::from_millis(50));
        // The round does not wait for a report that never comes.
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        assert!(host.cpu_used(dead) > SimTime::ZERO, "it was released once");
        let task = host.tasks[dead.slot.index()].as_ref().expect("resident");
        assert!(!task.blocked, "parked for good, never re-polled");
        let used = host.cpu_used(spin);
        assert!(used > SimTime::ZERO);
        host.advance(SimTime::from_millis(50));
        assert!(host.cpu_used(spin) > used, "the spinner keeps running");
        host.remove_job(dead);
        assert_eq!(host.controller().job_count(), 1);
        assert!(host.tasks[dead.slot.index()].is_none());
    }

    /// A parked job is never dispatched again, so between the controller
    /// cycles that re-reserve it only the closing sync of `advance` rolls
    /// its account through the boundaries it sat out.  Its period is a
    /// tenth of the controller's, and the short advances below land at
    /// several offsets into a controller period, so a missing sync leaves
    /// a boundary behind at one of them.
    #[test]
    fn a_parked_job_s_account_is_current_after_advance() {
        let mut host = WallClockHost::new(1);
        let spec = JobSpec::real_time(Proportion::from_ppt(100), Period::from_millis(1));
        let job = host.add_job("panicky", spec, Box::new(Panicky)).unwrap();
        host.advance(SimTime::from_millis(200));
        for _ in 0..5 {
            host.advance(SimTime::from_millis(3));
            let account = host.usage(job).expect("resident");
            let now = host.ctl.machine().now_us();
            let open = account.period_start_us..account.period_start_us + 1_000;
            assert!(open.contains(&now), "open period {open:?}, clock {now}");
        }
    }
}
