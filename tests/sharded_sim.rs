//! Sharded-simulator pins: `shards = 1` bit-for-bit equivalence and
//! multi-shard behaviour through the public `Host` surface.
//!
//! The equivalence tests drive the *same* mixed workload as
//! `sim_golden_stats.rs` — real-time spinners, greedy hogs, periodic
//! burst-sleep jobs, a mid-run removal wave — once on the plain
//! [`Simulation`] (whose output those golden blobs pin bit for bit) and
//! once on a single-shard [`ShardedSim`], and assert the two `SimStats`
//! are *equal*.  Equality here is transitively equality with the golden
//! captures: a single-shard sharded machine must be a zero-cost veneer —
//! no barriers, no rebalancer, no trace merging — over the unsharded
//! simulator.  The `ShardedSim` is constructed directly because
//! `Runtime::sim().shards(1)` deliberately builds the plain `Simulation`.
//!
//! The multi-shard tests pin the observable contract of the two-level
//! machine: global CPU indexing, job conservation under rebalancing, and
//! the rebalancer's telemetry counters.

use realrate::api::{Host, JobSpec, Period, Proportion, Runtime, SimTime};
use realrate::sim::{RunResult, ShardConfig, ShardedSim, SimConfig, SimStats, WorkModel};

/// Uses every cycle offered, never blocks.
struct Spin;

impl WorkModel for Spin {
    fn run(&mut self, _now: u64, quantum_us: u64, _hz: f64) -> RunResult {
        RunResult::ran(quantum_us)
    }
}

/// Runs `burst_us`, then blocks until `now + sleep_us` (same model as the
/// golden-stats workload).
struct BurstSleep {
    burst_us: u64,
    sleep_us: u64,
    wake_at_us: u64,
}

impl WorkModel for BurstSleep {
    fn run(&mut self, now_us: u64, quantum_us: u64, _hz: f64) -> RunResult {
        let used = self.burst_us.min(quantum_us);
        if used < quantum_us {
            self.wake_at_us = now_us + used + self.sleep_us;
            RunResult::blocked_after(used)
        } else {
            RunResult::ran(used)
        }
    }

    fn poll_unblock(&mut self, now_us: u64) -> bool {
        now_us >= self.wake_at_us
    }

    fn next_transition(&self, _now: SimTime) -> Option<SimTime> {
        Some(SimTime::from_micros(self.wake_at_us))
    }
}

/// The golden-stats mixed workload, driven through the `Host` trait so
/// both backends run the identical call sequence.  `rt_jobs` is separate
/// from `cpus` because on a sharded host every reservation anchors to
/// shard 0 — admission is bounded by that shard's capacity, not the
/// machine's.
fn drive_mixed_workload(host: &mut dyn Host, cpus: usize, rt_jobs: u64) {
    let n = cpus as u64;
    for i in 0..rt_jobs {
        host.add_job(
            &format!("rt{i}"),
            JobSpec::real_time(Proportion::from_ppt(250), Period::from_millis(10)),
            Box::new(Spin),
        )
        .unwrap();
    }
    let mut hogs = Vec::new();
    for i in 0..2 * n {
        hogs.push(
            host.add_job(&format!("hog{i}"), JobSpec::miscellaneous(), Box::new(Spin))
                .unwrap(),
        );
    }
    for i in 0..2 * n {
        host.add_job(
            &format!("io{i}"),
            JobSpec::miscellaneous(),
            Box::new(BurstSleep {
                burst_us: 300 + 70 * i,
                sleep_us: 2_000 + 500 * i,
                wake_at_us: 0,
            }),
        )
        .unwrap();
    }
    host.advance(SimTime::from_millis(1_500));
    for h in hogs.iter().step_by(2) {
        host.remove_job(*h);
    }
    host.advance(SimTime::from_millis(1_500));
}

fn plain_stats(cpus: usize) -> SimStats {
    let mut host = Runtime::sim().cpus(cpus).build();
    drive_mixed_workload(host.as_mut(), cpus, cpus as u64);
    host.as_sim().expect("plain simulation").stats()
}

fn sharded_one_stats(cpus: usize) -> SimStats {
    let config = SimConfig::default().with_cpus(cpus);
    let mut host: Box<dyn Host> = Box::new(ShardedSim::new(config, ShardConfig::default()));
    drive_mixed_workload(host.as_mut(), cpus, cpus as u64);
    host.as_sharded_sim().expect("sharded simulation").stats()
}

fn check_equivalence(cpus: usize) {
    let plain = plain_stats(cpus);
    let sharded = sharded_one_stats(cpus);
    assert_eq!(
        sharded, plain,
        "shards=1 must reproduce the unsharded SimStats bit for bit \
         at {cpus} cpu(s) (the golden-pinned workload)"
    );
}

#[test]
fn single_shard_matches_golden_calendar_1cpu() {
    check_equivalence(1);
}

#[test]
fn single_shard_matches_golden_calendar_8cpu() {
    check_equivalence(8);
}

/// `Runtime::sim().shards(n)` builds the sharded backend for `n > 1` and
/// the plain simulation otherwise — the documented builder mapping.
#[test]
fn runtime_builder_shard_mapping() {
    let host = Runtime::sim().cpus(4).shards(1).build();
    assert!(
        host.as_sim().is_some(),
        "shards<=1 builds the plain Simulation"
    );
    let host = Runtime::sim().cpus(8).shards(4).build();
    let sharded = host
        .as_sharded_sim()
        .expect("shards>1 builds the ShardedSim");
    assert_eq!(sharded.shard_count(), 4);
    assert_eq!(host.cpu_count(), 8);
}

/// The full mixed workload on a 4-shard machine through the `Host`
/// surface: jobs conserved, global CPU indexing consistent, rebalancer
/// running at its cadence and reported in telemetry.
#[test]
fn multi_shard_runs_the_mixed_workload() {
    let cpus = 8;
    let mut host = Runtime::sim().cpus(cpus).shards(4).build();
    // 4 reservations of 250 ppt fit the 2-CPU anchor shard's capacity.
    drive_mixed_workload(host.as_mut(), cpus, 4);

    let stats = host.stats();
    assert_eq!(
        stats.per_cpu.len(),
        cpus,
        "per-CPU stats concatenate across shards"
    );
    assert!(stats.total_used_us() > 0);
    assert!(host.now() >= SimTime::from_secs(3));

    let snap = host.telemetry();
    let sharded = host.as_sharded_sim().expect("sharded backend");
    let cycles = snap.rebalance_cycles;
    assert!(
        cycles >= 25,
        "3 s at a 0.1 s cadence must run >= 25 rebalance cycles, got {cycles}"
    );

    // 4 real-time + n surviving hogs + 2n io jobs.
    assert_eq!(
        resident_jobs(sharded),
        4 + 3 * cpus,
        "jobs conserved across shards"
    );
}

/// Jobs resident in the shards' controllers, summed over the machine.
fn resident_jobs(sim: &ShardedSim) -> usize {
    (0..sim.shard_count())
        .map(|k| sim.shard(k).controller().job_count())
        .sum()
}

/// Wraps a work model and counts, on the model's side, the CPU time it
/// was run for.
struct Counted<W> {
    inner: W,
    used_us: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl<W: WorkModel> WorkModel for Counted<W> {
    fn run(&mut self, now_us: u64, quantum_us: u64, hz: f64) -> RunResult {
        let result = self.inner.run(now_us, quantum_us, hz);
        self.used_us.fetch_add(
            result.used_us.min(quantum_us),
            std::sync::atomic::Ordering::Relaxed,
        );
        result
    }
    fn poll_unblock(&mut self, now_us: u64) -> bool {
        self.inner.poll_unblock(now_us)
    }
    fn next_transition(&self, now: SimTime) -> Option<SimTime> {
        self.inner.next_transition(now)
    }
}

/// Each shard finds a dispatched thread's work model through two tables —
/// thread id → controller slot, slot index → simulator entry — and a
/// cross-shard migration rewrites both on both shards while removals free
/// slot indices for reuse.  If they ever fell out of step a thread would
/// run some other job's model, so: every job's model-side count of the CPU
/// time it was run for must equal what the machine charged its thread.
#[test]
fn migration_and_slot_reuse_keep_every_thread_on_its_own_work_model() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    // No modelled migration cost: that charge reaches the account without
    // running the model.
    let config = SimConfig {
        migration_cost_us: 0,
        ..SimConfig::default().with_cpus(8)
    };
    let mut sim = ShardedSim::new(
        config,
        ShardConfig {
            shards: 4,
            ..ShardConfig::default()
        },
    );
    let add = |sim: &mut ShardedSim, i: u64| {
        let used_us = Arc::new(AtomicU64::new(0));
        let work: Box<dyn WorkModel> = if i.is_multiple_of(3) {
            Box::new(Counted {
                inner: BurstSleep {
                    burst_us: 300 + 70 * i,
                    sleep_us: 2_000 + 500 * i,
                    wake_at_us: 0,
                },
                used_us: used_us.clone(),
            })
        } else {
            Box::new(Counted {
                inner: Spin,
                used_us: used_us.clone(),
            })
        };
        let handle = sim
            .add_job(&format!("job{i}"), JobSpec::miscellaneous(), work)
            .unwrap();
        (handle, used_us)
    };
    let mut jobs: Vec<_> = (0..32).map(|i| add(&mut sim, i)).collect();
    sim.run_for(1.0);
    let home: Vec<_> = jobs.iter().map(|(h, _)| sim.shard_of(h.job)).collect();

    // Empty two shards: the rebalancer refills them from the other two,
    // and later arrivals take the slot indices the removals freed.
    let mut removed = Vec::new();
    let mut k = 0;
    jobs.retain(|(h, used_us)| {
        let leaves = home[k].is_some_and(|shard| shard < 2);
        k += 1;
        if leaves {
            sim.remove_job(*h);
            removed.push((*h, used_us.clone(), used_us.load(Ordering::Relaxed)));
        }
        !leaves
    });
    assert!(!removed.is_empty() && !jobs.is_empty());
    sim.run_for(0.5);
    jobs.extend((32..44).map(|i| add(&mut sim, i)));
    sim.run_for(1.5);

    let migrations = sim.telemetry().rebalance_migrations;
    assert!(migrations > 0, "the emptied shards must pull jobs over");
    let moved = jobs
        .iter()
        .zip(&home)
        .filter(|((h, _), home)| sim.shard_of(h.job) != **home)
        .count();
    assert!(moved > 0, "some original job changed shard");
    for (h, used_us) in &jobs {
        assert_eq!(
            used_us.load(Ordering::Relaxed),
            sim.cpu_used(*h).as_micros(),
            "{:?}: model-side and machine-side CPU time",
            h.job
        );
        let owner = sim.shard_of(h.job).expect("live job has a shard");
        let shard = sim.shard(owner);
        assert!(shard.controller().slot_of(h.job).is_some());
        for k in 0..sim.shard_count() {
            let holds = sim.shard(k).controller().slot_of(h.job).is_some();
            assert_eq!(holds, k == owner, "{:?} is filed in one shard only", h.job);
        }
        // The handle `add_job` returned still answers every query, however
        // often the rebalancer re-slotted its job, and each answer is the
        // owning shard's own.
        let thread = h.thread();
        let local = shard.machine().handle_of(thread).expect("placed");
        let base: usize = (0..owner).map(|k| sim.shard(k).machine().cpu_count()).sum();
        assert_eq!(
            sim.cpu_of(*h).map(|c| c.index()),
            Some(base + local.cpu.index())
        );
        assert_eq!(
            sim.reservation(*h),
            shard.machine().reservation_at(local, thread)
        );
        let usage = sim.usage(*h).expect("resident").total_used_us;
        let account = shard.machine().usage_at(local, thread).expect("resident");
        assert_eq!(usage, account.total_used_us);
    }
    for (h, used_us, at_removal) in &removed {
        assert_eq!(
            used_us.load(Ordering::Relaxed),
            *at_removal,
            "{:?} ran after its removal",
            h.job
        );
        assert_eq!(sim.shard_of(h.job), None);
    }
}

/// The scale point only the two-level machine reaches: 100 000 greedy
/// miscellaneous jobs on 1 024 CPUs in 16 shards (one controller over that
/// population would charge more modelled overhead per cycle than the cycle
/// is long).  Functional only — nothing here is timed; every job must be
/// conserved, placed on a valid global CPU and charged within capacity, and
/// the shards must produce the same `SimStats` whether they advance on
/// their own OS threads or one after another.
#[test]
fn scale_point_100k_jobs_1024_cpus_16_shards_conserves_every_job() {
    const JOBS: usize = 100_000;
    const CPUS: usize = 1_024;
    let run = |parallel: bool| {
        let mut sim = ShardedSim::new(
            SimConfig::default().with_cpus(CPUS),
            ShardConfig {
                shards: 16,
                parallel,
                ..ShardConfig::default()
            },
        );
        let handles: Vec<_> = (0..JOBS)
            .map(|i| {
                sim.add_job(&format!("j{i}"), JobSpec::miscellaneous(), Box::new(Spin))
                    .expect("miscellaneous jobs are always admitted")
            })
            .collect();
        sim.run_for(0.3);

        assert_eq!(resident_jobs(&sim), JOBS, "jobs conserved across shards");
        for h in &handles {
            let cpu = sim.cpu_of(*h).expect("every live job is placed");
            assert!(cpu.index() < CPUS, "{:?} on {cpu:?}", h.job);
        }
        let stats = sim.stats();
        assert_eq!(stats.per_cpu.len(), CPUS);
        assert!(stats.total_used_us() > 0);
        assert!(
            stats.total_used_us() <= CPUS as u64 * sim.now_micros(),
            "charged CPU time exceeds the machine's capacity"
        );
        stats
    };
    assert_eq!(
        run(true),
        run(false),
        "parallel and sequential shard advance must agree"
    );
}
