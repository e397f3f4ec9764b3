//! Cross-backend parity: the same program through `realrate::api` on the
//! deterministic simulator and on real OS threads.
//!
//! This is the tentpole guarantee of the backend-agnostic host API: a
//! workload written once against `Host` produces the same *qualitative*
//! control-plane outcome on both backends — the controller classifies
//! the jobs identically, pins the reservation, and discovers a nonzero
//! grant for the adaptive stage — even though one backend finishes in
//! milliseconds of wall time and the other spends real seconds.

use realrate::api::{Backend, Host, JobClass, JobHandle, JobSpec, Runtime, SimTime};
use realrate::workloads::{PipelineConfig, PulsePipeline};

#[derive(Debug)]
struct Outcome {
    backend: Backend,
    producer_ppt: u32,
    consumer_ppt: u32,
    producer_class: JobClass,
    consumer_class: JobClass,
    consumer_used_us: u64,
}

fn job_class(host: &dyn Host, handle: JobHandle) -> JobClass {
    host.controller()
        .job_of(handle.slot)
        .and_then(|id| host.controller().job_class(id))
        .expect("job is registered")
}

fn run_pipeline(backend: Backend) -> Outcome {
    let mut host = Runtime::backend(backend).build();
    let handles = PulsePipeline::install(host.as_mut(), PipelineConfig::steady(2.5e-5));
    // Long enough for the controller to settle on each backend's own
    // clock: 10 simulated seconds are nearly free; 1.5 real seconds keep
    // the test suite fast.
    let duration = match backend {
        Backend::Sim => SimTime::from_secs(10),
        Backend::WallClock => SimTime::from_millis(1_500),
    };
    host.advance(duration);
    Outcome {
        backend,
        producer_ppt: host.allocation_ppt(handles.producer),
        consumer_ppt: host.allocation_ppt(handles.consumer),
        producer_class: job_class(host.as_ref(), handles.producer),
        consumer_class: job_class(host.as_ref(), handles.consumer),
        consumer_used_us: host.cpu_used(handles.consumer).as_micros(),
    }
}

#[test]
fn same_pipeline_converges_on_sim_and_wall_clock() {
    let sim = run_pipeline(Backend::Sim);
    let wall = run_pipeline(Backend::WallClock);

    for outcome in [&sim, &wall] {
        // Identical classification on both backends (Figure 2 taxonomy).
        assert_eq!(outcome.producer_class, JobClass::RealTime, "{:?}", outcome);
        assert_eq!(outcome.consumer_class, JobClass::RealRate, "{:?}", outcome);
        // The producer's reservation is pinned, never adapted.
        assert_eq!(outcome.producer_ppt, 200, "{:?}", outcome);
        // The controller reached a nonzero grant for the adaptive
        // consumer without any per-backend tuning.
        assert!(
            outcome.consumer_ppt > 0,
            "consumer grant must be nonzero on {}: {:?}",
            outcome.backend,
            outcome
        );
        // And the consumer actually consumed CPU (simulated or real).
        assert!(outcome.consumer_used_us > 0, "{:?}", outcome);
    }
}

#[test]
fn both_backends_report_through_the_same_stats_surface() {
    // Sim, 4-shard sim and wall-clock: `Host::stats` is one struct, so
    // its JSON carries one key set, whoever filled it in.
    let hosts = [
        ("sim", Runtime::sim().build()),
        ("sim x4 shards", Runtime::sim().cpus(4).shards(4).build()),
        ("wall_clock", Runtime::wall_clock().build()),
    ];
    let mut key_sets = Vec::new();
    for (label, mut host) in hosts {
        let handles = PulsePipeline::install(host.as_mut(), PipelineConfig::steady(2.5e-5));
        host.advance(match host.backend() {
            Backend::Sim => SimTime::from_secs(2),
            Backend::WallClock => SimTime::from_millis(400),
        });
        let stats: realrate::core::SimStats = host.stats();
        assert!(stats.controller_invocations > 0, "{label}");
        assert_eq!(stats.per_cpu.len(), host.cpu_count(), "{label}");
        assert!(stats.total_used_us() > 0, "{label}");
        assert!(stats.steps > 0, "{label}");
        assert!(host.trace().get("alloc/consumer").is_some(), "{label}");
        assert!(host.trace().get("fill/pipeline").is_some(), "{label}");
        // The two derived reads say what the reservation and the usage
        // account say, whoever implements the host.
        for job in [handles.producer, handles.consumer] {
            let reserved = host.reservation(job).expect("resident").proportion;
            assert_eq!(host.allocation_ppt(job), reserved.ppt(), "{label}");
            let account = host.usage(job).expect("resident");
            assert_eq!(
                host.cpu_used(job),
                SimTime::from_micros(account.total_used_us),
                "{label}"
            );
        }
        assert!(host.cpu_used(handles.consumer) > SimTime::ZERO, "{label}");
        let json = serde_json::to_string(&stats).expect("stats serialise");
        let value: serde::Value = serde_json::from_str(&json).expect("and parse back");
        let keys: Vec<String> = value
            .as_obj()
            .expect("a JSON object")
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert!(keys.iter().any(|k| k == "controller_cost_us"), "{label}");
        key_sets.push((label, keys));
    }
    for (label, keys) in &key_sets[1..] {
        assert_eq!(keys, &key_sets[0].1, "{label} vs {}", key_sets[0].0);
    }
}

/// Blocks after every 100 µs burst and is runnable again as soon as it is
/// asked — so it runs once per re-poll, and the executor only re-polls
/// blocked tasks on its controller tick.
struct Blocker(std::sync::Arc<std::sync::atomic::AtomicU64>);

impl realrate::sim::WorkModel for Blocker {
    fn run(&mut self, _now: u64, _quantum_us: u64, _hz: f64) -> realrate::sim::RunResult {
        self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        realrate::sim::RunResult::blocked_after(100)
    }

    fn poll_unblock(&mut self, _now_us: u64) -> bool {
        true
    }
}

#[test]
fn wall_clock_controller_runs_when_advanced_in_chunks_below_its_period() {
    // Each `advance` hands the executor one chunk.  With the chunk (5 ms)
    // below the controller period (10 ms) the next-cycle-due time must
    // survive from one chunk to the next, or no cycle ever comes due and
    // no blocked task is ever re-polled.
    let mut host = Runtime::wall_clock().build();
    let runs = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let blocker = Blocker(std::sync::Arc::clone(&runs));
    host.add_job("blocker", JobSpec::miscellaneous(), Box::new(blocker))
        .unwrap();
    let end = host.now() + SimTime::from_millis(300);
    while host.now() < end {
        host.advance(SimTime::from_millis(5));
    }
    let stats = host.stats();
    // 30 periods elapse; leave room for a loaded test machine, none for
    // the bug (0 cycles, 1 run).
    assert!(
        stats.controller_invocations >= 5,
        "controller starved: {} cycles in 300 ms",
        stats.controller_invocations
    );
    let periods = host.now().as_micros() / 10_000;
    assert!(
        stats.controller_invocations <= periods,
        "missed ticks are skipped, not replayed: {} cycles in {periods} periods",
        stats.controller_invocations
    );
    let runs = runs.load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        runs >= 3,
        "the blocked task was never re-polled ({runs} runs)"
    );
}
