//! Integration test of the wall-clock executor with a real shared queue:
//! the same controller/scheduler stack as the simulator, but against OS
//! threads and real time.

use realrate::core::JobSpec;
use realrate::queue::{BoundedBuffer, JobKey, Role};
use realrate::realtime::{ExecutorConfig, RealTimeExecutor, StepOutcome};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn spin_for(duration: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < duration {
        std::hint::spin_loop();
    }
}

#[test]
fn wall_clock_pipeline_makes_progress_under_the_controller() {
    let mut exec = RealTimeExecutor::new(ExecutorConfig::default());
    let queue: Arc<BoundedBuffer<u64>> = Arc::new(BoundedBuffer::new("rt-queue", 16));
    let produced = Arc::new(AtomicU64::new(0));
    let consumed = Arc::new(AtomicU64::new(0));

    // Producer: a short burst of CPU then one item.
    let q = Arc::clone(&queue);
    let p = Arc::clone(&produced);
    let producer = exec
        .try_spawn("producer", JobSpec::real_rate(), move |_quantum| {
            spin_for(Duration::from_micros(200));
            if q.try_push(1).is_ok() {
                p.fetch_add(1, Ordering::Relaxed);
            }
            StepOutcome::Continue
        })
        .expect("real-rate jobs are always admitted");

    // Consumer: drains one item per step with a slightly larger burst.
    let q = Arc::clone(&queue);
    let c = Arc::clone(&consumed);
    let consumer = exec
        .try_spawn("consumer", JobSpec::real_rate(), move |_quantum| {
            if q.try_pop().is_some() {
                c.fetch_add(1, Ordering::Relaxed);
                spin_for(Duration::from_micros(300));
                StepOutcome::Continue
            } else {
                StepOutcome::Blocked
            }
        })
        .expect("real-rate jobs are always admitted");

    let registry = exec.control().controller().registry();
    registry.register(JobKey(producer.job.0), Role::Producer, queue.clone());
    registry.register(JobKey(consumer.job.0), Role::Consumer, queue.clone());

    exec.run_for(Duration::from_millis(400));
    exec.shutdown();

    let made = produced.load(Ordering::Relaxed);
    let eaten = consumed.load(Ordering::Relaxed);
    assert!(made > 0, "producer never ran");
    assert!(eaten > 0, "consumer never ran");
    assert!(
        eaten <= made,
        "cannot consume more than was produced ({eaten} vs {made})"
    );
    // Both ends received real CPU time, charged to their usage accounts.
    let machine = exec.control().machine();
    for job in [producer, consumer] {
        let account = machine.usage(job.thread).expect("still resident");
        assert!(account.total_used_us > 0, "{job:?}");
    }
}
