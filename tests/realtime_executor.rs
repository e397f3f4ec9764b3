//! Integration test of the wall-clock backend with a real shared queue:
//! the same controller/scheduler stack as the simulator, but against OS
//! threads and real time.

use realrate::api::{JobSpec, Runtime, SimTime};
use realrate::queue::{BoundedBuffer, JobKey, Role};
use realrate::sim::{RunResult, WorkModel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Each step: a short burst of CPU, then one item into the queue.
struct Producer {
    queue: Arc<BoundedBuffer<u64>>,
    produced: Arc<AtomicU64>,
}

impl WorkModel for Producer {
    fn run(&mut self, _now_us: u64, _quantum_us: u64, _hz: f64) -> RunResult {
        if self.queue.try_push(1).is_ok() {
            self.produced.fetch_add(1, Ordering::Relaxed);
        }
        RunResult::ran(200)
    }
}

/// Each step drains one item with a slightly larger burst, or blocks on
/// an empty queue.
struct Consumer {
    queue: Arc<BoundedBuffer<u64>>,
    consumed: Arc<AtomicU64>,
}

impl WorkModel for Consumer {
    fn run(&mut self, _now_us: u64, _quantum_us: u64, _hz: f64) -> RunResult {
        if self.queue.try_pop().is_some() {
            self.consumed.fetch_add(1, Ordering::Relaxed);
            RunResult::ran(300)
        } else {
            RunResult::blocked_after(0)
        }
    }
}

#[test]
fn wall_clock_pipeline_makes_progress_under_the_controller() {
    let mut host = Runtime::wall_clock().build();
    let queue: Arc<BoundedBuffer<u64>> = Arc::new(BoundedBuffer::new("rt-queue", 16));
    let produced = Arc::new(AtomicU64::new(0));
    let consumed = Arc::new(AtomicU64::new(0));

    let producer = Producer {
        queue: Arc::clone(&queue),
        produced: Arc::clone(&produced),
    };
    let producer = host
        .add_job("producer", JobSpec::real_rate(), Box::new(producer))
        .expect("real-rate jobs are always admitted");
    let consumer = Consumer {
        queue: Arc::clone(&queue),
        consumed: Arc::clone(&consumed),
    };
    let consumer = host
        .add_job("consumer", JobSpec::real_rate(), Box::new(consumer))
        .expect("real-rate jobs are always admitted");

    let registry = host.registry();
    registry.register(JobKey(producer.job.0), Role::Producer, queue.clone());
    registry.register(JobKey(consumer.job.0), Role::Consumer, queue.clone());

    host.advance(SimTime::from_millis(400));

    let made = produced.load(Ordering::Relaxed);
    let eaten = consumed.load(Ordering::Relaxed);
    assert!(made > 0, "producer never ran");
    assert!(eaten > 0, "consumer never ran");
    assert!(
        eaten <= made,
        "cannot consume more than was produced ({eaten} vs {made})"
    );
    // Both ends received real CPU time, charged to their usage accounts.
    for job in [producer, consumer] {
        assert!(host.cpu_used(job) > SimTime::ZERO, "{job:?}");
    }
    // The controller sensed the queue: its fill is in the trace.
    assert!(host.trace().get("fill/rt-queue").is_some());
}
