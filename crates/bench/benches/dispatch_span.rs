//! Criterion bench isolating the cost of one dispatch span: pick a thread,
//! model it running, charge the time back.  This is the inner loop of the
//! event-calendar simulator (`dispatch` + `charge_span`), measured here
//! without the simulator around it so span cost is tracked independently of
//! whole-sim throughput.
//!
//! Three queue shapes per population size:
//!
//! * **uncontended** — one runnable reserved thread (the rest of the
//!   population is resident but blocked).  Successive spans re-pick the same
//!   thread, so the per-CPU next-quantum cache serves every dispatch and the
//!   span batch accumulates without touching the heap.
//! * **contended** — the whole population runnable at equal goodness.  The
//!   pick round-robins, so every dispatch rotates the run queue's head to
//!   its tail and every span batch settles on the next pick.
//! * **requeue_mid** — the sorted run queue's linear case, which no
//!   benchmark workload produces: the thread just picked is blocked, half
//!   the queue rotates past, and unblocking it re-queues it under the pick
//!   sequence it left with — halfway down the queue, a shift of `n / 2`
//!   entries.  That sequence runs once, in set-up; one iteration is the
//!   unblock plus the block that takes the thread back out from mid-queue
//!   (the same shift), so the number is two mid-queue operations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rrs_scheduler::{Dispatcher, DispatcherConfig, Period, Proportion, Reservation, ThreadId};
use std::hint::black_box;

/// Advance per span, in microseconds.  Each span charges less than this so
/// aggregate demand stays below every thread's allocation and the loop never
/// degenerates into throttled idling.
const SPAN_ADVANCE_US: u64 = 10;

/// Work charged per span, in microseconds (40 % duty cycle).
const SPAN_CHARGE_US: u64 = 4;

fn lazy_config() -> DispatcherConfig {
    DispatcherConfig {
        lazy_rollovers: true,
        ..DispatcherConfig::default()
    }
}

/// Populates `n` reserved threads with ids `1..=n`.  Thread 1 gets half the
/// CPU so the uncontended variant never exhausts its budget mid-measurement.
/// The rest get `600/n` ppt each: under contended round-robin a thread is
/// picked every `n` spans and charged a 40 % duty cycle, i.e. `400/n` ppt of
/// the CPU, so this allocation keeps every thread below its budget and the
/// queue stays fully runnable instead of draining into throttled idling.
/// (Preadmitted: the sum exceeds the dispatcher's own admission threshold,
/// as controller-squished populations legitimately do.)
fn populate(d: &mut Dispatcher, n: usize) {
    for i in 1..=n {
        let ppt = if i == 1 { 500 } else { (600 / n as u32).max(1) };
        d.add_thread_preadmitted(
            ThreadId(i as u64),
            Reservation::new(Proportion::from_ppt(ppt), Period::from_millis(10)),
        )
        .unwrap();
    }
}

fn span_loop(d: &mut Dispatcher, now: &mut u64) -> u64 {
    *now += SPAN_ADVANCE_US;
    d.advance_to(*now);
    let outcome = d.dispatch();
    if outcome.thread.is_some() {
        d.charge_span(black_box(SPAN_CHARGE_US.min(outcome.quantum_us)));
    }
    outcome.quantum_us
}

fn bench_uncontended(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_span/uncontended");
    for &threads in &[16usize, 1_000, 10_000] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &n| {
            let mut d = Dispatcher::new(lazy_config());
            populate(&mut d, n);
            for i in 2..=n {
                d.block(ThreadId(i as u64)).unwrap();
            }
            let mut now = d.now_us();
            b.iter(|| black_box(span_loop(&mut d, &mut now)));
        });
    }
    group.finish();
}

fn bench_contended(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_span/contended");
    for &threads in &[16usize, 1_000, 10_000] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &n| {
            let mut d = Dispatcher::new(lazy_config());
            populate(&mut d, n);
            let mut now = d.now_us();
            b.iter(|| black_box(span_loop(&mut d, &mut now)));
        });
    }
    group.finish();
}

fn bench_requeue_mid(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_span/requeue_mid");
    for &threads in &[1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &n| {
            let mut d = Dispatcher::new(lazy_config());
            populate(&mut d, n);
            let mut now = d.now_us();
            // One full turn first, so every thread carries a pick sequence.
            for _ in 0..n {
                span_loop(&mut d, &mut now);
            }
            let picked = d.dispatch().thread.expect("everything is runnable");
            let slot = d.slot_of(picked).expect("just picked");
            d.block_slot(slot, picked).unwrap();
            for _ in 0..n / 2 {
                span_loop(&mut d, &mut now);
            }
            b.iter(|| {
                d.unblock_slot(slot, picked).unwrap();
                d.block_slot(slot, picked).unwrap();
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_uncontended,
    bench_contended,
    bench_requeue_mid
);
criterion_main!(benches);
