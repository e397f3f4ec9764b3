//! The pulse-driven producer/consumer pipeline of Figures 6 and 7.
//!
//! "The program is a simple pipeline of a producer and consumer connected by
//! a bounded buffer.  Both the producer and consumer loop for some number of
//! cycles before they enqueue or dequeue a block of data.  We fix the
//! allocation (cycles/sec) given to the producer by specifying a reservation
//! for it, and control the rate at which it produces data (bytes/cycle).
//! For the consumer, we fix the rate of consumption, but let the controller
//! determine the allocation."

use crate::kernel::Burn;
use rrs_api::Host;
use rrs_core::{JobHandle, JobSpec};
use rrs_feedback::PulseTrain;
use rrs_queue::{BoundedBuffer, JobKey, Role};
use rrs_scheduler::{Period, Proportion};
use rrs_sim::{RunResult, WorkModel};
use std::sync::Arc;

/// A block of data flowing through the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataBlock {
    /// Payload size in bytes.
    pub bytes: usize,
}

/// Configuration of the pulse pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Bounded-buffer capacity in blocks.
    pub queue_capacity: usize,
    /// Block size in bytes.
    pub block_bytes: usize,
    /// The producer's fixed reservation (it is a real-time job).
    pub producer_proportion: Proportion,
    /// The producer's period.
    pub producer_period: Period,
    /// The producer's production rate over time, in bytes per cycle.
    pub production_rate: PulseTrain,
    /// The consumer's fixed consumption rate, in bytes per cycle.
    pub consumer_bytes_per_cycle: f64,
    /// Initial fill of the queue, as a fraction of its capacity.
    pub initial_fill: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        // On the default 400 MHz CPU a 200 ‰ producer reservation is
        // 80 Mcycles/s; at 2.5e-5 bytes/cycle it produces 2000 bytes/s,
        // doubling to 4000 bytes/s during pulses — the same order as the
        // rates plotted in Figure 6.
        Self {
            queue_capacity: 40,
            block_bytes: 250,
            producer_proportion: Proportion::from_ppt(200),
            producer_period: Period::from_millis(10),
            production_rate: PulseTrain::rising_then_falling(
                2.5e-5,
                5.0e-5,
                4.0,
                &[4.0, 2.0, 1.0],
                2.0,
            ),
            consumer_bytes_per_cycle: 2.5e-5,
            initial_fill: 0.5,
        }
    }
}

impl PipelineConfig {
    /// A configuration with a constant production rate (no pulses), useful
    /// for steady-state tests.
    pub fn steady(bytes_per_cycle: f64) -> Self {
        Self {
            production_rate: PulseTrain::new(bytes_per_cycle, bytes_per_cycle, Vec::new()),
            ..Self::default()
        }
    }
}

/// Handles to the installed pipeline.
#[derive(Debug, Clone)]
pub struct PipelineHandles {
    /// The producer job (fixed reservation).
    pub producer: JobHandle,
    /// The consumer job (real-rate, controller managed).
    pub consumer: JobHandle,
    /// The shared queue between them.
    pub queue: Arc<BoundedBuffer<DataBlock>>,
}

/// Builder that installs the producer/consumer pair into a simulation.
#[derive(Debug, Clone, Default)]
pub struct PulsePipeline;

impl PulsePipeline {
    /// Installs the pipeline into any [`Host`] (simulated or wall-clock)
    /// and registers its queue with the progress-metric registry.
    ///
    /// # Panics
    ///
    /// Panics if the producer's reservation is rejected by admission
    /// control, which cannot happen on an otherwise empty host with
    /// the default configuration.
    pub fn install(host: &mut (impl Host + ?Sized), config: PipelineConfig) -> PipelineHandles {
        let queue = Arc::new(BoundedBuffer::new("pipeline", config.queue_capacity));
        let preload = ((config.queue_capacity as f64 * config.initial_fill).round() as usize)
            .min(config.queue_capacity);
        for _ in 0..preload {
            queue
                .try_push(DataBlock {
                    bytes: config.block_bytes,
                })
                .expect("preload fits by construction");
        }

        let producer_model = Producer {
            queue: Arc::clone(&queue),
            rate: config.production_rate.clone(),
            block_bytes: config.block_bytes,
            cycles_done: 0.0,
            pending_block: false,
            bytes_produced: 0.0,
        };
        let consumer_model = Consumer {
            queue: Arc::clone(&queue),
            bytes_per_cycle: config.consumer_bytes_per_cycle,
            cycles_remaining: 0.0,
            bytes_consumed: 0.0,
        };

        let producer = host
            .add_job(
                "producer",
                JobSpec::real_time(config.producer_proportion, config.producer_period),
                Box::new(producer_model),
            )
            .expect("producer reservation fits on an empty system");
        let consumer = host
            .add_job("consumer", JobSpec::real_rate(), Box::new(consumer_model))
            .expect("real-rate jobs are always admitted");

        let registry = host.registry();
        registry.register(JobKey(producer.job.0), Role::Producer, queue.clone());
        registry.register(JobKey(consumer.job.0), Role::Consumer, queue.clone());

        PipelineHandles {
            producer,
            consumer,
            queue,
        }
    }
}

/// Producer work model: loops for `block_bytes / rate(t)` cycles, then
/// enqueues a block; blocks when the queue is full.
struct Producer {
    queue: Arc<BoundedBuffer<DataBlock>>,
    rate: PulseTrain,
    block_bytes: usize,
    cycles_done: f64,
    pending_block: bool,
    bytes_produced: f64,
}

impl WorkModel for Producer {
    fn run(&mut self, now_us: u64, quantum_us: u64, cpu_hz: f64) -> RunResult {
        let now_s = now_us as f64 / 1e6;
        let bytes_per_cycle = self.rate.value(now_s).max(1e-12);
        let cycles_per_block = self.block_bytes as f64 / bytes_per_cycle;
        let mut cycles_available = quantum_us as f64 * cpu_hz / 1e6;
        let mut cycles_used = 0.0;

        // If a finished block is still waiting for queue space, try again.
        if self.pending_block {
            if self
                .queue
                .try_push(DataBlock {
                    bytes: self.block_bytes,
                })
                .is_ok()
            {
                self.pending_block = false;
                self.bytes_produced += self.block_bytes as f64;
            } else {
                return RunResult::blocked_after(0);
            }
        }

        while cycles_available > 0.0 {
            let needed = cycles_per_block - self.cycles_done;
            if cycles_available < needed {
                self.cycles_done += cycles_available;
                cycles_used += cycles_available;
                break;
            }
            cycles_used += needed;
            cycles_available -= needed;
            self.cycles_done = 0.0;
            if self
                .queue
                .try_push(DataBlock {
                    bytes: self.block_bytes,
                })
                .is_ok()
            {
                self.bytes_produced += self.block_bytes as f64;
            } else {
                self.pending_block = true;
                let used_us = (cycles_used / cpu_hz * 1e6).round() as u64;
                return RunResult::blocked_after(used_us.min(quantum_us));
            }
        }
        let used_us = (cycles_used / cpu_hz * 1e6).round() as u64;
        RunResult::ran(used_us.min(quantum_us).max(1))
    }

    fn poll_unblock(&mut self, _now_us: u64) -> bool {
        !self.queue.is_full()
    }

    fn progress_counter(&self) -> Option<f64> {
        Some(self.bytes_produced)
    }
}

/// Consumer work model: dequeues a block, then loops for
/// `block_bytes / bytes_per_cycle` cycles; blocks when the queue is empty.
struct Consumer {
    queue: Arc<BoundedBuffer<DataBlock>>,
    bytes_per_cycle: f64,
    cycles_remaining: f64,
    bytes_consumed: f64,
}

impl WorkModel for Consumer {
    fn run(&mut self, _now_us: u64, quantum_us: u64, cpu_hz: f64) -> RunResult {
        let mut burn = Burn::new(quantum_us, cpu_hz);
        loop {
            if self.cycles_remaining <= 0.0 {
                let Some(block) = self.queue.try_pop() else {
                    return burn.blocked();
                };
                self.cycles_remaining = block.bytes as f64 / self.bytes_per_cycle;
                self.bytes_consumed += block.bytes as f64;
            }
            if !burn.spend(&mut self.cycles_remaining) {
                return burn.ran();
            }
        }
    }

    fn poll_unblock(&mut self, _now_us: u64) -> bool {
        !self.queue.is_empty()
    }

    fn progress_counter(&self) -> Option<f64> {
        Some(self.bytes_consumed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_queue::ProgressMetric;
    use rrs_sim::{SimConfig, Simulation};

    fn fast_sim() -> Simulation {
        Simulation::new(SimConfig::default())
    }

    #[test]
    fn pipeline_installs_and_registers_queue() {
        let mut sim = fast_sim();
        let handles = PulsePipeline::install(&mut sim, PipelineConfig::default());
        assert_eq!(handles.queue.capacity(), 40);
        assert_eq!(handles.queue.len(), 20); // preloaded to half full
        for job in [handles.producer.job, handles.consumer.job] {
            let mut attachments = 0;
            sim.registry()
                .for_each_attachment(JobKey(job.0), |_| attachments += 1);
            assert_eq!(attachments, 1);
        }
    }

    #[test]
    fn steady_pipeline_reaches_balanced_fill() {
        let mut sim = fast_sim();
        let handles = PulsePipeline::install(&mut sim, PipelineConfig::steady(2.5e-5));
        sim.run_for(20.0);
        // The consumer's allocation should have converged near the
        // producer's (both need ~200 ‰ to move 2000 bytes/s).
        let consumer_alloc = sim.allocation_ppt(handles.consumer);
        assert!(
            (100..=400).contains(&consumer_alloc),
            "consumer allocation {consumer_alloc} should be near the producer's 200"
        );
        // The queue should not be pinned at empty or full.
        let fill = handles.queue.sample().fraction();
        assert!(
            (0.05..=0.95).contains(&fill),
            "steady-state fill level {fill} should be away from the rails"
        );
    }

    #[test]
    fn consumer_tracks_producer_rate_doubling() {
        let mut sim = fast_sim();
        // One long pulse starting at t = 5 s.
        let config = PipelineConfig {
            production_rate: PulseTrain::new(2.5e-5, 5.0e-5, vec![(5.0, 30.0)]),
            ..PipelineConfig::default()
        };
        let handles = PulsePipeline::install(&mut sim, config);
        sim.run_for(4.0);
        let before = sim.allocation_ppt(handles.consumer);
        sim.run_for(26.0);
        let after = sim.allocation_ppt(handles.consumer);
        assert!(
            after as f64 > before as f64 * 1.5,
            "consumer allocation should roughly double ({before} -> {after})"
        );
    }

    #[test]
    fn producer_reservation_is_not_modified_by_controller() {
        let mut sim = fast_sim();
        let handles = PulsePipeline::install(&mut sim, PipelineConfig::default());
        sim.run_for(10.0);
        assert_eq!(sim.allocation_ppt(handles.producer), 200);
    }

    #[test]
    fn progress_rates_are_recorded() {
        let mut sim = fast_sim();
        let _handles = PulsePipeline::install(&mut sim, PipelineConfig::steady(2.5e-5));
        sim.run_for(5.0);
        let trace = sim.trace();
        assert!(trace.get("rate/producer").is_some());
        assert!(trace.get("rate/consumer").is_some());
        assert!(trace.get("fill/pipeline").is_some());
        // Producer should be moving roughly 2000 bytes/s once warmed up.
        let rate = trace
            .get("rate/producer")
            .unwrap()
            .window_mean(2.0, 5.0)
            .unwrap();
        assert!(
            (1000.0..3000.0).contains(&rate),
            "producer rate {rate} should be near 2000 bytes/s"
        );
    }
}
