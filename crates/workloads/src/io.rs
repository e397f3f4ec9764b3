//! I/O-intensive jobs (§3.2).
//!
//! "Applications that process large data sets can be considered consumers of
//! data that is produced by the I/O subsystem.  As such, they need to be
//! given sufficient CPU to keep the disks busy."  The disk is modelled as a
//! producer with fixed bandwidth that costs no CPU; the reader is a
//! real-rate consumer whose allocation must be just enough to keep up.
//! Because the disk (not the CPU) is the bottleneck, this workload also
//! exercises the controller's reclamation path (Figure 4's "−C" branch).

use crate::kernel::{Burn, Cadence};
use rrs_api::Host;
use rrs_core::{JobHandle, JobSpec};
use rrs_queue::{BoundedBuffer, JobKey, Role};
use rrs_scheduler::{Period, Proportion};
use rrs_sim::{RunResult, SimTime, WorkModel};
use std::sync::Arc;

/// One disk block delivered by the simulated I/O subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoBlock {
    /// Payload size in bytes.
    pub bytes: usize,
}

/// The simulated disk: delivers blocks at a fixed bandwidth without
/// consuming CPU (DMA).
#[derive(Debug)]
pub(crate) struct Disk {
    queue: Arc<BoundedBuffer<IoBlock>>,
    block_bytes: usize,
    blocks: Cadence,
}

impl Disk {
    /// Creates a disk delivering `bandwidth_bytes_per_sec` in blocks of
    /// `block_bytes`.
    ///
    /// # Panics
    ///
    /// Panics unless both arguments are positive.
    pub fn new(
        queue: Arc<BoundedBuffer<IoBlock>>,
        bandwidth_bytes_per_sec: f64,
        block_bytes: usize,
    ) -> Self {
        assert!(bandwidth_bytes_per_sec > 0.0, "bandwidth must be positive");
        assert!(block_bytes > 0, "block size must be positive");
        let blocks_per_sec = bandwidth_bytes_per_sec / block_bytes as f64;
        Self {
            queue,
            block_bytes,
            blocks: Cadence::per_second(blocks_per_sec),
        }
    }
}

impl WorkModel for Disk {
    fn run(&mut self, now_us: u64, _quantum_us: u64, _cpu_hz: f64) -> RunResult {
        self.blocks.tick(now_us, |_| {
            // A full queue drops the block: the device does not wait.
            let _ = self.queue.try_push(IoBlock {
                bytes: self.block_bytes,
            });
        });
        RunResult::blocked_after(1)
    }

    fn poll_unblock(&mut self, now_us: u64) -> bool {
        self.blocks.due(now_us)
    }

    fn next_transition(&self, now: SimTime) -> Option<SimTime> {
        // The device clock ticks on a fixed interval, so the next block
        // arrival is always known.
        Some(self.blocks.wake_at(now))
    }
}

/// The reader: consumes disk blocks, spending a configurable number of
/// cycles per byte (checksumming, parsing, filtering...).
#[derive(Debug)]
pub struct DiskReader {
    queue: Arc<BoundedBuffer<IoBlock>>,
    cycles_per_byte: f64,
    cycles_remaining: f64,
    bytes_processed: f64,
}

impl DiskReader {
    /// Creates a reader over `queue` spending `cycles_per_byte` per byte.
    pub fn new(queue: Arc<BoundedBuffer<IoBlock>>, cycles_per_byte: f64) -> Self {
        Self {
            queue,
            cycles_per_byte,
            cycles_remaining: 0.0,
            bytes_processed: 0.0,
        }
    }

    /// Installs a disk/reader pair into any [`Host`]: the disk gets a
    /// tiny real-time reservation (interrupt handling), the reader is a
    /// real-rate job.  Returns `(disk, reader)` handles.
    pub fn install(
        host: &mut (impl Host + ?Sized),
        bandwidth_bytes_per_sec: f64,
        block_bytes: usize,
        cycles_per_byte: f64,
        queue_capacity: usize,
    ) -> (JobHandle, JobHandle) {
        let queue = Arc::new(BoundedBuffer::new("disk-buffer", queue_capacity));
        let disk = Disk::new(Arc::clone(&queue), bandwidth_bytes_per_sec, block_bytes);
        let reader = DiskReader::new(Arc::clone(&queue), cycles_per_byte);
        let disk_handle = host
            .add_job(
                "disk",
                JobSpec::real_time(Proportion::from_ppt(5), Period::from_millis(5)),
                Box::new(disk),
            )
            .expect("tiny disk reservation always fits");
        let reader_handle = host
            .add_job("reader", JobSpec::real_rate(), Box::new(reader))
            .expect("real-rate always admitted");
        let registry = host.registry();
        registry.register(JobKey(disk_handle.job.0), Role::Producer, queue.clone());
        registry.register(JobKey(reader_handle.job.0), Role::Consumer, queue);
        (disk_handle, reader_handle)
    }
}

impl WorkModel for DiskReader {
    fn run(&mut self, _now_us: u64, quantum_us: u64, cpu_hz: f64) -> RunResult {
        let mut burn = Burn::new(quantum_us, cpu_hz);
        loop {
            if self.cycles_remaining <= 0.0 {
                let Some(block) = self.queue.try_pop() else {
                    return burn.blocked();
                };
                self.cycles_remaining = block.bytes as f64 * self.cycles_per_byte;
                self.bytes_processed += block.bytes as f64;
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
        Some(self.bytes_processed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_sim::{SimConfig, Simulation};

    #[test]
    fn disk_delivers_at_configured_bandwidth() {
        let queue = Arc::new(BoundedBuffer::new("q", 4096));
        // 1 MB/s in 4 KiB blocks ≈ 244 blocks/s.
        let mut disk = Disk::new(Arc::clone(&queue), 1.0e6, 4096);
        let mut now = 0u64;
        while now < 1_000_000 {
            disk.run(now, 10, 400e6);
            now += 1_000;
        }
        // Nothing consumes and the queue never fills, so what is queued is
        // what was delivered.
        let delivered = queue.len();
        assert!(
            (230..=260).contains(&delivered),
            "delivered {delivered} blocks in 1 s"
        );
    }

    #[test]
    fn reader_keeps_up_with_the_disk() {
        let mut sim = Simulation::new(SimConfig::default());
        // 1 MB/s, 40 cycles/byte → 40 Mcycles/s → 10 % of a 400 MHz CPU.
        let (_disk, reader) = DiskReader::install(&mut sim, 1.0e6, 4096, 40.0, 32);
        sim.run_for(10.0);
        let throughput = sim
            .trace()
            .get("rate/reader")
            .unwrap()
            .window_mean(5.0, 10.0)
            .unwrap();
        assert!(
            throughput > 0.8e6,
            "reader should process ≈1 MB/s, got {throughput}"
        );
        let alloc = sim.allocation_ppt(reader);
        assert!(
            (50..=400).contains(&alloc),
            "reader allocation {alloc} should be near 100 ‰"
        );
    }

    #[test]
    fn reader_allocation_is_bounded_by_the_disk_bottleneck() {
        let mut sim = Simulation::new(SimConfig::default());
        // A very slow disk: 100 KB/s.  Even with the whole CPU available the
        // reader cannot go faster, so the controller must not hand it the
        // whole machine.
        let (_disk, reader) = DiskReader::install(&mut sim, 100e3, 4096, 40.0, 32);
        sim.run_for(15.0);
        let alloc = sim.allocation_ppt(reader);
        assert!(
            alloc < 500,
            "reader allocation {alloc} should stay modest when the disk is the bottleneck"
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let queue = Arc::new(BoundedBuffer::new("q", 4));
        let _ = Disk::new(queue, 0.0, 4096);
    }
}
