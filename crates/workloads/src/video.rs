//! A multi-stage multimedia pipeline (§4.4).
//!
//! "We have a multimedia pipeline of processes that communicate with a
//! shared queue.  Our controller automatically identifies that one stage of
//! the pipeline has vastly different CPU requirements than the others (the
//! video decoder), even though all the processes have the same priority."
//!
//! The pipeline here is source → decoder → renderer: the source emits
//! frames at a fixed rate (it holds a small reservation, like a capture
//! device), the decoder burns many cycles per frame, and the renderer burns
//! few.  Both decoder and renderer are real-rate jobs whose allocations the
//! controller must discover.

use crate::kernel::{Burn, Cadence};
use rrs_api::Host;
use rrs_core::{JobHandle, JobSpec};
use rrs_queue::{BoundedBuffer, JobKey, Role};
use rrs_scheduler::{Period, Proportion};
use rrs_sim::{RunResult, WorkModel};
use std::sync::Arc;

/// A video frame moving through the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Frame sequence number.
    pub seq: u64,
}

/// Configuration of the video pipeline.
#[derive(Debug, Clone, Copy)]
pub struct VideoPipelineConfig {
    /// Source frame rate in frames per second.
    pub fps: f64,
    /// Cycles the decoder spends per frame.
    pub decode_cycles_per_frame: f64,
    /// Cycles the renderer spends per frame.
    pub render_cycles_per_frame: f64,
    /// Capacity of the queues between stages, in frames.
    pub queue_capacity: usize,
}

impl Default for VideoPipelineConfig {
    fn default() -> Self {
        // 30 fps; decoding costs 4 Mcycles/frame (30 % of a 400 MHz CPU),
        // rendering 0.4 Mcycles/frame (3 %): a 10× asymmetry like the one
        // the paper describes.
        Self {
            fps: 30.0,
            decode_cycles_per_frame: 4.0e6,
            render_cycles_per_frame: 0.4e6,
            queue_capacity: 16,
        }
    }
}

/// Handles to the three pipeline stages.
#[derive(Debug, Clone)]
pub struct VideoPipelineHandles {
    /// The frame source (real-time reservation).
    pub source: JobHandle,
    /// The decoder stage (real-rate).
    pub decoder: JobHandle,
    /// The renderer stage (real-rate).
    pub renderer: JobHandle,
    /// Queue from source to decoder.
    pub capture_queue: Arc<BoundedBuffer<Frame>>,
    /// Queue from decoder to renderer.
    pub render_queue: Arc<BoundedBuffer<Frame>>,
}

/// Builder for the video pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct VideoPipeline;

impl VideoPipeline {
    /// Installs the three-stage pipeline into any [`Host`].
    pub fn install(
        host: &mut (impl Host + ?Sized),
        config: VideoPipelineConfig,
    ) -> VideoPipelineHandles {
        let capture_queue = Arc::new(BoundedBuffer::new("capture", config.queue_capacity));
        let render_queue = Arc::new(BoundedBuffer::new("render", config.queue_capacity));

        let source = FrameSource {
            queue: Arc::clone(&capture_queue),
            frames: Cadence::per_second(config.fps),
            seq: 0,
        };
        let decoder = PipelineStage {
            input: Arc::clone(&capture_queue),
            output: Some(Arc::clone(&render_queue)),
            cycles_per_frame: config.decode_cycles_per_frame,
            cycles_remaining: 0.0,
            current: None,
            processed: 0,
        };
        let renderer = PipelineStage {
            input: Arc::clone(&render_queue),
            output: None,
            cycles_per_frame: config.render_cycles_per_frame,
            cycles_remaining: 0.0,
            current: None,
            processed: 0,
        };

        let source_handle = host
            .add_job(
                "source",
                JobSpec::real_time(Proportion::from_ppt(10), Period::from_millis(5)),
                Box::new(source),
            )
            .expect("tiny source reservation always fits");
        let decoder_handle = host
            .add_job("decoder", JobSpec::real_rate(), Box::new(decoder))
            .expect("real-rate always admitted");
        let renderer_handle = host
            .add_job("renderer", JobSpec::real_rate(), Box::new(renderer))
            .expect("real-rate always admitted");

        let registry = host.registry();
        registry.register(
            JobKey(source_handle.job.0),
            Role::Producer,
            capture_queue.clone(),
        );
        registry.register(
            JobKey(decoder_handle.job.0),
            Role::Consumer,
            capture_queue.clone(),
        );
        registry.register(
            JobKey(decoder_handle.job.0),
            Role::Producer,
            render_queue.clone(),
        );
        registry.register(
            JobKey(renderer_handle.job.0),
            Role::Consumer,
            render_queue.clone(),
        );

        VideoPipelineHandles {
            source: source_handle,
            decoder: decoder_handle,
            renderer: renderer_handle,
            capture_queue,
            render_queue,
        }
    }
}

/// Emits frames at a fixed rate using negligible CPU (a capture device).
#[derive(Debug)]
struct FrameSource {
    queue: Arc<BoundedBuffer<Frame>>,
    frames: Cadence,
    seq: u64,
}

impl WorkModel for FrameSource {
    fn run(&mut self, now_us: u64, _quantum_us: u64, _cpu_hz: f64) -> RunResult {
        self.frames.tick(now_us, |_| {
            if self.queue.try_push(Frame { seq: self.seq }).is_ok() {
                self.seq += 1;
            }
        });
        RunResult::blocked_after(1)
    }

    fn poll_unblock(&mut self, now_us: u64) -> bool {
        self.frames.due(now_us)
    }

    fn progress_counter(&self) -> Option<f64> {
        Some(self.seq as f64)
    }
}

/// A pipeline stage: pops a frame from `input`, burns cycles, optionally
/// forwards it to `output`.
#[derive(Debug)]
struct PipelineStage {
    input: Arc<BoundedBuffer<Frame>>,
    output: Option<Arc<BoundedBuffer<Frame>>>,
    cycles_per_frame: f64,
    cycles_remaining: f64,
    current: Option<Frame>,
    processed: u64,
}

impl WorkModel for PipelineStage {
    fn run(&mut self, _now_us: u64, quantum_us: u64, cpu_hz: f64) -> RunResult {
        let mut burn = Burn::new(quantum_us, cpu_hz);
        loop {
            if self.current.is_none() {
                let Some(frame) = self.input.try_pop() else {
                    return burn.blocked();
                };
                self.current = Some(frame);
                self.cycles_remaining = self.cycles_per_frame;
            }
            if !burn.spend(&mut self.cycles_remaining) {
                return burn.ran();
            }
            let frame = self.current.take().expect("frame in flight");
            self.processed += 1;
            if let Some(out) = &self.output {
                // A full downstream queue drops the frame rather than
                // blocking, like a renderer skipping late frames.
                let _ = out.try_push(frame);
            }
        }
    }

    fn poll_unblock(&mut self, _now_us: u64) -> bool {
        !self.input.is_empty()
    }

    fn progress_counter(&self) -> Option<f64> {
        Some(self.processed as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_sim::{SimConfig, Simulation};

    #[test]
    fn controller_discovers_decoder_needs_far_more_than_renderer() {
        let mut sim = Simulation::new(SimConfig::default());
        let handles = VideoPipeline::install(&mut sim, VideoPipelineConfig::default());
        sim.run_for(20.0);
        let decoder = sim.allocation_ppt(handles.decoder);
        let renderer = sim.allocation_ppt(handles.renderer);
        // Decoding needs ~300 ‰, rendering ~30 ‰: the controller should
        // discover an asymmetry of several times without being told.
        assert!(
            decoder as f64 > renderer as f64 * 3.0,
            "decoder {decoder} should dwarf renderer {renderer}"
        );
    }

    #[test]
    fn pipeline_sustains_the_frame_rate() {
        let mut sim = Simulation::new(SimConfig::default());
        let _handles = VideoPipeline::install(&mut sim, VideoPipelineConfig::default());
        sim.run_for(20.0);
        let rendered = sim
            .trace()
            .get("rate/renderer")
            .unwrap()
            .window_mean(10.0, 20.0)
            .unwrap();
        assert!(
            rendered > 20.0,
            "renderer should sustain close to 30 fps, got {rendered}"
        );
    }

    #[test]
    fn source_emits_frames_at_fixed_rate() {
        let queue = Arc::new(BoundedBuffer::new("q", 256));
        let mut source = FrameSource {
            queue: Arc::clone(&queue),
            frames: Cadence::per_second(30.0),
            seq: 0,
        };
        let mut now = 0u64;
        while now < 2_000_000 {
            source.run(now, 100, 400e6);
            now += 5_000;
        }
        let emitted = source.seq;
        assert!(
            (55..=65).contains(&emitted),
            "emitted {emitted} frames in 2 s"
        );
    }
}
