//! The multimedia pipeline from §4.4 of the paper: source → decoder →
//! renderer, where the decoder needs roughly ten times the CPU of the
//! renderer.  All stages have "the same priority" (none — there are no
//! priorities); the controller discovers the asymmetric CPU needs from the
//! two queue fill levels.
//!
//! Run with `cargo run --release --example video_pipeline`.

use realrate::api::{Runtime, SimTime};
use realrate::metrics::plot::{ascii_plot, PlotConfig};
use realrate::workloads::{VideoPipeline, VideoPipelineConfig};

fn main() {
    let mut host = Runtime::sim().build();
    let config = VideoPipelineConfig::default();
    println!(
        "video pipeline: {} fps, decode {:.1} Mcycles/frame, render {:.1} Mcycles/frame",
        config.fps,
        config.decode_cycles_per_frame / 1e6,
        config.render_cycles_per_frame / 1e6
    );

    let handles = VideoPipeline::install(host.as_mut(), config);
    host.advance(SimTime::from_secs(30));

    println!();
    println!("allocations discovered by the controller (parts per thousand):");
    println!(
        "  source   : {:>4} ‰ (fixed reservation)",
        host.allocation_ppt(handles.source)
    );
    println!("  decoder  : {:>4} ‰", host.allocation_ppt(handles.decoder));
    println!(
        "  renderer : {:>4} ‰",
        host.allocation_ppt(handles.renderer)
    );

    if let Some(rate) = host.trace().get("rate/renderer") {
        let fps = rate.window_mean(10.0, 30.0).unwrap_or(0.0);
        println!();
        println!("sustained frame rate at the renderer: {fps:.1} fps");
        print!("{}", ascii_plot(&rate, PlotConfig::default()));
    }
    if let Some(alloc) = host.trace().get("alloc/decoder") {
        println!();
        println!("decoder allocation over time:");
        print!("{}", ascii_plot(&alloc, PlotConfig::default()));
    }
}
