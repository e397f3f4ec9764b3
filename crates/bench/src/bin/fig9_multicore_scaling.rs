//! Regenerates Figure 9 (beyond the paper): aggregate throughput vs. CPUs.
//!
//! Run with `cargo run -p rrs-bench --release --bin fig9_multicore_scaling`.

use rrs_bench::fig9::{run, Fig9Params};
use rrs_bench::{print_report, write_json};

fn main() {
    let record = run(Fig9Params::default());
    print_report(&record);
    println!(
        "The machine layer: N per-CPU dispatchers on one event calendar, jobs placed \
         by least-loaded fit and rebalanced by threshold-triggered migration."
    );
    if let Some(path) = write_json(&record) {
        println!("Wrote {}", path.display());
    }
}
