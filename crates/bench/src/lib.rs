//! Experiment harness: regenerates every figure of the paper's evaluation.
//!
//! Each `figN` module runs one experiment end to end on the simulator and
//! returns an [`rrs_metrics::ExperimentRecord`] with the same series and
//! headline scalars the paper reports.  The binaries under `src/bin/` print
//! those records (tables, ASCII plots, CSV).  Every number here is
//! simulated; wall-clock speed is measured by the `benchmark/` package, the
//! repo's one performance harness.
//!
//! | module | paper figure | content |
//! |---|---|---|
//! | [`fig5`] | Figure 5 | controller overhead vs. number of controlled processes |
//! | [`fig6`] | Figure 6 | controller responsiveness to a variable-rate producer |
//! | [`fig7`] | Figure 7 | the same pipeline competing with a CPU hog |
//! | [`fig8`] | Figure 8 | dispatch overhead vs. dispatcher frequency |
//! | [`fig9`] | — (beyond the paper) | aggregate throughput vs. number of CPUs (machine layer) |
//! | [`ablations`] | — | design-choice ablations (PID gains, squish policy, controller period, period estimation, buffer size) |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;

use rrs_metrics::plot::{ascii_plot, PlotConfig};
use rrs_metrics::ExperimentRecord;

/// Prints an experiment record as a human-readable report: description,
/// scalar table, then an ASCII plot of each recorded series.
pub fn print_report(record: &ExperimentRecord) {
    println!("== {} ==", record.id);
    println!("{}", record.description);
    println!();
    print!("{}", record.scalar_table());
    println!();
    for series in &record.series {
        println!("{}", ascii_plot(series, PlotConfig::default()));
    }
}

/// Writes the record as JSON next to the current directory under
/// `results/<id>.json`, creating the directory if needed.  Returns the path
/// written, or `None` if the filesystem refused.
pub fn write_json(record: &ExperimentRecord) -> Option<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return None;
    }
    let path = dir.join(format!("{}.json", record.id));
    std::fs::write(&path, record.to_json()).ok()?;
    Some(path)
}
