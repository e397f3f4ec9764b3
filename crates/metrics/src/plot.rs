//! Minimal ASCII plotting for the example binaries.
//!
//! The examples print the same curves the paper's figures show (allocation
//! over time, queue fill level over time) directly to the terminal so a run
//! of `cargo run --example ...` is self-contained.

use crate::timeseries::TimeSeries;

/// Configuration for an ASCII plot.
#[derive(Debug, Clone, Copy)]
pub struct PlotConfig {
    /// Plot width in character columns.
    pub width: usize,
    /// Plot height in character rows.
    pub height: usize,
    /// Lower bound of the y axis; `None` auto-scales to the data.
    pub y_min: Option<f64>,
    /// Upper bound of the y axis; `None` auto-scales to the data.
    pub y_max: Option<f64>,
}

impl Default for PlotConfig {
    fn default() -> Self {
        Self {
            width: 72,
            height: 16,
            y_min: None,
            y_max: None,
        }
    }
}

/// Renders a single time series as an ASCII chart.
///
/// Returns a multi-line string; empty series produce a one-line placeholder.
///
/// # Examples
///
/// ```
/// use rrs_metrics::{plot::{ascii_plot, PlotConfig}, TimeSeries};
///
/// let mut ts = TimeSeries::new("fill");
/// for i in 0..100 {
///     ts.push(i as f64, (i as f64 / 10.0).sin());
/// }
/// let chart = ascii_plot(&ts, PlotConfig::default());
/// assert!(chart.contains("fill"));
/// ```
pub fn ascii_plot(series: &TimeSeries, config: PlotConfig) -> String {
    if series.is_empty() {
        return format!("{} (no samples)\n", series.name());
    }
    let width = config.width.max(8);
    let height = config.height.max(2);

    let values = series.values();
    let data_min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let data_max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut y_min = config.y_min.unwrap_or(data_min);
    let mut y_max = config.y_max.unwrap_or(data_max);
    if (y_max - y_min).abs() < 1e-12 {
        y_min -= 0.5;
        y_max += 0.5;
    }

    // Downsample onto `width` columns by averaging each bucket.
    let t0 = series.first().map(|s| s.time).unwrap_or(0.0);
    let t1 = series.last().map(|s| s.time).unwrap_or(1.0);
    let span = (t1 - t0).max(1e-12);
    let mut sums = vec![0.0f64; width];
    let mut counts = vec![0usize; width];
    for (t, v) in series.iter() {
        let col = (((t - t0) / span) * (width as f64 - 1.0)).round() as usize;
        let col = col.min(width - 1);
        sums[col] += v;
        counts[col] += 1;
    }

    let mut grid = vec![vec![' '; width]; height];
    let mut last_row: Option<usize> = None;
    for col in 0..width {
        if counts[col] == 0 {
            continue;
        }
        let v = sums[col] / counts[col] as f64;
        let frac = ((v - y_min) / (y_max - y_min)).clamp(0.0, 1.0);
        let row = ((1.0 - frac) * (height as f64 - 1.0)).round() as usize;
        grid[row][col] = '*';
        // Connect vertically to the previous column for readability.
        if let Some(prev) = last_row {
            let (lo, hi) = if prev < row { (prev, row) } else { (row, prev) };
            for grid_row in &mut grid[lo..=hi] {
                if grid_row[col] == ' ' {
                    grid_row[col] = '|';
                }
            }
        }
        last_row = Some(row);
    }

    let mut out = String::new();
    out.push_str(&format!(
        "{}  [{:.3} .. {:.3}]\n",
        series.name(),
        y_min,
        y_max
    ));
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{y_max:>10.3} ")
        } else if i == height - 1 {
            format!("{y_min:>10.3} ")
        } else {
            " ".repeat(11)
        };
        out.push_str(&label);
        out.push('|');
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&" ".repeat(11));
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "{:>12}{:>width$.2}\n",
        format!("{t0:.2}"),
        t1,
        width = width
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> TimeSeries {
        let mut ts = TimeSeries::new("ramp");
        for i in 0..n {
            ts.push(i as f64, i as f64);
        }
        ts
    }

    #[test]
    fn empty_series_renders_placeholder() {
        let out = ascii_plot(&TimeSeries::new("empty"), PlotConfig::default());
        assert!(out.contains("no samples"));
    }

    #[test]
    fn plot_contains_name_and_data_marks() {
        let out = ascii_plot(&ramp(50), PlotConfig::default());
        assert!(out.contains("ramp"));
        assert!(out.contains('*'));
    }

    #[test]
    fn plot_has_expected_row_count() {
        let config = PlotConfig {
            width: 40,
            height: 10,
            y_min: None,
            y_max: None,
        };
        let out = ascii_plot(&ramp(100), config);
        // Header + height rows + axis + time labels.
        assert_eq!(out.lines().count(), 1 + 10 + 1 + 1);
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let mut ts = TimeSeries::new("flat");
        for i in 0..10 {
            ts.push(i as f64, 3.0);
        }
        let out = ascii_plot(&ts, PlotConfig::default());
        assert!(out.contains('*'));
    }

    #[test]
    fn fixed_axis_bounds_are_respected() {
        let config = PlotConfig {
            width: 30,
            height: 8,
            y_min: Some(0.0),
            y_max: Some(1.0),
        };
        let mut ts = TimeSeries::new("clipped");
        ts.push(0.0, -5.0);
        ts.push(1.0, 5.0);
        let out = ascii_plot(&ts, config);
        assert!(out.contains("1.000"));
        assert!(out.contains("0.000"));
    }
}
