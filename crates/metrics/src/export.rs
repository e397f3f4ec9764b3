//! Export of experiment results as JSON and aligned text tables.

use crate::timeseries::TimeSeries;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A record of one experiment run: named scalar results plus named series.
///
/// EXPERIMENTS.md is generated from these records, and the figure binaries
/// emit them as JSON so results can be post-processed outside Rust.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Experiment identifier, e.g. `"figure5"`.
    pub id: String,
    /// Human-readable description of what was run.
    pub description: String,
    /// Named scalar outcomes (e.g. fitted slope, response time).
    pub scalars: BTreeMap<String, f64>,
    /// Named time series recorded during the run.
    pub series: Vec<TimeSeries>,
}

impl ExperimentRecord {
    /// Creates an empty record.
    pub fn new(id: impl Into<String>, description: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            description: description.into(),
            scalars: BTreeMap::new(),
            series: Vec::new(),
        }
    }

    /// Adds a scalar outcome.
    pub fn scalar(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        self.scalars.insert(name.into(), value);
        self
    }

    /// Adds a time series.
    pub fn add_series(&mut self, series: TimeSeries) -> &mut Self {
        self.series.push(series);
        self
    }

    /// Looks up a scalar by name.
    pub fn get_scalar(&self, name: &str) -> Option<f64> {
        self.scalars.get(name).copied()
    }

    /// Serialises the record as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("experiment records are always serialisable")
    }

    /// Renders the scalar outcomes as an aligned two-column text table.
    pub fn scalar_table(&self) -> String {
        let width = self
            .scalars
            .keys()
            .map(|k| k.len())
            .max()
            .unwrap_or(0)
            .max(6);
        let mut out = String::new();
        for (k, v) in &self.scalars {
            let _ = writeln!(out, "{k:<width$}  {v:>14.6}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(name: &str, values: &[(f64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new(name);
        for &(t, v) in values {
            s.push(t, v);
        }
        s
    }

    #[test]
    fn record_round_trips_through_json() {
        let mut rec = ExperimentRecord::new("figure5", "controller overhead");
        rec.scalar("slope", 0.00066).scalar("intercept", 0.00057);
        rec.add_series(ts("overhead", &[(0.0, 0.001), (1.0, 0.002)]));
        let json = rec.to_json();
        let parsed = serde_json::from_str::<ExperimentRecord>(&json).unwrap();
        assert_eq!(parsed.id, "figure5");
        assert_eq!(parsed.get_scalar("slope"), Some(0.00066));
        assert_eq!(parsed.series.len(), 1);
        assert_eq!(parsed.series[0].len(), 2);
    }

    #[test]
    fn missing_scalar_is_none() {
        let rec = ExperimentRecord::new("x", "y");
        assert!(rec.get_scalar("nope").is_none());
    }

    #[test]
    fn scalar_table_contains_all_names() {
        let mut rec = ExperimentRecord::new("x", "y");
        rec.scalar("alpha", 1.0).scalar("beta", 2.0);
        let table = rec.scalar_table();
        assert!(table.contains("alpha"));
        assert!(table.contains("beta"));
    }
}
