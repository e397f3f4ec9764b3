//! Integration tests of the experiment harness itself: quick versions of
//! the figure regenerations, checked for the qualitative shape the paper
//! reports and for a clean JSON round trip.

use realrate::metrics::ExperimentRecord;
use rrs_bench::{fig5, fig8};

#[test]
fn figure5_quick_sweep_is_linear_and_small() {
    let record = fig5::run(fig5::Fig5Params {
        max_processes: 20,
        step: 10,
        seconds_per_point: 0.5,
    });
    let slope = record.get_scalar("slope").unwrap();
    let r2 = record.get_scalar("r_squared").unwrap();
    assert!(slope > 0.0, "overhead must grow with process count");
    assert!(r2 > 0.9, "growth should be essentially linear (R² = {r2})");
    // Round trip through JSON.
    let parsed = serde_json::from_str::<ExperimentRecord>(&record.to_json()).unwrap();
    assert_eq!(parsed.id, "figure5");
    assert_eq!(parsed.series.len(), record.series.len());
}

#[test]
fn figure8_quick_sweep_shows_monotone_overhead() {
    let record = fig8::run(fig8::Fig8Params {
        frequencies_hz: vec![100.0, 2000.0, 10000.0],
        seconds_per_point: 0.5,
    });
    let normalised = &record.series[1];
    let values = normalised.values();
    assert_eq!(
        values[0], 1.0,
        "the series is normalised to the first point"
    );
    assert!(
        values.last().unwrap() < &values[0],
        "higher dispatcher frequency must cost CPU"
    );
}
