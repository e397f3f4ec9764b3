//! Integration tests for the controller's taxonomy, admission control and
//! reservation handling working against the dispatcher.

use realrate::core::{controller::AdmitError, JobSpec};
use realrate::scheduler::{Period, Proportion};
use realrate::sim::{Host, SimConfig, Simulation};
use realrate::workloads::CpuHog;

#[test]
fn real_time_jobs_are_admission_controlled_and_isolated() {
    let mut sim = Simulation::new(SimConfig::default());
    let rt1 = sim
        .add_job(
            "rt1",
            JobSpec::real_time(Proportion::from_ppt(500), Period::from_millis(10)),
            Box::new(CpuHog::new()),
        )
        .unwrap();
    let rt2 = sim
        .add_job(
            "rt2",
            JobSpec::real_time(Proportion::from_ppt(300), Period::from_millis(20)),
            Box::new(CpuHog::new()),
        )
        .unwrap();
    // A third reservation of 300 ‰ would exceed the 950 ‰ threshold.
    let rejected = sim.add_job(
        "rt3",
        JobSpec::real_time(Proportion::from_ppt(300), Period::from_millis(20)),
        Box::new(CpuHog::new()),
    );
    assert!(matches!(rejected, Err(AdmitError::Rejected { .. })));

    // A best-effort hog joins anyway and scavenges what is left.
    let hog = sim
        .add_job("hog", JobSpec::miscellaneous(), Box::new(CpuHog::new()))
        .unwrap();
    sim.run_for(10.0);

    let f1 = sim.cpu_used(rt1).as_micros() as f64 / sim.now_micros() as f64;
    let f2 = sim.cpu_used(rt2).as_micros() as f64 / sim.now_micros() as f64;
    let fh = sim.cpu_used(hog).as_micros() as f64 / sim.now_micros() as f64;
    assert!((f1 - 0.5).abs() < 0.05, "rt1 got {f1}, wanted ≈ 0.5");
    assert!((f2 - 0.3).abs() < 0.05, "rt2 got {f2}, wanted ≈ 0.3");
    assert!(
        fh > 0.05,
        "the hog should still get the leftovers, got {fh}"
    );
    assert!(
        fh < 0.25,
        "the hog must not encroach on reservations, got {fh}"
    );
}

#[test]
fn aperiodic_real_time_jobs_get_the_default_period() {
    let mut sim = Simulation::new(SimConfig::default());
    let job = sim
        .add_job(
            "aperiodic",
            JobSpec::aperiodic_real_time(Proportion::from_ppt(250)),
            Box::new(CpuHog::new()),
        )
        .unwrap();
    sim.run_for(2.0);
    let reservation = sim.dispatcher().reservation(job.thread()).unwrap();
    assert_eq!(reservation.proportion.ppt(), 250);
    assert_eq!(reservation.period, Period::from_millis(30));
}

#[test]
fn rate_monotonic_ordering_prefers_short_period_threads() {
    let mut sim = Simulation::new(SimConfig::default());
    // Two reservations with equal proportions but different periods; the
    // short-period job must not miss deadlines because it always wins the
    // goodness comparison when runnable.
    let short = sim
        .add_job(
            "short",
            JobSpec::real_time(Proportion::from_ppt(300), Period::from_millis(5)),
            Box::new(CpuHog::new()),
        )
        .unwrap();
    let long = sim
        .add_job(
            "long",
            JobSpec::real_time(Proportion::from_ppt(300), Period::from_millis(100)),
            Box::new(CpuHog::new()),
        )
        .unwrap();
    sim.run_for(5.0);
    let short_usage = sim.dispatcher().usage(short.thread()).unwrap();
    let long_usage = sim.dispatcher().usage(long.thread()).unwrap();
    assert_eq!(
        short_usage.deadlines_missed, 0,
        "the short-period reservation must never miss"
    );
    // Both get their share overall.
    assert!((short_usage.total_used_us as f64 / sim.now_micros() as f64 - 0.3).abs() < 0.05);
    assert!((long_usage.total_used_us as f64 / sim.now_micros() as f64 - 0.3).abs() < 0.05);
}

#[test]
fn admission_admits_exactly_at_capacity_and_rejects_one_past_it() {
    use realrate::core::{Controller, ControllerConfig, JobId};
    use realrate::queue::MetricRegistry;

    // The controller's 95 % overload threshold, its admission bound.
    let threshold = 950;
    let mut c = Controller::new(ControllerConfig::default(), MetricRegistry::new());
    c.add_job(
        JobId(1),
        JobSpec::real_time(Proportion::from_ppt(500), Period::from_millis(10)),
    )
    .unwrap();
    // Exactly filling the remaining capacity must be admitted...
    c.add_job(
        JobId(2),
        JobSpec::real_time(
            Proportion::from_ppt(threshold - 500),
            Period::from_millis(10),
        ),
    )
    .expect("a reservation exactly at capacity is admissible");
    // ...and a single extra part-per-thousand must be rejected.
    let err = c
        .add_job(
            JobId(3),
            JobSpec::real_time(Proportion::from_ppt(1), Period::from_millis(10)),
        )
        .unwrap_err();
    match err {
        AdmitError::Rejected {
            requested,
            available,
        } => {
            assert_eq!(requested.ppt(), 1);
            assert_eq!(available.ppt(), 0);
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
}

#[test]
fn zero_proportion_real_time_job_is_admitted_and_stays_at_zero() {
    let mut sim = Simulation::new(SimConfig::default());
    let zero = sim
        .add_job(
            "zero",
            JobSpec::real_time(Proportion::from_ppt(0), Period::from_millis(10)),
            Box::new(CpuHog::new()),
        )
        .expect("a zero-proportion reservation consumes no capacity");
    let _hog = sim
        .add_job("hog", JobSpec::miscellaneous(), Box::new(CpuHog::new()))
        .unwrap();
    sim.run_for(3.0);
    // The reservation is honoured verbatim: never squished, never grown.
    assert_eq!(sim.allocation_ppt(zero), 0);
    // A zero reservation may still ride otherwise-idle dispatch slots, but
    // with a hog present it must get essentially nothing.
    let fraction = sim.cpu_used(zero).as_micros() as f64 / sim.now_micros() as f64;
    assert!(fraction < 0.02, "zero-proportion job used {fraction}");
}

#[test]
fn duplicate_registration_is_reported_as_duplicate() {
    use realrate::core::{Controller, ControllerConfig, JobId};
    use realrate::queue::MetricRegistry;

    let mut c = Controller::new(ControllerConfig::default(), MetricRegistry::new());
    let slot = c.add_job(JobId(42), JobSpec::miscellaneous()).unwrap();
    let err = c.add_job(JobId(42), JobSpec::real_rate()).unwrap_err();
    assert_eq!(err, AdmitError::Duplicate(JobId(42)));
    assert!(err.to_string().contains("job42"));
    // The failed registration must not have disturbed the original.
    assert_eq!(c.slot_of(JobId(42)), Some(slot));
    assert_eq!(c.job_count(), 1);
}

#[test]
fn equal_importances_split_the_overload_equally() {
    use realrate::core::Importance;
    let mut sim = Simulation::new(SimConfig::default());
    let a = sim
        .add_job(
            "a",
            JobSpec::miscellaneous().with_importance(Importance::new(2.0)),
            Box::new(CpuHog::new()),
        )
        .unwrap();
    let b = sim
        .add_job(
            "b",
            JobSpec::miscellaneous().with_importance(Importance::new(2.0)),
            Box::new(CpuHog::new()),
        )
        .unwrap();
    sim.run_for(15.0);
    let ua = sim.cpu_used(a).as_micros() as f64;
    let ub = sim.cpu_used(b).as_micros() as f64;
    let ratio = ua / ub.max(1.0);
    assert!(
        (0.8..1.25).contains(&ratio),
        "equal importances must not bias the split (ratio {ratio})"
    );
}

#[test]
fn importance_changes_the_overload_split_but_never_starves() {
    use realrate::core::Importance;
    let mut sim = Simulation::new(SimConfig::default());
    let important = sim
        .add_job(
            "important",
            JobSpec::miscellaneous().with_importance(Importance::new(8.0)),
            Box::new(CpuHog::new()),
        )
        .unwrap();
    let humble = sim
        .add_job(
            "humble",
            JobSpec::miscellaneous().with_importance(Importance::new(0.5)),
            Box::new(CpuHog::new()),
        )
        .unwrap();
    sim.run_for(15.0);
    let imp = sim.cpu_used(important).as_micros();
    let hum = sim.cpu_used(humble).as_micros();
    assert!(
        imp > hum,
        "importance should bias the split ({imp} vs {hum})"
    );
    assert!(
        hum as f64 / sim.now_micros() as f64 > 0.02,
        "the humble job must not starve"
    );
}
