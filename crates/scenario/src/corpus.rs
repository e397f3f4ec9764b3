//! The built-in scenario corpus.
//!
//! Eight named scenarios exercise the allocator across the workload space
//! the paper describes and beyond it: steady multimedia, flash crowds on
//! a big machine, diurnal server load, hog storms against a real-time
//! reservation, mixed reserved/adaptive fleets, bursty isochronous work,
//! cascaded pipelines and saturated churn with mid-run CPU hot-adds.
//! Every scenario carries the SLOs it must satisfy; `scenario_runner`
//! executes the corpus and CI runs the smoke subset on every push.

use crate::arrivals::ArrivalProcess;
use crate::slo::Slo;
use crate::spec::{ArrivalStream, Member, Phase, ScenarioSpec, TransientJob};
use rrs_api::Backend;

fn phase(name: &str, duration_s: f64, load: f64, inject_hogs: u32, cpus: Option<usize>) -> Phase {
    Phase {
        name: name.into(),
        duration_s,
        load,
        inject_hogs,
        cpus,
    }
}

/// `steady_video`: the §4.4 multimedia pipeline plus an interactive
/// typist on the paper's single CPU — the bread-and-butter case.
pub(crate) fn steady_video() -> ScenarioSpec {
    let mut s = ScenarioSpec::named(
        "steady_video",
        "30 fps video pipeline plus an interactive typist on one CPU; queues \
         regulated, no deadline misses, nobody starves",
    );
    s.seed = 11;
    s.cpus = 1;
    s.members.push(Member::VideoPipeline {
        fps: 30.0,
        decode_mcycles: 4.0,
        render_mcycles: 0.4,
    });
    s.members.push(Member::Interactive {
        name: "typist".into(),
        keystrokes_hz: 5.0,
        mcycles_per_keystroke: 2.0,
    });
    s.phases.push(phase("steady", 10.0, 1.0, 0, None));
    s.slos.push(Slo::FillBand {
        queue: "capture".into(),
        min: 0.01,
        max: 0.99,
        warmup_s: 3.0,
    });
    s.slos.push(Slo::FillBand {
        queue: "render".into(),
        min: 0.0,
        max: 0.99,
        warmup_s: 3.0,
    });
    s.slos.push(Slo::NoStarvation { min_ppt: 1 });
    s.slos.push(Slo::MinThroughput { min_cpus: 0.25 });
    // Interactivity as the user feels it: the tail, not the mean.  The
    // typist's keystroke-to-completion p99 runs ≈ 63 ms here.
    s.slos.push(Slo::LatencyBand {
        source: "typist".into(),
        percentile: 99.0,
        max_ms: 150.0,
    });
    s
}

/// `flash_crowd_8cpu`: a fleet of hogs and a web server on eight CPUs
/// surviving a 30× arrival spike of short-lived workers.
pub(crate) fn flash_crowd_8cpu() -> ScenarioSpec {
    let mut s = ScenarioSpec::named(
        "flash_crowd_8cpu",
        "web server plus six hogs on 8 CPUs; a flash crowd of transient \
         workers spikes arrivals 30x without breaking fairness or deadlines",
    );
    s.seed = 22;
    s.cpus = 8;
    for i in 0..6 {
        s.members.push(Member::Hog {
            name: format!("hog{i}"),
        });
    }
    s.members.push(Member::WebServer {
        rate_hz: 200.0,
        mcycles_per_request: 1.0,
        backlog: 64,
    });
    s.members.push(Member::RealTimeSpin {
        name: "pulse".into(),
        ppt: 100,
        period_ms: 10,
    });
    s.streams.push(ArrivalStream {
        name: "crowd".into(),
        process: ArrivalProcess::FlashCrowd {
            base_hz: 1.0,
            at_s: 5.0,
            duration_s: 2.0,
            spike_hz: 30.0,
        },
        job: TransientJob::Worker {
            mcycles: 10.0,
            lifetime_s: 1.0,
        },
    });
    s.phases.push(phase("crowd", 12.0, 1.0, 0, None));
    s.slos.push(Slo::MinThroughput { min_cpus: 4.0 });
    s.slos.push(Slo::FairShare { min_ratio: 0.5 });
    s.slos.push(Slo::DeadlineMissRate { max: 0.05 });
    s.slos.push(Slo::RtDelivery { min_ratio: 0.9 });
    s.slos.push(Slo::FillBand {
        queue: "server-backlog".into(),
        min: 0.0,
        max: 0.9,
        warmup_s: 3.0,
    });
    // The crowd may queue requests, but the tail must stay bounded
    // (p99 ≈ 381 ms through the spike on this seed).
    s.slos.push(Slo::LatencyBand {
        source: "server".into(),
        percentile: 99.0,
        max_ms: 600.0,
    });
    s
}

/// `diurnal_server`: a web server riding a day-shaped load curve with
/// stepped phase multipliers on top.
pub(crate) fn diurnal_server() -> ScenarioSpec {
    let mut s = ScenarioSpec::named(
        "diurnal_server",
        "web server on two CPUs under a diurnal arrival ramp with phase load \
         steps; the backlog never saturates and the hog keeps running",
    );
    s.seed = 33;
    s.cpus = 2;
    s.members.push(Member::WebServer {
        rate_hz: 150.0,
        mcycles_per_request: 1.5,
        backlog: 64,
    });
    s.members.push(Member::Hog {
        name: "batch".into(),
    });
    s.members.push(Member::RealTimeSpin {
        name: "heartbeat".into(),
        ppt: 50,
        period_ms: 10,
    });
    s.streams.push(ArrivalStream {
        name: "sessions".into(),
        process: ArrivalProcess::Diurnal {
            base_hz: 0.5,
            peak_hz: 8.0,
            day_s: 15.0,
        },
        job: TransientJob::Worker {
            mcycles: 15.0,
            lifetime_s: 1.2,
        },
    });
    s.phases.push(phase("morning", 5.0, 1.0, 0, None));
    s.phases.push(phase("midday", 5.0, 1.5, 0, None));
    s.phases.push(phase("evening", 5.0, 0.5, 0, None));
    s.slos.push(Slo::FillBand {
        queue: "server-backlog".into(),
        min: 0.0,
        max: 0.9,
        warmup_s: 4.0,
    });
    s.slos.push(Slo::DeadlineMissRate { max: 0.05 });
    s.slos.push(Slo::NoStarvation { min_ppt: 5 });
    s.slos.push(Slo::MinThroughput { min_cpus: 0.5 });
    // Request latency through the full diurnal swing: the backlog rides
    // up at midday, so the bands sit above the measured p99 ≈ 514 ms /
    // p99.9 ≈ 524 ms with room for controller drift, not at them.
    s.slos.push(Slo::LatencyBand {
        source: "server".into(),
        percentile: 99.0,
        max_ms: 750.0,
    });
    s.slos.push(Slo::LatencyBand {
        source: "server".into(),
        percentile: 99.9,
        max_ms: 800.0,
    });
    s
}

/// `hog_storm`: a real-time reservation rides out a storm of injected
/// hogs — the paper's isolation claim, made machine-checkable.
pub(crate) fn hog_storm() -> ScenarioSpec {
    let mut s = ScenarioSpec::named(
        "hog_storm",
        "a 300 ‰ real-time spinner and two adaptive hogs on two CPUs survive \
         a six-hog storm phase: the reservation still delivers, fairness and \
         placement stay sane",
    );
    s.seed = 44;
    s.cpus = 2;
    s.members.push(Member::RealTimeSpin {
        name: "rt".into(),
        ppt: 300,
        period_ms: 10,
    });
    s.members.push(Member::Hog { name: "ha".into() });
    s.members.push(Member::Hog { name: "hb".into() });
    s.phases.push(phase("calm", 4.0, 1.0, 0, None));
    s.phases.push(phase("storm", 4.0, 1.0, 6, None));
    s.phases.push(phase("recovery", 4.0, 1.0, 0, None));
    s.slos.push(Slo::RtDelivery { min_ratio: 0.85 });
    s.slos.push(Slo::FairShare { min_ratio: 0.4 });
    s.slos.push(Slo::MigrationBudget { max: 300 });
    s.slos.push(Slo::NoStarvation { min_ppt: 5 });
    s
}

/// `mixed_rt_adaptive`: reserved isochronous work, adaptive multimedia
/// and background churn sharing a four-CPU machine.
pub(crate) fn mixed_rt_adaptive() -> ScenarioSpec {
    let mut s = ScenarioSpec::named(
        "mixed_rt_adaptive",
        "software modem (reserved) + video pipeline + hogs + Poisson churn \
         on four CPUs: reservations hold while the adaptive fleet fills the \
         rest of the machine",
    );
    s.seed = 55;
    s.cpus = 4;
    s.members.push(Member::Modem { reserved: true });
    s.members.push(Member::RealTimeSpin {
        name: "isoc".into(),
        ppt: 200,
        period_ms: 10,
    });
    s.members.push(Member::VideoPipeline {
        fps: 30.0,
        decode_mcycles: 4.0,
        render_mcycles: 0.4,
    });
    s.members.push(Member::Hog { name: "h0".into() });
    s.members.push(Member::Hog { name: "h1".into() });
    s.streams.push(ArrivalStream {
        name: "churn".into(),
        process: ArrivalProcess::Poisson { rate_hz: 2.0 },
        job: TransientJob::Worker {
            mcycles: 20.0,
            lifetime_s: 1.0,
        },
    });
    s.phases.push(phase("mixed", 12.0, 1.0, 0, None));
    s.slos.push(Slo::DeadlineMissRate { max: 0.03 });
    s.slos.push(Slo::RtDelivery { min_ratio: 0.85 });
    s.slos.push(Slo::MinThroughput { min_cpus: 2.0 });
    s.slos.push(Slo::FillBand {
        queue: "capture".into(),
        min: 0.01,
        max: 0.99,
        warmup_s: 3.0,
    });
    s
}

/// `modem_burst`: the §1 software modem keeps every deadline while
/// bursty best-effort load comes and goes around it.
pub(crate) fn modem_burst() -> ScenarioSpec {
    let mut s = ScenarioSpec::named(
        "modem_burst",
        "reserved software modem on one CPU against an on/off burst train \
         of transient hogs: isochronous deadlines hold through every burst",
    );
    s.seed = 66;
    s.cpus = 1;
    s.members.push(Member::Modem { reserved: true });
    s.members.push(Member::Hog {
        name: "background".into(),
    });
    s.streams.push(ArrivalStream {
        name: "bursts".into(),
        process: ArrivalProcess::OnOff {
            on_s: 1.5,
            off_s: 1.5,
            rate_hz: 3.0,
        },
        job: TransientJob::Hog { lifetime_s: 1.0 },
    });
    s.phases.push(phase("bursty", 12.0, 1.0, 0, None));
    s.slos.push(Slo::DeadlineMissRate { max: 0.02 });
    s.slos.push(Slo::NoStarvation { min_ppt: 2 });
    s.slos.push(Slo::MinThroughput { min_cpus: 0.7 });
    s
}

/// `pipeline_cascade`: two queue-coupled cascades (pulse pipeline and
/// disk reader) plus a typist — three progress signals regulated at once.
pub(crate) fn pipeline_cascade() -> ScenarioSpec {
    let mut s = ScenarioSpec::named(
        "pipeline_cascade",
        "figure-6 pulse pipeline + disk/reader cascade + typist on two CPUs: \
         every bounded queue stays off its stops",
    );
    s.seed = 77;
    s.cpus = 2;
    s.members.push(Member::PulsePipeline {
        steady_bytes_per_cycle: Some(2.5e-5),
    });
    s.members.push(Member::DiskIo {
        bandwidth_bytes_per_s: 2.0e6,
        cycles_per_byte: 100.0,
    });
    s.members.push(Member::Interactive {
        name: "typist".into(),
        keystrokes_hz: 5.0,
        mcycles_per_keystroke: 2.0,
    });
    s.phases.push(phase("cascade", 12.0, 1.0, 0, None));
    s.slos.push(Slo::FillBand {
        queue: "pipeline".into(),
        min: 0.02,
        max: 0.98,
        warmup_s: 3.0,
    });
    s.slos.push(Slo::FillBand {
        queue: "disk-buffer".into(),
        min: 0.0,
        max: 0.98,
        warmup_s: 3.0,
    });
    s.slos.push(Slo::NoStarvation { min_ppt: 5 });
    s.slos.push(Slo::MinThroughput { min_cpus: 0.5 });
    s
}

/// `churn_saturated`: a saturated small machine that scales out mid-run —
/// the hot-add hook under a heavy churning population.
pub(crate) fn churn_saturated() -> ScenarioSpec {
    let mut s = ScenarioSpec::named(
        "churn_saturated",
        "three hogs plus 6 Hz transient-hog churn saturate two CPUs; the \
         machine hot-adds two more mid-run and throughput follows",
    );
    s.seed = 88;
    s.cpus = 2;
    for i in 0..3 {
        s.members.push(Member::Hog {
            name: format!("base{i}"),
        });
    }
    s.streams.push(ArrivalStream {
        name: "churn".into(),
        process: ArrivalProcess::Poisson { rate_hz: 6.0 },
        job: TransientJob::Hog { lifetime_s: 1.0 },
    });
    s.phases.push(phase("cramped", 6.0, 1.0, 0, None));
    s.phases.push(phase("scale-out", 6.0, 1.0, 0, Some(4)));
    s.slos.push(Slo::NoStarvation { min_ppt: 5 });
    s.slos.push(Slo::FairShare { min_ratio: 0.3 });
    s.slos.push(Slo::MinThroughput { min_cpus: 1.6 });
    s.slos.push(Slo::MigrationBudget { max: 400 });
    s
}

/// The full built-in corpus, in a stable order.
pub fn corpus() -> Vec<ScenarioSpec> {
    vec![
        steady_video(),
        flash_crowd_8cpu(),
        diurnal_server(),
        hog_storm(),
        mixed_rt_adaptive(),
        modem_burst(),
        pipeline_cascade(),
        churn_saturated(),
    ]
}

/// The smoke subset CI runs on every push: the cheapest scenarios that
/// still cover a reservation, a queue-coupled pipeline, an arrival
/// process and a CPU hot-add.
pub fn smoke_corpus() -> Vec<ScenarioSpec> {
    vec![
        steady_video(),
        hog_storm(),
        modem_burst(),
        churn_saturated(),
    ]
}

/// `wall_steady_mix`: a real-time spinner holding its reservation
/// against two hogs — on **real OS threads**.  Three real seconds; the
/// SLOs are tolerance bands (wall-clock runs carry OS timing noise), not
/// the simulator's exact expectations.
pub(crate) fn wall_steady_mix() -> ScenarioSpec {
    let mut s = ScenarioSpec::named(
        "wall_steady_mix",
        "reserved spinner plus two hogs on the wall-clock backend; the \
         reservation is delivered within tolerance and nobody starves",
    );
    s.backend = Backend::WallClock;
    s.seed = 21;
    s.cpus = 1;
    s.members.push(Member::RealTimeSpin {
        name: "rt".into(),
        ppt: 200,
        period_ms: 20,
    });
    s.members.push(Member::Hog { name: "h0".into() });
    s.members.push(Member::Hog { name: "h1".into() });
    s.phases.push(phase("steady", 3.0, 1.0, 0, None));
    // Tolerance bands: the spinner must see a meaningful fraction of its
    // reservation, the hogs must not starve, and the executor must
    // deliver real work — but none of the simulator's exact numbers.
    s.slos.push(Slo::RtDelivery { min_ratio: 0.3 });
    s.slos.push(Slo::DeadlineMissRate { max: 0.5 });
    s.slos.push(Slo::NoStarvation { min_ppt: 1 });
    s.slos.push(Slo::MinThroughput { min_cpus: 0.15 });
    s
}

/// `wall_pipeline_churn`: the Figure 6 pulse pipeline plus Poisson
/// worker churn and a mid-run hog storm, sharded over two logical CPUs —
/// on **real OS threads**.
pub(crate) fn wall_pipeline_churn() -> ScenarioSpec {
    let mut s = ScenarioSpec::named(
        "wall_pipeline_churn",
        "steady pulse pipeline under transient churn and a hog injection on \
         the two-CPU wall-clock backend; the queue stays regulated within \
         a wide band",
    );
    s.backend = Backend::WallClock;
    s.seed = 22;
    s.cpus = 2;
    s.members.push(Member::PulsePipeline {
        steady_bytes_per_cycle: Some(2.5e-5),
    });
    s.members.push(Member::Hog { name: "bg".into() });
    s.streams.push(ArrivalStream {
        name: "churn".into(),
        process: ArrivalProcess::Poisson { rate_hz: 2.0 },
        job: TransientJob::Worker {
            mcycles: 5.0,
            lifetime_s: 0.5,
        },
    });
    s.phases.push(phase("warm", 1.5, 1.0, 0, None));
    s.phases.push(phase("surge", 1.5, 2.0, 1, None));
    s.slos.push(Slo::FillBand {
        queue: "pipeline".into(),
        min: 0.02,
        max: 0.98,
        warmup_s: 1.0,
    });
    s.slos.push(Slo::NoStarvation { min_ppt: 1 });
    s.slos.push(Slo::MinThroughput { min_cpus: 0.15 });
    s.slos.push(Slo::MigrationBudget { max: 200 });
    s
}

/// The wall-clock smoke subset: short tolerance-band scenarios CI runs
/// on real OS threads, proving the corpus machinery is backend-agnostic
/// (`scenario_runner --smoke --backend wall_clock`).  Kept separate from
/// [`smoke_corpus`] because wall-clock scenarios spend *real* seconds.
pub fn wall_clock_smoke_corpus() -> Vec<ScenarioSpec> {
    vec![wall_steady_mix(), wall_pipeline_churn()]
}

/// Looks a corpus scenario up by name (wall-clock smoke scenarios
/// included).
pub fn scenario_by_name(name: &str) -> Option<ScenarioSpec> {
    corpus()
        .into_iter()
        .chain(wall_clock_smoke_corpus())
        .find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_scenario;
    use proptest::prelude::*;

    #[test]
    fn wall_clock_smoke_corpus_is_valid_and_distinctly_named() {
        let wall = wall_clock_smoke_corpus();
        assert!(wall.len() >= 2);
        let sim_names: Vec<String> = corpus().iter().map(|s| s.name.clone()).collect();
        for s in &wall {
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert_eq!(s.backend, Backend::WallClock);
            assert!(!s.slos.is_empty(), "{} declares no SLOs", s.name);
            assert!(
                !sim_names.contains(&s.name),
                "wall scenario {} shadows a sim scenario",
                s.name
            );
            assert!(
                scenario_by_name(&s.name).is_some(),
                "{} must be addressable by name",
                s.name
            );
        }
    }

    #[test]
    fn corpus_is_at_least_eight_valid_uniquely_named_scenarios() {
        let all = corpus();
        assert!(all.len() >= 8);
        let mut names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "names must be unique");
        for s in &all {
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert!(!s.slos.is_empty(), "{} declares no SLOs", s.name);
            assert!(s.horizon_s() > 0.0);
        }
        for s in smoke_corpus() {
            assert!(
                scenario_by_name(&s.name).is_some(),
                "smoke scenario {} must be in the corpus",
                s.name
            );
        }
        assert!(scenario_by_name("steady_video").is_some());
        assert!(scenario_by_name("nonexistent").is_none());
    }

    #[test]
    fn a_shortened_corpus_scenario_runs_deterministically() {
        // The full corpus runs in release via `scenario_runner`; here a
        // shortened copy proves the plumbing end to end in debug time.
        let mut s = churn_saturated();
        s.phases[0].duration_s = 1.0;
        s.phases[1].duration_s = 1.0;
        s.slos.clear();
        let a = run_scenario(&s).unwrap();
        let b = run_scenario(&s).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.cpus, 4, "the hot-add still happens");
        assert!(a.jobs.spawned > 0);
    }

    proptest! {
        #[test]
        fn random_scenarios_never_panic_and_conserve_capacity(
            seed in 0u64..1_000_000,
            cpus in 1usize..=3,
            rate10 in 0u32..=60,
            lifetime_ms in (50u64..=1200),
            load10 in 0u32..=20,
            inject in 0u32..=4,
            grow in proptest::bool::ANY,
            two_phases in proptest::bool::ANY,
            job_kind in 0u32..=2,
            process_kind in 0u32..=3,
        ) {
            let rate_hz = rate10 as f64 / 10.0;
            let lifetime_s = lifetime_ms as f64 / 1000.0;
            let process = match process_kind {
                0 => ArrivalProcess::Poisson { rate_hz },
                1 => ArrivalProcess::OnOff { on_s: 0.3, off_s: 0.2, rate_hz },
                2 => ArrivalProcess::Diurnal {
                    base_hz: rate_hz * 0.2,
                    peak_hz: rate_hz,
                    day_s: 0.8,
                },
                _ => ArrivalProcess::FlashCrowd {
                    base_hz: rate_hz * 0.1,
                    at_s: 0.3,
                    duration_s: 0.2,
                    spike_hz: rate_hz * 3.0,
                },
            };
            let job = match job_kind {
                0 => TransientJob::Hog { lifetime_s },
                1 => TransientJob::Worker { mcycles: 5.0, lifetime_s },
                _ => TransientJob::Interactive {
                    keystrokes_hz: 10.0,
                    mcycles_per_keystroke: 0.5,
                    lifetime_s,
                },
            };
            let mut s = ScenarioSpec::named("fuzz", "random scenario");
            s.seed = seed;
            s.cpus = cpus;
            s.members.push(Member::Hog { name: "anchor".into() });
            if rate_hz > 0.0 {
                s.streams.push(ArrivalStream { name: "fz".into(), process, job });
            }
            s.phases.push(Phase {
                name: "p0".into(),
                duration_s: 0.4,
                load: load10 as f64 / 10.0,
                inject_hogs: inject,
                cpus: None,
            });
            if two_phases {
                s.phases.push(Phase {
                    name: "p1".into(),
                    duration_s: 0.4,
                    load: 1.0,
                    inject_hogs: 0,
                    cpus: if grow { Some(cpus + 1) } else { None },
                });
            }
            let report = run_scenario(&s).expect("fuzzed specs validate by construction");

            // No panic is half the property; the other half is physics:
            // work delivered cannot exceed machine capacity (plus the
            // budget-only migration penalties), idle cannot either, and
            // the transient population must balance.
            let used: u64 = report.stats.per_cpu.iter().map(|c| c.used_us).sum();
            let slack =
                report.stats.migrations * rrs_sim::SimConfig::default().migration_cost_us;
            prop_assert!(
                used as f64 <= report.capacity_us * 1.001 + slack as f64,
                "used {} vs capacity {}", used, report.capacity_us
            );
            let idle: u64 = report.stats.per_cpu.iter().map(|c| c.idle_us).sum();
            prop_assert!(
                idle as f64 <= report.capacity_us * 1.001,
                "idle {} vs capacity {}", idle, report.capacity_us
            );
            prop_assert!(report.jobs.departed <= report.jobs.spawned);
            prop_assert!(report.elapsed_s >= s.horizon_s() - 1e-9);
            prop_assert_eq!(report.jobs.installed, 1);
        }
    }
}
