//! Turns a [`ScenarioSpec`] into a machine-backed host run and a
//! pass/fail [`ScenarioReport`].
//!
//! The runner installs the static members, pre-computes every event of
//! the schedule — phase starts (load steps, hog storms, CPU hot-adds),
//! seeded transient arrivals and their departures — and then drives the
//! host from event to event.  At the end it assembles the
//! `Observations` the SLOs are evaluated against and, optionally,
//! writes the report to `results/scenario_<name>.json`.
//!
//! The run is backend-agnostic: the spec's `backend` field picks the
//! deterministic simulator (the default — same spec, same seed, same
//! report, bit for bit) or the wall-clock executor (real OS threads; the
//! schedule's times are real seconds, and reports vary within scheduling
//! tolerance).  Everything in between — members, arrivals, phases, SLO
//! evaluation — is one code path over [`rrs_api::Host`].

use crate::arrivals::ArrivalRng;
use crate::slo::{Observations, SloOutcome};
use crate::spec::{Member, ScenarioSpec, SpecError, TransientJob};
use rrs_api::{Host, Runtime, SimStats, SimTime};
use rrs_core::{JobHandle, JobSpec};
use rrs_scheduler::{Period, Proportion};
use rrs_sim::WorkModel;
use rrs_telemetry::TelemetrySnapshot;
use rrs_workloads::{
    CpuHog, DiskReader, DummyProcess, FiniteWork, InteractiveJob, LatencyStats, LatencySummary,
    ModemConfig, PipelineConfig, PulsePipeline, ServerConfig, SoftwareModem, VideoPipeline,
    VideoPipelineConfig, WebServer,
};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::Arc;

/// Job-population counters of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct JobCounts {
    /// Jobs installed by static members at `t = 0`.
    pub installed: u64,
    /// Transient jobs spawned by arrival streams and hog storms.
    pub spawned: u64,
    /// Transient jobs removed at the end of their lifetime.
    pub departed: u64,
    /// Spawn attempts rejected by admission control.
    pub rejected: u64,
}

/// One phase's slice of the host's telemetry counters: the difference
/// between the [`rrs_api::Host::telemetry`] snapshots taken at the
/// phase's two boundaries, so a hog-storm phase's migrations and settles
/// are attributed to that phase rather than smeared over the run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTelemetry {
    /// The phase's name, as declared in the spec.
    pub name: String,
    /// Counters accumulated during this phase only (derived rates
    /// recomputed over the phase window).
    pub telemetry: TelemetrySnapshot,
}

/// The machine-checkable result of one scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Scenario name (also the report file name).
    pub scenario: String,
    /// The spec's description.
    pub description: String,
    /// The backend the run executed on.
    #[serde(default)]
    pub backend: rrs_api::Backend,
    /// The seed the run used.
    pub seed: u64,
    /// Elapsed host seconds (at least the spec's horizon).
    pub elapsed_s: f64,
    /// Final CPU count (after any hot-adds).
    pub cpus: usize,
    /// Machine shards the run executed on (1 = the unsharded machine;
    /// reports predating sharding deserialise as 0 — the vendored serde
    /// supports only the bare `default` — and read as unsharded too).
    #[serde(default)]
    pub shards: usize,
    /// Machine capacity delivered over the run, in CPU-microseconds.
    pub capacity_us: f64,
    /// Job-population counters.
    pub jobs: JobCounts,
    /// The host's aggregate statistics, per-CPU breakdown included.
    pub stats: SimStats,
    /// Per-phase telemetry counter slices (migrations, settles, cache
    /// hit rate, …), one entry per phase in schedule order.
    #[serde(default)]
    pub phase_telemetry: Vec<PhaseTelemetry>,
    /// Latency percentile summaries of instrumented members (the web
    /// server, interactive members), in install order.
    #[serde(default)]
    pub latencies: Vec<LatencySummary>,
    /// Every SLO's outcome, in spec order.
    pub slos: Vec<SloOutcome>,
    /// Whether every SLO passed.
    pub passed: bool,
}

/// What a member contributed to the observation groups.
#[derive(Default)]
struct Installed {
    /// Persistent jobs whose allocation the controller adapts and that
    /// keep wanting CPU (hogs and queue-coupled real-rate stages).
    adaptive: Vec<JobHandle>,
    /// The fairness group: identical persistent hogs.
    hogs: Vec<JobHandle>,
    /// Real-time spinners with their reserved parts per thousand.
    rt_spin: Vec<(JobHandle, u32)>,
    /// Application-level statistics of installed modems.
    modems: Vec<Arc<rrs_workloads::ModemStats>>,
    /// Per-request latency histograms of instrumented members, keyed by
    /// the source name the `LatencyBand` SLO addresses them with.
    latencies: Vec<(String, Arc<LatencyStats>)>,
    /// Every handle installed (for the `installed` count).
    count: u64,
}

fn install_member(host: &mut dyn Host, member: &Member, out: &mut Installed) {
    match member {
        Member::Hog { name } => {
            let h = host
                .add_job(name, JobSpec::miscellaneous(), Box::new(CpuHog::new()))
                .expect("miscellaneous jobs are always admitted");
            out.adaptive.push(h);
            out.hogs.push(h);
            out.count += 1;
        }
        Member::Dummy { name } => {
            host.add_job(
                name,
                JobSpec::miscellaneous(),
                Box::new(DummyProcess::new()),
            )
            .expect("miscellaneous jobs are always admitted");
            out.count += 1;
        }
        Member::RealTimeSpin {
            name,
            ppt,
            period_ms,
        } => {
            match host.add_job(
                name,
                JobSpec::real_time(Proportion::from_ppt(*ppt), Period::from_millis(*period_ms)),
                Box::new(CpuHog::new()),
            ) {
                Ok(h) => {
                    out.rt_spin.push((h, *ppt));
                    out.count += 1;
                }
                Err(_) => {
                    // Rejected by admission control: the spec oversubscribed
                    // its machine; the RtDelivery SLO will surface it.
                }
            }
        }
        Member::Interactive {
            name,
            keystrokes_hz,
            mcycles_per_keystroke,
        } => {
            let stats = LatencyStats::new();
            host.add_job(
                name,
                JobSpec::miscellaneous(),
                Box::new(
                    InteractiveJob::new(*keystrokes_hz, mcycles_per_keystroke * 1e6)
                        .with_latency_stats(Arc::clone(&stats)),
                ),
            )
            .expect("miscellaneous jobs are always admitted");
            out.latencies.push((name.clone(), stats));
            out.count += 1;
        }
        Member::VideoPipeline {
            fps,
            decode_mcycles,
            render_mcycles,
        } => {
            let handles = VideoPipeline::install(
                host,
                VideoPipelineConfig {
                    fps: *fps,
                    decode_cycles_per_frame: decode_mcycles * 1e6,
                    render_cycles_per_frame: render_mcycles * 1e6,
                    ..VideoPipelineConfig::default()
                },
            );
            out.adaptive.push(handles.decoder);
            out.adaptive.push(handles.renderer);
            out.count += 3;
        }
        Member::WebServer {
            rate_hz,
            mcycles_per_request,
            backlog,
        } => {
            let (_, server, stats) = WebServer::install_instrumented(
                host,
                ServerConfig {
                    queue_capacity: *backlog,
                    arrival_rate_hz: *rate_hz,
                    cycles_per_request: mcycles_per_request * 1e6,
                },
            );
            out.adaptive.push(server);
            out.latencies.push(("server".to_string(), stats));
            out.count += 2;
        }
        Member::PulsePipeline {
            steady_bytes_per_cycle,
        } => {
            let config = match steady_bytes_per_cycle {
                Some(rate) => PipelineConfig::steady(*rate),
                None => PipelineConfig::default(),
            };
            let handles = PulsePipeline::install(host, config);
            out.adaptive.push(handles.consumer);
            out.count += 2;
        }
        Member::Modem { reserved } => {
            let (_, stats) = if *reserved {
                SoftwareModem::install_with_reservation(host, ModemConfig::default())
            } else {
                SoftwareModem::install_best_effort(host, ModemConfig::default())
            };
            out.modems.push(stats);
            out.count += 1;
        }
        Member::DiskIo {
            bandwidth_bytes_per_s,
            cycles_per_byte,
        } => {
            let (_, reader) =
                DiskReader::install(host, *bandwidth_bytes_per_s, 4096, *cycles_per_byte, 16);
            out.adaptive.push(reader);
            out.count += 2;
        }
    }
}

/// A scheduled spawn or removal of one transient job.
#[derive(Debug, Clone)]
struct TransientDesc {
    name: String,
    job: TransientJob,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// Apply phase `i`'s machine changes (CPU hot-add).
    PhaseStart(usize),
    /// Remove transient `i` (ordered before spawns at the same instant so
    /// departing jobs free capacity first).
    Depart(usize),
    /// Spawn transient `i`.
    Spawn(usize),
}

#[derive(Debug, Clone, Copy)]
struct Event {
    at_us: u64,
    kind: EventKind,
}

fn spawn_model(job: &TransientJob) -> Box<dyn WorkModel> {
    match *job {
        TransientJob::Hog { .. } => Box::new(CpuHog::new()),
        TransientJob::Worker { mcycles, .. } => Box::new(FiniteWork::new(mcycles * 1e6)),
        TransientJob::Interactive {
            keystrokes_hz,
            mcycles_per_keystroke,
            ..
        } => Box::new(InteractiveJob::new(
            keystrokes_hz,
            mcycles_per_keystroke * 1e6,
        )),
    }
}

/// Runs a scenario end to end on the backend its spec names and
/// evaluates its SLOs.
///
/// On the simulator backend the run is fully determined by the spec
/// (including its seed): the same spec always yields the same report.
/// On the wall-clock backend the schedule is identical but measured
/// quantities carry OS timing noise.
pub fn run_scenario(spec: &ScenarioSpec) -> Result<ScenarioReport, SpecError> {
    spec.validate()?;
    let mut host = Runtime::backend(spec.backend)
        .cpus(spec.cpus)
        .shards(spec.shards.max(1))
        .build();
    run_scenario_on(host.as_mut(), spec)
}

/// Runs a scenario on a caller-provided [`Host`] — the backend-agnostic
/// core of [`run_scenario`].
///
/// The host should be freshly built with the spec's CPU count; jobs the
/// caller installed beforehand simply compete with the scenario.
pub(crate) fn run_scenario_on(
    host: &mut dyn Host,
    spec: &ScenarioSpec,
) -> Result<ScenarioReport, SpecError> {
    spec.validate()?;
    let horizon_us = (spec.horizon_s() * 1e6).round() as u64;
    let windows = spec.phase_windows();

    // Pre-compute the whole schedule: phase starts, seeded arrivals and
    // their departures, and each phase's hog storm.
    let mut transients: Vec<TransientDesc> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    for (i, &(start_s, _)) in windows.iter().enumerate() {
        events.push(Event {
            at_us: (start_s * 1e6).round() as u64,
            kind: EventKind::PhaseStart(i),
        });
    }
    let mut rng = ArrivalRng::new(spec.seed);
    for (si, stream) in spec.streams.iter().enumerate() {
        let mut seq = 0u64;
        for (pi, &(start_s, end_s)) in windows.iter().enumerate() {
            let load = spec.phases[pi].load;
            for t_s in stream.process.sample(&mut rng, start_s, end_s, load) {
                let at_us = (t_s * 1e6).round() as u64;
                let idx = transients.len();
                transients.push(TransientDesc {
                    name: format!("{}-{}-{seq}", stream.name, si),
                    job: stream.job,
                });
                seq += 1;
                events.push(Event {
                    at_us,
                    kind: EventKind::Spawn(idx),
                });
                let depart_us = at_us + (stream.job.lifetime_s() * 1e6).round() as u64;
                if depart_us < horizon_us {
                    events.push(Event {
                        at_us: depart_us,
                        kind: EventKind::Depart(idx),
                    });
                }
            }
        }
    }
    for (pi, phase) in spec.phases.iter().enumerate() {
        let (start_s, end_s) = windows[pi];
        for k in 0..phase.inject_hogs {
            let idx = transients.len();
            transients.push(TransientDesc {
                name: format!("storm-{}-{k}", phase.name),
                job: TransientJob::Hog {
                    lifetime_s: phase.duration_s,
                },
            });
            events.push(Event {
                at_us: (start_s * 1e6).round() as u64,
                kind: EventKind::Spawn(idx),
            });
            let depart_us = (end_s * 1e6).round() as u64;
            if depart_us < horizon_us {
                events.push(Event {
                    at_us: depart_us,
                    kind: EventKind::Depart(idx),
                });
            }
        }
    }
    let priority = |k: EventKind| match k {
        EventKind::PhaseStart(_) => 0u8,
        EventKind::Depart(_) => 1,
        EventKind::Spawn(_) => 2,
    };
    events.sort_by_key(|e| (e.at_us, priority(e.kind)));

    // Install the static population and drive the schedule.  Event times
    // are relative to the host's clock at entry, so a pre-warmed host
    // (wall-clock hosts spend real time being built) still runs the whole
    // schedule.
    let epoch_us = host.now().as_micros();
    let mut installed = Installed::default();
    for member in &spec.members {
        install_member(host, member, &mut installed);
    }
    let mut counts = JobCounts {
        installed: installed.count,
        ..JobCounts::default()
    };
    let mut live: Vec<Option<JobHandle>> = vec![None; transients.len()];
    let mut capacity_us = 0.0;
    let advance = |host: &mut dyn Host, to_us: u64, capacity_us: &mut f64| {
        let now_us = host.now().as_micros();
        if to_us > now_us {
            host.advance(SimTime::from_micros(to_us - now_us));
            *capacity_us += (host.now().as_micros() - now_us) as f64 * host.cpu_count() as f64;
        }
    };
    // Each phase's telemetry slice is the counter delta between its two
    // boundary snapshots (the runner never installs a trace recorder, so
    // the snapshots hold only the deterministic always-on counters).
    let mut phase_telemetry: Vec<PhaseTelemetry> = Vec::with_capacity(spec.phases.len());
    let mut phase_base = host.telemetry();
    for event in &events {
        advance(
            host,
            epoch_us + event.at_us.min(horizon_us),
            &mut capacity_us,
        );
        match event.kind {
            EventKind::PhaseStart(i) => {
                let snap = host.telemetry();
                if i > 0 {
                    phase_telemetry.push(PhaseTelemetry {
                        name: spec.phases[i - 1].name.clone(),
                        telemetry: snap.delta_since(&phase_base),
                    });
                }
                phase_base = snap;
                if let Some(n) = spec.phases[i].cpus {
                    host.grow_cpus(n);
                }
            }
            EventKind::Spawn(i) => {
                let desc = &transients[i];
                match host.add_job(&desc.name, JobSpec::miscellaneous(), spawn_model(&desc.job)) {
                    Ok(h) => {
                        live[i] = Some(h);
                        counts.spawned += 1;
                    }
                    Err(_) => counts.rejected += 1,
                }
            }
            EventKind::Depart(i) => {
                if let Some(h) = live[i].take() {
                    host.remove_job(h);
                    counts.departed += 1;
                }
            }
        }
    }
    advance(host, epoch_us + horizon_us, &mut capacity_us);
    if let Some(last) = spec.phases.last() {
        phase_telemetry.push(PhaseTelemetry {
            name: last.name.clone(),
            telemetry: host.telemetry().delta_since(&phase_base),
        });
    }

    // Assemble the observations and evaluate every SLO.
    let stats = host.stats();
    let elapsed_s = (host.now().as_micros() - epoch_us) as f64 / 1e6;
    // Real-time deadlines: spinner periods denied their budget (from the
    // dispatcher's per-thread accounts) plus the modems' own late-batch
    // counters.  Voluntary under-use by queue generators is not a miss.
    let mut rt_deadline_misses = 0u64;
    let mut rt_periods = 0u64;
    for &(h, _) in &installed.rt_spin {
        if let Some(acct) = host.usage(h) {
            rt_deadline_misses += acct.deadlines_missed;
            rt_periods += acct.periods_completed;
        }
    }
    for modem in &installed.modems {
        rt_deadline_misses += modem.deadlines_missed();
        rt_periods += modem.batches_completed();
    }
    let total_used_us = stats.total_used_us();
    let fair_used_us: Vec<u64> = installed
        .hogs
        .iter()
        .map(|h| host.cpu_used(*h).as_micros())
        .collect();
    let min_adaptive_alloc_ppt = installed
        .adaptive
        .iter()
        .map(|h| host.allocation_ppt(*h))
        .min();
    let rt_delivery_min = installed
        .rt_spin
        .iter()
        .map(|&(h, ppt)| {
            let delivered = host.cpu_used(h).as_micros() as f64 / (elapsed_s * 1e6);
            delivered / (ppt as f64 / 1000.0)
        })
        .min_by(|a, b| a.total_cmp(b));
    let obs = Observations {
        trace: host.trace(),
        elapsed_s,
        capacity_us,
        total_used_us,
        idle_us: stats.idle_us(),
        migrations: stats.migrations,
        deadlines_missed: rt_deadline_misses,
        period_rollovers: rt_periods,
        fair_used_us: &fair_used_us,
        min_adaptive_alloc_ppt,
        rt_delivery_min,
        latencies: &installed.latencies,
    };
    let slos: Vec<SloOutcome> = spec.slos.iter().map(|s| s.evaluate(&obs)).collect();
    let passed = slos.iter().all(|o| o.passed);
    let latencies = installed
        .latencies
        .iter()
        .map(|(name, stats)| stats.summary(name))
        .collect();
    Ok(ScenarioReport {
        scenario: spec.name.clone(),
        description: spec.description.clone(),
        backend: host.backend(),
        seed: spec.seed,
        elapsed_s,
        cpus: host.cpu_count(),
        shards: spec.shards.max(1),
        capacity_us,
        jobs: counts,
        stats,
        phase_telemetry,
        latencies,
        slos,
        passed,
    })
}

/// Writes a report as pretty JSON to `results/scenario_<name>.json`
/// (creating `results/` if needed).  Returns the path written, or `None`
/// if the filesystem refused.
pub fn write_report(report: &ScenarioReport) -> Option<PathBuf> {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return None;
    }
    let path = dir.join(format!("scenario_{}.json", report.scenario));
    let json = serde_json::to_string_pretty(report).expect("reports are always serialisable");
    std::fs::write(&path, json).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalProcess;
    use crate::spec::{ArrivalStream, Phase};
    use crate::Slo;

    fn hogs_and_churn() -> ScenarioSpec {
        let mut s = ScenarioSpec::named("unit_churn", "two hogs plus Poisson churn");
        s.cpus = 2;
        s.members.push(Member::Hog { name: "h0".into() });
        s.members.push(Member::Hog { name: "h1".into() });
        s.streams.push(ArrivalStream {
            name: "bg".into(),
            process: ArrivalProcess::Poisson { rate_hz: 4.0 },
            job: TransientJob::Worker {
                mcycles: 20.0,
                lifetime_s: 0.4,
            },
        });
        s.phases.push(Phase::steady("all", 2.0));
        s.slos.push(Slo::MinThroughput { min_cpus: 1.0 });
        s.slos.push(Slo::FairShare { min_ratio: 0.5 });
        s
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let spec = hogs_and_churn();
        let a = run_scenario(&spec).unwrap();
        let b = run_scenario(&spec).unwrap();
        assert_eq!(a, b, "same spec, same seed, same report");
        let mut other = spec.clone();
        other.seed = 99;
        let c = run_scenario(&other).unwrap();
        assert_ne!(
            a.jobs.spawned, 0,
            "the stream must actually spawn transients"
        );
        assert!(c.jobs.spawned != a.jobs.spawned || c.stats != a.stats);
    }

    #[test]
    fn transients_depart_and_capacity_is_conserved() {
        let spec = hogs_and_churn();
        let report = run_scenario(&spec).unwrap();
        assert!(report.jobs.departed > 0);
        assert!(report.jobs.departed <= report.jobs.spawned);
        assert_eq!(report.jobs.rejected, 0);
        // Conservation: consumed work cannot exceed delivered capacity
        // (plus the budget-only migration penalties).
        let used: u64 = report.stats.per_cpu.iter().map(|c| c.used_us).sum();
        let slack = report.stats.migrations * rrs_sim::SimConfig::default().migration_cost_us;
        assert!(
            used as f64 <= report.capacity_us + slack as f64,
            "used {used} exceeds capacity {}",
            report.capacity_us
        );
        let idle: u64 = report.stats.per_cpu.iter().map(|c| c.idle_us).sum();
        assert!(idle as f64 <= report.capacity_us * 1.001);
        assert!(report.passed, "SLOs hold: {:?}", report.slos);
    }

    #[test]
    fn reports_carry_phase_telemetry_and_latency_summaries() {
        let mut s = ScenarioSpec::named("unit_telemetry", "phase slices and latency percentiles");
        s.cpus = 1;
        s.members.push(Member::Hog { name: "h".into() });
        s.members.push(Member::Interactive {
            name: "typist".into(),
            keystrokes_hz: 5.0,
            mcycles_per_keystroke: 2.0,
        });
        s.phases.push(Phase::steady("warm", 1.5));
        s.phases.push(Phase::steady("more", 1.5));
        s.slos.push(Slo::LatencyBand {
            source: "typist".into(),
            percentile: 99.0,
            max_ms: 500.0,
        });
        let report = run_scenario(&s).unwrap();
        // One telemetry slice per phase, each covering real activity.
        assert_eq!(report.phase_telemetry.len(), 2);
        assert_eq!(report.phase_telemetry[0].name, "warm");
        assert_eq!(report.phase_telemetry[1].name, "more");
        for p in &report.phase_telemetry {
            assert!(
                p.telemetry.dispatches > 0,
                "phase {} saw no dispatches",
                p.name
            );
            assert!(p.telemetry.calendar_events_total() > 0);
        }
        // Phase slices are deltas, not cumulative repeats: equal-length
        // steady phases see the same order of activity, so the second
        // slice cannot contain the first one over again.
        let (d0, d1) = (
            report.phase_telemetry[0].telemetry.dispatches,
            report.phase_telemetry[1].telemetry.dispatches,
        );
        assert!(
            d1 < d0 * 2,
            "slice 2 ({d1}) looks cumulative over slice 1 ({d0})"
        );
        // The instrumented member produced a percentile summary and the
        // latency SLO evaluated against it.
        assert_eq!(report.latencies.len(), 1);
        let lat = &report.latencies[0];
        assert_eq!(lat.source, "typist");
        assert!(lat.count > 0);
        assert!(lat.p50_ms <= lat.p99_ms && lat.p99_ms <= lat.p999_ms);
        let outcome = report.slos.last().unwrap();
        assert!(outcome.measured > 0.0, "{}", outcome.description);
        assert!(outcome.passed, "{}", outcome.description);
        // The new fields survive the JSON round trip (and old reports
        // without them still parse thanks to the defaults).
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: ScenarioReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn phase_hot_add_grows_the_machine() {
        let mut s = ScenarioSpec::named("unit_grow", "hot-add mid-run");
        s.cpus = 1;
        s.members.push(Member::Hog { name: "a".into() });
        s.members.push(Member::Hog { name: "b".into() });
        s.phases.push(Phase::steady("cramped", 1.0));
        let mut grow = Phase::steady("roomy", 2.0);
        grow.cpus = Some(2);
        s.phases.push(grow);
        s.slos.push(Slo::MinThroughput { min_cpus: 1.0 });
        let report = run_scenario(&s).unwrap();
        assert_eq!(report.cpus, 2);
        assert!(report.capacity_us > 4.9e6, "1 s × 1 CPU + 2 s × 2 CPUs");
        assert!(report.passed, "{:?}", report.slos);
    }

    #[test]
    fn wall_clock_backend_runs_the_same_schedule() {
        use rrs_api::Backend;
        // A short real-time run: the declarative schedule (members,
        // arrivals, departures) drives the wall-clock executor through
        // the same code path as the simulator.
        let mut s = ScenarioSpec::named("unit_wall", "wall-clock smoke");
        s.backend = Backend::WallClock;
        s.cpus = 1;
        s.members.push(Member::Hog { name: "h0".into() });
        s.streams.push(ArrivalStream {
            name: "bg".into(),
            process: ArrivalProcess::Poisson { rate_hz: 10.0 },
            job: TransientJob::Worker {
                mcycles: 2.0,
                lifetime_s: 0.15,
            },
        });
        s.phases.push(Phase::steady("all", 0.4));
        s.slos.push(Slo::NoStarvation { min_ppt: 1 });
        let report = run_scenario(&s).unwrap();
        assert_eq!(report.backend, Backend::WallClock);
        assert!(
            report.elapsed_s >= 0.4,
            "ran for real: {}",
            report.elapsed_s
        );
        assert!(report.jobs.spawned > 0, "the stream spawned transients");
        assert!(report.jobs.departed > 0, "transients departed");
        assert!(report.stats.total_used_us() > 0, "work really consumed CPU");
        assert!(report.passed, "{:?}", report.slos);
    }

    #[test]
    fn wall_clock_horizons_are_bounded() {
        use rrs_api::Backend;
        let mut s = ScenarioSpec::named("unit_wall_long", "too long for wall clock");
        s.backend = Backend::WallClock;
        s.members.push(Member::Hog { name: "h".into() });
        s.phases.push(Phase::steady("forever", 3600.0));
        assert!(matches!(s.validate(), Err(SpecError::BadSchedule(_))));
    }

    #[test]
    fn invalid_specs_are_refused() {
        let s = ScenarioSpec::named("bad", "no phases");
        assert!(run_scenario(&s).is_err());
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut spec = hogs_and_churn();
        spec.phases[0].duration_s = 0.5;
        let report = run_scenario(&spec).unwrap();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: ScenarioReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
