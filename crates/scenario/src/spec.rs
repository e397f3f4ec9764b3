//! The declarative scenario specification.
//!
//! A [`ScenarioSpec`] declares *what runs* — a static [`Member`] mix over
//! the `rrs-workloads` generators plus [`ArrivalStream`]s spawning
//! [`TransientJob`]s — *when it runs* (a [`Phase`] schedule with load
//! multipliers, hog storms and CPU hot-adds) and *what must hold* (the
//! [`Slo`] list).  Specs are plain serde data: the whole
//! corpus can be serialised to JSON and back.

use crate::arrivals::ArrivalProcess;
use crate::slo::Slo;
use rrs_api::Backend;
use serde::{Deserialize, Serialize};

/// A statically installed scenario member (present from `t = 0` until the
/// end of the run).
///
/// Members wrap the workload generators reproducing the paper's
/// evaluation applications; queue-coupled generators (video, server,
/// pipeline, disk) install their full producer/consumer graphs and
/// register their queues with the progress-metric registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Member {
    /// A miscellaneous CPU hog (always-runnable; the fairness group).
    Hog {
        /// Job name (must be unique within the scenario).
        name: String,
    },
    /// A process that is scheduled and controlled but consumes no CPU.
    Dummy {
        /// Job name.
        name: String,
    },
    /// A real-time spinner holding a fixed reservation and consuming all
    /// of it — the delivery-probe used by the `RtDelivery` SLO.
    RealTimeSpin {
        /// Job name.
        name: String,
        /// Reserved proportion in parts per thousand.
        ppt: u32,
        /// Reservation period in milliseconds.
        period_ms: u64,
    },
    /// An interactive job (keystroke bursts separated by think time).
    Interactive {
        /// Job name.
        name: String,
        /// Typing rate in keystrokes per second.
        keystrokes_hz: f64,
        /// Work per keystroke, in megacycles.
        mcycles_per_keystroke: f64,
    },
    /// The three-stage video pipeline (source → decoder → renderer) with
    /// its `capture` and `render` queues.
    VideoPipeline {
        /// Source frame rate in frames per second.
        fps: f64,
        /// Decoder cost per frame, in megacycles.
        decode_mcycles: f64,
        /// Renderer cost per frame, in megacycles.
        render_mcycles: f64,
    },
    /// The web server (network request generator → `server-backlog`
    /// queue → server thread).
    WebServer {
        /// Offered load in requests per second.
        rate_hz: f64,
        /// Service cost per request, in megacycles.
        mcycles_per_request: f64,
        /// Backlog capacity in requests.
        backlog: usize,
    },
    /// The pulse-driven producer/consumer pipeline of Figures 6 and 7
    /// (queue `pipeline`).  `steady_bytes_per_cycle` pins a constant
    /// production rate; `None` uses the pulsing Figure 6 rate.
    PulsePipeline {
        /// Constant production rate, or `None` for the pulse train.
        steady_bytes_per_cycle: Option<f64>,
    },
    /// The isochronous software modem.
    Modem {
        /// `true` installs it with the reservation it needs (the paper's
        /// recommendation); `false` runs it best-effort.
        reserved: bool,
    },
    /// A simulated disk feeding an I/O-intensive reader (queue
    /// `disk-buffer`).
    DiskIo {
        /// Disk bandwidth in bytes per second.
        bandwidth_bytes_per_s: f64,
        /// Reader cost per byte, in cycles.
        cycles_per_byte: f64,
    },
}

/// The body of a transient job spawned by an [`ArrivalStream`].
///
/// Every transient has a bounded lifetime after which the runner removes
/// it, so arrival processes produce churn rather than monotone growth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TransientJob {
    /// A miscellaneous hog that spins for its whole lifetime.
    Hog {
        /// Seconds between spawn and removal.
        lifetime_s: f64,
    },
    /// A job with a fixed amount of work: it spins until `mcycles` are
    /// done, then blocks until its removal.
    Worker {
        /// Total work, in megacycles.
        mcycles: f64,
        /// Seconds between spawn and removal.
        lifetime_s: f64,
    },
    /// A short-lived interactive session.
    Interactive {
        /// Typing rate in keystrokes per second.
        keystrokes_hz: f64,
        /// Work per keystroke, in megacycles.
        mcycles_per_keystroke: f64,
        /// Seconds between spawn and removal.
        lifetime_s: f64,
    },
}

impl TransientJob {
    /// The declared lifetime in seconds.
    pub fn lifetime_s(&self) -> f64 {
        match *self {
            TransientJob::Hog { lifetime_s }
            | TransientJob::Worker { lifetime_s, .. }
            | TransientJob::Interactive { lifetime_s, .. } => lifetime_s,
        }
    }
}

/// A stream of transient-job arrivals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalStream {
    /// Stream name.  Spawned jobs are named `<name>-<stream index>-<seq>`
    /// so two streams sharing a name still spawn uniquely named jobs.
    pub name: String,
    /// When jobs arrive.
    pub process: ArrivalProcess,
    /// What each arrival spawns.
    pub job: TransientJob,
}

/// One step of the scenario's schedule.
///
/// Phases run back to back; their durations sum to the scenario horizon.
/// Each phase scales every arrival stream by `load`, may inject a hog
/// storm for its duration, and may hot-add CPUs (CPU counts must be
/// non-decreasing across phases — the machine layer has no hot-remove).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Phase name (for reports and injected-job names).
    pub name: String,
    /// Phase length in seconds.
    pub duration_s: f64,
    /// Multiplier applied to every arrival stream's rate in this phase.
    pub load: f64,
    /// CPU hogs injected at phase start and removed at phase end.
    pub inject_hogs: u32,
    /// CPU count from this phase on (`None` keeps the current count).
    pub cpus: Option<usize>,
}

impl Phase {
    /// A phase with unit load and no injections.
    pub fn steady(name: &str, duration_s: f64) -> Self {
        Self {
            name: name.to_string(),
            duration_s,
            load: 1.0,
            inject_hogs: 0,
            cpus: None,
        }
    }
}

/// A fully declarative scenario.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (also the report file name).
    pub name: String,
    /// One-line description of what the scenario exercises.
    pub description: String,
    /// The host backend the scenario runs on: the deterministic
    /// simulator (the default — time below is simulated seconds) or the
    /// wall-clock executor (time below is real seconds, and SLOs should
    /// carry tolerance bands rather than exact expectations).
    #[serde(default)]
    pub backend: Backend,
    /// Seed for every stochastic choice in the run.
    pub seed: u64,
    /// Initial CPU count.
    pub cpus: usize,
    /// Machine shards on the simulator backend (`0`/`1` = the plain
    /// unsharded machine; `> 1` builds the two-level sharded simulator).
    /// Ignored on the wall-clock backend.
    #[serde(default)]
    pub shards: usize,
    /// Statically installed members.
    pub members: Vec<Member>,
    /// Transient-job arrival streams.
    pub streams: Vec<ArrivalStream>,
    /// The phase schedule (must not be empty).
    pub phases: Vec<Phase>,
    /// Assertions checked after the run.
    pub slos: Vec<Slo>,
}

/// Why a spec failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The phase schedule is empty or a phase has a non-positive length.
    BadSchedule(String),
    /// The CPU counts are invalid (zero, shrinking, or absurd).
    BadCpus(String),
    /// An arrival stream is mis-declared (negative rate, non-positive
    /// lifetime) or would spawn an unreasonable population.
    BadStream(String),
    /// A member is mis-declared.
    BadMember(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::BadSchedule(m) => write!(f, "bad schedule: {m}"),
            SpecError::BadCpus(m) => write!(f, "bad cpus: {m}"),
            SpecError::BadStream(m) => write!(f, "bad stream: {m}"),
            SpecError::BadMember(m) => write!(f, "bad member: {m}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Upper bound on the expected transient population of one run.
pub(crate) const MAX_EXPECTED_ARRIVALS: f64 = 20_000.0;

/// Largest machine a scenario may ask for.
pub(crate) const MAX_SCENARIO_CPUS: usize = 64;

/// Longest run a wall-clock scenario may declare, in (real) seconds —
/// wall-clock runs spend actual time, so the corpus keeps them short.
pub(crate) const MAX_WALL_CLOCK_HORIZON_S: f64 = 30.0;

impl ScenarioSpec {
    /// An empty spec with a name, description, one CPU and seed 1.
    pub fn named(name: &str, description: &str) -> Self {
        Self {
            name: name.to_string(),
            description: description.to_string(),
            seed: 1,
            cpus: 1,
            ..Self::default()
        }
    }

    /// Total simulated length: the sum of the phase durations.
    pub(crate) fn horizon_s(&self) -> f64 {
        self.phases.iter().map(|p| p.duration_s).sum()
    }

    /// Absolute `[start_s, end_s)` windows of every phase.
    pub(crate) fn phase_windows(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(self.phases.len());
        let mut t = 0.0;
        for p in &self.phases {
            out.push((t, t + p.duration_s));
            t += p.duration_s;
        }
        out
    }

    /// Checks the spec is well-formed and bounded.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.phases.is_empty() {
            return Err(SpecError::BadSchedule("a scenario needs ≥ 1 phase".into()));
        }
        for p in &self.phases {
            if p.duration_s <= 0.0 || !p.duration_s.is_finite() {
                return Err(SpecError::BadSchedule(format!(
                    "phase '{}' has non-positive duration",
                    p.name
                )));
            }
            if p.load < 0.0 || !p.load.is_finite() {
                return Err(SpecError::BadSchedule(format!(
                    "phase '{}' has a bad load multiplier",
                    p.name
                )));
            }
            if p.inject_hogs > 256 {
                return Err(SpecError::BadSchedule(format!(
                    "phase '{}' injects an absurd hog storm",
                    p.name
                )));
            }
        }
        if self.cpus == 0 || self.cpus > MAX_SCENARIO_CPUS {
            return Err(SpecError::BadCpus(format!(
                "initial cpus {} outside 1..={MAX_SCENARIO_CPUS}",
                self.cpus
            )));
        }
        if self.shards > self.cpus {
            return Err(SpecError::BadCpus(format!(
                "shards {} exceed the initial {} cpus",
                self.shards, self.cpus
            )));
        }
        let mut cpus = self.cpus;
        for p in &self.phases {
            if let Some(n) = p.cpus {
                if n < cpus {
                    return Err(SpecError::BadCpus(format!(
                        "phase '{}' shrinks the machine ({n} < {cpus}); hot-remove is unsupported",
                        p.name
                    )));
                }
                if n > MAX_SCENARIO_CPUS {
                    return Err(SpecError::BadCpus(format!(
                        "phase '{}' asks for {n} CPUs (max {MAX_SCENARIO_CPUS})",
                        p.name
                    )));
                }
                cpus = n;
            }
        }
        let mut expected = 0.0;
        for s in &self.streams {
            let peak = s.process.peak_rate();
            if peak < 0.0 || !peak.is_finite() {
                return Err(SpecError::BadStream(format!(
                    "stream '{}' has a bad rate",
                    s.name
                )));
            }
            if s.job.lifetime_s() <= 0.0 || !s.job.lifetime_s().is_finite() {
                return Err(SpecError::BadStream(format!(
                    "stream '{}' spawns jobs with non-positive lifetime",
                    s.name
                )));
            }
            for p in &self.phases {
                expected += peak * p.load * p.duration_s;
            }
        }
        if expected > MAX_EXPECTED_ARRIVALS {
            return Err(SpecError::BadStream(format!(
                "expected transient population {expected:.0} exceeds {MAX_EXPECTED_ARRIVALS}"
            )));
        }
        if self.backend == Backend::WallClock && self.horizon_s() > MAX_WALL_CLOCK_HORIZON_S {
            return Err(SpecError::BadSchedule(format!(
                "wall-clock scenario '{}' declares {:.0} real seconds (max {MAX_WALL_CLOCK_HORIZON_S})",
                self.name,
                self.horizon_s()
            )));
        }
        for m in &self.members {
            if let Member::RealTimeSpin { name, ppt, .. } = m {
                if *ppt == 0 || *ppt > 1000 {
                    return Err(SpecError::BadMember(format!(
                        "real-time spin '{name}' reserves {ppt} ‰"
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> ScenarioSpec {
        let mut s = ScenarioSpec::named("t", "test");
        s.phases.push(Phase::steady("all", 1.0));
        s
    }

    #[test]
    fn horizon_and_windows_follow_the_phases() {
        let mut s = minimal();
        s.phases.push(Phase::steady("more", 2.5));
        assert_eq!(s.horizon_s(), 3.5);
        assert_eq!(s.phase_windows(), vec![(0.0, 1.0), (1.0, 3.5)]);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn empty_schedule_is_rejected() {
        let s = ScenarioSpec::named("t", "test");
        assert!(matches!(s.validate(), Err(SpecError::BadSchedule(_))));
    }

    #[test]
    fn shrinking_cpus_are_rejected() {
        let mut s = minimal();
        s.cpus = 4;
        let mut p = Phase::steady("shrink", 1.0);
        p.cpus = Some(2);
        s.phases.push(p);
        let err = s.validate().unwrap_err();
        assert!(matches!(err, SpecError::BadCpus(_)), "{err}");
        assert!(err.to_string().contains("hot-remove"));
    }

    #[test]
    fn unbounded_streams_are_rejected() {
        let mut s = minimal();
        s.streams.push(ArrivalStream {
            name: "storm".into(),
            process: ArrivalProcess::Poisson { rate_hz: 1e9 },
            job: TransientJob::Hog { lifetime_s: 1.0 },
        });
        assert!(matches!(s.validate(), Err(SpecError::BadStream(_))));
    }

    #[test]
    fn zero_lifetime_is_rejected() {
        let mut s = minimal();
        s.streams.push(ArrivalStream {
            name: "z".into(),
            process: ArrivalProcess::Poisson { rate_hz: 1.0 },
            job: TransientJob::Hog { lifetime_s: 0.0 },
        });
        assert!(matches!(s.validate(), Err(SpecError::BadStream(_))));
    }

    #[test]
    fn spec_round_trips_through_json() {
        let mut s = minimal();
        s.members.push(Member::Hog { name: "h".into() });
        s.members.push(Member::Modem { reserved: true });
        s.streams.push(ArrivalStream {
            name: "bg".into(),
            process: ArrivalProcess::FlashCrowd {
                base_hz: 1.0,
                at_s: 0.5,
                duration_s: 0.2,
                spike_hz: 10.0,
            },
            job: TransientJob::Worker {
                mcycles: 5.0,
                lifetime_s: 0.5,
            },
        });
        s.slos.push(Slo::MigrationBudget { max: 10 });
        let json = serde_json::to_string(&s).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
