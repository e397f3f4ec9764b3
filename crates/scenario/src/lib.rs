//! Declarative scenarios for the real-rate allocator.
//!
//! The paper's evaluation runs a handful of hand-written experiments; the
//! ROADMAP asks for "as many scenarios as you can imagine".  This crate
//! makes scenarios first-class: a [`ScenarioSpec`] *declares* a workload —
//! a static job mix over the `rrs-workloads` generators, seeded stochastic
//! [`ArrivalProcess`]es spawning transient jobs, and a phase schedule
//! (load steps, hog storms, CPU hot-adds) — plus the [`Slo`] assertions
//! the run must satisfy.  [`run_scenario`] turns the spec into a full
//! machine-backed run on the backend the spec names — the deterministic
//! simulator by default, or the wall-clock executor
//! ([`spec::ScenarioSpec::backend`]) — and a pass/fail
//! [`ScenarioReport`] that can be written to `results/` as JSON.
//!
//! The decomposition follows the entity/workload/schedule split of
//! network-simulator scenario engines: *what runs* ([`spec::Member`],
//! [`spec::TransientJob`]), *when it runs* ([`ArrivalProcess`],
//! [`spec::Phase`]) and *what must hold* ([`Slo`]) are declared
//! independently and composed by the [`runner`].
//!
//! ```
//! use rrs_scenario::{run_scenario, spec};
//!
//! let mut s = spec::ScenarioSpec::named("two_hogs", "two hogs share a CPU");
//! s.members.push(spec::Member::Hog { name: "a".into() });
//! s.members.push(spec::Member::Hog { name: "b".into() });
//! s.phases.push(spec::Phase::steady("all", 0.5));
//! s.slos.push(rrs_scenario::Slo::MinThroughput { min_cpus: 0.5 });
//! let report = run_scenario(&s).unwrap();
//! assert!(report.passed);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arrivals;
pub mod corpus;
pub mod runner;
pub mod slo;
pub mod spec;

pub use arrivals::{ArrivalProcess, ArrivalRng};
pub use corpus::{corpus, scenario_by_name, smoke_corpus, wall_clock_smoke_corpus};
pub use rrs_api::Backend;
pub use runner::{run_scenario, write_report, JobCounts, ScenarioReport};
pub use slo::{Slo, SloOutcome};
pub use spec::{ArrivalStream, Member, Phase, ScenarioSpec, SpecError, TransientJob};
