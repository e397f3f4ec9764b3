//! The four workloads and how one repetition of each is driven.
//!
//! Every workload is a closed batch: a fixed job set simulates a fixed
//! horizon after warm-up, cut into [`SLICES`] equal slices of simulated
//! time.  All four run single-threaded (`ShardConfig::parallel = false`):
//! on a two-core box a parallel reading would measure the host
//! scheduler, not the simulator.
//!
//! An untraced repetition drives the program only through
//! `Host::advance`; a traced one drives the concrete simulator one
//! `step()` (or one rebalance chunk) at a time with a span around each
//! call, and wraps every `add_job` / `remove_job` too.

use crate::gen::{self, ChurnStep, PipelineMember};
use crate::spans::{self, SpanLog};
use rrs_api::{Host, JobHandle, JobSpec, Runtime, ShardConfig, SimTime, TelemetryConfig};
use rrs_sim::{RunResult, SimStats, WorkModel};
use rrs_workloads::{VideoPipeline, WebServer};

/// Slices per horizon.
pub const SLICES: usize = 20;

/// Which of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SpinSaturated,
    SpinUncontended,
    PipelineBlocking,
    ShardedChurn,
}

/// Shape of one workload.  Sizes are constants, not options: the
/// benchmark is only comparable across commits while they stay put.
#[derive(Debug)]
pub struct Def {
    pub kind: Kind,
    pub name: &'static str,
    pub cpus: usize,
    pub shards: usize,
    /// Always-runnable spinners installed at set-up.
    pub spinners: usize,
    pub warmup_us: u64,
    pub horizon_us: u64,
    /// Whether the simulator's own sample trace stays at its default
    /// 0.1 s cadence (otherwise it is pushed out to 1000 s).
    pub sim_trace: bool,
    /// Wall seconds one untraced repetition took on the box the baseline
    /// was read on.  It turns `--seconds` into a repetition count.
    pub nominal_rep_s: f64,
}

/// Rebalance barrier cadence of `sharded_churn`, and its chunk length.
pub const REBALANCE_INTERVAL_US: u64 = 100_000;
/// Mean adds (and, separately, removes) per chunk: 10 + 10 per 0.1 s is
/// 1 % of the 10 000-job population joining and leaving per simulated
/// second.
const CHURN_PER_CHUNK: f64 = 10.0;
/// The churn schedule is drawn from this fixed stream: `--seed` does not
/// reach `sharded_churn`.  The sharded machine is chaotic in its inputs.
/// One add or remove knocks a shard's controller out of step with the
/// others, and the rebalancer answers the load gap that opens with
/// hundreds of migrations.  Ten schedules of the same rate gave 1 600 to
/// 19 900 migrations and a delivered share of 0.30 to 0.48 over the same
/// window: ten different workloads, which no bound can tell from a
/// regression.  The schedule is still Poisson and skewed; it is the
/// same one on every run.
const CHURN_STREAM: u64 = 11;
const VIDEOS: usize = 64;
const WEBS: usize = 32;

pub const WORKLOADS: [Def; 4] = [
    Def {
        kind: Kind::SpinSaturated,
        name: "spin_saturated",
        cpus: 8,
        shards: 1,
        spinners: 10_000,
        warmup_us: 500_000,
        horizon_us: 60_000_000,
        sim_trace: false,
        nominal_rep_s: 0.6,
    },
    Def {
        kind: Kind::SpinUncontended,
        name: "spin_uncontended",
        cpus: 64,
        shards: 1,
        spinners: 48,
        warmup_us: 500_000,
        horizon_us: 500_000_000,
        sim_trace: false,
        nominal_rep_s: 0.7,
    },
    Def {
        kind: Kind::PipelineBlocking,
        name: "pipeline_blocking",
        cpus: 32,
        shards: 1,
        spinners: 0,
        warmup_us: 3_000_000,
        horizon_us: 50_000_000,
        sim_trace: true,
        nominal_rep_s: 0.68,
    },
    Def {
        kind: Kind::ShardedChurn,
        name: "sharded_churn",
        cpus: 64,
        shards: 8,
        spinners: 10_000,
        warmup_us: 3_000_000,
        horizon_us: 6_000_000,
        sim_trace: false,
        nominal_rep_s: 1.45,
    },
];

pub fn by_name(name: &str) -> Option<&'static Def> {
    WORKLOADS.iter().find(|d| d.name == name)
}

impl Def {
    pub fn slice_us(&self) -> u64 {
        self.horizon_us / SLICES as u64
    }

    fn chunks_per_slice(&self) -> usize {
        (self.slice_us() / REBALANCE_INTERVAL_US) as usize
    }

    fn warmup_chunks(&self) -> usize {
        (self.warmup_us / REBALANCE_INTERVAL_US) as usize
    }

    /// Repetitions a run of `seconds` makes.  The count follows from
    /// the argument alone, never from the clock: a faster tree ends
    /// sooner, it does not get more tries at a lower minimum.
    pub fn reps_for(&self, seconds: f64) -> usize {
        (seconds / self.nominal_rep_s).round() as usize
    }
}

/// A greedy job: uses every cycle offered and never blocks.
struct Spin;

impl WorkModel for Spin {
    fn run(&mut self, _now: u64, quantum_us: u64, _hz: f64) -> RunResult {
        RunResult::ran(quantum_us)
    }
}

/// One built workload: the host, its resident jobs and the operation
/// tally.
pub struct Instance {
    pub def: &'static Def,
    pub host: Box<dyn Host>,
    /// Every resident job.  Removal is `swap_remove`, so order is
    /// deterministic but not insertion order.
    live: Vec<JobHandle>,
    churn: Vec<ChurnStep>,
    next_chunk: usize,
    named: usize,
    pub adds: u64,
    pub removes: u64,
    /// `add_job` calls that returned an error.
    pub op_failures: u64,
}

/// Runs `f` inside a span when tracing, bare otherwise.
fn spanned<T>(log: &mut Option<&mut SpanLog>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = spans::open(log, name);
    let out = f();
    spans::close(log, id);
    out
}

impl Instance {
    /// Builds the host and installs the job set generated from `seed`.
    /// Telemetry recording is enabled only for a traced repetition.
    /// Without `churn` the `sharded_churn` population stays as installed:
    /// the control its rebalancer activity is held against.
    pub fn build(def: &'static Def, seed: u64, churn: bool, mut log: Option<&mut SpanLog>) -> Self {
        let mut builder = Runtime::sim().cpus(def.cpus);
        if def.shards > 1 {
            builder = builder.shard_config(ShardConfig {
                shards: def.shards,
                rebalance_interval_s: REBALANCE_INTERVAL_US as f64 / 1e6,
                parallel: false,
                ..ShardConfig::default()
            });
        }
        let mut host = builder.build();
        if log.is_some() {
            host.enable_telemetry(TelemetryConfig {
                stage_timing: true,
                ..TelemetryConfig::default()
            });
        }
        if !def.sim_trace {
            let far = SimTime::from_secs(1000);
            if let Some(sim) = host.as_sim_mut() {
                sim.set_trace_interval(far);
            } else if let Some(sim) = host.as_sharded_sim_mut() {
                sim.set_trace_interval(far);
            }
        }
        let churn = if churn && def.kind == Kind::ShardedChurn {
            gen::churn_schedule(
                CHURN_STREAM,
                def.warmup_chunks() + def.chunks_per_slice() * SLICES,
                CHURN_PER_CHUNK,
            )
        } else {
            Vec::new()
        };
        let mut this = Self {
            def,
            host,
            live: Vec::new(),
            churn,
            next_chunk: 0,
            named: 0,
            adds: 0,
            removes: 0,
            op_failures: 0,
        };
        for _ in 0..def.spinners {
            this.add_spinner(&mut log);
        }
        if def.kind == Kind::PipelineBlocking {
            for member in gen::pipeline_job_set(seed, VIDEOS, WEBS) {
                this.install(member, &mut log);
            }
        }
        this
    }

    fn add_spinner(&mut self, log: &mut Option<&mut SpanLog>) {
        let name = format!("j{}", self.named);
        self.named += 1;
        self.adds += 1;
        let host = &mut self.host;
        let added = spanned(log, "api.host.add_job", || {
            host.add_job(&name, JobSpec::miscellaneous(), Box::new(Spin))
        });
        match added {
            Ok(handle) => self.live.push(handle),
            Err(_) => self.op_failures += 1,
        }
    }

    /// Installs one pipeline member.  The installers call `add_job`
    /// themselves (three times for a video pipeline, twice for a web
    /// server) and panic on a refusal, so the span covers the whole
    /// install.
    fn install(&mut self, member: PipelineMember, log: &mut Option<&mut SpanLog>) {
        let host = &mut *self.host;
        match member {
            PipelineMember::Video(config) => {
                let h = spanned(log, "workloads.install_video", || {
                    VideoPipeline::install(host, config)
                });
                self.live.extend([h.source, h.decoder, h.renderer]);
                self.adds += 3;
            }
            PipelineMember::Web(config) => {
                let (generator, server) = spanned(log, "workloads.install_web", || {
                    WebServer::install(host, config)
                });
                self.live.extend([generator, server]);
                self.adds += 2;
            }
        }
    }

    /// Applies the churn scheduled for the next chunk edge (none once
    /// the schedule is spent, or when built without churn).
    fn apply_churn(&mut self, log: &mut Option<&mut SpanLog>) {
        let Some(step) = self.churn.get_mut(self.next_chunk).map(std::mem::take) else {
            return;
        };
        self.next_chunk += 1;
        for &(skewed, pick) in &step.removes {
            let Some(victim) = self.pick_victim(skewed, pick) else {
                continue;
            };
            let handle = self.live.swap_remove(victim);
            self.removes += 1;
            let host = &mut self.host;
            spanned(log, "api.host.remove_job", || host.remove_job(handle));
        }
        for _ in 0..step.adds {
            self.add_spinner(log);
        }
    }

    /// Index into `live` of the job to remove.  A skewed removal scans
    /// forward from the drawn position for a job on the lower half of
    /// the shards (a bounded scan: it falls back to the drawn job).
    fn pick_victim(&self, skewed: bool, pick: u64) -> Option<usize> {
        if self.live.is_empty() {
            return None;
        }
        let n = self.live.len();
        let first = (pick % n as u64) as usize;
        if !skewed {
            return Some(first);
        }
        let sim = self.host.as_sharded_sim()?;
        let low = sim.shard_count() / 2;
        (0..64)
            .map(|k| (first + k) % n)
            .find(|&i| sim.shard_of(self.live[i].job).is_some_and(|s| s < low))
            .or(Some(first))
    }

    /// Warm-up: simulated time before the measured window opens.  On
    /// `sharded_churn` the churn runs through it.  The shards start in
    /// step, and the first churn knocks them apart while their
    /// controllers are still ramping up from the initial allocations;
    /// the window must open on a machine already out of step, the state
    /// churn keeps it in.  The three warm-up seconds see 5 655 rebalance
    /// migrations, the six of the window 6 343, and the same nine seconds
    /// without churn see none.
    pub fn warm_up(&mut self) {
        if self.def.kind == Kind::ShardedChurn {
            for _ in 0..self.def.warmup_chunks() {
                self.apply_churn(&mut None);
                self.host
                    .advance(SimTime::from_micros(REBALANCE_INTERVAL_US));
            }
        } else {
            self.host.advance(SimTime::from_micros(self.def.warmup_us));
        }
    }

    /// One untraced slice, through the `Host` API only.
    pub fn run_slice(&mut self) {
        if self.def.kind == Kind::ShardedChurn {
            for _ in 0..self.def.chunks_per_slice() {
                self.apply_churn(&mut None);
                self.host
                    .advance(SimTime::from_micros(REBALANCE_INTERVAL_US));
            }
        } else {
            self.host.advance(SimTime::from_micros(self.def.slice_us()));
        }
    }

    /// One traced slice: the same simulated work, one span per call into
    /// the simulator.  `step()` does not stop at the slice edge, so a
    /// slice may overshoot by one calendar event.
    pub fn run_slice_traced(&mut self, log: &mut SpanLog) {
        if self.def.kind == Kind::ShardedChurn {
            for _ in 0..self.def.chunks_per_slice() {
                self.apply_churn(&mut Some(&mut *log));
                let sim = self
                    .host
                    .as_sharded_sim_mut()
                    .expect("sharded workload builds a sharded host");
                let id = log.begin("sim.sharded.chunk");
                sim.run_for(REBALANCE_INTERVAL_US as f64 / 1e6);
                log.end(id, "");
            }
            return;
        }
        let sim = self
            .host
            .as_sim_mut()
            .expect("unsharded workload builds a plain simulation");
        let end = sim.now_micros() + self.def.slice_us();
        while sim.now_micros() < end {
            let cycles = sim.controller().cycles();
            let id = log.begin("sim.step");
            sim.step();
            let tag = if sim.controller().cycles() > cycles {
                "ctl"
            } else {
                ""
            };
            log.end(id, tag);
        }
    }

    /// The simulator's own statistics (the `Host` view drops the
    /// modelled overhead sums).
    pub fn sim_stats(&self) -> SimStats {
        match (self.host.as_sim(), self.host.as_sharded_sim()) {
            (Some(sim), _) => sim.stats(),
            (_, Some(sim)) => sim.stats(),
            _ => unreachable!("every workload runs on the sim backend"),
        }
    }

    /// Jobs the controllers currently hold, over every shard.
    pub fn resident_jobs(&self) -> usize {
        match self.host.as_sharded_sim() {
            Some(sim) => (0..sim.shard_count())
                .map(|k| sim.shard(k).controller().job_count())
                .sum(),
            None => self.host.controller().job_count(),
        }
    }

    /// Resident jobs whose current allocation is zero.
    pub fn starved_jobs(&self) -> usize {
        self.live
            .iter()
            .filter(|&&h| self.host.allocation_ppt(h) < 1)
            .count()
    }

    /// Mean |fill − 0.5| over every registered queue, sampled now.
    pub fn fill_abs_err(&self) -> Option<f64> {
        let attachments = self.host.registry().all_attachments();
        if attachments.is_empty() {
            return None;
        }
        let sum: f64 = attachments
            .iter()
            .map(|a| (a.sample().fraction() - 0.5).abs())
            .sum();
        Some(sum / attachments.len() as f64)
    }
}
