//! Building hosts: `Runtime::sim().cpus(8).build()`.

use crate::wall_clock::WallClockHost;
use crate::{Backend, Host};
use rrs_sim::{ShardConfig, ShardedSim, SimConfig, Simulation};
use rrs_telemetry::TelemetryConfig;

/// Entry point of the backend-agnostic API.
///
/// ```
/// use rrs_api::Runtime;
///
/// let sim = Runtime::sim().cpus(8).build();
/// assert_eq!(sim.cpu_count(), 8);
/// let wall = Runtime::wall_clock().cpus(2).build();
/// assert_eq!(wall.cpu_count(), 2);
/// ```
pub struct Runtime;

impl Runtime {
    /// A builder for the deterministic simulator backend.
    pub fn sim() -> RuntimeBuilder {
        RuntimeBuilder::new(Backend::Sim)
    }

    /// A builder for the wall-clock (real OS threads) backend.
    pub fn wall_clock() -> RuntimeBuilder {
        RuntimeBuilder::new(Backend::WallClock)
    }

    /// A builder for the given backend — for callers that carry the
    /// choice as data (scenario specs, CLI flags).
    pub fn backend(backend: Backend) -> RuntimeBuilder {
        RuntimeBuilder::new(backend)
    }
}

/// Configures and builds a [`Host`].
///
/// The defaults are the paper's machine — one 400 MHz CPU, the
/// prototype's controller gains — on either backend.  `cpus(n)` is the
/// common knob; `shard_config` hands the whole sharding config through
/// for experiment-grade control.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeBuilder {
    backend: Backend,
    cpus: usize,
    shard: ShardConfig,
    telemetry: Option<TelemetryConfig>,
}

impl RuntimeBuilder {
    fn new(backend: Backend) -> Self {
        Self {
            backend,
            cpus: 1,
            shard: ShardConfig::default(),
            telemetry: None,
        }
    }

    /// Number of CPUs (simulated CPUs, or logical worker shards on the
    /// wall-clock backend).
    pub fn cpus(mut self, cpus: usize) -> Self {
        self.cpus = cpus;
        self
    }

    /// Number of machine shards on the simulator backend (see
    /// [`rrs_sim::ShardedSim`]).  `shards > 1` builds the two-level
    /// sharded machine: per-shard controller/calendar/dispatchers plus a
    /// slow-cadence rebalancer.  The default (and `shards <= 1`) builds
    /// the plain unsharded [`Simulation`], so existing behaviour — golden
    /// statistics included — is untouched.  Ignored on the wall-clock
    /// backend.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shard.shards = shards.max(1);
        self
    }

    /// Full sharding configuration (rebalance cadence and threshold,
    /// parallel shard execution) for the simulator backend.
    pub fn shard_config(mut self, config: ShardConfig) -> Self {
        self.shard = config;
        self
    }

    /// Enables structured trace recording on the built host (see
    /// [`Host::enable_telemetry`]).  Without this call the host records
    /// nothing and its hot paths carry only the always-on counters.
    pub fn telemetry(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = Some(config);
        self
    }

    /// Builds the host.
    pub fn build(self) -> Box<dyn Host> {
        let mut host: Box<dyn Host> = match self.backend {
            Backend::Sim => {
                let config = SimConfig::default().with_cpus(self.cpus);
                if self.shard.shards > 1 {
                    Box::new(ShardedSim::new(config, self.shard))
                } else {
                    Box::new(Simulation::new(config))
                }
            }
            Backend::WallClock => Box::new(WallClockHost::new(self.cpus)),
        };
        if let Some(config) = self.telemetry {
            host.enable_telemetry(config);
        }
        host
    }
}
