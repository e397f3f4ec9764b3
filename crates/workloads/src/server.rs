//! Web-server workload: requests arrive from the network into a bounded
//! queue and a server thread consumes them.
//!
//! §3.2: "Servers are essentially the consumer of a bounded buffer, where
//! the producer may or may not be on the same machine."  The request
//! arrival process therefore consumes (almost) no local CPU; only the
//! server thread is CPU-bound, and the controller must discover how much
//! CPU it needs to keep up with the offered load.

use crate::kernel::{Burn, Cadence};
use crate::latency::LatencyStats;
use rrs_api::Host;
use rrs_core::{JobHandle, JobSpec};
use rrs_queue::{BoundedBuffer, JobKey, Role};
use rrs_scheduler::{Period, Proportion};
use rrs_sim::{RunResult, WorkModel};
use std::sync::Arc;

/// One queued request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// CPU cycles needed to serve the request.
    pub cycles: f64,
    /// Arrival time in microseconds of simulated time.
    pub arrival_us: u64,
}

/// Configuration of the web-server workload.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Request queue capacity (the listen backlog).
    pub queue_capacity: usize,
    /// Offered load in requests per second.
    pub arrival_rate_hz: f64,
    /// Cycles of CPU work each request costs the server.
    pub cycles_per_request: f64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        // 100 req/s at 1 Mcycle each = 100 Mcycles/s = 25 % of a 400 MHz CPU.
        Self {
            queue_capacity: 64,
            arrival_rate_hz: 100.0,
            cycles_per_request: 1e6,
        }
    }
}

/// Generates request arrivals at a fixed rate, using negligible CPU.
///
/// The generator holds a small real-time reservation so the dispatcher runs
/// it regularly; it enqueues however many requests have "arrived" since it
/// last ran and immediately blocks until the next arrival is due.
#[derive(Debug)]
pub(crate) struct RequestGenerator {
    queue: Arc<BoundedBuffer<Request>>,
    arrivals: Cadence,
    cycles_per_request: f64,
}

impl RequestGenerator {
    /// Creates a generator feeding `queue`.
    pub fn new(queue: Arc<BoundedBuffer<Request>>, config: ServerConfig) -> Self {
        Self {
            queue,
            arrivals: Cadence::per_second(config.arrival_rate_hz),
            cycles_per_request: config.cycles_per_request,
        }
    }
}

impl WorkModel for RequestGenerator {
    fn run(&mut self, now_us: u64, _quantum_us: u64, _cpu_hz: f64) -> RunResult {
        self.arrivals.tick(now_us, |arrival_us| {
            let request = Request {
                cycles: self.cycles_per_request,
                arrival_us,
            };
            // A full backlog drops the request: the network does not wait.
            let _ = self.queue.try_push(request);
        });
        // Arrivals are free (the network card does the work); block until
        // the next one is due.
        RunResult::blocked_after(1)
    }

    fn poll_unblock(&mut self, now_us: u64) -> bool {
        self.arrivals.due(now_us)
    }
}

/// The server thread: pops requests and burns the cycles they cost.
#[derive(Debug)]
pub struct WebServer {
    queue: Arc<BoundedBuffer<Request>>,
    cycles_remaining: f64,
    served: u64,
    current_arrival_us: u64,
    latency: Option<Arc<LatencyStats>>,
}

impl WebServer {
    /// Creates a server consuming from `queue`.
    pub fn new(queue: Arc<BoundedBuffer<Request>>) -> Self {
        Self {
            queue,
            cycles_remaining: 0.0,
            served: 0,
            current_arrival_us: 0,
            latency: None,
        }
    }

    /// Records every served request's latency into `stats` (shared with
    /// the observer; see [`LatencyStats`]).  Without this the server
    /// keeps only its scalar mean.
    pub fn with_latency_stats(mut self, stats: Arc<LatencyStats>) -> Self {
        self.latency = Some(stats);
        self
    }

    /// Requests fully served so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Installs a generator/server pair into any [`Host`]: the generator
    /// runs under a tiny real-time reservation, the server is a real-rate
    /// job whose allocation the controller manages.
    pub fn install(
        host: &mut (impl Host + ?Sized),
        config: ServerConfig,
    ) -> (JobHandle, JobHandle) {
        Self::install_inner(host, config, None)
    }

    /// Like [`WebServer::install`], but also returns a shared
    /// [`LatencyStats`] the server records every request's
    /// queueing-plus-service latency into.
    pub fn install_instrumented(
        host: &mut (impl Host + ?Sized),
        config: ServerConfig,
    ) -> (JobHandle, JobHandle, Arc<LatencyStats>) {
        let stats = LatencyStats::new();
        let (generator, server) = Self::install_inner(host, config, Some(Arc::clone(&stats)));
        (generator, server, stats)
    }

    fn install_inner(
        host: &mut (impl Host + ?Sized),
        config: ServerConfig,
        latency: Option<Arc<LatencyStats>>,
    ) -> (JobHandle, JobHandle) {
        let queue = Arc::new(BoundedBuffer::new("server-backlog", config.queue_capacity));
        let generator = RequestGenerator::new(Arc::clone(&queue), config);
        let mut server = WebServer::new(Arc::clone(&queue));
        server.latency = latency;
        let generator_handle = host
            .add_job(
                "network",
                JobSpec::real_time(Proportion::from_ppt(10), Period::from_millis(5)),
                Box::new(generator),
            )
            .expect("tiny reservation always admitted on empty system");
        let server_handle = host
            .add_job("server", JobSpec::real_rate(), Box::new(server))
            .expect("real-rate jobs are always admitted");
        host.registry()
            .register(JobKey(server_handle.job.0), Role::Consumer, queue);
        (generator_handle, server_handle)
    }
}

impl WorkModel for WebServer {
    fn run(&mut self, now_us: u64, quantum_us: u64, cpu_hz: f64) -> RunResult {
        let mut burn = Burn::new(quantum_us, cpu_hz);
        loop {
            if self.cycles_remaining <= 0.0 {
                let Some(request) = self.queue.try_pop() else {
                    return burn.blocked();
                };
                self.cycles_remaining = request.cycles;
                self.current_arrival_us = request.arrival_us;
            }
            if !burn.spend(&mut self.cycles_remaining) {
                return burn.ran();
            }
            self.served += 1;
            let latency_us = now_us.saturating_sub(self.current_arrival_us);
            if let Some(stats) = &self.latency {
                stats.record_us(latency_us);
            }
        }
    }

    fn poll_unblock(&mut self, _now_us: u64) -> bool {
        !self.queue.is_empty()
    }

    fn progress_counter(&self) -> Option<f64> {
        Some(self.served as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_sim::{SimConfig, Simulation};

    #[test]
    fn generator_produces_requests_at_configured_rate() {
        let queue = Arc::new(BoundedBuffer::new("q", 1024));
        let config = ServerConfig {
            arrival_rate_hz: 50.0,
            ..ServerConfig::default()
        };
        let mut generator = RequestGenerator::new(Arc::clone(&queue), config);
        // Simulate one second of arrivals by repeatedly running the model.
        let mut now = 0u64;
        while now < 1_000_000 {
            generator.run(now, 100, 400e6);
            now += 1_000;
        }
        // Nothing consumes and the backlog never fills, so what is queued
        // is what was generated.
        let made = queue.len();
        assert!(
            (45..=55).contains(&made),
            "generated {made} requests in 1 s"
        );
    }

    #[test]
    fn generator_drops_when_backlog_full() {
        let queue = Arc::new(BoundedBuffer::new("q", 2));
        let config = ServerConfig {
            arrival_rate_hz: 1000.0,
            ..ServerConfig::default()
        };
        let mut generator = RequestGenerator::new(Arc::clone(&queue), config);
        let mut now = 0u64;
        while now < 100_000 {
            generator.run(now, 100, 400e6);
            now += 1_000;
        }
        // ~100 arrivals offered, room for two: the first two are kept,
        // the rest dropped.
        assert_eq!(queue.len(), 2);
        let kept: Vec<u64> = queue.drain().iter().map(|r| r.arrival_us).collect();
        assert_eq!(kept, [1_000, 2_000]);
    }

    #[test]
    fn server_keeps_up_with_offered_load() {
        let mut sim = Simulation::new(SimConfig::default());
        let config = ServerConfig::default();
        let (_gen, server) = WebServer::install(&mut sim, config);
        sim.run_for(10.0);
        // 100 req/s at 1 Mcycles needs 25 % of the CPU; the controller
        // should find an allocation in that region and the backlog should
        // not stay saturated.
        let alloc = sim.allocation_ppt(server);
        assert!(
            (150..=600).contains(&alloc),
            "server allocation {alloc} should be near 250"
        );
        let served_rate = sim
            .trace()
            .get("rate/server")
            .unwrap()
            .window_mean(5.0, 10.0)
            .unwrap();
        assert!(
            served_rate > 80.0,
            "server should serve close to 100 req/s, got {served_rate}"
        );
    }

    #[test]
    fn instrumented_install_shares_a_latency_histogram() {
        let mut sim = Simulation::new(SimConfig::default());
        let (_gen, _server, stats) =
            WebServer::install_instrumented(&mut sim, ServerConfig::default());
        sim.run_for(5.0);
        // ~100 req/s for 5 s: the histogram sees (almost) every request.
        assert!(stats.count() > 300, "only {} samples", stats.count());
        let p50 = stats.percentile_us(50.0);
        let p99 = stats.percentile_us(99.0);
        assert!(p50 > 0.0 && p50 <= p99, "p50 {p50} µs, p99 {p99} µs");
        let summary = stats.summary("server");
        assert_eq!(summary.count, stats.count());
        assert!(summary.p99_ms < 1_000.0, "p99 {} ms", summary.p99_ms);
    }

    #[test]
    fn web_server_latency_accounting() {
        let queue = Arc::new(BoundedBuffer::new("q", 8));
        queue
            .try_push(Request {
                cycles: 1000.0,
                arrival_us: 0,
            })
            .unwrap();
        let stats = LatencyStats::new();
        let mut server = WebServer::new(Arc::clone(&queue)).with_latency_stats(Arc::clone(&stats));
        assert_eq!(stats.count(), 0);
        let r = server.run(500, 1_000, 400e6);
        // The single request is served, after which the server blocks on the
        // now-empty queue.
        assert!(r.blocked);
        assert_eq!(server.served(), 1);
        // Arrived at 0, served in the quantum granted at 500 µs.
        assert_eq!(stats.count(), 1);
        assert!(stats.percentile_us(100.0) > 0.0);
    }
}
