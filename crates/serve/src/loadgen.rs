//! The closed-loop load generator.
//!
//! Closed-loop means each synthetic client sends its next request only
//! after reading the previous response — offered load adapts to service
//! rate, so the measurement exercises the server's concurrency without
//! the coordinated-omission artifacts of fixed-rate open loops.
//!
//! Two phases, deliberately in this order:
//!
//! 1. **cold** — every distinct request once, sequentially, against an
//!    empty cache: each one pays dataset synthesis + anonymization.
//! 2. **warm** — `clients` threads hammer the same request set for
//!    `duration`: every release is a cache hit, so latency is parse +
//!    serialize + socket.
//!
//! The cold-p50 / warm-p50 ratio is the service's reason to exist (a
//! cache-warm daemon instead of a batch CLI); the report records it
//! alongside p50/p99, throughput, and the server's own cache counters.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use anoncmp_core::wire::{CompareRequest, ServerStats, WireDataset};
use serde::Serialize;

use crate::client;

/// Load-generator settings.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// The server to drive.
    pub addr: SocketAddr,
    /// Concurrent closed-loop clients in the warm phase. Each client
    /// opens a fresh connection per request (`Connection: close`).
    pub clients: usize,
    /// When nonzero, the warm phase instead runs this many closed-loop
    /// clients each over ONE persistent keep-alive connection — the
    /// accept path is paid once per connection, and the report carries
    /// a per-connection p99 so a single slow connection cannot hide in
    /// the aggregate.
    pub connections: usize,
    /// Warm-phase duration.
    pub duration: Duration,
    /// Rows of the synthetic census dataset each request evaluates.
    pub rows: usize,
    /// The k values the request set rotates over.
    pub ks: Vec<usize>,
    /// Algorithms per request (empty = the server's standard suite).
    pub algorithms: Vec<String>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:0".parse().expect("literal addr"),
            clients: 4,
            connections: 0,
            duration: Duration::from_secs(5),
            rows: 300,
            ks: vec![2, 5, 10],
            algorithms: vec!["datafly".into(), "mondrian".into(), "incognito".into()],
        }
    }
}

impl LoadgenConfig {
    /// The distinct request bodies this run rotates over (one per k).
    pub fn request_bodies(&self) -> Vec<String> {
        self.ks
            .iter()
            .map(|&k| {
                CompareRequest {
                    dataset: WireDataset::Census {
                        rows: self.rows,
                        seed: 7,
                        zip_pool: 25,
                    },
                    algorithms: self.algorithms.clone(),
                    methods: vec![],
                    k,
                    max_suppression: self.rows / 20,
                    properties: vec!["eq-class-size".into(), "precision".into()],
                    budget_ms: None,
                }
                .to_json()
            })
            .collect()
    }
}

/// Latency summary of one phase, milliseconds.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct PhaseReport {
    /// Requests that returned `200`.
    pub requests: u64,
    /// Requests shed with `429` (retried by the loop, not errors).
    pub shed: u64,
    /// Protocol errors: transport failures or non-`200`/`429` statuses.
    pub errors: u64,
    /// Median latency.
    pub p50_ms: f64,
    /// 99th-percentile latency.
    pub p99_ms: f64,
    /// Maximum latency.
    pub max_ms: f64,
}

/// The full report `anoncmp-loadgen` writes to `BENCH_serve.json`.
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    /// Cores available to the load generator's process (which also hosts
    /// the server when self-hosted): the bound on any parallel gain.
    pub cores: u64,
    /// Warm-phase concurrent clients.
    pub clients: u64,
    /// Persistent keep-alive connections in the warm phase (`0` means
    /// the default one-connection-per-request mode ran).
    pub connections: u64,
    /// Warm p99 of each persistent connection, in connection order;
    /// empty outside `--connections` mode.
    pub per_connection_p99_ms: Vec<f64>,
    /// Warm-phase wall-clock seconds.
    pub duration_s: f64,
    /// Cold phase: every distinct request once, empty cache.
    pub cold: PhaseReport,
    /// Warm phase: the closed loop over the same requests.
    pub warm: PhaseReport,
    /// Warm-phase completed requests per second.
    pub throughput_rps: f64,
    /// cold p50 / warm p50 — the cache-warmth payoff.
    pub warm_speedup_p50: f64,
    /// Warm-serve rate over the whole run, from `GET /stats`: the
    /// fraction of cache lookups (rendered-response batches plus engine
    /// releases) answered without recomputation.
    pub cache_hit_rate: f64,
    /// The server's own counters at the end of the run.
    pub server: ServerStats,
}

/// Latencies (µs) + error counts collected by one client thread.
#[derive(Debug, Default)]
struct Samples {
    latencies_us: Vec<u64>,
    shed: u64,
    errors: u64,
}

impl Samples {
    fn tally(&mut self, started: Instant, result: std::io::Result<crate::http::Response>) {
        match result {
            Ok(response) if response.status == 200 => {
                self.latencies_us.push(started.elapsed().as_micros() as u64);
            }
            Ok(response) if response.status == 429 => self.shed += 1,
            Ok(_) | Err(_) => self.errors += 1,
        }
    }

    /// One request over a fresh connection (`Connection: close`).
    fn record(&mut self, addr: SocketAddr, body: &str) {
        let started = Instant::now();
        self.tally(started, client::post(addr, "/compare", body));
    }

    /// One request over a persistent connection.
    fn record_on(&mut self, connection: &mut client::Connection, body: &str) {
        let started = Instant::now();
        self.tally(started, connection.post("/compare", body));
    }
}

fn percentile(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_us.len() as f64) * p).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1] as f64 / 1_000.0
}

fn phase_report(mut samples: Samples) -> PhaseReport {
    samples.latencies_us.sort_unstable();
    PhaseReport {
        requests: samples.latencies_us.len() as u64,
        shed: samples.shed,
        errors: samples.errors,
        p50_ms: percentile(&samples.latencies_us, 0.50),
        p99_ms: percentile(&samples.latencies_us, 0.99),
        max_ms: samples.latencies_us.last().copied().unwrap_or(0) as f64 / 1_000.0,
    }
}

/// Runs both phases against `config.addr` and assembles the report.
pub fn run(config: &LoadgenConfig) -> std::io::Result<LoadReport> {
    let bodies = Arc::new(config.request_bodies());

    // Phase 1: cold — sequential, each distinct request once.
    let mut cold = Samples::default();
    for body in bodies.iter() {
        cold.record(config.addr, body);
    }

    // Phase 2: warm — the closed loop. `--connections N` swaps the
    // fresh-connection clients for N persistent keep-alive connections.
    let persistent = config.connections > 0;
    let warm_threads = if persistent {
        config.connections
    } else {
        config.clients.max(1)
    };
    let stop = Arc::new(AtomicBool::new(false));
    let warm_started = Instant::now();
    let mut collected = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client_index in 0..warm_threads {
            let bodies = bodies.clone();
            let stop = stop.clone();
            let addr = config.addr;
            handles.push(scope.spawn(move || {
                let mut samples = Samples::default();
                let mut connection = persistent.then(|| client::Connection::new(addr));
                let mut next = client_index; // de-phase the clients
                while !stop.load(Ordering::Relaxed) {
                    let body = &bodies[next % bodies.len()];
                    match connection.as_mut() {
                        Some(connection) => samples.record_on(connection, body),
                        None => samples.record(addr, body),
                    }
                    next += 1;
                }
                samples
            }));
        }
        std::thread::sleep(config.duration);
        stop.store(true, Ordering::Relaxed);
        for handle in handles {
            collected.push(handle.join().expect("client thread"));
        }
    });
    let warm_elapsed = warm_started.elapsed();

    let mut per_connection_p99_ms = Vec::new();
    let mut warm = Samples::default();
    for mut samples in collected {
        if persistent {
            samples.latencies_us.sort_unstable();
            per_connection_p99_ms.push(percentile(&samples.latencies_us, 0.99));
        }
        warm.latencies_us.append(&mut samples.latencies_us);
        warm.shed += samples.shed;
        warm.errors += samples.errors;
    }

    let stats_body = client::get(config.addr, "/stats")?.text();
    let server = serde::json::parse(&stats_body)
        .as_ref()
        .map(ServerStats::from_value)
        .and_then(Result::ok)
        .unwrap_or_default();

    let cold = phase_report(cold);
    let warm = phase_report(warm);
    // Every batch resolves as a response hit, a release hit (response
    // miss that found its releases warm), or a computed release miss —
    // so these three counters partition the serving work.
    let cache_hits = server.response_hits + server.cache_hits;
    let cache_total = cache_hits + server.cache_misses;
    Ok(LoadReport {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        clients: warm_threads as u64,
        connections: config.connections as u64,
        per_connection_p99_ms,
        duration_s: warm_elapsed.as_secs_f64(),
        throughput_rps: warm.requests as f64 / warm_elapsed.as_secs_f64().max(1e-9),
        warm_speedup_p50: if warm.p50_ms > 0.0 {
            cold.p50_ms / warm.p50_ms
        } else {
            f64::INFINITY
        },
        cache_hit_rate: if cache_total > 0 {
            cache_hits as f64 / cache_total as f64
        } else {
            0.0
        },
        cold,
        warm,
        server,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_follow_nearest_rank() {
        let us: Vec<u64> = (1..=100).map(|v| v * 1_000).collect();
        assert_eq!(percentile(&us, 0.50), 50.0);
        assert_eq!(percentile(&us, 0.99), 99.0);
        assert_eq!(percentile(&us, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7_000], 0.99), 7.0);
    }

    #[test]
    fn request_bodies_are_valid_and_distinct() {
        let config = LoadgenConfig::default();
        let bodies = config.request_bodies();
        assert_eq!(bodies.len(), config.ks.len());
        for body in &bodies {
            let value = serde::json::parse(body).expect("valid json");
            CompareRequest::from_value(&value).expect("valid request");
        }
        assert_ne!(bodies[0], bodies[1], "one distinct request per k");
    }
}
