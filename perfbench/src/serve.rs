//! `serve_mixed`: the `anoncmp-serve` daemon on loopback, driven by a
//! closed loop over persistent keep-alive connections.
//!
//! 95% of requests repeat loadgen's warm set (three compare requests on
//! 300 census rows); 5% are cold compare requests on a 1,000-row dataset
//! seed the daemon has never seen, mixing generalization and noise and
//! extracting the numeric risk and loss vectors. Warm requests touch only
//! the serve layer; cold ones put the engine behind the socket. Every
//! body must match the body pinned for its request.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use anoncmp_core::wire::{CompareRequest, ServerStats, WireDataset};
use anoncmp_engine::prelude::*;
use anoncmp_serve::client::{self, Connection};
use anoncmp_serve::loadgen::LoadgenConfig;
use anoncmp_serve::requests::{plan_compare, RequestLimits};
use anoncmp_serve::{serve, ServeConfig, ServerHandle, ShutdownFlag};
use serde::Serialize;

use crate::stats::{self, median, ms_since, splitmix, Tally};
use crate::trace::Tracer;
use crate::{Context, Metric, Report};

/// Rows of a cold request's dataset.
pub const COLD_ROWS: usize = 1_000;
/// Cold requests per 10,000.
const COLD_PER_10K: u64 = 500;
/// Pinned cold dataset seeds: `COLD_BASE + i` for `i < COLD_POOL`. A run
/// cycles through them from a seed-derived offset. A seed comes back only
/// after `COLD_POOL - 1` other cold requests, by which time the daemon's
/// response (256), release (256) and vector (1024 entries, six per cold
/// request) caches have all evicted it; only its dataset map, which is
/// unbounded, still holds the synthesized rows. Cycling keeps that map —
/// and the pinned digest list — bounded.
pub const COLD_POOL: usize = 1024;
const COLD_BASE: u64 = 0xC01D_0000;
/// Engine workers inside the daemon.
pub const ENGINE_JOBS: usize = 1;
/// Cold requests re-run in-process for `serve.cold_compute_ms`.
const COMPUTE_SAMPLES: usize = 16;

/// loadgen's default request set: the warm requests.
pub fn warm_bodies() -> Vec<String> {
    LoadgenConfig::default().request_bodies()
}

fn cold_request(seed: u64) -> CompareRequest {
    CompareRequest {
        dataset: WireDataset::Census {
            rows: COLD_ROWS,
            seed,
            zip_pool: 25,
        },
        algorithms: vec!["datafly".into(), "mondrian".into()],
        methods: vec!["noise:0.05".into()],
        k: 5,
        max_suppression: COLD_ROWS / 20,
        properties: vec!["neighborhood-risk".into(), "bounded-loss".into()],
        budget_ms: None,
    }
}

/// The pinned cold dataset seed at pool index `i`.
pub fn cold_seed(i: usize) -> u64 {
    COLD_BASE + i as u64
}

fn start(threads: usize) -> ServerHandle {
    serve(
        ServeConfig {
            threads,
            engine_jobs: ENGINE_JOBS,
            chunk_threads: 1,
            ..ServeConfig::default()
        },
        ShutdownFlag::new(),
    )
    .expect("bind a loopback port")
}

/// Pinned body digests: the warm set by index, then every cold pool seed.
pub fn pin(threads: usize) -> (Vec<String>, Vec<(u64, String)>) {
    let server = start(threads);
    let addr = server.addr();
    let post = |connection: &mut Connection, body: &str| {
        let response = connection.post("/compare", body).expect("pin request");
        assert_eq!(
            response.status,
            200,
            "pin request failed: {}",
            response.text()
        );
        stats::digest(&response.body)
    };
    let mut connection = Connection::new(addr);
    let warm = warm_bodies()
        .iter()
        .map(|b| post(&mut connection, b))
        .collect();
    let next = AtomicUsize::new(0);
    let cold = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut connection = Connection::new(addr);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= COLD_POOL {
                        return;
                    }
                    let d = post(&mut connection, &cold_request(cold_seed(i)).to_json());
                    cold.lock().expect("pin collector").push((cold_seed(i), d));
                }
            });
        }
    });
    server.shutdown();
    let mut cold = cold.into_inner().expect("pin collector");
    cold.sort();
    (warm, cold)
}

/// A running daemon plus the warm bodies it returned during set-up,
/// kept only when they matched their pins.
struct Prepared {
    server: ServerHandle,
    warm: Vec<(String, Option<Vec<u8>>)>,
}

/// Set-up: start the daemon and send each warm request once, which
/// computes and caches it.
fn prepare(ctx: &Context) -> Prepared {
    let server = start(ctx.threads);
    let mut connection = Connection::new(server.addr());
    let warm = warm_bodies()
        .into_iter()
        .enumerate()
        .map(|(i, body)| {
            let expected = ctx.pins.get("warm", i as u64);
            let kept = connection
                .post("/compare", &body)
                .ok()
                .filter(|r| expected.is_some_and(|d| stats::response_ok(r.status, &r.body, d)));
            (body, kept.map(|r| r.body))
        })
        .collect();
    Prepared { server, warm }
}

/// What one closed-loop window produced.
struct Window {
    latencies: Vec<f64>,
    tally: Tally,
    cold_seeds: Vec<u64>,
    seconds: f64,
    stats: Option<ServerStats>,
}

/// The closed loop: one client thread per connection, each sending its
/// next request when the previous response is read.
fn drive(ctx: &Context, prepared: &Prepared, seconds: f64, tracer: Option<&Tracer>) -> Window {
    let addr: SocketAddr = prepared.server.addr();
    let mut offset_state = ctx.seed ^ COLD_BASE;
    let offset = (splitmix(&mut offset_state) % COLD_POOL as u64) as usize;
    let cold_next = AtomicUsize::new(0);
    let requests = AtomicUsize::new(0);
    let cold_seeds = Mutex::new(Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let per_thread: Vec<(Vec<f64>, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.threads)
            .map(|c| {
                let (cold_next, requests, cold_seeds) = (&cold_next, &requests, &cold_seeds);
                scope.spawn(move || {
                    let mut connection = Connection::new(addr);
                    let mut rng = ctx.seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9);
                    let mut warm_next = c;
                    let mut latencies = Vec::new();
                    let mut tally = Tally::default();
                    while Instant::now() < deadline {
                        let cold_seed_used =
                            (splitmix(&mut rng) % 10_000 < COLD_PER_10K).then(|| {
                                cold_seed(
                                    (offset + cold_next.fetch_add(1, Ordering::Relaxed))
                                        % COLD_POOL,
                                )
                            });
                        let (body, expected) = match cold_seed_used {
                            Some(seed) => (cold_request(seed).to_json(), None),
                            None => {
                                let (body, bytes) = &prepared.warm[warm_next % prepared.warm.len()];
                                warm_next += 1;
                                (body.clone(), Some(bytes))
                            }
                        };
                        let id = requests.fetch_add(1, Ordering::Relaxed) as u64;
                        let name = if cold_seed_used.is_some() {
                            "serve.cold"
                        } else {
                            "serve.warm"
                        };
                        let span = tracer.map(|t| t.begin(name, id, None));
                        let sent = Instant::now();
                        let response = connection.post("/compare", &body);
                        let ms = ms_since(sent);
                        if let (Some(t), Some(span)) = (tracer, span) {
                            t.end(span);
                        }
                        let ok = match (&response, cold_seed_used, expected) {
                            (Ok(r), Some(seed), _) => ctx
                                .pins
                                .get("cold", seed)
                                .is_some_and(|d| stats::response_ok(r.status, &r.body, d)),
                            (Ok(r), None, Some(Some(bytes))) => r.status == 200 && r.body == *bytes,
                            _ => false,
                        };
                        if let Some(seed) = cold_seed_used {
                            cold_seeds.lock().expect("seed log").push(seed);
                        }
                        tally.record(ok);
                        latencies.push(ms);
                    }
                    (latencies, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let window_s = started.elapsed().as_secs_f64();
    let mut latencies = Vec::new();
    let mut tally = Tally::default();
    for (l, t) in per_thread {
        latencies.extend(l);
        tally.absorb(t);
    }
    let stats = client::get(addr, "/stats")
        .ok()
        .and_then(|r| serde::json::parse(&r.text()))
        .and_then(|v| ServerStats::from_value(&v).ok());
    let mut cold_seeds = cold_seeds.into_inner().expect("seed log");
    cold_seeds.sort_unstable();
    cold_seeds.dedup();
    Window {
        latencies,
        tally,
        cold_seeds,
        seconds: window_s,
        stats,
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(ctx: &Context) -> Report {
    let (prepared, setup_s) = stats::repeated_setup(crate::SETUP_REPS, || prepare(ctx));
    let window = drive(ctx, &prepared, ctx.seconds, None);
    prepared.server.shutdown();
    let mut tally = window.tally;
    tally.record(window.stats.is_some());
    let mut report = Report::end_to_end(
        tally,
        setup_s,
        &window.latencies,
        window.latencies.len() as f64 / window.seconds,
    );
    report.info("warm_rows", 300usize);
    report.info("cold_rows", COLD_ROWS);
    report.info("cold_seeds", window.cold_seeds.len());
    report
}

/// The traced run: the same closed loop with a span per request, then
/// the cold jobs re-run through a fresh in-process engine.
pub fn trace(ctx: &Context, seconds: f64, tracer: &Tracer) -> Report {
    let prepared = prepare(ctx);
    let window = drive(ctx, &prepared, seconds, Some(tracer));
    prepared.server.shutdown();
    let mut tally = window.tally;
    let warm = tracer.durations_ms("serve.warm");
    let cold = tracer.durations_ms("serve.cold");

    for (op, &seed) in window.cold_seeds.iter().take(COMPUTE_SAMPLES).enumerate() {
        let plan = plan_compare(&cold_request(seed), &RequestLimits::default())
            .expect("valid cold request");
        let engine = Engine::new(EngineConfig {
            jobs: ENGINE_JOBS,
            chunk_threads: 1,
            root_seed: crate::ROOT_SEED,
            ..EngineConfig::default()
        });
        let sweep = tracer.span("serve.cold_compute", op as u64, None, || {
            engine.run(&plan.jobs)
        });
        tally.record(sweep.outcomes.iter().all(|o| o.record.status.is_ok()));
    }
    let compute = tracer.durations_ms("serve.cold_compute");

    let stats = window.stats.unwrap_or_default();
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let cold_p50 = median(&cold);
    let compute_ms = median(&compute);
    let metrics = vec![
        Metric::new("serve.warm_p50_ms", median(&warm), "ms"),
        Metric::new("serve.warm_tail_ms", stats::tail(&warm).value, "ms"),
        Metric::new("serve.cold_p50_ms", cold_p50, "ms"),
        Metric::new("serve.cold_compute_ms", compute_ms, "ms"),
        Metric::new("serve.cold_overhead_ms", cold_p50 - compute_ms, "ms"),
        Metric::new(
            "serve.response_hit_ratio",
            ratio(stats.response_hits, stats.response_misses),
            "ratio",
        ),
        Metric::new(
            "serve.release_hit_ratio",
            ratio(stats.cache_hits, stats.cache_misses),
            "ratio",
        ),
        Metric::new(
            "serve.evictions",
            (stats.cache_evictions + stats.vector_evictions + stats.response_evictions) as f64,
            "count",
        ),
        Metric::new("serve.shed", stats.shed_total as f64, "count"),
        Metric::new("serve.rejected", stats.rejected_total as f64, "count"),
        Metric::new("serve.traced_p50_ms", median(&window.latencies), "ms"),
    ];
    let mut report = Report::new(tally, metrics);
    report.info("serve_traced_requests", window.latencies.len());
    report.info("serve_traced_cold", cold.len());
    report
}
