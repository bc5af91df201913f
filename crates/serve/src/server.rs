//! The daemon itself: accept loop, worker pool, and request dispatch.
//!
//! # Architecture
//!
//! One acceptor thread polls a nonblocking listener so it can also watch
//! the shutdown flag; `threads` worker threads pop admitted connections
//! from a bounded [`Queue`] and serve them to completion. Admission
//! control sits between the two: every connection holds a [`Permit`]
//! from accept to close, and when all permits are out the acceptor
//! answers `429 overloaded` immediately instead of queueing — bounded
//! in-flight work is what keeps the warm cache's tail latency flat under
//! overload.
//!
//! # Determinism
//!
//! All workers share ONE [`Engine`] whose caches are bounded LRU maps.
//! Because per-job seeds derive from job content and responses are built
//! exclusively from canonical records in request order, the body a client
//! reads is byte-identical whether the release came cold off a worker or
//! warm out of the cache, and whatever `threads` is.
//!
//! # Protocols
//!
//! The first byte of a connection selects the protocol: `{` means
//! JSONL-over-TCP (one request object per line, record lines + a `done`
//! trailer back), anything else is parsed as HTTP/1.1. See
//! `docs/WIRE_PROTOCOL.md` for the full surface.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use anoncmp_core::wire::{CompareRequest, ErrorBody, ErrorCode, ServerStats, SweepRequest};
use anoncmp_engine::fingerprint::Fingerprinter;
use anoncmp_engine::prelude::{Engine, EngineConfig, EvalJob, LruCache};
use anoncmp_microdata::parallel::{lock, Queue};
use serde::json::{self, ParseLimits, Value};
use serde::Serialize;

use crate::admission::{Admission, Permit};
use crate::http::{self, ChunkedWriter, HttpLimits, ReadError, Request};
use crate::requests::{plan_compare, plan_sweep, PlanError, RequestLimits};
use crate::shutdown::ShutdownFlag;

/// Server construction settings.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7171` (`:0` picks a free port).
    pub addr: String,
    /// Serving threads; `0` means one per available CPU.
    pub threads: usize,
    /// Maximum admitted (queued + active) connections; beyond this the
    /// acceptor sheds with `429`.
    pub max_inflight: usize,
    /// Release-cache LRU capacity in entries (`0` = unbounded).
    pub release_capacity: usize,
    /// Property-vector-cache LRU capacity in entries (`0` = unbounded).
    pub vector_capacity: usize,
    /// Response-cache LRU capacity in entries (`0` = unbounded). Each
    /// entry is one job batch's rendered record lines, so a repeat of a
    /// warm request skips the engine *and* serialization entirely.
    pub response_capacity: usize,
    /// Worker threads *inside* the engine per sweep (`0` = one per CPU).
    pub engine_jobs: usize,
    /// Unused: nothing reads it. Kept so existing struct literals that
    /// name it still compile.
    pub chunk_threads: usize,
    /// Per-request validation caps.
    pub limits: RequestLimits,
    /// HTTP head/body byte bounds.
    pub http: HttpLimits,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: 0,
            max_inflight: 64,
            release_capacity: 256,
            vector_capacity: 1024,
            response_capacity: 256,
            engine_jobs: 0,
            chunk_threads: 0,
            limits: RequestLimits::default(),
            http: HttpLimits::default(),
        }
    }
}

/// Shared server state: the warm engine plus counters.
struct Inner {
    engine: Engine,
    /// Rendered record lines keyed by batch content fingerprint. Safe to
    /// serve verbatim because responses are proven byte-identical for
    /// identical requests (see the determinism note above); sound even
    /// for budgeted requests because truncation selects *which* batches
    /// run, never what a batch contains.
    responses: Mutex<LruCache<u64, Arc<Vec<String>>>>,
    admission: Arc<Admission>,
    /// Admitted connections waiting for a worker. Admission caps queued
    /// plus served connections at `max_inflight`, the queue's capacity,
    /// so the acceptor's `push` never blocks.
    connections: Queue<(TcpStream, Permit)>,
    shutdown: ShutdownFlag,
    limits: RequestLimits,
    http: HttpLimits,
    started: Instant,
    threads: usize,
    requests_total: AtomicU64,
    compare_requests: AtomicU64,
    sweep_requests: AtomicU64,
    rejected_total: AtomicU64,
    response_hits: AtomicU64,
    response_misses: AtomicU64,
}

impl Inner {
    fn parse_limits(&self) -> ParseLimits {
        ParseLimits {
            max_bytes: self.http.max_body_bytes,
            ..ParseLimits::default()
        }
    }

    fn stats(&self) -> ServerStats {
        let cache = self.engine.cache_stats();
        let (vector_hits, vector_misses) = self.engine.vector_cache_stats();
        let responses = lock(&self.responses);
        ServerStats {
            requests_total: self.requests_total.load(Ordering::Relaxed),
            compare_requests: self.compare_requests.load(Ordering::Relaxed),
            sweep_requests: self.sweep_requests.load(Ordering::Relaxed),
            shed_total: self.admission.shed_total(),
            rejected_total: self.rejected_total.load(Ordering::Relaxed),
            inflight: self.admission.inflight() as u64,
            threads: self.threads as u64,
            uptime_ms: self.started.elapsed().as_millis() as u64,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_entries: cache.entries,
            cache_evictions: cache.evictions,
            vector_hits,
            vector_misses,
            vector_evictions: self.engine.vector_cache_evictions(),
            response_hits: self.response_hits.load(Ordering::Relaxed),
            response_misses: self.response_misses.load(Ordering::Relaxed),
            response_entries: responses.len() as u64,
            response_evictions: responses.evictions(),
            engine_retries: self.engine.retries_total(),
            engine_quarantined: self.engine.quarantined_total(),
            journal_appends: self.engine.journal_appends(),
        }
    }
}

/// A running server: address, stats, and the shutdown lever.
pub struct ServerHandle {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A current stats snapshot (same values `GET /stats` serves).
    pub fn stats(&self) -> ServerStats {
        self.inner.stats()
    }

    /// The shared shutdown flag (hook it to signals with
    /// [`ShutdownFlag::on_signals`] before passing it in [`serve`]).
    pub fn shutdown_flag(&self) -> ShutdownFlag {
        self.inner.shutdown.clone()
    }

    /// Requests shutdown and blocks until the acceptor stops and every
    /// in-flight connection drains. Connections accepted before the
    /// request finish their current response; new ones are refused.
    pub fn shutdown(mut self) {
        self.inner.shutdown.request();
        self.join();
    }

    /// Blocks until the server stops (e.g. on SIGINT/SIGTERM when the
    /// flag is signal-hooked).
    pub fn wait(mut self) {
        self.join();
    }

    fn join(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // The acceptor is gone (returned or panicked), so nothing pushes
        // any more: closing lets the workers drain the queue and stop.
        self.inner.connections.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.inner.shutdown.request();
        self.join();
    }
}

/// Starts the daemon: binds, spawns the acceptor and worker threads, and
/// returns immediately. `shutdown` is the caller's lever — pass
/// `ShutdownFlag::new().on_signals()` to drain on SIGINT/SIGTERM.
pub fn serve(config: ServeConfig, shutdown: ShutdownFlag) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let threads = match config.threads {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    };
    let engine = Engine::new(EngineConfig {
        jobs: config.engine_jobs,
        release_capacity: config.release_capacity,
        vector_capacity: config.vector_capacity,
        ..EngineConfig::default()
    });
    let inner = Arc::new(Inner {
        engine,
        responses: Mutex::new(LruCache::new(config.response_capacity)),
        admission: Admission::new(config.max_inflight),
        connections: Queue::bounded(config.max_inflight),
        shutdown,
        limits: config.limits,
        http: config.http,
        started: Instant::now(),
        threads,
        requests_total: AtomicU64::new(0),
        compare_requests: AtomicU64::new(0),
        sweep_requests: AtomicU64::new(0),
        rejected_total: AtomicU64::new(0),
        response_hits: AtomicU64::new(0),
        response_misses: AtomicU64::new(0),
    });

    let acceptor = {
        let inner = inner.clone();
        std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener, &inner))?
    };

    let mut workers = Vec::with_capacity(threads);
    for i in 0..threads {
        let inner = inner.clone();
        workers.push(
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || {
                    while let Some((stream, permit)) = inner.connections.pop() {
                        handle_connection(&inner, stream);
                        drop(permit);
                    }
                })?,
        );
    }

    Ok(ServerHandle {
        inner,
        addr,
        acceptor: Some(acceptor),
        workers,
    })
}

/// Accepts until shutdown; sheds when admission is full.
fn accept_loop(listener: TcpListener, inner: &Arc<Inner>) {
    // Adaptive poll backoff: a busy server re-polls almost immediately
    // (accept latency is on every request's critical path), an idle one
    // backs off to 5 ms so the daemon doesn't spin.
    const MIN_BACKOFF: Duration = Duration::from_micros(100);
    const MAX_BACKOFF: Duration = Duration::from_millis(5);
    let mut backoff = MIN_BACKOFF;
    while !inner.shutdown.requested() {
        match listener.accept() {
            Ok((stream, _)) => {
                backoff = MIN_BACKOFF;
                match inner.admission.try_acquire() {
                    Some(permit) => {
                        inner.connections.push((stream, permit));
                    }
                    None => shed(stream),
                }
            }
            Err(_) => {
                // WouldBlock (no pending connection) or a transient
                // accept failure: wait and re-poll.
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(MAX_BACKOFF);
            }
        }
    }
}

/// Writes the `429 overloaded` answer inline on the acceptor thread: a
/// shed must cost a bounded moment, not a queue slot.
///
/// Closing a socket whose request bytes were never read makes the kernel
/// answer with a TCP reset, which can reach the client before the 429
/// does. So the answer is followed by a half-close (the client sees the
/// response, then end of stream) and the request is read and discarded
/// until the client closes — at most [`SHED_DRAIN_BYTES`] bytes within
/// [`SHED_LINGER`].
fn shed(mut stream: TcpStream) {
    let body = ErrorBody::new(ErrorCode::Overloaded, "admission queue full; retry").to_json();
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    if http::write_response(&mut stream, 429, &body, false).is_err() {
        return;
    }
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + SHED_LINGER;
    let mut buf = [0u8; 4096];
    let mut drained = 0;
    while drained < SHED_DRAIN_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => drained += n,
        }
    }
}

/// The longest a shed waits for the client to close after the 429.
const SHED_LINGER: Duration = Duration::from_millis(50);

/// The most request bytes a shed reads and discards.
const SHED_DRAIN_BYTES: usize = 64 * 1024;

/// Idle read timeout on keep-alive connections.
const KEEPALIVE_TIMEOUT: Duration = Duration::from_secs(2);

/// Serves one connection to completion, sniffing the protocol from the
/// first byte: a `{` can never start an HTTP request line, so it selects
/// the raw JSONL mode.
fn handle_connection(inner: &Arc<Inner>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(KEEPALIVE_TIMEOUT));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_nodelay(true);
    let mut first = [0u8; 1];
    match stream.peek(&mut first) {
        Ok(1) if first[0] == b'{' => jsonl_connection(inner, stream),
        Ok(1) => http_connection(inner, stream),
        _ => {}
    }
}

/// The HTTP/1.1 side: keep-alive loop, one request per iteration.
fn http_connection(inner: &Arc<Inner>, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        let request = match http::read_request(&mut reader, &inner.http) {
            Ok(request) => request,
            Err(ReadError::Closed) => return,
            Err(ReadError::Malformed(reason)) => {
                inner.rejected_total.fetch_add(1, Ordering::Relaxed);
                let body = ErrorBody::new(ErrorCode::BadRequest, reason).to_json();
                let _ = http::write_response(&mut writer, 400, &body, false);
                return;
            }
            Err(ReadError::BodyTooLarge(declared)) => {
                inner.rejected_total.fetch_add(1, Ordering::Relaxed);
                let body = ErrorBody::new(
                    ErrorCode::PayloadTooLarge,
                    format!(
                        "body of {declared} bytes exceeds the {}-byte limit",
                        inner.http.max_body_bytes
                    ),
                )
                .to_json();
                let _ = http::write_response(&mut writer, 413, &body, false);
                return;
            }
            Err(ReadError::Io(_)) => return, // timeout or reset: just close
        };
        let keep_alive = request.keep_alive() && !inner.shutdown.requested();
        if dispatch_http(inner, &request, &mut writer, keep_alive).is_err() {
            return;
        }
        if !keep_alive {
            return;
        }
    }
}

/// Routes one HTTP request. Io errors propagate (closing the
/// connection); protocol-level failures answer with the error envelope.
fn dispatch_http(
    inner: &Arc<Inner>,
    request: &Request,
    writer: &mut impl Write,
    keep_alive: bool,
) -> io::Result<()> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            inner.requests_total.fetch_add(1, Ordering::Relaxed);
            http::write_response(writer, 200, "{\"ok\":true}", keep_alive)
        }
        ("GET", "/stats") => {
            inner.requests_total.fetch_add(1, Ordering::Relaxed);
            http::write_response(writer, 200, &inner.stats().to_json(), keep_alive)
        }
        ("POST", "/compare") => match decode_compare(inner, &request.body) {
            Ok(request) => {
                let (lines, truncated) = run_compare(inner, &request);
                let mut body = String::from("{\"results\":[");
                for (i, line) in lines.iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    body.push_str(line);
                }
                body.push_str(if truncated {
                    "],\"truncated\":true}"
                } else {
                    "],\"truncated\":false}"
                });
                http::write_response(writer, 200, &body, keep_alive)
            }
            Err(error) => {
                inner.rejected_total.fetch_add(1, Ordering::Relaxed);
                http::write_response(
                    writer,
                    error.code.http_status(),
                    &error.to_json(),
                    keep_alive,
                )
            }
        },
        ("POST", "/sweep") => match decode_sweep(inner, &request.body) {
            Ok(request) => {
                let mut chunks = ChunkedWriter::start(writer, 200, keep_alive)?;
                stream_sweep(inner, &request, |line| chunks.chunk(line))?;
                chunks.finish()
            }
            Err(error) => {
                inner.rejected_total.fetch_add(1, Ordering::Relaxed);
                http::write_response(
                    writer,
                    error.code.http_status(),
                    &error.to_json(),
                    keep_alive,
                )
            }
        },
        ("GET" | "POST", "/compare" | "/sweep" | "/stats" | "/healthz") => {
            inner.rejected_total.fetch_add(1, Ordering::Relaxed);
            let body = ErrorBody::new(
                ErrorCode::NotFound,
                format!("{} is not supported on {}", request.method, request.path),
            )
            .to_json();
            http::write_response(writer, 405, &body, keep_alive)
        }
        (_, path) => {
            inner.rejected_total.fetch_add(1, Ordering::Relaxed);
            let body =
                ErrorBody::new(ErrorCode::NotFound, format!("no such endpoint {path}")).to_json();
            http::write_response(writer, 404, &body, keep_alive)
        }
    }
}

/// The raw JSONL-over-TCP side: one request object per line; responses
/// are record lines plus a `done` trailer (errors are `error` lines).
fn jsonl_connection(inner: &Arc<Inner>, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match io::BufRead::read_line(&mut reader, &mut line) {
            Ok(0) => return,
            Ok(_) => {}
            Err(_) => return, // idle timeout or reset
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if serve_jsonl_line(inner, trimmed, &mut writer).is_err() {
            return;
        }
        if writer.flush().is_err() || inner.shutdown.requested() {
            return;
        }
    }
}

/// Serves one JSONL request line.
fn serve_jsonl_line(inner: &Arc<Inner>, line: &str, writer: &mut impl Write) -> io::Result<()> {
    let error_line = |writer: &mut dyn Write, error: &ErrorBody| -> io::Result<()> {
        inner.rejected_total.fetch_add(1, Ordering::Relaxed);
        writeln!(writer, "{}", error.to_json())
    };
    let Some(value) = json::parse_with_limits(line, inner.parse_limits()) else {
        return error_line(
            writer,
            &ErrorBody::new(ErrorCode::BadRequest, "invalid JSON request line"),
        );
    };
    match value.get("op").and_then(Value::as_str) {
        Some("stats") => {
            inner.requests_total.fetch_add(1, Ordering::Relaxed);
            writeln!(writer, "{}", inner.stats().to_json())
        }
        Some("compare") => match CompareRequest::from_value(&value)
            .map_err(|m| ErrorBody::new(ErrorCode::BadRequest, m))
            .and_then(|request| {
                plan_compare(&request, &inner.limits).map_err(plan_error_body)?;
                Ok(request)
            }) {
            Ok(request) => {
                let (lines, truncated) = run_compare(inner, &request);
                for record in lines.iter() {
                    writeln!(writer, "{record}")?;
                }
                write_done(writer, lines.len(), truncated)
            }
            Err(error) => error_line(writer, &error),
        },
        Some("sweep") => match SweepRequest::from_value(&value)
            .map_err(|m| ErrorBody::new(ErrorCode::BadRequest, m))
        {
            Ok(request) => match decode_sweep_request(inner, &request) {
                Ok(()) => stream_sweep(inner, &request, |chunk| {
                    // Chunks already end each line with '\n'.
                    writer.write_all(chunk.as_bytes())
                }),
                Err(error) => error_line(writer, &error),
            },
            Err(error) => error_line(writer, &error),
        },
        _ => error_line(
            writer,
            &ErrorBody::new(
                ErrorCode::BadRequest,
                "\"op\" must be \"compare\", \"sweep\", or \"stats\"",
            ),
        ),
    }
}

fn write_done(writer: &mut impl Write, records: usize, truncated: bool) -> io::Result<()> {
    if truncated {
        writeln!(
            writer,
            "{{\"done\":true,\"records\":{records},\"truncated\":true,\"code\":\"deadline_exceeded\"}}"
        )
    } else {
        writeln!(
            writer,
            "{{\"done\":true,\"records\":{records},\"truncated\":false}}"
        )
    }
}

fn decode_compare(inner: &Arc<Inner>, body: &[u8]) -> Result<CompareRequest, ErrorBody> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ErrorBody::new(ErrorCode::BadRequest, "body is not utf-8"))?;
    let value = json::parse_with_limits(text, inner.parse_limits())
        .ok_or_else(|| ErrorBody::new(ErrorCode::BadRequest, "body is not valid JSON"))?;
    let request =
        CompareRequest::from_value(&value).map_err(|m| ErrorBody::new(ErrorCode::BadRequest, m))?;
    // Full validation up front: a request that will be rejected must be
    // rejected before the 200 status line is committed.
    plan_compare(&request, &inner.limits).map_err(plan_error_body)?;
    Ok(request)
}

fn decode_sweep(inner: &Arc<Inner>, body: &[u8]) -> Result<SweepRequest, ErrorBody> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ErrorBody::new(ErrorCode::BadRequest, "body is not utf-8"))?;
    let value = json::parse_with_limits(text, inner.parse_limits())
        .ok_or_else(|| ErrorBody::new(ErrorCode::BadRequest, "body is not valid JSON"))?;
    let request =
        SweepRequest::from_value(&value).map_err(|m| ErrorBody::new(ErrorCode::BadRequest, m))?;
    decode_sweep_request(inner, &request)?;
    Ok(request)
}

fn decode_sweep_request(inner: &Arc<Inner>, request: &SweepRequest) -> Result<(), ErrorBody> {
    plan_sweep(request, &inner.limits)
        .map(|_| ())
        .map_err(plan_error_body)
}

/// Maps a planning refusal onto the wire error model: an over-cap dataset
/// is a 413 (the client should shrink and retry), anything else a 400.
fn plan_error_body(error: PlanError) -> ErrorBody {
    match error {
        PlanError::TooLarge(m) => ErrorBody::new(ErrorCode::PayloadTooLarge, m),
        PlanError::Invalid(m) => ErrorBody::new(ErrorCode::BadRequest, m),
    }
}

/// Runs a (pre-validated) compare request. Returns the canonical record
/// lines in request order plus whether the budget truncated them.
///
/// Without a budget the whole batch goes to the engine at once (its own
/// worker pool parallelizes across algorithms). With a budget, jobs run
/// one at a time with a deadline check between them — coarser-grained
/// than the engine's per-job budget, but it never mutates shared engine
/// state, so concurrent requests cannot observe each other's deadlines.
fn run_compare(inner: &Arc<Inner>, request: &CompareRequest) -> (Arc<Vec<String>>, bool) {
    inner.requests_total.fetch_add(1, Ordering::Relaxed);
    inner.compare_requests.fetch_add(1, Ordering::Relaxed);
    let plan = plan_compare(request, &inner.limits).expect("request pre-validated");
    match plan.budget_ms {
        None => (run_jobs(inner, &plan.jobs), false),
        Some(budget_ms) => {
            let deadline = Instant::now() + Duration::from_millis(budget_ms);
            let mut lines = Vec::with_capacity(plan.jobs.len());
            for job in &plan.jobs {
                if Instant::now() >= deadline {
                    return (Arc::new(lines), true);
                }
                lines.extend(run_jobs(inner, std::slice::from_ref(job)).iter().cloned());
            }
            (Arc::new(lines), false)
        }
    }
}

/// Streams a (pre-validated) sweep request: one `emit` call per grid
/// point carrying that point's canonical record lines, then the `done`
/// trailer. The deadline is checked between grid points, so a truncated
/// stream always ends on a batch boundary with every emitted line whole.
fn stream_sweep(
    inner: &Arc<Inner>,
    request: &SweepRequest,
    mut emit: impl FnMut(&str) -> io::Result<()>,
) -> io::Result<()> {
    inner.requests_total.fetch_add(1, Ordering::Relaxed);
    inner.sweep_requests.fetch_add(1, Ordering::Relaxed);
    let plan = plan_sweep(request, &inner.limits).expect("request pre-validated");
    let deadline = plan
        .budget_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let mut records = 0usize;
    for (_, jobs) in &plan.batches {
        if let Some(deadline) = deadline {
            if Instant::now() >= deadline {
                let mut trailer = Vec::new();
                write_done(&mut trailer, records, true)?;
                return emit(std::str::from_utf8(&trailer).expect("ascii trailer"));
            }
        }
        let lines = run_jobs(inner, jobs);
        records += lines.len();
        let mut chunk = String::new();
        for line in lines.iter() {
            chunk.push_str(line);
            chunk.push('\n');
        }
        emit(&chunk)?;
    }
    let mut trailer = Vec::new();
    write_done(&mut trailer, records, false)?;
    emit(std::str::from_utf8(&trailer).expect("ascii trailer"))
}

/// Runs jobs on the shared warm engine and renders canonical JSONL lines
/// in submission order — the *only* way request handlers produce record
/// bytes, which is what makes responses scheduling-independent.
///
/// Rendered batches are memoized in the response LRU keyed by batch
/// content, so a repeated warm request costs one hash + one lookup
/// instead of an engine pass plus re-serialization. A concurrent miss on
/// the same key may compute twice; `get_or_insert` keeps the first
/// insert and determinism makes both values byte-identical, so either
/// is correct to serve.
fn run_jobs(inner: &Arc<Inner>, jobs: &[EvalJob]) -> Arc<Vec<String>> {
    let key = batch_fingerprint(jobs);
    if let Some(lines) = lock(&inner.responses).get(&key) {
        inner.response_hits.fetch_add(1, Ordering::Relaxed);
        return lines;
    }
    inner.response_misses.fetch_add(1, Ordering::Relaxed);
    let lines: Vec<String> = inner
        .engine
        .run(jobs)
        .outcomes
        .iter()
        .map(|o| o.record.canonical().to_jsonl())
        .collect();
    lock(&inner.responses).get_or_insert(key, Arc::new(lines))
}

/// Content fingerprint of a job batch: order-sensitive fold of each
/// job's full fingerprint (release × properties), so two batches collide
/// only if they would render the same lines in the same order.
fn batch_fingerprint(jobs: &[EvalJob]) -> u64 {
    let mut f = Fingerprinter::new();
    f.write_usize(jobs.len());
    for job in jobs {
        f.write_u64(job.job_fingerprint());
    }
    f.finish()
}
