//! Outside-in benchmark of the anoncmp workspace.
//!
//! Drives the public entry points of every layer from outside the
//! program — batch tournaments through `Engine::run`, the `anoncmp-serve`
//! daemon over loopback sockets, and `dist::run_supervisor` with real
//! worker processes — and prints one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_mixed --seed 1 --seconds 36 --trace 0
//! ```
//!
//! * `--workload sweep_mixed|serve_mixed|dist_journal`
//! * `--seed N` — workload seed; the same seed gives the same inputs.
//! * `--seconds S` — length of the timed window.
//! * `--trace 0|1` — `0` reports end-to-end metrics; `1` records spans
//!   around every layer call, reports per-layer metrics for all three
//!   workloads (the named one over the full window) and writes the spans
//!   to `.perfbench-work/trace-<workload>-<seed>.jsonl`.
//! * `--threads N` — engine workers (sweep), connections and serving
//!   threads (serve), worker processes (dist); default `min(2, nproc)`,
//!   and more than `nproc` is refused.
//! * `--pin PATH` — recompute every pinned output digest and write them
//!   to `PATH` (the benchmark embeds `perfbench/pinned.txt` at build time).
//!
//! The last line of standard output is
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`; the line
//! before it records the run's context (thread and process counts, rows,
//! seed, filesystem, error rate, tail percentiles).

mod dist;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use stats::Tally;
use trace::Tracer;

/// Engine root seed of every workload (the repository default).
pub const ROOT_SEED: u64 = 0xED5B_2009;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;
/// Work directory, relative to the checkout the benchmark runs in.
const WORK_DIR: &str = ".perfbench-work";
/// Pinned output digests, one `kind key digest` line each.
const PINNED: &str = include_str!("../pinned.txt");
const WORKLOADS: [&str; 3] = ["sweep_mixed", "serve_mixed", "dist_journal"];

/// Pinned output digests by `(kind, key)`.
pub struct Pins(HashMap<(String, u64), String>);

impl Pins {
    fn parse(text: &str) -> Pins {
        Pins(
            text.lines()
                .filter_map(|line| {
                    let mut fields = line.split_whitespace();
                    let kind = fields.next()?.to_owned();
                    let key = fields.next()?.parse().ok()?;
                    Some(((kind, key), fields.next()?.to_owned()))
                })
                .collect(),
        )
    }

    /// The pinned digest of `kind` output for `key`.
    pub fn get(&self, kind: &str, key: u64) -> Option<&str> {
        self.0.get(&(kind.to_owned(), key)).map(String::as_str)
    }
}

/// What every workload needs to know about the run.
pub struct Context {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Load concurrency (see `--threads`).
    pub threads: usize,
    /// Work directory inside the checkout.
    pub work_dir: PathBuf,
    /// Pinned output digests.
    pub pins: Pins,
}

/// One named metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric with its unit.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A workload's result: outcome counts, metrics and run context.
pub struct Report {
    tally: Tally,
    metrics: Vec<Metric>,
    info: Vec<(String, String)>,
}

impl Report {
    /// End-to-end metrics from a run's set-up time, operation latencies
    /// and throughput.
    pub fn end_to_end(tally: Tally, setup_s: f64, latencies_ms: &[f64], throughput: f64) -> Report {
        let tail = stats::tail(latencies_ms);
        let mut report = Report::new(
            tally,
            vec![
                Metric::new("setup_s", setup_s, "s"),
                Metric::new("p50_ms", stats::median(latencies_ms), "ms"),
                Metric::new("tail_ms", tail.value, "ms"),
                Metric::new("throughput_per_s", throughput, "1/s"),
                Metric::new("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
            ],
        );
        report.info("samples", tail.samples);
        report.info("tail_percentile", tail.percentile);
        report.info("tail_rank", tail.rank);
        report
    }

    /// A report carrying the given metrics.
    pub fn new(tally: Tally, metrics: Vec<Metric>) -> Report {
        Report {
            tally,
            metrics,
            info: Vec::new(),
        }
    }

    /// Records one context entry, rendered as JSON.
    pub fn info(&mut self, key: &str, value: impl InfoValue) {
        self.info.push((key.to_owned(), value.json()));
    }

    fn absorb(&mut self, other: Report) {
        self.tally.absorb(other.tally);
        self.metrics.extend(other.metrics);
        self.info.extend(other.info);
    }
}

/// A value the context line can carry.
pub trait InfoValue {
    /// The value as JSON.
    fn json(&self) -> String;
}

impl InfoValue for usize {
    fn json(&self) -> String {
        self.to_string()
    }
}

impl InfoValue for u64 {
    fn json(&self) -> String {
        self.to_string()
    }
}

impl InfoValue for f64 {
    fn json(&self) -> String {
        json_number(*self)
    }
}

impl InfoValue for String {
    fn json(&self) -> String {
        format!("\"{}\"", self.replace('\\', "\\\\").replace('"', "\\\""))
    }
}

impl InfoValue for &str {
    fn json(&self) -> String {
        (*self).to_owned().json()
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    pin: Option<PathBuf>,
}

fn parse_args(nproc: usize) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        threads: nproc.min(2),
        pin: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: invalid {what} {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("duration"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err(bad("duration"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            "--threads" => args.threads = value.parse().map_err(|_| bad("count"))?,
            "--pin" => args.pin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.threads == 0 || args.threads > nproc {
        return Err(format!(
            "--threads {} refused: load threads, connections and worker processes must be \
             between 1 and nproc = {nproc}",
            args.threads
        ));
    }
    if args.pin.is_none() && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn run_workload(name: &str, ctx: &Context) -> Report {
    match name {
        "sweep_mixed" => sweep::run(ctx),
        "serve_mixed" => serve::run(ctx),
        _ => dist::run(ctx),
    }
}

/// The traced run: the named workload over the full window, the other
/// two over a sixth of it each, so every per-layer metric is reported.
fn trace_all(primary: &str, ctx: &Context, tracer: &Tracer) -> Report {
    let mut report = Report::new(Tally::default(), Vec::new());
    for name in WORKLOADS {
        let seconds = if name == primary {
            ctx.seconds
        } else {
            ctx.seconds / 6.0
        };
        report.absorb(match name {
            "sweep_mixed" => sweep::trace(ctx, seconds, tracer),
            "serve_mixed" => serve::trace(ctx, seconds, tracer),
            _ => dist::trace(ctx, seconds, tracer),
        });
    }
    report
}

fn write_pins(ctx: &Context, path: &PathBuf) -> std::io::Result<()> {
    let mut out =
        String::from("# kind key digest — regenerate with `--pin perfbench/pinned.txt`\n");
    for (seed, d) in sweep::pin(ctx.threads) {
        out.push_str(&format!("sweep {seed} {d}\n"));
    }
    for (seed, d) in dist::pin(&ctx.work_dir, ctx.threads) {
        out.push_str(&format!("dist {seed} {d}\n"));
    }
    let (warm, cold) = serve::pin(ctx.threads);
    for (i, d) in warm.iter().enumerate() {
        out.push_str(&format!("warm {i} {d}\n"));
    }
    for (seed, d) in cold {
        out.push_str(&format!("cold {seed} {d}\n"));
    }
    std::fs::write(path, out)
}

fn main() -> ExitCode {
    // Worker mode: the dist supervisor re-executes this binary with the
    // shard assignment in the environment.
    match anoncmp_engine::dist::run_worker_from_env() {
        Ok(Some(_)) => return ExitCode::SUCCESS,
        Ok(None) => {}
        Err(e) => {
            eprintln!("perfbench worker: {e}");
            return ExitCode::FAILURE;
        }
    }
    let started = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let args = match parse_args(nproc) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let work_dir = PathBuf::from(WORK_DIR);
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {WORK_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let ctx = Context {
        seed: args.seed,
        seconds: args.seconds,
        threads: args.threads,
        work_dir,
        pins: Pins::parse(PINNED),
    };
    if let Some(path) = &args.pin {
        return match write_pins(&ctx, path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }
    if ctx.pins.0.is_empty() {
        eprintln!("perfbench: no pinned digests were built in; run with --pin first");
        return ExitCode::FAILURE;
    }

    let mut report = if args.trace {
        let tracer = Tracer::new();
        let report = trace_all(&args.workload, &ctx, &tracer);
        let path = ctx
            .work_dir
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
        report
    } else {
        run_workload(&args.workload, &ctx)
    };

    report.info("workload", args.workload.as_str());
    report.info("seed", args.seed);
    report.info("trace", usize::from(args.trace));
    report.info("nproc", nproc);
    report.info("sweep_engine_jobs", ctx.threads);
    report.info("chunk_threads", sweep::CHUNK_THREADS);
    report.info("sweep_rows", sweep::ROWS);
    report.info("serve_threads", ctx.threads);
    report.info("serve_connections", ctx.threads);
    report.info("serve_engine_jobs", serve::ENGINE_JOBS);
    report.info("serve_cold_rows", serve::COLD_ROWS);
    report.info("dist_worker_processes", ctx.threads);
    report.info("dist_shards", dist::SHARDS);
    report.info("dist_engine_jobs", dist::ENGINE_JOBS);
    // Dist workers leave chunk threads on auto (cores / engine jobs) and
    // take no setting for it, so record what auto resolves to.
    report.info("dist_chunk_threads", (nproc / dist::ENGINE_JOBS).max(1));
    report.info("dist_rows", dist::ROWS);
    report.info("filesystem", stats::filesystem_of(&ctx.work_dir));
    report.info("error_rate", report.tally.error_rate());
    report.info("elapsed_s", started.elapsed().as_secs_f64());

    let context: Vec<String> = report
        .info
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!("{{{}}}", context.join(","));
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = report.tally.failed == 0 && report.metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.tally.attempted,
        report.tally.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
