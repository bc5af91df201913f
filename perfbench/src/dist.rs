//! `dist_journal`: `anoncmp dist` as a closed loop with one caller.
//!
//! Each operation is one `dist::run_supervisor` run in a fresh directory:
//! two worker processes (this binary re-executed) over eight shards, each
//! worker with one engine thread, on a cheap fixed grid — census 300 rows,
//! six methods of both families × twelve k values, bounded loss — so the
//! time goes to process spawn, fsync'd journal appends, heartbeats and
//! the merge rather than to compute. Operations rotate over pinned
//! dataset seeds; every merged journal must match its pinned digest.
//!
//! A worker joins its heartbeat thread before exiting, and that thread
//! sleeps 25 ms between beats, so a shard's wall time is rounded up to a
//! multiple of 25 ms. With four shards of 18 jobs, a shard's run time
//! (7–40 ms on a 2-vCPU host) crossed that step in about one shard in
//! five, and the median operation flipped between two modes 25 ms apart
//! from run to run. Eight shards of 9 jobs stay under the step in about
//! 99 shards in 100.

use std::path::{Path, PathBuf};
use std::time::Instant;

use anoncmp_core::wire::WireDataset;
use anoncmp_engine::dist::{self, DistConfig, DistReport, GridSpec, WorkerCommand};
use anoncmp_engine::prelude::*;

use crate::stats::{self, median, ms_since, Tally};
use crate::trace::Tracer;
use crate::{Context, Metric, Report};

/// Rows of every grid point's dataset.
pub const ROWS: usize = 300;
/// Fingerprint-range shards of the plan.
pub const SHARDS: usize = 8;
/// Engine threads inside each worker process.
pub const ENGINE_JOBS: usize = 1;
/// Pinned dataset seeds: `POOL_BASE + i` for `i < POOL`; a run visits
/// all of them in a seed-derived order.
pub const POOL: usize = 8;
const POOL_BASE: u64 = 0xD157_0000;
const ALGORITHMS: [&str; 6] = [
    "datafly",
    "mondrian",
    "top-down",
    "noise:0.05",
    "rankswap:8",
    "microagg:5",
];
const KS: [usize; 12] = [2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 20];

/// The pinned dataset seed at pool index `i`.
pub fn pool_seed(i: usize) -> u64 {
    POOL_BASE + i as u64
}

/// The grid of one operation.
pub fn grid(dataset_seed: u64) -> GridSpec {
    GridSpec {
        dataset: WireDataset::Census {
            rows: ROWS,
            seed: dataset_seed,
            zip_pool: 25,
        },
        algorithms: ALGORITHMS.iter().map(|s| (*s).to_owned()).collect(),
        ks: KS.to_vec(),
        max_suppression: ROWS / 20,
        properties: vec!["bounded-loss".into()],
        root_seed: crate::ROOT_SEED,
        shards: SHARDS,
        engine_jobs: ENGINE_JOBS,
    }
}

/// One supervised run: its report, merged digest and caller-side time.
struct Operation {
    report: DistReport,
    digest: String,
    wall_ms: f64,
}

fn operation(dir: &Path, workers: usize, spec: &GridSpec) -> std::io::Result<Operation> {
    let _ = std::fs::remove_dir_all(dir);
    let worker = WorkerCommand::current_exe(Vec::new())?;
    let config = DistConfig::new(dir, workers);
    let started = Instant::now();
    let report = dist::run_supervisor(spec, &config, &worker)?;
    let wall_ms = ms_since(started);
    let digest = dist::file_digest(&report.merged_path)?;
    Ok(Operation {
        report,
        digest,
        wall_ms,
    })
}

impl Operation {
    fn ok(&self, expected: Option<&str>) -> bool {
        self.report.restarts == 0
            && self.report.quarantined_total() == 0
            && self.report.merge.missing == 0
            && expected == Some(self.digest.as_str())
    }
}

/// Pinned merged-journal digest of every pool seed (`--pin`).
pub fn pin(work: &Path, workers: usize) -> Vec<(u64, String)> {
    let dir = work.join("dist-pin");
    let pins = (0..POOL)
        .map(|i| {
            let op = operation(&dir, workers, &grid(pool_seed(i))).expect("dist pin run");
            assert_eq!(op.report.restarts, 0, "dist pin: worker restarts");
            (pool_seed(i), op.digest)
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    pins
}

/// Set-up: the rotation plus one warm-up operation, which spawns the
/// worker binary once so its pages are resident. Also returns whether
/// the warm-up's output matched its pin.
fn prepare(ctx: &Context, dir: &Path) -> (Vec<(u64, GridSpec)>, bool) {
    let plan: Vec<(u64, GridSpec)> = stats::rotation(ctx.seed, POOL, POOL)
        .into_iter()
        .map(|i| (pool_seed(i), grid(pool_seed(i))))
        .collect();
    let ok = operation(dir, ctx.threads, &plan[0].1)
        .is_ok_and(|op| op.ok(ctx.pins.get("dist", plan[0].0)));
    (plan, ok)
}

fn op_dir(ctx: &Context) -> PathBuf {
    ctx.work_dir.join("dist")
}

/// The untraced run: end-to-end metrics.
pub fn run(ctx: &Context) -> Report {
    let dir = op_dir(ctx);
    let ((plan, warmed), setup_s) = stats::repeated_setup(crate::SETUP_REPS, || prepare(ctx, &dir));
    let mut tally = Tally::default();
    tally.record(warmed);
    let mut latencies = Vec::new();
    let mut merged = 0usize;
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < ctx.seconds {
        let (seed, spec) = &plan[latencies.len() % plan.len()];
        match operation(&dir, ctx.threads, spec) {
            Ok(op) => {
                latencies.push(op.wall_ms);
                merged += op.report.merge.merged;
                tally.record(op.ok(ctx.pins.get("dist", *seed)));
            }
            Err(e) => {
                eprintln!("perfbench: dist operation failed: {e}");
                latencies.push(f64::NAN);
                tally.record(false);
            }
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    latencies.retain(|ms| ms.is_finite());
    let mut report = Report::end_to_end(tally, setup_s, &latencies, merged as f64 / window_s);
    report.info("rows", ROWS);
    report.info("jobs_per_op", ALGORITHMS.len() * KS.len());
    report
}

/// The traced run: the supervisor's own accounting per operation, a
/// journal-append replay, and the same grid in-process on one engine
/// thread.
pub fn trace(ctx: &Context, seconds: f64, tracer: &Tracer) -> Report {
    let dir = op_dir(ctx);
    let (plan, warmed) = prepare(ctx, &dir);
    let mut tally = Tally::default();
    tally.record(warmed);
    let mut rows: Vec<[f64; 7]> = Vec::new();
    let window = Instant::now();
    let mut op_id = 0u64;
    while op_id == 0 || window.elapsed().as_secs_f64() < seconds {
        let (seed, spec) = &plan[op_id as usize % plan.len()];
        let span = tracer.begin("dist.op", op_id, None);
        let op = operation(&dir, ctx.threads, spec);
        tracer.end(span);
        let Ok(op) = op else {
            tally.record(false);
            op_id += 1;
            continue;
        };
        tally.record(op.ok(ctx.pins.get("dist", *seed)));

        let mut busy = vec![0.0f64; ctx.threads];
        for shard in &op.report.shards {
            busy[shard.worker_slot] += shard.wall_ms as f64;
        }
        let worker_max = busy.iter().copied().fold(0.0, f64::max);
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        let merge_ms = op.report.merge.wall_ms as f64;

        let append_ms = replay_appends(
            tracer,
            op_id,
            &op.report.merged_path,
            &dir.join("scratch.jsonl"),
        );
        tally.record(append_ms.is_some());

        let engine = Engine::new(EngineConfig {
            jobs: ENGINE_JOBS,
            chunk_threads: 1,
            root_seed: crate::ROOT_SEED,
            ..EngineConfig::default()
        });
        let jobs = spec.jobs().expect("grid expands");
        let sweep = tracer.span("dist.compute", op_id, None, || engine.run(&jobs));
        tally.record(sweep.outcomes.iter().all(|o| o.record.status.is_ok()));

        rows.push([
            worker_max,
            if mean > 0.0 { worker_max / mean } else { 1.0 },
            merge_ms,
            op.report.merge.bytes as f64,
            op.wall_ms - worker_max - merge_ms,
            f64::from(op.report.restarts),
            append_ms.unwrap_or(f64::NAN),
        ]);
        op_id += 1;
    }
    let _ = std::fs::remove_dir_all(&dir);
    let column = |i: usize| median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
    let metrics = vec![
        Metric::new("dist.worker_max_ms", column(0), "ms"),
        Metric::new("dist.imbalance", column(1), "ratio"),
        Metric::new("dist.merge_ms", column(2), "ms"),
        Metric::new("dist.merge_bytes", column(3), "bytes"),
        Metric::new("dist.overhead_ms", column(4), "ms"),
        Metric::new("dist.restarts", column(5), "count"),
        Metric::new("engine.journal_append_ms", column(6), "ms"),
        Metric::new(
            "dist.compute_ms",
            median(&tracer.durations_ms("dist.compute")),
            "ms",
        ),
        Metric::new(
            "dist.traced_p50_ms",
            median(&tracer.durations_ms("dist.op")),
            "ms",
        ),
    ];
    let mut report = Report::new(tally, metrics);
    report.info("dist_traced_ops", rows.len());
    report
}

/// Appends the operation's merged records to a scratch journal, one
/// fsync'd `Journal::append` each, and returns the mean time per append.
fn replay_appends(tracer: &Tracer, op_id: u64, merged: &Path, scratch: &Path) -> Option<f64> {
    let replay = Journal::replay(merged).ok()?;
    let mut records: Vec<_> = replay.completed.into_iter().collect();
    records.sort_by_key(|(fingerprint, _)| *fingerprint);
    let mut journal = Journal::create(scratch).ok()?;
    for (fingerprint, record) in &records {
        tracer
            .span("engine.journal_append", op_id, None, || {
                journal.append(*fingerprint, record)
            })
            .ok()?;
    }
    let total = tracer.total_ms(op_id, "engine.journal_append");
    (!records.is_empty()).then(|| total / records.len() as f64)
}
