//! Sharded multi-process sweep execution with deterministic merge.
//!
//! A single [`Engine`] process is bounded by one machine-process's cores.
//! This module shards a sweep grid across N worker **processes**, using
//! the PR 4 write-ahead [`Journal`] as the coordination substrate, and
//! merges the per-shard journals into an artifact that is byte-identical
//! to a single-process run.
//!
//! # Shard planner
//!
//! The grid is partitioned by **content fingerprint**, never by position:
//! shard `i` of `S` owns the job-fingerprint range
//! `[⌈i·2⁶⁴/S⌉, ⌈(i+1)·2⁶⁴/S⌉ − 1]`, and [`shard_of`] computes
//! `⌊fp·S/2⁶⁴⌋` — provably the index of the unique range containing
//! `fp`. Because [`EvalJob::job_fingerprint`] depends only on the job's
//! content, the assignment is a pure function of `(job, shard count)`:
//! every job lands in exactly one shard, and the mapping is independent
//! of worker count, scheduling, and wall clock. Workers drain a queue of
//! shards, so `--workers` only changes *who* runs a shard, never *what*
//! a shard contains.
//!
//! # Worker protocol
//!
//! The supervisor spawns ordinary child processes and passes the
//! assignment through environment variables (`ANONCMP_DIST_DIR`,
//! `ANONCMP_DIST_SHARD`); any binary that calls [`run_worker_from_env`]
//! early in `main` can serve as a worker. A worker loads the shared
//! `spec.json`, filters the expanded grid to its shard, resumes the
//! per-shard journal `shard-<i>.jsonl` (whose header binds it to the
//! shard's fingerprint range — see [`ShardMeta`]), runs the existing
//! [`Engine`] against the remainder, and exits 0 after writing
//! `shard-<i>.summary.json`. While running it heartbeats
//! `shard-<i>.hb` (atomic tmp+rename) with a beat counter and the
//! journal-append progress marker.
//!
//! # Failure and reassignment
//!
//! The supervisor polls children for exit and heartbeat freshness. A
//! worker that dies (any abnormal exit, e.g. `kill -9`) or stalls (no
//! heartbeat change within the stall timeout — such workers are killed)
//! has its shard requeued; the next free worker resumes the shard's
//! journal and repeats **no work**, because everything the dead worker
//! completed was fsync'd before it was reported. [`DistChaos`] extends
//! the PR 4 chaos layer to whole-worker loss: a seeded, content-derived
//! plan aborts one worker (`std::process::abort`, no cleanup) after an
//! exact number of journal appends, and tests assert exact-count healing
//! (`resumed == kill_after` on the respawn).
//!
//! # Merge proof
//!
//! [`merge_shards`] replays every shard journal, drops duplicate
//! envelopes (same fingerprint and identical canonical record — a
//! reassigned shard may re-emit records replay already served), and
//! writes one canonical envelope line per unique grid job **in
//! submission order**. Canonical lines zero the scheduling-dependent
//! fields (`duration_ms`, `cache_hit`) and recompute the CRC, so the
//! merged artifact is a pure function of the grid and the records —
//! byte-identical across worker counts, shard counts, and kill points,
//! and identical to a single-process journal passed through the same
//! canonicalization ([`canonical_journal`]). Two records for the same
//! fingerprint that differ canonically would mean nondeterminism; the
//! merge refuses with `InvalidData` rather than pick one.
//!
//! [`EvalJob::job_fingerprint`]: crate::job::EvalJob::job_fingerprint

use std::collections::{HashMap, HashSet, VecDeque};
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use anoncmp_core::wire::WireDataset;
use serde::json::Value;
use serde::Serialize;

use crate::chaos::ChaosConfig;
use crate::engine::{Engine, EngineConfig};
use crate::fingerprint::derive_seed;
use crate::job::{AlgorithmSpec, DatasetSpec, EvalJob, PropertySpec};
use crate::journal::{Journal, ShardMeta};
use crate::record::EvalRecord;

/// Environment variable carrying the dist directory to a worker process.
pub const ENV_DIR: &str = "ANONCMP_DIST_DIR";
/// Environment variable carrying the worker's shard index.
pub const ENV_SHARD: &str = "ANONCMP_DIST_SHARD";
/// Chaos: abort the worker process after this many journal appends.
pub const ENV_ABORT_AFTER: &str = "ANONCMP_DIST_ABORT_AFTER";
/// Chaos: hang the worker (no heartbeats) for this many milliseconds
/// before doing anything, to exercise stall detection.
pub const ENV_HANG_MS: &str = "ANONCMP_DIST_HANG_MS";

/// How often a worker refreshes its heartbeat file.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(25);
/// How often the supervisor polls children and heartbeats.
const POLL_INTERVAL: Duration = Duration::from_millis(10);
/// Worker deaths tolerated across the whole run before the supervisor
/// gives up.
const MAX_RESTARTS: u32 = 4;

/// An inclusive job-fingerprint range owned by one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// Inclusive low end.
    pub lo: u64,
    /// Inclusive high end.
    pub hi: u64,
}

impl ShardRange {
    /// Whether the fingerprint falls inside this range.
    pub fn contains(&self, fingerprint: u64) -> bool {
        (self.lo..=self.hi).contains(&fingerprint)
    }
}

/// Plans `shards` contiguous fingerprint ranges that exactly partition
/// the `u64` space: shard `i` covers `[⌈i·2⁶⁴/S⌉, ⌈(i+1)·2⁶⁴/S⌉ − 1]`.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn plan_shards(shards: usize) -> Vec<ShardRange> {
    assert!(shards > 0, "a shard plan needs at least one shard");
    let s = shards as u128;
    (0..shards)
        .map(|i| {
            let lo = ((i as u128) << 64).div_ceil(s) as u64;
            let hi = if i + 1 == shards {
                u64::MAX
            } else {
                ((((i + 1) as u128) << 64).div_ceil(s) - 1) as u64
            };
            ShardRange { lo, hi }
        })
        .collect()
}

/// The shard owning `fingerprint` under a `shards`-way plan:
/// `⌊fingerprint·shards/2⁶⁴⌋`, consistent with [`plan_shards`] by
/// construction (`⌊fp·S/2⁶⁴⌋ = i  ⇔  ⌈i·2⁶⁴/S⌉ ≤ fp < ⌈(i+1)·2⁶⁴/S⌉`).
pub fn shard_of(fingerprint: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    ((fingerprint as u128 * shards as u128) >> 64) as usize
}

/// A self-contained, serializable description of a sweep grid — the one
/// artifact (`spec.json`) supervisor and workers must agree on.
///
/// Algorithms and properties are carried by wire name so the spec stays
/// a plain-text contract; empty lists mean the defaults (the paper's
/// standard suite, and each algorithm's
/// [`AlgorithmSpec::properties_or_default`]).
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Dataset every grid point anonymizes.
    pub dataset: WireDataset,
    /// Algorithm wire names (empty = the standard suite).
    pub algorithms: Vec<String>,
    /// The k values of the sweep (outer grid axis).
    pub ks: Vec<usize>,
    /// Suppression budget shared by every grid point.
    pub max_suppression: usize,
    /// Property tags every grid point extracts (empty = each algorithm's
    /// [`AlgorithmSpec::properties_or_default`]: `eq-class-size` for
    /// generalization, `bounded-loss` for perturbation).
    pub properties: Vec<String>,
    /// Engine root seed (per-job seeds derive from it plus content).
    pub root_seed: u64,
    /// Shard count of the plan. Fixed per run and independent of the
    /// worker count, so the job→shard assignment never moves.
    pub shards: usize,
    /// Worker-internal engine threads (`0` = auto: cores ÷ shards).
    pub engine_jobs: usize,
}

impl GridSpec {
    /// Expands the grid into jobs, k-major then algorithm — the
    /// submission order the merged journal is canonical in. Unknown
    /// algorithm or property names are an error (mock algorithms are
    /// not reachable from a spec).
    pub fn jobs(&self) -> Result<Vec<EvalJob>, String> {
        let algorithms: Vec<AlgorithmSpec> = if self.algorithms.is_empty() {
            AlgorithmSpec::standard_suite()
        } else {
            self.algorithms
                .iter()
                .map(|name| {
                    AlgorithmSpec::by_name(name)
                        .ok_or_else(|| format!("unknown algorithm {name:?}"))
                })
                .collect::<Result<_, _>>()?
        };
        let properties: Vec<PropertySpec> = self
            .properties
            .iter()
            .map(|tag| PropertySpec::by_tag(tag).ok_or_else(|| format!("unknown property {tag:?}")))
            .collect::<Result<_, _>>()?;
        let dataset = match self.dataset {
            WireDataset::Census {
                rows,
                seed,
                zip_pool,
            } => DatasetSpec::Census {
                rows,
                seed,
                zip_pool,
            },
            WireDataset::Hospital { rows, seed } => DatasetSpec::Hospital { rows, seed },
        };
        let mut jobs = Vec::with_capacity(self.ks.len() * algorithms.len());
        for &k in &self.ks {
            for algorithm in &algorithms {
                jobs.push(EvalJob {
                    dataset: dataset.clone(),
                    algorithm: *algorithm,
                    k,
                    max_suppression: self.max_suppression,
                    properties: algorithm.properties_or_default(&properties),
                });
            }
        }
        Ok(jobs)
    }

    /// The shard-journal header metadata for one shard of this spec.
    pub fn shard_meta(&self, shard: usize) -> ShardMeta {
        let range = plan_shards(self.shards)[shard];
        ShardMeta {
            index: shard,
            of: self.shards,
            lo: range.lo,
            hi: range.hi,
        }
    }

    /// Renders the spec as one JSON line.
    pub fn to_json(&self) -> String {
        let mut dataset = String::new();
        self.dataset.serialize_json(&mut dataset);
        let mut out = String::new();
        out.push_str("{\"v\":1,\"dataset\":");
        out.push_str(&dataset);
        out.push_str(",\"algorithms\":");
        self.algorithms.serialize_json(&mut out);
        out.push_str(",\"ks\":");
        self.ks.serialize_json(&mut out);
        out.push_str(&format!(",\"max_suppression\":{}", self.max_suppression));
        out.push_str(",\"properties\":");
        self.properties.serialize_json(&mut out);
        out.push_str(&format!(
            ",\"root_seed\":{},\"shards\":{},\"engine_jobs\":{}}}",
            self.root_seed, self.shards, self.engine_jobs
        ));
        out
    }

    /// Decodes a spec, strictly: every field must be present and valid.
    pub fn from_value(v: &Value) -> Result<GridSpec, String> {
        if v.get("v").and_then(Value::as_u64) != Some(1) {
            return Err("spec: missing or unsupported \"v\"".into());
        }
        let strings = |key: &str| -> Result<Vec<String>, String> {
            v.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("spec: missing {key:?}"))?
                .iter()
                .map(|item| {
                    item.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| format!("spec: non-string entry in {key:?}"))
                })
                .collect()
        };
        Ok(GridSpec {
            dataset: WireDataset::from_value(v.get("dataset").ok_or("spec: missing \"dataset\"")?)?,
            algorithms: strings("algorithms")?,
            ks: v
                .get("ks")
                .and_then(Value::as_array)
                .ok_or("spec: missing \"ks\"")?
                .iter()
                .map(|k| k.as_usize().ok_or_else(|| "spec: invalid k".to_owned()))
                .collect::<Result<_, _>>()?,
            max_suppression: v
                .get("max_suppression")
                .and_then(Value::as_usize)
                .ok_or("spec: missing \"max_suppression\"")?,
            properties: strings("properties")?,
            root_seed: v
                .get("root_seed")
                .and_then(Value::as_u64)
                .ok_or("spec: missing \"root_seed\"")?,
            shards: v
                .get("shards")
                .and_then(Value::as_usize)
                .filter(|&s| s > 0)
                .ok_or("spec: missing or zero \"shards\"")?,
            engine_jobs: v
                .get("engine_jobs")
                .and_then(Value::as_usize)
                .ok_or("spec: missing \"engine_jobs\"")?,
        })
    }

    /// Loads a spec from a `spec.json` file.
    pub fn load(path: &Path) -> io::Result<GridSpec> {
        let text = fs::read_to_string(path)?;
        let value = serde::json::parse(text.trim())
            .ok_or_else(|| invalid_data(format!("{}: not JSON", path.display())))?;
        GridSpec::from_value(&value).map_err(invalid_data)
    }

    /// Saves the spec as `spec.json` in `dir`.
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join("spec.json");
        fs::write(&path, format!("{}\n", self.to_json()))?;
        Ok(path)
    }
}

/// Seeded whole-worker-loss chaos for the supervisor.
#[derive(Debug, Clone, Copy)]
pub struct DistChaos {
    /// Seed the kill plan derives from.
    pub seed: u64,
}

/// The concrete kill decision a [`DistChaos`] seed produces for a grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// The shard whose first worker is killed.
    pub victim: usize,
    /// Journal appends the victim fsyncs before aborting — strictly
    /// between 1 and `jobs − 1`, so the worker dies mid-shard.
    pub kill_after: u64,
}

impl DistChaos {
    /// Plans the kill, content-derived and scheduling-independent: the
    /// victim is the shard with the most jobs (lowest index on ties; a
    /// shard needs ≥ 2 jobs to die *mid*-sweep), and the kill point is
    /// `1 + derive_seed(seed, victim) mod (jobs − 1)`. Returns `None`
    /// when no shard has at least two jobs.
    pub fn plan(&self, shard_jobs: &[usize]) -> Option<ChaosPlan> {
        let mut victim: Option<(usize, usize)> = None;
        for (shard, &jobs) in shard_jobs.iter().enumerate() {
            let beats = match victim {
                None => true,
                Some((_, best)) => jobs > best,
            };
            if jobs >= 2 && beats {
                victim = Some((shard, jobs));
            }
        }
        let (victim, jobs) = victim?;
        let kill_after = 1 + derive_seed(self.seed, victim as u64) % (jobs as u64 - 1);
        Some(ChaosPlan { victim, kill_after })
    }
}

/// Supervisor configuration.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Directory holding `spec.json`, the per-shard journals, heartbeat
    /// and summary files, and the merged artifact.
    pub dir: PathBuf,
    /// Worker processes to run concurrently (at least 1).
    pub workers: usize,
    /// Reuse existing shard journals (and `spec.json`) instead of
    /// starting fresh. The saved spec must match.
    pub resume: bool,
    /// A worker whose heartbeat does not change for this long is
    /// presumed stalled: it is killed and its shard reassigned. Must be
    /// generously larger than the 25 ms heartbeat interval.
    pub stall_timeout: Duration,
    /// Seeded whole-worker-loss injection (tests and CI drills).
    pub chaos: Option<DistChaos>,
    /// Test hook: hang this shard's *first* worker (no heartbeats) so
    /// stall detection has something to detect.
    pub hang_first: Option<usize>,
}

impl DistConfig {
    /// A config with production defaults (10 s stall timeout, 4
    /// tolerated restarts, no chaos).
    pub fn new(dir: impl Into<PathBuf>, workers: usize) -> DistConfig {
        DistConfig {
            dir: dir.into(),
            workers: workers.max(1),
            resume: false,
            stall_timeout: Duration::from_secs(10),
            chaos: None,
            hang_first: None,
        }
    }
}

/// How the supervisor launches a worker process. The program must call
/// [`run_worker_from_env`] early in `main` (the `anoncmp dist-worker`
/// subcommand does exactly that).
#[derive(Debug, Clone)]
pub struct WorkerCommand {
    /// Executable to spawn.
    pub program: PathBuf,
    /// Arguments to pass (the shard assignment itself travels via
    /// environment variables).
    pub args: Vec<String>,
}

impl WorkerCommand {
    /// A worker command running `program args…`.
    pub fn new(program: impl Into<PathBuf>, args: Vec<String>) -> WorkerCommand {
        WorkerCommand {
            program: program.into(),
            args,
        }
    }

    /// A worker command re-executing the current binary with `args`.
    pub fn current_exe(args: Vec<String>) -> io::Result<WorkerCommand> {
        Ok(WorkerCommand {
            program: std::env::current_exe()?,
            args,
        })
    }
}

/// What one worker reports after finishing its shard (the content of
/// `shard-<i>.summary.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSummary {
    /// The shard this summary belongs to.
    pub shard: usize,
    /// Grid jobs assigned to the shard.
    pub jobs: usize,
    /// Record entries in the shard journal (replayed + appended).
    pub records: u64,
    /// Jobs served from the resumed journal instead of recomputed.
    pub resumed: usize,
    /// Jobs quarantined during this worker's run.
    pub quarantined: u64,
    /// Wall-clock milliseconds the worker spent on the sweep.
    pub wall_ms: u64,
}

impl WorkerSummary {
    /// Renders the summary as one JSON line.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"shard\":{},\"jobs\":{},\"records\":{},\"resumed\":{},\"quarantined\":{},\"wall_ms\":{}}}",
            self.shard, self.jobs, self.records, self.resumed, self.quarantined, self.wall_ms
        )
    }

    /// Decodes a summary, strictly.
    pub fn from_value(v: &Value) -> Result<WorkerSummary, String> {
        let field = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("summary: missing {key:?}"))
        };
        Ok(WorkerSummary {
            shard: field("shard")? as usize,
            jobs: field("jobs")? as usize,
            records: field("records")?,
            resumed: field("resumed")? as usize,
            quarantined: field("quarantined")?,
            wall_ms: field("wall_ms")?,
        })
    }

    fn load(path: &Path) -> io::Result<WorkerSummary> {
        let text = fs::read_to_string(path)?;
        let value = serde::json::parse(text.trim())
            .ok_or_else(|| invalid_data(format!("{}: not JSON", path.display())))?;
        WorkerSummary::from_value(&value).map_err(invalid_data)
    }
}

/// Per-shard accounting in the final [`DistReport`].
#[derive(Debug, Clone, Copy)]
pub struct ShardOutcome {
    /// The shard index.
    pub shard: usize,
    /// Worker slot (0-based, `< workers`) that completed the shard.
    pub worker_slot: usize,
    /// Grid jobs in the shard.
    pub jobs: usize,
    /// Record entries in the shard journal.
    pub records: u64,
    /// Jobs the completing worker served from the journal — nonzero
    /// exactly when the shard was resumed or reassigned mid-flight.
    pub resumed: usize,
    /// Jobs quarantined by the completing worker.
    pub quarantined: u64,
    /// Worker deaths this shard survived.
    pub restarts: u32,
    /// Wall-clock milliseconds of the completing worker's sweep.
    pub wall_ms: u64,
}

/// What [`merge_shards`] did.
#[derive(Debug, Clone, Copy)]
pub struct MergeReport {
    /// Unique grid jobs with a merged record.
    pub merged: usize,
    /// Duplicate envelopes dropped (same fingerprint, identical
    /// canonical record) — re-emissions from reassigned shards.
    pub duplicates_dropped: usize,
    /// Unique grid jobs with no journaled record (transient-only
    /// failures that were quarantined rather than checkpointed).
    pub missing: usize,
    /// Bytes written to the merged artifact.
    pub bytes: u64,
    /// Wall-clock milliseconds the merge took.
    pub wall_ms: u64,
}

/// The supervisor's final report.
#[derive(Debug, Clone)]
pub struct DistReport {
    /// Unique jobs in the expanded grid.
    pub jobs: usize,
    /// Per-shard outcomes, in shard order.
    pub shards: Vec<ShardOutcome>,
    /// Worker deaths (crash or stall) healed by reassignment.
    pub restarts: u32,
    /// Merge accounting.
    pub merge: MergeReport,
    /// Path of the merged canonical journal.
    pub merged_path: PathBuf,
    /// Wall-clock milliseconds for the whole run, merge included.
    pub wall_ms: u64,
}

impl DistReport {
    /// Total quarantined jobs across shards.
    pub fn quarantined_total(&self) -> u64 {
        self.shards.iter().map(|s| s.quarantined).sum()
    }

    /// One fixed-format line for logs and CI greps, mirroring the
    /// engine's `resilience_summary`.
    pub fn resilience_summary(&self) -> String {
        format!(
            "dist resilience: {} worker restart{}, {} quarantined",
            self.restarts,
            if self.restarts == 1 { "" } else { "s" },
            self.quarantined_total()
        )
    }
}

fn invalid_data(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

fn shard_journal(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.jsonl"))
}

/// Writes `bytes` to `path` atomically (tmp file + rename), so readers
/// never observe a torn heartbeat or summary.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

/// Runs one shard in this process: resume the shard journal, sweep the
/// shard's jobs, heartbeat throughout, and write the summary file.
/// `abort_after`/`hang` are the chaos hooks ([`ENV_ABORT_AFTER`],
/// [`ENV_HANG_MS`]).
pub fn run_worker(
    dir: &Path,
    shard: usize,
    abort_after: Option<u64>,
    hang: Option<Duration>,
) -> io::Result<WorkerSummary> {
    if let Some(pause) = hang {
        // Chaos: a wedged worker — alive as a process, but making no
        // progress and writing no heartbeats.
        thread::sleep(pause);
    }
    let spec = GridSpec::load(&dir.join("spec.json"))?;
    if shard >= spec.shards {
        return Err(invalid_data(format!(
            "shard {shard} out of range for a {}-shard plan",
            spec.shards
        )));
    }
    let jobs: Vec<EvalJob> = spec
        .jobs()
        .map_err(invalid_data)?
        .into_iter()
        .filter(|job| shard_of(job.job_fingerprint(), spec.shards) == shard)
        .collect();
    let engine_jobs = if spec.engine_jobs > 0 {
        spec.engine_jobs
    } else {
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        (cores / spec.shards).max(1)
    };
    let engine = Arc::new(Engine::new(EngineConfig {
        jobs: engine_jobs,
        root_seed: spec.root_seed,
        chaos: abort_after.map(ChaosConfig::abort_after),
        ..EngineConfig::default()
    }));
    engine.resume_sharded(shard_journal(dir, shard), spec.shard_meta(shard))?;
    let quarantine = File::create(dir.join(format!("shard-{shard}.failed.jsonl")))?;
    engine.set_quarantine_sink(Some(Box::new(quarantine)));

    let heartbeat_path = dir.join(format!("shard-{shard}.hb"));
    let stop = Arc::new(AtomicBool::new(false));
    let beats = {
        let stop = Arc::clone(&stop);
        let engine = Arc::clone(&engine);
        thread::spawn(move || {
            let mut beat = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let marker = format!("beat={beat} records={}\n", engine.journal_appends());
                let _ = write_atomic(&heartbeat_path, marker.as_bytes());
                beat += 1;
                thread::sleep(HEARTBEAT_INTERVAL);
            }
        })
    };

    let started = Instant::now();
    let sweep = engine.run(&jobs);
    stop.store(true, Ordering::Relaxed);
    let _ = beats.join();

    let records = engine.journal_appends();
    engine.set_quarantine_sink(None);
    engine.detach_journal();
    let summary = WorkerSummary {
        shard,
        jobs: jobs.len(),
        records,
        resumed: sweep.resumed,
        quarantined: sweep.quarantined,
        wall_ms: started.elapsed().as_millis() as u64,
    };
    write_atomic(
        &dir.join(format!("shard-{shard}.summary.json")),
        format!("{}\n", summary.to_json()).as_bytes(),
    )?;
    Ok(summary)
}

/// Worker entry point: if the [`ENV_DIR`]/[`ENV_SHARD`] assignment is
/// present in the environment, run the shard and return its summary;
/// otherwise return `Ok(None)` (this process is not a worker). Any
/// binary may call this first thing in `main` to become spawnable by
/// [`run_supervisor`].
pub fn run_worker_from_env() -> io::Result<Option<WorkerSummary>> {
    let Some(dir) = std::env::var_os(ENV_DIR) else {
        return Ok(None);
    };
    let shard = std::env::var(ENV_SHARD)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid_data(format!("{ENV_SHARD} missing or invalid")))?;
    let abort_after = std::env::var(ENV_ABORT_AFTER)
        .ok()
        .and_then(|s| s.parse().ok());
    let hang = std::env::var(ENV_HANG_MS)
        .ok()
        .and_then(|s| s.parse().ok())
        .map(Duration::from_millis);
    run_worker(Path::new(&dir), shard, abort_after, hang).map(Some)
}

/// Renders the canonical journal text for a grid: one envelope line per
/// unique job in submission order, records canonicalized (timing fields
/// zeroed, CRC recomputed). Returns `(text, merged, missing)`. This is
/// the merge's output format *and* the reference a single-process
/// journal is compared against in tests.
pub fn canonical_journal(
    jobs: &[EvalJob],
    completed: &HashMap<u64, EvalRecord>,
) -> (String, usize, usize) {
    let mut text = String::new();
    let mut seen = HashSet::new();
    let (mut merged, mut missing) = (0usize, 0usize);
    for job in jobs {
        let fingerprint = job.job_fingerprint();
        if !seen.insert(fingerprint) {
            continue;
        }
        match completed.get(&fingerprint) {
            Some(record) => {
                text.push_str(&Journal::entry_line(fingerprint, &record.canonical()));
                text.push('\n');
                merged += 1;
            }
            None => missing += 1,
        }
    }
    (text, merged, missing)
}

/// Merges the per-shard journals under `dir` into one canonical journal
/// at `out` — byte-identical across worker counts, shard counts, and
/// kill points (see the module docs for the argument). Duplicate
/// envelopes are dropped; two *different* canonical records for one
/// fingerprint are `InvalidData`.
pub fn merge_shards(dir: &Path, spec: &GridSpec, out: &Path) -> io::Result<MergeReport> {
    let started = Instant::now();
    let jobs = spec.jobs().map_err(invalid_data)?;
    let mut combined: HashMap<u64, EvalRecord> = HashMap::new();
    let mut duplicates = 0usize;
    for shard in 0..spec.shards {
        let replay = Journal::replay(shard_journal(dir, shard))?;
        if let Some(meta) = replay.shard {
            if meta.of != spec.shards || meta.index != shard {
                return Err(invalid_data(format!(
                    "shard journal {shard} carries mismatched metadata {meta:?}"
                )));
            }
        }
        duplicates += replay.entries - replay.completed.len();
        for (fingerprint, record) in replay.completed {
            let canonical = record.canonical();
            match combined.entry(fingerprint) {
                std::collections::hash_map::Entry::Occupied(slot) => {
                    if *slot.get() != canonical {
                        return Err(invalid_data(format!(
                            "fingerprint {fingerprint:016x} has two different canonical records \
                             across shard journals — nondeterministic worker output"
                        )));
                    }
                    duplicates += 1;
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(canonical);
                }
            }
        }
    }
    let (text, merged, missing) = canonical_journal(&jobs, &combined);
    let tmp = out.with_extension("tmp");
    {
        let mut file = File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.flush()?;
        file.sync_data()?;
    }
    fs::rename(&tmp, out)?;
    Ok(MergeReport {
        merged,
        duplicates_dropped: duplicates,
        missing,
        bytes: text.len() as u64,
        wall_ms: started.elapsed().as_millis() as u64,
    })
}

/// One live child the supervisor is tracking.
struct RunningWorker {
    shard: usize,
    slot: usize,
    child: Child,
    heartbeat_path: PathBuf,
    last_heartbeat: Option<Vec<u8>>,
    last_progress: Instant,
}

/// Runs the full distributed sweep: plan shards, spawn up to
/// `config.workers` worker processes over the shard queue, monitor
/// exits and heartbeats (reassigning the shard of any dead or stalled
/// worker), and merge the shard journals into `merged.jsonl`.
pub fn run_supervisor(
    spec: &GridSpec,
    config: &DistConfig,
    worker: &WorkerCommand,
) -> io::Result<DistReport> {
    let started = Instant::now();
    fs::create_dir_all(&config.dir)?;
    let jobs = spec.jobs().map_err(invalid_data)?;

    // Unique jobs per shard (duplicate submissions alias one record).
    let mut per_shard = vec![0usize; spec.shards];
    let mut seen = HashSet::new();
    for job in &jobs {
        let fingerprint = job.job_fingerprint();
        if seen.insert(fingerprint) {
            per_shard[shard_of(fingerprint, spec.shards)] += 1;
        }
    }

    let spec_path = config.dir.join("spec.json");
    if config.resume && spec_path.exists() {
        let existing = GridSpec::load(&spec_path)?;
        if existing != *spec {
            return Err(invalid_data(format!(
                "resume refused: {} holds a different grid spec",
                spec_path.display()
            )));
        }
    } else {
        if !config.resume {
            for shard in 0..spec.shards {
                for suffix in ["jsonl", "failed.jsonl", "hb", "summary.json"] {
                    let _ = fs::remove_file(config.dir.join(format!("shard-{shard}.{suffix}")));
                }
            }
            let _ = fs::remove_file(config.dir.join("merged.jsonl"));
        }
        spec.save(&config.dir)?;
    }

    let mut armed_chaos = config.chaos.and_then(|chaos| chaos.plan(&per_shard));
    let mut armed_hang = config.hang_first;
    let mut queue: VecDeque<usize> = (0..spec.shards).filter(|&s| per_shard[s] > 0).collect();
    let mut outcomes: Vec<Option<ShardOutcome>> = (0..spec.shards)
        .map(|shard| {
            (per_shard[shard] == 0).then_some(ShardOutcome {
                shard,
                worker_slot: 0,
                jobs: 0,
                records: 0,
                resumed: 0,
                quarantined: 0,
                restarts: 0,
                wall_ms: 0,
            })
        })
        .collect();
    let mut running: Vec<RunningWorker> = Vec::new();
    let mut free_slots: Vec<usize> = (0..config.workers.max(1)).rev().collect();
    let mut shard_restarts = vec![0u32; spec.shards];
    let mut restarts_total = 0u32;

    loop {
        while let (Some(&shard), Some(&slot)) = (queue.front(), free_slots.last()) {
            queue.pop_front();
            free_slots.pop();
            // A stale summary from an earlier incarnation must not be
            // mistaken for this worker's result.
            let _ = fs::remove_file(config.dir.join(format!("shard-{shard}.summary.json")));
            let mut command = Command::new(&worker.program);
            command
                .args(&worker.args)
                .env(ENV_DIR, &config.dir)
                .env(ENV_SHARD, shard.to_string())
                .stdout(Stdio::null());
            if armed_chaos.is_some_and(|plan| plan.victim == shard) {
                let plan = armed_chaos.take().expect("checked");
                command.env(ENV_ABORT_AFTER, plan.kill_after.to_string());
            }
            if armed_hang == Some(shard) {
                armed_hang = None;
                // Effectively forever; the supervisor kills it first.
                command.env(ENV_HANG_MS, 3_600_000u64.to_string());
            }
            let child = command.spawn()?;
            running.push(RunningWorker {
                shard,
                slot,
                child,
                heartbeat_path: config.dir.join(format!("shard-{shard}.hb")),
                last_heartbeat: None,
                last_progress: Instant::now(),
            });
        }
        if running.is_empty() {
            break;
        }
        thread::sleep(POLL_INTERVAL);

        let mut index = 0;
        while index < running.len() {
            let worker_state = &mut running[index];
            let shard = worker_state.shard;
            let mut finished: Option<bool> = None; // Some(success?)
            match worker_state.child.try_wait() {
                Ok(Some(status)) => finished = Some(status.success()),
                Ok(None) => {
                    let beat = fs::read(&worker_state.heartbeat_path).ok();
                    if beat.is_some() && beat != worker_state.last_heartbeat {
                        worker_state.last_heartbeat = beat;
                        worker_state.last_progress = Instant::now();
                    } else if worker_state.last_progress.elapsed() > config.stall_timeout {
                        eprintln!(
                            "dist: worker for shard {shard} stalled \
                             (no heartbeat for {:?}); killing and reassigning",
                            config.stall_timeout
                        );
                        let _ = worker_state.child.kill();
                        let _ = worker_state.child.wait();
                        finished = Some(false);
                    }
                }
                Err(_) => finished = Some(false),
            }
            let Some(mut success) = finished else {
                index += 1;
                continue;
            };
            let summary_path = config.dir.join(format!("shard-{shard}.summary.json"));
            let summary = if success {
                match WorkerSummary::load(&summary_path) {
                    Ok(summary) if summary.shard == shard => Some(summary),
                    _ => {
                        success = false;
                        None
                    }
                }
            } else {
                None
            };
            let worker_state = running.swap_remove(index);
            free_slots.push(worker_state.slot);
            match summary {
                Some(summary) => {
                    outcomes[shard] = Some(ShardOutcome {
                        shard,
                        worker_slot: worker_state.slot,
                        jobs: summary.jobs,
                        records: summary.records,
                        resumed: summary.resumed,
                        quarantined: summary.quarantined,
                        restarts: shard_restarts[shard],
                        wall_ms: summary.wall_ms,
                    });
                }
                None => {
                    debug_assert!(!success);
                    shard_restarts[shard] += 1;
                    restarts_total += 1;
                    if restarts_total > MAX_RESTARTS {
                        return Err(io::Error::other(format!(
                            "dist: gave up after {restarts_total} worker deaths \
                             (at most {MAX_RESTARTS} are tolerated)"
                        )));
                    }
                    eprintln!(
                        "dist: worker for shard {shard} died; reassigning \
                         (restart {restarts_total})"
                    );
                    queue.push_front(shard);
                }
            }
        }
    }

    let merged_path = config.dir.join("merged.jsonl");
    let merge = merge_shards(&config.dir, spec, &merged_path)?;
    Ok(DistReport {
        jobs: seen.len(),
        shards: outcomes
            .into_iter()
            .map(|outcome| outcome.expect("every shard completed"))
            .collect(),
        restarts: restarts_total,
        merge,
        merged_path,
        wall_ms: started.elapsed().as_millis() as u64,
    })
}

/// FNV-1a 64 digest of a file's bytes as 16 hex digits — the identity
/// CI compares merged artifacts by.
pub fn file_digest(path: &Path) -> io::Result<String> {
    let bytes = fs::read(path)?;
    let mut digest = crate::fingerprint::Fingerprinter::new();
    digest.write_bytes(&bytes);
    Ok(crate::fingerprint::hex_id(digest.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_partition_the_space() {
        for shards in [1usize, 2, 3, 7, 8, 64] {
            let plan = plan_shards(shards);
            assert_eq!(plan.len(), shards);
            assert_eq!(plan[0].lo, 0);
            assert_eq!(plan[shards - 1].hi, u64::MAX);
            for pair in plan.windows(2) {
                assert_eq!(
                    pair[0].hi.wrapping_add(1),
                    pair[1].lo,
                    "ranges must be contiguous at {shards} shards"
                );
            }
        }
    }

    #[test]
    fn shard_of_agrees_with_the_ranges() {
        for shards in [1usize, 2, 3, 8] {
            let plan = plan_shards(shards);
            for fingerprint in [
                0u64,
                1,
                u64::MAX,
                u64::MAX / 2,
                u64::MAX / 3,
                0xED5B_2009,
                0x9E37_79B9_7F4A_7C15,
            ] {
                let shard = shard_of(fingerprint, shards);
                assert!(plan[shard].contains(fingerprint));
            }
        }
    }

    #[test]
    fn grid_spec_round_trips_through_json() {
        let spec = GridSpec {
            dataset: WireDataset::Census {
                rows: 120,
                seed: 7,
                zip_pool: 10,
            },
            algorithms: vec!["datafly".into(), "mondrian".into()],
            ks: vec![2, 5],
            max_suppression: 6,
            properties: vec!["eq-class-size".into()],
            root_seed: 0xED5B_2009,
            shards: 4,
            engine_jobs: 1,
        };
        let value = serde::json::parse(&spec.to_json()).expect("valid JSON");
        assert_eq!(GridSpec::from_value(&value), Ok(spec));
    }

    #[test]
    fn grid_spec_rejects_mock_algorithms() {
        let spec = GridSpec {
            dataset: WireDataset::Census {
                rows: 10,
                seed: 1,
                zip_pool: 5,
            },
            algorithms: vec!["mock-panic".into()],
            ks: vec![2],
            max_suppression: 1,
            properties: vec![],
            root_seed: 1,
            shards: 1,
            engine_jobs: 1,
        };
        assert!(spec.jobs().is_err());
    }

    #[test]
    fn empty_properties_default_per_family() {
        let spec = GridSpec {
            dataset: WireDataset::Census {
                rows: 100,
                seed: 1,
                zip_pool: 5,
            },
            algorithms: vec!["datafly".into(), "mdav:5".into()],
            ks: vec![5],
            max_suppression: 5,
            properties: vec![],
            root_seed: 1,
            shards: 1,
            engine_jobs: 1,
        };
        let jobs = spec.jobs().unwrap();
        assert_eq!(jobs[0].properties, [PropertySpec::EqClassSize]);
        assert_eq!(jobs[1].properties, [PropertySpec::BoundedLoss]);
        // Named properties apply to every job, as before.
        let named = GridSpec {
            properties: vec!["bounded-loss".into()],
            ..spec
        };
        assert!(named
            .jobs()
            .unwrap()
            .iter()
            .all(|job| job.properties == [PropertySpec::BoundedLoss]));
    }

    #[test]
    fn chaos_plan_is_deterministic_and_mid_shard() {
        let chaos = DistChaos { seed: 17 };
        let shard_jobs = [3usize, 5, 5, 1];
        let plan = chaos.plan(&shard_jobs).expect("some shard has >= 2 jobs");
        assert_eq!(plan, chaos.plan(&shard_jobs).unwrap());
        assert_eq!(plan.victim, 1, "largest shard, lowest index on ties");
        assert!(plan.kill_after >= 1 && plan.kill_after < 5);
        assert_eq!(chaos.plan(&[1, 0, 1]), None, "no shard can die mid-sweep");
    }
}
