//! The sweep executor: worker pool, memoization, checkpointing, and
//! record collection.
//!
//! # Execution model
//!
//! [`Engine::run`] deduplicates the submitted jobs by content fingerprint,
//! serves any job already present in the resumed checkpoint journal
//! without recomputation, and runs the remaining unique ones on `--jobs N`
//! worker threads that claim pending jobs from a shared atomic counter
//! (idle workers pull the next pending job, so a slow job never holds up
//! the others). The submitting thread collects the `(index, outcome)`
//! pairs, restores submission order and streams JSONL records to an
//! optional sink.
//!
//! # Determinism
//!
//! Three choices make a sweep's output independent of scheduling:
//!
//! 1. per-job seeds derive from `(root_seed, release fingerprint)` — never
//!    from a job's position or the thread that runs it;
//! 2. outcomes are re-ordered to submission order before they are
//!    returned or written;
//! 3. records expose scheduling-dependent observations (`duration_ms`,
//!    `cache_hit`) as fields that [`EvalRecord::canonical`] strips.
//!
//! Resume preserves the same guarantee: journal replay is lossless
//! ([`EvalRecord::from_jsonl`]), so an interrupted-then-resumed sweep's
//! canonical record set is byte-identical to an uninterrupted run's.
//!
//! # Robustness
//!
//! Worker bodies run the algorithm under `catch_unwind` (with a panic
//! hook that preserves the payload message *and* source location),
//! optionally under a wall-clock budget (the job then runs on a watchdog
//! thread and is abandoned on timeout — the thread is detached and
//! leaked, which is the only portable way to bound safe-but-runaway Rust
//! code). Transient failures (panic, budget) are retried under
//! [`RetryPolicy`] with deterministic exponential backoff, then
//! quarantined to the quarantine sink (`failed.jsonl`) with cause and
//! attempt history; the sweep always completes.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, Once, OnceLock};
use std::time::{Duration, Instant};

use anoncmp_anonymize::prelude::{AnonymizeError, DatasetContext, Result as AnonymizeResult};
use anoncmp_core::prelude::{BoundedDistanceLoss, PropertyVector};
use anoncmp_microdata::loss::LossMetric;
use anoncmp_microdata::numeric::{NumericBase, NumericRelease, Release};
use anoncmp_microdata::parallel::lock;

use crate::cache::{CacheStats, MemoCache};
use crate::chaos::{ChaosConfig, Fault, CHAOS_PANIC_MESSAGE};
use crate::fingerprint::{derive_seed, hex_id, release_digest, Fingerprinter};
use crate::job::EvalJob;
use crate::journal::{Journal, ShardMeta};
use crate::record::{
    AttemptFailure, EvalRecord, JobStatus, PropertySummary, QuarantineRecord, ReleaseMetrics,
};

/// Retry policy for transient job failures (panics and budget timeouts).
///
/// Backoff is `base · 2^attempt` plus a content-derived jitter in
/// `[0, base)` — deterministic in `(job, attempt)`, so two runs of the
/// same sweep retry identically and produce identical records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt (0 = fail fast).
    pub max_retries: u32,
    /// Base backoff; doubles per attempt.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::from_millis(25),
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_retries` retries at the default base backoff.
    pub fn retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            ..RetryPolicy::default()
        }
    }

    /// The deterministic backoff to sleep after the given failed attempt
    /// of the job with this release fingerprint.
    pub fn backoff_for(&self, release_fingerprint: u64, attempt: u32) -> Duration {
        let base = self.base_backoff.as_millis() as u64;
        if base == 0 {
            return Duration::ZERO;
        }
        let exponential = base.saturating_mul(1u64 << attempt.min(10));
        let jitter = derive_seed(release_fingerprint, u64::from(attempt)) % base;
        Duration::from_millis(exponential.saturating_add(jitter))
    }
}

/// Construction-time engine settings.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads; `0` means one per available CPU.
    pub jobs: usize,
    /// Root seed all per-job seeds derive from.
    pub root_seed: u64,
    /// Optional per-job wall-clock budget.
    pub budget: Option<Duration>,
    /// Retry policy for transient failures.
    pub retry: RetryPolicy,
    /// Optional deterministic fault injection (tests and chaos smokes).
    pub chaos: Option<ChaosConfig>,
    /// Release-cache capacity in entries (`0` = unbounded). Long-lived
    /// processes (the serve daemon) bound this; batch sweeps leave it
    /// unbounded.
    pub release_capacity: usize,
    /// Property-vector-cache capacity in entries (`0` = unbounded).
    pub vector_capacity: usize,
    /// Unused: nothing reads it. Kept so existing struct literals that
    /// name it still compile.
    pub chunk_threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        // The default root seed is shared by every consumer of
        // `Engine::global()`, which is what lets E16 reuse releases first
        // computed by E13: equal specs + equal root seed = equal cache keys.
        EngineConfig {
            jobs: 0,
            root_seed: 0xED5B_2009,
            budget: None,
            retry: RetryPolicy::default(),
            chaos: None,
            release_capacity: 0,
            vector_capacity: 0,
            chunk_threads: 0,
        }
    }
}

/// The result of one executed (or cache-served) job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job as submitted.
    pub job: EvalJob,
    /// The machine-readable record.
    pub record: EvalRecord,
    /// The release (either family), when the job succeeded **in this
    /// process**. `None` for journal-replayed outcomes (the journal
    /// stores records, not releases); use [`Engine::release_for`] to
    /// rematerialize on demand.
    pub release: Option<Arc<Release>>,
    /// The extracted property vectors, in requested order. Journal-
    /// replayed outcomes reconstruct them from the record (records carry
    /// full vectors), so they are identical to freshly extracted ones.
    pub vectors: Vec<PropertyVector>,
}

/// The result of a whole sweep.
#[derive(Debug)]
pub struct SweepResult {
    /// One outcome per submitted job, in submission order.
    pub outcomes: Vec<JobOutcome>,
    /// Release-cache activity attributable to this sweep.
    pub cache: CacheStats,
    /// Wall-clock time of the sweep.
    pub wall: Duration,
    /// Unique jobs served from the resumed checkpoint journal (skipped,
    /// not recomputed).
    pub resumed: usize,
    /// Retry attempts spent on transient failures during this sweep.
    pub retries: u64,
    /// Jobs that exhausted their retry budget and were quarantined.
    pub quarantined: u64,
}

impl SweepResult {
    /// The sweep's records as canonical JSONL (one line per job, in
    /// submission order, scheduling-dependent fields stripped). Two runs
    /// of the same jobs under the same root seed yield byte-identical
    /// output here, whatever `--jobs` was — including runs resumed from a
    /// checkpoint journal.
    pub fn canonical_jsonl(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            out.push_str(&o.record.canonical().to_jsonl());
            out.push('\n');
        }
        out
    }

    /// A one-line cache summary for reports. Contains no
    /// scheduling-dependent values, so it is safe to embed in output that
    /// determinism tests compare.
    pub fn cache_summary(&self) -> String {
        format!(
            "engine cache: {} hit(s), {} miss(es) this sweep",
            self.cache.hits, self.cache.misses
        )
    }

    /// A one-line resilience summary: journal resumption, retries, and
    /// quarantines. Kept separate from [`SweepResult::cache_summary`]
    /// because resumption counts legitimately differ between a fresh run
    /// and a resumed one, so this line must stay out of reports whose
    /// byte-identity determinism tests compare.
    pub fn resilience_summary(&self) -> String {
        format!(
            "engine resilience: {} resumed from journal, {} retr{}, {} quarantined",
            self.resumed,
            self.retries,
            if self.retries == 1 { "y" } else { "ies" },
            self.quarantined
        )
    }
}

/// What [`Engine::resume`] recovered from a checkpoint journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeSummary {
    /// Distinct completed jobs replayed from the journal.
    pub replayed: usize,
    /// Torn or corrupt journal lines dropped (and truncated away).
    pub dropped: usize,
}

/// Internal journal state: the open file plus chaos-truncation bookkeeping.
struct JournalState {
    journal: Journal,
    /// Appends so far (replayed entries count toward it, so chaos
    /// truncation points are absolute positions in the journal).
    appends: u64,
    /// Set after an I/O failure or a chaos-injected torn write; a dead
    /// journal stops checkpointing but never aborts the sweep.
    dead: bool,
}

/// The parallel, memoizing, checkpointing sweep executor.
pub struct Engine {
    cache: MemoCache,
    root_seed: u64,
    budget: Mutex<Option<Duration>>,
    jobs: AtomicUsize,
    retry: Mutex<RetryPolicy>,
    chaos: Mutex<Option<ChaosConfig>>,
    /// Optional process-level record sink (the CLI's `--out` JSONL file);
    /// every sweep appends its records here in submission order.
    sink: Mutex<Option<Box<dyn Write + Send>>>,
    /// Optional quarantine sink (`failed.jsonl`): one JSONL
    /// [`QuarantineRecord`] per job that exhausted its retry budget.
    quarantine_sink: Mutex<Option<Box<dyn Write + Send>>>,
    /// The open checkpoint journal, when resumable execution is on.
    journal: Mutex<Option<JournalState>>,
    /// Completed records keyed by job fingerprint: journal replay plus
    /// everything checkpointed this process. Jobs found here are served
    /// without recomputation.
    completed: Mutex<HashMap<u64, EvalRecord>>,
    retries_total: AtomicU64,
    quarantined_total: AtomicU64,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("root_seed", &self.root_seed)
            .field("budget", &*lock(&self.budget))
            .field("jobs", &self.jobs)
            .field("retry", &*lock(&self.retry))
            .field("cache", &self.cache.stats())
            .finish()
    }
}

impl Engine {
    /// A fresh engine with its own empty cache.
    pub fn new(config: EngineConfig) -> Self {
        install_panic_capture();
        let cache = MemoCache::new();
        cache.set_capacity(config.release_capacity, config.vector_capacity);
        Engine {
            cache,
            root_seed: config.root_seed,
            budget: Mutex::new(config.budget),
            jobs: AtomicUsize::new(config.jobs),
            retry: Mutex::new(config.retry),
            chaos: Mutex::new(config.chaos),
            sink: Mutex::new(None),
            quarantine_sink: Mutex::new(None),
            journal: Mutex::new(None),
            completed: Mutex::new(HashMap::new()),
            retries_total: AtomicU64::new(0),
            quarantined_total: AtomicU64::new(0),
        }
    }

    /// The process-wide shared engine. Experiments that run in the same
    /// process share its cache, so a release computed for one experiment
    /// (say E13's k = 5 sweep) is a cache hit for the next (E16's
    /// agreement tournament over the same grid point).
    pub fn global() -> &'static Engine {
        static GLOBAL: OnceLock<Engine> = OnceLock::new();
        GLOBAL.get_or_init(|| Engine::new(EngineConfig::default()))
    }

    /// Sets the worker count (`0` = one per available CPU).
    pub fn set_jobs(&self, jobs: usize) {
        self.jobs.store(jobs, Ordering::Relaxed);
    }

    /// The effective worker count.
    pub fn jobs(&self) -> usize {
        match self.jobs.load(Ordering::Relaxed) {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// Sets (or clears) the per-job wall-clock budget.
    pub fn set_budget(&self, budget: Option<Duration>) {
        *lock(&self.budget) = budget;
    }

    /// Sets the retry count, keeping the configured backoff (the CLI's
    /// `--max-retries` flag).
    pub fn set_max_retries(&self, max_retries: u32) {
        lock(&self.retry).max_retries = max_retries;
    }

    /// Installs (or removes) deterministic fault injection (the CLI's
    /// `--chaos-seed` flag).
    pub fn set_chaos(&self, chaos: Option<ChaosConfig>) {
        *lock(&self.chaos) = chaos;
    }

    /// Current cumulative cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Property vectors evicted so far (bounded caches only).
    pub fn vector_cache_evictions(&self) -> u64 {
        self.cache.vector_evictions()
    }

    /// Cumulative vector-cache `(hits, misses)`. Scheduling-dependent
    /// (racing workers can both miss), so not part of [`CacheStats`] or
    /// any determinism-compared report.
    pub fn vector_cache_stats(&self) -> (u64, u64) {
        self.cache.vector_stats()
    }

    /// Drops cached releases but keeps materialized datasets (benchmarks).
    pub fn clear_releases(&self) {
        self.cache.clear_releases();
    }

    /// Installs (or removes) a process-level record sink; every subsequent
    /// sweep appends its records to it as JSONL, in submission order. This
    /// backs the CLI's `--out <path>` flag.
    pub fn set_sink(&self, sink: Option<Box<dyn Write + Send>>) {
        *lock(&self.sink) = sink;
    }

    /// Installs (or removes) the quarantine sink; jobs that exhaust their
    /// retry budget append one [`QuarantineRecord`] JSONL line each. This
    /// backs the CLI's `failed.jsonl` file.
    pub fn set_quarantine_sink(&self, sink: Option<Box<dyn Write + Send>>) {
        *lock(&self.quarantine_sink) = sink;
    }

    /// Resumes from a checkpoint journal (creating it if absent): replays
    /// completed jobs, truncates any torn tail, and keeps the journal
    /// open so subsequent sweeps checkpoint into it. Jobs found in the
    /// journal are served from it — skipped, not recomputed — and the
    /// merged record set is byte-identical (canonically) to an
    /// uninterrupted run.
    pub fn resume(&self, path: impl AsRef<Path>) -> io::Result<ResumeSummary> {
        let (journal, replay) = Journal::open_resumable(path)?;
        *lock(&self.journal) = Some(JournalState {
            journal,
            appends: replay.entries as u64,
            dead: false,
        });
        let summary = ResumeSummary {
            replayed: replay.completed.len(),
            dropped: replay.dropped,
        };
        lock(&self.completed).extend(replay.completed);
        Ok(summary)
    }

    /// Like [`Engine::resume`], but for a per-shard journal bound to
    /// `meta`: a missing journal is created fresh with the shard header,
    /// an existing one must carry a matching header (a journal for a
    /// different shard range is refused). This is the worker-side resume
    /// path of the distributed runner — a respawned worker replays what
    /// its predecessor already fsync'd and repeats none of it.
    pub fn resume_sharded(
        &self,
        path: impl AsRef<Path>,
        meta: ShardMeta,
    ) -> io::Result<ResumeSummary> {
        let (journal, replay) = Journal::open_resumable_sharded(path, meta)?;
        *lock(&self.journal) = Some(JournalState {
            journal,
            appends: replay.entries as u64,
            dead: false,
        });
        let summary = ResumeSummary {
            replayed: replay.completed.len(),
            dropped: replay.dropped,
        };
        lock(&self.completed).extend(replay.completed);
        Ok(summary)
    }

    /// Starts a fresh checkpoint journal at `path` (truncating any
    /// existing file). Subsequent sweeps append each completed job,
    /// fsync'd, so a later [`Engine::resume`] can pick up where a killed
    /// process left off.
    pub fn checkpoint_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        *lock(&self.journal) = Some(JournalState {
            journal: Journal::create(path)?,
            appends: 0,
            dead: false,
        });
        Ok(())
    }

    /// Detaches the journal (if any) and forgets replayed completions.
    /// Subsequent sweeps recompute everything (modulo the memo cache).
    pub fn detach_journal(&self) {
        *lock(&self.journal) = None;
        lock(&self.completed).clear();
    }

    /// Transient-failure retries performed over this engine's lifetime.
    pub fn retries_total(&self) -> u64 {
        self.retries_total.load(Ordering::Relaxed)
    }

    /// Jobs quarantined (retry budget exhausted) over this engine's
    /// lifetime.
    pub fn quarantined_total(&self) -> u64 {
        self.quarantined_total.load(Ordering::Relaxed)
    }

    /// Record entries in the attached checkpoint journal — replayed plus
    /// appended this process. `0` when no journal is attached.
    pub fn journal_appends(&self) -> u64 {
        lock(&self.journal).as_ref().map_or(0, |s| s.appends)
    }

    /// Runs a sweep, returning outcomes in submission order.
    ///
    /// The sweep builds one [`DatasetContext`] per distinct dataset it
    /// runs, so its full-domain searches share one lattice index per
    /// dataset, and drops them when it returns: no index outlives its
    /// sweep. The one exception is a job abandoned by the wall-clock
    /// budget, whose watchdog thread keeps its context until the job
    /// finishes.
    pub fn run(&self, jobs: &[EvalJob]) -> SweepResult {
        self.run_sweep(jobs, None).expect("no sink, no io")
    }

    /// Runs a sweep, streaming each record to `sink` as one JSONL line as
    /// soon as it and all earlier-submitted records are known (records
    /// appear in submission order).
    pub fn run_streaming(&self, jobs: &[EvalJob], sink: &mut dyn Write) -> io::Result<SweepResult> {
        self.run_sweep(jobs, Some(sink))
    }

    /// The release for a job: cache-served, or computed on the calling
    /// thread (and cached). Chaos faults are never injected here. This is
    /// the rematerialization path for journal-replayed outcomes, whose
    /// `release` is `None`. Family-aware: a perturbative job
    /// rematerializes its [`Release::Numeric`] exactly as a
    /// generalization job rematerializes its [`Release::Generalized`].
    pub fn release_for(&self, job: &EvalJob) -> Option<Arc<Release>> {
        let release_fp = job.release_fingerprint();
        if let Some(release) = self.cache.get_release(release_fp) {
            return Some(release);
        }
        let seed = derive_seed(self.root_seed, release_fp);
        // `u32::MAX` is past every chaos `faults_per_job`, so injection is
        // structurally off for rematerialization.
        match self.compute_release(job, seed, u32::MAX, &self.context_for(job)) {
            (JobStatus::Ok, Some(release)) => {
                Some(self.cache.insert_release(release_fp, Arc::new(release)))
            }
            _ => None,
        }
    }

    fn run_sweep(
        &self,
        jobs: &[EvalJob],
        mut sink: Option<&mut dyn Write>,
    ) -> io::Result<SweepResult> {
        let started = Instant::now();
        let stats_before = self.cache.stats();
        let retries_before = self.retries_total.load(Ordering::Relaxed);
        let quarantined_before = self.quarantined_total.load(Ordering::Relaxed);

        // Deduplicate identical jobs: the first occurrence executes, later
        // ones alias its outcome. `primary[i]` is the unique-slot index of
        // submitted job `i`.
        let mut slot_of: HashMap<u64, usize> = HashMap::new();
        let mut unique: Vec<usize> = Vec::new();
        let mut primary: Vec<usize> = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            let fp = job.job_fingerprint();
            let slot = *slot_of.entry(fp).or_insert_with(|| {
                unique.push(i);
                unique.len() - 1
            });
            primary.push(slot);
        }

        // Serve journal-replayed completions first: those jobs are
        // skipped entirely (no dataset synthesis, no anonymization, no
        // extraction).
        let mut slots: Vec<Option<JobOutcome>> = (0..unique.len()).map(|_| None).collect();
        let mut resumed = 0usize;
        {
            let completed = lock(&self.completed);
            if !completed.is_empty() {
                for (slot, &i) in unique.iter().enumerate() {
                    if let Some(record) = completed.get(&jobs[i].job_fingerprint()) {
                        slots[slot] = Some(outcome_from_checkpoint(&jobs[i], record.clone()));
                        resumed += 1;
                    }
                }
            }
        }

        // One context per distinct dataset that will actually run, built
        // up front. Workers would otherwise race through
        // `dataset_or_insert_with` (which builds outside the lock) and
        // synthesize the same dataset N times. Every job of the sweep on
        // that dataset shares the context's lattice index, which drops
        // when the sweep returns.
        let mut contexts: HashMap<u64, Arc<DatasetContext>> = HashMap::new();
        let pending: Vec<(usize, Arc<DatasetContext>)> = (0..unique.len())
            .filter(|&slot| slots[slot].is_none())
            .map(|slot| {
                let job = &jobs[unique[slot]];
                let ctx = contexts
                    .entry(dataset_fingerprint(job))
                    .or_insert_with(|| self.context_for(job));
                (slot, Arc::clone(ctx))
            })
            .collect();

        // Workers claim pending slots from a shared counter, so an idle
        // worker always takes the next pending job. Each keeps its
        // outcomes until the pool drains; order is restored below.
        let next = AtomicUsize::new(0);
        let drain = || {
            let mut done = Vec::new();
            while let Some((slot, ctx)) = pending.get(next.fetch_add(1, Ordering::Relaxed)) {
                let job = &jobs[unique[*slot]];
                let outcome = self.execute(job, ctx);
                self.checkpoint(job, &outcome.record);
                done.push((*slot, outcome));
            }
            done
        };
        let worker_count = self.jobs().min(pending.len()).max(1);
        let done = if worker_count == 1 {
            // Inline fast path: a single worker needs no thread spawn —
            // run on the calling thread. Identical outcomes (per-job seeds
            // are content-derived), but the fixed per-sweep cost drops
            // from ~a thread spawn to zero, which is what keeps the serve
            // daemon's warm-cache requests in the microsecond range.
            drain()
        } else {
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..worker_count).map(|_| scope.spawn(drain)).collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("engine workers contain job panics"))
                    .collect()
            })
        };
        for (slot, outcome) in done {
            slots[slot] = Some(outcome);
        }

        // Restore submission order, aliasing duplicates to their primary
        // outcome, and stream the in-order records.
        let mut engine_sink = lock(&self.sink);
        let mut outcomes: Vec<JobOutcome> = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            let src = slots[primary[i]].as_ref().expect("every slot resolved");
            let mut outcome = src.clone();
            outcome.job = job.clone();
            if unique[primary[i]] != i {
                // An alias never re-ran anything; mark it as served from
                // the sweep's own working set.
                outcome.record.cache_hit = true;
                outcome.record.duration_ms = 0;
            }
            if let Some(w) = sink.as_deref_mut() {
                writeln!(w, "{}", outcome.record.to_jsonl())?;
            }
            if let Some(w) = engine_sink.as_deref_mut() {
                writeln!(w, "{}", outcome.record.to_jsonl())?;
            }
            outcomes.push(outcome);
        }
        if let Some(w) = sink {
            w.flush()?;
        }
        if let Some(w) = engine_sink.as_deref_mut() {
            w.flush()?;
        }
        drop(engine_sink);

        Ok(SweepResult {
            outcomes,
            cache: self.cache.stats().since(&stats_before),
            wall: started.elapsed(),
            resumed,
            retries: self
                .retries_total
                .load(Ordering::Relaxed)
                .saturating_sub(retries_before),
            quarantined: self
                .quarantined_total
                .load(Ordering::Relaxed)
                .saturating_sub(quarantined_before),
        })
    }

    /// A new context for the job's dataset, materialized through the
    /// dataset map.
    fn context_for(&self, job: &EvalJob) -> Arc<DatasetContext> {
        let dataset = self
            .cache
            .dataset_or_insert_with(dataset_fingerprint(job), || job.dataset.materialize());
        Arc::new(DatasetContext::new(dataset))
    }

    /// Checkpoints a completed job into the journal, if one is attached.
    /// Only deterministic terminal statuses (`Ok`, `Failed`) are
    /// journaled: transient failures must re-run on resume.
    fn checkpoint(&self, job: &EvalJob, record: &EvalRecord) {
        if !matches!(record.status, JobStatus::Ok | JobStatus::Failed { .. }) {
            return;
        }
        let job_fp = job.job_fingerprint();
        {
            let mut guard = lock(&self.journal);
            let Some(state) = guard.as_mut() else { return };
            if state.dead {
                return;
            }
            let truncate_at = lock(&self.chaos)
                .as_ref()
                .and_then(|c| c.truncate_journal_after);
            if truncate_at == Some(state.appends) {
                // Chaos: die mid-append, exactly like a process kill.
                let _ = state.journal.append_torn(job_fp, record);
                state.dead = true;
                return;
            }
            match state.journal.append(job_fp, record) {
                Ok(()) => {
                    state.appends += 1;
                    let abort_at = lock(&self.chaos)
                        .as_ref()
                        .and_then(|c| c.abort_after_appends);
                    if abort_at == Some(state.appends) {
                        // Chaos: whole-worker loss. The append above has
                        // fsync'd, so exactly `appends` records survive;
                        // `abort` skips every destructor and exit handler,
                        // the closest safe stand-in for `kill -9`.
                        std::process::abort();
                    }
                }
                Err(e) => {
                    // Checkpointing is best-effort: losing the journal
                    // must never abort the sweep. Say so once.
                    eprintln!(
                        "warning: checkpoint journal {} failed ({e}); further checkpoints disabled",
                        state.journal.path().display()
                    );
                    state.dead = true;
                    return;
                }
            }
        }
        // Completed in the journal ⇒ a later sweep in this process can
        // also serve it from the completion map.
        lock(&self.completed).insert(job_fp, record.clone());
    }

    /// Writes a quarantine record for a job whose transient failures
    /// exhausted the retry budget.
    fn quarantine(&self, job: &EvalJob, record: &EvalRecord, attempts: &[AttemptFailure]) {
        self.quarantined_total.fetch_add(1, Ordering::Relaxed);
        let entry = QuarantineRecord {
            job_id: record.job_id.clone(),
            job_fingerprint: hex_id(job.job_fingerprint()),
            dataset: job.dataset.label(),
            algorithm: job.algorithm.label(),
            k: job.k,
            max_suppression: job.max_suppression,
            cause: record.status.clone(),
            attempts: attempts.to_vec(),
        };
        if let Some(w) = lock(&self.quarantine_sink).as_mut() {
            let _ = writeln!(w, "{}", entry.to_jsonl());
            let _ = w.flush();
        }
    }

    /// Executes one job on the calling worker thread, retrying transient
    /// failures under the engine's [`RetryPolicy`] and quarantining jobs
    /// that exhaust it.
    fn execute(&self, job: &EvalJob, ctx: &Arc<DatasetContext>) -> JobOutcome {
        let policy = *lock(&self.retry);
        let release_fp = job.release_fingerprint();
        let mut attempts: Vec<AttemptFailure> = Vec::new();
        let mut attempt = 0u32;
        loop {
            let outcome = self.execute_attempt(job, attempt, ctx);
            let transient = matches!(
                outcome.record.status,
                JobStatus::Panicked { .. } | JobStatus::BudgetExceeded { .. }
            );
            if !transient {
                return outcome;
            }
            if attempt >= policy.max_retries {
                self.quarantine(job, &outcome.record, &attempts);
                return outcome;
            }
            let backoff = policy.backoff_for(release_fp, attempt);
            attempts.push(AttemptFailure {
                attempt,
                cause: outcome.record.status.clone(),
                backoff_ms: backoff.as_millis() as u64,
            });
            self.retries_total.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(backoff);
            attempt += 1;
        }
    }

    /// One attempt of one job.
    fn execute_attempt(
        &self,
        job: &EvalJob,
        attempt: u32,
        ctx: &Arc<DatasetContext>,
    ) -> JobOutcome {
        let started = Instant::now();
        let release_fp = job.release_fingerprint();
        let seed = derive_seed(self.root_seed, release_fp);

        let (status, release, cache_hit) = match self.cache.get_release(release_fp) {
            Some(release) => (JobStatus::Ok, Some(release), true),
            None => {
                let (status, release) = self.compute_release(job, seed, attempt, ctx);
                let release = release.map(|r| self.cache.insert_release(release_fp, Arc::new(r)));
                (status, release, false)
            }
        };

        // Content digest of the released cells (+ suppression mask for
        // generalized releases). Computed over integer codes / IEEE-754
        // bit patterns, so it certifies the release itself, not its
        // rendering, and matches across evaluation strategies. Also the
        // release half of the vector-cache key: same content, same vectors.
        let content_fp = release.as_ref().map(|r| release_digest(r));

        // A classic (generalization-structure) property has no meaning on
        // a perturbative release: fail the job cleanly instead of
        // extracting. Symmetrically, a numeric property on a generalized
        // release needs numeric quasi-identifier columns to measure
        // against.
        let status = match (&status, release.as_deref()) {
            (JobStatus::Ok, Some(Release::Numeric(_)))
                if job.properties.iter().any(|p| !p.is_numeric()) =>
            {
                let tags: Vec<&str> = job
                    .properties
                    .iter()
                    .filter(|p| !p.is_numeric())
                    .map(|p| p.tag())
                    .collect();
                JobStatus::Failed {
                    message: format!(
                        "property {} is generalization-structural and cannot be \
                         extracted from the perturbative release {}",
                        tags.join(", "),
                        job.algorithm.label()
                    ),
                }
            }
            (JobStatus::Ok, Some(Release::Generalized(t)))
                if job.properties.iter().any(|p| p.is_numeric())
                    && NumericBase::of(t.dataset()).is_none() =>
            {
                JobStatus::Failed {
                    message: "numeric properties need at least one numeric \
                              quasi-identifier column"
                        .to_owned(),
                }
            }
            _ => status,
        };

        // Property extraction is pure but still third-party code from the
        // record's point of view; keep panics contained per job. Vectors
        // are served from the content-addressed cache when an earlier job
        // already extracted them from a same-content release; the two
        // families' digest spaces are disjoint, so one cache serves both.
        let (vectors, status) = match (&status, &release, content_fp) {
            (JobStatus::Ok, Some(r), Some(digest)) => {
                match contained(AssertUnwindSafe(|| {
                    job.properties
                        .iter()
                        .map(|p| {
                            let tag = p.tag();
                            match self.cache.get_vector(digest, tag) {
                                Some(v) => (*v).clone(),
                                None => {
                                    let v = Arc::new(extract_property(p, r));
                                    (*self.cache.insert_vector(digest, tag, v)).clone()
                                }
                            }
                        })
                        .collect::<Vec<PropertyVector>>()
                })) {
                    Ok(vectors) => (vectors, status),
                    Err(message) => (Vec::new(), JobStatus::Panicked { message }),
                }
            }
            _ => (Vec::new(), status),
        };

        let metrics = match (&status, release.as_deref()) {
            (JobStatus::Ok, Some(Release::Generalized(t))) => Some(ReleaseMetrics {
                rows: t.len(),
                classes: t.classes().class_count(),
                min_class_size: t.classes().min_class_size(),
                suppressed: t.suppressed_count(),
                total_loss: LossMetric::classic().total_loss(t),
            }),
            (JobStatus::Ok, Some(Release::Numeric(n))) => Some(numeric_metrics(n)),
            _ => None,
        };

        let digest_hex = match (&status, content_fp) {
            (JobStatus::Ok, Some(fp)) => Some(hex_id(fp)),
            _ => None,
        };

        let record = EvalRecord {
            job_id: hex_id(release_fp),
            dataset: job.dataset.label(),
            algorithm: job.algorithm.label(),
            k: job.k,
            max_suppression: job.max_suppression,
            seed,
            status: status.clone(),
            metrics,
            release_digest: digest_hex,
            properties: vectors.iter().map(PropertySummary::of).collect(),
            duration_ms: started.elapsed().as_millis() as u64,
            cache_hit,
        };

        JobOutcome {
            job: job.clone(),
            record,
            release: if status.is_ok() { release } else { None },
            vectors,
        }
    }

    /// Runs the anonymization itself, under panic containment and the
    /// optional wall-clock budget, with chaos faults injected when
    /// configured.
    fn compute_release(
        &self,
        job: &EvalJob,
        seed: u64,
        attempt: u32,
        ctx: &Arc<DatasetContext>,
    ) -> (JobStatus, Option<Release>) {
        let ctx = Arc::clone(ctx);
        let constraint = job.constraint();
        let algorithm = job.algorithm;
        let chaos_fault = lock(&self.chaos)
            .as_ref()
            .and_then(|c| c.fault_for(job.release_fingerprint(), attempt));
        let budget = *lock(&self.budget);

        let run = move || -> AnonymizeResult<Release> {
            match chaos_fault {
                Some(Fault::Panic) => panic!("{CHAOS_PANIC_MESSAGE}"),
                Some(Fault::Stall(d)) => std::thread::sleep(d),
                None => {}
            }
            match algorithm.perturb() {
                // Perturbative wing: a pure function of (numeric base,
                // spec, seed) — same chaos/budget/containment envelope as
                // the generalization algorithms.
                Some(spec) => match NumericBase::of(ctx.dataset()) {
                    Some(base) => Ok(Release::Numeric(spec.apply(&base, seed))),
                    None => Err(AnonymizeError::InvalidConfig(format!(
                        "{}: dataset has no numeric quasi-identifier columns",
                        spec.wire_name()
                    ))),
                },
                None => algorithm
                    .instantiate(seed)
                    .anonymize_in(&ctx, &constraint)
                    .map(Release::Generalized),
            }
        };

        let guarded = match budget {
            None => contained(AssertUnwindSafe(run)),
            Some(budget) => {
                // Run on a watchdog thread so the wait can time out. On
                // timeout the thread is abandoned (detached and leaked) —
                // its eventual result is discarded along with the channel,
                // and its context lives until it finishes.
                let (tx, rx) = mpsc::channel::<Result<AnonymizeResult<Release>, String>>();
                std::thread::spawn(move || {
                    let _ = tx.send(contained(AssertUnwindSafe(run)));
                });
                match rx.recv_timeout(budget) {
                    Ok(result) => result,
                    Err(_) => {
                        return (
                            JobStatus::BudgetExceeded {
                                budget_ms: budget.as_millis() as u64,
                            },
                            None,
                        )
                    }
                }
            }
        };

        match guarded {
            Ok(Ok(release)) => (JobStatus::Ok, Some(release)),
            Ok(Err(err)) => (
                JobStatus::Failed {
                    message: err.to_string(),
                },
                None,
            ),
            Err(message) => (JobStatus::Panicked { message }, None),
        }
    }
}

/// The fingerprint of a job's dataset: the key of the engine's dataset
/// map.
fn dataset_fingerprint(job: &EvalJob) -> u64 {
    let mut fp = Fingerprinter::new();
    job.dataset.fingerprint_into(&mut fp);
    fp.finish()
}

/// Extracts one property from either release family: the numeric fast
/// path for numeric properties on numeric releases, the [`Property`]
/// trait path otherwise. The caller has already rejected classic
/// properties on numeric releases.
///
/// [`Property`]: anoncmp_core::prelude::Property
fn extract_property(spec: &crate::job::PropertySpec, release: &Release) -> PropertyVector {
    match release {
        Release::Numeric(numeric) => spec
            .extract_numeric(numeric)
            .expect("classic properties on numeric releases fail before extraction"),
        Release::Generalized(table) => spec.instantiate().extract(table),
    }
}

/// [`ReleaseMetrics`] for a numeric release: "classes" are groups of
/// byte-identical released rows (microaggregation produces genuine
/// multi-member classes; noise mostly singletons), nothing is ever
/// suppressed, and the loss column reports the total bounded
/// distance-based loss (the numeric analogue of classic generalization
/// loss).
fn numeric_metrics(release: &NumericRelease) -> ReleaseMetrics {
    let groups = release.row_groups();
    let min_class_size = groups.iter().map(Vec::len).min().unwrap_or(0);
    let total_loss: f64 = BoundedDistanceLoss
        .extract_numeric(release)
        .values()
        .iter()
        .map(|v| -v)
        .sum();
    ReleaseMetrics {
        rows: release.len(),
        classes: groups.len(),
        min_class_size,
        suppressed: 0,
        total_loss,
    }
}

/// Rebuilds a [`JobOutcome`] from a journaled record. The table is not
/// journaled (use [`Engine::release_for`] to rematerialize); the vectors
/// are — records carry every component — so downstream comparators see
/// exactly what a fresh extraction would have produced.
fn outcome_from_checkpoint(job: &EvalJob, record: EvalRecord) -> JobOutcome {
    let vectors = record
        .properties
        .iter()
        .map(|p| PropertyVector::new(p.name.clone(), p.values.clone()))
        .collect();
    JobOutcome {
        job: job.clone(),
        record,
        release: None,
        vectors,
    }
}

thread_local! {
    /// Whether the current thread is inside an engine containment region
    /// (so the panic hook captures instead of printing).
    static CONTAINED: Cell<bool> = const { Cell::new(false) };
    /// The last contained panic's message + source location, captured by
    /// the hook (which sees the location; the unwind payload does not).
    static LAST_PANIC: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Installs (once per process) a panic hook that, for panics inside
/// [`contained`] regions, records the payload message **and source
/// location** instead of printing a backtrace to stderr. Panics anywhere
/// else are forwarded to the previously installed hook, so test-harness
/// and application panics behave exactly as before.
fn install_panic_capture() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CONTAINED.with(Cell::get) {
                previous(info);
                return;
            }
            let message = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            let full = match info.location() {
                Some(location) => format!("{message} (at {location})"),
                None => message,
            };
            LAST_PANIC.with(|last| *last.borrow_mut() = Some(full));
        }));
    });
}

/// `catch_unwind` with full payload preservation: on panic, returns the
/// payload message annotated with the panic's source location (captured
/// by the engine's hook). Quarantine records therefore say *why* a job
/// died and *where*, not just that it died.
fn contained<T>(f: impl FnOnce() -> T + std::panic::UnwindSafe) -> Result<T, String> {
    install_panic_capture();
    CONTAINED.with(|c| c.set(true));
    LAST_PANIC.with(|last| last.borrow_mut().take());
    let result = catch_unwind(f);
    CONTAINED.with(|c| c.set(false));
    result.map_err(|payload| {
        LAST_PANIC
            .with(|last| last.borrow_mut().take())
            .unwrap_or_else(|| panic_message(payload))
    })
}

/// Extracts a readable message from a caught panic payload (the fallback
/// when the hook did not run, e.g. a panic while panicking).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{AlgorithmSpec, DatasetSpec, PropertySpec};

    fn quick_jobs() -> Vec<EvalJob> {
        [2usize, 3]
            .into_iter()
            .flat_map(|k| {
                [AlgorithmSpec::Datafly, AlgorithmSpec::Mondrian]
                    .into_iter()
                    .map(move |algorithm| EvalJob {
                        dataset: DatasetSpec::Census {
                            rows: 80,
                            seed: 5,
                            zip_pool: 8,
                        },
                        algorithm,
                        k,
                        max_suppression: 8,
                        properties: vec![PropertySpec::EqClassSize],
                    })
            })
            .collect()
    }

    fn temp_journal(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "anoncmp-engine-{name}-{}.jsonl",
            std::process::id()
        ));
        std::fs::remove_file(&p).ok();
        p
    }

    #[test]
    fn sweep_preserves_submission_order() {
        let engine = Engine::new(EngineConfig {
            jobs: 4,
            ..EngineConfig::default()
        });
        let jobs = quick_jobs();
        let sweep = engine.run(&jobs);
        assert_eq!(sweep.outcomes.len(), jobs.len());
        for (job, outcome) in jobs.iter().zip(&sweep.outcomes) {
            assert_eq!(outcome.record.algorithm, job.algorithm.name());
            assert_eq!(outcome.record.k, job.k);
            assert!(outcome.record.status.is_ok(), "{:?}", outcome.record.status);
            assert_eq!(outcome.vectors.len(), 1);
        }
    }

    #[test]
    fn no_lattice_index_outlives_its_sweep() {
        let engine = Engine::new(EngineConfig {
            jobs: 2,
            ..EngineConfig::default()
        });
        let mut jobs = quick_jobs();
        for job in &mut jobs {
            if job.algorithm == AlgorithmSpec::Mondrian {
                job.algorithm = AlgorithmSpec::Incognito;
            }
        }
        // A leaked index would hold the dataset through its codec.
        let dataset = Arc::clone(engine.context_for(&jobs[0]).dataset());
        let before = Arc::strong_count(&dataset);
        let sweep = engine.run(&jobs);
        assert!(sweep.outcomes.iter().all(|o| o.record.status.is_ok()));
        drop(sweep);
        engine.clear_releases();
        assert_eq!(Arc::strong_count(&dataset), before);
    }

    #[test]
    fn second_sweep_is_all_cache_hits() {
        let engine = Engine::new(EngineConfig {
            jobs: 2,
            ..EngineConfig::default()
        });
        let jobs = quick_jobs();
        let first = engine.run(&jobs);
        assert_eq!(first.cache.hits, 0);
        assert_eq!(first.cache.misses, jobs.len() as u64);
        let second = engine.run(&jobs);
        assert_eq!(second.cache.hits, jobs.len() as u64);
        assert_eq!(second.cache.misses, 0);
        assert!(second.outcomes.iter().all(|o| o.record.cache_hit));
        // Cached and fresh sweeps agree on canonical content.
        assert_eq!(first.canonical_jsonl(), second.canonical_jsonl());
    }

    #[test]
    fn duplicate_jobs_execute_once() {
        let engine = Engine::new(EngineConfig {
            jobs: 2,
            ..EngineConfig::default()
        });
        let job = quick_jobs().remove(0);
        let sweep = engine.run(&[job.clone(), job.clone(), job]);
        assert_eq!(sweep.cache.misses, 1);
        assert_eq!(sweep.outcomes.len(), 3);
        assert!(!sweep.outcomes[0].record.cache_hit);
        assert!(sweep.outcomes[1].record.cache_hit);
        assert_eq!(
            sweep.outcomes[0].record.canonical(),
            sweep.outcomes[2].record.canonical()
        );
    }

    #[test]
    fn repeated_sweeps_serve_vectors_from_the_cache() {
        let engine = Engine::new(EngineConfig {
            jobs: 2,
            ..EngineConfig::default()
        });
        let jobs = quick_jobs();
        let first = engine.run(&jobs);
        let (hits_after_first, misses_after_first) = engine.vector_cache_stats();
        assert_eq!(hits_after_first, 0);
        assert!(misses_after_first >= jobs.len() as u64);
        let second = engine.run(&jobs);
        let (hits_after_second, misses_after_second) = engine.vector_cache_stats();
        assert_eq!(misses_after_second, misses_after_first, "no re-extraction");
        assert!(hits_after_second >= jobs.len() as u64);
        // Cache-served vectors are the same values a fresh extraction gave.
        for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
            assert_eq!(a.vectors, b.vectors);
        }
    }

    #[test]
    fn vector_cache_is_content_addressed_across_jobs() {
        // Same dataset and algorithm but different max_suppression settings
        // that end in the same release content: distinct job fingerprints,
        // one extraction.
        let engine = Engine::new(EngineConfig {
            jobs: 1,
            ..EngineConfig::default()
        });
        let base = quick_jobs().remove(0);
        let mut relaxed = base.clone();
        relaxed.max_suppression = base.max_suppression + 1;
        let sweep = engine.run(&[base, relaxed]);
        let digests: Vec<_> = sweep
            .outcomes
            .iter()
            .map(|o| o.record.release_digest.clone())
            .collect();
        if digests[0] == digests[1] {
            let (hits, misses) = engine.vector_cache_stats();
            assert_eq!(misses, 1, "one extraction for one release content");
            assert_eq!(hits, 1, "second job served from the vector cache");
            assert_eq!(sweep.outcomes[0].vectors, sweep.outcomes[1].vectors);
        }
    }

    #[test]
    fn panicking_job_yields_error_record_and_sweep_completes() {
        let engine = Engine::new(EngineConfig {
            jobs: 3,
            ..EngineConfig::default()
        });
        let mut jobs = quick_jobs();
        jobs[1].algorithm = AlgorithmSpec::MockPanic;
        let sweep = engine.run(&jobs);
        assert_eq!(sweep.outcomes.len(), jobs.len());
        match &sweep.outcomes[1].record.status {
            JobStatus::Panicked { message } => assert!(message.contains("mock-panic")),
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert!(sweep.outcomes[1].release.is_none());
        // With zero retries, the transient failure quarantines directly.
        assert_eq!(sweep.quarantined, 1);
        assert_eq!(sweep.retries, 0);
        // Every other job still succeeded.
        for (i, o) in sweep.outcomes.iter().enumerate() {
            if i != 1 {
                assert!(o.record.status.is_ok());
            }
        }
    }

    #[test]
    fn contained_panics_preserve_message_and_location() {
        // String payloads keep their formatted message; every payload —
        // string or not — gains the panic's source location. This is the
        // "quarantined jobs record *why* they died" guarantee.
        let err = contained(|| -> () { panic!("kaboom {}", 6 + 1) }).unwrap_err();
        assert!(err.contains("kaboom 7"), "message lost: {err}");
        assert!(err.contains("engine.rs"), "location lost: {err}");

        let err = contained(|| -> () { std::panic::panic_any(42u32) }).unwrap_err();
        assert!(err.contains("non-string panic payload"), "bad: {err}");
        assert!(err.contains("engine.rs"), "location lost: {err}");
    }

    #[test]
    fn panic_payload_message_reaches_the_record() {
        let engine = Engine::new(EngineConfig {
            jobs: 1,
            ..EngineConfig::default()
        });
        let mut job = quick_jobs().remove(0);
        job.algorithm = AlgorithmSpec::MockPanic;
        let sweep = engine.run(std::slice::from_ref(&job));
        match &sweep.outcomes[0].record.status {
            JobStatus::Panicked { message } => {
                assert!(
                    message.contains("deliberate failure injected"),
                    "payload message lost: {message}"
                );
                assert!(message.contains("job.rs"), "location lost: {message}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn budget_exceeded_yields_error_record() {
        let engine = Engine::new(EngineConfig {
            jobs: 2,
            budget: Some(Duration::from_millis(25)),
            ..EngineConfig::default()
        });
        let mut jobs = quick_jobs();
        jobs[0].algorithm = AlgorithmSpec::MockSleep { millis: 5_000 };
        let sweep = engine.run(&jobs);
        assert_eq!(
            sweep.outcomes[0].record.status,
            JobStatus::BudgetExceeded { budget_ms: 25 }
        );
        assert!(sweep
            .outcomes
            .iter()
            .skip(1)
            .all(|o| o.record.status.is_ok()));
    }

    #[test]
    fn streaming_sink_receives_one_line_per_job() {
        let engine = Engine::new(EngineConfig {
            jobs: 2,
            ..EngineConfig::default()
        });
        let jobs = quick_jobs();
        let mut sink = Vec::new();
        let sweep = engine.run_streaming(&jobs, &mut sink).expect("vec sink");
        let text = String::from_utf8(sink).expect("utf8 jsonl");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), jobs.len());
        for (line, outcome) in lines.iter().zip(&sweep.outcomes) {
            assert_eq!(*line, outcome.record.to_jsonl());
        }
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_jittered() {
        let policy = RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(40),
        };
        let b0 = policy.backoff_for(0xfeed, 0);
        let b1 = policy.backoff_for(0xfeed, 1);
        assert_eq!(b0, policy.backoff_for(0xfeed, 0), "deterministic");
        assert!(b1 >= b0, "exponential growth dominates jitter");
        assert!(b0 >= Duration::from_millis(40) && b0 < Duration::from_millis(80));
        assert!(b1 >= Duration::from_millis(80) && b1 < Duration::from_millis(120));
        // Different jobs jitter differently (with overwhelming probability
        // for these two fingerprints — pinned, so not flaky).
        assert_ne!(policy.backoff_for(0xfeed, 0), policy.backoff_for(0xbeef, 0));
    }

    #[test]
    fn transient_chaos_fault_heals_on_retry() {
        let mut chaos = ChaosConfig::seeded(99);
        chaos.panic_rate = 1.0; // every job faults on its first attempt
        chaos.stall_rate = 0.0;
        let engine = Engine::new(EngineConfig {
            jobs: 2,
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::from_millis(1),
            },
            chaos: Some(chaos),
            ..EngineConfig::default()
        });
        let jobs = quick_jobs();
        let sweep = engine.run(&jobs);
        assert!(
            sweep.outcomes.iter().all(|o| o.record.status.is_ok()),
            "retries heal transient faults"
        );
        assert_eq!(sweep.retries, jobs.len() as u64);
        assert_eq!(sweep.quarantined, 0);

        // The healed sweep's canonical records match a chaos-free run.
        let clean = Engine::new(EngineConfig {
            jobs: 2,
            ..EngineConfig::default()
        })
        .run(&jobs);
        assert_eq!(sweep.canonical_jsonl(), clean.canonical_jsonl());
    }

    #[test]
    fn persistent_chaos_fault_exhausts_retries_and_quarantines() {
        let mut chaos = ChaosConfig::persistent(99);
        chaos.panic_rate = 1.0;
        chaos.stall_rate = 0.0;
        let engine = Engine::new(EngineConfig {
            jobs: 1,
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::from_millis(1),
            },
            chaos: Some(chaos),
            ..EngineConfig::default()
        });
        let job = quick_jobs().remove(0);
        let sweep = engine.run(std::slice::from_ref(&job));
        assert_eq!(sweep.quarantined, 1);
        assert_eq!(sweep.retries, 2);
        match &sweep.outcomes[0].record.status {
            JobStatus::Panicked { message } => {
                assert!(message.contains(CHAOS_PANIC_MESSAGE), "cause: {message}")
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn quarantine_record_carries_cause_and_attempt_history() {
        // A quarantined job's JSONL entry must state why it died (with
        // the preserved panic payload) and every prior attempt.
        struct SharedSink(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedSink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                lock(&self.0).extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let buffer = Arc::new(Mutex::new(Vec::new()));
        let engine = Engine::new(EngineConfig {
            jobs: 1,
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::from_millis(1),
            },
            ..EngineConfig::default()
        });
        engine.set_quarantine_sink(Some(Box::new(SharedSink(buffer.clone()))));
        let mut job = quick_jobs().remove(0);
        job.algorithm = AlgorithmSpec::MockPanic;
        let sweep = engine.run(std::slice::from_ref(&job));
        assert_eq!(sweep.quarantined, 1);
        assert_eq!(sweep.retries, 2);

        let text = String::from_utf8(lock(&buffer).clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "one quarantine entry: {text}");
        let entry = serde::json::parse(lines[0]).expect("valid JSONL");
        assert_eq!(entry.get("algorithm").unwrap().as_str(), Some("mock-panic"));
        let cause = entry.get("cause").unwrap().get("Panicked").unwrap();
        let message = cause.get("message").unwrap().as_str().unwrap();
        assert!(message.contains("deliberate failure injected"), "{message}");
        let attempts = entry.get("attempts").unwrap().as_array().unwrap();
        assert_eq!(attempts.len(), 2, "both prior attempts recorded");
        for (i, a) in attempts.iter().enumerate() {
            assert_eq!(a.get("attempt").unwrap().as_u64(), Some(i as u64));
            assert!(a.get("cause").unwrap().get("Panicked").is_some());
            assert!(a.get("backoff_ms").unwrap().as_u64().unwrap() >= 1);
        }
    }

    #[test]
    fn checkpointed_sweep_resumes_without_recomputation() {
        let path = temp_journal("resume-basic");
        let jobs = quick_jobs();

        // First process: checkpoint a full sweep.
        let first = Engine::new(EngineConfig {
            jobs: 2,
            ..EngineConfig::default()
        });
        first.checkpoint_to(&path).unwrap();
        let original = first.run(&jobs);

        // Second process (fresh engine = empty caches): resume and re-run.
        let second = Engine::new(EngineConfig {
            jobs: 2,
            ..EngineConfig::default()
        });
        let summary = second.resume(&path).unwrap();
        assert_eq!(summary.replayed, jobs.len());
        assert_eq!(summary.dropped, 0);
        let resumed = second.run(&jobs);
        assert_eq!(resumed.resumed, jobs.len());
        assert_eq!(resumed.cache.misses, 0, "nothing recomputed");
        assert_eq!(original.canonical_jsonl(), resumed.canonical_jsonl());
        // Replayed vectors equal freshly extracted ones.
        for (a, b) in original.outcomes.iter().zip(&resumed.outcomes) {
            assert_eq!(a.vectors, b.vectors);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn release_for_rematerializes_after_resume() {
        let path = temp_journal("rematerialize");
        let jobs = quick_jobs();
        let first = Engine::new(EngineConfig::default());
        first.checkpoint_to(&path).unwrap();
        let original = first.run(&jobs);

        let second = Engine::new(EngineConfig::default());
        second.resume(&path).unwrap();
        let resumed = second.run(&jobs);
        assert!(
            resumed.outcomes[0].release.is_none(),
            "journal has no table"
        );
        let release = second
            .release_for(&jobs[0])
            .expect("rematerialization succeeds");
        let fresh = original.outcomes[0].release.as_ref().unwrap();
        assert_eq!(
            release_digest(&release),
            release_digest(fresh),
            "rematerialized release is bit-identical"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resilience_summary_reads_well() {
        let engine = Engine::new(EngineConfig {
            jobs: 1,
            ..EngineConfig::default()
        });
        let sweep = engine.run(&quick_jobs());
        assert_eq!(
            sweep.resilience_summary(),
            "engine resilience: 0 resumed from journal, 0 retries, 0 quarantined"
        );
    }

    #[test]
    fn numeric_classes_are_bit_identical_rows() {
        let dataset = DatasetSpec::Census {
            rows: 30,
            seed: 5,
            zip_pool: 8,
        }
        .materialize();
        let base = NumericBase::of(&dataset).expect("census has a numeric QI");
        // Rows cycle through three values; row 0 carries `-0.0`, which
        // equals `0.0` but is released as a different row.
        let columns = (0..base.width())
            .map(|_| {
                (0..base.len())
                    .map(|i| if i == 0 { -0.0 } else { (i % 3) as f64 })
                    .collect()
            })
            .collect();
        let release = NumericRelease::new("cycle", base, columns);
        let metrics = numeric_metrics(&release);
        assert_eq!(metrics.rows, 30);
        assert_eq!(metrics.classes, 4);
        assert_eq!(metrics.min_class_size, 1);
        assert_eq!(metrics.suppressed, 0);
    }
}
