//! # anoncmp-engine
//!
//! The sweep-execution substrate of the `anoncmp` workspace: a parallel,
//! memoizing evaluation engine for *algorithm × k × dataset* grids.
//!
//! The paper this workspace reproduces is about **comparing** disclosure
//! control algorithms, which in practice means running the same
//! anonymizations over and over — once per comparator tournament, once per
//! experiment, once per benchmark. DPBench-style harnesses showed that such
//! comparisons want explicit, typed job specifications and machine-readable
//! results; this crate provides both:
//!
//! * [`EvalJob`] — a typed job spec: dataset spec × algorithm spec ×
//!   privacy parameters × requested property vectors;
//! * [`Engine`] — a worker pool (`--jobs N` threads claiming jobs from a
//!   shared counter) with a content-addressed memoization cache, so a
//!   release computed for one experiment is reused by every later
//!   tournament on the same engine with the same spec;
//! * [`EvalRecord`] — a serde-serializable per-release record that can be
//!   streamed as JSONL to a file sink.
//!
//! ## Guarantees
//!
//! * **Deterministic.** Per-job seeds are derived from the engine's root
//!   seed and the job's *content* (not its position or schedule), and sweep
//!   results are returned in submission order — `--jobs 8` produces
//!   byte-identical reports to `--jobs 1`.
//! * **Robust.** Every job runs under `catch_unwind` (with the panic
//!   payload message and source location preserved), optionally with a
//!   wall-clock budget; transient failures are retried under a
//!   deterministic [`RetryPolicy`] and quarantined with their attempt
//!   history when the budget is exhausted, while the rest of the sweep
//!   completes.
//! * **Resumable.** With a checkpoint [`Journal`] attached, every
//!   completed job is appended fsync'd as one JSONL line; after a crash,
//!   [`Engine::resume`] replays the journal (healing any torn tail) and
//!   re-running the sweep skips completed jobs yet produces a canonical
//!   record set byte-identical to an uninterrupted run.
//! * **Testable under fault.** The [`chaos`] module injects deterministic,
//!   seeded faults — panics, stalls past the budget, torn journal
//!   writes — so recovery paths are exercised by reproducible tests.
//!
//! ```
//! use anoncmp_engine::prelude::*;
//!
//! let engine = Engine::new(EngineConfig { jobs: 2, ..EngineConfig::default() });
//! let jobs: Vec<EvalJob> = AlgorithmSpec::standard_suite()
//!     .into_iter()
//!     .map(|algorithm| EvalJob {
//!         dataset: DatasetSpec::Census { rows: 120, seed: 7, zip_pool: 10 },
//!         algorithm,
//!         k: 3,
//!         max_suppression: 6,
//!         properties: vec![PropertySpec::EqClassSize],
//!     })
//!     .collect();
//! let sweep = engine.run(&jobs);
//! assert_eq!(sweep.outcomes.len(), jobs.len());
//! // Re-running the same grid is served from the memo cache.
//! let again = engine.run(&jobs);
//! assert!(again.outcomes.iter().all(|o| o.record.cache_hit));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod chaos;
pub mod dist;
pub mod engine;
pub mod fingerprint;
pub mod job;
pub mod journal;
pub mod record;

pub use crate::cache::{CacheStats, LruCache, MemoCache};
pub use crate::chaos::{ChaosConfig, Fault};
pub use crate::dist::{
    DistChaos, DistConfig, DistReport, GridSpec, MergeReport, ShardOutcome, WorkerCommand,
};
pub use crate::engine::{
    Engine, EngineConfig, JobOutcome, ResumeSummary, RetryPolicy, SweepResult,
};
pub use crate::job::{AlgorithmSpec, DatasetSpec, EvalJob, PropertySpec};
pub use crate::journal::{Journal, Replay, ShardMeta};
pub use crate::record::{
    AttemptFailure, EvalRecord, JobStatus, PropertySummary, QuarantineRecord, ReleaseMetrics,
};

/// One-stop imports for engine users.
pub mod prelude {
    pub use crate::cache::{CacheStats, LruCache};
    pub use crate::chaos::{ChaosConfig, Fault};
    pub use crate::dist::{
        DistChaos, DistConfig, DistReport, GridSpec, MergeReport, ShardOutcome, WorkerCommand,
    };
    pub use crate::engine::{
        Engine, EngineConfig, JobOutcome, ResumeSummary, RetryPolicy, SweepResult,
    };
    pub use crate::job::{AlgorithmSpec, DatasetSpec, EvalJob, PropertySpec};
    pub use crate::journal::{Journal, Replay, ShardMeta};
    pub use crate::record::{
        AttemptFailure, EvalRecord, JobStatus, PropertySummary, QuarantineRecord, ReleaseMetrics,
    };
}
