//! Deterministic fault injection for testing the engine's recovery
//! machinery.
//!
//! Chaos is **seeded and content-derived**: whether a job is faulted — and
//! how — depends only on `(chaos seed, job fingerprint, attempt)`, never
//! on scheduling, worker count, or wall clock. The same chaos seed faults
//! the same jobs at `--jobs 1` and `--jobs 8`, which is what lets CI
//! assert exact quarantine counts and resume determinism.
//!
//! Three fault kinds cover the failure paths the engine must survive:
//!
//! * [`Fault::Panic`] — the anonymizer panics mid-run (exercises
//!   `catch_unwind` containment, retry, and quarantine);
//! * [`Fault::Stall`] — the anonymizer sleeps past the wall-clock budget
//!   (exercises the watchdog timeout path);
//! * journal truncation ([`ChaosConfig::truncate_journal_after`]) — the
//!   checkpoint journal dies mid-append after N entries, simulating a
//!   process kill (exercises torn-tail recovery and `Engine::resume`).
//!
//! By default a faulted job fails only on its first attempt
//! ([`ChaosConfig::faults_per_job`] = 1), modeling a transient fault that
//! a retry heals; raise it past the retry budget to drive jobs into
//! quarantine.

use std::time::Duration;

use crate::fingerprint::derive_seed;

/// Deterministic fault injection, set in
/// [`EngineConfig::chaos`](crate::engine::EngineConfig::chaos) when an
/// engine is built; the `--chaos-seed` CLI flag sets it through
/// [`EngineConfig::from_flags`](crate::engine::EngineConfig::from_flags).
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed all fault decisions derive from.
    pub seed: u64,
    /// Fraction of jobs (by fingerprint hash) that panic.
    pub panic_rate: f64,
    /// Fraction of jobs that stall past the wall-clock budget.
    pub stall_rate: f64,
    /// How long a stalled job sleeps.
    pub stall: Duration,
    /// Number of leading attempts that fault before the job is allowed to
    /// succeed. `1` models a transient fault (a retry heals it); a value
    /// above the engine's retry budget forces quarantine.
    pub faults_per_job: u32,
    /// After this many journal appends, the next append is torn mid-write
    /// and the journal goes dead — a deterministic stand-in for killing
    /// the process at a journaled midpoint.
    pub truncate_journal_after: Option<u64>,
    /// Once this many journal appends have fsync'd, abort the whole
    /// process (`std::process::abort`, i.e. SIGABRT with no cleanup — the
    /// moral equivalent of `kill -9`). Unlike
    /// [`truncate_journal_after`](Self::truncate_journal_after), which
    /// models a torn write inside one engine, this models whole-worker
    /// loss for the distributed supervisor: exactly N records survive on
    /// disk and nothing else of the process does.
    pub abort_after_appends: Option<u64>,
}

impl ChaosConfig {
    /// The standard chaos profile used by the CI smoke: ~10% of jobs
    /// faulted (half panics, half stalls), each healing on first retry.
    pub fn seeded(seed: u64) -> Self {
        ChaosConfig {
            seed,
            panic_rate: 0.05,
            stall_rate: 0.05,
            stall: Duration::from_millis(200),
            faults_per_job: 1,
            truncate_journal_after: None,
            abort_after_appends: None,
        }
    }

    /// A pure worker-loss profile: no per-job faults, but the process
    /// aborts once `appends` journal entries have fsync'd. Used by the
    /// dist chaos drill to kill a worker at a deterministic midpoint.
    pub fn abort_after(appends: u64) -> Self {
        ChaosConfig {
            seed: 0,
            panic_rate: 0.0,
            stall_rate: 0.0,
            stall: Duration::ZERO,
            faults_per_job: 0,
            truncate_journal_after: None,
            abort_after_appends: Some(appends),
        }
    }

    /// Same profile, but faulted jobs never heal: every retry fails too,
    /// so they exhaust the retry budget and land in quarantine.
    pub fn persistent(seed: u64) -> Self {
        ChaosConfig {
            faults_per_job: u32::MAX,
            ..ChaosConfig::seeded(seed)
        }
    }

    /// The fault (if any) to inject into the given attempt of the job
    /// with this release fingerprint. Pure in `(self, fingerprint,
    /// attempt)`.
    pub fn fault_for(&self, release_fingerprint: u64, attempt: u32) -> Option<Fault> {
        if attempt >= self.faults_per_job {
            return None;
        }
        // SplitMix-finalized hash → uniform in [0, 1).
        let h = derive_seed(self.seed, release_fingerprint);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.panic_rate {
            Some(Fault::Panic)
        } else if u < self.panic_rate + self.stall_rate {
            Some(Fault::Stall(self.stall))
        } else {
            None
        }
    }

    /// Whether this config faults the job on its first attempt — i.e.
    /// whether the job counts toward the expected quarantine set when
    /// faults are persistent.
    pub fn is_faulted(&self, release_fingerprint: u64) -> bool {
        self.faults_per_job > 0 && self.fault_for(release_fingerprint, 0).is_some()
    }
}

/// A fault selected for one job attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the anonymizer.
    Panic,
    /// Sleep this long inside the anonymizer (to trip the budget).
    Stall(Duration),
}

/// The panic message chaos-injected panics carry, so quarantine records
/// and tests can tell injected faults from real ones.
pub const CHAOS_PANIC_MESSAGE: &str = "chaos: injected panic";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_decisions_are_deterministic() {
        let cfg = ChaosConfig::seeded(42);
        for fp in 0u64..500 {
            assert_eq!(cfg.fault_for(fp, 0), cfg.fault_for(fp, 0));
        }
    }

    #[test]
    fn fault_rate_is_roughly_the_configured_fraction() {
        let cfg = ChaosConfig::seeded(7);
        let faulted = (0u64..10_000).filter(|&fp| cfg.is_faulted(fp)).count();
        // 10% nominal; allow generous slack for the small sample.
        assert!(
            (700..1300).contains(&faulted),
            "expected ~1000 faulted of 10k, got {faulted}"
        );
    }

    #[test]
    fn different_seeds_fault_different_jobs() {
        let a = ChaosConfig::seeded(1);
        let b = ChaosConfig::seeded(2);
        let same = (0u64..2_000)
            .filter(|&fp| a.is_faulted(fp) == b.is_faulted(fp))
            .count();
        assert!(same < 2_000, "seeds must matter");
    }

    #[test]
    fn transient_faults_heal_after_the_configured_attempts() {
        let cfg = ChaosConfig::seeded(42);
        let faulted_fp = (0u64..10_000)
            .find(|&fp| cfg.is_faulted(fp))
            .expect("some job faults");
        assert!(cfg.fault_for(faulted_fp, 0).is_some());
        assert_eq!(cfg.fault_for(faulted_fp, 1), None, "attempt 1 heals");
        let persistent = ChaosConfig::persistent(42);
        assert!(persistent.fault_for(faulted_fp, 10).is_some());
    }
}
