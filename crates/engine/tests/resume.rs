//! Integration tests for crash-safe resumable sweeps: a sweep killed
//! mid-journal (simulated by chaos-injected journal truncation) and then
//! resumed must produce a canonical record set byte-identical to an
//! uninterrupted run — at one worker and at eight — and chaos-faulted
//! sweeps must quarantine exactly the faulted jobs while every other
//! record matches a fault-free run.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use anoncmp_engine::prelude::*;
use anoncmp_microdata::parallel::lock;

/// A mixed grid: every standard algorithm at two k values, plus a
/// deliberately panicking job so the transient-failure path is exercised
/// alongside the checkpointed ones.
fn mixed_grid() -> Vec<EvalJob> {
    let mut jobs: Vec<EvalJob> = [2usize, 5]
        .into_iter()
        .flat_map(|k| {
            AlgorithmSpec::standard_suite()
                .into_iter()
                .map(move |algorithm| EvalJob {
                    dataset: DatasetSpec::Census {
                        rows: 120,
                        seed: 41,
                        zip_pool: 12,
                    },
                    algorithm,
                    k,
                    max_suppression: 6,
                    properties: vec![PropertySpec::EqClassSize, PropertySpec::Discernibility],
                })
        })
        .collect();
    jobs.push(EvalJob {
        dataset: DatasetSpec::Census {
            rows: 120,
            seed: 41,
            zip_pool: 12,
        },
        algorithm: AlgorithmSpec::MockPanic,
        k: 2,
        max_suppression: 6,
        properties: vec![PropertySpec::EqClassSize],
    });
    jobs
}

fn engine_with_jobs(workers: usize) -> Engine {
    Engine::new(EngineConfig {
        jobs: workers,
        ..EngineConfig::default()
    })
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "anoncmp-resume-test-{name}-{}.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&p).ok();
    p
}

/// A quarantine sink tests can read back after the engine is done with it.
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

/// The kill-and-resume contract, at both worker counts the acceptance
/// criteria name: the journal is torn mid-append after five checkpoints
/// (exactly what `kill -9` during a write leaves behind), and the
/// resumed run — a fresh engine, fresh caches, as after a real crash —
/// merges replayed and recomputed records into a canonical set
/// byte-identical to an uninterrupted sweep's.
#[test]
fn killed_mid_sweep_then_resumed_is_byte_identical() {
    let jobs = mixed_grid();
    for workers in [1usize, 8] {
        let baseline = engine_with_jobs(workers).run(&jobs);

        // "First process": checkpoint until chaos kills the journal
        // mid-append. The sweep itself still completes — a dead journal
        // never aborts work — but only five entries survive on disk,
        // followed by a torn line.
        let path = temp_path(&format!("kill-{workers}w"));
        let mut chaos = ChaosConfig::seeded(7);
        chaos.panic_rate = 0.0;
        chaos.stall_rate = 0.0;
        chaos.truncate_journal_after = Some(5);
        let mut interrupted = Engine::new(EngineConfig {
            jobs: workers,
            chaos: Some(chaos),
            ..EngineConfig::default()
        });
        interrupted.resume(&path).unwrap();
        interrupted.run(&jobs);

        // "Second process": resume heals the torn tail and replays the
        // five completed jobs; the sweep recomputes only the rest.
        let mut resumed_engine = engine_with_jobs(workers);
        let summary = resumed_engine.resume(&path).unwrap();
        assert_eq!(summary.replayed, 5, "five fsync'd checkpoints survive");
        assert_eq!(summary.dropped, 1, "the torn line is dropped");
        let resumed = resumed_engine.run(&jobs);
        assert_eq!(resumed.resumed, 5);
        assert_eq!(
            baseline.canonical_jsonl(),
            resumed.canonical_jsonl(),
            "resumed sweep at {workers} worker(s) must be byte-identical"
        );

        // The journal now holds every checkpointable job: a third run
        // recomputes nothing but the (never-journaled) panicking job.
        let mut third_engine = engine_with_jobs(workers);
        let complete = third_engine.resume(&path).unwrap();
        assert_eq!(complete.dropped, 0, "resume truncated the torn tail");
        let third = third_engine.run(&jobs);
        assert_eq!(third.resumed, jobs.len() - 1);
        assert_eq!(baseline.canonical_jsonl(), third.canonical_jsonl());

        std::fs::remove_file(&path).ok();
    }
}

/// Persistent chaos faults must quarantine exactly the faulted jobs —
/// with cause and full attempt history — while every non-faulted job's
/// record stays identical to a fault-free run.
#[test]
fn persistent_chaos_quarantines_exactly_the_faulted_jobs() {
    let jobs = mixed_grid();
    let clean = engine_with_jobs(4).run(&jobs);

    let mut chaos = ChaosConfig::persistent(2026);
    chaos.panic_rate = 0.10;
    chaos.stall_rate = 0.0; // stalls only fail under a budget; keep this pure
    let chaos_probe = chaos.clone();

    let mut engine = Engine::new(EngineConfig {
        jobs: 4,
        retry: RetryPolicy {
            max_retries: 1,
            base_backoff: Duration::from_millis(1),
        },
        chaos: Some(chaos),
        ..EngineConfig::default()
    });
    let buffer = Arc::new(Mutex::new(Vec::new()));
    engine.quarantine_to(Box::new(SharedSink(buffer.clone())));
    let faulted = engine.run(&jobs);

    // The expected quarantine set is computable up front: chaos decisions
    // are pure in (seed, job content), plus the always-panicking mock.
    let expected: Vec<bool> = jobs
        .iter()
        .map(|j| {
            chaos_probe.is_faulted(j.release_fingerprint())
                || matches!(j.algorithm, AlgorithmSpec::MockPanic)
        })
        .collect();
    let expected_count = expected.iter().filter(|&&f| f).count() as u64;
    assert!(expected_count >= 1, "the seed must fault something");
    assert_eq!(faulted.quarantined, expected_count);

    for ((job, outcome), (clean_outcome, &is_faulted)) in jobs
        .iter()
        .zip(&faulted.outcomes)
        .zip(clean.outcomes.iter().zip(&expected))
    {
        if is_faulted {
            assert!(
                matches!(outcome.record.status, JobStatus::Panicked { .. }),
                "{} should have been chaos-panicked",
                job.algorithm.name()
            );
        } else {
            assert_eq!(
                outcome.record.canonical(),
                clean_outcome.record.canonical(),
                "non-faulted {} must match the fault-free run",
                job.algorithm.name()
            );
        }
    }

    // Quarantine entries carry the cause and the full attempt history.
    let text = String::from_utf8(lock(&buffer).clone()).unwrap();
    let entries: Vec<serde::json::Value> = text
        .lines()
        .map(|l| serde::json::parse(l).expect("valid quarantine JSONL"))
        .collect();
    assert_eq!(entries.len(), expected_count as usize);
    for e in &entries {
        assert!(e.get("cause").unwrap().get("Panicked").is_some());
        let attempts = e.get("attempts").unwrap().as_array().unwrap();
        assert_eq!(attempts.len(), 1, "max_retries = 1 ⇒ one failed attempt");
    }
}

/// Transient chaos (each faulted job heals on retry) must leave no trace
/// in the records: with retries on, the sweep's canonical output is
/// byte-identical to a chaos-free run.
#[test]
fn transient_chaos_with_retries_leaves_records_unchanged() {
    let jobs = mixed_grid();
    let clean = engine_with_jobs(4).run(&jobs);

    let mut chaos = ChaosConfig::seeded(2026);
    chaos.panic_rate = 0.10;
    chaos.stall_rate = 0.0;
    let engine = Engine::new(EngineConfig {
        jobs: 4,
        retry: RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(1),
        },
        chaos: Some(chaos),
        ..EngineConfig::default()
    });
    let healed = engine.run(&jobs);
    assert_eq!(
        healed.quarantined, 1,
        "only the mock panic exhausts retries"
    );
    assert_eq!(clean.canonical_jsonl(), healed.canonical_jsonl());
}
