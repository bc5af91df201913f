//! Integration tests for the engine's two load-bearing guarantees:
//!
//! 1. **Scheduling independence** — the same job list produces
//!    byte-identical canonical records whether it runs on one worker or
//!    eight, because per-job seeds derive from release content, not from
//!    submission index or scheduling order.
//! 2. **Memoization transparency** — a cache hit is observationally
//!    identical to a fresh computation: same anonymized table, same
//!    property vectors, same record.

use anoncmp_engine::prelude::*;
use anoncmp_microdata::csv::anonymized_to_csv;
use proptest::prelude::*;

/// A mixed grid: every standard algorithm at two k values, plus a
/// deliberately panicking job so the error path is part of the
/// determinism contract too.
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

#[test]
fn one_worker_and_eight_workers_yield_byte_identical_records() {
    let jobs = mixed_grid();
    let serial = engine_with_jobs(1).run(&jobs);
    let parallel = engine_with_jobs(8).run(&jobs);

    assert_eq!(serial.outcomes.len(), jobs.len());
    assert_eq!(serial.canonical_jsonl(), parallel.canonical_jsonl());

    // The panicking job is an error record, not a sweep abort.
    let last = &serial.outcomes.last().unwrap().record;
    assert!(matches!(last.status, JobStatus::Panicked { .. }));
    assert!(
        serial
            .outcomes
            .iter()
            .filter(|o| o.record.status.is_ok())
            .count()
            >= 14
    );
}

#[test]
fn record_sink_output_is_worker_count_independent() {
    let jobs = mixed_grid();
    // The record sink as `--out` attaches it: a buffered file, flushed by
    // `finish`.
    let records = |workers: usize| -> String {
        let path = std::env::temp_dir().join(format!(
            "anoncmp-determinism-{workers}w-{}.jsonl",
            std::process::id()
        ));
        let file = std::fs::File::create(&path).expect("temp file is writable");
        let mut engine = engine_with_jobs(workers);
        engine.record_to(Box::new(std::io::BufWriter::new(file)));
        engine.run(&jobs);
        engine.finish().expect("records written");
        let text = std::fs::read_to_string(&path).expect("records readable");
        std::fs::remove_file(&path).ok();
        text
    };
    let (text1, text8) = (records(1), records(8));

    // Sink lines carry wall-clock timings, so compare canonicalized.
    let canon = |text: &str| -> Vec<String> {
        text.lines()
            .map(|l| {
                // duration_ms and cache_hit are the only non-deterministic
                // fields; strip them textually.
                let mut s = l.to_string();
                if let (Some(a), Some(b)) = (s.find("\"duration_ms\""), s.find("\"cache_hit\"")) {
                    let end = s[b..].find('}').map(|e| b + e).unwrap_or(s.len());
                    s.replace_range(a..end, "");
                }
                s
            })
            .collect()
    };
    assert_eq!(canon(&text1).len(), jobs.len());
    assert_eq!(canon(&text1), canon(&text8));
}

#[test]
fn rerunning_a_sweep_is_served_from_cache_and_identical() {
    let jobs = mixed_grid();
    let engine = engine_with_jobs(4);
    let cold = engine.run(&jobs);
    let warm = engine.run(&jobs);

    assert_eq!(cold.canonical_jsonl(), warm.canonical_jsonl());
    // Every successful job in the warm sweep is a hit; failures are not
    // cached (a panic is recomputed, which is what you want when the
    // panic was environmental).
    let ok_jobs = warm
        .outcomes
        .iter()
        .filter(|o| o.record.status.is_ok())
        .count();
    assert!(warm.cache.hits >= ok_jobs as u64);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    /// Cached and uncached evaluations of the same job are
    /// observationally identical: the anonymized table renders to the
    /// same CSV, the property vectors are equal, and the canonical
    /// records match — across random dataset sizes, seeds, k values,
    /// and (fast) algorithms.
    fn cached_run_equals_fresh_run(
        rows in 60usize..=120,
        seed in 0u64..1_000,
        k in 2usize..=5,
        algo_ix in 0usize..6,
    ) {
        let algorithm = [
            AlgorithmSpec::Datafly,
            AlgorithmSpec::Samarati,
            AlgorithmSpec::Incognito,
            AlgorithmSpec::Mondrian,
            AlgorithmSpec::Greedy,
            AlgorithmSpec::TopDown,
        ][algo_ix];
        let job = EvalJob {
            dataset: DatasetSpec::Census { rows, seed, zip_pool: 10 },
            algorithm,
            k,
            max_suppression: rows / 10,
            properties: vec![PropertySpec::EqClassSize, PropertySpec::BreachProbability],
        };

        // One engine runs the job twice (second time from cache); a
        // second engine computes it fresh with its own cache.
        let reused = engine_with_jobs(2);
        let first = reused.run(std::slice::from_ref(&job));
        let second = reused.run(std::slice::from_ref(&job));
        let fresh = engine_with_jobs(1).run(std::slice::from_ref(&job));

        let table_of = |sweep: &SweepResult| {
            sweep.outcomes[0]
                .release
                .as_ref()
                .and_then(|r| r.as_generalized())
                .map(anonymized_to_csv)
        };
        prop_assert_eq!(table_of(&first), table_of(&second));
        prop_assert_eq!(table_of(&first), table_of(&fresh));
        prop_assert_eq!(&first.outcomes[0].vectors, &second.outcomes[0].vectors);
        prop_assert_eq!(&first.outcomes[0].vectors, &fresh.outcomes[0].vectors);
        prop_assert_eq!(
            first.outcomes[0].record.canonical().to_jsonl(),
            fresh.outcomes[0].record.canonical().to_jsonl()
        );
        if first.outcomes[0].record.status.is_ok() {
            prop_assert!(second.outcomes[0].record.cache_hit);
        }
    }
}
