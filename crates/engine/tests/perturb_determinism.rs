//! Determinism guarantees for the perturbative wing, end to end:
//!
//! - a mixed generalization + perturbation sweep produces byte-identical
//!   canonical records at any engine worker count;
//! - `Engine::release_for` rematerializes a perturbative job's
//!   `Release::Numeric` with the same content digest as the in-sweep
//!   release (the family-aware regression the journal-replay path
//!   depends on);
//! - the sharded multi-process runner merges byte-identically across
//!   worker counts {1, 2, 4} when perturbative methods are in the grid.

use std::fs;
use std::path::PathBuf;

use anoncmp_core::wire::WireDataset;
use anoncmp_engine::dist::{self, DistConfig, GridSpec, WorkerCommand};
use anoncmp_engine::fingerprint::release_digest;
use anoncmp_engine::prelude::*;

/// Mixed-family jobs over one census dataset: two generalization
/// algorithms and three perturbative methods, judged on the numeric
/// properties both families can induce.
fn mixed_jobs() -> Vec<EvalJob> {
    ["datafly", "mondrian", "noise:0.05", "mdav:5", "rankswap:8"]
        .into_iter()
        .flat_map(|name| {
            [2usize, 4].into_iter().map(move |k| EvalJob {
                dataset: DatasetSpec::Census {
                    rows: 90,
                    seed: 171,
                    zip_pool: 9,
                },
                algorithm: AlgorithmSpec::by_name(name).expect("canonical wire name"),
                k,
                max_suppression: 4,
                properties: vec![PropertySpec::BoundedLoss, PropertySpec::NeighborhoodRisk],
            })
        })
        .collect()
}

fn engine_with_jobs(workers: usize) -> Engine {
    Engine::new(EngineConfig {
        jobs: workers,
        ..EngineConfig::default()
    })
}

#[test]
fn mixed_family_sweep_is_worker_count_independent() {
    let jobs = mixed_jobs();
    let serial = engine_with_jobs(1).run(&jobs);
    let parallel = engine_with_jobs(4).run(&jobs);
    assert_eq!(serial.canonical_jsonl(), parallel.canonical_jsonl());
    assert!(
        serial
            .outcomes
            .iter()
            .all(|o| o.record.status == JobStatus::Ok),
        "every mixed-family job must succeed: {:?}",
        serial
            .outcomes
            .iter()
            .map(|o| (&o.record.algorithm, &o.record.status))
            .collect::<Vec<_>>()
    );
}

#[test]
fn release_for_rematerializes_perturbative_releases() {
    let jobs = mixed_jobs();
    let engine = engine_with_jobs(2);
    let sweep = engine.run(&jobs);

    // A *fresh* engine (cold caches) must rematerialize every release —
    // both families — with the same content digest the sweep produced.
    let fresh = engine_with_jobs(1);
    for o in &sweep.outcomes {
        let in_sweep = o.release.as_ref().expect("Ok outcome carries release");
        let again = fresh
            .release_for(&o.job)
            .expect("release_for rematerializes both families");
        assert_eq!(
            release_digest(in_sweep),
            release_digest(&again),
            "{}",
            o.record.algorithm
        );
        if o.job.algorithm.perturb().is_some() {
            assert!(
                again.as_numeric().is_some(),
                "{} must rematerialize as Release::Numeric",
                o.record.algorithm
            );
            assert!(
                fresh
                    .release_for(&o.job)
                    .is_some_and(|release| release.as_generalized().is_none()),
                "a perturbative job never rematerializes as a table"
            );
        } else {
            assert!(again.as_generalized().is_some());
        }
    }
}

/// The dist grid: same slate, resolved through the wire-name path a
/// `anoncmp dist --algos` invocation uses.
fn perturb_grid(shards: usize) -> GridSpec {
    GridSpec {
        dataset: WireDataset::Census {
            rows: 70,
            seed: 171,
            zip_pool: 8,
        },
        algorithms: vec![
            "datafly".into(),
            "mondrian".into(),
            "noise:0.05".into(),
            "mdav:5".into(),
            "rankswap:8".into(),
        ],
        ks: vec![2, 3],
        max_suppression: 4,
        properties: vec!["bounded-loss".into()],
        root_seed: 0xED5B_2009,
        shards,
        engine_jobs: 1,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("anoncmp-perturb-dist-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Worker entry point: re-executed by the supervisor as a child of this
/// very test binary (no-op without the supervisor's environment).
#[test]
fn dist_worker_entry() {
    dist::run_worker_from_env().expect("worker run succeeds");
}

#[test]
fn dist_merge_with_perturb_methods_is_byte_identical_for_worker_counts_1_2_4() {
    // Single-process ground truth, canonicalized exactly as the merge is.
    let jobs = perturb_grid(1).jobs().expect("grid expands");
    let journal = temp_dir("ref").with_extension("jsonl");
    let _ = fs::remove_file(&journal);
    let mut engine = engine_with_jobs(1);
    engine.resume(&journal).expect("checkpoint journal");
    let sweep = engine.run(&jobs);
    assert!(sweep
        .outcomes
        .iter()
        .all(|o| o.record.status == JobStatus::Ok));
    engine.finish().expect("close the journal");
    let replay = Journal::replay(&journal).expect("replay reference journal");
    let _ = fs::remove_file(&journal);
    let (canonical, merged, missing) = dist::canonical_journal(&jobs, &replay.completed);
    assert_eq!((merged, missing), (jobs.len(), 0));

    let worker = WorkerCommand::current_exe(vec![
        "dist_worker_entry".into(),
        "--exact".into(),
        "--test-threads=1".into(),
    ])
    .expect("current exe");
    for workers in [1usize, 2, 4] {
        let dir = temp_dir(&format!("workers-{workers}"));
        let spec = perturb_grid(4);
        let config = DistConfig::new(&dir, workers);
        let report = dist::run_supervisor(&spec, &config, &worker).expect("supervised run");
        assert_eq!(report.merge.missing, 0);
        assert_eq!(report.merge.merged, jobs.len());
        let text = fs::read_to_string(&report.merged_path).expect("read merged journal");
        assert_eq!(
            text, canonical,
            "{workers}-worker merged journal with perturbative methods must be \
             byte-identical to the single-process run"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
