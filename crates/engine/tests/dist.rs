//! Integration and property tests for the sharded multi-process runner.
//!
//! The contract under test is the one `dist`'s module docs argue for:
//! the job→shard assignment is a pure function of content fingerprints
//! (a partition of the `u64` space, independent of worker count), and
//! the merged journal is **byte-identical** to a single-process run —
//! across worker counts, shard counts, and worker-loss kill points.
//!
//! The real-process tests re-execute this very test binary as the
//! worker: [`dist_worker_entry`] calls `run_worker_from_env`, which is a
//! no-op unless the supervisor put a shard assignment in the
//! environment, and the `WorkerCommand` filters the child harness down
//! to exactly that test.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Duration;

use anoncmp_core::wire::WireDataset;
use anoncmp_engine::dist::{self, DistChaos, DistConfig, GridSpec, WorkerCommand};
use anoncmp_engine::prelude::*;
use proptest::prelude::*;

/// The grid every test runs: small enough to sweep in milliseconds,
/// wide enough (6 jobs) that 3- and 4-way shard plans are non-trivial.
fn grid(shards: usize) -> GridSpec {
    GridSpec {
        dataset: WireDataset::Census {
            rows: 70,
            seed: 23,
            zip_pool: 8,
        },
        algorithms: vec!["datafly".into(), "mondrian".into(), "top-down".into()],
        ks: vec![2, 3],
        max_suppression: 4,
        properties: vec!["eq-class-size".into()],
        root_seed: 0xED5B_2009,
        shards,
        engine_jobs: 1,
    }
}

/// A scratch directory unique to one test (and one process).
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anoncmp-dist-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Re-execute this test binary as the worker, running only
/// [`dist_worker_entry`].
fn test_worker() -> WorkerCommand {
    WorkerCommand::current_exe(vec![
        "dist_worker_entry".into(),
        "--exact".into(),
        "--test-threads=1".into(),
    ])
    .expect("current exe")
}

struct Reference {
    jobs: Vec<EvalJob>,
    /// Canonical journal text of an uninterrupted single-process run.
    canonical: String,
}

/// The single-process ground truth, computed once: sweep the grid with
/// one engine thread and a checkpoint journal, then canonicalize the
/// journal exactly as the merge does.
fn reference() -> &'static Reference {
    static REF: OnceLock<Reference> = OnceLock::new();
    REF.get_or_init(|| {
        let jobs = grid(1).jobs().expect("grid expands");
        let path =
            std::env::temp_dir().join(format!("anoncmp-dist-ref-{}.jsonl", std::process::id()));
        let _ = fs::remove_file(&path);
        let mut engine = Engine::new(EngineConfig {
            jobs: 1,
            ..EngineConfig::default()
        });
        engine.resume(&path).expect("checkpoint journal");
        let sweep = engine.run(&jobs);
        assert!(
            sweep
                .outcomes
                .iter()
                .all(|o| o.record.status == JobStatus::Ok),
            "the fixture grid must sweep cleanly"
        );
        engine.finish().expect("close the journal");
        let replay = Journal::replay(&path).expect("replay reference journal");
        let _ = fs::remove_file(&path);
        let (canonical, merged, missing) = dist::canonical_journal(&jobs, &replay.completed);
        assert_eq!(merged, jobs.len());
        assert_eq!(missing, 0);
        Reference { jobs, canonical }
    })
}

/// A paper-style comparison table derived from a merged journal — the
/// "final report table" the acceptance criteria pin byte-identity on.
fn report_table(merged: &Path, jobs: &[EvalJob]) -> String {
    let replay = Journal::replay(merged).expect("replay merged journal");
    let mut table = format!(
        "{:<16} {:>3} {:>8} {:>10} {:>12}\n",
        "algorithm", "k", "classes", "suppressed", "loss"
    );
    for job in jobs {
        let record = &replay.completed[&job.job_fingerprint()];
        let metrics = record.metrics.as_ref().expect("Ok record has metrics");
        table.push_str(&format!(
            "{:<16} {:>3} {:>8} {:>10} {:>12.4}\n",
            record.algorithm, record.k, metrics.classes, metrics.suppressed, metrics.total_loss
        ));
    }
    table
}

/// Worker entry point for the real-process tests. Without the
/// supervisor's environment this is a no-op that trivially passes; with
/// it, the process runs its assigned shard and the harness exit code
/// reports success to the supervisor.
#[test]
fn dist_worker_entry() {
    dist::run_worker_from_env().expect("worker run succeeds");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Satellite 4a: shard-range planning is a partition of the `u64`
    /// fingerprint space — contiguous, gap-free, and in exact agreement
    /// with `shard_of` — for every fingerprint we throw at it and for
    /// shard counts beyond the ones production uses.
    #[test]
    fn shard_planning_is_a_partition(
        shards in 1usize..=9,
        fps in prop::collection::vec(0u64..=u64::MAX, 1..48),
    ) {
        let ranges = dist::plan_shards(shards);
        prop_assert_eq!(ranges.len(), shards);
        prop_assert_eq!(ranges[0].lo, 0);
        prop_assert_eq!(ranges[shards - 1].hi, u64::MAX);
        for pair in ranges.windows(2) {
            prop_assert!(pair[0].hi < pair[1].lo, "ranges must not overlap");
            prop_assert_eq!(pair[0].hi + 1, pair[1].lo, "ranges must not leave gaps");
        }
        // Edges and random fingerprints each land in exactly one range,
        // and that range is the one `shard_of` names.
        let edges = ranges.iter().flat_map(|r| [r.lo, r.hi]);
        for fp in fps.iter().copied().chain(edges) {
            let owners: Vec<usize> = (0..shards).filter(|&s| ranges[s].contains(fp)).collect();
            prop_assert_eq!(owners.len(), 1, "fingerprint {:016x} owned by {:?}", fp, &owners);
            prop_assert_eq!(owners[0], dist::shard_of(fp, shards));
        }
    }

    /// The grid's job→shard assignment depends only on content
    /// fingerprints and the shard count — recomputing it for any
    /// worker count {1, 2, 3, 8} yields the same assignment, so work
    /// never moves when the worker fleet is resized.
    #[test]
    fn shard_assignment_is_stable_across_worker_counts(shards in 1usize..=8) {
        let jobs = reference().jobs.clone();
        let baseline: Vec<usize> = jobs
            .iter()
            .map(|job| dist::shard_of(job.job_fingerprint(), shards))
            .collect();
        for _workers in [1usize, 2, 3, 8] {
            // The assignment has no worker-count input at all; pin that
            // by recomputing it once per fleet size.
            let again: Vec<usize> = jobs
                .iter()
                .map(|job| dist::shard_of(job.job_fingerprint(), shards))
                .collect();
            prop_assert_eq!(&again, &baseline);
        }
        let mut covered = HashSet::new();
        for &shard in &baseline {
            prop_assert!(shard < shards);
            covered.insert(shard);
        }
        prop_assert!(!covered.is_empty());
    }

    /// Satellite 4b: merging shard journals produced under any shard
    /// count and any mid-shard kill point (torn journal + heal by
    /// resume) is byte-identical to the single-process canonical
    /// journal. This is the in-process half of the byte-identity
    /// argument; the real-process half is below.
    #[test]
    fn merge_is_byte_identical_across_shard_counts_and_kill_points(
        shards in 1usize..=5,
        victim_pick in 0usize..8,
        kill in 0u64..6,
    ) {
        let reference = reference();
        let spec = grid(shards);
        let victim = victim_pick % shards;
        let dir = temp_dir(&format!("inproc-{shards}-{victim}-{kill}"));
        fs::create_dir_all(&dir).expect("create scratch dir");

        for shard in 0..shards {
            let shard_jobs: Vec<EvalJob> = reference
                .jobs
                .iter()
                .filter(|job| dist::shard_of(job.job_fingerprint(), shards) == shard)
                .cloned()
                .collect();
            if shard_jobs.is_empty() {
                continue;
            }
            let journal = dir.join(format!("shard-{shard}.jsonl"));
            let meta = spec.shard_meta(shard);

            // First worker: its journal is torn dead after `kill`
            // fsync'd appends when this shard is the victim.
            let chaos = (shard == victim).then(|| {
                let mut chaos = ChaosConfig::abort_after(0);
                chaos.abort_after_appends = None;
                chaos.truncate_journal_after = Some(kill);
                chaos
            });
            let mut engine = Engine::new(EngineConfig {
                jobs: 1,
                chaos,
                ..EngineConfig::default()
            });
            engine.resume_sharded(&journal, meta).expect("open shard journal");
            engine.run(&shard_jobs);
            engine.finish().expect("close the shard journal");

            // Reassigned worker: resume the torn journal and heal.
            if shard == victim {
                let mut engine = Engine::new(EngineConfig {
                    jobs: 1,
                    ..EngineConfig::default()
                });
                let resumed = engine.resume_sharded(&journal, meta).expect("heal shard journal");
                prop_assert!(resumed.replayed as u64 <= shard_jobs.len() as u64);
                engine.run(&shard_jobs);
                engine.finish().expect("close the shard journal");
            }
        }

        let merged = dir.join("merged.jsonl");
        let report = dist::merge_shards(&dir, &spec, &merged).expect("merge shard journals");
        prop_assert_eq!(report.merged, reference.jobs.len());
        prop_assert_eq!(report.missing, 0);
        let text = fs::read_to_string(&merged).expect("read merged journal");
        prop_assert_eq!(&text, &reference.canonical);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Acceptance: merged N-worker output (records *and* the derived report
/// table) is byte-identical to the single-process run for worker counts
/// {1, 2, 4}, with real worker processes.
#[test]
fn merged_output_is_byte_identical_for_worker_counts_1_2_4() {
    let reference = reference();
    let worker = test_worker();
    let mut tables = Vec::new();
    for workers in [1usize, 2, 4] {
        let dir = temp_dir(&format!("workers-{workers}"));
        let spec = grid(4);
        let config = DistConfig::new(&dir, workers);
        let report = dist::run_supervisor(&spec, &config, &worker).expect("supervised run");
        assert_eq!(report.restarts, 0, "clean runs restart nothing");
        assert_eq!(report.merge.missing, 0);
        assert_eq!(report.merge.merged, reference.jobs.len());
        let text = fs::read_to_string(&report.merged_path).expect("read merged journal");
        assert_eq!(
            text, reference.canonical,
            "{workers}-worker merged journal must be byte-identical to the single-process run"
        );
        tables.push(report_table(&report.merged_path, &reference.jobs));
        let _ = fs::remove_dir_all(&dir);
    }
    assert!(
        tables.windows(2).all(|pair| pair[0] == pair[1]),
        "derived report tables must be byte-identical across worker counts"
    );
}

/// Acceptance: killing a worker mid-sweep (seeded chaos, SIGABRT after
/// a planned number of fsync'd appends) heals via reassignment — the
/// replacement resumes *exactly* the records the dead worker journaled,
/// nothing is quarantined, and the merged artifact is unchanged.
#[test]
fn killed_worker_heals_via_reassignment_with_exact_counts() {
    let reference = reference();
    let spec = grid(3);
    let chaos = DistChaos { seed: 17 };

    // Recompute the kill plan the supervisor will arm, so the healing
    // assertions below can be exact rather than merely "some restart".
    let mut per_shard = vec![0usize; spec.shards];
    let mut seen = HashSet::new();
    for job in &reference.jobs {
        let fp = job.job_fingerprint();
        if seen.insert(fp) {
            per_shard[dist::shard_of(fp, spec.shards)] += 1;
        }
    }
    let plan = chaos.plan(&per_shard).expect("a shard with >= 2 jobs");
    assert!(plan.kill_after >= 1 && plan.kill_after < per_shard[plan.victim] as u64);

    let dir = temp_dir("chaos-kill");
    let mut config = DistConfig::new(&dir, 2);
    config.chaos = Some(chaos);
    let report = dist::run_supervisor(&spec, &config, &test_worker()).expect("supervised run");

    assert_eq!(report.restarts, 1, "exactly the planned worker dies");
    assert_eq!(report.quarantined_total(), 0, "healing quarantines nothing");
    let victim = &report.shards[plan.victim];
    assert_eq!(victim.restarts, 1);
    assert_eq!(
        victim.resumed as u64, plan.kill_after,
        "the replacement resumes exactly the records the dead worker fsync'd"
    );
    for shard in 0..spec.shards {
        let quarantined = fs::metadata(dir.join(format!("shard-{shard}.failed.jsonl")))
            .map(|m| m.len())
            .unwrap_or(0);
        assert_eq!(
            quarantined, 0,
            "shard {shard} quarantine file must be empty"
        );
    }
    let text = fs::read_to_string(&report.merged_path).expect("read merged journal");
    assert_eq!(
        text, reference.canonical,
        "a healed run merges byte-identical to an undisturbed one"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A worker that is alive but wedged (no heartbeats) is detected by the
/// stall timeout, killed, and its shard reassigned — same healed,
/// byte-identical outcome as a crash.
#[test]
fn stalled_worker_is_killed_and_reassigned() {
    let reference = reference();
    let spec = grid(3);
    let hang_shard = reference
        .jobs
        .iter()
        .map(|job| dist::shard_of(job.job_fingerprint(), spec.shards))
        .min()
        .expect("a non-empty shard");

    let dir = temp_dir("chaos-stall");
    let mut config = DistConfig::new(&dir, 2);
    config.hang_first = Some(hang_shard);
    config.stall_timeout = Duration::from_millis(500);
    let report = dist::run_supervisor(&spec, &config, &test_worker()).expect("supervised run");

    assert_eq!(report.restarts, 1, "the wedged worker is killed once");
    assert_eq!(report.shards[hang_shard].restarts, 1);
    assert_eq!(report.quarantined_total(), 0);
    let text = fs::read_to_string(&report.merged_path).expect("read merged journal");
    assert_eq!(text, reference.canonical);
    let _ = fs::remove_dir_all(&dir);
}
