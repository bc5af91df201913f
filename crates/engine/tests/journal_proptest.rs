//! Property tests for checkpoint-journal replay.
//!
//! The journal's contract is *prefix-insensitivity*: whatever subset of
//! completed jobs made it to disk before a crash — in whatever order the
//! workers happened to append them — resuming and re-running produces the
//! same canonical record set as an uninterrupted sweep. The properties
//! here drive that with random subsets and permutations of a real
//! journal's lines, plus the cache interaction the engine must survive:
//! dropping every cached release while keeping journal-replayed vectors
//! valid.

use std::sync::OnceLock;

use anoncmp_engine::prelude::*;
use proptest::prelude::*;

/// A small, fast grid the fixture sweeps once.
fn small_grid() -> Vec<EvalJob> {
    [2usize, 4]
        .into_iter()
        .flat_map(|k| {
            [
                AlgorithmSpec::Datafly,
                AlgorithmSpec::Mondrian,
                AlgorithmSpec::TopDown,
            ]
            .into_iter()
            .map(move |algorithm| EvalJob {
                dataset: DatasetSpec::Census {
                    rows: 90,
                    seed: 17,
                    zip_pool: 10,
                },
                algorithm,
                k,
                max_suppression: 6,
                properties: vec![PropertySpec::EqClassSize, PropertySpec::IyengarUtility],
            })
        })
        .collect()
}

struct Fixture {
    jobs: Vec<EvalJob>,
    canonical: String,
    /// The complete journal's lines, one per completed job.
    journal_lines: Vec<String>,
}

/// Sweeps the grid once with a checkpoint journal attached and keeps the
/// journal's lines; every property case replays a different slice of it.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "anoncmp-journal-proptest-fixture-{}.jsonl",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let jobs = small_grid();
        let mut engine = Engine::new(EngineConfig {
            jobs: 2,
            ..EngineConfig::default()
        });
        engine.resume(&path).unwrap();
        let sweep = engine.run(&jobs);
        assert!(sweep.outcomes.iter().all(|o| o.record.status.is_ok()));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let journal_lines: Vec<String> = text.lines().map(str::to_owned).collect();
        assert_eq!(journal_lines.len(), jobs.len());
        Fixture {
            jobs,
            canonical: sweep.canonical_jsonl(),
            journal_lines,
        }
    })
}

fn temp_journal(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "anoncmp-journal-proptest-{tag}-{}.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&p).ok();
    p
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Any subset of the journal's lines, in any order, resumes to the
    /// same canonical record set: replayed jobs are served, missing ones
    /// recomputed, and the merge is indistinguishable from a clean run.
    #[test]
    fn any_journal_prefix_resumes_to_identical_records(
        subset in prop::sample::subsequence((0..6usize).collect::<Vec<_>>(), 0..=6),
        shuffle_seed in 0u64..1_000,
    ) {
        let fx = fixture();
        // Deterministically permute the chosen lines: worker scheduling
        // means journal order is arbitrary, and replay must not care.
        let mut picked: Vec<usize> = subset;
        let n = picked.len();
        for i in (1..n).rev() {
            let j = (shuffle_seed as usize)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(i) % (i + 1);
            picked.swap(i, j);
        }

        let path = temp_journal("prefix");
        let mut text = String::new();
        for &ix in &picked {
            text.push_str(&fx.journal_lines[ix]);
            text.push('\n');
        }
        std::fs::write(&path, text).unwrap();

        let mut engine = Engine::new(EngineConfig { jobs: 2, ..EngineConfig::default() });
        let summary = engine.resume(&path).unwrap();
        prop_assert_eq!(summary.replayed, n);
        prop_assert_eq!(summary.dropped, 0);
        let sweep = engine.run(&fx.jobs);
        prop_assert_eq!(sweep.resumed, n);
        prop_assert_eq!(&sweep.canonical_jsonl(), &fx.canonical);
        std::fs::remove_file(&path).ok();
    }

    /// Replay is idempotent under duplication: journaling the same
    /// completed jobs twice (an append raced with a kill and re-ran, say)
    /// changes nothing.
    #[test]
    fn duplicated_journal_lines_are_harmless(dup_ix in 0usize..6) {
        let fx = fixture();
        let path = temp_journal("dup");
        let mut text = fx.journal_lines.join("\n");
        text.push('\n');
        text.push_str(&fx.journal_lines[dup_ix]);
        text.push('\n');
        std::fs::write(&path, text).unwrap();

        let mut engine = Engine::new(EngineConfig { jobs: 2, ..EngineConfig::default() });
        let summary = engine.resume(&path).unwrap();
        prop_assert_eq!(summary.replayed, fx.jobs.len());
        let sweep = engine.run(&fx.jobs);
        prop_assert_eq!(sweep.resumed, fx.jobs.len());
        prop_assert_eq!(&sweep.canonical_jsonl(), &fx.canonical);
        std::fs::remove_file(&path).ok();
    }
}

/// Journal-replayed property vectors must outlive the release cache:
/// `clear_releases` drops every cached table, but vectors reconstructed
/// from the journal (and the vector cache keyed by release content) stay
/// valid, so a post-resume, post-clear sweep still reports the same
/// vectors and records.
#[test]
fn replayed_vectors_survive_release_cache_clearing() {
    let fx = fixture();
    let path = temp_journal("cache-clear");
    let mut text = fx.journal_lines.join("\n");
    text.push('\n');
    std::fs::write(&path, text).unwrap();

    let mut engine = Engine::new(EngineConfig {
        jobs: 2,
        ..EngineConfig::default()
    });
    engine.resume(&path).unwrap();
    let first = engine.run(&fx.jobs);
    assert_eq!(first.resumed, fx.jobs.len());

    engine.clear_releases();
    let second = engine.run(&fx.jobs);
    assert_eq!(second.resumed, fx.jobs.len());
    assert_eq!(second.canonical_jsonl(), fx.canonical);
    for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
        assert_eq!(a.vectors, b.vectors, "vectors valid after clear_releases");
        assert!(!a.vectors.is_empty());
    }
    std::fs::remove_file(&path).ok();
}
