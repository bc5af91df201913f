//! Golden-file tests pinning every registry experiment's report to a
//! committed snapshot, each run on a fresh engine: the paper's tables and
//! figures, the §7 frontier, the query workload and the
//! comparator-agreement study at their registry sizes, and the E13 study
//! and E17 tournament at their small sizes.
//!
//! The existing unit tests check that a handful of tokens appear; these
//! pin the *entire* rendering byte-for-byte, so an innocent-looking
//! change to the display code, the hierarchy ladders, the lattice
//! levels, a search's frontier or a comparator's verdicts fails loudly
//! with a diff instead of drifting.
//!
//! To re-bless after an intentional rendering change:
//! `GOLDEN_BLESS=1 cargo test -p anoncmp-bench --test golden_tables`

use std::path::PathBuf;

use anoncmp_bench::experiments::{perturb, registry, study};
use anoncmp_engine::{Engine, EngineConfig};

/// A fresh engine, so no report depends on what ran before it.
fn engine() -> Engine {
    Engine::new(EngineConfig::default())
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with GOLDEN_BLESS=1 to create it",
            path.display()
        )
    });
    if expected != actual {
        // Point at the first diverging line so the failure reads as a
        // diff, not two walls of text.
        let mismatch = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map(|i| {
                format!(
                    "first differing line {}:\n  golden: {:?}\n  actual: {:?}",
                    i + 1,
                    expected.lines().nth(i).unwrap_or(""),
                    actual.lines().nth(i).unwrap_or("")
                )
            })
            .unwrap_or_else(|| "line counts differ".to_owned());
        panic!(
            "{name} drifted from its golden snapshot ({})\n{mismatch}\n\
             If the change is intentional, re-bless with GOLDEN_BLESS=1.",
            path.display()
        );
    }
}

/// Pins each registry experiment's report under its id. E13 and E17 are
/// pinned below at their small sizes.
#[test]
fn registry_experiments_match_golden() {
    for experiment in registry() {
        if matches!(experiment.id, "e13" | "e17") {
            continue;
        }
        assert_matches_golden(experiment.id, &(experiment.run)(&engine()));
    }
}

/// Pins the comparative study at its quick size, the report that
/// `experiments e13 --quick` prints: every algorithm's scalar row,
/// tournament wins, ▶rank distance and multi-property champion, and the
/// engine's cache and resilience lines.
#[test]
fn e13_quick_study_matches_golden() {
    assert_matches_golden(
        "e13",
        &study::e13_study(&engine(), &study::StudyConfig::quick()),
    );
}

/// Pins a small mixed-family tournament byte-for-byte: the perturbative
/// releases are content-seeded, so any drift in the noise draws, the
/// MDAV partition, the numeric properties' fast paths, or the matrix
/// rendering shows up here as a one-line diff.
#[test]
fn e17_perturb_tournament_matches_golden() {
    assert_matches_golden("e17", &perturb::e17_perturb_with(&engine(), 120));
}
