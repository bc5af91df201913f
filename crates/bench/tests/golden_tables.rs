//! Golden-file tests pinning the experiment reports to committed
//! snapshots: every registry experiment except E13 and E17 (the paper's
//! tables and figures, the §7 frontier, the query workload and the
//! comparator-agreement study), plus a small E17 tournament.
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

use anoncmp_bench::experiments::{perturb, registry};

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

/// Pins each registry experiment's report under its id. E13 stays out:
/// its report counts engine cache hits, which depend on what ran earlier
/// in the process. E17 is pinned below at a smaller size. E16 prints the
/// same cache count on one line, which is dropped before comparing.
#[test]
fn registry_experiments_match_golden() {
    for experiment in registry() {
        if matches!(experiment.id, "e13" | "e17") {
            continue;
        }
        let report: String = (experiment.run)()
            .split_inclusive('\n')
            .filter(|line| !line.contains("engine cache:"))
            .collect();
        assert_matches_golden(experiment.id, &report);
    }
}

/// Pins a small mixed-family tournament byte-for-byte: the perturbative
/// releases are content-seeded, so any drift in the noise draws, the
/// MDAV partition, the numeric properties' fast paths, or the matrix
/// rendering shows up here as a one-line diff.
#[test]
fn e17_perturb_tournament_matches_golden() {
    assert_matches_golden("e17", &perturb::e17_perturb_with(120));
}
