//! Experiment E16: do the ▶-better comparators agree with each other?
//!
//! Knowles & Corne (cited as \[8\] in the paper) critically surveyed quality
//! measures for non-dominated sets and showed most disagree; Zitzler et
//! al. \[23\] formalized why. E16 asks the same question inside this
//! workspace: across a pool of real k-anonymous releases, how correlated
//! are the candidate rankings induced by ▶cov, ▶spr, ▶rank, ▶hv and ▶eps
//! on the per-tuple privacy property? The Kendall-τ matrix quantifies
//! which comparators are interchangeable and which genuinely measure
//! different things — practical guidance for anyone adopting the paper's
//! framework.
//!
//! The candidate releases are requested from the [`Engine`] the caller
//! passes in, at the *same grid point E13 sweeps* (census
//! rows/seed/zip-pool, k = 5): when E13 has already run on that engine,
//! every release here is a memoization cache hit — the report's
//! `engine cache:` line makes the reuse visible.

use anoncmp_core::prelude::*;
use anoncmp_engine::prelude::*;

use super::study::StudyConfig;

fn comparator_pool(n: usize) -> Vec<(String, Box<dyn Comparator>)> {
    vec![
        (
            "cov".into(),
            Box::new(CoverageComparator) as Box<dyn Comparator>,
        ),
        ("spr".into(), Box::new(SpreadComparator)),
        (
            "rank".into(),
            Box::new(RankComparator::toward_uniform(n as f64, n)),
        ),
        ("hv".into(), Box::new(HypervolumeComparator::default())),
        ("eps+".into(), Box::new(EpsilonComparator::default())),
    ]
}

/// Runs E16 on `engine` with the given dataset size. The dataset seed
/// and zip pool match [`StudyConfig::default`], so at the default 1000
/// rows the eight releases coincide with E13's k = 5 grid row, and are
/// engine cache hits when E13 ran earlier on the same engine.
pub fn e16_agreement_with(engine: &Engine, rows: usize) -> String {
    let study = StudyConfig {
        rows,
        ..StudyConfig::default()
    };
    let k = 5;
    let jobs: Vec<EvalJob> = AlgorithmSpec::standard_suite()
        .into_iter()
        .map(|algorithm| EvalJob {
            dataset: study.dataset_spec(),
            algorithm,
            k,
            max_suppression: rows / 20,
            properties: vec![PropertySpec::EqClassSize],
        })
        .collect();
    let sweep = engine.run(&jobs);

    let mut out = String::new();
    out.push_str(&format!(
        "E16 · Comparator agreement — {rows} tuples, k = {k}, 8 candidate releases\n\n",
    ));

    let mut names: Vec<String> = Vec::new();
    let mut vectors: Vec<PropertyVector> = Vec::new();
    for o in &sweep.outcomes {
        match &o.record.status {
            JobStatus::Ok => {
                names.push(o.record.algorithm.clone());
                vectors.push(o.vectors[0].clone());
            }
            status => out.push_str(&format!("  {} failed: {status:?}\n", o.record.algorithm)),
        }
    }
    let names: Vec<&str> = names.iter().map(String::as_str).collect();

    // Rankings per comparator.
    let pool = comparator_pool(rows);
    let rankings: Vec<(String, Vec<usize>)> = pool
        .iter()
        .map(|(label, cmp)| {
            let m = ComparisonMatrix::of_vectors(&names, &vectors, cmp.as_ref());
            (label.clone(), m.ranking())
        })
        .collect();

    out.push_str("  rankings on the per-tuple privacy property (best first):\n");
    for (label, ranking) in &rankings {
        let order: Vec<&str> = ranking.iter().map(|&i| names[i]).collect();
        out.push_str(&format!("    {label:<5} {}\n", order.join(" > ")));
    }

    // Kendall-τ agreement matrix.
    out.push_str("\n  Kendall-τ agreement between comparator rankings:\n");
    out.push_str("         ");
    for (label, _) in &rankings {
        out.push_str(&format!(" {label:>6}"));
    }
    out.push('\n');
    let mut min_tau: f64 = 1.0;
    for (la, ra) in &rankings {
        out.push_str(&format!("    {la:<5}"));
        for (_, rb) in &rankings {
            let tau = kendall_tau(ra, rb);
            min_tau = min_tau.min(tau);
            out.push_str(&format!(" {tau:>6.2}"));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "\n  lowest pairwise agreement: τ = {min_tau:.2}.\n\
         \n  {}.\n\
         \n  Reading: comparators built on the same intuition (cov/spr, rank/eps)\n\
         correlate strongly, but none are identical — the choice of ▶-better\n\
         comparator is part of the comparison's semantics, exactly the point\n\
         Knowles & Corne [8] made for multiobjective quality measures.\n",
        sweep.cache_summary()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_structure() {
        let s = e16_agreement_with(&Engine::new(EngineConfig::default()), 150);
        assert!(s.contains("Kendall-τ"));
        for label in ["cov", "spr", "rank", "hv", "eps+"] {
            assert!(s.contains(label), "missing {label}");
        }
        // Diagonal of the matrix is 1.00.
        assert!(s.contains("1.00"));
        assert!(s.contains("engine cache:"));
    }

    #[test]
    fn self_agreement_is_perfect() {
        let s = e16_agreement_with(&Engine::new(EngineConfig::default()), 150);
        // Every row contains at least one exact 1.00 (the diagonal).
        let matrix_lines: Vec<&str> = s
            .lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_lowercase()))
            .filter(|l| l.contains("1.00"))
            .collect();
        assert!(
            matrix_lines.len() >= 5,
            "five diagonal entries expected:\n{s}"
        );
    }

    #[test]
    fn releases_are_cache_hits_after_a_study_style_sweep() {
        // Prime the engine's cache with an E13-style grid at this size,
        // then check E16 reuses those releases — the acceptance scenario
        // for cross-experiment memoization, scaled down for test speed.
        let engine = Engine::new(EngineConfig::default());
        let study = StudyConfig {
            rows: 120,
            ks: vec![5],
            ..StudyConfig::default()
        };
        engine.run(&study.jobs());
        let s = e16_agreement_with(&engine, 120);
        let cache_line = s
            .lines()
            .find(|l| l.contains("engine cache:"))
            .expect("cache summary present");
        assert_eq!(
            cache_line.trim(),
            "engine cache: 8 hit(s), 0 miss(es) this sweep."
        );
    }
}
