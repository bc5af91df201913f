//! Experiment E13: the comparative study the framework was built for.
//!
//! The paper's own evaluation is a worked 10-tuple example; E13 scales the
//! framework to the comparison its introduction motivates: six disclosure
//! control algorithms anonymize the same synthetic census table across a
//! sweep of k values, and every comparison method of the paper is applied —
//! scalar indices, the pairwise ▶cov/▶spr tournaments, ▶rank distances,
//! bias statistics, and the multi-property ▶WTD/▶LEX verdicts.
//!
//! The algorithm × k grid runs on the [`Engine`] the caller passes in:
//! jobs are declared as [`EvalJob`]s, run on its worker pool
//! (`experiments --jobs N` sets its width), and memoized, so a later
//! experiment on the same engine that asks for the same release (E16's
//! agreement tournament does) gets a cache hit instead of a
//! recomputation.

use anoncmp_anonymize::prelude::Constraint;
use anoncmp_core::prelude::*;
use anoncmp_engine::prelude::*;

/// Study configuration.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct StudyConfig {
    /// Dataset size.
    pub rows: usize,
    /// Values of k to sweep.
    pub ks: Vec<usize>,
    /// RNG seed for the dataset.
    pub seed: u64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            rows: 1000,
            ks: vec![2, 5, 10, 25, 50],
            seed: 2024,
        }
    }
}

impl StudyConfig {
    /// A fast configuration for tests and debug builds.
    pub fn quick() -> Self {
        StudyConfig {
            rows: 150,
            ks: vec![2, 5],
            seed: 7,
        }
    }

    /// The dataset spec every study job shares.
    pub fn dataset_spec(&self) -> DatasetSpec {
        DatasetSpec::Census {
            rows: self.rows,
            seed: self.seed,
            zip_pool: 25,
        }
    }

    /// The engine jobs of the full algorithm × k grid, in report order.
    pub fn jobs(&self) -> Vec<EvalJob> {
        self.ks
            .iter()
            .flat_map(|&k| {
                AlgorithmSpec::standard_suite()
                    .into_iter()
                    .map(move |algorithm| EvalJob {
                        dataset: self.dataset_spec(),
                        algorithm,
                        k,
                        max_suppression: self.rows / 20,
                        properties: vec![PropertySpec::EqClassSize, PropertySpec::IyengarUtility],
                    })
            })
            .collect()
    }
}

/// Formats one k section from the engine outcomes of that grid row.
fn format_k(k: usize, max_suppression: usize, outcomes: &[&JobOutcome]) -> String {
    let mut out = String::new();
    let constraint = Constraint::k_anonymity(k).with_suppression(max_suppression);
    out.push_str(&format!(
        "── k = {k} ({}) ──────────────────────────────────────────────\n",
        constraint.describe()
    ));
    // Names and vectors come from the records, not from materialized
    // tables: journal-replayed outcomes (a resumed sweep) carry records
    // and vectors but no table, and the study must render identically.
    let mut names: Vec<String> = Vec::new();
    let mut vectors: Vec<PropertyVector> = Vec::new();
    let mut utils: Vec<PropertyVector> = Vec::new();
    for o in outcomes {
        match &o.record.status {
            JobStatus::Ok => {
                names.push(o.record.algorithm.clone());
                vectors.push(o.vectors[0].clone());
                utils.push(o.vectors[1].clone());
            }
            status => out.push_str(&format!(
                "  {} failed: {}\n",
                o.record.algorithm,
                status_message(status)
            )),
        }
    }

    // Scalar table.
    out.push_str(&format!(
        "  {:<12} {:>4} {:>8} {:>9} {:>11} {:>10} {:>7}\n",
        "algorithm", "k", "classes", "avg |EC|", "total loss", "suppressed", "gini"
    ));
    for (o, v) in outcomes
        .iter()
        .filter(|o| o.record.status.is_ok())
        .zip(&vectors)
    {
        let b = BiasReport::of(v);
        let m = o.record.metrics.as_ref().expect("ok outcome has metrics");
        out.push_str(&format!(
            "  {:<12} {:>4} {:>8} {:>9.2} {:>11.1} {:>10} {:>7.3}\n",
            o.record.algorithm,
            m.min_class_size,
            m.classes,
            b.mean,
            m.total_loss,
            m.suppressed,
            b.gini
        ));
    }

    // Pairwise tournaments on privacy: one matrix per comparator.
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let cov = ComparisonMatrix::of_vectors(&name_refs, &vectors, &CoverageComparator);
    let spr = ComparisonMatrix::of_vectors(&name_refs, &vectors, &SpreadComparator);
    // ▶rank against the ideal point of the candidate set.
    let refs: Vec<&PropertyVector> = vectors.iter().collect();
    let rank = RankComparator::toward_ideal_of(&refs);
    out.push_str(&format!(
        "  {:<12} {:>9} {:>9} {:>12}\n",
        "tournament", "cov wins", "spr wins", "rank (↓)"
    ));
    for (i, name) in names.iter().enumerate() {
        out.push_str(&format!(
            "  {:<12} {:>9} {:>9} {:>12.1}\n",
            name,
            cov.wins(i),
            spr.wins(i),
            rank.rank(&vectors[i])
        ));
    }

    // Multi-property verdicts: privacy vs utility, equal weights and
    // privacy-first lexicographic.
    let sets: Vec<PropertySet> = names
        .iter()
        .zip(vectors.iter().zip(&utils))
        .map(|(name, (p, u))| {
            PropertySet::new(
                name,
                vec![p.clone().renamed("priv"), u.clone().renamed("util")],
            )
        })
        .collect();
    let wtd = WeightedComparator::equal(vec![
        Box::new(CoverageComparator),
        Box::new(CoverageComparator),
    ]);
    let lex = LexicographicComparator::new(
        vec![0.05, 0.05],
        vec![Box::new(CoverageComparator), Box::new(CoverageComparator)],
    );
    let champion = |cmp: &dyn SetComparator| -> String {
        let matrix = ComparisonMatrix::of_sets(&sets, cmp);
        let wins: Vec<usize> = (0..sets.len()).map(|i| matrix.wins(i)).collect();
        let best = wins
            .iter()
            .enumerate()
            .max_by_key(|(_, &w)| w)
            .map(|(i, _)| i);
        best.map(|i| format!("{} ({} wins)", sets[i].anonymization(), wins[i]))
            .unwrap_or_else(|| "n/a".into())
    };
    out.push_str(&format!(
        "  multi-property champions: WTD(½,½) → {};  LEX(priv first) → {}\n\n",
        champion(&wtd),
        champion(&lex)
    ));
    out
}

/// Renders an error status for the report.
fn status_message(status: &JobStatus) -> String {
    match status {
        JobStatus::Ok => "ok".into(),
        JobStatus::Failed { message } => message.clone(),
        JobStatus::Panicked { message } => format!("panicked: {message}"),
        JobStatus::BudgetExceeded { budget_ms } => {
            format!("exceeded the {budget_ms} ms budget")
        }
    }
}

/// Runs the full study on `engine`.
pub fn e13_study(engine: &Engine, config: &StudyConfig) -> String {
    let jobs = config.jobs();
    let sweep = engine.run(&jobs);

    let mut out = String::new();
    out.push_str(&format!(
        "E13 · Comparative study — {} synthetic census tuples, k ∈ {:?}\n\n",
        config.rows, config.ks
    ));
    // One section per k, in ascending order regardless of how the worker
    // pool scheduled the jobs (outcomes arrive in submission order).
    let mut ks = config.ks.clone();
    ks.sort_unstable();
    for k in ks {
        let section: Vec<&JobOutcome> = sweep.outcomes.iter().filter(|o| o.job.k == k).collect();
        out.push_str(&format_k(k, config.rows / 20, &section));
    }
    out.push_str(&format!("{}\n", sweep.cache_summary()));
    // Deterministic for a fixed flag set: resumption, retry, and
    // quarantine counts depend only on the journal contents and the
    // (content-pure) chaos decisions, never on scheduling.
    out.push_str(&format!("{}\n", sweep.resilience_summary()));
    out.push_str(
        "Reading guide: identical k columns with different gini/rank rows are the\n\
         anonymization bias in action; WTD/LEX champions can differ because the\n\
         comparator, not the algorithm, defines \"better\" (paper §5).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_study_runs_and_reports_all_algorithms() {
        let s = e13_study(&Engine::new(EngineConfig::default()), &StudyConfig::quick());
        for name in [
            "datafly",
            "samarati",
            "incognito",
            "mondrian",
            "greedy",
            "genetic",
            "top-down",
            "clustering",
        ] {
            assert!(s.contains(name), "missing {name}:\n{s}");
        }
        assert!(s.contains("k = 2"));
        assert!(s.contains("k = 5"));
        assert!(s.contains("multi-property champions"));
        assert!(s.contains("engine cache:"));
    }

    #[test]
    fn study_grid_covers_algorithms_by_ks() {
        let jobs = StudyConfig::default().jobs();
        assert_eq!(jobs.len(), 8 * 5);
        assert!(jobs.iter().all(|j| j.max_suppression == 50));
    }
}
