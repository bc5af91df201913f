//! Experiment E14: the paper's §7 extension — privacy as an objective.
//!
//! Runs the NSGA-II lattice search with (mean class size, −loss) as
//! simultaneous objectives, prints the resulting Pareto frontier of
//! anonymizations, and places the constraint-based algorithms' outputs
//! relative to it: how much of the trade-off curve does the classical
//! "fix k, maximize utility" methodology actually see?

use anoncmp_anonymize::prelude::*;
use anoncmp_core::prelude::{ComparisonMatrix, DominanceComparator, Preference, PropertyVector};
use anoncmp_engine::prelude::*;

/// Runs E14 with the given dataset size.
pub fn e14_frontier_with(rows: usize) -> String {
    let spec = DatasetSpec::Census {
        rows,
        seed: 777,
        zip_pool: 20,
    };
    let dataset = spec.materialize();
    let mut out = String::new();
    out.push_str(&format!(
        "E14 · §7 extension — the privacy/utility Pareto frontier ({} tuples)\n\n",
        dataset.len()
    ));

    let moga = MultiObjectiveGenetic {
        config: MogaConfig {
            population: 24,
            generations: 20,
            ..Default::default()
        },
        ..Default::default()
    };
    let front = moga.run(&dataset).expect("moga runs");

    out.push_str("  Pareto front (NSGA-II over the generalization lattice):\n");
    out.push_str(&format!(
        "  {:<24} {:>16} {:>12} {:>6}\n",
        "levels", "mean |EC| (priv)", "loss (util)", "k"
    ));
    for s in &front {
        out.push_str(&format!(
            "  {:<24} {:>16.2} {:>12.1} {:>6}\n",
            format!("{:?}", s.levels),
            s.objectives[0],
            -s.objectives[1],
            s.table.classes().min_class_size()
        ));
    }

    // Where do the classical constraint-based outputs sit? The releases
    // come from the shared engine (and its cache, if anything else asked
    // for this grid point already).
    out.push_str("\n  classical algorithms against the frontier (k = 5):\n");
    let jobs: Vec<EvalJob> = [
        AlgorithmSpec::Datafly,
        AlgorithmSpec::Incognito,
        AlgorithmSpec::Mondrian,
    ]
    .into_iter()
    .map(|algorithm| EvalJob {
        dataset: spec.clone(),
        algorithm,
        k: 5,
        max_suppression: rows / 20,
        properties: vec![PropertySpec::EqClassSize],
    })
    .collect();
    let sweep = Engine::global().run(&jobs);
    // Frontier samples and classical points form one candidate list; one
    // dominance matrix then answers every placement query (`First` at
    // (frontier, classical) ⟺ strict point dominance).
    let mut candidates: Vec<PropertyVector> = front
        .iter()
        .map(|s| PropertyVector::new("objectives", s.objectives.clone()))
        .collect();
    let placed: Vec<Option<usize>> = sweep
        .outcomes
        .iter()
        .map(|o| match (&o.record.status, &o.record.metrics) {
            (JobStatus::Ok, Some(m)) => {
                let point = vec![o.vectors[0].mean().expect("non-empty"), -m.total_loss];
                candidates.push(PropertyVector::new("objectives", point));
                Some(candidates.len() - 1)
            }
            _ => None,
        })
        .collect();
    let names: Vec<String> = (0..candidates.len()).map(|i| i.to_string()).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let matrix = ComparisonMatrix::of_vectors(&name_refs, &candidates, &DominanceComparator);
    for (o, slot) in sweep.outcomes.iter().zip(&placed) {
        match slot {
            Some(c) => {
                let point = candidates[*c].values();
                let dominated =
                    (0..front.len()).any(|f| matrix.outcome(f, *c) == Preference::First);
                out.push_str(&format!(
                    "  {:<12} mean |EC| {:>8.2}  loss {:>8.1}  → {}\n",
                    o.record.algorithm,
                    point[0],
                    -point[1],
                    if dominated {
                        "strictly dominated by a frontier point"
                    } else {
                        "on or beyond the sampled frontier"
                    }
                ));
            }
            None => out.push_str(&format!(
                "  {} failed: {:?}\n",
                o.record.algorithm, o.record.status
            )),
        }
    }
    out.push_str(
        "\n  Reading: the single-k methodology returns one point; the §7 view \
         exposes the whole curve and lets the publisher pick the knee.\n",
    );
    out
}

/// Runs E14 at the default size.
pub fn e14_frontier() -> String {
    e14_frontier_with(400)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_report_has_curve_and_placements() {
        let s = e14_frontier_with(120);
        assert!(s.contains("Pareto front"));
        assert!(s.contains("mean |EC| (priv)"));
        for name in ["datafly", "incognito", "mondrian"] {
            assert!(s.contains(name), "missing {name}");
        }
        assert!(s.contains("frontier"));
    }
}
