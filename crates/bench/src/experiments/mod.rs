//! The experiment suite: one function per paper table/figure (E01–E12)
//! plus the extended studies (E13 algorithm comparison, E14 §7 Pareto
//! frontier, E15 query-workload utility, E16 comparator agreement, E17
//! mixed-family perturbation-vs-generalization tournament), which run
//! their jobs on the engine they are given. See DESIGN.md for the
//! experiment index and EXPERIMENTS.md for recorded outputs.

use anoncmp_engine::Engine;

pub mod agreement;
pub mod figures;
pub mod frontier;
pub mod indices;
pub mod paper_tables;
pub mod perturb;
pub mod queries;
pub mod study;
pub mod theorem;

/// An experiment: id, one-line description, and a runner producing the
/// report text.
pub struct Experiment {
    /// Identifier, e.g. `"e04"`.
    pub id: &'static str,
    /// What paper artifact it reproduces.
    pub describes: &'static str,
    /// Runs the experiment; E13–E17 run their jobs on the engine, the
    /// paper's tables and figures ignore it.
    pub run: fn(&Engine) -> String,
}

/// The full experiment registry, in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "e01",
            describes: "Table 1 — hypothetical microdata",
            run: |_| paper_tables::e01_table1(),
        },
        Experiment {
            id: "e02",
            describes: "Table 2 — 3-anonymous T3a and T3b",
            run: |_| paper_tables::e02_table2(),
        },
        Experiment {
            id: "e03",
            describes: "Table 3 — 4-anonymous T4",
            run: |_| paper_tables::e03_table3(),
        },
        Experiment {
            id: "e04",
            describes: "Figure 1 — per-tuple class sizes",
            run: |_| figures::e04_figure1(),
        },
        Experiment {
            id: "e05",
            describes: "§3 — classical quality indices",
            run: |_| indices::e05_section3_indices(),
        },
        Experiment {
            id: "e06",
            describes: "Figure 2 — ▶rank comparator",
            run: |_| figures::e06_figure2(),
        },
        Experiment {
            id: "e07",
            describes: "Figure 3 — ▶cov vs ▶spr",
            run: |_| figures::e07_figure3(),
        },
        Experiment {
            id: "e08",
            describes: "§5.3 — spread counterexample",
            run: |_| indices::e08_spread_counterexample(),
        },
        Experiment {
            id: "e09",
            describes: "Figure 4 — ▶hv hypervolume",
            run: |_| figures::e09_figure4(),
        },
        Experiment {
            id: "e10",
            describes: "§5.5 — ▶WTD worked example",
            run: |_| indices::e10_weighted_example(),
        },
        Experiment {
            id: "e11",
            describes: "Table 4 — dominance relations",
            run: |_| indices::e11_dominance_table(),
        },
        Experiment {
            id: "e12",
            describes: "Theorem 1 — index falsification",
            run: |_| theorem::e12_theorem1(),
        },
        Experiment {
            id: "e13",
            describes: "Extended study — 8 algorithms × k sweep",
            run: |engine| study::e13_study(engine, &study::StudyConfig::default()),
        },
        Experiment {
            id: "e14",
            describes: "§7 extension — privacy/utility Pareto frontier",
            run: |engine| frontier::e14_frontier_with(engine, 400),
        },
        Experiment {
            id: "e15",
            describes: "Query-workload utility across algorithms",
            run: |engine| queries::e15_queries_with(engine, 400),
        },
        Experiment {
            id: "e16",
            describes: "Comparator agreement (Kendall-τ matrix)",
            // E13's full-size grid point, so its releases are cache hits
            // after E13 on the same engine.
            run: |engine| agreement::e16_agreement_with(engine, 1000),
        },
        Experiment {
            id: "e17",
            describes: "Mixed-family tournament — perturbation vs generalization",
            run: |engine| perturb::e17_perturb_with(engine, 300),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_ordered() {
        let reg = registry();
        assert_eq!(reg.len(), 17);
        for (i, e) in reg.iter().enumerate() {
            assert_eq!(e.id, format!("e{:02}", i + 1));
        }
    }
}
