//! Incognito-style bottom-up lattice enumeration.
//!
//! A complete breadth-first sweep of the full-domain generalization
//! lattice that exploits the same anti-monotonicity Incognito (LeFevre et
//! al.) and Bayardo–Agrawal's complete search (cited as \[1\] in the paper)
//! rely on: once a node satisfies the constraint, every ancestor also
//! satisfies it and need not be evaluated. The sweep yields the complete
//! *minimal frontier* — all satisfying nodes with no satisfying
//! predecessor — from which the loss-optimal release is chosen. Unlike
//! [`Samarati`](crate::algorithms::samarati::Samarati), which only
//! guarantees minimal *height*, this search is exhaustive over minimal
//! nodes.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use anoncmp_microdata::prelude::{AnonymizedTable, Dataset, Lattice, LevelVector};

use crate::algorithms::full_domain::FullDomain;
use crate::algorithms::{Anonymizer, DatasetContext};
use crate::constraint::Constraint;
use crate::error::Result;

/// The bottom-up exhaustive lattice search.
#[derive(Debug, Clone, Copy, Default)]
pub struct Incognito;

/// Search outcome: the chosen release and the whole minimal frontier.
#[derive(Debug)]
pub struct IncognitoOutcome {
    /// All minimal satisfying level vectors.
    pub frontier: Vec<LevelVector>,
    /// Number of lattice nodes whose tables were actually evaluated.
    pub evaluated: usize,
    /// The chosen (loss-minimal) release.
    pub table: AnonymizedTable,
    /// The chosen level vector.
    pub levels: LevelVector,
}

impl Incognito {
    /// Runs the sweep, exposing the minimal frontier and evaluation count.
    pub fn run(&self, dataset: &Arc<Dataset>, constraint: &Constraint) -> Result<IncognitoOutcome> {
        self.run_in(&DatasetContext::new(dataset.clone()), constraint)
    }

    /// [`Self::run`] on the lattice index of `ctx`.
    fn run_in(&self, ctx: &DatasetContext, constraint: &Constraint) -> Result<IncognitoOutcome> {
        let fd = FullDomain::new(ctx, constraint, "incognito")?;
        let lattice = fd.lattice();

        // BFS from the bottom. `status` records, per visited node, whether
        // it satisfies; ancestors of satisfying nodes are marked satisfied
        // without evaluation (anti-monotone pruning).
        let mut status: HashMap<LevelVector, bool> = HashMap::new();
        let mut frontier: Vec<LevelVector> = Vec::new();
        let mut evaluated = 0usize;
        let mut queue: VecDeque<LevelVector> = VecDeque::new();
        queue.push_back(lattice.bottom());

        while let Some(levels) = queue.pop_front() {
            if status.contains_key(&levels) {
                continue;
            }
            // Pruning: a node above any known-satisfying node satisfies.
            let dominated = frontier.iter().any(|f| Lattice::leq(f, &levels));
            let sat = if dominated {
                true
            } else {
                evaluated += 1;
                fd.feasible(&levels)?
            };
            if sat && !dominated {
                frontier.push(levels.clone());
            }
            status.insert(levels.clone(), sat);
            if !sat {
                for s in lattice.successors(&levels) {
                    queue.push_back(s);
                }
            }
        }

        // Keep only minimal frontier nodes (no other frontier node below).
        let minimal: Vec<LevelVector> = frontier
            .iter()
            .filter(|&cand| !frontier.iter().any(|l| l != cand && Lattice::leq(l, cand)))
            .cloned()
            .collect();
        // Every minimal node is known to satisfy; the evaluator scores each
        // and releases the winner.
        let (Some((levels, table)), _) = fd.best(minimal.iter().cloned())? else {
            return Err(fd.unsatisfiable("no lattice node satisfies"));
        };
        Ok(IncognitoOutcome {
            frontier: minimal,
            evaluated,
            table,
            levels,
        })
    }
}

impl Anonymizer for Incognito {
    fn name(&self) -> String {
        "incognito".into()
    }

    fn anonymize(
        &self,
        dataset: &Arc<Dataset>,
        constraint: &Constraint,
    ) -> Result<AnonymizedTable> {
        self.run(dataset, constraint).map(|o| o.table)
    }

    fn anonymize_in(
        &self,
        ctx: &DatasetContext,
        constraint: &Constraint,
    ) -> Result<AnonymizedTable> {
        self.run_in(ctx, constraint).map(|o| o.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::AnonymizeError;
    use anoncmp_microdata::loss::LossMetric;

    use crate::algorithms::samarati::Samarati;
    use crate::algorithms::test_support::small_census;

    #[test]
    fn frontier_nodes_are_minimal_and_satisfying() {
        let ds = small_census();
        let c = Constraint::k_anonymity(3).with_suppression(6);
        let outcome = Incognito.run(&ds, &c).unwrap();
        assert!(c.satisfied(&outcome.table));
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        for levels in &outcome.frontier {
            // Satisfying…
            let t = lattice.apply(&ds, levels, "x").unwrap();
            assert!(c.enforce(&t).is_some());
            // …and minimal: every predecessor violates.
            for pred in lattice.predecessors(levels) {
                let t = lattice.apply(&ds, &pred, "x").unwrap();
                assert!(
                    c.enforce(&t).is_none(),
                    "predecessor satisfies: not minimal"
                );
            }
        }
    }

    #[test]
    fn pruning_reduces_evaluations() {
        let ds = small_census();
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        let c = Constraint::k_anonymity(3).with_suppression(6);
        let outcome = Incognito.run(&ds, &c).unwrap();
        assert!(
            outcome.evaluated < lattice.node_count(),
            "anti-monotone pruning must skip ancestors"
        );
    }

    #[test]
    fn at_least_as_good_as_samarati() {
        // Incognito is exhaustive over minimal nodes, so its loss-optimal
        // choice can never be worse than Samarati's height-minimal choice
        // under the same preference metric.
        let ds = small_census();
        let c = Constraint::k_anonymity(4).with_suppression(6);
        let inc = Incognito.run(&ds, &c).unwrap();
        let sam = Samarati.run(&ds, &c).unwrap();
        let m = LossMetric::classic();
        assert!(m.total_loss(&inc.table) <= m.total_loss(&sam.table) + 1e-9);
    }

    #[test]
    fn unsatisfiable_reported() {
        let ds = small_census();
        let c = Constraint::k_anonymity(ds.len() + 1);
        assert!(matches!(
            Incognito.anonymize(&ds, &c),
            Err(AnonymizeError::Unsatisfiable(_))
        ));
    }

    #[test]
    fn k_one_frontier_is_the_bottom() {
        let ds = small_census();
        let outcome = Incognito.run(&ds, &Constraint::k_anonymity(1)).unwrap();
        assert_eq!(
            outcome.frontier,
            vec![Lattice::new(ds.schema().clone()).unwrap().bottom()]
        );
    }
}
