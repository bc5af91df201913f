//! Samarati's k-minimal generalization search (cited as \[15\] in the
//! paper).
//!
//! Exploits the monotonicity of k-anonymity along generalization chains:
//! if any node at lattice height `h` satisfies the constraint (with
//! suppression within budget), then some node at every height above `h`
//! does too. A binary search over heights finds the minimal satisfying
//! height `h*`; the *k-minimal generalizations* are the satisfying nodes at
//! `h*`, and "an optimal generalization can be chosen based on certain
//! preference information" — here, minimal classic loss.

use std::sync::Arc;

use anoncmp_microdata::prelude::{AnonymizedTable, Dataset, LevelVector};

use crate::algorithms::full_domain::FullDomain;
use crate::algorithms::{Anonymizer, DatasetContext};
use crate::constraint::Constraint;
use crate::error::Result;

/// Samarati's binary search over lattice heights.
#[derive(Debug, Clone, Copy, Default)]
pub struct Samarati;

/// The outcome of the search: the chosen release plus the full k-minimal
/// frontier it was chosen from.
#[derive(Debug)]
pub struct SamaratiOutcome {
    /// The minimal satisfying height.
    pub height: usize,
    /// All satisfying level vectors at that height.
    pub k_minimal: Vec<LevelVector>,
    /// The chosen (loss-minimal) release, already suppressed/enforced.
    pub table: AnonymizedTable,
    /// The chosen level vector.
    pub levels: LevelVector,
}

impl Samarati {
    /// Runs the full search, exposing the k-minimal frontier.
    pub fn run(&self, dataset: &Arc<Dataset>, constraint: &Constraint) -> Result<SamaratiOutcome> {
        self.run_in(&DatasetContext::new(dataset.clone()), constraint)
    }

    /// [`Self::run`] on the lattice index of `ctx`.
    fn run_in(&self, ctx: &DatasetContext, constraint: &Constraint) -> Result<SamaratiOutcome> {
        let fd = FullDomain::new(ctx, constraint, "samarati")?;
        let lattice = fd.lattice();
        let any_feasible_at = |height: usize| -> Result<bool> {
            for levels in lattice.nodes_at_height(height) {
                if fd.feasible(&levels)? {
                    return Ok(true);
                }
            }
            Ok(false)
        };

        // The top must satisfy, or nothing does (monotone constraint).
        if !any_feasible_at(lattice.max_height())? {
            return Err(fd.unsatisfiable("even the fully generalized release violates"));
        }

        // Binary search for the minimal satisfying height.
        let (mut lo, mut hi) = (0usize, lattice.max_height());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if any_feasible_at(mid)? {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let height = lo;
        let (winner, k_minimal) = fd.best(lattice.nodes_at_height(height))?;
        let (levels, table) = winner.expect("the minimal satisfying height has a feasible node");
        Ok(SamaratiOutcome {
            height,
            k_minimal,
            table,
            levels,
        })
    }
}

impl Anonymizer for Samarati {
    fn name(&self) -> String {
        "samarati".into()
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
    use anoncmp_microdata::prelude::Lattice;

    use crate::algorithms::test_support::small_census;

    #[test]
    fn finds_minimal_height() {
        let ds = small_census();
        let c = Constraint::k_anonymity(3).with_suppression(6);
        let outcome = Samarati.run(&ds, &c).unwrap();
        assert!(c.satisfied(&outcome.table));
        // No node strictly below the reported height satisfies.
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        if outcome.height > 0 {
            for levels in lattice.nodes_at_height(outcome.height - 1) {
                let t = lattice.apply(&ds, &levels, "x").unwrap();
                assert!(c.enforce(&t).is_none(), "height is not minimal");
            }
        }
        assert!(outcome.k_minimal.contains(&outcome.levels));
    }

    #[test]
    fn chosen_node_minimizes_preference_loss() {
        let ds = small_census();
        let c = Constraint::k_anonymity(4).with_suppression(6);
        let s = Samarati;
        let outcome = s.run(&ds, &c).unwrap();
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        let chosen_loss = LossMetric::classic().total_loss(&outcome.table);
        for levels in &outcome.k_minimal {
            let t = lattice.apply(&ds, levels, "x").unwrap();
            let t = c.enforce(&t).expect("frontier nodes satisfy");
            assert!(
                chosen_loss <= LossMetric::classic().total_loss(&t) + 1e-9,
                "a frontier node has lower loss than the chosen one"
            );
        }
    }

    #[test]
    fn heights_shrink_with_larger_budget() {
        let ds = small_census();
        let tight = Samarati.run(&ds, &Constraint::k_anonymity(5)).unwrap();
        let loose = Samarati
            .run(
                &ds,
                &Constraint::k_anonymity(5).with_suppression(ds.len() / 5),
            )
            .unwrap();
        assert!(loose.height <= tight.height);
    }

    #[test]
    fn unsatisfiable_reported() {
        let ds = small_census();
        let c = Constraint::k_anonymity(ds.len() + 1);
        assert!(matches!(
            Samarati.anonymize(&ds, &c),
            Err(AnonymizeError::Unsatisfiable(_))
        ));
    }

    #[test]
    fn k_equals_one_is_the_bottom() {
        let ds = small_census();
        let outcome = Samarati.run(&ds, &Constraint::k_anonymity(1)).unwrap();
        assert_eq!(outcome.height, 0, "raw release is 1-anonymous");
    }
}
