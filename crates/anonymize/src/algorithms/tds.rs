//! Top-Down Specialization (Fung, Wang & Yu, cited as \[3\] in the paper).
//!
//! Where Datafly climbs the lattice bottom-up, TDS descends it: start from
//! the fully generalized release (trivially satisfying any monotone
//! constraint) and repeatedly *specialize* — decrement one attribute's
//! level — choosing at each step the specialization with the best
//! information-gain-per-anonymity-loss score, stopping when every further
//! specialization would violate the constraint. The full-domain adaptation
//! implemented here keeps TDS's defining trait: it approaches the
//! constraint boundary from the safe side, so it can stop *at* the
//! boundary instead of overshooting past it, and every intermediate state
//! is releasable.

use std::sync::Arc;

use anoncmp_microdata::prelude::{AnonymizedTable, Dataset};

use crate::algorithms::full_domain::{FullDomain, Verdict};
use crate::algorithms::{Anonymizer, DatasetContext};
use crate::constraint::Constraint;
use crate::error::Result;

/// The top-down specialization algorithm. The information gain of a
/// specialization is its reduction of the classic loss.
#[derive(Debug, Clone, Copy, Default)]
pub struct TopDown;

impl TopDown {
    /// Runs TDS, also returning the final level vector.
    pub fn run(
        &self,
        dataset: &Arc<Dataset>,
        constraint: &Constraint,
    ) -> Result<(AnonymizedTable, Vec<usize>)> {
        self.run_in(&DatasetContext::new(dataset.clone()), constraint)
    }

    /// [`Self::run`] on the lattice index of `ctx`.
    fn run_in(
        &self,
        ctx: &DatasetContext,
        constraint: &Constraint,
    ) -> Result<(AnonymizedTable, Vec<usize>)> {
        let fd = FullDomain::new(ctx, constraint, "top-down")?;
        let mut levels = fd.lattice().top();
        let Verdict::Feasible {
            loss: mut current_loss,
            suppressed: mut current_suppressed,
        } = fd.judge(&levels)?
        else {
            return Err(fd.unsatisfiable("even the fully generalized release violates"));
        };
        loop {
            // Score every feasible single-step specialization by
            // information gain (loss reduction); anonymity loss is implicit
            // in feasibility (infeasible specializations are discarded),
            // with the suppression increase as a tie-breaking denominator —
            // the "score = gain / loss" shape of TDS.
            let mut best: Option<(f64, Vec<usize>, f64, usize)> = None;
            for pred in fd.lattice().predecessors(&levels) {
                let Verdict::Feasible { loss, suppressed } = fd.judge(&pred)? else {
                    continue;
                };
                let gain = (current_loss - loss).max(0.0);
                let anonymity_cost = (suppressed as f64 - current_suppressed as f64).max(0.0) + 1.0;
                let score = gain / anonymity_cost;
                if best.as_ref().is_none_or(|(s, ..)| score > *s) {
                    best = Some((score, pred, loss, suppressed));
                }
            }
            match best {
                Some((_, pred, loss, suppressed)) => {
                    levels = pred;
                    current_loss = loss;
                    current_suppressed = suppressed;
                }
                // No feasible specialization remains: the boundary.
                None => return Ok((fd.release(&levels)?, levels)),
            }
        }
    }
}

impl Anonymizer for TopDown {
    fn name(&self) -> String {
        "top-down".into()
    }

    fn anonymize(
        &self,
        dataset: &Arc<Dataset>,
        constraint: &Constraint,
    ) -> Result<AnonymizedTable> {
        self.run(dataset, constraint).map(|(t, _)| t)
    }

    fn anonymize_in(
        &self,
        ctx: &DatasetContext,
        constraint: &Constraint,
    ) -> Result<AnonymizedTable> {
        self.run_in(ctx, constraint).map(|(t, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::AnonymizeError;
    use anoncmp_microdata::loss::LossMetric;
    use anoncmp_microdata::prelude::Lattice;

    use crate::algorithms::datafly::Datafly;
    use crate::algorithms::test_support::small_census;

    #[test]
    fn produces_satisfying_output() {
        let ds = small_census();
        for k in [2, 5, 10] {
            let c = Constraint::k_anonymity(k).with_suppression(ds.len() / 10);
            let t = TopDown.anonymize(&ds, &c).unwrap();
            assert!(c.satisfied(&t), "k = {k}");
            assert_eq!(t.len(), ds.len());
        }
    }

    #[test]
    fn stops_at_the_boundary() {
        // Every further single-step specialization of the returned node
        // must be infeasible — TDS's defining postcondition.
        let ds = small_census();
        let c = Constraint::k_anonymity(4).with_suppression(5);
        let (_, levels) = TopDown.run(&ds, &c).unwrap();
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        for pred in lattice.predecessors(&levels) {
            let t = lattice.apply(&ds, &pred, "x").unwrap();
            assert!(
                c.enforce(&t).is_none(),
                "a feasible specialization remained below the result"
            );
        }
    }

    #[test]
    fn competitive_with_datafly_on_loss() {
        // TDS approaches from the safe side and stops at the boundary, so
        // it should not lose badly to Datafly's bottom-up overshoot.
        let ds = small_census();
        let c = Constraint::k_anonymity(5).with_suppression(6);
        let m = LossMetric::classic();
        let tds = TopDown.anonymize(&ds, &c).unwrap();
        let datafly = Datafly.anonymize(&ds, &c).unwrap();
        // Allow a generous band; the point is the same order of magnitude,
        // with TDS usually at or below Datafly's loss.
        assert!(m.total_loss(&tds) <= m.total_loss(&datafly) * 1.5 + 1e-9);
    }

    #[test]
    fn k_one_descends_to_the_bottom() {
        let ds = small_census();
        let (t, levels) = TopDown.run(&ds, &Constraint::k_anonymity(1)).unwrap();
        assert_eq!(levels, vec![0; 6], "1-anonymity allows the raw release");
        assert_eq!(t.suppressed_count(), 0);
    }

    #[test]
    fn unsatisfiable_reported() {
        let ds = small_census();
        let c = Constraint::k_anonymity(ds.len() + 1);
        assert!(matches!(
            TopDown.anonymize(&ds, &c),
            Err(AnonymizeError::Unsatisfiable(_))
        ));
    }

    #[test]
    fn intermediate_states_always_releasable() {
        // The monotone path invariant: since TDS only moves between
        // enforced-feasible nodes, its *final* answer is feasible even with
        // extra models attached.
        use crate::models::LDiversity;
        use std::sync::Arc as StdArc;
        let ds = small_census();
        let c = Constraint::k_anonymity(2)
            .with_suppression(ds.len() / 4)
            .with_model(StdArc::new(LDiversity::distinct(2)));
        let t = TopDown.anonymize(&ds, &c).unwrap();
        assert!(c.satisfied(&t));
    }
}
