//! μ-Argus-inspired greedy recoding (cited as \[6\] in the paper).
//!
//! μ-Argus generalizes attributes greedily based on the frequency of
//! quasi-identifier combinations and suppresses outliers. This
//! implementation keeps that shape in the full-domain setting: at each
//! step it evaluates every single-attribute generalization and applies the
//! one with the best ratio of *violation reduction* to *loss increase*,
//! stopping as soon as the remaining violating tuples fit in the
//! suppression budget. Like μ-Argus, it is fast and makes no optimality
//! claim — the paper notes μ-Argus "suffers from the shortcoming that
//! larger combinations of quasi-identifiers are not checked", and this
//! greedy cousin inherits the same local-view limitation.

use std::sync::Arc;

use anoncmp_microdata::prelude::{AnonymizedTable, Dataset};

use crate::algorithms::full_domain::{FullDomain, Verdict};
use crate::algorithms::{Anonymizer, DatasetContext};
use crate::constraint::Constraint;
use crate::error::Result;

/// The greedy ratio-driven recoder. The classic loss is the ratio's
/// denominator.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyRecoder;

impl GreedyRecoder {
    /// Runs the recoder, also returning the final level vector.
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
        let fd = FullDomain::new(ctx, constraint, "greedy")?;
        // The ratio scores nodes before any suppression.
        let mut levels = fd.lattice().bottom();
        let (mut current_viol, mut current_loss) = fd.unenforced(&levels)?;
        loop {
            if let Verdict::Feasible { .. } = fd.judge(&levels)? {
                return Ok((fd.release(&levels)?, levels));
            }
            // Evaluate every single-step generalization.
            let mut best: Option<(f64, Vec<usize>, usize, f64)> = None;
            for succ in fd.lattice().successors(&levels) {
                let (viol, loss) = fd.unenforced(&succ)?;
                let reduction = current_viol.saturating_sub(viol) as f64;
                let cost = (loss - current_loss).max(1e-9);
                let ratio = reduction / cost;
                if best.as_ref().is_none_or(|(r, ..)| ratio > *r) {
                    best = Some((ratio, succ, viol, loss));
                }
            }
            match best {
                Some((_, succ, viol, loss)) => {
                    levels = succ;
                    current_viol = viol;
                    current_loss = loss;
                }
                None => return Err(fd.unsatisfiable("top of the lattice still violates")),
            }
        }
    }
}

impl Anonymizer for GreedyRecoder {
    fn name(&self) -> String {
        "greedy".into()
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
    use anoncmp_microdata::prelude::Lattice;

    use crate::algorithms::test_support::small_census;

    #[test]
    fn produces_satisfying_output() {
        let ds = small_census();
        for k in [2, 5, 10] {
            let c = Constraint::k_anonymity(k).with_suppression(ds.len() / 10);
            let t = GreedyRecoder.anonymize(&ds, &c).unwrap();
            assert!(c.satisfied(&t), "k = {k}");
        }
    }

    #[test]
    fn run_returns_levels_in_lattice() {
        let ds = small_census();
        let c = Constraint::k_anonymity(3).with_suppression(5);
        let (t, levels) = GreedyRecoder.run(&ds, &c).unwrap();
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        assert!(lattice.contains(&levels));
        // Applying the reported levels and enforcing reproduces the output
        // partition.
        let reapplied = lattice.apply(&ds, &levels, "x").unwrap();
        let reapplied = c.enforce(&reapplied).unwrap();
        assert!(t.classes().same_partition(reapplied.classes()));
    }

    #[test]
    fn unsatisfiable_reported() {
        let ds = small_census();
        let c = Constraint::k_anonymity(ds.len() + 1);
        assert!(matches!(
            GreedyRecoder.anonymize(&ds, &c),
            Err(AnonymizeError::Unsatisfiable(_))
        ));
    }

    #[test]
    fn trivial_constraint_returns_raw_release() {
        let ds = small_census();
        let (t, levels) = GreedyRecoder.run(&ds, &Constraint::k_anonymity(1)).unwrap();
        assert_eq!(levels, vec![0; 6]);
        assert_eq!(t.suppressed_count(), 0);
    }
}
