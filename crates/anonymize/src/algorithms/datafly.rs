//! Sweeney's Datafly heuristic (cited as \[16\] in the paper).
//!
//! Datafly repeatedly generalizes the quasi-identifier attribute with the
//! most distinct values in the current (generalized) projection until the
//! number of tuples violating the constraint fits in the suppression
//! budget, then suppresses the stragglers. A fast greedy heuristic with no
//! optimality guarantee — exactly the kind of algorithm whose outputs the
//! paper's framework wants to compare.

use std::sync::Arc;

use anoncmp_microdata::prelude::{AnonymizedTable, Dataset};

use crate::algorithms::full_domain::{FullDomain, Verdict};
use crate::algorithms::{Anonymizer, DatasetContext};
use crate::constraint::Constraint;
use crate::error::Result;

/// The Datafly algorithm.
///
/// ```
/// use anoncmp_anonymize::prelude::*;
/// use anoncmp_datagen::census::{generate, CensusConfig};
///
/// let data = generate(&CensusConfig { rows: 120, seed: 1, zip_pool: 10 });
/// let constraint = Constraint::k_anonymity(3).with_suppression(12);
/// let (release, levels) = Datafly.run(&data, &constraint).unwrap();
/// assert!(constraint.satisfied(&release));
/// assert_eq!(levels.len(), 6, "one level per quasi-identifier");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Datafly;

impl Datafly {
    /// Runs Datafly and also returns the final level vector.
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
        let fd = FullDomain::new(ctx, constraint, "datafly")?;
        let (lattice, codec) = (fd.lattice(), fd.codec());
        let mut levels = lattice.bottom();
        loop {
            let violating = match fd.judge(&levels)? {
                Verdict::Feasible { .. } => return Ok((fd.release(&levels)?, levels)),
                Verdict::Infeasible(violating) => violating,
            };
            // Generalize the attribute with the most distinct generalized
            // values among those not yet at their maximum level. The
            // codec's per-(dimension, level) dictionary size IS that
            // distinct count — every dictionary entry is the image of a
            // value present in the column.
            let mut best: Option<(usize, usize)> = None; // (dim, distinct)
            for (dim, &level) in levels.iter().enumerate() {
                if level >= lattice.max_levels()[dim] {
                    continue;
                }
                let distinct = codec.distinct_at(dim, level);
                if best.is_none_or(|(_, d)| distinct > d) {
                    best = Some((dim, distinct));
                }
            }
            match best {
                Some((dim, _)) => levels[dim] += 1,
                None => {
                    return Err(fd.unsatisfiable(&format!(
                        "even full generalization leaves {violating} tuples violating"
                    )));
                }
            }
        }
    }
}

impl Anonymizer for Datafly {
    fn name(&self) -> String {
        "datafly".into()
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
    use std::sync::Arc as StdArc;

    use crate::algorithms::test_support::small_census;
    use crate::models::{LDiversity, PrivacyModel};

    #[test]
    fn produces_k_anonymous_output() {
        let ds = small_census();
        for k in [2, 3, 5, 10] {
            let c = Constraint::k_anonymity(k).with_suppression(ds.len() / 10);
            let t = Datafly
                .anonymize(&ds, &c)
                .expect("datafly finds a solution");
            assert!(c.satisfied(&t), "k = {k}");
            assert_eq!(t.len(), ds.len(), "suppressed tuples are retained");
        }
    }

    #[test]
    fn zero_suppression_still_works() {
        let ds = small_census();
        let c = Constraint::k_anonymity(3);
        let t = Datafly
            .anonymize(&ds, &c)
            .expect("solvable by generalizing enough");
        assert!(c.satisfied(&t));
        assert_eq!(t.suppressed_count(), 0);
    }

    #[test]
    fn honors_extra_models() {
        let ds = small_census();
        let c = Constraint::k_anonymity(2)
            .with_suppression(ds.len() / 5)
            .with_model(StdArc::new(LDiversity::distinct(2)));
        let t = Datafly.anonymize(&ds, &c).expect("diversity reachable");
        assert!(c.satisfied(&t));
        assert!(LDiversity::distinct(2).satisfied(&t) || t.suppressed_count() > 0);
    }

    #[test]
    fn unsatisfiable_k_reported() {
        let ds = small_census();
        let c = Constraint::k_anonymity(ds.len() + 1);
        assert!(matches!(
            Datafly.anonymize(&ds, &c),
            Err(AnonymizeError::Unsatisfiable(_))
        ));
    }

    #[test]
    fn k_zero_rejected() {
        let ds = small_census();
        assert!(matches!(
            Datafly.anonymize(&ds, &Constraint::k_anonymity(0)),
            Err(AnonymizeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn run_reports_monotone_levels() {
        let ds = small_census();
        let c5 = Constraint::k_anonymity(5).with_suppression(10);
        let (_, l5) = Datafly.run(&ds, &c5).unwrap();
        let c2 = Constraint::k_anonymity(2).with_suppression(10);
        let (_, l2) = Datafly.run(&ds, &c2).unwrap();
        // Tightening k never *reduces* the total generalization Datafly
        // applies (it follows the same deterministic path, which only
        // continues further).
        let h5: usize = l5.iter().sum();
        let h2: usize = l2.iter().sum();
        assert!(h5 >= h2, "higher k generalizes at least as much");
    }
}
