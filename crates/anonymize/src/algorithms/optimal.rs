//! Brute-force optimal full-domain anonymization — the ground-truth
//! baseline in the spirit of Bayardo & Agrawal's complete search (cited as
//! \[1\] in the paper).
//!
//! Enumerates **every** lattice node, enforces the constraint on each, and
//! returns the feasible release with minimal total loss. Exponential in
//! the number of quasi-identifiers, so only usable on small lattices — its
//! purpose is to certify the heuristics: for *monotone* loss metrics the
//! loss-optimal feasible node always lies on the minimal feasible frontier
//! (generalizing further can only add loss), so
//! [`Incognito`](crate::algorithms::incognito::Incognito)'s frontier
//! choice must match this baseline; the tests pin that equivalence.

use std::sync::Arc;

use anoncmp_microdata::prelude::{AnonymizedTable, Dataset, LevelVector};

use crate::algorithms::full_domain::FullDomain;
use crate::algorithms::{Anonymizer, DatasetContext};
use crate::constraint::Constraint;
use crate::error::Result;

/// The exhaustive full-domain search.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimalLattice;

impl OptimalLattice {
    /// Runs the exhaustive search, returning the loss-minimal feasible
    /// release, its levels, and the number of feasible nodes found.
    pub fn run(
        &self,
        dataset: &Arc<Dataset>,
        constraint: &Constraint,
    ) -> Result<(AnonymizedTable, LevelVector, usize)> {
        self.run_in(&DatasetContext::new(dataset.clone()), constraint)
    }

    /// [`Self::run`] on the lattice index of `ctx`.
    fn run_in(
        &self,
        ctx: &DatasetContext,
        constraint: &Constraint,
    ) -> Result<(AnonymizedTable, LevelVector, usize)> {
        let fd = FullDomain::new(ctx, constraint, "optimal")?;
        match fd.best(fd.lattice().iter_all())? {
            (Some((levels, table)), feasible) => Ok((table, levels, feasible.len())),
            (None, _) => Err(fd.unsatisfiable("no lattice node satisfies")),
        }
    }
}

impl Anonymizer for OptimalLattice {
    fn name(&self) -> String {
        "optimal".into()
    }

    fn anonymize(
        &self,
        dataset: &Arc<Dataset>,
        constraint: &Constraint,
    ) -> Result<AnonymizedTable> {
        self.run(dataset, constraint).map(|(t, ..)| t)
    }

    fn anonymize_in(
        &self,
        ctx: &DatasetContext,
        constraint: &Constraint,
    ) -> Result<AnonymizedTable> {
        self.run_in(ctx, constraint).map(|(t, ..)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::AnonymizeError;
    use anoncmp_microdata::loss::LossMetric;

    use crate::algorithms::incognito::Incognito;
    use crate::algorithms::samarati::Samarati;
    use crate::algorithms::test_support::small_census;

    #[test]
    fn incognito_matches_the_exhaustive_optimum_without_suppression() {
        // The certification this module exists for: with no suppression
        // budget the total loss is pure generalization loss, which is
        // monotone along the lattice, so the optimum lies on the minimal
        // feasible frontier and Incognito finds it. (With a suppression
        // budget the optimum can sit *above* the frontier — trading more
        // generalization for fewer all-suppressed tuples — which is why
        // this equality is only asserted at budget 0.)
        let ds = small_census();
        for k in [2usize, 3, 4] {
            let c = Constraint::k_anonymity(k);
            let (opt_table, opt_levels, _) = OptimalLattice.run(&ds, &c).unwrap();
            let inc = Incognito.run(&ds, &c).unwrap();
            let m = LossMetric::classic();
            assert!(
                (m.total_loss(&inc.table) - m.total_loss(&opt_table)).abs() < 1e-9,
                "incognito is not optimal at k = {k}: {:?} vs {:?}",
                inc.levels,
                opt_levels
            );
        }
    }

    #[test]
    fn every_heuristic_is_bounded_below_by_the_optimum() {
        let ds = small_census();
        let c = Constraint::k_anonymity(5).with_suppression(6);
        let (opt_table, _, _) = OptimalLattice.run(&ds, &c).unwrap();
        let m = LossMetric::classic();
        let opt_loss = m.total_loss(&opt_table);
        for algo in [
            Box::new(crate::algorithms::datafly::Datafly) as Box<dyn Anonymizer>,
            Box::new(crate::algorithms::greedy::GreedyRecoder),
            Box::new(crate::algorithms::tds::TopDown),
            Box::new(Samarati),
        ] {
            let t = algo.anonymize(&ds, &c).unwrap();
            assert!(
                m.total_loss(&t) >= opt_loss - 1e-9,
                "{} reports loss below the certified optimum",
                algo.name()
            );
        }
    }

    #[test]
    fn feasible_count_grows_with_budget() {
        let ds = small_census();
        let (_, _, tight) = OptimalLattice
            .run(&ds, &Constraint::k_anonymity(4))
            .unwrap();
        let (_, _, loose) = OptimalLattice
            .run(
                &ds,
                &Constraint::k_anonymity(4).with_suppression(ds.len() / 5),
            )
            .unwrap();
        assert!(loose >= tight);
    }

    #[test]
    fn unsatisfiable_reported() {
        let ds = small_census();
        let c = Constraint::k_anonymity(ds.len() + 1);
        assert!(matches!(
            OptimalLattice.anonymize(&ds, &c),
            Err(AnonymizeError::Unsatisfiable(_))
        ));
    }
}
