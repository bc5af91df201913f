//! Incognito with its defining subset phases (LeFevre, DeWitt &
//! Ramakrishnan).
//!
//! Where [`Incognito`](crate::algorithms::incognito::Incognito) sweeps the
//! full-QI lattice directly, the original Incognito algorithm works in
//! phases over *subsets* of the quasi-identifier: phase `i` determines,
//! for every size-`i` QI subset, which of its generalization nodes make
//! the **projection** onto that subset k-anonymous. Two prunings make
//! this fast:
//!
//! 1. **Subset anti-monotonicity**: projecting onto fewer attributes only
//!    merges classes, so if a node's projection onto some `(i−1)`-subset
//!    already violates k (within the suppression budget), the node cannot
//!    satisfy for the `i`-subset. Phase `i`'s candidate sets are therefore
//!    *joined* from phase `i−1`'s results before anything is evaluated.
//! 2. **Generalization anti-monotonicity**: within one subset's candidate
//!    lattice, ancestors of satisfying nodes are marked satisfying without
//!    evaluation (as in the plain sweep).
//!
//! Subset phases prune on k-anonymity + suppression only (those are
//! anti-monotone under projection); any extra models in the constraint
//! are enforced on the final full-QI stage, whose verdict is
//! authoritative. The final answer — the loss-minimal satisfying node —
//! is identical to the plain sweep's; what differs is how few nodes the
//! search has to *evaluate*, which the outcome reports.

use std::collections::HashMap;
use std::sync::Arc;

use anoncmp_microdata::prelude::{AnonymizedTable, Dataset, Lattice, LatticeIndex, LevelVector};

use crate::algorithms::full_domain::FullDomain;
use crate::algorithms::{Anonymizer, DatasetContext};
use crate::constraint::Constraint;
use crate::error::Result;

/// The phased subset-join Incognito.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubsetIncognito;

/// Search outcome with pruning statistics.
#[derive(Debug)]
pub struct SubsetIncognitoOutcome {
    /// The chosen (loss-minimal) release.
    pub table: AnonymizedTable,
    /// The chosen level vector (full QI).
    pub levels: LevelVector,
    /// Projections actually evaluated per phase (phase `i` at index
    /// `i − 1`).
    pub evaluated_per_phase: Vec<usize>,
    /// Candidate nodes pruned away by subset joins before evaluation,
    /// summed over phases ≥ 2.
    pub join_pruned: usize,
}

/// Checks whether the projection onto `dims` (QI dimension indices) at
/// `levels` (aligned with `dims`) is k-anonymous within the suppression
/// budget: the number of tuples in classes smaller than `k` must not
/// exceed `budget`. The projection groups rows as the full node does with
/// `levels` on `dims` and every other dimension at its top level, where
/// each hierarchy has a single value, so the index answers it.
fn projection_satisfies(
    index: &LatticeIndex,
    dims: &[usize],
    levels: &[usize],
    k: usize,
    budget: usize,
) -> Result<bool> {
    let mut node = index.lattice().top();
    for (&dim, &level) in dims.iter().zip(levels) {
        node[dim] = level;
    }
    Ok(index.summary(&node)?.tuples_below(k) <= budget)
}

impl SubsetIncognito {
    /// Runs the phased search.
    pub fn run(
        &self,
        dataset: &Arc<Dataset>,
        constraint: &Constraint,
    ) -> Result<SubsetIncognitoOutcome> {
        self.run_in(&DatasetContext::new(dataset.clone()), constraint)
    }

    /// [`Self::run`] on the lattice index of `ctx`.
    fn run_in(
        &self,
        ctx: &DatasetContext,
        constraint: &Constraint,
    ) -> Result<SubsetIncognitoOutcome> {
        let fd = FullDomain::new(ctx, constraint, "subset-incognito")?;
        let lattice = fd.lattice();
        let m = lattice.dimensions();
        let max_levels = lattice.max_levels().to_vec();
        let budget = constraint.max_suppression;
        let k = constraint.k;

        // sat[subset] = set of level vectors (aligned with the subset's
        // dims) whose projection satisfies k within budget. Subsets are
        // identified by their sorted dim lists.
        let mut sat: HashMap<Vec<usize>, Vec<LevelVector>> = HashMap::new();
        let mut evaluated_per_phase = Vec::with_capacity(m);
        let mut join_pruned = 0usize;

        for phase in 1..=m {
            let mut evaluated = 0usize;
            for dims in subsets(m, phase) {
                // Candidate nodes: all level combinations whose every
                // (phase−1)-projection is satisfying.
                let mut candidates: Vec<LevelVector> = Vec::new();
                let mut all = vec![0usize; phase];
                loop {
                    let viable = if phase == 1 {
                        true
                    } else {
                        (0..phase).all(|drop| {
                            let sub_dims: Vec<usize> = dims
                                .iter()
                                .enumerate()
                                .filter(|&(i, _)| i != drop)
                                .map(|(_, &d)| d)
                                .collect();
                            let sub_levels: Vec<usize> = all
                                .iter()
                                .enumerate()
                                .filter(|&(i, _)| i != drop)
                                .map(|(_, &l)| l)
                                .collect();
                            sat.get(&sub_dims).is_some_and(|s| s.contains(&sub_levels))
                        })
                    };
                    if viable {
                        candidates.push(all.clone());
                    } else {
                        join_pruned += 1;
                    }
                    // Odometer over the subset's level ranges.
                    let mut dim = phase;
                    loop {
                        if dim == 0 {
                            break;
                        }
                        dim -= 1;
                        if all[dim] < max_levels[dims[dim]] {
                            all[dim] += 1;
                            for later in all.iter_mut().skip(dim + 1) {
                                *later = 0;
                            }
                            break;
                        }
                        if dim == 0 {
                            all.clear();
                        }
                    }
                    if all.is_empty() {
                        break;
                    }
                }
                // Bottom-up over candidates with generalization pruning:
                // process in ascending height; a candidate dominated by a
                // known-satisfying node is satisfying without evaluation.
                candidates.sort_by_key(|c| c.iter().sum::<usize>());
                let mut satisfying: Vec<LevelVector> = Vec::new();
                for cand in candidates {
                    let dominated = satisfying.iter().any(|s| Lattice::leq(s, &cand));
                    let ok = if dominated {
                        true
                    } else {
                        evaluated += 1;
                        projection_satisfies(fd.index(), &dims, &cand, k, budget)?
                    };
                    if ok {
                        satisfying.push(cand);
                    }
                }
                sat.insert(dims, satisfying);
            }
            evaluated_per_phase.push(evaluated);
        }

        // Final stage: the full-QI satisfying set, filtered by the full
        // constraint (extra models + exact enforcement), minimal nodes
        // first, chosen by classic loss.
        let full_dims: Vec<usize> = (0..m).collect();
        let full_sat = sat.remove(&full_dims).unwrap_or_default();
        let (minimal, rest): (Vec<LevelVector>, Vec<LevelVector>) =
            full_sat.iter().cloned().partition(|levels| {
                !full_sat
                    .iter()
                    .any(|o| o != levels && Lattice::leq(o, levels))
            });
        // Extra models can knock out every minimal node; fall back to the
        // rest of the satisfying set before giving up.
        let best = match fd.best(minimal)?.0 {
            Some(winner) => Some(winner),
            None => fd.best(rest)?.0,
        };
        match best {
            Some((levels, table)) => Ok(SubsetIncognitoOutcome {
                table,
                levels,
                evaluated_per_phase,
                join_pruned,
            }),
            None => Err(fd.unsatisfiable("no lattice node satisfies")),
        }
    }
}

/// All size-`len` subsets of `0..m`, each sorted ascending.
fn subsets(m: usize, len: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(len);
    fn rec(start: usize, m: usize, len: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == len {
            out.push(cur.clone());
            return;
        }
        for i in start..m {
            cur.push(i);
            rec(i + 1, m, len, cur, out);
            cur.pop();
        }
    }
    rec(0, m, len, &mut cur, &mut out);
    out
}

impl Anonymizer for SubsetIncognito {
    fn name(&self) -> String {
        "subset-incognito".into()
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

    use crate::algorithms::incognito::Incognito;
    use crate::algorithms::test_support::small_census;

    #[test]
    fn subsets_enumeration() {
        assert_eq!(subsets(3, 1), vec![vec![0], vec![1], vec![2]]);
        assert_eq!(subsets(3, 2), vec![vec![0, 1], vec![0, 2], vec![1, 2]]);
        assert_eq!(subsets(3, 3), vec![vec![0, 1, 2]]);
        assert_eq!(subsets(2, 0), vec![Vec::<usize>::new()]);
    }

    #[test]
    fn matches_the_plain_sweep() {
        // Both searches must return releases of identical loss (both pick
        // the loss-minimal minimal node).
        let ds = small_census();
        let m = LossMetric::classic();
        for k in [2usize, 4] {
            let c = Constraint::k_anonymity(k).with_suppression(6);
            let plain = Incognito.run(&ds, &c).unwrap();
            let phased = SubsetIncognito.run(&ds, &c).unwrap();
            assert!(
                (m.total_loss(&plain.table) - m.total_loss(&phased.table)).abs() < 1e-9,
                "k = {k}: plain {:?} vs phased {:?}",
                plain.levels,
                phased.levels
            );
            assert!(c.satisfied(&phased.table));
        }
    }

    #[test]
    fn join_pruning_fires() {
        let ds = small_census();
        let c = Constraint::k_anonymity(8).with_suppression(4);
        let outcome = SubsetIncognito.run(&ds, &c).unwrap();
        assert_eq!(outcome.evaluated_per_phase.len(), 6, "one entry per phase");
        assert!(
            outcome.join_pruned > 0,
            "a strict k must disqualify some nodes at subset level"
        );
        // Later phases evaluate fewer candidate nodes per subset thanks to
        // the joins; at minimum, the final phase must evaluate fewer nodes
        // than the whole lattice.
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        assert!(outcome.evaluated_per_phase[5] < lattice.node_count());
    }

    #[test]
    fn honors_extra_models_at_the_final_stage() {
        use crate::models::LDiversity;
        use std::sync::Arc as StdArc;
        let ds = small_census();
        let c = Constraint::k_anonymity(2)
            .with_suppression(ds.len() / 5)
            .with_model(StdArc::new(LDiversity::distinct(2)));
        let t = SubsetIncognito.anonymize(&ds, &c).unwrap();
        assert!(c.satisfied(&t));
    }

    #[test]
    fn unsatisfiable_reported() {
        let ds = small_census();
        let c = Constraint::k_anonymity(ds.len() + 1);
        assert!(matches!(
            SubsetIncognito.anonymize(&ds, &c),
            Err(AnonymizeError::Unsatisfiable(_))
        ));
    }

    #[test]
    fn projection_check_is_consistent_with_full_grouping() {
        let ds = small_census();
        let index = LatticeIndex::new(&ds).unwrap();
        let lattice = index.lattice();
        let dims: Vec<usize> = (0..lattice.dimensions()).collect();
        for levels in [
            vec![0, 0, 0, 0, 0, 0],
            vec![2, 3, 1, 1, 1, 1],
            lattice.top(),
        ] {
            let table = lattice.apply(&ds, &levels, "x").unwrap();
            let full_ok = Constraint::k_anonymity(3).violating_tuples(&table) <= 6;
            let proj_ok = projection_satisfies(&index, &dims, &levels, 3, 6).unwrap();
            assert_eq!(
                proj_ok, full_ok,
                "projection check must agree with full grouping at {levels:?}"
            );
        }
    }

    #[test]
    fn projection_check_on_true_subsets_matches_reference_grouping() {
        use std::collections::HashMap;
        let ds = small_census();
        let index = LatticeIndex::new(&ds).unwrap();
        let qi = ds.schema().quasi_identifiers().to_vec();
        // Project onto dims {0, 2} at mixed levels and compare against a
        // straightforward signature count.
        let dims = vec![0usize, 2];
        let levels = vec![1usize, 0];
        for (k, budget) in [(2usize, 0usize), (3, 5), (10, 2)] {
            let mut groups: HashMap<Vec<_>, usize> = HashMap::new();
            for t in 0..ds.len() {
                let sig: Vec<_> = dims
                    .iter()
                    .zip(&levels)
                    .map(|(&d, &l)| {
                        let col = qi[d];
                        ds.schema()
                            .attribute(col)
                            .hierarchy()
                            .unwrap()
                            .generalize(ds.value(t, col), l)
                            .unwrap()
                    })
                    .collect();
                *groups.entry(sig).or_insert(0) += 1;
            }
            let violating: usize = groups.values().filter(|&&s| s < k).sum();
            assert_eq!(
                projection_satisfies(&index, &dims, &levels, k, budget).unwrap(),
                violating <= budget,
                "k={k} budget={budget}"
            );
        }
    }
}
