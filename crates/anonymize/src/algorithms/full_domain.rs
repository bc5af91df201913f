//! The node evaluator shared by the full-domain lattice searches.
//!
//! Datafly, Samarati, Incognito, SubsetIncognito, OptimalLattice, Genetic,
//! GreedyRecoder, TopDown and the multi-objective search each walk the
//! lattice their own way; this module alone decides, for a node:
//!
//! * **feasibility** — class sizes decide a frequency-only constraint
//!   (k-anonymity plus a suppression budget); any other constraint
//!   decodes the node and enforces;
//! * **the score** — the classic loss of the node's *enforced* release.
//!   Under a frequency-only constraint it is computed from the codec: the
//!   tuples of every class below k score as suppressed cells
//!   ([`LossMetric::loss_vector_encoded_masked`]), bit-identical to the
//!   loss of the decoded and enforced table. Other constraints score the
//!   enforced table and drop it;
//! * **the release** — the node decoded through the [`GenCodec`], then
//!   enforced: the one table a search builds, for the node it returns;
//! * **the winner among candidates** — the first minimum of the score.
//!
//! Class sizes come from the [`LatticeIndex`] of the search's
//! [`DatasetContext`], so searches that share a context group each node
//! once between them. The table path ([`Lattice::apply`] plus
//! [`Constraint::enforce`]) stays the oracle the `encoded_equivalence`
//! tests hold these decisions to.

use anoncmp_microdata::loss::LossMetric;
use anoncmp_microdata::prelude::{AnonymizedTable, GenCodec, Lattice, LatticeIndex, LevelVector};

use crate::algorithms::{validate_common, DatasetContext};
use crate::constraint::Constraint;
use crate::error::{AnonymizeError, Result};

/// A feasible node and its release.
pub(crate) type Winner = (LevelVector, AnonymizedTable);

/// The verdict on one lattice node.
pub(crate) enum Verdict {
    /// The node's release would score `loss` with `suppressed` tuples
    /// suppressed.
    Feasible { loss: f64, suppressed: usize },
    /// The number of tuples that violate the constraint at the node.
    Infeasible(usize),
}

/// One search's lattice index, constraint and release name.
pub(crate) struct FullDomain<'a> {
    index: &'a LatticeIndex,
    constraint: &'a Constraint,
    name: &'static str,
    metric: LossMetric,
}

impl<'a> FullDomain<'a> {
    /// Checks the inputs, then takes the lattice index of `ctx`.
    pub(crate) fn new(
        ctx: &'a DatasetContext,
        constraint: &'a Constraint,
        name: &'static str,
    ) -> Result<Self> {
        Self::with_config(ctx, constraint, name, None)
    }

    /// [`FullDomain::new`] for a search that checks its own configuration:
    /// a `problem` with it is reported after the input checks and before
    /// any lattice error.
    pub(crate) fn with_config(
        ctx: &'a DatasetContext,
        constraint: &'a Constraint,
        name: &'static str,
        problem: Option<&str>,
    ) -> Result<Self> {
        validate_common(ctx.dataset(), constraint)?;
        if let Some(problem) = problem {
            return Err(AnonymizeError::InvalidConfig(problem.into()));
        }
        Ok(FullDomain {
            index: ctx.index()?,
            constraint,
            name,
            metric: LossMetric::classic(),
        })
    }

    pub(crate) fn index(&self) -> &LatticeIndex {
        self.index
    }

    pub(crate) fn lattice(&self) -> &Lattice {
        self.index.lattice()
    }

    pub(crate) fn codec(&self) -> &GenCodec {
        self.index.codec()
    }

    /// The number of tuples in classes below k at `levels`.
    fn tuples_below(&self, levels: &[usize]) -> Result<usize> {
        Ok(self.index.summary(levels)?.tuples_below(self.constraint.k))
    }

    /// Whether `levels` is feasible; only a constraint with extra models
    /// decodes the node.
    pub(crate) fn feasible(&self, levels: &[usize]) -> Result<bool> {
        if self.constraint.is_frequency_only() {
            return Ok(self.tuples_below(levels)? <= self.constraint.max_suppression);
        }
        Ok(self.enforce(levels)?.is_ok())
    }

    /// The verdict on `levels`. A frequency-only constraint is judged
    /// from the codec alone; any other decodes the node.
    pub(crate) fn judge(&self, levels: &[usize]) -> Result<Verdict> {
        let k = self.constraint.k;
        if !self.constraint.is_frequency_only() {
            return Ok(match self.enforce(levels)? {
                Ok(release) => Verdict::Feasible {
                    loss: self.metric.total_loss(&release),
                    suppressed: release.suppressed_count(),
                },
                Err(violating) => Verdict::Infeasible(violating),
            });
        }
        // Enforcement suppresses exactly the classes below k, and succeeds
        // when their tuples fit the budget.
        let summary = self.index.summary(levels)?;
        let suppressed = summary.tuples_below(k);
        if suppressed > self.constraint.max_suppression {
            return Ok(Verdict::Infeasible(suppressed));
        }
        let mask: Option<Vec<bool>> = if suppressed == 0 {
            None
        } else {
            let ids = self.codec().view(levels)?.class_ids();
            let mut sizes = vec![0usize; summary.class_count()];
            for &class in &ids {
                sizes[class as usize] += 1;
            }
            Some(ids.iter().map(|&class| sizes[class as usize] < k).collect())
        };
        let loss = self
            .metric
            .loss_vector_encoded_masked(self.codec(), levels, mask.as_deref())?
            .iter()
            .sum();
        Ok(Verdict::Feasible { loss, suppressed })
    }

    /// The number of tuples that violate the constraint at `levels` and
    /// the classic loss of the node, both before any suppression. Only a
    /// constraint with extra models decodes the node.
    pub(crate) fn unenforced(&self, levels: &[usize]) -> Result<(usize, f64)> {
        if self.constraint.is_frequency_only() {
            let violating = self.tuples_below(levels)?;
            let loss = self.metric.total_loss_encoded(self.codec(), levels)?;
            return Ok((violating, loss));
        }
        let table = self.decode(levels)?;
        Ok((
            self.constraint.violating_tuples(&table),
            self.metric.total_loss(&table),
        ))
    }

    /// The release of a node judged feasible: decoded, then enforced.
    pub(crate) fn release(&self, levels: &[usize]) -> Result<AnonymizedTable> {
        Ok(self
            .enforce(levels)?
            .expect("a node judged feasible enforces within budget"))
    }

    /// The node's table, not enforced.
    pub(crate) fn decode(&self, levels: &[usize]) -> Result<AnonymizedTable> {
        Ok(self.codec().decode(levels, self.name)?)
    }

    /// The error of a search that found no feasible node: `what`, then
    /// the constraint.
    pub(crate) fn unsatisfiable(&self, what: &str) -> AnonymizeError {
        AnonymizeError::Unsatisfiable(format!("{what} {}", self.constraint.describe()))
    }

    /// Judges every candidate, in order, and releases the first one of
    /// minimal loss: the winner, plus every feasible candidate.
    pub(crate) fn best(
        &self,
        candidates: impl IntoIterator<Item = LevelVector>,
    ) -> Result<(Option<Winner>, Vec<LevelVector>)> {
        let mut best: Option<(f64, usize)> = None;
        let mut feasible = Vec::new();
        for levels in candidates {
            let Verdict::Feasible { loss, .. } = self.judge(&levels)? else {
                continue;
            };
            if best.is_none_or(|(l, _)| loss < l) {
                best = Some((loss, feasible.len()));
            }
            feasible.push(levels);
        }
        let winner = match best {
            Some((_, i)) => Some((feasible[i].clone(), self.release(&feasible[i])?)),
            None => None,
        };
        Ok((winner, feasible))
    }

    /// Decodes and enforces `levels`: the release, or the number of
    /// violating tuples.
    fn enforce(&self, levels: &[usize]) -> Result<std::result::Result<AnonymizedTable, usize>> {
        Ok(self.constraint.try_enforce(&self.decode(levels)?))
    }
}
