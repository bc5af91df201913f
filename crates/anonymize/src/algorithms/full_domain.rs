//! The node evaluator shared by the full-domain lattice searches.
//!
//! Datafly, Samarati, Incognito, SubsetIncognito, OptimalLattice, Genetic,
//! GreedyRecoder, TopDown and the multi-objective search each walk the
//! lattice their own way; this module alone decides, for a node:
//!
//! * **feasibility** — class sizes decide a frequency-only constraint
//!   (k-anonymity plus a suppression budget), so a node they reject is
//!   never decoded; any other constraint decodes the node and enforces;
//! * **the release** — the node decoded through the [`GenCodec`], then
//!   enforced;
//! * **the winner among feasible nodes** — the first minimum of the
//!   classic loss, computed once per candidate; only the winner's table is
//!   kept.
//!
//! The table path ([`Lattice::apply`] plus [`Constraint::enforce`]) stays
//! the oracle the `encoded_equivalence` tests hold these decisions to.

use std::sync::Arc;

use anoncmp_microdata::loss::LossMetric;
use anoncmp_microdata::prelude::{
    AnonymizedTable, Dataset, GenCodec, Lattice, LevelVector, NodePartition,
};

use crate::algorithms::validate_common;
use crate::constraint::Constraint;
use crate::error::{AnonymizeError, Result};

/// A feasible node and its release.
pub(crate) type Winner = (LevelVector, AnonymizedTable);

/// The verdict on one lattice node.
pub(crate) enum Verdict {
    /// The node's release.
    Feasible(AnonymizedTable),
    /// The number of tuples that violate the constraint at the node.
    Infeasible(usize),
}

/// One search's lattice, codec, constraint and release name.
pub(crate) struct FullDomain<'a> {
    lattice: Lattice,
    codec: GenCodec,
    constraint: &'a Constraint,
    name: &'static str,
    metric: LossMetric,
}

impl<'a> FullDomain<'a> {
    /// Checks the inputs, then builds the lattice and codec of `dataset`.
    pub(crate) fn new(
        dataset: &Arc<Dataset>,
        constraint: &'a Constraint,
        name: &'static str,
    ) -> Result<Self> {
        Self::with_config(dataset, constraint, name, None)
    }

    /// [`FullDomain::new`] for a search that checks its own configuration:
    /// a `problem` with it is reported after the input checks and before
    /// any lattice error.
    pub(crate) fn with_config(
        dataset: &Arc<Dataset>,
        constraint: &'a Constraint,
        name: &'static str,
        problem: Option<&str>,
    ) -> Result<Self> {
        validate_common(dataset, constraint)?;
        if let Some(problem) = problem {
            return Err(AnonymizeError::InvalidConfig(problem.into()));
        }
        Ok(FullDomain {
            lattice: Lattice::new(dataset.schema().clone())?,
            codec: GenCodec::new(dataset)?,
            constraint,
            name,
            metric: LossMetric::classic(),
        })
    }

    pub(crate) fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    pub(crate) fn codec(&self) -> &GenCodec {
        &self.codec
    }

    /// Whether the node of `partition` is feasible; only a constraint with
    /// extra models decodes it.
    pub(crate) fn feasible(&self, partition: &NodePartition) -> Result<bool> {
        if self.constraint.is_frequency_only() {
            return Ok(self.constraint.feasible_partition(partition));
        }
        Ok(self.enforce(partition.levels())?.is_ok())
    }

    /// The verdict on `levels`. A node rejected by class sizes is never
    /// decoded.
    pub(crate) fn judge(&self, levels: &[usize]) -> Result<Verdict> {
        if self.constraint.is_frequency_only() {
            let violating = self
                .codec
                .partition(levels)?
                .tuples_below(self.constraint.k);
            if violating > self.constraint.max_suppression {
                return Ok(Verdict::Infeasible(violating));
            }
        }
        Ok(match self.enforce(levels)? {
            Ok(release) => Verdict::Feasible(release),
            Err(violating) => Verdict::Infeasible(violating),
        })
    }

    /// The node's table, not enforced.
    pub(crate) fn decode(&self, levels: &[usize]) -> Result<AnonymizedTable> {
        Ok(self.codec.decode(levels, self.name)?)
    }

    /// The error of a search that found no feasible node: `what`, then
    /// the constraint.
    pub(crate) fn unsatisfiable(&self, what: &str) -> AnonymizeError {
        AnonymizeError::Unsatisfiable(format!("{what} {}", self.constraint.describe()))
    }

    /// The classic loss of a table.
    pub(crate) fn loss(&self, table: &AnonymizedTable) -> f64 {
        self.metric.total_loss(table)
    }

    /// The first loss-minimal release among `candidates`, which class sizes
    /// already found feasible: each is decoded, enforced (an extra model
    /// may still reject it) and scored once.
    pub(crate) fn best(
        &self,
        candidates: impl IntoIterator<Item = LevelVector>,
    ) -> Result<Option<Winner>> {
        let (winner, _) = self.pick(candidates, |levels| Ok(self.enforce(levels)?.ok()))?;
        Ok(winner)
    }

    /// [`FullDomain::best`] over candidates that are judged first, with
    /// every feasible candidate, in order.
    pub(crate) fn best_feasible(
        &self,
        candidates: impl IntoIterator<Item = LevelVector>,
    ) -> Result<(Option<Winner>, Vec<LevelVector>)> {
        self.pick(candidates, |levels| match self.judge(levels)? {
            Verdict::Feasible(release) => Ok(Some(release)),
            Verdict::Infeasible(_) => Ok(None),
        })
    }

    fn pick(
        &self,
        candidates: impl IntoIterator<Item = LevelVector>,
        release: impl Fn(&[usize]) -> Result<Option<AnonymizedTable>>,
    ) -> Result<(Option<Winner>, Vec<LevelVector>)> {
        let mut best: Option<(f64, Winner)> = None;
        let mut feasible = Vec::new();
        for levels in candidates {
            let Some(table) = release(&levels)? else {
                continue;
            };
            let loss = self.loss(&table);
            if best.as_ref().is_none_or(|(l, _)| loss < *l) {
                best = Some((loss, (levels.clone(), table)));
            }
            feasible.push(levels);
        }
        Ok((best.map(|(_, winner)| winner), feasible))
    }

    /// Decodes and enforces `levels`: the release, or the number of
    /// violating tuples.
    fn enforce(&self, levels: &[usize]) -> Result<std::result::Result<AnonymizedTable, usize>> {
        Ok(self.constraint.try_enforce(&self.decode(levels)?))
    }
}
