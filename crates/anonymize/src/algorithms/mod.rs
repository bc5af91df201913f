//! Disclosure control algorithms.
//!
//! Every algorithm implements [`Anonymizer`]: given a dataset and a
//! [`Constraint`], produce an [`AnonymizedTable`]. The roster mirrors the
//! algorithms the paper's §6 surveys as the systems whose outputs the
//! comparison framework is meant to judge:
//!
//! | Algorithm | Paper citation | Module |
//! |---|---|---|
//! | Datafly greedy full-domain recoding | Sweeney \[16\] | [`datafly`] |
//! | Binary search over lattice heights | Samarati \[15\] | [`samarati`] |
//! | Bottom-up lattice BFS with pruning | Incognito-style (cf. \[1\]) | [`incognito`] |
//! | Phased subset-join Incognito | LeFevre et al. (original) | [`subset_incognito`] |
//! | Multidimensional median partitioning | LeFevre et al. \[9\] | [`mondrian`] |
//! | Frequency-driven greedy recoding | μ-Argus \[6\] (inspired) | [`greedy`] |
//! | Genetic lattice search | Iyengar \[7\] / Lunacek et al. \[12\] | [`genetic`] |
//! | Top-down specialization | Fung, Wang & Yu \[3\] | [`tds`] |
//! | Greedy k-member clustering | Xu et al. \[22\] (inspired) | [`clustering`] |
//! | Exhaustive optimal baseline | Bayardo & Agrawal \[1\] (spirit) | [`optimal`] |
//! | Multi-objective NSGA-II (privacy as objective) | §7 / Dewri et al. \[2\] | [`moga`] |

pub mod clustering;
pub mod datafly;
pub(crate) mod full_domain;
pub mod genetic;
pub mod greedy;
pub mod incognito;
pub mod moga;
pub mod mondrian;
pub mod optimal;
pub(crate) mod recoding;
pub mod samarati;
pub mod subset_incognito;
pub mod tds;

use std::sync::{Arc, OnceLock};

use anoncmp_microdata::prelude::{AnonymizedTable, Dataset, LatticeIndex};

use crate::constraint::Constraint;
use crate::error::Result;

/// A microdata disclosure control algorithm.
pub trait Anonymizer {
    /// Display name, e.g. `"datafly"`.
    fn name(&self) -> String;

    /// Produces an anonymization of `dataset` satisfying `constraint`.
    ///
    /// # Errors
    /// [`AnonymizeError::Unsatisfiable`](crate::error::AnonymizeError::Unsatisfiable)
    /// when the algorithm's search space contains no satisfying release,
    /// [`AnonymizeError::InvalidConfig`](crate::error::AnonymizeError::InvalidConfig)
    /// for bad parameters.
    fn anonymize(&self, dataset: &Arc<Dataset>, constraint: &Constraint)
        -> Result<AnonymizedTable>;

    /// [`Anonymizer::anonymize`] on the dataset of `ctx`. The full-domain
    /// searches read the lattice index that `ctx` shares among every
    /// search given it; the default ignores the index.
    ///
    /// # Errors
    /// As [`Anonymizer::anonymize`].
    fn anonymize_in(
        &self,
        ctx: &DatasetContext,
        constraint: &Constraint,
    ) -> Result<AnonymizedTable> {
        self.anonymize(ctx.dataset(), constraint)
    }
}

/// One dataset plus the [`LatticeIndex`] that the full-domain searches
/// run in it share, built when the first of them asks. Searches given one
/// context group each lattice node once between them; dropping the
/// context frees the index.
#[derive(Debug)]
pub struct DatasetContext {
    dataset: Arc<Dataset>,
    index: OnceLock<anoncmp_microdata::Result<LatticeIndex>>,
}

impl DatasetContext {
    /// A context for `dataset`, with no index built yet.
    pub fn new(dataset: Arc<Dataset>) -> Self {
        DatasetContext {
            dataset,
            index: OnceLock::new(),
        }
    }

    /// The dataset.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.dataset
    }

    /// The lattice index, built on the first call.
    pub(crate) fn index(&self) -> Result<&LatticeIndex> {
        let built = self.index.get_or_init(|| LatticeIndex::new(&self.dataset));
        Ok(built.as_ref().map_err(Clone::clone)?)
    }
}

pub(crate) fn validate_common(dataset: &Dataset, constraint: &Constraint) -> Result<()> {
    use crate::error::AnonymizeError;
    if constraint.k == 0 {
        return Err(AnonymizeError::InvalidConfig("k must be at least 1".into()));
    }
    if dataset.is_empty() {
        return Err(AnonymizeError::Unsatisfiable("dataset is empty".into()));
    }
    if constraint.k > dataset.len() && constraint.max_suppression < dataset.len() {
        return Err(AnonymizeError::Unsatisfiable(format!(
            "k = {} exceeds the dataset size {}",
            constraint.k,
            dataset.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::Arc;

    use anoncmp_datagen::census::{generate, CensusConfig};
    use anoncmp_microdata::prelude::{Attribute, Dataset, Role, Schema, Value};

    /// A small deterministic census sample shared by algorithm tests.
    pub fn small_census() -> Arc<Dataset> {
        generate(&CensusConfig {
            rows: 120,
            seed: 99,
            zip_pool: 12,
        })
    }

    /// A larger sample for behavioural assertions.
    pub fn medium_census() -> Arc<Dataset> {
        generate(&CensusConfig {
            rows: 600,
            seed: 123,
            zip_pool: 25,
        })
    }

    /// One age per row on the widest integer domain, whose width
    /// `i64::MAX − i64::MIN` does not fit in an `i64`.
    pub fn extreme_domain_ages(ages: &[i64]) -> Arc<Dataset> {
        let schema = Schema::new(vec![Attribute::integer(
            "age",
            Role::QuasiIdentifier,
            i64::MIN,
            i64::MAX,
        )])
        .unwrap();
        let rows = ages.iter().map(|&age| vec![Value::Int(age)]).collect();
        Dataset::new(schema, rows).unwrap()
    }
}
