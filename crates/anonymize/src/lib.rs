//! # anoncmp-anonymize
//!
//! From-scratch implementations of the microdata disclosure control
//! algorithms the EDBT'09 comparison paper surveys (§6): Datafly,
//! Samarati's k-minimal search, an Incognito-style exhaustive lattice
//! sweep, Mondrian multidimensional partitioning, a μ-Argus-inspired
//! greedy recoder, and an Iyengar-style genetic search — plus the privacy
//! models (k-anonymity, ℓ-diversity, t-closeness, p-sensitive
//! k-anonymity) they enforce.
//!
//! All algorithms implement the common
//! [`Anonymizer`] trait and emit the
//! uniform [`AnonymizedTable`](anoncmp_microdata::anonymized::AnonymizedTable)
//! representation, so their outputs feed directly into `anoncmp-core`'s
//! property-vector comparators.
//!
//! ```
//! use anoncmp_anonymize::prelude::*;
//! use anoncmp_datagen::census::{generate, CensusConfig};
//!
//! let data = generate(&CensusConfig { rows: 150, seed: 7, zip_pool: 12 });
//! let constraint = Constraint::k_anonymity(4).with_suppression(10);
//! let release = Mondrian.anonymize(&data, &constraint).unwrap();
//! assert!(constraint.satisfied(&release));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algorithms;
pub mod constraint;
pub mod error;
pub mod models;
pub mod personalized;
pub mod perturb;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::algorithms::clustering::GreedyCluster;
    pub use crate::algorithms::datafly::Datafly;
    pub use crate::algorithms::genetic::{Crossover, Genetic, GeneticConfig};
    pub use crate::algorithms::greedy::GreedyRecoder;
    pub use crate::algorithms::incognito::{Incognito, IncognitoOutcome};
    pub use crate::algorithms::moga::{
        MeanClassSize, MinClassSize, MogaConfig, MultiObjectiveGenetic, NegLoss, NegPrivacyGini,
        Objective, ParetoSolution,
    };
    pub use crate::algorithms::mondrian::Mondrian;
    pub use crate::algorithms::optimal::OptimalLattice;
    pub use crate::algorithms::samarati::{Samarati, SamaratiOutcome};
    pub use crate::algorithms::subset_incognito::{SubsetIncognito, SubsetIncognitoOutcome};
    pub use crate::algorithms::tds::TopDown;
    pub use crate::algorithms::{Anonymizer, DatasetContext};
    pub use crate::constraint::Constraint;
    pub use crate::error::{AnonymizeError, Result};
    pub use crate::models::{
        DiversityKind, KAnonymity, LDiversity, PSensitive, PrivacyModel, TCloseness,
    };
    pub use crate::personalized::{personalized_slack_vector, PersonalizedKAnonymity};
    pub use crate::perturb::{mdav_groups, PerturbMethod, PerturbSpec};
}

pub use prelude::*;
