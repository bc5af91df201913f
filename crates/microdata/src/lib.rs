//! # anoncmp-microdata
//!
//! The microdata substrate for the `anoncmp` workspace: schemas, raw and
//! generalized values, value generalization hierarchies (taxonomies and
//! interval ladders), immutable datasets, anonymized releases with induced
//! equivalence classes, the full-domain generalization lattice, per-tuple
//! information-loss metrics, and CSV import/export.
//!
//! This crate implements everything the comparison framework of
//! *"On the Comparison of Microdata Disclosure Control Algorithms"*
//! (Dewri, Ray, Ray & Whitley, EDBT 2009) assumes as given: a way to
//! produce anonymizations of a dataset and to measure per-tuple quantities
//! on them.
//!
//! ## Quick tour
//!
//! ```
//! use anoncmp_microdata::prelude::*;
//!
//! // A schema with a masked zip code, a bucketed age, and a sensitive
//! // attribute — the shape of the paper's Table 1.
//! let zip = Taxonomy::masking(&["13053", "13268"], &[1, 2, 3, 4]).unwrap();
//! let schema = Schema::new(vec![
//!     Attribute::from_taxonomy("Zip Code", Role::QuasiIdentifier, zip),
//!     Attribute::integer("Age", Role::QuasiIdentifier, 0, 120)
//!         .with_hierarchy(IntervalLadder::uniform(5, &[10, 20]).unwrap().into())
//!         .unwrap(),
//!     Attribute::categorical("Status", Role::Sensitive, ["a", "b"]),
//! ])
//! .unwrap();
//!
//! let mut b = DatasetBuilder::with_capacity(schema.clone(), 2);
//! b.push_labels(&["13053", "28", "a"]).unwrap();
//! b.push_labels(&["13268", "41", "b"]).unwrap();
//! let dataset = b.build().unwrap();
//!
//! // Full-domain recoding via the generalization lattice.
//! let lattice = Lattice::new(schema).unwrap();
//! let release = lattice.apply(&dataset, &[2, 1], "demo").unwrap();
//! assert_eq!(release.render_cell(0, 0), "130**");
//! assert_eq!(release.render_cell(0, 1), "(25,35]");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod anonymized;
pub mod codec;
pub mod csv;
pub mod dataset;
pub mod display;
pub mod error;
mod hash;
pub mod hierarchy;
pub mod intervals;
pub mod kernels;
pub mod lattice;
pub mod loss;
pub mod numeric;
pub mod parallel;
pub mod schema;
pub mod stats;
pub mod taxonomy;
pub mod value;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::anonymized::{AnonymizedTable, EquivalenceClasses};
    pub use crate::codec::{EncodedView, GenCodec, NodePartition};
    pub use crate::dataset::{Dataset, DatasetBuilder, DistinctValues};
    pub use crate::error::{Error, Result};
    pub use crate::hierarchy::Hierarchy;
    pub use crate::intervals::{IntervalLadder, IntervalLevel};
    pub use crate::lattice::{Lattice, LevelVector};
    pub use crate::loss::{
        discernibility_vector, discernibility_vector_encoded, precision_vector,
        precision_vector_encoded, CellLossCache, ColumnSet, CoverageBasis, LossKind, LossMetric,
    };
    pub use crate::numeric::{NumericBase, NumericRelease, Release};
    pub use crate::schema::{Attribute, Domain, Role, Schema};
    pub use crate::stats::{render_profile, subset_profile, uniqueness_profile, SubsetProfile};
    pub use crate::taxonomy::{Taxonomy, TaxonomyBuilder};
    pub use crate::value::{GenValue, NodeId, Value};
}

pub use prelude::*;
