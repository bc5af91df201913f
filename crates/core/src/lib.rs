//! # anoncmp-core
//!
//! The comparison framework of *"On the Comparison of Microdata Disclosure
//! Control Algorithms"* (Dewri, Ray, Ray & Whitley, EDBT 2009): property
//! vectors, quality index functions, dominance-based strict comparators,
//! the ▶-better comparators (rank, coverage, spread, hypervolume),
//! multi-property preference schemes (weighted, lexicographic, goal-based),
//! anonymization-bias statistics, and the computational apparatus for
//! Theorem 1.
//!
//! ## The idea
//!
//! Scalar privacy parameters such as `k` in k-anonymity describe an entire
//! release with one aggregate number, hiding *anonymization bias*: two
//! releases with the same `k` can protect individual tuples very
//! differently. The paper represents each measurable property of a release
//! as an `N`-dimensional **property vector** — one component per tuple —
//! and compares anonymizations through functions on those vectors.
//!
//! ## Quick tour
//!
//! ```
//! use anoncmp_core::prelude::*;
//!
//! // The paper's equivalence-class-size vectors for T3a and T3b — both
//! // 3-anonymous, yet far from equally protective.
//! let t3a = PropertyVector::from_usizes("eq-class-size", &[3, 3, 3, 3, 4, 4, 4, 3, 3, 4]);
//! let t3b = PropertyVector::from_usizes("eq-class-size", &[3, 7, 7, 3, 7, 7, 7, 3, 7, 7]);
//!
//! // The scalar view cannot separate them…
//! assert_eq!(classic::MinIndex.value(&t3a), classic::MinIndex.value(&t3b));
//!
//! // …but the vector view can: T3b strongly dominates T3a,
//! assert!(strongly_dominates(&t3b, &t3a));
//!
//! // and the coverage comparator quantifies by how much: every tuple of
//! // T3b does at least as well, only 30% of T3a's do.
//! assert_eq!(coverage_index(&t3b, &t3a), 1.0);
//! assert_eq!(coverage_index(&t3a, &t3b), 0.3);
//! assert_eq!(CoverageComparator.compare(&t3b, &t3a), Preference::First);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bias;
pub mod comparators;
pub mod dominance;
pub mod index;
pub mod numeric_props;
pub mod pareto;
pub mod preference;
pub mod properties;
pub mod query;
pub mod risk;
pub mod summary;
pub mod theory;
pub mod vector;
pub mod wire;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::bias::{gini, lorenz_curve, BiasReport};
    pub use crate::comparators::{
        additive_epsilon_index, coverage_index, hypervolume_index, log_volume_proxy,
        multiplicative_epsilon_index, rank_index, spread_index, Comparator, CoverageComparator,
        DominanceComparator, EpsilonComparator, EpsilonKind, HvMode, HypervolumeComparator,
        NormalizedSpread, Preference, RankComparator, SpreadComparator,
    };
    pub use crate::dominance::{
        non_dominated, relation, set_relation, set_strongly_dominates, set_weakly_dominates,
        strongly_dominates, weakly_dominates, DominanceRelation,
    };
    pub use crate::index::{classic, normalize_pair, BinaryIndex, UnaryIndex};
    pub use crate::numeric_props::{
        BoundedDistanceLoss, NeighborhoodRisk, RiskMetric, DEFAULT_RISK_NEIGHBORHOOD,
    };
    pub use crate::pareto::{
        crowding_distance, non_dominated_sort, nsga2_order, pareto_front, point_strongly_dominates,
        point_weakly_dominates,
    };
    pub use crate::preference::{
        GoalBasis, GoalComparator, LexicographicComparator, SetComparator, WeightedComparator,
    };
    pub use crate::properties::{
        induce_property_set, BreachProbability, Discernibility, DistinctSensitiveCount,
        EqClassSize, GeneralizationLoss, IyengarUtility, Precision, Property, SensitiveValueCount,
        TClosenessDistance,
    };
    pub use crate::query::{QueryUtility, RangeQuery, Workload};
    pub use crate::risk::{per_tuple_risk, RiskReport};
    pub use crate::summary::{kendall_tau, ComparisonMatrix};
    pub use crate::theory::{
        check_pair, corollary1_cones, falsify, projection_family, proof_seed_pairs, Counterexample,
        SplitMix64, ViolationKind,
    };
    pub use crate::vector::{PropertySet, PropertyVector};
}

pub use prelude::*;
