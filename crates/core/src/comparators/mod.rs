//! ▶-better comparators (paper §5).
//!
//! Dominance-based comparison needs at least `N` unary quality indices
//! (Theorem 1) and frequently ends in non-dominance. The paper therefore
//! introduces *metric-better* (`▶-better`) comparators: weaker orderings
//! that still "pay adequate attention to the property values across all
//! tuples". This module provides the four single-property comparators of
//! §5.1–§5.4 — rank, coverage, spread, and hypervolume — behind a common
//! [`Comparator`] trait, plus a [`DominanceComparator`] adapter so strict
//! and ▶-better comparisons share one API (DESIGN.md decision 4).

mod coverage;
mod epsilon;
mod hypervolume;
mod rank;
mod spread;

pub use coverage::{coverage_index, CoverageComparator};
pub use epsilon::{
    additive_epsilon_index, multiplicative_epsilon_index, EpsilonComparator, EpsilonKind,
};
pub use hypervolume::{hypervolume_index, log_volume_proxy, HvMode, HypervolumeComparator};
pub use rank::{rank_index, RankComparator};
pub use spread::{spread_index, NormalizedSpread, SpreadComparator};

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::dominance::{self, DominanceRelation};
use crate::vector::PropertyVector;

/// Outcome of comparing two property vectors (or sets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Preference {
    /// The first argument is ▶-better.
    First,
    /// The second argument is ▶-better.
    Second,
    /// Equally good under this comparator.
    Tie,
    /// The comparator cannot order them (only dominance-based comparators
    /// produce this).
    Incomparable,
}

impl Preference {
    /// The preference with swapped arguments.
    pub fn flipped(self) -> Preference {
        match self {
            Preference::First => Preference::Second,
            Preference::Second => Preference::First,
            other => other,
        }
    }
}

impl fmt::Display for Preference {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Preference::First => "first is better",
            Preference::Second => "second is better",
            Preference::Tie => "equally good",
            Preference::Incomparable => "incomparable",
        };
        f.write_str(s)
    }
}

/// An ordering operation on property vectors: the paper's comparator `▷`.
pub trait Comparator {
    /// Display name, e.g. `"cov"`.
    fn name(&self) -> String;

    /// Compares two property vectors measuring the same property on the
    /// same dataset.
    fn compare(&self, d1: &PropertyVector, d2: &PropertyVector) -> Preference;
}

/// Adapter exposing strict dominance (§4) through the [`Comparator`] API:
/// strong dominance maps to a strict preference, equality to a tie, and
/// non-dominance to [`Preference::Incomparable`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DominanceComparator;

impl Comparator for DominanceComparator {
    fn name(&self) -> String {
        "dominance".into()
    }

    fn compare(&self, d1: &PropertyVector, d2: &PropertyVector) -> Preference {
        match dominance::relation(d1, d2) {
            DominanceRelation::Equal => Preference::Tie,
            DominanceRelation::FirstDominates => Preference::First,
            DominanceRelation::SecondDominates => Preference::Second,
            DominanceRelation::Incomparable => Preference::Incomparable,
        }
    }
}

/// Orders a pair of index values where **higher is better**, with an
/// absolute tolerance: values within `epsilon` tie.
pub(crate) fn prefer_higher(a: f64, b: f64, epsilon: f64) -> Preference {
    if (a - b).abs() <= epsilon {
        Preference::Tie
    } else if a > b {
        Preference::First
    } else {
        Preference::Second
    }
}

/// Orders a pair of index values where **lower is better**, with an
/// absolute tolerance.
pub(crate) fn prefer_lower(a: f64, b: f64, epsilon: f64) -> Preference {
    prefer_higher(b, a, epsilon)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preference_flip_and_display() {
        assert_eq!(Preference::First.flipped(), Preference::Second);
        assert_eq!(Preference::Second.flipped(), Preference::First);
        assert_eq!(Preference::Tie.flipped(), Preference::Tie);
        assert_eq!(Preference::Incomparable.flipped(), Preference::Incomparable);
        assert_eq!(Preference::Tie.to_string(), "equally good");
    }

    #[test]
    fn dominance_comparator_maps_relations() {
        let c = DominanceComparator;
        let a = PropertyVector::new("a", vec![2.0, 2.0]);
        let b = PropertyVector::new("b", vec![1.0, 2.0]);
        let x = PropertyVector::new("x", vec![2.0, 1.0]);
        assert_eq!(c.compare(&a, &b), Preference::First);
        assert_eq!(c.compare(&b, &a), Preference::Second);
        assert_eq!(c.compare(&a, &a), Preference::Tie);
        assert_eq!(c.compare(&b, &x), Preference::Incomparable);
        assert_eq!(c.name(), "dominance");
    }

    #[test]
    fn prefer_helpers_respect_epsilon() {
        assert_eq!(prefer_higher(1.0, 0.9, 0.2), Preference::Tie);
        assert_eq!(prefer_higher(1.0, 0.5, 0.2), Preference::First);
        assert_eq!(prefer_lower(1.0, 0.5, 0.2), Preference::Second);
        assert_eq!(prefer_lower(0.5, 1.0, 0.0), Preference::First);
    }
}
