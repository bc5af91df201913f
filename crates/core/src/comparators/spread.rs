//! The ▶spr-better comparator (paper §5.3).
//!
//! Coverage ignores the *magnitude* of per-tuple differences. The spread
//! comparator's index
//! `P_spr(D₁,D₂) = Σ_i max(d_i¹ − d_i², 0)`
//! "measures the total difference in magnitude of the measured property for
//! the tuples on which D₁ performs better than D₂", with
//! `D₁ ▶spr D₂ ⟺ P_spr(D₁,D₂) > P_spr(D₂,D₁)` and the useful identity
//! `P_spr(D₁,D₂) = 0 ⟺ D₂ ⪰ D₁`.

use crate::comparators::{prefer_higher, Comparator, Preference};
use crate::index::BinaryIndex;
use crate::vector::PropertyVector;

/// `P_spr(D₁,D₂) = Σ_i max(d_i¹ − d_i², 0)`.
///
/// ```
/// use anoncmp_core::prelude::*;
/// // §5.3: D1 = (2,2,3,4,5), D2 = (3,2,4,2,3) — coverage ties at 3/5
/// // but the spread separates them 4 vs 2.
/// let d1 = PropertyVector::new("D1", vec![2.0, 2.0, 3.0, 4.0, 5.0]);
/// let d2 = PropertyVector::new("D2", vec![3.0, 2.0, 4.0, 2.0, 3.0]);
/// assert_eq!(spread_index(&d1, &d2), 4.0);
/// assert_eq!(spread_index(&d2, &d1), 2.0);
/// ```
///
/// # Panics
/// Panics if dimensions differ.
pub fn spread_index(d1: &PropertyVector, d2: &PropertyVector) -> f64 {
    assert_eq!(d1.len(), d2.len(), "spread requires equal dimensions");
    d1.iter()
        .zip(d2.iter())
        .map(|(a, b)| (a - b).max(0.0))
        .sum()
}

/// The ▶spr-better comparator.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpreadComparator;

impl Comparator for SpreadComparator {
    fn name(&self) -> String {
        "spr".into()
    }

    fn compare(&self, d1: &PropertyVector, d2: &PropertyVector) -> Preference {
        prefer_higher(spread_index(d1, d2), spread_index(d2, d1), 0.0)
    }
}

impl BinaryIndex for SpreadComparator {
    fn name(&self) -> String {
        "P_spr".into()
    }

    fn value(&self, d1: &PropertyVector, d2: &PropertyVector) -> f64 {
        spread_index(d1, d2)
    }
}

/// A normalized spread index: `P_spr(D₁,D₂) / (P_spr(D₁,D₂) + P_spr(D₂,D₁))`
/// in `[0, 1]`, suitable for the weighted multi-property comparator whose
/// §5.5 description advises normalizing index values before weighting.
/// A fully tied pair (both spreads zero) scores `0.5`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalizedSpread;

impl BinaryIndex for NormalizedSpread {
    fn name(&self) -> String {
        "P_spr-norm".into()
    }

    fn value(&self, d1: &PropertyVector, d2: &PropertyVector) -> f64 {
        let fwd = spread_index(d1, d2);
        let bwd = spread_index(d2, d1);
        crate::index::normalize_pair(fwd, bwd).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::weakly_dominates;

    fn v(vals: &[f64]) -> PropertyVector {
        PropertyVector::new("p", vals.to_vec())
    }

    #[test]
    fn section_5_3_first_example() {
        // D1 = (2,2,3,4,5), D2 = (3,2,4,2,3): spreads 4 vs 2, D1 wins even
        // though coverage ties.
        let d1 = v(&[2.0, 2.0, 3.0, 4.0, 5.0]);
        let d2 = v(&[3.0, 2.0, 4.0, 2.0, 3.0]);
        assert_eq!(spread_index(&d1, &d2), 4.0);
        assert_eq!(spread_index(&d2, &d1), 2.0);
        assert_eq!(SpreadComparator.compare(&d1, &d2), Preference::First);
    }

    #[test]
    fn section_5_3_second_example_prefers_2_anonymous() {
        // The 3-anonymous vector vs the 2-anonymous vector: P_spr values
        // "compare at 2 and 8", favoring the 2-anonymous generalization —
        // counter to the minimum-class-size preference.
        let three = v(&[
            3.0, 3.0, 3.0, 5.0, 5.0, 5.0, 5.0, 5.0, 3.0, 3.0, 3.0, 4.0, 4.0, 4.0, 4.0,
        ]);
        let two = v(&[
            2.0, 2.0, 6.0, 6.0, 6.0, 6.0, 6.0, 6.0, 3.0, 3.0, 3.0, 4.0, 4.0, 4.0, 4.0,
        ]);
        assert_eq!(spread_index(&three, &two), 2.0);
        assert_eq!(spread_index(&two, &three), 8.0);
        assert_eq!(SpreadComparator.compare(&two, &three), Preference::First);
        // The scalar k prefers the other one: min 3 vs min 2.
        assert!(three.min().unwrap() > two.min().unwrap());
    }

    #[test]
    fn zero_spread_iff_weak_dominance() {
        let d1 = v(&[1.0, 2.0, 3.0]);
        let d2 = v(&[1.0, 3.0, 3.0]);
        // d2 ⪰ d1, so P_spr(d1, d2) = 0.
        assert!(weakly_dominates(&d2, &d1));
        assert_eq!(spread_index(&d1, &d2), 0.0);
        assert!(spread_index(&d2, &d1) > 0.0);
        // And equal vectors: zero both ways.
        assert_eq!(spread_index(&d1, &d1), 0.0);
        assert_eq!(SpreadComparator.compare(&d1, &d1), Preference::Tie);
    }

    #[test]
    fn normalized_spread_sums_to_one() {
        let d1 = v(&[2.0, 2.0, 3.0, 4.0, 5.0]);
        let d2 = v(&[3.0, 2.0, 4.0, 2.0, 3.0]);
        let a = NormalizedSpread.value(&d1, &d2);
        let b = NormalizedSpread.value(&d2, &d1);
        assert!((a + b - 1.0).abs() < 1e-12);
        assert!((a - 4.0 / 6.0).abs() < 1e-12);
        // Tied pair → 0.5.
        assert_eq!(NormalizedSpread.value(&d1, &d1), 0.5);
    }

    #[test]
    fn binary_index_names() {
        assert_eq!(BinaryIndex::name(&SpreadComparator), "P_spr");
        assert_eq!(BinaryIndex::name(&NormalizedSpread), "P_spr-norm");
        assert_eq!(Comparator::name(&SpreadComparator), "spr");
    }

    #[test]
    #[should_panic(expected = "equal dimensions")]
    fn dimension_mismatch_panics() {
        let _ = spread_index(&v(&[1.0]), &v(&[1.0, 2.0]));
    }
}
