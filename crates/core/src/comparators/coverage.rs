//! The ▶cov-better comparator (paper §5.2).
//!
//! "The coverage comparator compares two property vectors based on the
//! fraction of tuples in one that has a better measurement of the property
//! than in the other." Its induced binary quality index is
//! `P_cov(D₁,D₂) = |{ i : d_i¹ ≥ d_i² }| / N`, and
//! `D₁ ▶cov D₂ ⟺ P_cov(D₁,D₂) > P_cov(D₂,D₁)`.

use crate::comparators::{prefer_higher, Comparator, Preference};
use crate::index::BinaryIndex;
use crate::vector::PropertyVector;

/// `P_cov(D₁,D₂) = |{ i : d_i¹ ≥ d_i² }| / N`.
///
/// ```
/// use anoncmp_core::prelude::*;
/// // The paper's §5.5 values: T3a covers 30% of T3b, T3b covers 100%.
/// let pa = PropertyVector::from_usizes("s", &[3, 3, 3, 3, 4, 4, 4, 3, 3, 4]);
/// let pb = PropertyVector::from_usizes("t", &[3, 7, 7, 3, 7, 7, 7, 3, 7, 7]);
/// assert_eq!(coverage_index(&pa, &pb), 0.3);
/// assert_eq!(coverage_index(&pb, &pa), 1.0);
/// ```
///
/// # Panics
/// Panics if dimensions differ or the vectors are empty.
pub fn coverage_index(d1: &PropertyVector, d2: &PropertyVector) -> f64 {
    assert_eq!(d1.len(), d2.len(), "coverage requires equal dimensions");
    assert!(!d1.is_empty(), "coverage of empty vectors is undefined");
    let wins = d1.iter().zip(d2.iter()).filter(|(a, b)| a >= b).count();
    wins as f64 / d1.len() as f64
}

/// The ▶cov-better comparator.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoverageComparator;

impl Comparator for CoverageComparator {
    fn name(&self) -> String {
        "cov".into()
    }

    fn compare(&self, d1: &PropertyVector, d2: &PropertyVector) -> Preference {
        prefer_higher(coverage_index(d1, d2), coverage_index(d2, d1), 0.0)
    }
}

impl BinaryIndex for CoverageComparator {
    fn name(&self) -> String {
        "P_cov".into()
    }

    fn value(&self, d1: &PropertyVector, d2: &PropertyVector) -> f64 {
        coverage_index(d1, d2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(vals: &[f64]) -> PropertyVector {
        PropertyVector::new("p", vals.to_vec())
    }

    #[test]
    fn section_5_3_example_ties_under_coverage() {
        // D1 = (2,2,3,4,5), D2 = (3,2,4,2,3): both cover 3/5.
        let d1 = v(&[2.0, 2.0, 3.0, 4.0, 5.0]);
        let d2 = v(&[3.0, 2.0, 4.0, 2.0, 3.0]);
        assert!((coverage_index(&d1, &d2) - 0.6).abs() < 1e-12);
        assert!((coverage_index(&d2, &d1) - 0.6).abs() < 1e-12);
        assert_eq!(CoverageComparator.compare(&d1, &d2), Preference::Tie);
    }

    #[test]
    fn paper_t3a_t3b_coverage() {
        // §5.5: P_cov(p_a, p_b) = 0.3 < 1 = P_cov(p_b, p_a).
        let pa = v(&[3.0, 3.0, 3.0, 3.0, 4.0, 4.0, 4.0, 3.0, 3.0, 4.0]);
        let pb = v(&[3.0, 7.0, 7.0, 3.0, 7.0, 7.0, 7.0, 3.0, 7.0, 7.0]);
        assert!((coverage_index(&pa, &pb) - 0.3).abs() < 1e-12);
        assert!((coverage_index(&pb, &pa) - 1.0).abs() < 1e-12);
        assert_eq!(CoverageComparator.compare(&pb, &pa), Preference::First);
        assert_eq!(CoverageComparator.compare(&pa, &pb), Preference::Second);
    }

    #[test]
    fn strict_dominance_yields_full_and_zero_coverage() {
        // §5.2: if P_cov(D1,D2) = 1 and P_cov(D2,D1) = 0 then D1 ≻ D2.
        let d1 = v(&[5.0, 6.0]);
        let d2 = v(&[4.0, 5.0]);
        assert_eq!(coverage_index(&d1, &d2), 1.0);
        assert_eq!(coverage_index(&d2, &d1), 0.0);
        assert!(crate::dominance::strongly_dominates(&d1, &d2));
    }

    #[test]
    fn equal_vectors_cover_fully_both_ways() {
        let d = v(&[1.0, 2.0]);
        assert_eq!(coverage_index(&d, &d), 1.0);
        assert_eq!(CoverageComparator.compare(&d, &d), Preference::Tie);
    }

    #[test]
    fn binary_index_view_matches_function() {
        let d1 = v(&[1.0, 3.0]);
        let d2 = v(&[2.0, 2.0]);
        let idx: &dyn BinaryIndex = &CoverageComparator;
        assert_eq!(idx.value(&d1, &d2), coverage_index(&d1, &d2));
        assert_eq!(BinaryIndex::name(&CoverageComparator), "P_cov");
        assert_eq!(Comparator::name(&CoverageComparator), "cov");
    }

    #[test]
    #[should_panic(expected = "equal dimensions")]
    fn dimension_mismatch_panics() {
        let _ = coverage_index(&v(&[1.0]), &v(&[1.0, 2.0]));
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn empty_vectors_panic() {
        let _ = coverage_index(&v(&[]), &v(&[]));
    }
}
