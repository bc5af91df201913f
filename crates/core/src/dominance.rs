//! Strict comparators based on dominance relationships (paper §4, Table 4).
//!
//! Weak dominance (`⪰`) establishes "not worse than"; strong dominance
//! (`≻`) establishes "better than"; non-dominance (`∥`) marks incomparable
//! vectors. Theorem 1 shows these relations cannot be decided by fewer than
//! `N` unary quality indices — the motivation for the ▶-better comparators
//! in [`crate::comparators`].

use serde::{Deserialize, Serialize};

use crate::vector::{PropertySet, PropertyVector};

/// The dominance relation between two property vectors or sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DominanceRelation {
    /// Component-wise equal.
    Equal,
    /// The first strongly dominates (`≥` everywhere, `>` somewhere).
    FirstDominates,
    /// The second strongly dominates.
    SecondDominates,
    /// Incomparable: each is strictly better somewhere (`∥` in Table 4).
    Incomparable,
}

/// Whether `d1 ⪰ d2`: every component of `d1` at least matches `d2`
/// ("`G₁` is not worse than `G₂`", Table 4 row 1).
///
/// ```
/// use anoncmp_core::prelude::*;
/// let better = PropertyVector::new("b", vec![3.0, 7.0]);
/// let worse = PropertyVector::new("w", vec![3.0, 4.0]);
/// assert!(weakly_dominates(&better, &worse));
/// assert!(strongly_dominates(&better, &worse));
/// assert!(!non_dominated(&better, &worse));
/// ```
///
/// # Panics
/// Panics if dimensions differ.
pub fn weakly_dominates(d1: &PropertyVector, d2: &PropertyVector) -> bool {
    assert_eq!(d1.len(), d2.len(), "dominance requires equal dimensions");
    // Branch-free: count the satisfied components instead of short-
    // circuiting, so the inner loop is a pure compare-and-accumulate pass
    // the autovectorizer can keep in vector registers. `count(a ≥ b) == N`
    // is exactly `all(a ≥ b)` — including for NaN, where the comparison is
    // false either way. (Never rewrite this as `!any(a < b)`: that flips
    // the NaN verdict.)
    count_ge(d1.values(), d2.values()) == d1.len()
}

/// Number of components where `a[i] >= b[i]` — an 8-lane branch-free
/// reduction over the contiguous value slices.
#[inline]
fn count_ge(a: &[f64], b: &[f64]) -> usize {
    const LANES: usize = 8;
    let mut lanes = [0usize; LANES];
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (ab, bb) in (&mut ac).zip(&mut bc) {
        for ((n, &x), &y) in lanes.iter_mut().zip(ab).zip(bb) {
            *n += usize::from(x >= y);
        }
    }
    let mut count: usize = lanes.iter().sum();
    for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
        count += usize::from(x >= y);
    }
    count
}

/// Whether `d1 ≻ d2`: `d1 ⪰ d2` and strictly better in at least one
/// component ("`G₁` is better than `G₂`", Table 4 row 2).
pub fn strongly_dominates(d1: &PropertyVector, d2: &PropertyVector) -> bool {
    weakly_dominates(d1, d2) && d1.iter().zip(d2.iter()).any(|(a, b)| a > b)
}

/// Whether `d1 ∥ d2`: each vector is strictly better on some component
/// ("incomparable", Table 4 row 3).
pub fn non_dominated(d1: &PropertyVector, d2: &PropertyVector) -> bool {
    assert_eq!(d1.len(), d2.len(), "dominance requires equal dimensions");
    d1.iter().zip(d2.iter()).any(|(a, b)| a > b) && d1.iter().zip(d2.iter()).any(|(a, b)| a < b)
}

/// Classifies the dominance relation between two vectors.
pub fn relation(d1: &PropertyVector, d2: &PropertyVector) -> DominanceRelation {
    let fwd = weakly_dominates(d1, d2);
    let bwd = weakly_dominates(d2, d1);
    match (fwd, bwd) {
        (true, true) => DominanceRelation::Equal,
        (true, false) => DominanceRelation::FirstDominates,
        (false, true) => DominanceRelation::SecondDominates,
        (false, false) => DominanceRelation::Incomparable,
    }
}

/// Set-level weak dominance (Table 4, middle column): every property vector
/// of `s1` weakly dominates the corresponding vector of `s2`.
///
/// # Panics
/// Panics if the sets are not aligned (same properties, same order, same
/// dimension).
pub fn set_weakly_dominates(s1: &PropertySet, s2: &PropertySet) -> bool {
    assert!(
        s1.aligned_with(s2),
        "property sets must be aligned for comparison"
    );
    s1.vectors()
        .iter()
        .zip(s2.vectors())
        .all(|(a, b)| weakly_dominates(a, b))
}

/// Set-level strong dominance: weak dominance on every property and strong
/// dominance on at least one.
pub fn set_strongly_dominates(s1: &PropertySet, s2: &PropertySet) -> bool {
    set_weakly_dominates(s1, s2)
        && s1
            .vectors()
            .iter()
            .zip(s2.vectors())
            .any(|(a, b)| strongly_dominates(a, b))
}

/// Classifies the dominance relation between two aligned property sets.
pub fn set_relation(s1: &PropertySet, s2: &PropertySet) -> DominanceRelation {
    let fwd = set_weakly_dominates(s1, s2);
    let bwd = set_weakly_dominates(s2, s1);
    match (fwd, bwd) {
        (true, true) => DominanceRelation::Equal,
        (true, false) => DominanceRelation::FirstDominates,
        (false, true) => DominanceRelation::SecondDominates,
        (false, false) => DominanceRelation::Incomparable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(vals: &[f64]) -> PropertyVector {
        PropertyVector::new("p", vals.to_vec())
    }

    #[test]
    fn weak_strong_and_non_dominance() {
        let a = v(&[3.0, 3.0, 4.0]);
        let b = v(&[3.0, 3.0, 3.0]);
        assert!(weakly_dominates(&a, &b));
        assert!(strongly_dominates(&a, &b));
        assert!(!weakly_dominates(&b, &a));
        assert!(!non_dominated(&a, &b));

        // Reflexivity: weak but not strong.
        assert!(weakly_dominates(&a, &a));
        assert!(!strongly_dominates(&a, &a));

        // The canonical incomparable pair from Theorem 1's base case.
        let p = v(&[1.0, 2.0]);
        let q = v(&[2.0, 1.0]);
        assert!(non_dominated(&p, &q));
        assert!(!weakly_dominates(&p, &q));
        assert!(!weakly_dominates(&q, &p));
    }

    #[test]
    fn relation_classification() {
        assert_eq!(relation(&v(&[1.0]), &v(&[1.0])), DominanceRelation::Equal);
        assert_eq!(
            relation(&v(&[2.0]), &v(&[1.0])),
            DominanceRelation::FirstDominates
        );
        assert_eq!(
            relation(&v(&[1.0]), &v(&[2.0])),
            DominanceRelation::SecondDominates
        );
        assert_eq!(
            relation(&v(&[1.0, 2.0]), &v(&[2.0, 1.0])),
            DominanceRelation::Incomparable
        );
    }

    #[test]
    fn paper_t3a_t3b_eqclass_relation() {
        // T3b's class-size vector weakly (indeed strongly) dominates T3a's.
        let s = v(&[3.0, 3.0, 3.0, 3.0, 4.0, 4.0, 4.0, 3.0, 3.0, 4.0]);
        let t = v(&[3.0, 7.0, 7.0, 3.0, 7.0, 7.0, 7.0, 3.0, 7.0, 7.0]);
        // Careful: tuples 5, 6, 7, 10 have size 4 in T3a vs 7 in T3b, and
        // nowhere is T3a larger — so T3b strongly dominates.
        assert!(strongly_dominates(&t, &s));
        assert_eq!(relation(&s, &t), DominanceRelation::SecondDominates);
        // T4 vs T3b: tuple 2 has size 6 in T4 vs 7 in T3b, tuple 1 has 4 vs
        // 3 — incomparable (§2's user-8 vs user-3 discussion).
        let t4 = v(&[4.0, 6.0, 4.0, 4.0, 6.0, 6.0, 6.0, 4.0, 6.0, 6.0]);
        assert_eq!(relation(&t4, &t), DominanceRelation::Incomparable);
    }

    #[test]
    fn transitivity_spot_checks() {
        let a = v(&[1.0, 1.0]);
        let b = v(&[2.0, 1.0]);
        let c = v(&[2.0, 2.0]);
        assert!(weakly_dominates(&c, &b) && weakly_dominates(&b, &a));
        assert!(weakly_dominates(&c, &a));
        assert!(strongly_dominates(&c, &a));
    }

    #[test]
    #[should_panic(expected = "equal dimensions")]
    fn dimension_mismatch_panics() {
        let _ = weakly_dominates(&v(&[1.0]), &v(&[1.0, 2.0]));
    }

    #[test]
    fn nan_components_break_dominance_both_ways() {
        // NaN compares false under both ≥ directions, so a NaN component
        // must make the pair incomparable.
        let a = v(&[1.0, f64::NAN, 3.0]);
        let b = v(&[1.0, 2.0, 3.0]);
        assert!(!weakly_dominates(&a, &b));
        assert!(!weakly_dominates(&b, &a));
        assert_eq!(relation(&a, &b), DominanceRelation::Incomparable);
    }

    #[test]
    fn set_level_dominance() {
        use crate::vector::PropertySet;
        let mk = |n: &str, p: &[f64], u: &[f64]| {
            PropertySet::new(
                n,
                vec![
                    PropertyVector::new("priv", p.to_vec()),
                    PropertyVector::new("util", u.to_vec()),
                ],
            )
        };
        let s1 = mk("a", &[3.0, 3.0], &[2.0, 2.0]);
        let s2 = mk("b", &[3.0, 3.0], &[1.0, 2.0]);
        assert!(set_weakly_dominates(&s1, &s2));
        assert!(set_strongly_dominates(&s1, &s2));
        assert_eq!(set_relation(&s1, &s2), DominanceRelation::FirstDominates);
        assert_eq!(set_relation(&s1, &s1), DominanceRelation::Equal);

        // Privacy better in one, utility better in the other → incomparable.
        let s3 = mk("c", &[4.0, 4.0], &[1.0, 1.0]);
        assert_eq!(set_relation(&s1, &s3), DominanceRelation::Incomparable);
        assert!(!set_strongly_dominates(&s1, &s3));
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn misaligned_sets_panic() {
        use crate::vector::PropertySet;
        let s1 = PropertySet::new("a", vec![PropertyVector::new("x", vec![1.0])]);
        let s2 = PropertySet::new("b", vec![PropertyVector::new("y", vec![1.0])]);
        let _ = set_weakly_dominates(&s1, &s2);
    }
}
