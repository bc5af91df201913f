//! The ▶rank-better comparator (paper §5.1).
//!
//! Property vectors are ranked by their distance from a point of interest
//! `D_max` — "quite often the property vector that offers the maximum
//! measure of the property for every tuple". A lower rank (smaller
//! distance) is better, and vectors whose ranks differ by at most a
//! tolerance `ε` are "considered equally good". The rank of a vector can be
//! read as "an estimate of the bias present in an anonymization w.r.t. a
//! particular property".

use crate::comparators::{prefer_lower, Comparator, Preference};
use crate::vector::PropertyVector;

/// `P_rank(D) = ‖D − D_max‖` (Euclidean).
pub fn rank_index(d: &PropertyVector, d_max: &PropertyVector) -> f64 {
    d.euclidean_distance(d_max)
}

/// The ▶rank-better comparator: prefers the vector closer to `D_max`.
#[derive(Debug, Clone)]
pub struct RankComparator {
    d_max: PropertyVector,
    epsilon: f64,
}

impl RankComparator {
    /// Ranks against an explicit point of interest, with exact comparison
    /// (`ε = 0`).
    pub fn new(d_max: PropertyVector) -> Self {
        RankComparator {
            d_max,
            epsilon: 0.0,
        }
    }

    /// Sets the tolerance `ε` within which two ranks tie.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        assert!(epsilon >= 0.0, "tolerance must be nonnegative");
        self.epsilon = epsilon;
        self
    }

    /// Builds `D_max` as the uniform vector `(m, m, …, m)` of dimension
    /// `n` — e.g. every tuple in a class of size `N` for the
    /// equivalence-class-size property.
    pub fn toward_uniform(m: f64, n: usize) -> Self {
        RankComparator::new(PropertyVector::new("D_max", vec![m; n]))
    }

    /// Builds `D_max` as the component-wise maximum of the given vectors:
    /// the ideal point of the comparison set.
    ///
    /// # Panics
    /// Panics if `vectors` is empty or dimensions differ.
    pub fn toward_ideal_of(vectors: &[&PropertyVector]) -> Self {
        let first = vectors
            .first()
            .expect("ideal point needs at least one vector");
        let n = first.len();
        let mut ideal = vec![f64::NEG_INFINITY; n];
        for v in vectors {
            assert_eq!(v.len(), n, "vectors must share a dimension");
            for (slot, x) in ideal.iter_mut().zip(v.iter()) {
                *slot = slot.max(x);
            }
        }
        RankComparator::new(PropertyVector::new("D_max", ideal))
    }

    /// The point of interest.
    pub fn d_max(&self) -> &PropertyVector {
        &self.d_max
    }

    /// The rank (distance from `D_max`) of a vector.
    pub fn rank(&self, d: &PropertyVector) -> f64 {
        rank_index(d, &self.d_max)
    }
}

impl Comparator for RankComparator {
    fn name(&self) -> String {
        "rank".into()
    }

    fn compare(&self, d1: &PropertyVector, d2: &PropertyVector) -> Preference {
        prefer_lower(self.rank(d1), self.rank(d2), self.epsilon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(vals: &[f64]) -> PropertyVector {
        PropertyVector::new("p", vals.to_vec())
    }

    #[test]
    fn closer_vector_wins() {
        let c = RankComparator::toward_uniform(10.0, 2);
        let near = v(&[9.0, 9.0]);
        let far = v(&[5.0, 5.0]);
        assert_eq!(c.compare(&near, &far), Preference::First);
        assert_eq!(c.compare(&far, &near), Preference::Second);
        assert_eq!(c.compare(&near, &near), Preference::Tie);
    }

    #[test]
    fn equidistant_vectors_tie() {
        // Points on the same arc around D_max are incomparable and "are
        // assigned the same rank" (§5.1) — the comparator calls them a tie.
        let c = RankComparator::toward_uniform(0.0, 2);
        let a = v(&[3.0, 4.0]);
        let b = v(&[4.0, 3.0]);
        assert_eq!(c.compare(&a, &b), Preference::Tie);
        assert!((c.rank(&a) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn epsilon_tolerance_creates_ties() {
        let c = RankComparator::toward_uniform(0.0, 1).with_epsilon(0.5);
        let a = v(&[1.0]);
        let b = v(&[1.4]);
        assert_eq!(c.compare(&a, &b), Preference::Tie);
        let b = v(&[2.0]);
        assert_eq!(c.compare(&a, &b), Preference::First);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_epsilon_rejected() {
        let _ = RankComparator::toward_uniform(0.0, 1).with_epsilon(-1.0);
    }

    #[test]
    fn ideal_point_construction() {
        let a = v(&[3.0, 7.0]);
        let b = v(&[5.0, 2.0]);
        let c = RankComparator::toward_ideal_of(&[&a, &b]);
        assert_eq!(c.d_max().values(), &[5.0, 7.0]);
        // a is at distance 2, b at distance 5 → a preferred.
        assert_eq!(c.compare(&a, &b), Preference::First);
    }

    #[test]
    #[should_panic(expected = "at least one vector")]
    fn ideal_of_empty_panics() {
        let _ = RankComparator::toward_ideal_of(&[]);
    }

    #[test]
    fn rank_on_paper_vectors() {
        // Distances of the three anonymizations' class-size vectors from
        // the ideal (10,…,10): T3b is closest, then T4, then T3a.
        let t3a = v(&[3.0, 3.0, 3.0, 3.0, 4.0, 4.0, 4.0, 3.0, 3.0, 4.0]);
        let t3b = v(&[3.0, 7.0, 7.0, 3.0, 7.0, 7.0, 7.0, 3.0, 7.0, 7.0]);
        let t4 = v(&[4.0, 6.0, 4.0, 4.0, 6.0, 6.0, 6.0, 4.0, 6.0, 6.0]);
        let c = RankComparator::toward_uniform(10.0, 10);
        assert!(c.rank(&t3b) < c.rank(&t4));
        assert!(c.rank(&t4) < c.rank(&t3a));
        assert_eq!(c.compare(&t3b, &t4), Preference::First);
        assert_eq!(c.compare(&t3a, &t4), Preference::Second);
    }
}
