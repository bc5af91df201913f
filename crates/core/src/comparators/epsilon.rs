//! The ε-indicator comparator, adopted from Zitzler et al.'s performance
//! assessment of multiobjective optimizers — the work the paper names as
//! "the backbone for this study" (§6). A natural fifth ▶-better
//! comparator alongside §5.1–§5.4.
//!
//! The **additive ε-indicator** `I_ε+(D₁,D₂) = max_i (d_i² − d_i¹)` is the
//! smallest ε by which `D₁` must be uniformly raised to weakly dominate
//! `D₂`; `I_ε+(D₁,D₂) ≤ 0 ⟺ D₁ ⪰ D₂`. The **multiplicative** variant
//! `I_ε(D₁,D₂) = max_i (d_i² / d_i¹)` (positive vectors) scales instead;
//! `I_ε ≤ 1 ⟺ D₁ ⪰ D₂`. The comparator prefers the vector that needs the
//! smaller correction: `D₁ ▶eps D₂ ⟺ I(D₁,D₂) < I(D₂,D₁)`.
//!
//! Like ▶spr, the ε-indicator is magnitude-aware; unlike ▶spr it measures
//! the **worst single tuple** rather than the total, so it is the
//! comparator of choice when the concern is the most-disadvantaged
//! individual (a maximin reading of anonymization bias).

use crate::comparators::{prefer_lower, Comparator, Preference};
use crate::index::BinaryIndex;
use crate::vector::PropertyVector;

/// `I_ε+(D₁,D₂) = max_i (d_i² − d_i¹)`.
///
/// # Panics
/// Panics if dimensions differ or the vectors are empty.
pub fn additive_epsilon_index(d1: &PropertyVector, d2: &PropertyVector) -> f64 {
    assert_eq!(
        d1.len(),
        d2.len(),
        "epsilon indicator requires equal dimensions"
    );
    assert!(
        !d1.is_empty(),
        "epsilon indicator of empty vectors is undefined"
    );
    d1.iter()
        .zip(d2.iter())
        .map(|(a, b)| b - a)
        .fold(f64::NEG_INFINITY, f64::max)
}

/// `I_ε(D₁,D₂) = max_i (d_i² / d_i¹)` for strictly positive vectors.
///
/// # Panics
/// Panics if dimensions differ, the vectors are empty, or any component is
/// not strictly positive.
pub fn multiplicative_epsilon_index(d1: &PropertyVector, d2: &PropertyVector) -> f64 {
    assert_eq!(
        d1.len(),
        d2.len(),
        "epsilon indicator requires equal dimensions"
    );
    assert!(
        !d1.is_empty(),
        "epsilon indicator of empty vectors is undefined"
    );
    assert!(
        d1.iter().all(|x| x > 0.0) && d2.iter().all(|x| x > 0.0),
        "multiplicative epsilon requires strictly positive values"
    );
    d1.iter()
        .zip(d2.iter())
        .map(|(a, b)| b / a)
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Which ε-indicator variant a comparator uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EpsilonKind {
    /// Additive `I_ε+`.
    #[default]
    Additive,
    /// Multiplicative `I_ε` (positive vectors only).
    Multiplicative,
}

/// The ▶eps-better comparator.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpsilonComparator {
    /// Indicator variant.
    pub kind: EpsilonKind,
}

impl EpsilonComparator {
    /// The indicator value `I(D₁,D₂)` under the configured variant.
    pub fn index(&self, d1: &PropertyVector, d2: &PropertyVector) -> f64 {
        match self.kind {
            EpsilonKind::Additive => additive_epsilon_index(d1, d2),
            EpsilonKind::Multiplicative => multiplicative_epsilon_index(d1, d2),
        }
    }
}

impl Comparator for EpsilonComparator {
    fn name(&self) -> String {
        match self.kind {
            EpsilonKind::Additive => "eps+".into(),
            EpsilonKind::Multiplicative => "eps*".into(),
        }
    }

    fn compare(&self, d1: &PropertyVector, d2: &PropertyVector) -> Preference {
        prefer_lower(self.index(d1, d2), self.index(d2, d1), 0.0)
    }
}

impl BinaryIndex for EpsilonComparator {
    fn name(&self) -> String {
        match self.kind {
            EpsilonKind::Additive => "I_eps+".into(),
            EpsilonKind::Multiplicative => "I_eps*".into(),
        }
    }

    fn value(&self, d1: &PropertyVector, d2: &PropertyVector) -> f64 {
        // Negated so that "higher is better" holds, matching the other
        // binary indices consumed by the preference schemes.
        -self.index(d1, d2)
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
    fn additive_epsilon_characterizes_dominance() {
        let d1 = v(&[3.0, 5.0]);
        let d2 = v(&[3.0, 4.0]);
        assert!(additive_epsilon_index(&d1, &d2) <= 0.0);
        assert!(weakly_dominates(&d1, &d2));
        assert_eq!(additive_epsilon_index(&d2, &d1), 1.0, "needs +1 on tuple 2");
        assert!(!weakly_dominates(&d2, &d1));
    }

    #[test]
    fn multiplicative_epsilon_characterizes_dominance() {
        let d1 = v(&[2.0, 8.0]);
        let d2 = v(&[1.0, 4.0]);
        assert!(multiplicative_epsilon_index(&d1, &d2) <= 1.0);
        assert_eq!(multiplicative_epsilon_index(&d2, &d1), 2.0);
    }

    #[test]
    fn comparator_prefers_smaller_correction() {
        // On the paper's T3a/T3b class-size vectors, T3b needs no
        // correction to cover T3a (it dominates), T3a needs +4.
        let s = v(&[3.0, 3.0, 3.0, 3.0, 4.0, 4.0, 4.0, 3.0, 3.0, 4.0]);
        let t = v(&[3.0, 7.0, 7.0, 3.0, 7.0, 7.0, 7.0, 3.0, 7.0, 7.0]);
        let c = EpsilonComparator::default();
        assert!(c.index(&t, &s) <= 0.0);
        assert_eq!(c.index(&s, &t), 4.0);
        assert_eq!(c.compare(&t, &s), Preference::First);
        assert_eq!(c.compare(&s, &t), Preference::Second);
    }

    #[test]
    fn maximin_reading_differs_from_spread() {
        use crate::comparators::{spread_index, SpreadComparator};
        // D1 wins total spread, D2 wins the worst-tuple view: D1 is ahead
        // by 3 + 3 across two tuples, but leaves one tuple 5 behind.
        let d1 = v(&[8.0, 8.0, 1.0]);
        let d2 = v(&[5.0, 5.0, 6.0]);
        assert!(spread_index(&d1, &d2) > spread_index(&d2, &d1));
        assert_eq!(SpreadComparator.compare(&d1, &d2), Preference::First);
        let eps = EpsilonComparator::default();
        // I(D1,D2): worst shortfall of D1 vs D2 = 6 − 1 = 5.
        // I(D2,D1): worst shortfall of D2 vs D1 = 8 − 5 = 3 → D2 wins.
        assert_eq!(eps.compare(&d1, &d2), Preference::Second);
    }

    #[test]
    fn equal_vectors_tie() {
        let d = v(&[1.0, 2.0]);
        let c = EpsilonComparator::default();
        assert_eq!(c.compare(&d, &d), Preference::Tie);
        assert_eq!(additive_epsilon_index(&d, &d), 0.0);
        assert_eq!(multiplicative_epsilon_index(&d, &d), 1.0);
    }

    #[test]
    fn binary_index_is_negated() {
        let d1 = v(&[1.0]);
        let d2 = v(&[3.0]);
        let c = EpsilonComparator::default();
        assert_eq!(BinaryIndex::value(&c, &d1, &d2), -2.0);
        assert_eq!(BinaryIndex::name(&c), "I_eps+");
        assert_eq!(Comparator::name(&c), "eps+");
        let m = EpsilonComparator {
            kind: EpsilonKind::Multiplicative,
        };
        assert_eq!(Comparator::name(&m), "eps*");
        assert_eq!(BinaryIndex::name(&m), "I_eps*");
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn multiplicative_rejects_nonpositive() {
        let _ = multiplicative_epsilon_index(&v(&[0.0]), &v(&[1.0]));
    }

    #[test]
    #[should_panic(expected = "equal dimensions")]
    fn dimension_mismatch_panics() {
        let _ = additive_epsilon_index(&v(&[1.0]), &v(&[1.0, 2.0]));
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn empty_vectors_panic() {
        let _ = additive_epsilon_index(&v(&[]), &v(&[]));
    }
}
