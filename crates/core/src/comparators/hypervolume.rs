//! The ▶hv-better comparator (paper §5.4).
//!
//! A "tournament-style" comparison: a property vector is preferred when the
//! hypervolume of property vectors it alone weakly dominates is larger —
//! i.e. when more *possible other anonymizations* would be worse than it.
//! The induced index is
//! `P_hv(D₁,D₂) = Π_i d_i¹ − Π_i min(d_i¹, d_i²)`,
//! with `D₁ ▶hv D₂ ⟺ P_hv(D₁,D₂) > P_hv(D₂,D₁)` and
//! `P_hv(D₁,D₂) = 0 ⟹ D₂ ⪰ D₁`.
//!
//! Because the common min-product term cancels from the comparison,
//! `P_hv(D₁,D₂) > P_hv(D₂,D₁) ⟺ Π d_i¹ > Π d_i²`, so for large `N` —
//! where the products overflow `f64` — the comparator works in log space
//! (`Σ ln d_i`), which preserves the ordering exactly for positive vectors
//! (DESIGN.md decision 3; the `hv_log_vs_exact` bench demonstrates the
//! agreement).

use crate::comparators::{prefer_higher, Comparator, Preference};
use crate::index::BinaryIndex;
use crate::vector::PropertyVector;

/// `P_hv(D₁,D₂) = Π d_i¹ − Π min(d_i¹, d_i²)`, computed exactly.
///
/// ```
/// use anoncmp_core::prelude::*;
/// // §5.4's worked example: 56727 vs 37888.
/// let s = PropertyVector::new("s", vec![3.0, 3.0, 3.0, 5.0, 5.0, 5.0, 5.0, 5.0]);
/// let t = PropertyVector::new("t", vec![4.0; 8]);
/// assert_eq!(hypervolume_index(&s, &t), 56_727.0);
/// assert_eq!(hypervolume_index(&t, &s), 37_888.0);
/// ```
///
/// Requires strictly positive components (the hypervolume of the dominated
/// region is only meaningful above the origin).
///
/// # Panics
/// Panics if dimensions differ or any component is not strictly positive.
pub fn hypervolume_index(d1: &PropertyVector, d2: &PropertyVector) -> f64 {
    assert_eq!(d1.len(), d2.len(), "hypervolume requires equal dimensions");
    assert_positive(d1);
    assert_positive(d2);
    let own: f64 = d1.iter().product();
    let shared: f64 = d1.iter().zip(d2.iter()).map(|(a, b)| a.min(b)).product();
    own - shared
}

/// `Σ ln d_i`: the log-space proxy whose pairwise ordering matches the
/// hypervolume comparison for positive vectors.
pub fn log_volume_proxy(d: &PropertyVector) -> f64 {
    assert_positive(d);
    d.iter().map(f64::ln).sum()
}

fn assert_positive(d: &PropertyVector) {
    assert!(
        d.iter().all(|x| x > 0.0),
        "hypervolume comparison requires strictly positive property values \
         (vector '{}' violates this)",
        d.name()
    );
}

/// How the hypervolume comparator evaluates its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HvMode {
    /// Exact products; safe for small `N` (roughly `N ≲ 300` for values
    /// around `10`).
    Exact,
    /// Log-space proxy; safe for any `N`, identical ordering.
    Log,
    /// Exact below the dimension threshold (64), log space above.
    #[default]
    Auto,
}

/// The ▶hv-better comparator.
#[derive(Debug, Clone, Copy, Default)]
pub struct HypervolumeComparator {
    /// Evaluation mode.
    pub mode: HvMode,
}

impl HypervolumeComparator {
    /// Dimension above which [`HvMode::Auto`] switches to log space.
    pub const AUTO_THRESHOLD: usize = 64;

    /// A comparator with the given mode.
    pub fn with_mode(mode: HvMode) -> Self {
        HypervolumeComparator { mode }
    }

    fn use_log(&self, n: usize) -> bool {
        match self.mode {
            HvMode::Exact => false,
            HvMode::Log => true,
            HvMode::Auto => n > Self::AUTO_THRESHOLD,
        }
    }
}

impl Comparator for HypervolumeComparator {
    fn name(&self) -> String {
        "hv".into()
    }

    fn compare(&self, d1: &PropertyVector, d2: &PropertyVector) -> Preference {
        if self.use_log(d1.len()) {
            prefer_higher(log_volume_proxy(d1), log_volume_proxy(d2), 0.0)
        } else {
            prefer_higher(hypervolume_index(d1, d2), hypervolume_index(d2, d1), 0.0)
        }
    }
}

impl BinaryIndex for HypervolumeComparator {
    fn name(&self) -> String {
        "P_hv".into()
    }

    fn value(&self, d1: &PropertyVector, d2: &PropertyVector) -> f64 {
        hypervolume_index(d1, d2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(vals: &[f64]) -> PropertyVector {
        PropertyVector::new("p", vals.to_vec())
    }

    #[test]
    fn section_5_4_worked_example() {
        // s = (3,3,3,5,5,5,5,5), t = (4,4,4,4,4,4,4,4):
        // P_hv(s,t) = 3³·5⁵ − 3³·4⁵ = 84375 − 27648 = 56727
        // P_hv(t,s) = 4⁸ − 3³·4⁵ = 65536 − 27648 = 37888.
        let s = v(&[3.0, 3.0, 3.0, 5.0, 5.0, 5.0, 5.0, 5.0]);
        let t = v(&[4.0; 8]);
        assert_eq!(hypervolume_index(&s, &t), 56727.0);
        assert_eq!(hypervolume_index(&t, &s), 37888.0);
        assert_eq!(
            HypervolumeComparator::default().compare(&s, &t),
            Preference::First
        );
    }

    #[test]
    fn zero_index_implies_weak_dominance_by_other() {
        // §5.4: P_hv(D1,D2) = 0 ⟹ D2 ⪰ D1.
        let d1 = v(&[2.0, 3.0]);
        let d2 = v(&[2.0, 4.0]);
        assert_eq!(hypervolume_index(&d1, &d2), 0.0);
        assert!(crate::dominance::weakly_dominates(&d2, &d1));
        assert!(hypervolume_index(&d2, &d1) > 0.0);
    }

    #[test]
    fn exact_and_log_modes_agree_on_small_vectors() {
        let cases = [
            (vec![3.0, 3.0, 3.0, 5.0, 5.0], vec![4.0; 5]),
            (vec![1.0, 9.0], vec![3.0, 3.0]),
            (vec![2.0, 2.0], vec![2.0, 2.0]),
            (vec![7.0, 1.0, 2.0], vec![2.0, 2.0, 2.0]),
        ];
        for (a, b) in cases {
            let da = v(&a);
            let db = v(&b);
            let exact = HypervolumeComparator::with_mode(HvMode::Exact).compare(&da, &db);
            let log = HypervolumeComparator::with_mode(HvMode::Log).compare(&da, &db);
            assert_eq!(exact, log, "modes disagree on {a:?} vs {b:?}");
        }
    }

    #[test]
    fn log_mode_handles_huge_dimensions() {
        // 10 000 components of 5 vs 4: exact products overflow, log works.
        let big = v(&vec![5.0; 10_000]);
        let small = v(&vec![4.0; 10_000]);
        let c = HypervolumeComparator::default(); // Auto → log
        assert_eq!(c.compare(&big, &small), Preference::First);
        assert!(log_volume_proxy(&big) > log_volume_proxy(&small));
    }

    #[test]
    fn auto_threshold_switches() {
        let c = HypervolumeComparator::default();
        assert!(!c.use_log(64));
        assert!(c.use_log(65));
        assert!(HypervolumeComparator::with_mode(HvMode::Log).use_log(1));
        assert!(!HypervolumeComparator::with_mode(HvMode::Exact).use_log(1_000_000));
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn nonpositive_components_rejected() {
        let _ = hypervolume_index(&v(&[1.0, 0.0]), &v(&[1.0, 1.0]));
    }

    #[test]
    #[should_panic(expected = "equal dimensions")]
    fn dimension_mismatch_panics() {
        let _ = hypervolume_index(&v(&[1.0]), &v(&[1.0, 2.0]));
    }

    #[test]
    fn names() {
        assert_eq!(Comparator::name(&HypervolumeComparator::default()), "hv");
        assert_eq!(BinaryIndex::name(&HypervolumeComparator::default()), "P_hv");
    }
}
