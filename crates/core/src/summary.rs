//! Tournament summaries: comparing *sets of candidate anonymizations*.
//!
//! The paper's comparators are pairwise; real studies (its §1: "to better
//! compare anonymization algorithms") involve several candidates. This
//! module runs a comparator over all ordered pairs — one `compare(i, j)`
//! call per off-diagonal entry — and aggregates the verdicts into a
//! [`ComparisonMatrix`] with Copeland scores (wins − losses), the standard
//! way to turn pairwise preferences into a ranking.

use crate::comparators::{Comparator, Preference};
use crate::preference::SetComparator;
use crate::vector::{PropertySet, PropertyVector};

/// The `m × m` outcome grid whose entry `(i, j)` is `compare(i, j)`, one
/// call per off-diagonal entry; the diagonal is `Tie`.
fn fill(m: usize, compare: impl Fn(usize, usize) -> Preference) -> Vec<Vec<Preference>> {
    (0..m)
        .map(|i| {
            (0..m)
                .map(|j| {
                    if i == j {
                        Preference::Tie
                    } else {
                        compare(i, j)
                    }
                })
                .collect()
        })
        .collect()
}

/// All pairwise outcomes of one comparator over a candidate list.
///
/// ```
/// use anoncmp_core::prelude::*;
/// let a = PropertyVector::new("a", vec![3.0, 3.0]);
/// let b = PropertyVector::new("b", vec![2.0, 2.0]);
/// let m = ComparisonMatrix::of_vectors(&["a", "b"], &[a, b], &CoverageComparator);
/// assert_eq!(m.champion(), Some(0));
/// assert_eq!(m.copeland(0), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ComparisonMatrix {
    names: Vec<String>,
    /// `outcome[i][j]` is the preference of candidate `i` vs candidate `j`
    /// (diagonal entries are `Tie`).
    outcomes: Vec<Vec<Preference>>,
    comparator: String,
}

impl ComparisonMatrix {
    /// Compares every ordered pair of property vectors under
    /// `comparator`, calling [`Comparator::compare`] once per pair.
    ///
    /// # Panics
    /// Panics if `names` and `vectors` lengths differ, or the comparator
    /// itself panics (e.g. dimension mismatches).
    pub fn of_vectors(
        names: &[&str],
        vectors: &[PropertyVector],
        comparator: &dyn Comparator,
    ) -> Self {
        assert_eq!(names.len(), vectors.len(), "one name per candidate");
        ComparisonMatrix {
            names: names.iter().map(|s| s.to_string()).collect(),
            outcomes: fill(vectors.len(), |i, j| {
                comparator.compare(&vectors[i], &vectors[j])
            }),
            comparator: comparator.name(),
        }
    }

    /// Compares every ordered pair of aligned property sets under a
    /// multi-property comparator.
    pub fn of_sets(sets: &[PropertySet], comparator: &dyn SetComparator) -> Self {
        ComparisonMatrix {
            names: sets.iter().map(|s| s.anonymization().to_owned()).collect(),
            outcomes: fill(sets.len(), |i, j| comparator.compare(&sets[i], &sets[j])),
            comparator: comparator.name(),
        }
    }

    /// Candidate names, in input order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The comparator's name.
    pub fn comparator(&self) -> &str {
        &self.comparator
    }

    /// The verdict of candidate `i` against candidate `j`.
    pub fn outcome(&self, i: usize, j: usize) -> Preference {
        self.outcomes[i][j]
    }

    /// Number of strict wins of candidate `i`.
    pub fn wins(&self, i: usize) -> usize {
        self.outcomes[i]
            .iter()
            .filter(|&&p| p == Preference::First)
            .count()
    }

    /// Number of strict losses of candidate `i`.
    pub fn losses(&self, i: usize) -> usize {
        self.outcomes[i]
            .iter()
            .filter(|&&p| p == Preference::Second)
            .count()
    }

    /// Number of incomparable verdicts involving candidate `i` (only
    /// nonzero for dominance-based comparators).
    pub fn incomparabilities(&self, i: usize) -> usize {
        self.outcomes[i]
            .iter()
            .filter(|&&p| p == Preference::Incomparable)
            .count()
    }

    /// Copeland score of candidate `i`: wins − losses.
    pub fn copeland(&self, i: usize) -> i64 {
        self.wins(i) as i64 - self.losses(i) as i64
    }

    /// Candidate indices ranked by Copeland score (best first, stable for
    /// ties).
    pub fn ranking(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.names.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.copeland(i)));
        order
    }

    /// The champion's index (highest Copeland score), if any candidates
    /// exist.
    pub fn champion(&self) -> Option<usize> {
        self.ranking().first().copied()
    }

    /// Renders the matrix and ranking as aligned text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("pairwise verdicts under ▶{}:\n", self.comparator));
        let w = self.names.iter().map(String::len).max().unwrap_or(4).max(4);
        out.push_str(&format!("  {:<w$}", "", w = w + 1));
        for n in &self.names {
            out.push_str(&format!(" {n:>w$}", w = w));
        }
        out.push('\n');
        for (i, n) in self.names.iter().enumerate() {
            out.push_str(&format!("  {n:<w$}", w = w + 1));
            for j in 0..self.names.len() {
                let cell = match self.outcomes[i][j] {
                    _ if i == j => "—",
                    Preference::First => "▶",
                    Preference::Second => "◀",
                    Preference::Tie => "=",
                    Preference::Incomparable => "∥",
                };
                out.push_str(&format!(" {cell:>w$}", w = w));
            }
            out.push('\n');
        }
        out.push_str("  ranking (Copeland):");
        for &i in &self.ranking() {
            out.push_str(&format!(" {} ({:+})", self.names[i], self.copeland(i)));
        }
        out.push('\n');
        out
    }
}

/// Kendall rank-correlation (tau-a) between two rankings of the same
/// candidates, each given as a list of candidate indices from best to
/// worst. `1.0` means identical order, `-1.0` fully reversed, `0.0`
/// uncorrelated. Useful for asking "do two comparators agree on who is
/// better?" across a candidate pool.
///
/// # Panics
/// Panics if the rankings differ in length, contain different index sets,
/// or have fewer than two candidates.
pub fn kendall_tau(ranking_a: &[usize], ranking_b: &[usize]) -> f64 {
    assert_eq!(
        ranking_a.len(),
        ranking_b.len(),
        "rankings must cover the same candidates"
    );
    let n = ranking_a.len();
    assert!(n >= 2, "rank correlation needs at least two candidates");
    // position[candidate] in each ranking.
    let pos = |ranking: &[usize]| -> Vec<usize> {
        let mut p = vec![usize::MAX; n];
        for (rank, &cand) in ranking.iter().enumerate() {
            assert!(cand < n, "candidate index out of range");
            assert_eq!(p[cand], usize::MAX, "duplicate candidate in ranking");
            p[cand] = rank;
        }
        p
    };
    let pa = pos(ranking_a);
    let pb = pos(ranking_b);
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let a = (pa[i] as i64 - pa[j] as i64).signum();
            let b = (pb[i] as i64 - pb[j] as i64).signum();
            if a * b > 0 {
                concordant += 1;
            } else if a * b < 0 {
                discordant += 1;
            }
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    (concordant - discordant) as f64 / pairs
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;
    use crate::comparators::{CoverageComparator, DominanceComparator};
    use crate::index::BinaryIndex;
    use crate::preference::WeightedComparator;

    fn v(vals: &[f64]) -> PropertyVector {
        PropertyVector::new("p", vals.to_vec())
    }

    #[test]
    fn matrix_and_copeland_scores() {
        // a dominates b dominates c.
        let vecs = vec![v(&[3.0, 3.0]), v(&[2.0, 2.0]), v(&[1.0, 1.0])];
        let m = ComparisonMatrix::of_vectors(&["a", "b", "c"], &vecs, &CoverageComparator);
        assert_eq!(m.outcome(0, 1), Preference::First);
        assert_eq!(m.outcome(1, 0), Preference::Second);
        assert_eq!(m.wins(0), 2);
        assert_eq!(m.losses(2), 2);
        assert_eq!(m.copeland(0), 2);
        assert_eq!(m.copeland(1), 0);
        assert_eq!(m.copeland(2), -2);
        assert_eq!(m.ranking(), vec![0, 1, 2]);
        assert_eq!(m.champion(), Some(0));
        assert_eq!(m.comparator(), "cov");
        assert_eq!(m.names(), &["a", "b", "c"]);
    }

    #[test]
    fn incomparabilities_counted_for_dominance() {
        let vecs = vec![v(&[2.0, 1.0]), v(&[1.0, 2.0])];
        let m = ComparisonMatrix::of_vectors(&["a", "b"], &vecs, &DominanceComparator);
        assert_eq!(m.incomparabilities(0), 1);
        assert_eq!(m.copeland(0), 0);
        let s = m.render();
        assert!(s.contains('∥'));
    }

    #[test]
    fn set_matrix_via_wtd() {
        let mk = |name: &str, p: &[f64], u: &[f64]| {
            PropertySet::new(
                name,
                vec![
                    PropertyVector::new("priv", p.to_vec()),
                    PropertyVector::new("util", u.to_vec()),
                ],
            )
        };
        let sets = vec![
            mk("good", &[5.0, 5.0], &[5.0, 5.0]),
            mk("bad", &[1.0, 1.0], &[1.0, 1.0]),
        ];
        let wtd = WeightedComparator::equal(vec![
            Box::new(CoverageComparator) as Box<dyn BinaryIndex>,
            Box::new(CoverageComparator),
        ]);
        let m = ComparisonMatrix::of_sets(&sets, &wtd);
        assert_eq!(m.champion(), Some(0));
        assert!(m.render().contains("good"));
    }

    #[test]
    fn render_shape() {
        let vecs = vec![v(&[1.0]), v(&[1.0])];
        let m = ComparisonMatrix::of_vectors(&["x", "y"], &vecs, &CoverageComparator);
        let s = m.render();
        assert!(s.contains('='));
        assert!(s.contains("ranking (Copeland): x (+0) y (+0)"));
    }

    #[test]
    #[should_panic(expected = "one name per candidate")]
    fn name_count_checked() {
        let _ = ComparisonMatrix::of_vectors(&["a"], &[v(&[1.0]), v(&[2.0])], &CoverageComparator);
    }

    #[test]
    fn kendall_tau_values() {
        assert_eq!(kendall_tau(&[0, 1, 2], &[0, 1, 2]), 1.0);
        assert_eq!(kendall_tau(&[0, 1, 2], &[2, 1, 0]), -1.0);
        // One adjacent swap out of three pairs: (3 - 1 - 1·2)/… compute:
        // pairs = 3, concordant 2, discordant 1 → 1/3.
        assert!((kendall_tau(&[0, 1, 2], &[1, 0, 2]) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn kendall_between_comparator_rankings() {
        use crate::comparators::SpreadComparator;
        let vecs = vec![v(&[5.0, 5.0]), v(&[3.0, 3.0]), v(&[1.0, 1.0])];
        let names = ["a", "b", "c"];
        let cov = ComparisonMatrix::of_vectors(&names, &vecs, &CoverageComparator);
        let spr = ComparisonMatrix::of_vectors(&names, &vecs, &SpreadComparator);
        // On a dominance chain every comparator agrees.
        assert_eq!(kendall_tau(&cov.ranking(), &spr.ranking()), 1.0);
    }

    #[test]
    #[should_panic(expected = "duplicate candidate")]
    fn kendall_rejects_duplicates() {
        let _ = kendall_tau(&[0, 0], &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "same candidates")]
    fn kendall_rejects_length_mismatch() {
        let _ = kendall_tau(&[0, 1], &[0, 1, 2]);
    }

    #[test]
    fn empty_matrix() {
        let m = ComparisonMatrix::of_vectors(&[], &[], &CoverageComparator);
        assert_eq!(m.champion(), None);
        assert!(m.ranking().is_empty());
    }

    /// A deterministic pool of positive vectors with plenty of ties,
    /// dominance chains, and incomparable pairs.
    fn pool(m: usize, n: usize) -> (Vec<String>, Vec<PropertyVector>) {
        let vectors: Vec<PropertyVector> = (0..m)
            .map(|i| {
                let vals: Vec<f64> = (0..n)
                    .map(|t| ((i * 7 + t * 11) % 13) as f64 + 1.0)
                    .collect();
                PropertyVector::new(format!("c{i}"), vals)
            })
            .collect();
        let names = (0..m).map(|i| format!("c{i}")).collect();
        (names, vectors)
    }

    #[test]
    fn non_antisymmetric_comparator_is_called_once_per_ordered_pair() {
        // A deliberately non-antisymmetric comparator: the matrix must not
        // mirror one direction into the other, only make both calls.
        struct AlwaysFirst(RefCell<Vec<(String, String)>>);
        impl Comparator for AlwaysFirst {
            fn name(&self) -> String {
                "always-first".into()
            }
            fn compare(&self, d1: &PropertyVector, d2: &PropertyVector) -> Preference {
                let pair = (d1.name().to_owned(), d2.name().to_owned());
                self.0.borrow_mut().push(pair);
                Preference::First
            }
        }
        let (names, vectors) = pool(4, 3);
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let cmp = AlwaysFirst(RefCell::new(Vec::new()));
        let m = ComparisonMatrix::of_vectors(&name_refs, &vectors, &cmp);
        let mut expected = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                let want = if i == j {
                    Preference::Tie
                } else {
                    expected.push((names[i].clone(), names[j].clone()));
                    Preference::First
                };
                assert_eq!(m.outcome(i, j), want);
            }
        }
        assert_eq!(cmp.0.into_inner(), expected);
    }

    #[test]
    fn single_candidate_matrix_is_trivial() {
        // One candidate means no pairs, so the comparator is never called
        // (hv would panic on this nonpositive vector if it were).
        let v = PropertyVector::new("z", vec![0.0, -1.0]);
        let m = ComparisonMatrix::of_vectors(
            &["z"],
            &[v],
            &crate::comparators::HypervolumeComparator::default(),
        );
        assert_eq!(m.outcome(0, 0), Preference::Tie);
        assert_eq!(m.champion(), Some(0));
    }
}
