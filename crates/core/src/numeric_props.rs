//! Numeric-release properties: distance-based disclosure risk and
//! bounded distance-based information loss.
//!
//! These are the perturbative wing's counterparts to the
//! generalization-centric extractors in [`properties`](crate::properties):
//! they measure a released *numeric* record against the original numeric
//! quasi-identifiers. Both implement [`Property`], so they also run on
//! generalized releases (via the release's numeric view, replacing
//! intervals by midpoints and suppressed cells by column means) — which is
//! what makes mixed generalization + perturbative tournaments
//! component-wise commensurable.
//!
//! Each property has two extraction paths pinned bit-identical by
//! proptests:
//! - [`NeighborhoodRisk::extract_numeric`] /
//!   [`BoundedDistanceLoss::extract_numeric`] — the fast path, iterating
//!   contiguous `f64` column slices;
//! - [`NeighborhoodRisk::extract_numeric_naive`] /
//!   [`BoundedDistanceLoss::extract_numeric_naive`] — a deliberately
//!   simple row-at-a-time reference.
//!
//! Bit identity holds because both paths accumulate every per-`(row,
//! column)` term in the same ascending column order, so the `f64`
//! rounding sequence is the same.

use anoncmp_microdata::numeric::{NumericBase, NumericRelease};
use anoncmp_microdata::prelude::AnonymizedTable;

use crate::properties::Property;
use crate::vector::PropertyVector;

/// The record-linkage distance used by [`NeighborhoodRisk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RiskMetric {
    /// Standardized Euclidean: coordinates are divided by the original
    /// column standard deviations.
    StdEuclid,
    /// Mahalanobis: `d²(a,b) = (a−b)ᵀ Σ⁻¹ (a−b)` with `Σ` the original
    /// data covariance (ridge-regularized when singular).
    Mahalanobis,
}

/// Distance-based disclosure risk within a k-nearest-neighbor
/// neighborhood (the `drscore` model): an intruder links each released
/// record back to the original file by distance; a record is at risk
/// when its true original is among the `k` originals nearest to its
/// released value, and the risk decays with the number of closer
/// decoys.
///
/// For released record `yᵢ` with original `xᵢ`, let
/// `rankᵢ = #{ j : d(yᵢ,xⱼ) < d(yᵢ,xᵢ), or d equal and j < i }` — the
/// number of original records an intruder would try before the true
/// one. The per-tuple risk is `1/(1+rankᵢ)` when `rankᵢ < k` and `0`
/// otherwise. Risk is lower-is-better, so the emitted vector is the
/// negated risk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NeighborhoodRisk {
    /// The linkage distance.
    pub metric: RiskMetric,
    /// The neighborhood size: originals at rank `k` or beyond are
    /// considered safe.
    pub k: usize,
}

/// The default neighborhood size for [`NeighborhoodRisk`].
pub const DEFAULT_RISK_NEIGHBORHOOD: usize = 5;

impl NeighborhoodRisk {
    /// Standardized-Euclidean risk with the default neighborhood.
    pub fn standard() -> Self {
        NeighborhoodRisk {
            metric: RiskMetric::StdEuclid,
            k: DEFAULT_RISK_NEIGHBORHOOD,
        }
    }

    /// Mahalanobis risk with the default neighborhood.
    pub fn mahalanobis() -> Self {
        NeighborhoodRisk {
            metric: RiskMetric::Mahalanobis,
            k: DEFAULT_RISK_NEIGHBORHOOD,
        }
    }

    /// The fast path: one distance row per distinct released row, its
    /// squared linkage distances accumulated column-by-column over the
    /// release's contiguous column slices.
    ///
    /// Exact because the distance row of record `i` depends on `i` only
    /// through its released values: every member of a
    /// [`NumericRelease::row_groups`] group gets the bit-identical row,
    /// and ranks itself in it under the same tie rule and `k` cap as the
    /// naive path.
    pub fn extract_numeric(&self, release: &NumericRelease) -> PropertyVector {
        let base = release.base();
        let n = release.len();
        let mut values = vec![0.0; n];
        let mut dist_row = vec![0.0; n];
        for group in release.row_groups() {
            // d²(yᵢ, xⱼ) for every original j, built column-major so the
            // inner loops stream contiguous slices.
            linkage_distances_fast(self.metric, release, base, group[0], &mut dist_row);
            for i in group {
                values[i] = -risk_from_distances(&dist_row, i, self.k);
            }
        }
        PropertyVector::new(self.name(), values)
    }

    /// The row-at-a-time reference implementation: materializes each row
    /// pair and sums the per-column terms in the same ascending column
    /// order as the fast path. Bit-identical to
    /// [`NeighborhoodRisk::extract_numeric`].
    pub fn extract_numeric_naive(&self, release: &NumericRelease) -> PropertyVector {
        let base = release.base();
        let n = release.len();
        let originals: Vec<Vec<f64>> = (0..n).map(|j| base_row(base, j)).collect();
        let mut values = vec![0.0; n];
        let mut dist_row = vec![0.0; n];
        for (i, v) in values.iter_mut().enumerate() {
            let y = release.row(i);
            for (j, x) in originals.iter().enumerate() {
                dist_row[j] = match self.metric {
                    RiskMetric::StdEuclid => std_euclid2_rows(&y, x, base.stds()),
                    RiskMetric::Mahalanobis => mahalanobis2_rows(&y, x, base.inverse_covariance()),
                };
            }
            *v = -risk_from_distances(&dist_row, i, self.k);
        }
        PropertyVector::new(self.name(), values)
    }
}

impl Property for NeighborhoodRisk {
    fn name(&self) -> String {
        match self.metric {
            RiskMetric::StdEuclid => "neighborhood-risk".to_owned(),
            RiskMetric::Mahalanobis => "mahalanobis-risk".to_owned(),
        }
    }

    fn extract(&self, table: &AnonymizedTable) -> PropertyVector {
        let base = numeric_base_of(table);
        let release = NumericRelease::from_generalized(table, &base);
        self.extract_numeric(&release)
    }
}

/// Chaibub Neto's bounded distance-based information loss: for each
/// record, the mean over columns of `|x − y| / (|x| + |y|)` (with
/// `0/0 := 0`), a quantity in `[0, 1]` for same-sign data and bounded
/// regardless of column scale. Loss is lower-is-better, so the emitted
/// vector is the negated loss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct BoundedDistanceLoss;

impl BoundedDistanceLoss {
    /// One record's loss term for one `(original, released)` cell pair.
    #[inline]
    pub fn cell_term(x: f64, y: f64) -> f64 {
        let denom = x.abs() + y.abs();
        if denom == 0.0 {
            0.0
        } else {
            (x - y).abs() / denom
        }
    }

    /// The fast path: per-column terms are added into the output in
    /// ascending column order over contiguous slices.
    pub fn extract_numeric(&self, release: &NumericRelease) -> PropertyVector {
        let base = release.base();
        let n = release.len();
        let d = release.width() as f64;
        let mut sums = vec![0.0; n];
        for (rel_col, base_col) in release.columns().iter().zip(base.columns()) {
            for ((sum, &y), &x) in sums.iter_mut().zip(rel_col).zip(base_col) {
                *sum += Self::cell_term(x, y);
            }
        }
        let values = sums.into_iter().map(|s| -(s / d)).collect();
        PropertyVector::new(self.name(), values)
    }

    /// The row-at-a-time reference implementation; bit-identical to
    /// [`BoundedDistanceLoss::extract_numeric`] because both add the
    /// per-column terms in ascending column order.
    pub fn extract_numeric_naive(&self, release: &NumericRelease) -> PropertyVector {
        let base = release.base();
        let d = release.width() as f64;
        let values = (0..release.len())
            .map(|i| {
                let y = release.row(i);
                let x = base_row(base, i);
                let sum: f64 = x
                    .iter()
                    .zip(&y)
                    .map(|(&xv, &yv)| Self::cell_term(xv, yv))
                    .sum();
                -(sum / d)
            })
            .collect();
        PropertyVector::new(self.name(), values)
    }
}

impl Property for BoundedDistanceLoss {
    fn name(&self) -> String {
        "bounded-loss".to_owned()
    }

    fn extract(&self, table: &AnonymizedTable) -> PropertyVector {
        let base = numeric_base_of(table);
        let release = NumericRelease::from_generalized(table, &base);
        self.extract_numeric(&release)
    }
}

/// The numeric base of a generalized release's dataset.
///
/// # Panics
/// When the dataset has no numeric quasi-identifier columns — numeric
/// properties are meaningless there, and the engine filters such jobs
/// into clean failures before extraction.
fn numeric_base_of(table: &AnonymizedTable) -> std::sync::Arc<NumericBase> {
    NumericBase::of(table.dataset())
        .expect("numeric properties need at least one numeric quasi-identifier")
}

/// Row `j` of the original numeric data, materialized.
fn base_row(base: &NumericBase, j: usize) -> Vec<f64> {
    base.columns().iter().map(|col| col[j]).collect()
}

/// Fills `out[j] = d²(yᵢ, xⱼ)` for all originals `j`, streaming column
/// slices. Accumulation order per `(i,j)` pair is ascending column
/// index — the same order as the naive row implementations.
fn linkage_distances_fast(
    metric: RiskMetric,
    release: &NumericRelease,
    base: &NumericBase,
    i: usize,
    out: &mut [f64],
) {
    match metric {
        RiskMetric::StdEuclid => {
            out.fill(0.0);
            for ((rel_col, base_col), &std) in release
                .columns()
                .iter()
                .zip(base.columns())
                .zip(base.stds())
            {
                let y = rel_col[i];
                for (slot, &x) in out.iter_mut().zip(base_col) {
                    let diff = (y - x) / std;
                    *slot += diff * diff;
                }
            }
        }
        RiskMetric::Mahalanobis => {
            // The quadratic form is evaluated per pair in (a,b)-ascending
            // order, exactly like `mahalanobis2_rows`.
            let inv = base.inverse_covariance();
            let y = release.row(i);
            let width = base.width();
            let mut delta = vec![0.0; width];
            for (j, slot) in out.iter_mut().enumerate() {
                for (c, d) in delta.iter_mut().enumerate() {
                    *d = y[c] - base.columns()[c][j];
                }
                let mut acc = 0.0;
                for (a, da) in delta.iter().enumerate() {
                    for (b, db) in delta.iter().enumerate() {
                        acc += da * inv[a][b] * db;
                    }
                }
                *slot = acc;
            }
        }
    }
}

/// Squared standardized Euclidean distance between two materialized
/// rows, summed in ascending column order.
fn std_euclid2_rows(y: &[f64], x: &[f64], stds: &[f64]) -> f64 {
    let mut acc = 0.0;
    for ((&yv, &xv), &std) in y.iter().zip(x).zip(stds) {
        let diff = (yv - xv) / std;
        acc += diff * diff;
    }
    acc
}

/// Squared Mahalanobis distance between two materialized rows,
/// evaluated in (a,b)-ascending order.
fn mahalanobis2_rows(y: &[f64], x: &[f64], inv: &[Vec<f64>]) -> f64 {
    let delta: Vec<f64> = y.iter().zip(x).map(|(&yv, &xv)| yv - xv).collect();
    let mut acc = 0.0;
    for (a, da) in delta.iter().enumerate() {
        for (b, db) in delta.iter().enumerate() {
            acc += da * inv[a][b] * db;
        }
    }
    acc
}

/// The intruder's rank-based risk for record `i` given its distance row:
/// `1/(1+rank)` when fewer than `k` originals beat the true one, else 0.
fn risk_from_distances(dist: &[f64], i: usize, k: usize) -> f64 {
    let own = dist[i];
    let mut rank = 0usize;
    for (j, &d) in dist.iter().enumerate() {
        if j == i {
            continue;
        }
        if d < own || (d == own && j < i) {
            rank += 1;
            if rank >= k {
                return 0.0;
            }
        }
    }
    1.0 / (1 + rank) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use anoncmp_microdata::prelude::*;

    fn tiny_base() -> std::sync::Arc<NumericBase> {
        let schema = Schema::new(vec![
            Attribute::integer("age", Role::QuasiIdentifier, 0, 120),
            Attribute::integer("income", Role::QuasiIdentifier, 0, 1000),
            Attribute::categorical("dx", Role::Sensitive, ["a", "b"]),
        ])
        .unwrap();
        let mut b = DatasetBuilder::with_capacity(schema, 6);
        for (age, income, dx) in [
            (25, 140, "a"),
            (35, 180, "b"),
            (45, 330, "a"),
            (55, 360, "b"),
            (65, 490, "a"),
            (30, 200, "b"),
        ] {
            b.push_labels(&[&age.to_string(), &income.to_string(), dx])
                .unwrap();
        }
        NumericBase::of(&b.build().unwrap()).unwrap()
    }

    #[test]
    fn identity_release_has_full_risk_and_zero_loss() {
        let base = tiny_base();
        let rel = NumericRelease::identity(base.clone(), "id");
        let risk = NeighborhoodRisk::standard().extract_numeric(&rel);
        // Every record's nearest original is itself: rank 0, risk 1.
        assert!(
            risk.values().iter().all(|&v| v == -1.0),
            "{:?}",
            risk.values()
        );
        let loss = BoundedDistanceLoss.extract_numeric(&rel);
        assert!(loss.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn fast_and_naive_paths_agree_bitwise() {
        let base = tiny_base();
        // A hand-perturbed release: ages nudged, incomes swapped around.
        let rel = NumericRelease::new(
            "perturbed",
            base.clone(),
            vec![
                vec![27.0, 33.0, 46.0, 51.0, 66.0, 31.0],
                vec![180.0, 140.0, 360.0, 330.0, 200.0, 490.0],
            ],
        );
        for prop in [
            NeighborhoodRisk::standard(),
            NeighborhoodRisk::mahalanobis(),
            NeighborhoodRisk {
                metric: RiskMetric::StdEuclid,
                k: 2,
            },
        ] {
            let fast = prop.extract_numeric(&rel);
            let naive = prop.extract_numeric_naive(&rel);
            let fast_bits: Vec<u64> = fast.values().iter().map(|v| v.to_bits()).collect();
            let naive_bits: Vec<u64> = naive.values().iter().map(|v| v.to_bits()).collect();
            assert_eq!(fast_bits, naive_bits, "{}", prop.name());
        }
        let fast = BoundedDistanceLoss.extract_numeric(&rel);
        let naive = BoundedDistanceLoss.extract_numeric_naive(&rel);
        let fast_bits: Vec<u64> = fast.values().iter().map(|v| v.to_bits()).collect();
        let naive_bits: Vec<u64> = naive.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(fast_bits, naive_bits);
    }

    #[test]
    fn risk_detects_an_obvious_relink() {
        let base = tiny_base();
        // Record 0 released unchanged, the rest pushed far away: record 0
        // relinks at rank 0 (risk 1), far records link elsewhere.
        let mut cols: Vec<Vec<f64>> = base.columns().to_vec();
        for col in &mut cols {
            for v in col.iter_mut().skip(1) {
                *v += 10_000.0;
            }
        }
        let rel = NumericRelease::new("partial", base.clone(), cols);
        let risk = NeighborhoodRisk::standard().extract_numeric(&rel);
        assert_eq!(risk.values()[0], -1.0);
    }

    #[test]
    fn bounded_loss_is_bounded_and_zero_fixed_point() {
        let base = tiny_base();
        let rel = NumericRelease::new(
            "wild",
            base.clone(),
            vec![
                vec![0.0, 1e9, -35.0, 55.0, 0.0, 30.0],
                vec![140.0, 0.0, 330.0, -360.0, 490.0, 1e-12],
            ],
        );
        let loss = BoundedDistanceLoss.extract_numeric(&rel);
        assert!(loss.values().iter().all(|&v| (-1.0..=0.0).contains(&v)));
        // 0/0 cell: original 0 would be needed; here original age is 25,
        // so just check the explicit helper.
        assert_eq!(BoundedDistanceLoss::cell_term(0.0, 0.0), 0.0);
        assert_eq!(BoundedDistanceLoss::cell_term(3.0, 3.0), 0.0);
        assert_eq!(BoundedDistanceLoss::cell_term(-2.0, 2.0), 1.0);
    }

    #[test]
    fn properties_run_on_generalized_releases_via_the_numeric_view() {
        let base = tiny_base();
        let table = AnonymizedTable::identity(base.dataset().clone(), "identity");
        let risk = NeighborhoodRisk::standard().extract(&table);
        assert_eq!(risk.len(), table.dataset().len());
        assert!(risk.values().iter().all(|&v| v == -1.0));
        let loss = BoundedDistanceLoss.extract(&table);
        assert!(loss.values().iter().all(|&v| v == 0.0));
    }
}
