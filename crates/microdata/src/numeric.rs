//! Numeric views of microdata for the perturbative release family.
//!
//! Generalization algorithms emit [`AnonymizedTable`]s — per-tuple
//! generalization codes over the original schema. Perturbative methods
//! (noise addition, rank swapping, microaggregation, neighborhood
//! randomization) instead keep the original row count and re-publish the
//! *numeric* quasi-identifier columns with modified values. This module
//! provides the shared substrate both families are measured on:
//!
//! * [`NumericBase`] — the original numeric QI columns of a dataset in
//!   column-major `f64` form, with the per-column moments (mean, std) and
//!   the covariance/inverse-covariance matrices the distance-based
//!   risk/loss properties and the correlated perturbation methods need.
//!   Built once per dataset and shared via `Arc`.
//! * [`NumericRelease`] — one released (perturbed or numerically viewed)
//!   value matrix over the same base. Row order is tuple order, exactly
//!   like [`AnonymizedTable`], so per-tuple property vectors from both
//!   families are component-wise comparable (paper §3, Definition 1).
//! * [`NumericRelease::from_generalized`] — the numeric view of a
//!   generalization release (interval midpoints, suppression → column
//!   mean), which is what makes mixed-family comparator tournaments
//!   commensurable: the same distance-based property extracts from either
//!   family over identical column-slice representations.

use std::sync::Arc;

use crate::anonymized::AnonymizedTable;
use crate::dataset::Dataset;
use crate::schema::{Domain, Role};
use crate::value::{GenValue, Value};

/// The original numeric quasi-identifier columns of a dataset, plus the
/// precomputed statistics every distance-based measurement reuses.
///
/// Columns are the dataset's integer-domain QI attributes in schema
/// order; categorical QI columns and sensitive attributes never enter the
/// numeric view. All slices are row-aligned with the dataset.
#[derive(Debug)]
pub struct NumericBase {
    dataset: Arc<Dataset>,
    /// Schema column index of each numeric column.
    schema_cols: Vec<usize>,
    /// Attribute names of the numeric columns.
    names: Vec<String>,
    /// Original values, column-major.
    columns: Vec<Vec<f64>>,
    /// Per-column mean.
    means: Vec<f64>,
    /// Per-column population standard deviation, clamped to a positive
    /// floor so standardized distances stay finite on constant columns.
    stds: Vec<f64>,
    /// Sample covariance matrix (d × d, row-major).
    cov: Vec<Vec<f64>>,
    /// Inverse of the (ridge-regularized, if necessary) covariance.
    inv_cov: Vec<Vec<f64>>,
}

/// Floor for standard deviations and covariance ridge terms: keeps every
/// standardized / Mahalanobis distance finite even on degenerate columns.
const STD_FLOOR: f64 = 1e-12;

impl NumericBase {
    /// Builds the numeric base of `dataset`, or `None` when the schema
    /// has no integer-domain quasi-identifier column (nothing to
    /// perturb or measure numerically).
    pub fn of(dataset: &Arc<Dataset>) -> Option<Arc<NumericBase>> {
        let schema = dataset.schema();
        let schema_cols: Vec<usize> = schema
            .quasi_identifiers()
            .iter()
            .copied()
            .filter(|&c| {
                matches!(schema.attribute(c).domain(), Domain::Integer { .. })
                    && schema.attribute(c).role() == Role::QuasiIdentifier
            })
            .collect();
        if schema_cols.is_empty() {
            return None;
        }
        let n = dataset.len();
        let names: Vec<String> = schema_cols
            .iter()
            .map(|&c| schema.attribute(c).name().to_owned())
            .collect();
        let columns: Vec<Vec<f64>> = schema_cols
            .iter()
            .map(|&c| {
                (0..n)
                    .map(|row| match dataset.value(row, c) {
                        Value::Int(v) => *v as f64,
                        Value::Cat(_) => 0.0,
                    })
                    .collect()
            })
            .collect();
        let means: Vec<f64> = columns
            .iter()
            .map(|col| {
                if col.is_empty() {
                    0.0
                } else {
                    col.iter().sum::<f64>() / col.len() as f64
                }
            })
            .collect();
        let stds: Vec<f64> = columns
            .iter()
            .zip(&means)
            .map(|(col, &m)| {
                if col.is_empty() {
                    1.0
                } else {
                    let var =
                        col.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / col.len() as f64;
                    var.sqrt().max(STD_FLOOR)
                }
            })
            .collect();
        let d = columns.len();
        let denom = if n > 1 { (n - 1) as f64 } else { 1.0 };
        let mut cov = vec![vec![0.0; d]; d];
        for a in 0..d {
            for b in a..d {
                let mut acc = 0.0;
                for (&va, &vb) in columns[a].iter().zip(&columns[b]) {
                    acc += (va - means[a]) * (vb - means[b]);
                }
                let c = acc / denom;
                cov[a][b] = c;
                cov[b][a] = c;
            }
        }
        let inv_cov = invert_spd(&cov);
        Some(Arc::new(NumericBase {
            dataset: dataset.clone(),
            schema_cols,
            names,
            columns,
            means,
            stds,
            cov,
            inv_cov,
        }))
    }

    /// The dataset this base was built from.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.dataset
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.dataset.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of numeric columns (the dimension `d`).
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Schema column indices of the numeric columns.
    pub fn schema_cols(&self) -> &[usize] {
        &self.schema_cols
    }

    /// Attribute names of the numeric columns.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The original values, column-major.
    pub fn columns(&self) -> &[Vec<f64>] {
        &self.columns
    }

    /// One original column as a contiguous slice.
    pub fn column(&self, j: usize) -> &[f64] {
        &self.columns[j]
    }

    /// Per-column means of the original data.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Per-column population standard deviations (positive).
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// The sample covariance matrix (row-major, d × d).
    pub fn covariance(&self) -> &[Vec<f64>] {
        &self.cov
    }

    /// The inverse covariance matrix used by Mahalanobis distances.
    pub fn inverse_covariance(&self) -> &[Vec<f64>] {
        &self.inv_cov
    }

    /// Lower-triangular Cholesky factor `L` of the (ridge-regularized)
    /// covariance: `L·Lᵀ = Σ`. Used by correlated noise addition.
    pub fn cholesky(&self) -> Vec<Vec<f64>> {
        cholesky_spd(&self.cov)
    }
}

/// A perturbed (or numerically viewed) release over a [`NumericBase`]:
/// the same rows, the same numeric columns, modified values.
#[derive(Debug, Clone)]
pub struct NumericRelease {
    name: String,
    base: Arc<NumericBase>,
    /// Released values, column-major, same shape as the base columns.
    columns: Vec<Vec<f64>>,
}

impl NumericRelease {
    /// Wraps released columns. Panics if the shape differs from the base.
    pub fn new(name: impl Into<String>, base: Arc<NumericBase>, columns: Vec<Vec<f64>>) -> Self {
        assert_eq!(
            columns.len(),
            base.width(),
            "one released column per base column"
        );
        for col in &columns {
            assert_eq!(col.len(), base.len(), "released columns are row-aligned");
        }
        NumericRelease {
            name: name.into(),
            base,
            columns,
        }
    }

    /// The identity release: original values, unperturbed.
    pub fn identity(base: Arc<NumericBase>, name: impl Into<String>) -> Self {
        let columns = base.columns().to_vec();
        NumericRelease::new(name, base, columns)
    }

    /// The numeric view of a generalization release over the same
    /// dataset: exact integers stay themselves, intervals collapse to
    /// their midpoint, taxonomy nodes and suppressed cells fall back to
    /// the column mean (the least-informative numeric publication).
    ///
    /// Row order is tuple order in both representations, so a
    /// distance-based property extracted from this view is component-wise
    /// comparable with one extracted from a perturbative release.
    ///
    /// # Panics
    /// If `table` was not produced from the base's dataset (row counts
    /// differ).
    pub fn from_generalized(table: &AnonymizedTable, base: &Arc<NumericBase>) -> Self {
        assert_eq!(
            table.len(),
            base.len(),
            "generalized release and numeric base cover the same tuples"
        );
        let columns: Vec<Vec<f64>> = base
            .schema_cols()
            .iter()
            .enumerate()
            .map(|(j, &c)| {
                (0..table.len())
                    .map(|row| match table.cell(row, c) {
                        GenValue::Int(v) => *v as f64,
                        // The midpoint of the half-open interval (lo, hi].
                        GenValue::Interval { lo, hi } => (*lo as f64 + *hi as f64) / 2.0,
                        GenValue::Cat(_) | GenValue::Node(_) | GenValue::Suppressed => {
                            base.means()[j]
                        }
                    })
                    .collect()
            })
            .collect();
        NumericRelease::new(table.name().to_owned(), base.clone(), columns)
    }

    /// The release's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the release under a different display name.
    pub fn renamed(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The base this release perturbs.
    pub fn base(&self) -> &Arc<NumericBase> {
        &self.base
    }

    /// Number of rows (always the original tuple count).
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// Whether the release is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of numeric columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Released values, column-major.
    pub fn columns(&self) -> &[Vec<f64>] {
        &self.columns
    }

    /// One released column as a contiguous slice.
    pub fn column(&self, j: usize) -> &[f64] {
        &self.columns[j]
    }

    /// The released row `i` gathered across columns (row-at-a-time view;
    /// the naive reference extractors use this).
    pub fn row(&self, i: usize) -> Vec<f64> {
        self.columns.iter().map(|col| col[i]).collect()
    }

    /// The rows grouped by released value: each group lists, in
    /// ascending order, the rows whose released values are equal bit for
    /// bit (`f64::to_bits` per column, so `-0.0` and `0.0` differ and
    /// identical NaNs group together). Groups come in ascending order of
    /// their bit patterns. A measurement that reads a row only through
    /// its released values gives every member of a group the same input.
    pub fn row_groups(&self) -> Vec<Vec<usize>> {
        let bits = |i: usize| self.columns.iter().map(move |col| col[i].to_bits());
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by(|&a, &b| bits(a).cmp(bits(b)));
        order
            .chunk_by(|&a, &b| bits(a).eq(bits(b)))
            .map(<[usize]>::to_vec)
            .collect()
    }
}

/// One release of either family. The engine caches, digests, and measures
/// releases through this enum; everything downstream of release
/// computation dispatches on the family exactly once.
#[derive(Debug, Clone)]
pub enum Release {
    /// A generalization/suppression release (the paper's original family).
    Generalized(AnonymizedTable),
    /// A perturbative release over the numeric quasi-identifiers.
    Numeric(NumericRelease),
}

impl Release {
    /// The release's display name.
    pub fn name(&self) -> &str {
        match self {
            Release::Generalized(t) => t.name(),
            Release::Numeric(n) => n.name(),
        }
    }

    /// Number of tuples (both families preserve the original count).
    pub fn len(&self) -> usize {
        match self {
            Release::Generalized(t) => t.len(),
            Release::Numeric(n) => n.len(),
        }
    }

    /// Whether the release is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The generalization table, when this is a generalized release.
    pub fn as_generalized(&self) -> Option<&AnonymizedTable> {
        match self {
            Release::Generalized(t) => Some(t),
            Release::Numeric(_) => None,
        }
    }

    /// The numeric release, when this is a perturbative release.
    pub fn as_numeric(&self) -> Option<&NumericRelease> {
        match self {
            Release::Generalized(_) => None,
            Release::Numeric(n) => Some(n),
        }
    }

    /// A short family tag for records and error messages.
    pub fn family(&self) -> &'static str {
        match self {
            Release::Generalized(_) => "generalized",
            Release::Numeric(_) => "numeric",
        }
    }
}

/// Inverts a symmetric positive-(semi)definite matrix by Gauss–Jordan
/// elimination, ridge-regularizing (`Σ + εI`) with growing ε until the
/// pivots are usable. `d` is tiny (the numeric QI count), so O(d³) is
/// irrelevant.
fn invert_spd(m: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let d = m.len();
    if d == 0 {
        return Vec::new();
    }
    let scale = (0..d)
        .map(|i| m[i][i].abs())
        .fold(0.0_f64, f64::max)
        .max(1.0);
    let mut ridge = 0.0;
    loop {
        let mut a: Vec<Vec<f64>> = m.to_vec();
        for (i, row) in a.iter_mut().enumerate() {
            row[i] += ridge;
        }
        if let Some(inv) = gauss_jordan(&mut a) {
            return inv;
        }
        ridge = if ridge == 0.0 {
            scale * 1e-9
        } else {
            ridge * 10.0
        };
    }
}

/// Plain Gauss–Jordan with partial pivoting; `None` on a (near-)zero pivot.
fn gauss_jordan(a: &mut [Vec<f64>]) -> Option<Vec<Vec<f64>>> {
    let d = a.len();
    let mut inv: Vec<Vec<f64>> = (0..d)
        .map(|i| (0..d).map(|j| if i == j { 1.0 } else { 0.0 }).collect())
        .collect();
    for col in 0..d {
        let pivot_row = (col..d)
            .max_by(|&x, &y| a[x][col].abs().partial_cmp(&a[y][col].abs()).unwrap())
            .unwrap();
        if a[pivot_row][col].abs() < STD_FLOOR {
            return None;
        }
        a.swap(col, pivot_row);
        inv.swap(col, pivot_row);
        let pivot = a[col][col];
        for j in 0..d {
            a[col][j] /= pivot;
            inv[col][j] /= pivot;
        }
        for row in 0..d {
            if row == col {
                continue;
            }
            let factor = a[row][col];
            if factor == 0.0 {
                continue;
            }
            for j in 0..d {
                a[row][j] -= factor * a[col][j];
                inv[row][j] -= factor * inv[col][j];
            }
        }
    }
    Some(inv)
}

/// Cholesky factorization of a symmetric positive-(semi)definite matrix,
/// ridge-regularizing until the factorization succeeds.
fn cholesky_spd(m: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let d = m.len();
    if d == 0 {
        return Vec::new();
    }
    let scale = (0..d)
        .map(|i| m[i][i].abs())
        .fold(0.0_f64, f64::max)
        .max(1.0);
    let mut ridge = 0.0;
    loop {
        if let Some(l) = cholesky_try(m, ridge) {
            return l;
        }
        ridge = if ridge == 0.0 {
            scale * 1e-9
        } else {
            ridge * 10.0
        };
    }
}

fn cholesky_try(m: &[Vec<f64>], ridge: f64) -> Option<Vec<Vec<f64>>> {
    let d = m.len();
    let mut l = vec![vec![0.0; d]; d];
    for i in 0..d {
        for j in 0..=i {
            let mut sum = m[i][j] + if i == j { ridge } else { 0.0 };
            for (a, b) in l[i][..j].iter().zip(&l[j][..j]) {
                sum -= a * b;
            }
            if i == j {
                if sum <= 0.0 {
                    return None;
                }
                l[i][j] = sum.sqrt();
            } else {
                l[i][j] = sum / l[j][j];
            }
        }
    }
    Some(l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::Hierarchy;
    use crate::intervals::IntervalLadder;
    use crate::schema::{Attribute, Schema};
    use crate::taxonomy::Taxonomy;

    fn two_column_dataset() -> Arc<Dataset> {
        let zip = Taxonomy::masking(&["130", "132"], &[1, 2]).unwrap();
        let schema = Schema::new(vec![
            Attribute::integer("age", Role::QuasiIdentifier, 0, 100)
                .with_hierarchy(Hierarchy::from(
                    IntervalLadder::uniform(0, &[10, 20]).unwrap(),
                ))
                .unwrap(),
            Attribute::integer("income", Role::QuasiIdentifier, 0, 1000),
            Attribute::from_taxonomy("zip", Role::QuasiIdentifier, zip),
            Attribute::categorical("disease", Role::Sensitive, ["flu", "cold"]),
        ])
        .unwrap();
        // Correlated but not collinear columns: the covariance must be
        // invertible without ridge regularization for the inverse tests.
        let rows = [
            (25, 140, "130", "flu"),
            (35, 180, "130", "cold"),
            (45, 330, "132", "flu"),
            (55, 360, "132", "cold"),
            (65, 490, "130", "flu"),
        ];
        let mut b = crate::dataset::DatasetBuilder::with_capacity(schema, rows.len());
        for (age, income, zip, disease) in rows {
            b.push_labels(&[&age.to_string(), &income.to_string(), zip, disease])
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn base_selects_integer_qi_columns_only() {
        let ds = two_column_dataset();
        let base = NumericBase::of(&ds).expect("two numeric QI columns");
        assert_eq!(base.width(), 2);
        assert_eq!(base.names(), ["age", "income"]);
        assert_eq!(base.len(), 5);
        assert!((base.means()[0] - 45.0).abs() < 1e-12);
        assert!((base.means()[1] - 300.0).abs() < 1e-12);
        assert!(base.stds().iter().all(|&s| s > 0.0));
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // `i`/`j`/`k` index `cov` and `inv` in lockstep
    fn inverse_covariance_is_an_inverse() {
        let ds = two_column_dataset();
        let base = NumericBase::of(&ds).unwrap();
        let d = base.width();
        let cov = base.covariance();
        let inv = base.inverse_covariance();
        for i in 0..d {
            for j in 0..d {
                let mut acc = 0.0;
                for k in 0..d {
                    acc += cov[i][k] * inv[k][j];
                }
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((acc - expected).abs() < 1e-6, "(Σ · Σ⁻¹)[{i}][{j}] = {acc}");
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // `i`/`j`/`k` index `l` and the covariance in lockstep
    fn cholesky_reconstructs_covariance() {
        let ds = two_column_dataset();
        let base = NumericBase::of(&ds).unwrap();
        let l = base.cholesky();
        let d = base.width();
        for i in 0..d {
            for j in 0..d {
                let mut acc = 0.0;
                for k in 0..d {
                    acc += l[i][k] * l[j][k];
                }
                assert!(
                    (acc - base.covariance()[i][j]).abs() < 1e-6,
                    "(L·Lᵀ)[{i}][{j}]"
                );
            }
        }
    }

    #[test]
    fn identity_release_reproduces_the_base() {
        let ds = two_column_dataset();
        let base = NumericBase::of(&ds).unwrap();
        let rel = NumericRelease::identity(base.clone(), "identity");
        assert_eq!(rel.columns(), base.columns());
        assert_eq!(rel.row(2), vec![45.0, 330.0]);
    }

    #[test]
    fn numeric_view_of_identity_generalization_is_exact() {
        let ds = two_column_dataset();
        let base = NumericBase::of(&ds).unwrap();
        let table = AnonymizedTable::identity(ds, "raw");
        let view = NumericRelease::from_generalized(&table, &base);
        assert_eq!(view.columns(), base.columns());
    }

    #[test]
    fn numeric_view_uses_midpoints_and_means() {
        let ds = two_column_dataset();
        let base = NumericBase::of(&ds).unwrap();
        let table = AnonymizedTable::identity(ds, "raw").suppress_tuples([0]);
        let view = NumericRelease::from_generalized(&table, &base);
        // Suppressed tuple falls back to column means; others unchanged.
        assert_eq!(view.column(0)[0], base.means()[0]);
        assert_eq!(view.column(1)[0], base.means()[1]);
        assert_eq!(view.column(0)[1], 35.0);
    }

    #[test]
    fn row_groups_key_on_bit_patterns() {
        let ds = two_column_dataset();
        let base = NumericBase::of(&ds).unwrap();
        let rel = NumericRelease::new(
            "groups",
            base,
            vec![
                vec![0.0, -0.0, 0.0, f64::NAN, f64::NAN],
                vec![1.0, 1.0, 1.0, 2.0, 2.0],
            ],
        );
        // `-0.0 == 0.0`, yet the rows differ bit for bit; identical NaNs
        // group together.
        assert_eq!(rel.row_groups(), vec![vec![0, 2], vec![3, 4], vec![1]]);
        // The second column alone splits rows the first column groups.
        let rel = NumericRelease::new(
            "split",
            rel.base().clone(),
            vec![vec![5.0; 5], vec![1.0, 2.0, 1.0, 2.0, 3.0]],
        );
        assert_eq!(rel.row_groups(), vec![vec![0, 2], vec![1, 3], vec![4]]);
    }

    #[test]
    fn release_enum_dispatches_by_family() {
        let ds = two_column_dataset();
        let base = NumericBase::of(&ds).unwrap();
        let numeric = Release::Numeric(NumericRelease::identity(base, "n"));
        let generalized = Release::Generalized(AnonymizedTable::identity(ds, "g"));
        assert_eq!(numeric.family(), "numeric");
        assert_eq!(generalized.family(), "generalized");
        assert!(numeric.as_numeric().is_some());
        assert!(numeric.as_generalized().is_none());
        assert!(generalized.as_generalized().is_some());
        assert_eq!(numeric.len(), 5);
        assert_eq!(generalized.len(), 5);
    }
}
