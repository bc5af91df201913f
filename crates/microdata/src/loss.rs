//! Per-tuple information-loss metrics.
//!
//! The paper (§3, §5.5) treats utility as just another *property* measured
//! per tuple: "A loss measurement, such as the general loss metric \[7\],
//! computes a normalized loss quantity for every tuple of the data set."
//! This module provides the cell- and tuple-level loss computations; the
//! `anoncmp-core` crate wraps them as property vectors.
//!
//! Two generalization-loss conventions are implemented:
//!
//! * [`LossKind::ClassicLm`] — Iyengar's loss metric `LM`:
//!   `(|M| − 1) / (|A| − 1)` for a categorical cell covering `|M|` of `|A|`
//!   values, `(hi − lo) / span` for intervals.
//! * [`LossKind::RatioLm`] — the variant the paper's §5.5 numbers follow
//!   (reverse-engineered; see DESIGN.md): `|M| / |A|`, where coverage is
//!   counted against the **distinct values present in the dataset**. With
//!   `utility(t) = a − Σ loss` this reproduces the printed utility vectors
//!   `u_a`/`u_b` exactly.
//!
//! Coverage can be normalized against the declared domain or the observed
//! dataset values via [`CoverageBasis`].

use std::collections::HashMap;

use crate::anonymized::AnonymizedTable;
use crate::codec::{GenCodec, NodePartition};
use crate::dataset::Dataset;
use crate::error::{Error, Result};
use crate::kernels;
use crate::schema::Domain;
use crate::value::GenValue;

/// Per-row contribution of one column to a per-tuple sum, without
/// materializing cells: the distinct-value terms are computed once per
/// `(column, level)` and scattered through the codec's `u32` codes. Used
/// by the encoded loss and precision kernels below.
///
/// `terms` must be indexed by the codes in `codes`; adds `terms[code]`
/// into `acc[row]` for every row. Accumulation order per row matches the
/// materialized path's column-by-column sum exactly, so results stay
/// bit-identical. Delegates to the branch-free
/// [`gather_add_f64`](crate::kernels::gather_add_f64) kernel.
fn scatter_terms(acc: &mut [f64], codes: &[u32], terms: &[f64]) {
    kernels::gather_add_f64(acc, codes, terms);
}

/// Schema column → codec dimension for the columns `codec` encodes.
fn dims_by_column(codec: &GenCodec) -> Vec<Option<usize>> {
    let mut dim_of: Vec<Option<usize>> = vec![None; codec.dataset().schema().len()];
    for dim in 0..codec.dims() {
        dim_of[codec.column_of(dim)] = Some(dim);
    }
    dim_of
}

/// The per-distinct-raw-value codes of a column the codec does *not*
/// encode (decoding renders such cells as raw values). Returns per-row
/// codes into the column's sorted distinct values.
fn raw_codes(ds: &Dataset, col: usize) -> Vec<u32> {
    let distinct = ds.distinct(col);
    (0..ds.len())
        .map(|row| {
            distinct
                .code_of(ds.value(row, col))
                .expect("dataset values appear in their own distinct summary")
        })
        .collect()
}

/// Which universe coverage fractions are normalized against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoverageBasis {
    /// The attribute's declared domain (all category labels / the full
    /// integer range).
    Domain,
    /// The distinct values actually present in the dataset column — the
    /// convention behind the paper's §5.5 worked example.
    DatasetDistinct,
}

/// The loss formula applied to each generalized cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LossKind {
    /// Iyengar's LM: `(|M| − 1) / (|A| − 1)`; raw cells lose 0, suppressed
    /// cells lose 1.
    ClassicLm,
    /// The paper's ratio variant: `|M| / |A|`; a raw cell loses `1 / |A|`.
    RatioLm,
}

/// Which columns contribute to a tuple's loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnSet {
    /// Quasi-identifier columns only.
    QuasiIdentifiers,
    /// Every column (the paper's §5.5 example sums over all three
    /// attributes, including the generalized sensitive one).
    All,
    /// An explicit list of column indices.
    Explicit(Vec<usize>),
}

impl ColumnSet {
    fn resolve(&self, ds: &Dataset) -> Vec<usize> {
        match self {
            ColumnSet::QuasiIdentifiers => ds.schema().quasi_identifiers().to_vec(),
            ColumnSet::All => (0..ds.schema().len()).collect(),
            ColumnSet::Explicit(cols) => cols.clone(),
        }
    }
}

/// A configured per-tuple generalization-loss metric.
///
/// ```
/// use anoncmp_microdata::prelude::*;
///
/// let schema = Schema::new(vec![
///     Attribute::integer("age", Role::QuasiIdentifier, 0, 100)
///         .with_hierarchy(IntervalLadder::uniform(0, &[10]).unwrap().into())
///         .unwrap(),
/// ]).unwrap();
/// let ds = Dataset::new(schema.clone(), vec![vec![Value::Int(15)]]).unwrap();
/// let lattice = Lattice::new(schema).unwrap();
///
/// let raw = lattice.apply(&ds, &[0], "raw").unwrap();
/// let coarse = lattice.apply(&ds, &[1], "coarse").unwrap();
/// let metric = LossMetric::classic();
/// assert_eq!(metric.total_loss(&raw), 0.0);
/// assert!(metric.total_loss(&coarse) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct LossMetric {
    kind: LossKind,
    basis: CoverageBasis,
    columns: ColumnSet,
}

impl LossMetric {
    /// Iyengar's classic LM over the quasi-identifiers, domain-normalized.
    pub fn classic() -> Self {
        LossMetric {
            kind: LossKind::ClassicLm,
            basis: CoverageBasis::Domain,
            columns: ColumnSet::QuasiIdentifiers,
        }
    }

    /// The paper's §5.5 configuration: ratio loss over all columns,
    /// normalized by distinct dataset values.
    pub fn paper_ratio() -> Self {
        LossMetric {
            kind: LossKind::RatioLm,
            basis: CoverageBasis::DatasetDistinct,
            columns: ColumnSet::All,
        }
    }

    /// Custom configuration.
    pub fn new(kind: LossKind, basis: CoverageBasis, columns: ColumnSet) -> Self {
        LossMetric {
            kind,
            basis,
            columns,
        }
    }

    /// Number of covered values `|M|` and universe size `|A|` for a cell.
    fn coverage(&self, ds: &Dataset, col: usize, gv: &GenValue) -> (f64, f64) {
        let attr = ds.schema().attribute(col);
        match self.basis {
            CoverageBasis::DatasetDistinct => {
                let distinct = ds.distinct(col);
                let total = distinct.count() as f64;
                let covered = match gv {
                    GenValue::Int(_) | GenValue::Cat(_) => 1.0,
                    GenValue::Interval { lo, hi } => distinct.count_in_interval(*lo, *hi) as f64,
                    GenValue::Node(n) => {
                        let tax = attr
                            .hierarchy()
                            .and_then(|h| h.as_taxonomy())
                            .expect("Node cells only occur on taxonomy attributes");
                        tax.leaf_cats_under(*n)
                            .iter()
                            .filter(|&&c| distinct.contains_category(c))
                            .count() as f64
                    }
                    GenValue::Suppressed => total,
                };
                (covered, total)
            }
            CoverageBasis::Domain => match attr.domain() {
                Domain::Categorical { labels } => {
                    let total = labels.len() as f64;
                    let covered = match gv {
                        GenValue::Cat(_) => 1.0,
                        GenValue::Node(n) => {
                            let tax = attr
                                .hierarchy()
                                .and_then(|h| h.as_taxonomy())
                                .expect("Node cells only occur on taxonomy attributes");
                            tax.leaves_under(*n) as f64
                        }
                        GenValue::Suppressed => total,
                        // Numeric cells cannot occur on categorical columns.
                        GenValue::Int(_) | GenValue::Interval { .. } => 1.0,
                    };
                    (covered, total)
                }
                Domain::Integer { min, max } => {
                    // In i128: an extreme domain's width and `min − 1`
                    // overflow i64.
                    let (min, max) = (i128::from(*min), i128::from(*max));
                    let span = (max - min) as f64;
                    match gv {
                        GenValue::Int(_) => (0.0, span.max(1.0)),
                        GenValue::Interval { lo, hi } => {
                            // Clip the interval to the domain before
                            // measuring its width.
                            let lo = i128::from(*lo).max(min - 1);
                            let hi = i128::from(*hi).min(max);
                            (((hi - lo).max(0)) as f64, span.max(1.0))
                        }
                        GenValue::Suppressed => (span.max(1.0), span.max(1.0)),
                        GenValue::Cat(_) | GenValue::Node(_) => (0.0, span.max(1.0)),
                    }
                }
            },
        }
    }

    /// The loss of one generalized cell, in `[0, 1]`.
    pub fn cell_loss(&self, ds: &Dataset, col: usize, gv: &GenValue) -> f64 {
        let (covered, total) = self.coverage(ds, col, gv);
        match self.kind {
            LossKind::ClassicLm => {
                match self.basis {
                    // Discrete universes use (|M|-1)/(|A|-1).
                    CoverageBasis::DatasetDistinct => {
                        if total <= 1.0 {
                            0.0
                        } else {
                            (covered - 1.0).max(0.0) / (total - 1.0)
                        }
                    }
                    // Domain-based numeric coverage is already a width, so
                    // the ratio is direct; categorical uses (|M|-1)/(|A|-1).
                    CoverageBasis::Domain => {
                        let attr = ds.schema().attribute(col);
                        match attr.domain() {
                            Domain::Categorical { .. } => {
                                if total <= 1.0 {
                                    0.0
                                } else {
                                    (covered - 1.0).max(0.0) / (total - 1.0)
                                }
                            }
                            Domain::Integer { .. } => {
                                if total <= 0.0 {
                                    0.0
                                } else {
                                    (covered / total).clamp(0.0, 1.0)
                                }
                            }
                        }
                    }
                }
            }
            LossKind::RatioLm => {
                if total <= 0.0 {
                    0.0
                } else {
                    (covered / total).clamp(0.0, 1.0)
                }
            }
        }
    }

    /// The summed loss of all configured columns of `tuple`.
    pub fn tuple_loss(&self, table: &AnonymizedTable, tuple: usize) -> f64 {
        let ds = table.dataset();
        self.columns
            .resolve(ds)
            .iter()
            .map(|&col| self.cell_loss(ds, col, table.cell(tuple, col)))
            .sum()
    }

    /// Per-tuple loss vector.
    pub fn loss_vector(&self, table: &AnonymizedTable) -> Vec<f64> {
        let ds = table.dataset();
        let cols = self.columns.resolve(ds);
        let mut cache = CellLossCache::new(self.clone());
        (0..table.len())
            .map(|t| {
                cols.iter()
                    .map(|&c| cache.get(ds, c, table.cell(t, c)))
                    .sum()
            })
            .collect()
    }

    /// Per-tuple utility vector: `|columns| − loss(t)`, the convention that
    /// reproduces the paper's §5.5 numbers (`utility = 3 − Σ loss` there).
    pub fn utility_vector(&self, table: &AnonymizedTable) -> Vec<f64> {
        let a = self.columns.resolve(table.dataset()).len() as f64;
        self.loss_vector(table).into_iter().map(|l| a - l).collect()
    }

    /// Total (summed) loss of the table.
    pub fn total_loss(&self, table: &AnonymizedTable) -> f64 {
        self.loss_vector(table).iter().sum()
    }

    /// Per-tuple loss vector computed directly from the codec — no table
    /// materialization. Bit-identical to [`LossMetric::loss_vector`] on
    /// the decoded node: per-column cell losses are evaluated once per
    /// distinct generalized value (the codec's dictionary) and scattered
    /// through the `u32` code columns, accumulating in the same column
    /// order as the materialized path.
    ///
    /// # Errors
    /// As [`GenCodec::validate`] for an invalid `levels` vector.
    pub fn loss_vector_encoded(&self, codec: &GenCodec, levels: &[usize]) -> Result<Vec<f64>> {
        self.loss_vector_encoded_masked(codec, levels, None)
    }

    /// [`LossMetric::loss_vector_encoded`] of the node with the rows
    /// flagged in `suppressed` suppressed: each flagged row scores the
    /// [`GenValue::Suppressed`] cell loss in every encoded column and the
    /// loss of its raw value in every other. Bit-identical to
    /// [`LossMetric::loss_vector`] on the decoded node after
    /// [`AnonymizedTable::suppress_tuples`] of the flagged rows, which
    /// rewrites exactly the quasi-identifier cells the codec encodes.
    /// `None` suppresses nothing.
    ///
    /// # Errors
    /// As [`GenCodec::validate`] for an invalid `levels` vector;
    /// [`Error::InvalidDataset`] when the mask does not have one flag per
    /// row.
    pub fn loss_vector_encoded_masked(
        &self,
        codec: &GenCodec,
        levels: &[usize],
        suppressed: Option<&[bool]>,
    ) -> Result<Vec<f64>> {
        codec.validate(levels)?;
        if let Some(mask) = suppressed.filter(|mask| mask.len() != codec.rows()) {
            return Err(Error::InvalidDataset(format!(
                "suppression mask covers {} rows but the codec has {}",
                mask.len(),
                codec.rows()
            )));
        }
        let ds = codec.dataset();
        let cols = self.columns.resolve(ds);
        let dim_of = dims_by_column(codec);
        let mut losses = vec![0.0f64; codec.rows()];
        for &c in &cols {
            match dim_of[c] {
                Some(dim) => {
                    let level = levels[dim];
                    let mut terms: Vec<f64> = codec
                        .dict(dim, level)
                        .iter()
                        .map(|gv| self.cell_loss(ds, c, gv))
                        .collect();
                    let codes = codec.encoded_column(dim, level);
                    match suppressed {
                        // Flagged rows read one extra term past the
                        // dictionary: the suppressed cell's loss.
                        Some(mask) => {
                            let star = terms.len() as u32;
                            terms.push(self.cell_loss(ds, c, &GenValue::Suppressed));
                            let masked: Vec<u32> = codes
                                .iter()
                                .zip(mask)
                                .map(|(&code, &hidden)| if hidden { star } else { code })
                                .collect();
                            scatter_terms(&mut losses, &masked, &terms);
                        }
                        None => scatter_terms(&mut losses, codes, &terms),
                    }
                }
                None => {
                    // Un-encoded columns decode to raw cells; their loss
                    // depends only on the distinct raw value.
                    let terms: Vec<f64> = ds
                        .distinct(c)
                        .values()
                        .iter()
                        .map(|v| self.cell_loss(ds, c, &GenValue::raw(*v)))
                        .collect();
                    scatter_terms(&mut losses, &raw_codes(ds, c), &terms);
                }
            }
        }
        Ok(losses)
    }

    /// Per-tuple utility vector from the codec; see
    /// [`LossMetric::loss_vector_encoded`].
    ///
    /// # Errors
    /// As [`GenCodec::validate`].
    pub fn utility_vector_encoded(&self, codec: &GenCodec, levels: &[usize]) -> Result<Vec<f64>> {
        let a = self.columns.resolve(codec.dataset()).len() as f64;
        Ok(self
            .loss_vector_encoded(codec, levels)?
            .into_iter()
            .map(|l| a - l)
            .collect())
    }

    /// Total (summed) loss of a node from the codec; see
    /// [`LossMetric::loss_vector_encoded`].
    ///
    /// # Errors
    /// As [`GenCodec::validate`].
    pub fn total_loss_encoded(&self, codec: &GenCodec, levels: &[usize]) -> Result<f64> {
        Ok(self.loss_vector_encoded(codec, levels)?.iter().sum())
    }
}

/// Memoizes cell losses per `(column, generalized value)`.
///
/// Full-domain recoding yields only a handful of distinct cell values per
/// column, so caching turns the per-table loss computation from
/// `O(N · cost(cell))` into `O(N + distinct · cost(cell))`; the
/// `bench_baseline` `loss_cache` group quantifies the gap (DESIGN.md
/// decision 2).
pub struct CellLossCache {
    metric: LossMetric,
    cache: HashMap<(usize, GenValue), f64>,
}

impl CellLossCache {
    /// Creates an empty cache for `metric`.
    pub fn new(metric: LossMetric) -> Self {
        CellLossCache {
            metric,
            cache: HashMap::new(),
        }
    }

    /// The (possibly cached) loss of `gv` in column `col`.
    pub fn get(&mut self, ds: &Dataset, col: usize, gv: &GenValue) -> f64 {
        let metric = &self.metric;
        *self
            .cache
            .entry((col, *gv))
            .or_insert_with(|| metric.cell_loss(ds, col, gv))
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

/// Per-tuple discernibility penalties (Bayardo & Agrawal's DM decomposed by
/// tuple): a tuple in an equivalence class of size `s` is penalized `s`;
/// a suppressed tuple is penalized `N`. Summing the vector gives the
/// classical DM score.
pub fn discernibility_vector(table: &AnonymizedTable) -> Vec<f64> {
    let n = table.len() as f64;
    (0..table.len())
        .map(|t| {
            if table.is_tuple_suppressed(t) {
                n
            } else {
                table.classes().class_size_of(t) as f64
            }
        })
        .collect()
}

/// Per-tuple precision (Sweeney's `Prec` decomposed by tuple): `1` minus
/// the mean `level / max_level` across hierarchy-bearing columns, so raw
/// tuples score 1 and fully suppressed tuples score 0. Cells whose level
/// cannot be determined (foreign intervals) count as fully generalized.
pub fn precision_vector(table: &AnonymizedTable) -> Vec<f64> {
    let ds = table.dataset();
    let schema = ds.schema();
    let cols: Vec<(usize, usize)> = (0..schema.len())
        .filter_map(|c| schema.attribute(c).hierarchy().map(|h| (c, h.max_level())))
        .collect();
    if cols.is_empty() {
        return vec![1.0; table.len()];
    }
    (0..table.len())
        .map(|t| {
            let mut acc = 0.0;
            for &(c, max) in &cols {
                let h = schema.attribute(c).hierarchy().expect("filtered above");
                let level = h.level_of(table.cell(t, c)).unwrap_or(max);
                acc += level as f64 / max as f64;
            }
            1.0 - acc / cols.len() as f64
        })
        .collect()
}

/// Encoded variant of [`discernibility_vector`]: a tuple in a class of
/// size `s` is penalized `s`. Decoded codec tables never carry suppressed
/// tuples (full-domain recoding suppresses by generalizing, not by
/// masking rows), so the suppression branch of the materialized path
/// cannot fire and the two are bit-identical.
///
/// # Errors
/// As [`GenCodec::validate`] when the partition does not fit the codec.
pub fn discernibility_vector_encoded(
    codec: &GenCodec,
    partition: &NodePartition,
) -> Result<Vec<f64>> {
    let ids = partition.class_ids(codec)?;
    let penalties: Vec<f64> = partition.sizes().iter().map(|&s| f64::from(s)).collect();
    let mut out = vec![0.0f64; ids.len()];
    kernels::gather_f64(&mut out, ids, &penalties);
    Ok(out)
}

/// Encoded variant of [`precision_vector`]: per-cell `level / max_level`
/// ratios are evaluated once per distinct generalized value and scattered
/// through the codec's code columns, accumulating per row in the same
/// column order as the materialized path (bit-identical results).
///
/// # Errors
/// As [`GenCodec::validate`] for an invalid `levels` vector.
pub fn precision_vector_encoded(codec: &GenCodec, levels: &[usize]) -> Result<Vec<f64>> {
    codec.validate(levels)?;
    let ds = codec.dataset();
    let schema = ds.schema();
    let cols: Vec<(usize, usize)> = (0..schema.len())
        .filter_map(|c| schema.attribute(c).hierarchy().map(|h| (c, h.max_level())))
        .collect();
    if cols.is_empty() {
        return Ok(vec![1.0; codec.rows()]);
    }
    let dim_of = dims_by_column(codec);
    let mut acc = vec![0.0f64; codec.rows()];
    for &(c, max) in &cols {
        let h = schema.attribute(c).hierarchy().expect("filtered above");
        match dim_of[c] {
            Some(dim) => {
                let level = levels[dim];
                let terms: Vec<f64> = codec
                    .dict(dim, level)
                    .iter()
                    .map(|gv| h.level_of(gv).unwrap_or(max) as f64 / max as f64)
                    .collect();
                scatter_terms(&mut acc, codec.encoded_column(dim, level), &terms);
            }
            None => {
                let terms: Vec<f64> = ds
                    .distinct(c)
                    .values()
                    .iter()
                    .map(|v| h.level_of(&GenValue::raw(*v)).unwrap_or(max) as f64 / max as f64)
                    .collect();
                scatter_terms(&mut acc, &raw_codes(ds, c), &terms);
            }
        }
    }
    let d = cols.len() as f64;
    Ok(acc.into_iter().map(|a| 1.0 - a / d).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::intervals::IntervalLadder;
    use crate::lattice::Lattice;
    use crate::schema::{Attribute, Role, Schema};
    use crate::taxonomy::Taxonomy;
    use crate::value::Value;

    fn schema() -> Arc<Schema> {
        Schema::new(vec![
            Attribute::from_taxonomy(
                "city",
                Role::QuasiIdentifier,
                Taxonomy::masking(&["aa", "ab", "bb"], &[1]).unwrap(),
            ),
            Attribute::integer("age", Role::QuasiIdentifier, 0, 100)
                .with_hierarchy(IntervalLadder::uniform(0, &[10, 50]).unwrap().into())
                .unwrap(),
            Attribute::categorical("d", Role::Sensitive, ["s1", "s2"]),
        ])
        .unwrap()
    }

    fn dataset() -> Arc<Dataset> {
        Dataset::new(
            schema(),
            vec![
                vec![Value::Cat(0), Value::Int(15), Value::Cat(0)],
                vec![Value::Cat(1), Value::Int(25), Value::Cat(1)],
                vec![Value::Cat(2), Value::Int(18), Value::Cat(1)],
                vec![Value::Cat(0), Value::Int(42), Value::Cat(0)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn classic_lm_cell_losses() {
        let ds = dataset();
        let m = LossMetric::classic();
        // Raw categorical: 0.
        assert_eq!(m.cell_loss(&ds, 0, &GenValue::Cat(0)), 0.0);
        // Suppressed categorical: 1.
        assert_eq!(m.cell_loss(&ds, 0, &GenValue::Suppressed), 1.0);
        // Interval (10,20] on domain 0..=100: width 10 / span 100.
        let l = m.cell_loss(&ds, 1, &GenValue::Interval { lo: 10, hi: 20 });
        assert!((l - 0.1).abs() < 1e-12);
        // Raw numeric: 0.
        assert_eq!(m.cell_loss(&ds, 1, &GenValue::Int(15)), 0.0);
        // Suppressed numeric: 1.
        assert_eq!(m.cell_loss(&ds, 1, &GenValue::Suppressed), 1.0);
    }

    #[test]
    fn classic_lm_on_an_extreme_integer_domain() {
        // Width 2^64 − 1 and `min − 1` both overflow i64.
        let schema = Schema::new(vec![Attribute::integer(
            "age",
            Role::QuasiIdentifier,
            i64::MIN,
            i64::MAX,
        )])
        .unwrap();
        let rows = [10, 20, 30, 40].map(|age| vec![Value::Int(age)]);
        let ds = Dataset::new(schema, rows.to_vec()).unwrap();
        let m = LossMetric::classic();
        let raw = AnonymizedTable::identity(ds.clone(), "raw");
        assert_eq!(m.loss_vector(&raw), vec![0.0; 4]);
        let l = m.cell_loss(&ds, 0, &GenValue::Interval { lo: 10, hi: 20 });
        assert_eq!(l, 10.0 / 2f64.powi(64));
        let full = GenValue::Interval {
            lo: i64::MIN,
            hi: i64::MAX,
        };
        assert_eq!(m.cell_loss(&ds, 0, &full), 1.0);
        assert_eq!(m.cell_loss(&ds, 0, &GenValue::Suppressed), 1.0);
    }

    #[test]
    fn ratio_lm_cell_losses_use_dataset_distinct() {
        let ds = dataset();
        let m = LossMetric::paper_ratio();
        // City column has 3 distinct values; a raw cell covers 1.
        let l = m.cell_loss(&ds, 0, &GenValue::Cat(0));
        assert!((l - 1.0 / 3.0).abs() < 1e-12);
        // Age column has 4 distinct values; (10,20] covers 15 and 18.
        let l = m.cell_loss(&ds, 1, &GenValue::Interval { lo: 10, hi: 20 });
        assert!((l - 2.0 / 4.0).abs() < 1e-12);
        // Suppressed covers all.
        assert_eq!(m.cell_loss(&ds, 1, &GenValue::Suppressed), 1.0);
    }

    #[test]
    fn node_coverage_against_both_bases() {
        let ds = dataset();
        let tax = ds
            .schema()
            .attribute(0)
            .hierarchy()
            .unwrap()
            .as_taxonomy()
            .unwrap()
            .clone();
        // Node "a*" covers leaves "aa" and "ab"; both present in data.
        let a_star = tax.ancestor_at_level(0, 1).unwrap();
        let gv = GenValue::Node(a_star);

        let dom = LossMetric::new(LossKind::ClassicLm, CoverageBasis::Domain, ColumnSet::All);
        // (2-1)/(3-1) = 0.5.
        assert!((dom.cell_loss(&ds, 0, &gv) - 0.5).abs() < 1e-12);

        let ratio = LossMetric::paper_ratio();
        // 2/3 under the ratio convention.
        assert!((ratio.cell_loss(&ds, 0, &gv) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn loss_and_utility_vectors() {
        let ds = dataset();
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        let t = lattice.apply(&ds, &[1, 1], "t").unwrap();
        let m = LossMetric::paper_ratio();
        let losses = m.loss_vector(&t);
        assert_eq!(losses.len(), 4);
        let utilities = m.utility_vector(&t);
        for (l, u) in losses.iter().zip(&utilities) {
            assert!((l + u - 3.0).abs() < 1e-12, "utility = 3 - loss");
        }
        assert!((m.total_loss(&t) - losses.iter().sum::<f64>()).abs() < 1e-12);
        // Per-tuple API agrees with the vector API.
        for (i, l) in losses.iter().enumerate() {
            assert!((m.tuple_loss(&t, i) - l).abs() < 1e-12);
        }
    }

    #[test]
    fn more_generalization_never_decreases_classic_loss() {
        let ds = dataset();
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        let m = LossMetric::classic();
        let mut prev = -1.0;
        for levels in [vec![0, 0], vec![1, 1], vec![1, 2], vec![2, 3]] {
            let t = lattice.apply(&ds, &levels, "t").unwrap();
            let total = m.total_loss(&t);
            assert!(total >= prev, "loss must be monotone along a chain");
            prev = total;
        }
    }

    #[test]
    fn cache_returns_same_values() {
        let ds = dataset();
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        let t = lattice.apply(&ds, &[1, 1], "t").unwrap();
        let m = LossMetric::paper_ratio();
        let mut cache = CellLossCache::new(m.clone());
        assert!(cache.is_empty());
        for tuple in 0..t.len() {
            for col in 0..3 {
                let direct = m.cell_loss(&ds, col, t.cell(tuple, col));
                let cached = cache.get(&ds, col, t.cell(tuple, col));
                assert!((direct - cached).abs() < 1e-12);
            }
        }
        assert!(!cache.is_empty());
        // Far fewer cache entries than cells.
        assert!(cache.len() <= 3 * 4);
    }

    #[test]
    fn discernibility_penalties() {
        let ds = dataset();
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        // Full suppression: one class of 4, but every tuple is suppressed →
        // penalty N = 4 each.
        let t = lattice.apply(&ds, &lattice.top(), "top").unwrap();
        assert_eq!(discernibility_vector(&t), vec![4.0; 4]);
        // Raw release: 4 singleton classes.
        let t = lattice.apply(&ds, &lattice.bottom(), "raw").unwrap();
        assert_eq!(discernibility_vector(&t), vec![1.0; 4]);
    }

    #[test]
    fn precision_extremes() {
        let ds = dataset();
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        let raw = lattice.apply(&ds, &lattice.bottom(), "raw").unwrap();
        assert!(precision_vector(&raw)
            .iter()
            .all(|&p| (p - 1.0).abs() < 1e-12));
        let top = lattice.apply(&ds, &lattice.top(), "top").unwrap();
        assert!(precision_vector(&top).iter().all(|&p| p.abs() < 1e-12));
        let mid = lattice.apply(&ds, &[1, 1], "mid").unwrap();
        for p in precision_vector(&mid) {
            assert!(p > 0.0 && p < 1.0);
        }
    }

    #[test]
    fn encoded_vectors_are_bit_identical_to_materialized() {
        let ds = dataset();
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        let codec = GenCodec::new(&ds).unwrap();
        let metrics = [
            LossMetric::classic(),
            LossMetric::paper_ratio(),
            LossMetric::new(
                LossKind::RatioLm,
                CoverageBasis::DatasetDistinct,
                ColumnSet::Explicit(vec![1, 2]),
            ),
        ];
        for levels in lattice.iter_all() {
            let t = codec.decode(&levels, "t").unwrap();
            for m in &metrics {
                assert_eq!(
                    m.loss_vector_encoded(&codec, &levels).unwrap(),
                    m.loss_vector(&t),
                    "loss differs at {levels:?}"
                );
                assert_eq!(
                    m.utility_vector_encoded(&codec, &levels).unwrap(),
                    m.utility_vector(&t),
                    "utility differs at {levels:?}"
                );
                assert_eq!(
                    m.total_loss_encoded(&codec, &levels).unwrap(),
                    m.total_loss(&t),
                    "total loss differs at {levels:?}"
                );
            }
            assert_eq!(
                precision_vector_encoded(&codec, &levels).unwrap(),
                precision_vector(&t),
                "precision differs at {levels:?}"
            );
            let part = codec.partition(&levels).unwrap();
            assert_eq!(
                discernibility_vector_encoded(&codec, &part).unwrap(),
                discernibility_vector(&t),
                "discernibility differs at {levels:?}"
            );
        }
    }

    #[test]
    fn encoded_vectors_validate_levels() {
        let ds = dataset();
        let codec = GenCodec::new(&ds).unwrap();
        assert!(LossMetric::classic()
            .loss_vector_encoded(&codec, &[0])
            .is_err());
        assert!(precision_vector_encoded(&codec, &[9, 9]).is_err());
    }

    #[test]
    fn explicit_column_set() {
        let ds = dataset();
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        let t = lattice.apply(&ds, &[1, 1], "t").unwrap();
        let m = LossMetric::new(
            LossKind::RatioLm,
            CoverageBasis::DatasetDistinct,
            ColumnSet::Explicit(vec![1]),
        );
        let v = m.loss_vector(&t);
        // Only the age column contributes.
        for (tuple, l) in v.iter().enumerate() {
            let direct = m.cell_loss(&ds, 1, t.cell(tuple, 1));
            assert!((l - direct).abs() < 1e-12);
        }
        let u = m.utility_vector(&t);
        for (l, uu) in v.iter().zip(&u) {
            assert!((l + uu - 1.0).abs() < 1e-12, "a = 1 column");
        }
    }
}
