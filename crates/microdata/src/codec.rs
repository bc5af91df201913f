//! Dictionary-encoded columnar generalization codec.
//!
//! Every full-domain lattice search (Samarati, Incognito, the exhaustive
//! optimal baseline) evaluates thousands of lattice nodes, and evaluating a
//! node through [`Lattice::apply`] materializes a complete
//! `Vec<Vec<GenValue>>` table and re-hashes every tuple signature. Almost
//! all of that work is redundant: under full-domain recoding the
//! generalized value of a cell depends only on `(column, raw value,
//! level)`, and a dataset column holds few distinct raw values compared to
//! its row count.
//!
//! [`GenCodec`] exploits this by interning, per quasi-identifier column:
//!
//! * a **raw code** per distinct value present in the column (`u32`,
//!   assigned in the sorted order of [`Dataset::distinct`]);
//! * per generalization level, a `Vec<u32>` **code map** from raw code to
//!   *generalized code*, plus the interned dictionary `Vec<GenValue>` those
//!   generalized codes index — computed once per `(column, level)` and
//!   shared by every lattice node that uses that level;
//! * per `(column, level)`, a lazily materialized **encoded column**: the
//!   per-row generalized codes, again computed once and shared.
//!
//! A lattice node then becomes an [`EncodedView`]: per-column `&[u32]`
//! code slices whose equivalence classes are computed by grouping plain
//! `u32` tuples ([`EquivalenceClasses::group_by_codes`]) — no `GenValue`
//! clones, no per-row `Vec` signatures. Decoding back to a displayable
//! [`AnonymizedTable`] happens only for the node a search actually
//! releases.
//!
//! # The class-merge invariant
//!
//! Stepping up one level in a *nested* hierarchy (a [`Taxonomy`], or an
//! [`IntervalLadder`](crate::intervals::IntervalLadder) built with
//! [`new_nested`](crate::intervals::IntervalLadder::new_nested)) can only
//! **merge** equivalence classes, never split them: two rows with equal
//! generalized values at level `l` also agree at every level `≥ l`. When
//! that invariant holds for every column ([`GenCodec::is_monotone`]), a
//! successor node's partition can be derived from its parent's by re-keying
//! one *representative row per parent class* — O(#classes) instead of
//! O(#rows) — via [`GenCodec::coarsen`]. Ladders built with
//! [`new_unchecked`](crate::intervals::IntervalLadder::new_unchecked) may
//! violate it (the paper's T3a/T3b/T4 ladders shift origins between
//! levels); the codec detects this at construction and refuses to coarsen
//! across a non-nested column, so callers fall back to the (still cheap)
//! from-scratch [`GenCodec::partition`].
//!
//! [`Lattice::apply`]: crate::lattice::Lattice::apply
//! [`Taxonomy`]: crate::taxonomy::Taxonomy

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::anonymized::{AnonymizedTable, EquivalenceClasses};
use crate::dataset::Dataset;
use crate::error::{Error, Result};
use crate::hash::FxMap;
use crate::lattice::LevelVector;
use crate::value::GenValue;

/// Per-level interned dictionary of one quasi-identifier column.
#[derive(Debug)]
struct LevelCodec {
    /// `code_map[raw_code]` is the generalized code at this level.
    code_map: Vec<u32>,
    /// `dict[gen_code]` is the generalized value (first-appearance order
    /// over ascending raw codes).
    dict: Vec<GenValue>,
    /// Per-row generalized codes, materialized on first use and shared by
    /// every lattice node that generalizes this column to this level.
    /// Level 0 aliases the column's raw codes instead and leaves this
    /// empty.
    encoded: OnceLock<Vec<u32>>,
}

/// The codec state of one quasi-identifier column.
#[derive(Debug)]
struct ColumnCodec {
    /// Schema column index.
    col: usize,
    /// Whether every adjacent level map is a coarsening of the previous
    /// one (the class-merge invariant; see the module docs).
    monotone: bool,
    /// `raw_codes[row]` is the row's raw code (index into the column's
    /// sorted distinct values).
    raw_codes: Vec<u32>,
    /// Per-level code maps and dictionaries; index = generalization level.
    levels: Vec<LevelCodec>,
}

/// The dictionary-encoded columnar view of a dataset's quasi-identifier
/// columns under full-domain generalization.
///
/// Build one per `(dataset, schema)` pair and share it across an entire
/// lattice search: all per-`(column, level)` state is computed at most
/// once.
///
/// ```
/// use anoncmp_microdata::prelude::*;
///
/// let schema = Schema::new(vec![
///     Attribute::integer("age", Role::QuasiIdentifier, 0, 100)
///         .with_hierarchy(IntervalLadder::uniform(0, &[10, 20]).unwrap().into())
///         .unwrap(),
///     Attribute::categorical("d", Role::Sensitive, ["x", "y"]),
/// ])
/// .unwrap();
/// let ds = Dataset::new(
///     schema,
///     vec![
///         vec![Value::Int(15), Value::Cat(0)],
///         vec![Value::Int(18), Value::Cat(1)],
///         vec![Value::Int(25), Value::Cat(0)],
///     ],
/// )
/// .unwrap();
/// let codec = GenCodec::new(&ds).unwrap();
/// // 15 and 18 share the (10,20] bucket at level 1.
/// let part = codec.partition(&[1]).unwrap();
/// assert_eq!(part.class_count(), 2);
/// assert_eq!(part.min_class_size(), 1);
/// // The decoded table matches Lattice::apply exactly.
/// let table = codec.decode(&[1], "demo").unwrap();
/// assert_eq!(table.cell(0, 0), &GenValue::Interval { lo: 10, hi: 20 });
/// ```
#[derive(Debug)]
pub struct GenCodec {
    dataset: Arc<Dataset>,
    columns: Vec<ColumnCodec>,
}

impl GenCodec {
    /// Builds the codec for every quasi-identifier column of `dataset`.
    ///
    /// Cost: O(rows) to assign raw codes plus O(distinct · levels) to
    /// intern the per-level dictionaries — encoded columns are *not*
    /// materialized here, only on first use.
    ///
    /// # Errors
    /// [`Error::MissingHierarchy`] if a quasi-identifier attribute lacks a
    /// generalization hierarchy; propagates generalization errors.
    pub fn new(dataset: &Arc<Dataset>) -> Result<Self> {
        let schema = dataset.schema();
        let mut columns = Vec::with_capacity(schema.quasi_identifiers().len());
        for &col in schema.quasi_identifiers() {
            let attr = schema.attribute(col);
            let hierarchy = attr
                .hierarchy()
                .ok_or_else(|| Error::MissingHierarchy(attr.name().to_owned()))?;
            let distinct = dataset.distinct(col);

            // Raw codes: index into the column's sorted distinct values.
            let raw_codes: Vec<u32> = (0..dataset.len())
                .map(|row| {
                    distinct
                        .code_of(dataset.value(row, col))
                        .expect("dataset values appear in their own distinct summary")
                })
                .collect();

            // One representative raw value per raw code, for generalizing.
            let raw_values = distinct.values();

            // Per-level maps and dictionaries over the distinct values.
            let mut levels = Vec::with_capacity(hierarchy.max_level() + 1);
            for level in 0..=hierarchy.max_level() {
                let mut dict: Vec<GenValue> = Vec::new();
                let mut intern: HashMap<GenValue, u32> = HashMap::new();
                let mut code_map = Vec::with_capacity(raw_values.len());
                for value in &raw_values {
                    let gv = hierarchy.generalize(value, level)?;
                    let next = dict.len() as u32;
                    let code = *intern.entry(gv).or_insert(next);
                    if code == next {
                        dict.push(gv);
                    }
                    code_map.push(code);
                }
                levels.push(LevelCodec {
                    code_map,
                    dict,
                    encoded: OnceLock::new(),
                });
            }

            // Class-merge invariant: each level map must be a function of
            // the previous level's map (same code at level l ⇒ same code
            // at level l+1).
            let monotone = levels.windows(2).all(|w| {
                let (finer, coarser) = (&w[0], &w[1]);
                let mut parent: Vec<Option<u32>> = vec![None; finer.dict.len()];
                finer
                    .code_map
                    .iter()
                    .zip(&coarser.code_map)
                    .all(|(&f, &c)| match parent[f as usize] {
                        Some(seen) => seen == c,
                        None => {
                            parent[f as usize] = Some(c);
                            true
                        }
                    })
            });

            columns.push(ColumnCodec {
                col,
                monotone,
                raw_codes,
                levels,
            });
        }
        Ok(GenCodec {
            dataset: dataset.clone(),
            columns,
        })
    }

    /// The dataset this codec encodes.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.dataset
    }

    /// Number of quasi-identifier columns (lattice dimensions).
    pub fn dims(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.dataset.len()
    }

    /// Maximum generalization level of dimension `dim`.
    pub fn max_level(&self, dim: usize) -> usize {
        self.columns[dim].levels.len() - 1
    }

    /// The schema column index dimension `dim` encodes.
    pub fn column_of(&self, dim: usize) -> usize {
        self.columns[dim].col
    }

    /// Whether dimension `dim` satisfies the class-merge invariant (see
    /// the module docs): required for [`GenCodec::coarsen`] to step this
    /// dimension.
    pub fn is_monotone(&self, dim: usize) -> bool {
        self.columns[dim].monotone
    }

    /// Whether every dimension satisfies the class-merge invariant.
    pub fn monotone(&self) -> bool {
        self.columns.iter().all(|c| c.monotone)
    }

    /// Number of distinct generalized values of dimension `dim` at
    /// `level` — `O(1)`, no scan. (This is exactly the distinct count
    /// Datafly's attribute-selection heuristic needs.)
    pub fn distinct_at(&self, dim: usize, level: usize) -> usize {
        self.columns[dim].levels[level].dict.len()
    }

    /// The interned dictionary of dimension `dim` at `level`.
    pub fn dict(&self, dim: usize, level: usize) -> &[GenValue] {
        &self.columns[dim].levels[level].dict
    }

    /// The per-row generalized codes of dimension `dim` at `level`,
    /// materializing them on first use. Codes index
    /// [`GenCodec::dict`]`(dim, level)`.
    pub fn encoded_column(&self, dim: usize, level: usize) -> &[u32] {
        let column = &self.columns[dim];
        if level == 0 {
            // Level 0 is the identity map; the raw codes double as the
            // encoded column.
            return &column.raw_codes;
        }
        let lc = &column.levels[level];
        lc.encoded.get_or_init(|| {
            column
                .raw_codes
                .iter()
                .map(|&r| lc.code_map[r as usize])
                .collect()
        })
    }

    /// Validates a full-dimensional level vector.
    ///
    /// # Errors
    /// [`Error::ArityMismatch`] / [`Error::LevelOutOfRange`], as
    /// [`Lattice::validate`](crate::lattice::Lattice::validate).
    pub fn validate(&self, levels: &[usize]) -> Result<()> {
        if levels.len() != self.columns.len() {
            return Err(Error::ArityMismatch {
                expected: self.columns.len(),
                actual: levels.len(),
            });
        }
        for (dim, &level) in levels.iter().enumerate() {
            let max = self.max_level(dim);
            if level > max {
                let attr = self.dataset.schema().attribute(self.columns[dim].col);
                return Err(Error::LevelOutOfRange {
                    attribute: attr.name().to_owned(),
                    level,
                    max,
                });
            }
        }
        Ok(())
    }

    /// The encoded view of the lattice node `levels` (all dimensions).
    ///
    /// # Errors
    /// As [`GenCodec::validate`].
    pub fn view(&self, levels: &[usize]) -> Result<EncodedView<'_>> {
        self.validate(levels)?;
        let dims: Vec<usize> = (0..self.dims()).collect();
        Ok(self.view_of(&dims, levels))
    }

    /// The encoded view of a **projection**: only the listed dimensions,
    /// generalized to `levels` (aligned with `dims`). Used by subset
    /// phases of Incognito.
    ///
    /// # Errors
    /// [`Error::ArityMismatch`] if `dims` and `levels` differ in length;
    /// [`Error::LevelOutOfRange`] for an out-of-range pair.
    pub fn view_subset(&self, dims: &[usize], levels: &[usize]) -> Result<EncodedView<'_>> {
        if dims.len() != levels.len() {
            return Err(Error::ArityMismatch {
                expected: dims.len(),
                actual: levels.len(),
            });
        }
        for (&dim, &level) in dims.iter().zip(levels) {
            let max = self.max_level(dim);
            if level > max {
                let attr = self.dataset.schema().attribute(self.columns[dim].col);
                return Err(Error::LevelOutOfRange {
                    attribute: attr.name().to_owned(),
                    level,
                    max,
                });
            }
        }
        Ok(self.view_of(dims, levels))
    }

    fn view_of(&self, dims: &[usize], levels: &[usize]) -> EncodedView<'_> {
        let columns: Vec<&[u32]> = dims
            .iter()
            .zip(levels)
            .map(|(&dim, &level)| self.encoded_column(dim, level))
            .collect();
        let dict_sizes: Vec<u32> = dims
            .iter()
            .zip(levels)
            .map(|(&dim, &level)| self.distinct_at(dim, level) as u32)
            .collect();
        EncodedView {
            rows: self.rows(),
            columns,
            dict_sizes,
        }
    }

    /// Groups the node `levels` from scratch into class sizes plus one
    /// representative row per class — the evaluation kernel of the lattice
    /// searches. Class numbering is first-appearance order, identical to
    /// [`EquivalenceClasses::group_by_hash`] on the materialized table.
    ///
    /// # Errors
    /// As [`GenCodec::validate`].
    pub fn partition(&self, levels: &[usize]) -> Result<NodePartition> {
        let view = self.view(levels)?;
        let (sizes, reps) = view.sizes_and_reps();
        Ok(NodePartition {
            levels: levels.to_vec(),
            sizes,
            reps,
            assignments: OnceLock::new(),
        })
    }

    /// Derives the partition of a coarser node from `parent` by re-keying
    /// the parent's class representatives — O(#classes · dims) instead of
    /// O(rows · dims), exploiting that generalization only merges classes.
    ///
    /// # Errors
    /// [`Error::InvalidHierarchy`] when `levels` is not component-wise ≥
    /// the parent's, or when a dimension whose level changes violates the
    /// class-merge invariant (non-nested ladder); also as
    /// [`GenCodec::validate`].
    pub fn coarsen(&self, parent: &NodePartition, levels: &[usize]) -> Result<NodePartition> {
        self.validate(levels)?;
        for (dim, (&pl, &cl)) in parent.levels.iter().zip(levels).enumerate() {
            if cl < pl {
                return Err(Error::InvalidHierarchy(format!(
                    "coarsen requires levels ≥ the parent's, but dimension {dim} steps {pl} → {cl}"
                )));
            }
            if cl > pl && !self.is_monotone(dim) {
                return Err(Error::InvalidHierarchy(format!(
                    "dimension {dim} violates the class-merge invariant (non-nested ladder); \
                     use partition() instead"
                )));
            }
        }
        let dims: Vec<usize> = (0..self.dims()).collect();
        let view = self.view_of(&dims, levels);

        // Re-key each parent representative under the child levels; parent
        // classes with equal child keys merge. Numbering stays
        // first-appearance because parent classes are already in
        // first-appearance order.
        let mut sizes: Vec<u32> = Vec::new();
        let mut reps: Vec<u32> = Vec::new();
        let mut index: FxMap<u64, u32> = FxMap::default();
        let mut wide: FxMap<Vec<u32>, u32> = FxMap::default();
        let packed = view.packing();
        for (class, &rep) in parent.reps.iter().enumerate() {
            let merged = match &packed {
                Some(shifts) => {
                    let key = view.packed_key(rep as usize, shifts);
                    let next = sizes.len() as u32;
                    *index.entry(key).or_insert(next)
                }
                None => {
                    let key: Vec<u32> = view.columns.iter().map(|c| c[rep as usize]).collect();
                    let next = sizes.len() as u32;
                    *wide.entry(key).or_insert(next)
                }
            };
            if merged as usize == sizes.len() {
                sizes.push(0);
                reps.push(rep);
            }
            sizes[merged as usize] += parent.sizes[class];
        }
        Ok(NodePartition {
            levels: levels.to_vec(),
            sizes,
            reps,
            assignments: OnceLock::new(),
        })
    }

    /// Decodes the node `levels` into a full [`AnonymizedTable`] —
    /// byte-identical to [`Lattice::apply`](crate::lattice::Lattice::apply)
    /// with the same levels. Searches call this only for the nodes they
    /// actually release.
    ///
    /// # Errors
    /// As [`GenCodec::validate`]; propagates table-construction errors.
    pub fn decode(&self, levels: &[usize], name: impl Into<String>) -> Result<AnonymizedTable> {
        self.validate(levels)?;
        let schema = self.dataset.schema();
        // col → (dict, encoded codes) for quasi-identifier columns.
        let mut qi_source: Vec<Option<(&[GenValue], &[u32])>> = vec![None; schema.len()];
        for (dim, column) in self.columns.iter().enumerate() {
            let level = levels[dim];
            qi_source[column.col] = Some((self.dict(dim, level), self.encoded_column(dim, level)));
        }
        let rows = self.dataset.rows();
        let mut records = Vec::with_capacity(rows.len());
        for (t, row) in rows.iter().enumerate() {
            let mut rec = Vec::with_capacity(row.len());
            for (col, value) in row.iter().enumerate() {
                match qi_source[col] {
                    Some((dict, codes)) => rec.push(dict[codes[t] as usize]),
                    None => rec.push(GenValue::raw(*value)),
                }
            }
            records.push(rec);
        }
        AnonymizedTable::new(self.dataset.clone(), records, name)
    }
}

/// A lattice node as per-column `u32` code slices: the allocation-free
/// evaluation form of a full-domain recoding (or of a projection onto a
/// subset of the quasi-identifiers).
#[derive(Debug)]
pub struct EncodedView<'a> {
    rows: usize,
    columns: Vec<&'a [u32]>,
    /// Dictionary size per column (every code is strictly below it).
    dict_sizes: Vec<u32>,
}

impl EncodedView<'_> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The per-column code slices.
    pub fn columns(&self) -> &[&[u32]] {
        &self.columns
    }

    /// Bit-shift layout for packing one row's codes into a `u64`, if the
    /// per-column code widths fit. `shifts[i]` is the bit offset of column
    /// `i`.
    fn packing(&self) -> Option<Vec<u32>> {
        let mut shifts = Vec::with_capacity(self.dict_sizes.len());
        let mut used = 0u32;
        for &size in &self.dict_sizes {
            let bits = u32::BITS - size.max(1).saturating_sub(1).leading_zeros();
            let bits = bits.max(1);
            if used + bits > 64 {
                return None;
            }
            shifts.push(used);
            used += bits;
        }
        Some(shifts)
    }

    /// Packs row `row`'s codes into a single `u64` key under `shifts`.
    fn packed_key(&self, row: usize, shifts: &[u32]) -> u64 {
        self.columns
            .iter()
            .zip(shifts)
            .fold(0u64, |key, (col, &shift)| {
                key | (u64::from(col[row]) << shift)
            })
    }

    /// The full equivalence classes of this view (members and class ids,
    /// first-appearance numbering — identical partition to
    /// [`EquivalenceClasses::group_by_hash`] on the decoded table).
    pub fn classes(&self) -> EquivalenceClasses {
        EquivalenceClasses::group_by_codes(self.rows, &self.columns)
    }

    /// Class sizes plus one representative row per class, without
    /// materializing member lists. First-appearance numbering.
    pub fn sizes_and_reps(&self) -> (Vec<u32>, Vec<u32>) {
        let mut sizes: Vec<u32> = Vec::new();
        let mut reps: Vec<u32> = Vec::new();
        match self.packing() {
            Some(shifts) => {
                let mut index: FxMap<u64, u32> = FxMap::default();
                index.reserve(1024.min(self.rows));
                for row in 0..self.rows {
                    let key = self.packed_key(row, &shifts);
                    let next = sizes.len() as u32;
                    let class = *index.entry(key).or_insert(next);
                    if class == next {
                        sizes.push(0);
                        reps.push(row as u32);
                    }
                    sizes[class as usize] += 1;
                }
            }
            None => {
                // Wide fallback: one flat buffer holds every row key; the
                // map borrows slices of it (single allocation, no per-row
                // Vec).
                let cols = self.columns.len();
                let mut flat: Vec<u32> = Vec::with_capacity(self.rows * cols);
                for row in 0..self.rows {
                    for col in &self.columns {
                        flat.push(col[row]);
                    }
                }
                let mut index: FxMap<&[u32], u32> = FxMap::default();
                for (row, key) in flat.chunks_exact(cols.max(1)).enumerate() {
                    let next = sizes.len() as u32;
                    let class = *index.entry(key).or_insert(next);
                    if class == next {
                        sizes.push(0);
                        reps.push(row as u32);
                    }
                    sizes[class as usize] += 1;
                }
                if cols == 0 && self.rows > 0 {
                    // No columns: all rows share the empty signature.
                    sizes = vec![self.rows as u32];
                    reps = vec![0];
                }
            }
        }
        (sizes, reps)
    }

    /// The size of the smallest class (the achieved `k`), or 0 for an
    /// empty view.
    pub fn min_class_size(&self) -> usize {
        let (sizes, _) = self.sizes_and_reps();
        sizes.iter().copied().min().unwrap_or(0) as usize
    }

    /// The class id of every row, in first-appearance numbering — the
    /// same numbering [`EncodedView::sizes_and_reps`] assigns, and
    /// identical to [`EquivalenceClasses::group_by_hash`] on the decoded
    /// table. This is the per-row view property extractors need without
    /// materializing member lists.
    pub fn class_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = Vec::with_capacity(self.rows);
        let mut count: u32 = 0;
        match self.packing() {
            Some(shifts) => {
                let mut index: FxMap<u64, u32> = FxMap::default();
                index.reserve(1024.min(self.rows));
                for row in 0..self.rows {
                    let key = self.packed_key(row, &shifts);
                    let class = *index.entry(key).or_insert(count);
                    if class == count {
                        count += 1;
                    }
                    ids.push(class);
                }
            }
            None => {
                let cols = self.columns.len();
                if cols == 0 {
                    // No columns: all rows share the empty signature.
                    return vec![0; self.rows];
                }
                let mut flat: Vec<u32> = Vec::with_capacity(self.rows * cols);
                for row in 0..self.rows {
                    for col in &self.columns {
                        flat.push(col[row]);
                    }
                }
                let mut index: FxMap<&[u32], u32> = FxMap::default();
                for key in flat.chunks_exact(cols) {
                    let class = *index.entry(key).or_insert(count);
                    if class == count {
                        count += 1;
                    }
                    ids.push(class);
                }
            }
        }
        ids
    }
}

/// The partition a lattice node induces, reduced to what frequency-set
/// constraint checks need: class sizes plus one representative row per
/// class (for incremental re-keying).
#[derive(Debug, Clone)]
pub struct NodePartition {
    levels: LevelVector,
    sizes: Vec<u32>,
    reps: Vec<u32>,
    /// Per-row class ids, materialized on first request and shared by
    /// every property extractor that asks (cloning a partition clones the
    /// cached assignment along with it).
    assignments: OnceLock<Vec<u32>>,
}

impl NodePartition {
    /// The level vector this partition belongs to.
    pub fn levels(&self) -> &[usize] {
        &self.levels
    }

    /// Number of equivalence classes.
    pub fn class_count(&self) -> usize {
        self.sizes.len()
    }

    /// Class sizes, in first-appearance order.
    pub fn sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// One representative row per class, aligned with
    /// [`NodePartition::sizes`].
    pub fn representatives(&self) -> &[u32] {
        &self.reps
    }

    /// The size of the smallest class, or 0 when empty.
    pub fn min_class_size(&self) -> usize {
        self.sizes.iter().copied().min().unwrap_or(0) as usize
    }

    /// The class id of every row under this partition's levels, computed
    /// from `codec` on first use and cached (first-appearance numbering,
    /// aligned with [`NodePartition::sizes`]). `codec` must be the codec
    /// this partition was derived from.
    ///
    /// # Errors
    /// As [`GenCodec::validate`] when the partition's levels do not fit
    /// `codec` (e.g. a partition paired with a different dataset's codec).
    pub fn class_ids(&self, codec: &GenCodec) -> Result<&[u32]> {
        codec.validate(&self.levels)?;
        Ok(self.assignments.get_or_init(|| {
            let view = codec.view(&self.levels).expect("levels validated above");
            view.class_ids()
        }))
    }

    /// Number of tuples in classes smaller than `k` — the tuples a
    /// k-anonymity constraint would have to suppress. This is Incognito's
    /// frequency-set check, computed on class sizes alone.
    pub fn tuples_below(&self, k: usize) -> usize {
        self.sizes
            .iter()
            .filter(|&&s| (s as usize) < k)
            .map(|&s| s as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intervals::{IntervalLadder, IntervalLevel};
    use crate::lattice::Lattice;
    use crate::schema::{Attribute, Role, Schema};
    use crate::taxonomy::Taxonomy;
    use crate::value::Value;

    fn schema() -> Arc<Schema> {
        Schema::new(vec![
            Attribute::from_taxonomy(
                "city",
                Role::QuasiIdentifier,
                Taxonomy::flat(["a", "b", "c"]).unwrap(),
            ),
            Attribute::integer("age", Role::QuasiIdentifier, 0, 100)
                .with_hierarchy(IntervalLadder::uniform(0, &[10, 20]).unwrap().into())
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
                vec![Value::Cat(0), Value::Int(18), Value::Cat(1)],
                vec![Value::Cat(2), Value::Int(33), Value::Cat(0)],
                vec![Value::Cat(0), Value::Int(15), Value::Cat(1)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn decode_matches_lattice_apply_on_every_node() {
        let ds = dataset();
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        let codec = GenCodec::new(&ds).unwrap();
        for levels in lattice.iter_all() {
            let via_apply = lattice.apply(&ds, &levels, "t").unwrap();
            let via_codec = codec.decode(&levels, "t").unwrap();
            assert_eq!(
                via_apply.records(),
                via_codec.records(),
                "records differ at {levels:?}"
            );
            assert!(via_apply.classes().same_partition(via_codec.classes()));
        }
    }

    #[test]
    fn partition_matches_materialized_grouping() {
        let ds = dataset();
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        let codec = GenCodec::new(&ds).unwrap();
        for levels in lattice.iter_all() {
            let table = lattice.apply(&ds, &levels, "t").unwrap();
            let part = codec.partition(&levels).unwrap();
            assert_eq!(part.class_count(), table.classes().class_count());
            assert_eq!(part.min_class_size(), table.classes().min_class_size());
            // Sizes agree class-by-class under first-appearance numbering.
            let sizes: Vec<u32> = (0..table.classes().class_count())
                .map(|c| table.classes().members(c).len() as u32)
                .collect();
            assert_eq!(part.sizes(), &sizes[..], "sizes differ at {levels:?}");
        }
    }

    #[test]
    fn class_ids_match_materialized_grouping() {
        let ds = dataset();
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        let codec = GenCodec::new(&ds).unwrap();
        for levels in lattice.iter_all() {
            let table = lattice.apply(&ds, &levels, "t").unwrap();
            let expected: Vec<u32> = (0..ds.len())
                .map(|t| table.classes().class_of(t) as u32)
                .collect();
            let view = codec.view(&levels).unwrap();
            assert_eq!(view.class_ids(), expected, "view ids differ at {levels:?}");
            // The cached accessor agrees, for partitions built from
            // scratch and for coarsened ones.
            let part = codec.partition(&levels).unwrap();
            assert_eq!(part.class_ids(&codec).unwrap(), &expected[..]);
            for succ in lattice.successors(&levels) {
                let stepped = codec.coarsen(&part, &succ).unwrap();
                let fresh = codec.partition(&succ).unwrap();
                assert_eq!(
                    stepped.class_ids(&codec).unwrap(),
                    fresh.class_ids(&codec).unwrap(),
                    "coarsened ids differ at {levels:?} → {succ:?}"
                );
            }
        }
    }

    #[test]
    fn coarsen_agrees_with_partition_from_scratch() {
        let ds = dataset();
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        let codec = GenCodec::new(&ds).unwrap();
        assert!(codec.monotone(), "uniform ladders are nested");
        for levels in lattice.iter_all() {
            let parent = codec.partition(&levels).unwrap();
            for succ in lattice.successors(&levels) {
                let stepped = codec.coarsen(&parent, &succ).unwrap();
                let fresh = codec.partition(&succ).unwrap();
                assert_eq!(stepped.sizes(), fresh.sizes(), "at {levels:?} → {succ:?}");
                assert_eq!(stepped.class_count(), fresh.class_count());
            }
        }
    }

    #[test]
    fn coarsen_rejects_finer_levels() {
        let ds = dataset();
        let codec = GenCodec::new(&ds).unwrap();
        let parent = codec.partition(&[1, 1]).unwrap();
        assert!(matches!(
            codec.coarsen(&parent, &[0, 1]),
            Err(Error::InvalidHierarchy(_))
        ));
    }

    #[test]
    fn non_nested_ladder_detected_and_coarsen_refused() {
        // Level 1 (origin 0, width 10) puts 5 and 6 in (0,10] together;
        // level 2 (origin 5, width 20) separates them into (-15,5] and
        // (5,25] — a level-1 class *splits* when stepping up, violating
        // the class-merge invariant.
        let ladder = IntervalLadder::new_unchecked(vec![
            IntervalLevel {
                origin: 0,
                width: 10,
            },
            IntervalLevel {
                origin: 5,
                width: 20,
            },
        ])
        .unwrap();
        let schema = Schema::new(vec![Attribute::integer(
            "age",
            Role::QuasiIdentifier,
            0,
            100,
        )
        .with_hierarchy(ladder.into())
        .unwrap()])
        .unwrap();
        let ds = Dataset::new(schema, vec![vec![Value::Int(5)], vec![Value::Int(6)]]).unwrap();
        let codec = GenCodec::new(&ds).unwrap();
        assert!(
            !codec.is_monotone(0),
            "origin-shifted ladder splits classes"
        );
        let parent = codec.partition(&[1]).unwrap();
        assert_eq!(parent.class_count(), 1, "5 and 6 share (0,10]");
        assert!(codec.coarsen(&parent, &[2]).is_err());
        // From-scratch partition is still correct: they split at level 2.
        assert_eq!(codec.partition(&[2]).unwrap().class_count(), 2);
    }

    #[test]
    fn view_subset_projects() {
        let ds = dataset();
        let codec = GenCodec::new(&ds).unwrap();
        // Project onto the city column only, raw: 3 distinct cities.
        let view = codec.view_subset(&[0], &[0]).unwrap();
        let (sizes, _) = view.sizes_and_reps();
        assert_eq!(sizes.len(), 3);
        assert_eq!(sizes.iter().sum::<u32>() as usize, ds.len());
        // Fully generalized projection: one class.
        let view = codec.view_subset(&[0], &[1]).unwrap();
        assert_eq!(view.sizes_and_reps().0, vec![ds.len() as u32]);
        // Arity and range validation.
        assert!(codec.view_subset(&[0], &[0, 1]).is_err());
        assert!(codec.view_subset(&[0], &[9]).is_err());
    }

    #[test]
    fn distinct_at_counts_present_generalizations() {
        let ds = dataset();
        let codec = GenCodec::new(&ds).unwrap();
        // Ages 15, 25, 18, 33, 15 → 4 distinct raw, 3 level-1 buckets
        // ((10,20], (20,30], (30,40]), 2 level-2 buckets ((0,20], (20,40]).
        assert_eq!(codec.distinct_at(1, 0), 4);
        assert_eq!(codec.distinct_at(1, 1), 3);
        assert_eq!(codec.distinct_at(1, 2), 2);
        assert_eq!(codec.distinct_at(1, 3), 1, "suppression: one value");
    }

    #[test]
    fn validate_errors() {
        let ds = dataset();
        let codec = GenCodec::new(&ds).unwrap();
        assert!(matches!(codec.view(&[0]), Err(Error::ArityMismatch { .. })));
        assert!(matches!(
            codec.view(&[0, 9]),
            Err(Error::LevelOutOfRange { .. })
        ));
    }

    #[test]
    fn missing_hierarchy_rejected() {
        let s = Schema::new(vec![Attribute::integer("age", Role::QuasiIdentifier, 0, 9)]).unwrap();
        let ds = Dataset::new(s, vec![vec![Value::Int(1)]]).unwrap();
        assert!(matches!(
            GenCodec::new(&ds),
            Err(Error::MissingHierarchy(_))
        ));
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::new(schema(), vec![]).unwrap();
        let codec = GenCodec::new(&ds).unwrap();
        let part = codec.partition(&[0, 0]).unwrap();
        assert_eq!(part.class_count(), 0);
        assert_eq!(part.min_class_size(), 0);
        assert_eq!(part.tuples_below(5), 0);
    }

    #[test]
    fn tuples_below_counts_violators() {
        let ds = dataset();
        let codec = GenCodec::new(&ds).unwrap();
        // Raw node: rows 0 and 4 share (city a, age 15); others singletons.
        let part = codec.partition(&[0, 0]).unwrap();
        assert_eq!(part.class_count(), 4);
        assert_eq!(part.tuples_below(2), 3, "three singletons");
        assert_eq!(part.tuples_below(3), 5, "every tuple sits below 3");
        assert_eq!(part.tuples_below(1), 0);
    }
}
