//! Dictionary-encoded columnar generalization codec.
//!
//! Every full-domain lattice search (Datafly, Samarati, Incognito, the
//! exhaustive optimal baseline and the rest of `anoncmp-anonymize`'s
//! roster) evaluates thousands of lattice nodes, and evaluating a node
//! through [`Lattice::apply`] materializes a complete
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
//! [`AnonymizedTable`] happens only for the nodes a search releases or
//! scores as tables.
//!
//! # The lattice index
//!
//! A sweep runs many full-domain searches over one dataset, and they
//! evaluate the same nodes again and again. A [`LatticeIndex`] owns one
//! dataset's [`Lattice`] and codec and keeps, per node, only a
//! [`NodeSummary`]: the class count and an ascending histogram of class
//! sizes, grouped over every row by [`GenCodec::partition`]'s kernel the
//! first time any search asks. That is all a frequency-set check reads
//! (`tuples_below(k)` for any `k`). Keeping per-class representatives
//! instead, to coarsen a node from a stored predecessor, would hold every
//! class of every node for a small saving in grouping time.
//!
//! [`Lattice::apply`]: crate::lattice::Lattice::apply

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::anonymized::{AnonymizedTable, EquivalenceClasses};
use crate::dataset::Dataset;
use crate::error::{Error, Result};
use crate::hash::FxMap;
use crate::lattice::{Lattice, LevelVector};
use crate::parallel::lock;
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

            columns.push(ColumnCodec {
                col,
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
        let nodes = levels.iter().enumerate();
        Ok(EncodedView {
            rows: self.rows(),
            columns: nodes
                .clone()
                .map(|(dim, &level)| self.encoded_column(dim, level))
                .collect(),
            dict_sizes: nodes
                .map(|(dim, &level)| self.distinct_at(dim, level) as u32)
                .collect(),
        })
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

    /// Decodes the node `levels` into a full [`AnonymizedTable`] —
    /// byte-identical to [`Lattice::apply`](crate::lattice::Lattice::apply)
    /// with the same levels. Searches call this only for the nodes they
    /// release or score as tables.
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

/// What the lattice searches read of a node's partition: the class count
/// and an ascending `(size, classes of that size)` histogram. Cloning
/// shares the histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSummary {
    class_count: usize,
    histogram: Arc<[(u32, u32)]>,
}

impl NodeSummary {
    fn of(mut sizes: Vec<u32>) -> Self {
        sizes.sort_unstable();
        let mut histogram: Vec<(u32, u32)> = Vec::new();
        for size in sizes.iter().copied() {
            match histogram.last_mut() {
                Some((last, count)) if *last == size => *count += 1,
                _ => histogram.push((size, 1)),
            }
        }
        NodeSummary {
            class_count: sizes.len(),
            histogram: histogram.into(),
        }
    }

    /// Number of equivalence classes.
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// Number of tuples in classes smaller than `k`, as
    /// [`NodePartition::tuples_below`].
    pub fn tuples_below(&self, k: usize) -> usize {
        self.histogram
            .iter()
            .take_while(|&&(size, _)| (size as usize) < k)
            .map(|&(size, count)| size as usize * count as usize)
            .sum()
    }
}

/// One dataset's lattice and codec plus a [`NodeSummary`] per lattice node
/// that any search has asked for (see the module docs).
///
/// Share one index across every search of a dataset: each node is grouped
/// once, the first time any caller asks for it, and the node table grows
/// only with the nodes asked for. Concurrent callers are safe, and which
/// caller grouped a node cannot change its summary.
///
/// ```
/// use anoncmp_microdata::prelude::*;
///
/// let schema = Schema::new(vec![Attribute::integer("age", Role::QuasiIdentifier, 0, 100)
///     .with_hierarchy(IntervalLadder::uniform(0, &[10, 20]).unwrap().into())
///     .unwrap()])
/// .unwrap();
/// let rows = [15, 18, 25].map(|age| vec![Value::Int(age)]).to_vec();
/// let index = LatticeIndex::new(&Dataset::new(schema, rows).unwrap()).unwrap();
/// let node = index.summary(&[1]).unwrap();
/// assert_eq!(node.class_count(), 2, "(10,20] and (20,30]");
/// assert_eq!(node.tuples_below(2), 1);
/// assert_eq!(index.grouped(), 1);
/// ```
#[derive(Debug)]
pub struct LatticeIndex {
    lattice: Lattice,
    codec: GenCodec,
    nodes: Mutex<FxMap<LevelVector, Arc<OnceLock<NodeSummary>>>>,
}

impl LatticeIndex {
    /// Builds the lattice and codec of `dataset`; groups no node.
    ///
    /// # Errors
    /// As [`Lattice::new`], then as [`GenCodec::new`].
    pub fn new(dataset: &Arc<Dataset>) -> Result<Self> {
        Ok(LatticeIndex {
            lattice: Lattice::new(dataset.schema().clone())?,
            codec: GenCodec::new(dataset)?,
            nodes: Mutex::default(),
        })
    }

    /// The dataset's generalization lattice.
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// The dataset's codec.
    pub fn codec(&self) -> &GenCodec {
        &self.codec
    }

    /// The summary of the node `levels`, grouped on the first request.
    ///
    /// # Errors
    /// As [`GenCodec::validate`].
    pub fn summary(&self, levels: &[usize]) -> Result<NodeSummary> {
        self.codec.validate(levels)?;
        let slot = {
            let mut nodes = lock(&self.nodes);
            match nodes.get(levels) {
                Some(slot) => Arc::clone(slot),
                None => Arc::clone(nodes.entry(levels.to_vec()).or_default()),
            }
        };
        // Grouped outside the map lock, so other nodes are not held up.
        let summary = slot.get_or_init(|| {
            let view = self.codec.view(levels).expect("levels validated above");
            NodeSummary::of(view.sizes_and_reps().0)
        });
        Ok(summary.clone())
    }

    /// Number of nodes asked for so far.
    pub fn grouped(&self) -> usize {
        lock(&self.nodes).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intervals::IntervalLadder;
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
            // The cached accessor agrees.
            let part = codec.partition(&levels).unwrap();
            assert_eq!(part.class_ids(&codec).unwrap(), &expected[..]);
        }
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
