//! The full-domain generalization lattice.
//!
//! Under full-domain recoding (Samarati, Sweeney, Incognito) an
//! anonymization is identified by a *level vector*: one generalization level
//! per quasi-identifier attribute, applied uniformly to every tuple. These
//! vectors form a lattice ordered component-wise, with the raw table at the
//! bottom and the fully suppressed table at the top. Search algorithms in
//! `anoncmp-anonymize` navigate this lattice.

use std::sync::Arc;

use crate::anonymized::AnonymizedTable;
use crate::codec::{GenCodec, NodePartition};
use crate::dataset::Dataset;
use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::value::GenValue;

/// A level vector: `levels[i]` is the generalization level of the `i`-th
/// quasi-identifier attribute (in [`Schema::quasi_identifiers`] order).
pub type LevelVector = Vec<usize>;

/// The full-domain generalization lattice of a schema.
///
/// ```
/// use anoncmp_microdata::prelude::*;
///
/// let schema = Schema::new(vec![
///     Attribute::integer("age", Role::QuasiIdentifier, 0, 100)
///         .with_hierarchy(IntervalLadder::uniform(0, &[10, 20]).unwrap().into())
///         .unwrap(),
///     Attribute::from_taxonomy(
///         "zip",
///         Role::QuasiIdentifier,
///         Taxonomy::masking(&["130", "132"], &[1, 2]).unwrap(),
///     ),
/// ]).unwrap();
/// let lattice = Lattice::new(schema).unwrap();
/// assert_eq!(lattice.dimensions(), 2);
/// assert_eq!(lattice.bottom(), vec![0, 0]);
/// assert_eq!(lattice.node_count(), 4 * 4);
/// ```
#[derive(Debug, Clone)]
pub struct Lattice {
    schema: Arc<Schema>,
    /// Maximum level per QI attribute (hierarchy heights).
    max_levels: Vec<usize>,
}

impl Lattice {
    /// Builds the lattice for `schema`.
    ///
    /// # Errors
    /// Returns [`Error::MissingHierarchy`] if any quasi-identifier
    /// attribute lacks a generalization hierarchy.
    pub fn new(schema: Arc<Schema>) -> Result<Self> {
        let mut max_levels = Vec::with_capacity(schema.quasi_identifiers().len());
        for &qi in schema.quasi_identifiers() {
            let attr = schema.attribute(qi);
            let h = attr
                .hierarchy()
                .ok_or_else(|| Error::MissingHierarchy(attr.name().to_owned()))?;
            max_levels.push(h.max_level());
        }
        Ok(Lattice { schema, max_levels })
    }

    /// The schema this lattice generalizes.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of quasi-identifier attributes (lattice dimensions).
    pub fn dimensions(&self) -> usize {
        self.max_levels.len()
    }

    /// Maximum level per dimension.
    pub fn max_levels(&self) -> &[usize] {
        &self.max_levels
    }

    /// The bottom element (raw release).
    pub fn bottom(&self) -> LevelVector {
        vec![0; self.max_levels.len()]
    }

    /// The top element (full suppression).
    pub fn top(&self) -> LevelVector {
        self.max_levels.clone()
    }

    /// Sum of levels: the conventional "height" of a lattice node.
    pub fn height_of(&self, levels: &[usize]) -> usize {
        levels.iter().sum()
    }

    /// The maximum height (height of the top element).
    pub fn max_height(&self) -> usize {
        self.max_levels.iter().sum()
    }

    /// Total number of lattice nodes: `Π (max_level_i + 1)`.
    pub fn node_count(&self) -> usize {
        self.max_levels.iter().map(|&m| m + 1).product()
    }

    /// Whether `levels` is a valid node of this lattice.
    pub fn contains(&self, levels: &[usize]) -> bool {
        levels.len() == self.max_levels.len()
            && levels.iter().zip(&self.max_levels).all(|(&l, &m)| l <= m)
    }

    /// Validates a level vector.
    ///
    /// # Errors
    /// [`Error::ArityMismatch`] for wrong dimensionality,
    /// [`Error::LevelOutOfRange`] for an out-of-range component.
    pub fn validate(&self, levels: &[usize]) -> Result<()> {
        if levels.len() != self.max_levels.len() {
            return Err(Error::ArityMismatch {
                expected: self.max_levels.len(),
                actual: levels.len(),
            });
        }
        for (dim, (&l, &m)) in levels.iter().zip(&self.max_levels).enumerate() {
            if l > m {
                let qi = self.schema.quasi_identifiers()[dim];
                return Err(Error::LevelOutOfRange {
                    attribute: self.schema.attribute(qi).name().to_owned(),
                    level: l,
                    max: m,
                });
            }
        }
        Ok(())
    }

    /// Direct successors: one component incremented.
    pub fn successors(&self, levels: &[usize]) -> Vec<LevelVector> {
        let mut out = Vec::new();
        for i in 0..levels.len() {
            if levels[i] < self.max_levels[i] {
                let mut s = levels.to_vec();
                s[i] += 1;
                out.push(s);
            }
        }
        out
    }

    /// Direct predecessors: one component decremented.
    pub fn predecessors(&self, levels: &[usize]) -> Vec<LevelVector> {
        let mut out = Vec::new();
        for i in 0..levels.len() {
            if levels[i] > 0 {
                let mut s = levels.to_vec();
                s[i] -= 1;
                out.push(s);
            }
        }
        out
    }

    /// Component-wise order: whether `a ≤ b` in the lattice (so `b` is at
    /// least as generalized as `a` in every dimension).
    pub fn leq(a: &[usize], b: &[usize]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x <= y)
    }

    /// Iterates every lattice node in lexicographic order.
    pub fn iter_all(&self) -> LatticeIter<'_> {
        LatticeIter {
            lattice: self,
            next: Some(self.bottom()),
        }
    }

    /// All nodes at the given height (sum of levels). Used by Samarati's
    /// binary search over heights.
    pub fn nodes_at_height(&self, height: usize) -> Vec<LevelVector> {
        let mut out = Vec::new();
        let mut cur = vec![0usize; self.max_levels.len()];
        self.collect_at_height(0, height, &mut cur, &mut out);
        out
    }

    fn collect_at_height(
        &self,
        dim: usize,
        remaining: usize,
        cur: &mut LevelVector,
        out: &mut Vec<LevelVector>,
    ) {
        if dim == self.max_levels.len() {
            if remaining == 0 {
                out.push(cur.clone());
            }
            return;
        }
        // Prune: remaining must be attainable by the suffix dimensions.
        let suffix_max: usize = self.max_levels[dim..].iter().sum();
        if remaining > suffix_max {
            return;
        }
        let cap = remaining.min(self.max_levels[dim]);
        for l in 0..=cap {
            cur[dim] = l;
            self.collect_at_height(dim + 1, remaining - l, cur, out);
        }
        cur[dim] = 0;
    }

    /// Applies the level vector to `dataset`, producing the full-domain
    /// recoded release. Non-QI attributes are released raw.
    ///
    /// # Errors
    /// As [`Lattice::validate`]; also propagates generalization errors.
    pub fn apply(
        &self,
        dataset: &Arc<Dataset>,
        levels: &[usize],
        name: impl Into<String>,
    ) -> Result<AnonymizedTable> {
        self.apply_with_extra(dataset, levels, &[], name)
    }

    /// Like [`Lattice::apply`], but additionally generalizes the listed
    /// non-QI columns (`(column, level)` pairs) with their own hierarchies.
    ///
    /// The paper's Tables 2–3 generalize the *sensitive* Marital Status
    /// attribute alongside the quasi-identifiers (e.g. `CF-Spouse →
    /// Married`); equivalence classes are still induced over the
    /// quasi-identifiers only.
    ///
    /// # Errors
    /// As [`Lattice::validate`]; [`Error::MissingHierarchy`] when an extra
    /// column has no hierarchy; propagates generalization errors.
    pub fn apply_with_extra(
        &self,
        dataset: &Arc<Dataset>,
        levels: &[usize],
        extra: &[(usize, usize)],
        name: impl Into<String>,
    ) -> Result<AnonymizedTable> {
        self.validate(levels)?;
        let schema = dataset.schema();
        debug_assert!(Arc::ptr_eq(schema, &self.schema) || schema.len() == self.schema.len());
        let qi = schema.quasi_identifiers();
        let mut records = Vec::with_capacity(dataset.len());
        for row in dataset.rows() {
            let mut rec = Vec::with_capacity(row.len());
            for (col, value) in row.iter().enumerate() {
                let requested_level = match qi.iter().position(|&q| q == col) {
                    Some(dim) => Some(levels[dim]),
                    None => extra.iter().find(|(c, _)| *c == col).map(|&(_, l)| l),
                };
                match requested_level {
                    Some(level) => {
                        let h = schema.attribute(col).hierarchy().ok_or_else(|| {
                            Error::MissingHierarchy(schema.attribute(col).name().to_owned())
                        })?;
                        rec.push(h.generalize(value, level)?);
                    }
                    None => rec.push(GenValue::raw(*value)),
                }
            }
            records.push(rec);
        }
        AnonymizedTable::new(dataset.clone(), records, name)
    }

    /// Like [`Lattice::apply`], but through a prebuilt [`GenCodec`]:
    /// decodes the node from the codec's interned dictionaries instead of
    /// re-generalizing every cell. Produces a byte-identical
    /// [`AnonymizedTable`]. Searches should call this only for the nodes
    /// they actually release and use [`Lattice::evaluate_node`] everywhere
    /// else.
    ///
    /// # Errors
    /// As [`Lattice::validate`]; propagates codec errors.
    pub fn apply_encoded(
        &self,
        codec: &GenCodec,
        levels: &[usize],
        name: impl Into<String>,
    ) -> Result<AnonymizedTable> {
        self.validate(levels)?;
        debug_assert!(
            Arc::ptr_eq(codec.dataset().schema(), &self.schema)
                || codec.dataset().schema().len() == self.schema.len()
        );
        codec.decode(levels, name)
    }

    /// Evaluates a lattice node without materializing a table: the
    /// equivalence-class sizes (plus representatives for incremental
    /// coarsening) that frequency-set constraint checks need.
    ///
    /// # Errors
    /// As [`Lattice::validate`]; propagates codec errors.
    pub fn evaluate_node(&self, codec: &GenCodec, levels: &[usize]) -> Result<NodePartition> {
        self.validate(levels)?;
        codec.partition(levels)
    }
}

/// Lexicographic iterator over all nodes of a [`Lattice`].
pub struct LatticeIter<'a> {
    lattice: &'a Lattice,
    next: Option<LevelVector>,
}

impl Iterator for LatticeIter<'_> {
    type Item = LevelVector;

    fn next(&mut self) -> Option<LevelVector> {
        let cur = self.next.take()?;
        // Compute the lexicographic successor (odometer increment from the
        // last dimension).
        let mut succ = cur.clone();
        let max = &self.lattice.max_levels;
        let mut dim = succ.len();
        loop {
            if dim == 0 {
                self.next = None;
                break;
            }
            dim -= 1;
            if succ[dim] < max[dim] {
                succ[dim] += 1;
                for s in succ.iter_mut().skip(dim + 1) {
                    *s = 0;
                }
                self.next = Some(succ);
                break;
            }
        }
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intervals::IntervalLadder;
    use crate::schema::{Attribute, Role};
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
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let l = Lattice::new(schema()).unwrap();
        assert_eq!(l.dimensions(), 2);
        assert_eq!(l.max_levels(), &[1, 3]);
        assert_eq!(l.bottom(), vec![0, 0]);
        assert_eq!(l.top(), vec![1, 3]);
        assert_eq!(l.node_count(), 8);
        assert_eq!(l.max_height(), 4);
        assert!(l.contains(&[1, 2]));
        assert!(!l.contains(&[2, 0]));
        assert!(!l.contains(&[0]));
    }

    #[test]
    fn missing_hierarchy_rejected() {
        let s = Schema::new(vec![Attribute::integer("age", Role::QuasiIdentifier, 0, 9)]).unwrap();
        assert!(matches!(Lattice::new(s), Err(Error::MissingHierarchy(_))));
    }

    #[test]
    fn navigation() {
        let l = Lattice::new(schema()).unwrap();
        assert_eq!(l.successors(&[0, 0]), vec![vec![1, 0], vec![0, 1]]);
        assert_eq!(l.successors(&[1, 3]), Vec::<LevelVector>::new());
        assert_eq!(l.predecessors(&[0, 0]), Vec::<LevelVector>::new());
        assert_eq!(l.predecessors(&[1, 1]), vec![vec![0, 1], vec![1, 0]]);
        assert!(Lattice::leq(&[0, 1], &[1, 1]));
        assert!(!Lattice::leq(&[1, 0], &[0, 3]));
    }

    #[test]
    fn iter_all_visits_every_node_once() {
        let l = Lattice::new(schema()).unwrap();
        let nodes: Vec<_> = l.iter_all().collect();
        assert_eq!(nodes.len(), l.node_count());
        let mut dedup = nodes.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), nodes.len());
        assert_eq!(nodes[0], l.bottom());
        assert_eq!(nodes[nodes.len() - 1], l.top());
    }

    #[test]
    fn nodes_at_height_partition_the_lattice() {
        let l = Lattice::new(schema()).unwrap();
        let mut total = 0;
        for h in 0..=l.max_height() {
            let nodes = l.nodes_at_height(h);
            for n in &nodes {
                assert_eq!(l.height_of(n), h);
                assert!(l.contains(n));
            }
            total += nodes.len();
        }
        assert_eq!(total, l.node_count());
        assert_eq!(l.nodes_at_height(0), vec![vec![0, 0]]);
        assert_eq!(l.nodes_at_height(l.max_height()), vec![l.top()]);
    }

    #[test]
    fn apply_generalizes_qi_only() {
        let l = Lattice::new(schema()).unwrap();
        let ds = dataset();
        let t = l.apply(&ds, &[1, 1], "t").unwrap();
        // city at level 1 = suppressed (flat taxonomy top).
        assert_eq!(t.cell(0, 0), &GenValue::Suppressed);
        // age 15 at level 1 → (10,20].
        assert_eq!(t.cell(0, 1), &GenValue::Interval { lo: 10, hi: 20 });
        // sensitive column raw.
        assert_eq!(t.cell(0, 2), &GenValue::Cat(0));
        assert_eq!(t.name(), "t");
    }

    #[test]
    fn apply_bottom_is_identity_release() {
        let l = Lattice::new(schema()).unwrap();
        let ds = dataset();
        let t = l.apply(&ds, &[0, 0], "raw").unwrap();
        assert_eq!(t.cell(1, 0), &GenValue::Cat(1));
        assert_eq!(t.cell(1, 1), &GenValue::Int(25));
        // Raw release: each distinct row is its own class.
        assert_eq!(t.classes().class_count(), 3);
    }

    #[test]
    fn apply_top_fully_generalizes_without_record_suppression() {
        let l = Lattice::new(schema()).unwrap();
        let ds = dataset();
        let t = l.apply(&ds, &l.top(), "top").unwrap();
        assert_eq!(t.classes().class_count(), 1);
        // Full generalization renders every QI cell `*` but does NOT count
        // as record suppression (no suppression mask set).
        assert_eq!(t.suppressed_count(), 0);
        assert!(t.cell(0, 0).is_suppressed());
    }

    #[test]
    fn apply_validates_levels() {
        let l = Lattice::new(schema()).unwrap();
        let ds = dataset();
        assert!(matches!(
            l.apply(&ds, &[0], "t"),
            Err(Error::ArityMismatch { .. })
        ));
        assert!(matches!(
            l.apply(&ds, &[0, 9], "t"),
            Err(Error::LevelOutOfRange { .. })
        ));
    }

    #[test]
    fn apply_with_extra_generalizes_sensitive_columns() {
        // Attach a hierarchy to the sensitive column and generalize it too.
        let schema = Schema::new(vec![
            Attribute::from_taxonomy(
                "city",
                Role::QuasiIdentifier,
                Taxonomy::flat(["a", "b", "c"]).unwrap(),
            ),
            Attribute::from_taxonomy("d", Role::Sensitive, Taxonomy::flat(["s1", "s2"]).unwrap()),
        ])
        .unwrap();
        let ds = Dataset::new(
            schema.clone(),
            vec![
                vec![Value::Cat(0), Value::Cat(0)],
                vec![Value::Cat(1), Value::Cat(1)],
            ],
        )
        .unwrap();
        let l = Lattice::new(schema).unwrap();
        let t = l.apply_with_extra(&ds, &[0], &[(1, 1)], "t").unwrap();
        assert_eq!(t.cell(0, 0), &GenValue::Cat(0), "QI stays at level 0");
        assert_eq!(t.cell(0, 1), &GenValue::Suppressed, "sensitive generalized");
        // Classes are still split on the raw QI.
        assert_eq!(t.classes().class_count(), 2);
        // Missing hierarchy on an extra column errors.
        let schema2 = Schema::new(vec![
            Attribute::from_taxonomy(
                "city",
                Role::QuasiIdentifier,
                Taxonomy::flat(["a", "b", "c"]).unwrap(),
            ),
            Attribute::categorical("d", Role::Sensitive, ["s1", "s2"]),
        ])
        .unwrap();
        let ds2 = Dataset::new(schema2.clone(), vec![vec![Value::Cat(0), Value::Cat(0)]]).unwrap();
        let l2 = Lattice::new(schema2).unwrap();
        assert!(matches!(
            l2.apply_with_extra(&ds2, &[0], &[(1, 1)], "t"),
            Err(Error::MissingHierarchy(_))
        ));
    }

    #[test]
    fn encoded_paths_agree_with_apply() {
        let l = Lattice::new(schema()).unwrap();
        let ds = dataset();
        let codec = GenCodec::new(&ds).unwrap();
        for levels in l.iter_all() {
            let direct = l.apply(&ds, &levels, "t").unwrap();
            let encoded = l.apply_encoded(&codec, &levels, "t").unwrap();
            assert_eq!(direct.records(), encoded.records());
            let part = l.evaluate_node(&codec, &levels).unwrap();
            assert_eq!(part.class_count(), direct.classes().class_count());
            assert_eq!(part.min_class_size(), direct.classes().min_class_size());
        }
        // Both new APIs validate like `apply`.
        assert!(matches!(
            l.apply_encoded(&codec, &[0], "t"),
            Err(Error::ArityMismatch { .. })
        ));
        assert!(matches!(
            l.evaluate_node(&codec, &[0, 9]),
            Err(Error::LevelOutOfRange { .. })
        ));
    }

    #[test]
    fn monotonicity_of_class_counts() {
        // Coarser level vectors can only merge classes, never split them.
        let l = Lattice::new(schema()).unwrap();
        let ds = dataset();
        let mut prev = usize::MAX;
        for levels in [vec![0, 0], vec![0, 1], vec![1, 1], vec![1, 2], vec![1, 3]] {
            let t = l.apply(&ds, &levels, "t").unwrap();
            assert!(t.classes().class_count() <= prev);
            prev = t.classes().class_count();
        }
    }
}
