//! Query-workload utility: how well an anonymized release answers
//! aggregate queries.
//!
//! §6 motivates Mondrian-style multidimensional recoding as "often
//! advantageous in answering queries with predicates on more than just one
//! attribute"; this module makes that measurable. A [`Workload`] of random
//! COUNT(*) range queries over the quasi-identifiers is evaluated on the
//! original data (ground truth) and *estimated* on a release under the
//! standard uniform-intra-region assumption: a generalized cell
//! contributes the fraction of its region that overlaps the query. The
//! per-query relative errors summarize downstream analytical utility, and
//! [`Workload::tuple_error_vector`] decomposes the error per tuple so the
//! paper's comparators apply to query utility just like to any other
//! property.

use anoncmp_microdata::prelude::{AnonymizedTable, Dataset, Domain, GenValue, Value};

use crate::theory::SplitMix64;
use crate::vector::PropertyVector;

/// A conjunctive range predicate over quasi-identifier columns:
/// `(column, lo, hi)` with the half-open convention `lo < v ≤ hi`;
/// categorical columns use `(lo, hi]` over category ids.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeQuery {
    /// The conjuncts, one per involved column.
    pub predicates: Vec<(usize, i64, i64)>,
}

impl RangeQuery {
    /// Whether a raw tuple of `dataset` matches the query.
    pub fn matches(&self, dataset: &Dataset, tuple: usize) -> bool {
        self.predicates
            .iter()
            .all(|&(col, lo, hi)| match dataset.value(tuple, col) {
                Value::Int(v) => lo < *v && *v <= hi,
                Value::Cat(c) => lo < *c as i64 && (*c as i64) <= hi,
            })
    }

    /// The exact COUNT(*) answer on the original data.
    pub fn true_count(&self, dataset: &Dataset) -> f64 {
        (0..dataset.len())
            .filter(|&t| self.matches(dataset, t))
            .count() as f64
    }

    /// The estimated COUNT(*) on a release: each tuple contributes the
    /// product over predicates of the overlap fraction between its
    /// generalized cell region and the predicate interval (uniform
    /// intra-region assumption).
    pub fn estimated_count(&self, table: &AnonymizedTable) -> f64 {
        (0..table.len())
            .map(|t| self.tuple_contribution(table, t))
            .sum()
    }

    /// One tuple's estimated membership probability in `[0, 1]`.
    pub fn tuple_contribution(&self, table: &AnonymizedTable, tuple: usize) -> f64 {
        let ds = table.dataset();
        self.predicates
            .iter()
            .map(|&(col, lo, hi)| cell_overlap(ds, col, table.cell(tuple, col), lo, hi))
            .product()
    }
}

/// Overlap fraction of a generalized cell's region with `(lo, hi]`.
fn cell_overlap(ds: &Dataset, col: usize, gv: &GenValue, lo: i64, hi: i64) -> f64 {
    let attr = ds.schema().attribute(col);
    match gv {
        GenValue::Int(v) => {
            if lo < *v && *v <= hi {
                1.0
            } else {
                0.0
            }
        }
        GenValue::Cat(c) => {
            let v = *c as i64;
            if lo < v && v <= hi {
                1.0
            } else {
                0.0
            }
        }
        GenValue::Interval { lo: clo, hi: chi } => {
            // In i128: a cell of an extreme domain is wider than i64.
            let width = (i128::from(*chi) - i128::from(*clo)) as f64;
            if width <= 0.0 {
                return 0.0;
            }
            let overlap = (i128::from((*chi).min(hi)) - i128::from((*clo).max(lo))).max(0);
            overlap as f64 / width
        }
        GenValue::Node(n) => {
            // Fraction of the node's leaves whose category id lies in the
            // interval.
            match attr.hierarchy().and_then(|h| h.as_taxonomy()) {
                Some(tax) => {
                    let leaves = tax.leaf_cats_under(*n);
                    if leaves.is_empty() {
                        return 0.0;
                    }
                    let inside = leaves
                        .iter()
                        .filter(|&&c| lo < c as i64 && (c as i64) <= hi)
                        .count();
                    inside as f64 / leaves.len() as f64
                }
                None => 0.0,
            }
        }
        GenValue::Suppressed => {
            // Full-domain region.
            match attr.domain() {
                Domain::Integer { min, max } => {
                    // In i128: an extreme domain's width and `min − 1`
                    // overflow i64.
                    let (min, max) = (i128::from(*min), i128::from(*max));
                    let span = (max - min + 1) as f64;
                    let o = (max.min(i128::from(hi)) - (min - 1).max(i128::from(lo))).max(0);
                    o as f64 / span
                }
                Domain::Categorical { labels } => {
                    let n = labels.len() as f64;
                    if n == 0.0 {
                        return 0.0;
                    }
                    let inside = (0..labels.len() as i64)
                        .filter(|&c| lo < c && c <= hi)
                        .count();
                    inside as f64 / n
                }
            }
        }
    }
}

/// A deterministic workload of random conjunctive range queries.
///
/// ```
/// use anoncmp_core::prelude::*;
/// use anoncmp_microdata::prelude::*;
///
/// let schema = Schema::new(vec![
///     Attribute::integer("age", Role::QuasiIdentifier, 0, 100)
///         .with_hierarchy(IntervalLadder::uniform(0, &[10]).unwrap().into())
///         .unwrap(),
///     Attribute::categorical("d", Role::Sensitive, ["x", "y"]),
/// ]).unwrap();
/// let ds = Dataset::new(schema.clone(), vec![
///     vec![Value::Int(12), Value::Cat(0)],
///     vec![Value::Int(15), Value::Cat(1)],
/// ]).unwrap();
///
/// // The raw release answers any workload exactly.
/// let raw = AnonymizedTable::identity(ds.clone(), "raw");
/// let workload = Workload::random(&ds, 25, 1, 0.3, 42);
/// assert_eq!(workload.mean_relative_error(&raw), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Workload {
    queries: Vec<RangeQuery>,
}

impl Workload {
    /// Wraps explicit queries.
    pub fn new(queries: Vec<RangeQuery>) -> Self {
        Workload { queries }
    }

    /// Generates `count` random queries, each constraining `dims` randomly
    /// chosen quasi-identifier columns with ranges covering roughly
    /// `selectivity` of each column's domain. Deterministic in `seed`.
    ///
    /// # Panics
    /// Panics if the schema has no quasi-identifiers, `dims` is zero, or
    /// `selectivity` is outside `(0, 1]`.
    pub fn random(
        dataset: &Dataset,
        count: usize,
        dims: usize,
        selectivity: f64,
        seed: u64,
    ) -> Self {
        let qi = dataset.schema().quasi_identifiers();
        assert!(!qi.is_empty(), "workload needs quasi-identifier columns");
        assert!(dims >= 1, "queries need at least one predicate");
        assert!(
            selectivity > 0.0 && selectivity <= 1.0,
            "selectivity must be in (0, 1]"
        );
        let mut rng = SplitMix64::new(seed);
        let mut queries = Vec::with_capacity(count);
        for _ in 0..count {
            let mut predicates = Vec::with_capacity(dims);
            for _ in 0..dims.min(qi.len()) {
                let col = qi[(rng.next_u64() as usize) % qi.len()];
                let (dom_lo, dom_hi) = match dataset.schema().attribute(col).domain() {
                    Domain::Integer { min, max } => (i128::from(*min), i128::from(*max)),
                    Domain::Categorical { labels } => (0, labels.len() as i128 - 1),
                };
                // In i128, clamped back into i64: an extreme domain's
                // width and `dom_lo − 1` overflow i64.
                let span = (dom_hi - dom_lo).max(1) as f64;
                let width = (span * selectivity).max(1.0) as i128;
                let start = dom_lo - 1 + (rng.next_f64() * (span - width as f64).max(0.0)) as i128;
                let clamp = |v: i128| v.clamp(i64::MIN.into(), i64::MAX.into()) as i64;
                predicates.push((col, clamp(start), clamp(start + width)));
            }
            queries.push(RangeQuery { predicates });
        }
        Workload { queries }
    }

    /// The queries.
    pub fn queries(&self) -> &[RangeQuery] {
        &self.queries
    }

    /// Per-query relative errors `|est − true| / max(true, 1)` of a
    /// release against the original data.
    pub fn relative_errors(&self, table: &AnonymizedTable) -> Vec<f64> {
        let ds = table.dataset();
        self.queries
            .iter()
            .map(|q| {
                let truth = q.true_count(ds);
                let est = q.estimated_count(table);
                (est - truth).abs() / truth.max(1.0)
            })
            .collect()
    }

    /// Mean relative error over the workload (the classical scalar
    /// query-utility summary; lower is better).
    pub fn mean_relative_error(&self, table: &AnonymizedTable) -> f64 {
        let errs = self.relative_errors(table);
        if errs.is_empty() {
            0.0
        } else {
            errs.iter().sum::<f64>() / errs.len() as f64
        }
    }

    /// Per-tuple query-utility property vector: for each tuple, the summed
    /// absolute difference between its estimated and true membership over
    /// the workload, negated (higher is better). This decomposes workload
    /// error by individual, making query utility a property in the paper's
    /// sense.
    pub fn tuple_error_vector(&self, table: &AnonymizedTable) -> PropertyVector {
        let ds = table.dataset();
        let v: Vec<f64> = (0..table.len())
            .map(|t| {
                let err: f64 = self
                    .queries
                    .iter()
                    .map(|q| {
                        let truth = if q.matches(ds, t) { 1.0 } else { 0.0 };
                        (q.tuple_contribution(table, t) - truth).abs()
                    })
                    .sum();
                -err
            })
            .collect();
        PropertyVector::new("-query-error", v)
    }
}

/// [`Property`](crate::properties::Property) adapter for query utility:
/// wraps a [`Workload`] so per-tuple query error participates in
/// [`induce_property_set`](crate::properties::induce_property_set) and the
/// multi-property preference schemes like any other property.
#[derive(Debug, Clone)]
pub struct QueryUtility {
    workload: Workload,
}

impl QueryUtility {
    /// Wraps a workload.
    pub fn new(workload: Workload) -> Self {
        QueryUtility { workload }
    }

    /// The wrapped workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }
}

impl crate::properties::Property for QueryUtility {
    fn name(&self) -> String {
        "-query-error".into()
    }

    fn extract(&self, table: &AnonymizedTable) -> PropertyVector {
        self.workload.tuple_error_vector(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use anoncmp_microdata::prelude::*;

    fn fixture() -> (Arc<Dataset>, AnonymizedTable) {
        let schema = Schema::new(vec![
            Attribute::integer("age", Role::QuasiIdentifier, 0, 100)
                .with_hierarchy(IntervalLadder::uniform(0, &[10]).unwrap().into())
                .unwrap(),
            Attribute::categorical("d", Role::Sensitive, ["x", "y"]),
        ])
        .unwrap();
        let ds = Dataset::new(
            schema.clone(),
            vec![
                vec![Value::Int(12), Value::Cat(0)],
                vec![Value::Int(15), Value::Cat(1)],
                vec![Value::Int(18), Value::Cat(0)],
                vec![Value::Int(25), Value::Cat(1)],
            ],
        )
        .unwrap();
        let t = Lattice::new(schema).unwrap().apply(&ds, &[1], "t").unwrap();
        (ds, t)
    }

    #[test]
    fn true_counts() {
        let (ds, _) = fixture();
        // (10, 20]: ages 12, 15, 18.
        let q = RangeQuery {
            predicates: vec![(0, 10, 20)],
        };
        assert_eq!(q.true_count(&ds), 3.0);
        // (14, 15]: age 15 only (half-open).
        let q = RangeQuery {
            predicates: vec![(0, 14, 15)],
        };
        assert_eq!(q.true_count(&ds), 1.0);
    }

    #[test]
    fn estimation_on_exact_buckets_is_exact() {
        let (_, t) = fixture();
        // Query aligned with the release's buckets: (10,20] matches the
        // first class's interval exactly.
        let q = RangeQuery {
            predicates: vec![(0, 10, 20)],
        };
        assert!((q.estimated_count(&t) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn estimation_on_partial_overlap_is_proportional() {
        let (_, t) = fixture();
        // (10, 15] overlaps half of (10,20]: three tuples contribute 0.5.
        let q = RangeQuery {
            predicates: vec![(0, 10, 15)],
        };
        assert!((q.estimated_count(&t) - 1.5).abs() < 1e-12);
        // Truth is 2 (ages 12, 15): relative error |1.5 − 2| / 2 = 0.25.
        let w = Workload::new(vec![q]);
        let errs = w.relative_errors(&t);
        assert!((errs[0] - 0.25).abs() < 1e-12);
        assert!((w.mean_relative_error(&t) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn raw_release_answers_exactly() {
        let (ds, _) = fixture();
        let raw = AnonymizedTable::identity(ds.clone(), "raw");
        let w = Workload::random(&ds, 20, 1, 0.3, 99);
        assert!(w.mean_relative_error(&raw) < 1e-12);
        // Per-tuple error vector is all zeros.
        let v = w.tuple_error_vector(&raw);
        assert!(v.iter().all(|x| x.abs() < 1e-12));
    }

    #[test]
    fn coarser_releases_answer_worse_on_average() {
        let (ds, t1) = fixture();
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        let t2 = lattice.apply(&ds, &[2], "coarse").unwrap();
        let w = Workload::random(&ds, 50, 1, 0.25, 7);
        let fine = w.mean_relative_error(&t1);
        let coarse = w.mean_relative_error(&t2);
        assert!(coarse >= fine - 1e-9, "coarse {coarse} vs fine {fine}");
    }

    #[test]
    fn suppressed_cells_use_domain_fractions() {
        let (ds, _) = fixture();
        let sup = AnonymizedTable::fully_suppressed(ds, "sup");
        // (0, 50] covers half the 0..=100 domain; wait: span 101, overlap
        // (0,50] ∩ (-1,100] → 50 values of 101.
        let q = RangeQuery {
            predicates: vec![(0, 0, 50)],
        };
        let est = q.estimated_count(&sup);
        assert!((est - 4.0 * 50.0 / 101.0).abs() < 1e-9);
    }

    #[test]
    fn workload_generation_is_deterministic_and_valid() {
        let (ds, _) = fixture();
        let w1 = Workload::random(&ds, 10, 1, 0.5, 42);
        let w2 = Workload::random(&ds, 10, 1, 0.5, 42);
        assert_eq!(w1.queries(), w2.queries());
        for q in w1.queries() {
            for &(col, lo, hi) in &q.predicates {
                assert_eq!(col, 0, "only QI columns");
                assert!(lo < hi);
            }
        }
        let w3 = Workload::random(&ds, 10, 1, 0.5, 43);
        assert_ne!(w1.queries(), w3.queries());
    }

    #[test]
    fn tuple_error_vector_is_nonpositive_and_bounded() {
        let (ds, t) = fixture();
        let w = Workload::random(&ds, 30, 1, 0.4, 5);
        let v = w.tuple_error_vector(&t);
        for x in v.iter() {
            assert!(x <= 1e-12);
            assert!(x >= -(w.queries().len() as f64));
        }
    }

    #[test]
    fn query_utility_is_a_property() {
        use crate::properties::{induce_property_set, EqClassSize, Property};
        let (ds, t) = fixture();
        let w = Workload::random(&ds, 10, 1, 0.4, 3);
        let qp = QueryUtility::new(w.clone());
        assert_eq!(qp.workload().queries().len(), 10);
        let v = qp.extract(&t);
        assert_eq!(v.values(), w.tuple_error_vector(&t).values());
        let set = induce_property_set(&t, &[&EqClassSize, &qp]);
        assert_eq!(set.r(), 2);
        assert_eq!(set.vector(1).name(), "-query-error");
    }

    /// Ages 10, 20, 30, 40 over `i64::MIN..=i64::MAX`: the domain's width,
    /// 2^64 − 1, overflows i64 and rounds to 2^64 in f64.
    fn extreme_domain() -> Arc<Dataset> {
        let schema = Schema::new(vec![Attribute::integer(
            "age",
            Role::QuasiIdentifier,
            i64::MIN,
            i64::MAX,
        )])
        .unwrap();
        let rows = [10, 20, 30, 40].map(|age| vec![Value::Int(age)]);
        Dataset::new(schema, rows.to_vec()).unwrap()
    }

    #[test]
    fn random_workload_on_an_extreme_integer_domain() {
        let ds = extreme_domain();
        for selectivity in [0.3, 1.0] {
            let w = Workload::random(&ds, 20, 1, selectivity, 5);
            for q in w.queries() {
                let (_, lo, hi) = q.predicates[0];
                assert!(lo < hi, "{lo} < {hi}");
            }
            let raw = AnonymizedTable::identity(ds.clone(), "raw");
            assert_eq!(w.mean_relative_error(&raw), 0.0);
        }
    }

    #[test]
    fn interval_cells_on_an_extreme_integer_domain() {
        let ds = extreme_domain();
        let full = GenValue::Interval {
            lo: i64::MIN,
            hi: i64::MAX,
        };
        let t = AnonymizedTable::new(ds.clone(), vec![vec![full]; 4], "full").unwrap();
        let q = RangeQuery {
            predicates: vec![(0, 0, 50)],
        };
        assert_eq!(q.estimated_count(&t), 4.0 * 50.0 / 2f64.powi(64));
        let q = RangeQuery {
            predicates: vec![(0, i64::MIN, i64::MAX)],
        };
        assert_eq!(q.estimated_count(&t), 4.0);
    }

    #[test]
    fn suppressed_cells_on_an_extreme_integer_domain() {
        let sup = AnonymizedTable::fully_suppressed(extreme_domain(), "sup");
        let q = RangeQuery {
            predicates: vec![(0, 0, 50)],
        };
        assert_eq!(q.estimated_count(&sup), 4.0 * 50.0 / 2f64.powi(64));
        let q = RangeQuery {
            predicates: vec![(0, i64::MIN, i64::MAX)],
        };
        assert_eq!(q.estimated_count(&sup), 4.0);
    }

    #[test]
    #[should_panic(expected = "selectivity")]
    fn bad_selectivity_rejected() {
        let (ds, _) = fixture();
        let _ = Workload::random(&ds, 1, 1, 0.0, 1);
    }
}
