//! Property-based equivalence for the perturbative wing: the numeric
//! properties' contiguous-slice fast paths are **bit-identical** to their
//! row-at-a-time reference implementations over randomly generated bases
//! and releases — the guarantee that lets the engine cache and compare
//! vectors across code paths. Releases come both jittered (every row
//! distinct) and drawn from a small palette (rows repeat, distances tie,
//! cells degenerate), since the risk fast path computes one distance row
//! per distinct released row.

use anoncmp_core::prelude::*;
use anoncmp_microdata::numeric::{NumericBase, NumericRelease};
use anoncmp_microdata::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// A random numeric base: `n` rows over two integer quasi-identifiers
/// plus one categorical sensitive column.
fn base_of(rows: &[(i64, i64)]) -> Arc<NumericBase> {
    let schema = Schema::new(vec![
        Attribute::integer("age", Role::QuasiIdentifier, -1_000, 1_000),
        Attribute::integer("income", Role::QuasiIdentifier, -100_000, 100_000),
        Attribute::categorical("dx", Role::Sensitive, ["a", "b"]),
    ])
    .unwrap();
    let mut b = DatasetBuilder::with_capacity(schema, rows.len());
    for (i, (age, income)) in rows.iter().enumerate() {
        let dx = if i % 2 == 0 { "a" } else { "b" };
        b.push_labels(&[&age.to_string(), &income.to_string(), dx])
            .unwrap();
    }
    NumericBase::of(&b.build().unwrap()).unwrap()
}

fn bits(v: &PropertyVector) -> Vec<u64> {
    v.values().iter().map(|x| x.to_bits()).collect()
}

/// A dataset of `width` (1 or 2) small integer quasi-identifiers, each
/// generalizable by a nested interval ladder. Column `constant - 1`, if
/// any, holds one value in every row (zero variance).
fn narrow_dataset(width: usize, rows: &[(i64, i64)], constant: usize) -> Arc<Dataset> {
    let ladder = || Hierarchy::from(IntervalLadder::uniform(0, &[2, 4]).unwrap());
    let mut attrs: Vec<Attribute> = ["a", "b"][..width]
        .iter()
        .map(|name| {
            Attribute::integer(*name, Role::QuasiIdentifier, 0, 15)
                .with_hierarchy(ladder())
                .unwrap()
        })
        .collect();
    attrs.push(Attribute::categorical("dx", Role::Sensitive, ["a", "b"]));
    let schema = Schema::new(attrs).unwrap();
    let mut b = DatasetBuilder::with_capacity(schema, rows.len());
    for (i, &(a, bv)) in rows.iter().enumerate() {
        let cells = [a, bv].map(|v| v.to_string());
        let mut labels: Vec<&str> = (0..width)
            .map(|c| {
                if c + 1 == constant {
                    "7"
                } else {
                    cells[c].as_str()
                }
            })
            .collect();
        labels.push(if i % 2 == 0 { "a" } else { "b" });
        b.push_labels(&labels).unwrap();
    }
    b.build().unwrap()
}

/// A released cell: mostly one of four integers, so rows repeat and
/// distances tie exactly, and otherwise `-0.0`, NaN or an infinity.
fn palette(pick: usize) -> f64 {
    match pick {
        12 => -0.0,
        13 => f64::NAN,
        14 => f64::INFINITY,
        15 => f64::NEG_INFINITY,
        p => (p % 4) as f64,
    }
}

/// Fast and naive risk agree bit for bit under both metrics at every
/// neighbourhood size the rank cap distinguishes: 0, 1, 2, n and n + 1.
fn risk_paths_agree(rel: &NumericRelease) -> TestCaseResult {
    let n = rel.len();
    for metric in [RiskMetric::StdEuclid, RiskMetric::Mahalanobis] {
        for k in [0, 1, 2, n, n + 1] {
            let prop = NeighborhoodRisk { metric, k };
            let fast = prop.extract_numeric(rel);
            let naive = prop.extract_numeric_naive(rel);
            prop_assert_eq!(bits(&fast), bits(&naive), "{:?} k={}", metric, k);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn fast_paths_match_naive_reference_bitwise(
        rows in proptest::collection::vec((-500i64..500, -50_000i64..50_000), 4..24),
        jitter in proptest::collection::vec((-40.0f64..40.0, -4_000.0f64..4_000.0), 24),
        k in 1usize..6,
    ) {
        let base = base_of(&rows);
        let n = base.len();
        let released: Vec<Vec<f64>> = (0..base.width())
            .map(|c| {
                base.column(c)
                    .iter()
                    .zip(&jitter)
                    .map(|(&x, j)| x + if c == 0 { j.0 } else { j.1 })
                    .collect()
            })
            .collect();
        let rel = NumericRelease::new("prop", base.clone(), released);
        prop_assert_eq!(rel.len(), n);

        for metric in [RiskMetric::StdEuclid, RiskMetric::Mahalanobis] {
            let prop = NeighborhoodRisk { metric, k };
            let fast = prop.extract_numeric(&rel);
            let naive = prop.extract_numeric_naive(&rel);
            prop_assert_eq!(bits(&fast), bits(&naive), "{:?} k={}", metric, k);
        }
        let fast = BoundedDistanceLoss.extract_numeric(&rel);
        let naive = BoundedDistanceLoss.extract_numeric_naive(&rel);
        prop_assert_eq!(bits(&fast), bits(&naive));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn risk_matches_naive_on_repeated_tied_and_degenerate_rows(
        width in 1usize..=2,
        constant in 0usize..3,
        rows in proptest::collection::vec((0i64..4, 0i64..4), 1..24),
        picks in proptest::collection::vec(0usize..16, 48),
    ) {
        let base = NumericBase::of(&narrow_dataset(width, &rows, constant)).unwrap();
        let n = base.len();
        let released: Vec<Vec<f64>> = (0..width)
            .map(|c| picks[c * 24..c * 24 + n].iter().map(|&p| palette(p)).collect())
            .collect();
        risk_paths_agree(&NumericRelease::new("palette", base, released))?;
    }

    #[test]
    fn risk_matches_naive_on_generalized_views(
        width in 1usize..=2,
        constant in 0usize..3,
        rows in proptest::collection::vec((0i64..9, 0i64..9), 1..24),
        node in proptest::collection::vec(0usize..4, 2),
        suppressed in proptest::collection::vec(0usize..24, 0..4),
    ) {
        let dataset = narrow_dataset(width, &rows, constant);
        let base = NumericBase::of(&dataset).unwrap();
        let lattice = Lattice::new(dataset.schema().clone()).unwrap();
        let levels: Vec<usize> = lattice
            .max_levels()
            .iter()
            .zip(&node)
            .map(|(&top, &pick)| pick.min(top))
            .collect();
        let table = lattice
            .apply(&dataset, &levels, "node")
            .unwrap()
            .suppress_tuples(suppressed.into_iter().filter(|&i| i < rows.len()));
        risk_paths_agree(&NumericRelease::from_generalized(&table, &base))?;
    }
}
