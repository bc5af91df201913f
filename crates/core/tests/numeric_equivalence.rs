//! Property-based equivalence for the perturbative wing: the numeric
//! properties' contiguous-slice fast paths are **bit-identical** to their
//! row-at-a-time reference implementations over randomly generated bases
//! and releases — the guarantee that lets the engine cache and compare
//! vectors across code paths.

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
