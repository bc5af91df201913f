//! The masked encoded loss against the table path, on random datasets:
//! for a frequency-only constraint, class sizes decide feasibility exactly
//! when `Constraint::enforce` does, and the loss computed from the codec
//! with every class below k masked as suppressed is bit-identical to the
//! loss of the decoded and enforced table. The full-domain searches score
//! their candidates with it and decode only their release.

use std::sync::Arc;

use proptest::prelude::*;

use anoncmp_anonymize::prelude::*;
use anoncmp_microdata::loss::LossMetric;
use anoncmp_microdata::prelude::*;

fn small_schema() -> Arc<Schema> {
    Schema::new(vec![
        Attribute::integer("age", Role::QuasiIdentifier, 0, 99)
            .with_hierarchy(IntervalLadder::uniform(0, &[10, 50]).unwrap().into())
            .unwrap(),
        Attribute::from_taxonomy(
            "city",
            Role::QuasiIdentifier,
            Taxonomy::masking(&["aa", "ab", "ba", "bb"], &[1]).unwrap(),
        ),
        Attribute::categorical("d", Role::Sensitive, ["x", "y", "z"]),
    ])
    .unwrap()
}

/// A dataset, one of its lattice nodes, k ∈ 1..=n+1 and a budget ∈ 0..=n.
fn arb_case() -> impl Strategy<Value = (Arc<Dataset>, LevelVector, usize, usize)> {
    let max = Lattice::new(small_schema()).unwrap().max_levels().to_vec();
    proptest::collection::vec(
        (0i64..100, 0u32..4, 0u32..3)
            .prop_map(|(a, c, d)| vec![Value::Int(a), Value::Cat(c), Value::Cat(d)]),
        1..50,
    )
    .prop_flat_map(move |rows| {
        let n = rows.len();
        let ds = Dataset::new(small_schema(), rows).expect("in-domain rows");
        (
            Just(ds),
            (0..=max[0], 0..=max[1]).prop_map(|(a, c)| vec![a, c]),
            1..=n + 1,
            0..=n,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn masked_encoded_loss_matches_the_enforced_table((ds, levels, k, budget) in arb_case()) {
        let codec = GenCodec::new(&ds).unwrap();
        let partition = codec.partition(&levels).unwrap();
        let constraint = Constraint::k_anonymity(k).with_suppression(budget);
        let enforced = constraint.enforce(&codec.decode(&levels, "node").unwrap());
        prop_assert_eq!(constraint.feasible_partition(&partition), enforced.is_some());
        let Some(table) = enforced else {
            return Ok(());
        };
        let sizes = partition.sizes();
        let mask: Vec<bool> = partition
            .class_ids(&codec)
            .unwrap()
            .iter()
            .map(|&class| (sizes[class as usize] as usize) < k)
            .collect();
        prop_assert_eq!(mask.as_slice(), table.suppression_mask());
        // The classic loss scores the quasi-identifiers the codec encodes;
        // the paper's ratio loss also scores the raw sensitive column.
        for metric in [LossMetric::classic(), LossMetric::paper_ratio()] {
            let masked = metric
                .loss_vector_encoded_masked(&codec, &levels, Some(&mask))
                .unwrap();
            let reference = metric.loss_vector(&table);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&masked), bits(&reference));
            prop_assert_eq!(
                masked.iter().sum::<f64>().to_bits(),
                metric.total_loss(&table).to_bits()
            );
        }
    }
}
