//! Property-based equivalence tests for the encoded kernels: on arbitrary
//! tables and lattice nodes, `Property::extract_encoded` must reproduce
//! the materialized `Property::extract` bit for bit.

use std::sync::Arc;

use proptest::prelude::*;

use anoncmp_core::prelude::*;
use anoncmp_microdata::loss::LossMetric;
use anoncmp_microdata::prelude::{
    Attribute, Dataset, GenCodec, IntervalLadder, Lattice, Role, Schema, Taxonomy, Value,
};

fn small_schema() -> Arc<Schema> {
    Schema::new(vec![
        Attribute::integer("age", Role::QuasiIdentifier, 0, 99)
            .with_hierarchy(IntervalLadder::uniform(0, &[10, 30]).unwrap().into())
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

fn arb_rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    proptest::collection::vec(
        (0i64..100, 0u32..4, 0u32..3)
            .prop_map(|(a, c, d)| vec![Value::Int(a), Value::Cat(c), Value::Cat(d)]),
        1..40,
    )
}

fn all_properties() -> Vec<Box<dyn Property>> {
    vec![
        Box::new(EqClassSize),
        Box::new(BreachProbability),
        Box::new(SensitiveValueCount::default()),
        Box::new(DistinctSensitiveCount::default()),
        Box::new(TClosenessDistance::default()),
        Box::new(IyengarUtility::with_metric(LossMetric::paper_ratio())),
        Box::new(IyengarUtility::with_metric(LossMetric::classic())),
        Box::new(GeneralizationLoss::classic()),
        Box::new(Precision),
        Box::new(Discernibility),
    ]
}

proptest! {
    #[test]
    fn encoded_extraction_matches_table_extraction(
        rows in arb_rows(),
        l0 in 0usize..4,
        l1 in 0usize..3,
    ) {
        let schema = small_schema();
        let ds = Dataset::new(schema.clone(), rows).expect("rows are in-domain");
        let lattice = Lattice::new(schema).expect("lattice");
        let table = lattice.apply(&ds, &[l0, l1], "t").expect("valid levels");
        let codec = GenCodec::new(&ds).expect("every QI has a hierarchy");
        let partition = codec.partition(&[l0, l1]).expect("valid levels");
        for p in all_properties() {
            let from_table = p.extract(&table);
            let from_codec = p.extract_encoded(&codec, &partition);
            prop_assert_eq!(from_table.name(), from_codec.name(), "{}", p.name());
            prop_assert_eq!(from_table.len(), from_codec.len(), "{}", p.name());
            // Bit-level equality, stricter than `==` (distinguishes ±0.0).
            for (a, b) in from_table.iter().zip(from_codec.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{}: {} vs {}", p.name(), a, b);
            }
        }
    }
}
