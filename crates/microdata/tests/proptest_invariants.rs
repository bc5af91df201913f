//! Property-based tests for the microdata substrate: hierarchies,
//! generalization, equivalence-class induction, and loss metrics.

use std::sync::Arc;

use proptest::prelude::*;

use anoncmp_microdata::prelude::*;

// ----------------------------------------------------------------------
// Interval ladders.
// ----------------------------------------------------------------------

proptest! {
    #[test]
    fn buckets_cover_their_value(origin in -50i64..50, width in 1i64..40, v in -500i64..500) {
        let level = IntervalLevel { origin, width };
        let (lo, hi) = level.bucket(v);
        prop_assert!(lo < v && v <= hi, "({lo},{hi}] must contain {v}");
        prop_assert_eq!(hi - lo, width);
        prop_assert_eq!((lo - origin) % width, 0, "bucket is origin-aligned");
    }

    #[test]
    fn buckets_partition_the_line(origin in -20i64..20, width in 1i64..20, v in -100i64..100) {
        // Adjacent values fall in the same or adjacent buckets; bucket
        // boundaries never overlap.
        let level = IntervalLevel { origin, width };
        let (lo1, hi1) = level.bucket(v);
        let (lo2, hi2) = level.bucket(v + 1);
        prop_assert!(lo2 == lo1 || lo2 == hi1, "buckets tile the integers");
        prop_assert!(hi2 == hi1 || lo2 == hi1);
    }

    #[test]
    fn nested_ladders_refine(
        origin in -10i64..10,
        w in 1i64..10,
        factor in 2i64..5,
        v in -200i64..200,
    ) {
        let ladder = IntervalLadder::new_nested(vec![
            IntervalLevel { origin, width: w },
            IntervalLevel { origin, width: w * factor },
        ]).expect("aligned ladder is nested");
        let fine = ladder.generalize(v, 1).expect("level 1");
        let coarse = ladder.generalize(v, 2).expect("level 2");
        if let (GenValue::Interval { lo: flo, hi: fhi }, GenValue::Interval { lo: clo, hi: chi }) =
            (fine, coarse)
        {
            prop_assert!(clo <= flo && fhi <= chi, "coarse interval contains fine");
        } else {
            prop_assert!(false, "expected intervals");
        }
    }

    #[test]
    fn ladder_level_of_roundtrips(
        origin in -10i64..10,
        v in -100i64..100,
        level in 0usize..4,
    ) {
        let ladder = IntervalLadder::uniform(origin, &[5, 10, 20]).expect("nested");
        let gv = ladder.generalize(v, level).expect("valid level");
        prop_assert_eq!(ladder.level_of(&gv), Some(level));
    }
}

// ----------------------------------------------------------------------
// Masking taxonomies.
// ----------------------------------------------------------------------

fn arb_codes() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::btree_set("[0-9]{4}", 1..12).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #[test]
    fn masking_taxonomy_is_consistent(codes in arb_codes(), steps in prop::sample::subsequence(vec![1usize,2,3], 1..=3)) {
        let tax = Taxonomy::masking(&codes, &steps).expect("valid masking spec");
        // Every leaf's ancestor chain is strictly coarsening: leaf counts
        // are non-decreasing with level, reaching the full leaf count at
        // the root.
        for cat in 0..tax.leaf_count() as u32 {
            let mut prev = 0usize;
            for level in 0..=tax.height() {
                let node = tax.ancestor_at_level(cat, level).expect("level valid");
                let count = tax.leaves_under(node);
                prop_assert!(count >= prev.max(1));
                prop_assert!(tax.node_covers_leaf(node, cat));
                prev = count;
            }
            let root = tax.ancestor_at_level(cat, tax.height()).expect("root level");
            prop_assert_eq!(tax.leaves_under(root), tax.leaf_count());
        }
        // Sibling partitions: children leaf counts sum to the parent's.
        for node in 0..tax.node_count() as u32 {
            let children = tax.children(node);
            if !children.is_empty() {
                let sum: usize = children.iter().map(|&c| tax.leaves_under(c)).sum();
                prop_assert_eq!(sum, tax.leaves_under(node));
            }
        }
    }

    #[test]
    fn masked_labels_share_prefix(codes in arb_codes()) {
        let tax = Taxonomy::masking(&codes, &[1, 2]).expect("valid");
        // At level 1 each node's label is the common 3-char prefix of the
        // leaves below, plus one '*'.
        for cat in 0..tax.leaf_count() as u32 {
            let node = tax.ancestor_at_level(cat, 1).expect("level 1");
            let label = tax.label(node);
            prop_assert!(label.ends_with('*'));
            let prefix = &label[..label.len() - 1];
            for leaf_cat in tax.leaf_cats_under(node) {
                let leaf_label = tax.label(tax.leaf(leaf_cat));
                prop_assert!(leaf_label.starts_with(prefix));
            }
        }
    }
}

// ----------------------------------------------------------------------
// Datasets, lattices, grouping, and loss.
// ----------------------------------------------------------------------

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

proptest! {
    #[test]
    fn lattice_apply_covers_raw_values(rows in arb_rows(), l0 in 0usize..4, l1 in 0usize..3) {
        let schema = small_schema();
        let ds = Dataset::new(schema.clone(), rows).expect("rows are in-domain");
        let lattice = Lattice::new(schema).expect("lattice");
        let t = lattice.apply(&ds, &[l0, l1], "t").expect("valid levels");
        for tuple in 0..ds.len() {
            for &col in ds.schema().quasi_identifiers() {
                let gv = t.cell(tuple, col);
                let raw = ds.value(tuple, col);
                let h = ds.schema().attribute(col).hierarchy().expect("QI hierarchy");
                prop_assert!(h.covers(gv, raw), "generalized cell must cover its raw value");
            }
        }
    }

    #[test]
    fn coarser_levels_merge_classes(rows in arb_rows(), l0 in 0usize..3, l1 in 0usize..2) {
        let schema = small_schema();
        let ds = Dataset::new(schema.clone(), rows).expect("in-domain");
        let lattice = Lattice::new(schema).expect("lattice");
        let fine = lattice.apply(&ds, &[l0, l1], "fine").expect("levels");
        let coarse = lattice.apply(&ds, &[l0 + 1, l1 + 1], "coarse").expect("levels");
        // Class counts shrink, minimum sizes grow.
        prop_assert!(coarse.classes().class_count() <= fine.classes().class_count());
        prop_assert!(coarse.classes().min_class_size() >= fine.classes().min_class_size());
        // Refinement: tuples sharing a fine class share the coarse class.
        for t1 in 0..ds.len() {
            for t2 in (t1 + 1)..ds.len() {
                if fine.classes().class_of(t1) == fine.classes().class_of(t2) {
                    prop_assert_eq!(
                        coarse.classes().class_of(t1),
                        coarse.classes().class_of(t2),
                        "coarsening must not split classes"
                    );
                }
            }
        }
        // Stepping the codec's fine partition along the lattice edge must
        // reproduce the coarse node's from-scratch partition exactly.
        let codec = GenCodec::new(&ds).expect("every QI has a hierarchy");
        let fine_part = codec.partition(&[l0, l1]).expect("levels");
        let stepped = codec.coarsen(&fine_part, &[l0 + 1, l1 + 1]).expect("nested step");
        let fresh = codec.partition(&[l0 + 1, l1 + 1]).expect("levels");
        prop_assert_eq!(stepped.sizes(), fresh.sizes());
        prop_assert_eq!(stepped.representatives(), fresh.representatives());
    }

    #[test]
    fn grouping_strategies_always_agree(rows in arb_rows(), l0 in 0usize..4, l1 in 0usize..3) {
        // Hash-based, sort-based, and dictionary-code-based grouping must
        // induce the same partition on any table at any lattice node.
        let schema = small_schema();
        let ds = Dataset::new(schema.clone(), rows).expect("in-domain");
        let lattice = Lattice::new(schema).expect("lattice");
        let t = lattice.apply(&ds, &[l0, l1], "t").expect("valid levels");
        let qi: Vec<usize> = ds.schema().quasi_identifiers().to_vec();
        let h = EquivalenceClasses::group_by_hash(t.records(), &qi);
        let s = EquivalenceClasses::group_by_sort(t.records(), &qi);
        let codec = GenCodec::new(&ds).expect("every QI has a hierarchy");
        let columns: Vec<&[u32]> = vec![codec.encoded_column(0, l0), codec.encoded_column(1, l1)];
        let c = EquivalenceClasses::group_by_codes(ds.len(), &columns);
        prop_assert!(h.same_partition(&s));
        prop_assert!(c.same_partition(&h));
        prop_assert!(c.same_partition(&s));
        // The codec's node partition numbers classes in first-appearance
        // order, exactly as the hash grouping does.
        let p = codec.partition(&[l0, l1]).expect("valid levels");
        let ids = p.class_ids(&codec).expect("levels fit the codec");
        prop_assert_eq!(p.class_count(), h.class_count());
        for (t, &id) in ids.iter().enumerate() {
            prop_assert_eq!(id as usize, h.class_of(t));
        }
        for class in 0..h.class_count() {
            let members = h.members(class);
            prop_assert_eq!(p.sizes()[class] as usize, members.len());
            prop_assert_eq!(p.representatives()[class], members[0]);
        }
    }

    #[test]
    fn cell_losses_are_normalized(rows in arb_rows(), l0 in 0usize..4, l1 in 0usize..3) {
        let schema = small_schema();
        let ds = Dataset::new(schema.clone(), rows).expect("in-domain");
        let lattice = Lattice::new(schema).expect("lattice");
        let t = lattice.apply(&ds, &[l0, l1], "t").expect("levels");
        for metric in [LossMetric::classic(), LossMetric::paper_ratio()] {
            for tuple in 0..t.len() {
                for col in 0..ds.schema().len() {
                    let loss = metric.cell_loss(&ds, col, t.cell(tuple, col));
                    prop_assert!((0.0..=1.0).contains(&loss), "loss {loss} out of [0,1]");
                }
            }
        }
    }

    #[test]
    fn classic_loss_monotone_in_levels(rows in arb_rows(), l0 in 0usize..3, l1 in 0usize..2) {
        let schema = small_schema();
        let ds = Dataset::new(schema.clone(), rows).expect("in-domain");
        let lattice = Lattice::new(schema).expect("lattice");
        let fine = lattice.apply(&ds, &[l0, l1], "fine").expect("levels");
        let coarse = lattice.apply(&ds, &[l0 + 1, l1 + 1], "coarse").expect("levels");
        let m = LossMetric::classic();
        prop_assert!(m.total_loss(&coarse) >= m.total_loss(&fine) - 1e-9);
    }

    #[test]
    fn precision_and_discernibility_bounds(rows in arb_rows(), l0 in 0usize..4, l1 in 0usize..3) {
        let schema = small_schema();
        let ds = Dataset::new(schema.clone(), rows).expect("in-domain");
        let lattice = Lattice::new(schema).expect("lattice");
        let t = lattice.apply(&ds, &[l0, l1], "t").expect("levels");
        for p in precision_vector(&t) {
            prop_assert!((0.0..=1.0).contains(&p));
        }
        let n = t.len() as f64;
        for d in discernibility_vector(&t) {
            prop_assert!((1.0..=n).contains(&d));
        }
    }

    #[test]
    fn csv_roundtrip_preserves_data(rows in arb_rows()) {
        let schema = small_schema();
        let ds = Dataset::new(schema.clone(), rows).expect("in-domain");
        let text = anoncmp_microdata::csv::dataset_to_csv(&ds);
        let back = anoncmp_microdata::csv::dataset_from_csv(schema, &text).expect("roundtrip");
        prop_assert_eq!(back.len(), ds.len());
        for t in 0..ds.len() {
            prop_assert_eq!(back.row(t), ds.row(t));
        }
    }
}
