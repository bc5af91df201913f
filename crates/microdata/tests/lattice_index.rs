//! The lattice index against the codec and the table path: every node's
//! summary matches `GenCodec::partition`, a full node with every other
//! dimension at its top level groups as the projection onto its own
//! dimensions, and concurrent readers see the summaries one reader sees.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};

use anoncmp_datagen::census::{generate, CensusConfig};
use anoncmp_microdata::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A nested ladder, a ladder whose origins shift between levels (so a
/// class can split when it steps up) and a masking taxonomy.
fn schema() -> Arc<Schema> {
    let shifted = IntervalLadder::new_unchecked(vec![
        IntervalLevel {
            origin: 0,
            width: 10,
        },
        IntervalLevel {
            origin: 5,
            width: 20,
        },
        IntervalLevel {
            origin: 3,
            width: 40,
        },
    ])
    .unwrap();
    Schema::new(vec![
        Attribute::integer("age", Role::QuasiIdentifier, 0, 99)
            .with_hierarchy(IntervalLadder::uniform(0, &[10, 50]).unwrap().into())
            .unwrap(),
        Attribute::integer("score", Role::QuasiIdentifier, 0, 99)
            .with_hierarchy(shifted.into())
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

fn arb_dataset() -> impl Strategy<Value = Arc<Dataset>> {
    proptest::collection::vec(
        (0i64..100, 0i64..100, 0u32..4, 0u32..3).prop_map(|(a, s, c, d)| {
            vec![Value::Int(a), Value::Int(s), Value::Cat(c), Value::Cat(d)]
        }),
        1..40,
    )
    .prop_map(|rows| Dataset::new(schema(), rows).expect("in-domain rows"))
}

/// Class sizes of `table` grouped on the quasi-identifier dimensions
/// `dims` only.
fn sizes_on(table: &AnonymizedTable, dims: &[usize]) -> Vec<u32> {
    let qi = table.dataset().schema().quasi_identifiers().to_vec();
    let mut groups: HashMap<Vec<GenValue>, u32> = HashMap::new();
    for t in 0..table.len() {
        let key = dims.iter().map(|&d| *table.cell(t, qi[d])).collect();
        *groups.entry(key).or_insert(0) += 1;
    }
    groups.into_values().collect()
}

fn tuples_below(sizes: &[u32], k: usize) -> usize {
    sizes
        .iter()
        .filter(|&&s| (s as usize) < k)
        .map(|&s| s as usize)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn summaries_match_the_codec_partition(
        ds in arb_dataset(),
        picks in proptest::collection::vec(0usize..10_000, 12),
    ) {
        let index = LatticeIndex::new(&ds).unwrap();
        let codec = GenCodec::new(&ds).unwrap();
        let nodes: Vec<LevelVector> = index.lattice().iter_all().collect();
        let n = ds.len();
        for &pick in &picks {
            let levels = &nodes[pick % nodes.len()];
            let summary = index.summary(levels).unwrap();
            let partition = codec.partition(levels).unwrap();
            prop_assert_eq!(summary.class_count(), partition.class_count());
            for k in [1, 2, 3, n, n + 1] {
                prop_assert_eq!(summary.tuples_below(k), partition.tuples_below(k), "k={}", k);
            }
            prop_assert_eq!(&index.summary(levels).unwrap(), &summary, "a second lookup");
        }
        prop_assert!(index.grouped() <= picks.len());
    }

    #[test]
    fn a_node_topped_elsewhere_groups_as_its_projection(
        ds in arb_dataset(),
        mask in 1usize..8,
        levels in proptest::collection::vec(0usize..4, 3),
    ) {
        let index = LatticeIndex::new(&ds).unwrap();
        let lattice = index.lattice();
        let dims: Vec<usize> = (0..3).filter(|d| mask >> d & 1 == 1).collect();
        let mut node = lattice.top();
        let mut raw_elsewhere = lattice.bottom();
        for &d in &dims {
            node[d] = levels[d].min(lattice.max_levels()[d]);
            raw_elsewhere[d] = node[d];
        }
        let table = lattice.apply(&ds, &raw_elsewhere, "t").unwrap();
        let sizes = sizes_on(&table, &dims);
        let summary = index.summary(&node).unwrap();
        prop_assert_eq!(summary.class_count(), sizes.len());
        for k in 1..=ds.len() + 1 {
            prop_assert_eq!(summary.tuples_below(k), tuples_below(&sizes, k), "k={}", k);
        }
    }
}

#[test]
fn concurrent_readers_see_the_sequential_summaries() {
    let ds = generate(&CensusConfig {
        rows: 300,
        seed: 3,
        zip_pool: 12,
    });
    let sequential = LatticeIndex::new(&ds).unwrap();
    let nodes: Vec<LevelVector> = sequential.lattice().iter_all().collect();
    let expected: HashMap<&LevelVector, NodeSummary> = nodes
        .iter()
        .map(|levels| (levels, sequential.summary(levels).unwrap()))
        .collect();

    let shared = LatticeIndex::new(&ds).unwrap();
    let start = Barrier::new(4);
    std::thread::scope(|scope| {
        for reader in 0..4u64 {
            let (shared, nodes, expected, start) = (&shared, &nodes, &expected, &start);
            scope.spawn(move || {
                let mut order: Vec<&LevelVector> = nodes.iter().collect();
                let mut rng = StdRng::seed_from_u64(reader);
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                start.wait();
                for levels in order {
                    assert_eq!(
                        shared.summary(levels).unwrap(),
                        expected[levels],
                        "{levels:?}"
                    );
                }
            });
        }
    });
    assert_eq!(shared.grouped(), nodes.len());
}

#[test]
fn invalid_nodes_are_refused_and_not_stored() {
    let ds = generate(&CensusConfig {
        rows: 20,
        seed: 3,
        zip_pool: 4,
    });
    let index = LatticeIndex::new(&ds).unwrap();
    assert!(matches!(
        index.summary(&[0]),
        Err(Error::ArityMismatch { .. })
    ));
    let mut beyond = index.lattice().top();
    beyond[0] += 1;
    assert!(matches!(
        index.summary(&beyond),
        Err(Error::LevelOutOfRange { .. })
    ));
    assert_eq!(index.grouped(), 0);
}
