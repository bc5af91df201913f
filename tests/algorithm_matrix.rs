//! Cross-crate integration: every algorithm × every privacy-model
//! combination on synthetic census data, with the outputs fed through the
//! comparison framework.

use std::sync::Arc;

use anoncmp::datagen::census::{generate, CensusConfig};
use anoncmp::prelude::*;

fn dataset() -> Arc<Dataset> {
    generate(&CensusConfig {
        rows: 200,
        seed: 31,
        zip_pool: 15,
    })
}

fn algorithms() -> Vec<Box<dyn Anonymizer>> {
    vec![
        Box::new(Datafly),
        Box::new(Samarati),
        Box::new(Incognito),
        Box::new(Mondrian),
        Box::new(GreedyRecoder),
        Box::new(Genetic {
            config: GeneticConfig {
                population: 16,
                generations: 10,
                ..Default::default()
            },
        }),
        Box::new(TopDown),
        Box::new(GreedyCluster),
        Box::new(SubsetIncognito),
    ]
}

#[test]
fn every_algorithm_satisfies_every_k() {
    let ds = dataset();
    for k in [2usize, 5, 10] {
        let c = Constraint::k_anonymity(k).with_suppression(ds.len() / 10);
        for algo in algorithms() {
            let t = algo
                .anonymize(&ds, &c)
                .unwrap_or_else(|e| panic!("{} failed at k={k}: {e}", algo.name()));
            assert!(c.satisfied(&t), "{} violates at k={k}", algo.name());
            assert_eq!(t.len(), ds.len(), "{} dropped tuples", algo.name());
            // Every non-suppressed class is at least k (the scalar view).
            for (_, members) in t.classes().iter() {
                let suppressed = members.iter().all(|&m| t.is_tuple_suppressed(m as usize));
                assert!(
                    suppressed || members.len() >= k,
                    "{} produced an undersized class at k={k}",
                    algo.name()
                );
            }
        }
    }
}

#[test]
fn extra_models_are_honored_by_all_algorithms() {
    let ds = dataset();
    let constraints = [
        Constraint::k_anonymity(3)
            .with_suppression(ds.len() / 5)
            .with_model(Arc::new(LDiversity::distinct(2))),
        Constraint::k_anonymity(2)
            .with_suppression(ds.len() / 5)
            .with_model(Arc::new(PSensitive::new(2))),
        // t-closeness punishes small classes hard (a pure class of one
        // sensitive value sits at TV ≈ 1 − p(v)); Mondrian's near-minimal
        // partitions therefore need a generous suppression budget, while
        // the lattice algorithms escape by generalizing further.
        Constraint::k_anonymity(2)
            .with_suppression(ds.len())
            .with_model(Arc::new(TCloseness::new(0.5))),
    ];
    for c in &constraints {
        for algo in algorithms() {
            let t = algo
                .anonymize(&ds, c)
                .unwrap_or_else(|e| panic!("{} failed for {}: {e}", algo.name(), c.describe()));
            assert!(c.satisfied(&t), "{} violates {}", algo.name(), c.describe());
        }
    }
}

#[test]
fn outputs_feed_the_comparison_framework() {
    let ds = dataset();
    let c = Constraint::k_anonymity(4).with_suppression(10);
    let releases: Vec<AnonymizedTable> = algorithms()
        .iter()
        .map(|a| a.anonymize(&ds, &c).expect("feasible"))
        .collect();

    // Induce a 3-property view on every release and compare all pairs with
    // every comparator — nothing may panic, and the outcomes must be
    // antisymmetric.
    let util = IyengarUtility::paper();
    let div = DistinctSensitiveCount::default();
    let sets: Vec<PropertySet> = releases
        .iter()
        .map(|t| induce_property_set(t, &[&EqClassSize, &div, &util]))
        .collect();
    let comparators: Vec<Box<dyn Comparator>> = vec![
        Box::new(DominanceComparator),
        Box::new(CoverageComparator),
        Box::new(SpreadComparator),
        Box::new(HypervolumeComparator::default()),
        Box::new(RankComparator::toward_uniform(ds.len() as f64, ds.len())),
    ];
    for i in 0..sets.len() {
        for j in 0..sets.len() {
            for cmp in &comparators {
                let fwd = cmp.compare(sets[i].vector(0), sets[j].vector(0));
                let bwd = cmp.compare(sets[j].vector(0), sets[i].vector(0));
                assert_eq!(fwd, bwd.flipped(), "{} not antisymmetric", cmp.name());
            }
        }
    }
    let wtd = WeightedComparator::new(
        vec![0.5, 0.25, 0.25],
        vec![
            Box::new(CoverageComparator),
            Box::new(CoverageComparator),
            Box::new(CoverageComparator),
        ],
    );
    for i in 0..sets.len() {
        for j in 0..sets.len() {
            let fwd = wtd.compare(&sets[i], &sets[j]);
            let bwd = wtd.compare(&sets[j], &sets[i]);
            assert_eq!(fwd, bwd.flipped(), "WTD not antisymmetric");
        }
    }
}

#[test]
fn mondrian_dominates_full_domain_on_discernibility() {
    // Local recoding yields finer classes, hence lower discernibility
    // penalties — the shape LeFevre et al. report.
    let ds = dataset();
    let c = Constraint::k_anonymity(5).with_suppression(10);
    let mond = Mondrian.anonymize(&ds, &c).expect("mondrian");
    let data = Datafly.anonymize(&ds, &c).expect("datafly");
    let dm_m: f64 = Discernibility.raw(&mond).sum();
    let dm_d: f64 = Discernibility.raw(&data).sum();
    assert!(dm_m <= dm_d, "mondrian DM {dm_m} vs datafly DM {dm_d}");
}

#[test]
fn exhaustive_searches_agree_with_each_other() {
    // Incognito's loss-optimal minimal node is at least as good as
    // Samarati's height-minimal choice, under the same preference metric.
    let ds = dataset();
    let c = Constraint::k_anonymity(3).with_suppression(8);
    let inc = Incognito.run(&ds, &c).expect("incognito");
    let sam = Samarati.run(&ds, &c).expect("samarati");
    let metric = anoncmp::microdata::loss::LossMetric::classic();
    assert!(metric.total_loss(&inc.table) <= metric.total_loss(&sam.table) + 1e-9);
    // Samarati's chosen node must appear in Incognito's frontier closure
    // (it is minimal in height, so no frontier node lies strictly below it
    // at lower height… at minimum, its height is ≥ the minimum frontier
    // height).
    let lattice = Lattice::new(ds.schema().clone()).expect("lattice");
    let min_frontier_height = inc
        .frontier
        .iter()
        .map(|l| lattice.height_of(l))
        .min()
        .expect("non-empty");
    assert!(lattice.height_of(&sam.levels) >= min_frontier_height);
}

#[test]
fn per_tuple_winners_differ_across_algorithms() {
    // The §2 story at scale: no algorithm's release is the personal
    // optimum for every tuple (with enough algorithms in play).
    let ds = dataset();
    let c = Constraint::k_anonymity(5).with_suppression(10);
    let releases: Vec<AnonymizedTable> = algorithms()
        .iter()
        .map(|a| a.anonymize(&ds, &c).expect("feasible"))
        .collect();
    let vectors: Vec<PropertyVector> = releases.iter().map(|t| EqClassSize.extract(t)).collect();
    let mut uniquely_best = vec![false; vectors.len()];
    for t in 0..ds.len() {
        let best = vectors
            .iter()
            .map(|v| v[t])
            .fold(f64::NEG_INFINITY, f64::max);
        let winners: Vec<usize> = (0..vectors.len())
            .filter(|&i| vectors[i][t] == best)
            .collect();
        if winners.len() < vectors.len() {
            for w in winners {
                uniquely_best[w] = true;
            }
        }
    }
    // At least two different algorithms are strictly preferred by someone.
    assert!(uniquely_best.iter().filter(|&&b| b).count() >= 2);
}
