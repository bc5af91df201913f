//! Fuzz-style integration tests: the full pipeline on randomly shaped
//! (but always valid) schema/dataset pairs from
//! `anoncmp_datagen::random`. Deterministic seeds keep failures
//! reproducible.

use anoncmp::datagen::random::{generate_random, RandomConfig};
use anoncmp::prelude::*;

fn configs() -> impl Iterator<Item = RandomConfig> {
    (0..18u64).map(|seed| RandomConfig {
        rows: 30 + (seed as usize % 4) * 25,
        numeric_qi: (seed % 3) as usize,
        categorical_qi: 1 + (seed % 2) as usize,
        sensitive_values: 2 + (seed % 4) as usize,
        seed,
    })
}

#[test]
fn all_algorithms_survive_random_shapes() {
    for cfg in configs() {
        let ds = generate_random(&cfg);
        let k = 2 + (cfg.seed % 3) as usize;
        let c = Constraint::k_anonymity(k).with_suppression(ds.len() / 10);
        let algos: Vec<Box<dyn Anonymizer>> = vec![
            Box::new(Datafly),
            Box::new(Mondrian),
            Box::new(GreedyCluster),
            Box::new(TopDown),
            Box::new(GreedyRecoder),
        ];
        for algo in algos {
            match algo.anonymize(&ds, &c) {
                Ok(t) => {
                    assert!(
                        c.satisfied(&t),
                        "{} violated on seed {} (k = {k})",
                        algo.name(),
                        cfg.seed
                    );
                }
                Err(AnonymizeError::Unsatisfiable(_)) => {
                    assert!(
                        c.k > ds.len(),
                        "{} claimed unsatisfiable with k = {k} ≤ n = {} (seed {})",
                        algo.name(),
                        ds.len(),
                        cfg.seed
                    );
                }
                Err(e) => panic!("{} failed on seed {}: {e}", algo.name(), cfg.seed),
            }
        }
    }
}

#[test]
fn framework_pipeline_on_random_shapes() {
    for cfg in configs().take(8) {
        let ds = generate_random(&cfg);
        let c = Constraint::k_anonymity(2).with_suppression(ds.len() / 5);
        let a = Mondrian.anonymize(&ds, &c).expect("mondrian");
        let b = Datafly.anonymize(&ds, &c).expect("datafly");
        // Extract every property and compare under every comparator.
        let props: Vec<Box<dyn Property>> = vec![
            Box::new(EqClassSize),
            Box::new(SensitiveValueCount::default()),
            Box::new(DistinctSensitiveCount::default()),
            Box::new(IyengarUtility::paper()),
            Box::new(Precision),
        ];
        for p in &props {
            let va = p.extract(&a);
            let vb = p.extract(&b);
            assert_eq!(va.len(), ds.len());
            assert_eq!(vb.len(), ds.len());
            for cmp in [
                &CoverageComparator as &dyn Comparator,
                &SpreadComparator,
                &DominanceComparator,
            ] {
                let fwd = cmp.compare(&va, &vb);
                assert_eq!(fwd, cmp.compare(&vb, &va).flipped());
            }
        }
        // Bias, risk, and workload reports never panic on valid releases.
        let _ = BiasReport::of(&EqClassSize.extract(&a));
        let _ = RiskReport::of(&a, 0.5);
        let w = Workload::random(&ds, 10, 1, 0.4, cfg.seed);
        let _ = w.mean_relative_error(&a);
        let v = w.tuple_error_vector(&a);
        assert_eq!(v.len(), ds.len());
    }
}

#[test]
fn csv_roundtrip_on_random_shapes() {
    use anoncmp::microdata::csv::{dataset_from_csv, dataset_to_csv};
    for cfg in configs().take(6) {
        let ds = generate_random(&cfg);
        let text = dataset_to_csv(&ds);
        let back = dataset_from_csv(ds.schema().clone(), &text).expect("roundtrip");
        assert_eq!(back.len(), ds.len());
        for t in 0..ds.len() {
            assert_eq!(back.row(t), ds.row(t), "seed {}", cfg.seed);
        }
    }
}
