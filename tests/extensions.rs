//! Integration tests for the extension layer: the §7 multi-objective
//! frontier, the ε-indicator, query-workload utility, tournament
//! summaries, risk reports, and personalized privacy — all across crates
//! through the public API.

use std::sync::Arc;

use anoncmp::datagen::census::{generate, CensusConfig};
use anoncmp::prelude::*;

fn dataset() -> Arc<Dataset> {
    generate(&CensusConfig {
        rows: 180,
        seed: 63,
        zip_pool: 15,
    })
}

#[test]
fn moga_front_dominates_or_matches_constraint_algorithms() {
    // Every constraint-based release at k = 5 must be weakly covered by
    // the front: no release may strongly dominate ALL frontier points
    // (otherwise the front missed a region).
    let ds = dataset();
    let moga = MultiObjectiveGenetic {
        config: MogaConfig {
            population: 16,
            generations: 12,
            ..Default::default()
        },
        ..Default::default()
    };
    let front = moga.run(&ds).expect("moga runs");
    assert!(!front.is_empty());

    let c = Constraint::k_anonymity(5).with_suppression(9);
    let metric = anoncmp::microdata::loss::LossMetric::classic();
    for algo in [&Datafly as &dyn Anonymizer, &Mondrian, &TopDown] {
        let t = algo.anonymize(&ds, &c).expect("feasible");
        let point = vec![
            EqClassSize.extract(&t).mean().expect("non-empty"),
            -metric.total_loss(&t),
        ];
        let dominates_whole_front = front
            .iter()
            .all(|s| point_strongly_dominates(&point, &s.objectives));
        assert!(
            !dominates_whole_front,
            "{} dominates the entire front — front is degenerate",
            algo.name()
        );
    }
}

#[test]
fn epsilon_comparator_is_consistent_with_dominance_on_real_releases() {
    let ds = dataset();
    let c = Constraint::k_anonymity(3).with_suppression(9);
    let a = Datafly.anonymize(&ds, &c).expect("datafly");
    let b = Incognito.anonymize(&ds, &c).expect("incognito");
    let va = EqClassSize.extract(&a);
    let vb = EqClassSize.extract(&b);
    let eps = EpsilonComparator::default();
    // Characterization: I_ε+(X,Y) ≤ 0 ⟺ X ⪰ Y.
    assert_eq!(
        additive_epsilon_index(&va, &vb) <= 0.0,
        weakly_dominates(&va, &vb)
    );
    assert_eq!(
        additive_epsilon_index(&vb, &va) <= 0.0,
        weakly_dominates(&vb, &va)
    );
    // Antisymmetry of the comparator.
    assert_eq!(eps.compare(&va, &vb), eps.compare(&vb, &va).flipped());
}

#[test]
fn query_workload_ranks_mondrian_over_full_domain() {
    let ds = dataset();
    let c = Constraint::k_anonymity(5).with_suppression(9);
    let mond = Mondrian.anonymize(&ds, &c).expect("mondrian");
    let data = Datafly.anonymize(&ds, &c).expect("datafly");
    let w = Workload::random(&ds, 40, 2, 0.3, 11);
    let em = w.mean_relative_error(&mond);
    let ed = w.mean_relative_error(&data);
    assert!(em <= ed + 1e-9, "mondrian {em} vs datafly {ed}");
    // The per-tuple decomposition agrees through ▶cov.
    let vm = w.tuple_error_vector(&mond);
    let vd = w.tuple_error_vector(&data);
    assert_ne!(
        CoverageComparator.compare(&vm, &vd),
        Preference::Second,
        "datafly should not cover mondrian on per-tuple query error"
    );
}

#[test]
fn comparison_matrix_spans_crates() {
    let ds = dataset();
    let c = Constraint::k_anonymity(4).with_suppression(9);
    let releases: Vec<AnonymizedTable> = vec![
        Datafly.anonymize(&ds, &c).expect("datafly"),
        Mondrian.anonymize(&ds, &c).expect("mondrian"),
        TopDown.anonymize(&ds, &c).expect("top-down"),
    ];
    let names: Vec<&str> = releases.iter().map(|t| t.name()).collect();
    let vectors: Vec<PropertyVector> = releases.iter().map(|t| EqClassSize.extract(t)).collect();
    let m = ComparisonMatrix::of_vectors(&names, &vectors, &CoverageComparator);
    // Copeland scores sum to zero when there are no incomparabilities.
    let total: i64 = (0..3).map(|i| m.copeland(i)).sum();
    assert_eq!(total, 0);
    let rendered = m.render();
    for n in names {
        assert!(rendered.contains(n));
    }
}

#[test]
fn risk_report_improves_with_anonymization() {
    let ds = dataset();
    let raw = AnonymizedTable::identity(ds.clone(), "raw");
    let c = Constraint::k_anonymity(5).with_suppression(9);
    let anon = Mondrian.anonymize(&ds, &c).expect("mondrian");
    let r_raw = RiskReport::of(&raw, 0.2);
    let r_anon = RiskReport::of(&anon, 0.2);
    assert!(
        r_anon.max_risk <= 1.0 / 5.0 + 1e-12,
        "k = 5 caps risk at 0.2"
    );
    assert!(r_anon.max_risk <= r_raw.max_risk);
    assert!(r_anon.expected_reidentifications < r_raw.expected_reidentifications);
    assert_eq!(r_anon.at_risk_fraction, 0.0);
}

#[test]
fn personalized_privacy_end_to_end() {
    let ds = dataset();
    // Older individuals demand stronger protection (k = 8), younger ones
    // are content with k = 2.
    let demands: Vec<usize> = (0..ds.len())
        .map(|t| {
            let age = ds.value(t, 0).as_int().expect("age column");
            if age >= 60 {
                8
            } else {
                2
            }
        })
        .collect();
    let model = PersonalizedKAnonymity::new(demands.clone());
    let c = Constraint::k_anonymity(2)
        .with_suppression(ds.len() / 10)
        .with_model(Arc::new(model));
    let t = Datafly
        .anonymize(&ds, &c)
        .expect("personalized demands reachable");
    assert!(c.satisfied(&t));
    // Slack is nonnegative for every non-suppressed tuple.
    let model = PersonalizedKAnonymity::new(demands);
    let slack = personalized_slack_vector(&t, &model);
    for (tuple, s) in slack.iter().enumerate() {
        if !t.is_tuple_suppressed(tuple) {
            assert!(s >= 0.0, "tuple {tuple} below its personal demand");
        }
    }
    // The spread of slack values is the personalized anonymization bias:
    // some individuals get exactly their demand, others far more.
    assert!(slack.max().expect("non-empty") > slack.min().expect("non-empty"));
}

#[test]
fn pareto_helpers_agree_with_vector_dominance() {
    // point_*_dominates must agree with the PropertyVector relations.
    let a = vec![3.0, 5.0, 2.0];
    let b = vec![3.0, 4.0, 2.0];
    let va = PropertyVector::new("a", a.clone());
    let vb = PropertyVector::new("b", b.clone());
    assert_eq!(point_weakly_dominates(&a, &b), weakly_dominates(&va, &vb));
    assert_eq!(
        point_strongly_dominates(&a, &b),
        strongly_dominates(&va, &vb)
    );
    let front = pareto_front(&[a.clone(), b.clone()]);
    assert_eq!(front, vec![0]);
    let fronts = non_dominated_sort(&[a, b]);
    assert_eq!(fronts.len(), 2);
}
