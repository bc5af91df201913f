//! The code from docs/TUTORIAL.md, compiled and executed — if the tutorial
//! drifts from the API, this test breaks.

use std::sync::Arc;

use anoncmp::anonymize::error::{AnonymizeError, Result as AnonResult};
use anoncmp::datagen::census::{generate, CensusConfig};
use anoncmp::prelude::*;

// ----------------------------------------------------------------------
// Tutorial §1: a custom property.
// ----------------------------------------------------------------------

struct SurvivalShare;

impl Property for SurvivalShare {
    fn name(&self) -> String {
        "survival-share".into()
    }

    fn extract(&self, table: &AnonymizedTable) -> PropertyVector {
        let v: Vec<f64> = (0..table.len())
            .map(|t| {
                if table.is_tuple_suppressed(t) {
                    0.0
                } else {
                    let class = table.classes().class_of(t);
                    let members = table.classes().members(class);
                    let alive = members
                        .iter()
                        .filter(|&&m| !table.is_tuple_suppressed(m as usize))
                        .count();
                    alive as f64 / members.len() as f64
                }
            })
            .collect();
        PropertyVector::new(self.name(), v)
    }
}

#[test]
fn tutorial_custom_property() {
    let ds = generate(&CensusConfig {
        rows: 120,
        seed: 77,
        zip_pool: 10,
    });
    let c = Constraint::k_anonymity(4).with_suppression(12);
    let release = Datafly.anonymize(&ds, &c).expect("feasible");
    let share = SurvivalShare.extract(&release);
    assert_eq!(share.len(), ds.len());
    for (t, s) in share.iter().enumerate() {
        assert!((0.0..=1.0).contains(&s));
        if release.is_tuple_suppressed(t) {
            assert_eq!(s, 0.0);
        }
    }
    // Composes into an r-property view.
    let set = induce_property_set(&release, &[&EqClassSize, &SurvivalShare]);
    assert_eq!(set.r(), 2);
}

// ----------------------------------------------------------------------
// Tutorial §2: a custom comparator.
// ----------------------------------------------------------------------

struct MedianComparator;

impl Comparator for MedianComparator {
    fn name(&self) -> String {
        "med".into()
    }

    fn compare(&self, d1: &PropertyVector, d2: &PropertyVector) -> Preference {
        let med = |d: &PropertyVector| classic::MedianIndex.value(d);
        match med(d1).partial_cmp(&med(d2)).expect("no NaN") {
            std::cmp::Ordering::Greater => Preference::First,
            std::cmp::Ordering::Less => Preference::Second,
            std::cmp::Ordering::Equal => Preference::Tie,
        }
    }
}

#[test]
fn tutorial_custom_comparator_invariants() {
    let a = PropertyVector::new("a", vec![3.0, 7.0, 7.0]);
    let b = PropertyVector::new("b", vec![3.0, 4.0, 4.0]);
    // Antisymmetry.
    assert_eq!(
        MedianComparator.compare(&a, &b),
        MedianComparator.compare(&b, &a).flipped()
    );
    // Dominance compatibility.
    assert!(strongly_dominates(&a, &b));
    assert_ne!(MedianComparator.compare(&a, &b), Preference::Second);
    // Tournament integration + agreement with a built-in.
    let names = ["a", "b"];
    let vectors = [a, b];
    let med = ComparisonMatrix::of_vectors(&names, &vectors, &MedianComparator);
    let cov = ComparisonMatrix::of_vectors(&names, &vectors, &CoverageComparator);
    assert_eq!(kendall_tau(&med.ranking(), &cov.ranking()), 1.0);
}

// ----------------------------------------------------------------------
// Tutorial §3: a custom privacy model.
// ----------------------------------------------------------------------

struct FrequencyCap {
    cap: usize,
    column: usize,
}

impl PrivacyModel for FrequencyCap {
    fn name(&self) -> String {
        format!("freq-cap {}", self.cap)
    }

    fn class_satisfied(&self, table: &AnonymizedTable, members: &[u32]) -> bool {
        let ds = table.dataset();
        members.iter().all(|&t| {
            let own = ds.value(t as usize, self.column);
            members
                .iter()
                .filter(|&&m| ds.value(m as usize, self.column) == own)
                .count()
                <= self.cap
        })
    }
}

#[test]
fn tutorial_custom_model() {
    let ds = generate(&CensusConfig {
        rows: 150,
        seed: 5,
        zip_pool: 12,
    });
    let c = Constraint::k_anonymity(2)
        .with_suppression(ds.len())
        .with_model(Arc::new(FrequencyCap { cap: 6, column: 6 }));
    // Mondrian + enforcement handles even non-monotone extras.
    let t = Mondrian.anonymize(&ds, &c).expect("budget covers the cap");
    assert!(c.satisfied(&t));
}

// ----------------------------------------------------------------------
// Tutorial §4: a custom algorithm.
// ----------------------------------------------------------------------

struct HillClimb {
    restarts: usize,
}

impl Anonymizer for HillClimb {
    fn name(&self) -> String {
        "hill-climb".into()
    }

    fn anonymize(
        &self,
        dataset: &Arc<Dataset>,
        constraint: &Constraint,
    ) -> AnonResult<AnonymizedTable> {
        let lattice = Lattice::new(dataset.schema().clone())?;
        let metric = anoncmp::microdata::loss::LossMetric::classic();
        let mut best: Option<(f64, AnonymizedTable)> = None;
        for restart in 0..self.restarts.max(1) {
            let mut levels = lattice.top();
            let mut improved = true;
            while improved {
                improved = false;
                let mut preds = lattice.predecessors(&levels);
                let len = preds.len();
                if len > 0 {
                    preds.rotate_left(restart % len);
                }
                for pred in preds {
                    let table = lattice.apply(dataset, &pred, "hill-climb")?;
                    if constraint.enforce(&table).is_some() {
                        levels = pred;
                        improved = true;
                        break;
                    }
                }
            }
            let table = lattice.apply(dataset, &levels, "hill-climb")?;
            let table = constraint.enforce(&table).expect("descent stayed feasible");
            let loss = metric.total_loss(&table);
            if best.as_ref().is_none_or(|(l, _)| loss < *l) {
                best = Some((loss, table));
            }
        }
        best.map(|(_, t)| t)
            .ok_or_else(|| AnonymizeError::Unsatisfiable("no feasible node found".into()))
    }
}

#[test]
fn tutorial_custom_algorithm() {
    let ds = generate(&CensusConfig {
        rows: 120,
        seed: 13,
        zip_pool: 10,
    });
    for k in [2usize, 5] {
        let c = Constraint::k_anonymity(k).with_suppression(10);
        let t = HillClimb { restarts: 3 }
            .anonymize(&ds, &c)
            .expect("monotone constraint, top is feasible");
        assert!(c.satisfied(&t), "k = {k}");
        assert_eq!(t.len(), ds.len());
        // Never better than the exhaustive optimum.
        let (opt, _, _) = OptimalLattice.run(&ds, &c).expect("optimal");
        let m = anoncmp::microdata::loss::LossMetric::classic();
        assert!(m.total_loss(&t) >= m.total_loss(&opt) - 1e-9);
    }
}
