//! Synthetic hospital-discharge microdata.
//!
//! A second evaluation domain beyond the census generator: the shape of
//! the hospital discharge data that motivated much of the disclosure
//! control literature (Sweeney's re-identification of medical records is
//! the field's founding anecdote). Attributes: age, zip, sex and admission
//! year as quasi-identifiers; diagnosis as the sensitive attribute;
//! insurance released as-is. Diagnosis frequencies are skewed and
//! correlated with age, which stresses ℓ-diversity and t-closeness harder
//! than the census generator does.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use anoncmp_microdata::prelude::*;

/// Configuration for the synthetic hospital generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HospitalConfig {
    /// Number of discharge records.
    pub rows: usize,
    /// RNG seed; equal seeds yield identical datasets.
    pub seed: u64,
}

impl Default for HospitalConfig {
    fn default() -> Self {
        HospitalConfig {
            rows: 1000,
            seed: 7,
        }
    }
}

const DIAGNOSES: [(&str, &str); 12] = [
    // (diagnosis, age profile: "young" | "mid" | "old" | "any")
    ("Influenza", "any"),
    ("Asthma", "young"),
    ("Fracture", "young"),
    ("Appendicitis", "young"),
    ("Hypertension", "mid"),
    ("Diabetes-II", "mid"),
    ("Depression", "mid"),
    ("Migraine", "mid"),
    ("Heart-Disease", "old"),
    ("Stroke", "old"),
    ("Arthritis", "old"),
    ("COPD", "old"),
];

const INSURANCE: [&str; 4] = ["Private", "Medicare", "Medicaid", "Uninsured"];

fn zip_pool() -> Vec<String> {
    // 24 zips in 3 regions.
    let mut zips = Vec::with_capacity(24);
    for region in ["021", "100", "606"] {
        for i in 0..8 {
            zips.push(format!("{region}{:02}", i * 7 % 100));
        }
    }
    zips
}

/// The hospital schema: `age` (QI), `zip` (QI, masking), `sex` (QI),
/// `admission` year (QI), `diagnosis` (sensitive), `insurance`
/// (insensitive).
pub fn hospital_schema() -> Arc<Schema> {
    let diagnoses: Vec<&str> = DIAGNOSES.iter().map(|(d, _)| *d).collect();
    Schema::new(vec![
        Attribute::integer("age", Role::QuasiIdentifier, 0, 100)
            .with_hierarchy(
                IntervalLadder::uniform(0, &[5, 10, 20])
                    .expect("nested")
                    .into(),
            )
            .expect("ladder fits age"),
        Attribute::from_taxonomy(
            "zip",
            Role::QuasiIdentifier,
            Taxonomy::masking(&zip_pool(), &[1, 2, 3]).expect("masking is valid"),
        ),
        Attribute::from_taxonomy(
            "sex",
            Role::QuasiIdentifier,
            Taxonomy::flat(["F", "M"]).expect("flat taxonomy"),
        ),
        Attribute::integer("admission", Role::QuasiIdentifier, 2018, 2025)
            .with_hierarchy(
                IntervalLadder::uniform(2017, &[2, 4])
                    .expect("nested")
                    .into(),
            )
            .expect("ladder fits years"),
        Attribute::categorical("diagnosis", Role::Sensitive, diagnoses),
        Attribute::categorical("insurance", Role::Insensitive, INSURANCE),
    ])
    .expect("hospital schema is valid")
}

fn weighted<R: Rng>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut x = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

/// A streaming discharge row source: yields exactly the rows
/// [`generate_hospital`] materializes, one at a time. Two sources built
/// from the same config produce identical streams; [`generate_hospital`]
/// collects one.
pub struct HospitalRows {
    rng: StdRng,
    remaining: usize,
    zip_count: usize,
}

impl HospitalRows {
    /// Creates the stream; rows match [`generate_hospital`] for the same
    /// config.
    pub fn new(config: &HospitalConfig) -> Self {
        let schema = hospital_schema();
        HospitalRows {
            rng: StdRng::seed_from_u64(config.seed),
            remaining: config.rows,
            zip_count: schema
                .attribute(1)
                .domain()
                .cardinality()
                .expect("categorical"),
        }
    }

    fn sample_row(&mut self) -> Vec<Value> {
        let rng = &mut self.rng;
        let age: i64 = {
            let r: f64 = rng.gen();
            if r < 0.2 {
                rng.gen_range(0..18)
            } else if r < 0.5 {
                rng.gen_range(18..45)
            } else if r < 0.8 {
                rng.gen_range(45..70)
            } else {
                rng.gen_range(70..=100)
            }
        };
        let zip = rng.gen_range(0..self.zip_count) as u32;
        let sex = rng.gen_range(0..2u32);
        let admission = rng.gen_range(2018..=2025i64);
        // Diagnosis weights depend on the age profile, with a skewed base
        // frequency so ℓ-diversity has something to fight.
        let weights: Vec<f64> = DIAGNOSES
            .iter()
            .enumerate()
            .map(|(i, (_, profile))| {
                let base = 1.0 / (i as f64 + 1.0); // Zipf-ish skew
                let boost = match (*profile, age) {
                    ("young", 0..=30) => 4.0,
                    ("mid", 31..=60) => 4.0,
                    ("old", 61..) => 4.0,
                    ("any", _) => 2.0,
                    _ => 0.3,
                };
                base * boost
            })
            .collect();
        let diagnosis = weighted(rng, &weights) as u32;
        let insurance = weighted(rng, &[0.55, 0.22, 0.15, 0.08]) as u32;
        vec![
            Value::Int(age),
            Value::Cat(zip),
            Value::Cat(sex),
            Value::Int(admission),
            Value::Cat(diagnosis),
            Value::Cat(insurance),
        ]
    }
}

impl Iterator for HospitalRows {
    type Item = Vec<Value>;

    fn next(&mut self) -> Option<Vec<Value>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.sample_row())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for HospitalRows {}

/// Generates a deterministic synthetic discharge dataset.
pub fn generate_hospital(config: &HospitalConfig) -> Arc<Dataset> {
    let schema = hospital_schema();
    let rows: Vec<Vec<Value>> = HospitalRows::new(config).collect();
    Dataset::new(schema, rows).expect("generated rows are schema-valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_schema_shaped() {
        let cfg = HospitalConfig { rows: 300, seed: 5 };
        let a = generate_hospital(&cfg);
        let b = generate_hospital(&cfg);
        assert_eq!(a.len(), 300);
        for t in 0..a.len() {
            assert_eq!(a.row(t), b.row(t));
        }
        let s = a.schema();
        assert_eq!(s.quasi_identifiers().len(), 4);
        assert_eq!(s.sensitive().len(), 1);
        assert!(Lattice::new(s.clone()).is_ok());
    }

    #[test]
    fn diagnosis_age_correlation() {
        let ds = generate_hospital(&HospitalConfig {
            rows: 4000,
            seed: 1,
        });
        let schema = ds.schema();
        let heart = schema.attribute(4).category_id("Heart-Disease").unwrap();
        let asthma = schema.attribute(4).category_id("Asthma").unwrap();
        let (mut old_heart, mut old_n, mut young_heart, mut young_n) = (0.0, 0.0, 0.0, 0.0);
        let (mut old_asthma, mut young_asthma) = (0.0, 0.0);
        for t in 0..ds.len() {
            let age = ds.value(t, 0).as_int().unwrap();
            let d = ds.value(t, 4).as_cat().unwrap();
            if age > 60 {
                old_n += 1.0;
                if d == heart {
                    old_heart += 1.0;
                }
                if d == asthma {
                    old_asthma += 1.0;
                }
            } else if age <= 30 {
                young_n += 1.0;
                if d == heart {
                    young_heart += 1.0;
                }
                if d == asthma {
                    young_asthma += 1.0;
                }
            }
        }
        assert!(old_heart / old_n > 2.0 * f64::max(young_heart / young_n, 1e-9));
        assert!(young_asthma / young_n > 2.0 * f64::max(old_asthma / old_n, 1e-9));
    }

    #[test]
    fn anonymizable_end_to_end() {
        use anoncmp_microdata::loss::LossMetric;
        let ds = generate_hospital(&HospitalConfig { rows: 200, seed: 3 });
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        // age 4 levels, zip 4, sex 1, admission 3.
        assert_eq!(lattice.max_levels(), &[4, 4, 1, 3]);
        let t = lattice.apply(&ds, &[2, 2, 1, 1], "mid").unwrap();
        assert!(t.classes().min_class_size() >= 1);
        assert!(LossMetric::classic().total_loss(&t) > 0.0);
    }
}
