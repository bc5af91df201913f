//! Synthetic census microdata generator.
//!
//! The algorithms the paper compares against (Iyengar's GA, Datafly,
//! Mondrian, Samarati's search) were all evaluated on the UCI *Adult*
//! census data, which is not available in this environment. This module
//! generates a distribution-matched synthetic stand-in: the same attribute
//! shapes (age, zip code, education, marital status, race, sex as
//! quasi-identifiers; occupation as the sensitive attribute), realistic
//! marginals, and mild correlations (age→marital status, education→
//! occupation) so that multidimensional algorithms have structure to
//! exploit. Generation is deterministic given a seed (DESIGN.md,
//! substitution table).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use anoncmp_microdata::prelude::*;
use serde::{Deserialize, Serialize};

/// Configuration for the synthetic census generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CensusConfig {
    /// Number of tuples to generate.
    pub rows: usize,
    /// RNG seed; equal seeds yield identical datasets.
    pub seed: u64,
    /// Number of distinct zip codes to draw from (max 500).
    pub zip_pool: usize,
}

impl Default for CensusConfig {
    fn default() -> Self {
        CensusConfig {
            rows: 1000,
            seed: 42,
            zip_pool: 40,
        }
    }
}

const EDUCATION: [(&str, &str); 8] = [
    // (leaf, parent)
    ("No-HS", "Basic"),
    ("HS-Grad", "Basic"),
    ("Some-College", "Undergraduate"),
    ("Associate", "Undergraduate"),
    ("Bachelors", "Undergraduate"),
    ("Masters", "Graduate"),
    ("Professional", "Graduate"),
    ("Doctorate", "Graduate"),
];

const MARITAL: [(&str, &str); 6] = [
    ("Never-Married", "Not-Married"),
    ("Divorced", "Not-Married"),
    ("Separated", "Not-Married"),
    ("Widowed", "Not-Married"),
    ("Married-Civ", "Married"),
    ("Married-AF", "Married"),
];

const RACE: [&str; 5] = ["White", "Black", "Asian", "Amer-Indian", "Other"];
const SEX: [&str; 2] = ["Female", "Male"];

const OCCUPATION: [&str; 10] = [
    "Clerical",
    "Craft-Repair",
    "Exec-Managerial",
    "Farming",
    "Machine-Op",
    "Prof-Specialty",
    "Sales",
    "Service",
    "Tech-Support",
    "Transport",
];

fn two_level_taxonomy(pairs: &[(&str, &str)]) -> Taxonomy {
    // Group leaves under their parents, preserving first-appearance order
    // of parents.
    let mut parents: Vec<&str> = Vec::new();
    for (_, p) in pairs {
        if !parents.contains(p) {
            parents.push(p);
        }
    }
    let mut b = Taxonomy::builder("*");
    for parent in parents {
        b.node(parent, |b| {
            for (leaf, p) in pairs {
                if *p == parent {
                    b.leaf(*leaf);
                }
            }
        });
    }
    b.build().expect("static taxonomy is valid")
}

/// The zip pool: five-digit codes spread over a handful of "regions" so
/// the masking hierarchy has meaningful intermediate levels.
fn zip_pool(n: usize) -> Vec<String> {
    const REGIONS: [&str; 5] = ["13", "60", "90", "33", "75"];
    let n = n.clamp(1, 500);
    (0..n)
        .map(|i| {
            let region = REGIONS[i % REGIONS.len()];
            format!("{}{:03}", region, (i * 37) % 1000)
        })
        .collect()
}

/// Builds the census schema for a given zip pool size.
///
/// Attributes: `age` (QI, ladder 5/10/20/40 years), `zip` (QI, masking),
/// `education` (QI, 2-level taxonomy), `marital` (QI, 2-level taxonomy),
/// `race` (QI, flat), `sex` (QI, flat), `occupation` (sensitive, flat).
pub fn census_schema(zip_pool_size: usize) -> Arc<Schema> {
    let zips = zip_pool(zip_pool_size);
    let age_ladder = IntervalLadder::uniform(15, &[5, 10, 20, 40]).expect("age ladder is nested");
    Schema::new(vec![
        Attribute::integer("age", Role::QuasiIdentifier, 15, 95)
            .with_hierarchy(age_ladder.into())
            .expect("ladder fits age"),
        Attribute::from_taxonomy(
            "zip",
            Role::QuasiIdentifier,
            Taxonomy::masking(&zips, &[1, 2, 3, 4]).expect("zip masking is valid"),
        ),
        Attribute::from_taxonomy(
            "education",
            Role::QuasiIdentifier,
            two_level_taxonomy(&EDUCATION),
        ),
        Attribute::from_taxonomy(
            "marital",
            Role::QuasiIdentifier,
            two_level_taxonomy(&MARITAL),
        ),
        Attribute::from_taxonomy(
            "race",
            Role::QuasiIdentifier,
            Taxonomy::flat(RACE).expect("flat taxonomy"),
        ),
        Attribute::from_taxonomy(
            "sex",
            Role::QuasiIdentifier,
            Taxonomy::flat(SEX).expect("flat taxonomy"),
        ),
        Attribute::categorical("occupation", Role::Sensitive, OCCUPATION),
    ])
    .expect("census schema is valid")
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

/// A streaming census row source: yields exactly the rows [`generate`]
/// materializes, one at a time, without ever holding more than one row.
///
/// Two sources built from the same config produce identical streams;
/// [`generate`] collects one.
pub struct CensusRows {
    rng: StdRng,
    remaining: usize,
    zip_count: usize,
    edu_labels: Vec<u32>,
    mar_labels: Vec<u32>,
}

impl CensusRows {
    /// Creates the stream; rows match [`generate`] for the same config.
    pub fn new(config: &CensusConfig) -> Self {
        let schema = census_schema(config.zip_pool);
        let zip_attr = schema.attribute(1);
        let edu_attr = schema.attribute(2);
        let mar_attr = schema.attribute(3);
        CensusRows {
            rng: StdRng::seed_from_u64(config.seed),
            remaining: config.rows,
            zip_count: zip_attr.domain().cardinality().expect("categorical"),
            edu_labels: EDUCATION
                .iter()
                .map(|(leaf, _)| edu_attr.category_id(leaf).expect("education label exists"))
                .collect(),
            mar_labels: MARITAL
                .iter()
                .map(|(leaf, _)| mar_attr.category_id(leaf).expect("marital label exists"))
                .collect(),
        }
    }

    fn sample_row(&mut self) -> Vec<Value> {
        let rng = &mut self.rng;
        // Age: roughly census-shaped (bulk 25-60, tail to 95).
        let age: i64 = {
            let r: f64 = rng.gen();
            if r < 0.15 {
                rng.gen_range(15..25)
            } else if r < 0.75 {
                rng.gen_range(25..55)
            } else if r < 0.95 {
                rng.gen_range(55..75)
            } else {
                rng.gen_range(75..=95)
            }
        };
        // Zip: Zipf-ish skew toward low pool indices (urban concentration).
        let zip = {
            let u: f64 = rng.gen();
            let idx = (u * u * self.zip_count as f64) as usize;
            idx.min(self.zip_count - 1) as u32
        };
        // Education in EDUCATION declaration order.
        let edu_w = [0.10, 0.32, 0.18, 0.08, 0.18, 0.09, 0.02, 0.03];
        let edu_pick = weighted(rng, &edu_w);
        // Marital status correlated with age.
        let mar_w: [f64; 6] = if age < 25 {
            [0.80, 0.02, 0.01, 0.00, 0.16, 0.01] // mostly never-married
        } else if age < 45 {
            [0.25, 0.10, 0.03, 0.01, 0.59, 0.02]
        } else if age < 65 {
            [0.08, 0.17, 0.04, 0.05, 0.64, 0.02]
        } else {
            [0.04, 0.12, 0.02, 0.25, 0.56, 0.01]
        };
        let mar_pick = weighted(rng, &mar_w);
        // Race and sex marginals.
        let race = weighted(rng, &[0.72, 0.13, 0.06, 0.02, 0.07]) as u32;
        let sex = weighted(rng, &[0.49, 0.51]) as u32;
        // Occupation correlated with education tier.
        let occ_w: [f64; 10] = match EDUCATION[edu_pick].1 {
            "Basic" => [0.14, 0.20, 0.02, 0.08, 0.16, 0.01, 0.08, 0.20, 0.01, 0.10],
            "Undergraduate" => [0.16, 0.08, 0.14, 0.02, 0.04, 0.12, 0.16, 0.10, 0.12, 0.06],
            _ => [0.04, 0.01, 0.28, 0.01, 0.01, 0.48, 0.06, 0.02, 0.08, 0.01],
        };
        let occ = weighted(rng, &occ_w) as u32;

        vec![
            Value::Int(age),
            Value::Cat(zip),
            Value::Cat(self.edu_labels[edu_pick]),
            Value::Cat(self.mar_labels[mar_pick]),
            Value::Cat(race),
            Value::Cat(sex),
            Value::Cat(occ),
        ]
    }
}

impl Iterator for CensusRows {
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

impl ExactSizeIterator for CensusRows {}

/// Generates a deterministic synthetic census dataset.
pub fn generate(config: &CensusConfig) -> Arc<Dataset> {
    let schema = census_schema(config.zip_pool);
    let rows: Vec<Vec<Value>> = CensusRows::new(config).collect();
    Dataset::new(schema, rows).expect("generated rows are schema-valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = CensusConfig {
            rows: 200,
            seed: 7,
            zip_pool: 20,
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.len(), 200);
        for t in 0..a.len() {
            assert_eq!(a.row(t), b.row(t));
        }
        let c = generate(&CensusConfig { seed: 8, ..cfg });
        let differs = (0..a.len()).any(|t| a.row(t) != c.row(t));
        assert!(differs, "different seeds generate different data");
    }

    #[test]
    fn schema_shape() {
        let s = census_schema(40);
        assert_eq!(s.len(), 7);
        assert_eq!(s.quasi_identifiers().len(), 6);
        assert_eq!(s.sensitive(), &[6]);
        // Every QI has a hierarchy, so a lattice can be built.
        let lattice = Lattice::new(s).unwrap();
        assert_eq!(lattice.dimensions(), 6);
        // age 5 levels, zip 5, education 2, marital 2, race 1, sex 1.
        assert_eq!(lattice.max_levels(), &[5, 5, 2, 2, 1, 1]);
    }

    #[test]
    fn values_respect_domains() {
        let ds = generate(&CensusConfig {
            rows: 500,
            seed: 1,
            zip_pool: 10,
        });
        for t in 0..ds.len() {
            let age = ds.value(t, 0).as_int().unwrap();
            assert!((15..=95).contains(&age));
        }
        // All seven columns populated with in-domain values is already
        // guaranteed by Dataset::new; spot-check distinct counts.
        assert!(ds.distinct(1).count() <= 10);
        assert!(ds.distinct(6).count() <= 10);
        assert!(ds.distinct(0).count() > 10, "ages should be diverse");
    }

    #[test]
    fn marital_age_correlation_present() {
        let ds = generate(&CensusConfig {
            rows: 4000,
            seed: 3,
            zip_pool: 20,
        });
        let schema = ds.schema();
        let never = schema.attribute(3).category_id("Never-Married").unwrap();
        let (mut young_never, mut young_total) = (0.0, 0.0);
        let (mut old_never, mut old_total) = (0.0, 0.0);
        for t in 0..ds.len() {
            let age = ds.value(t, 0).as_int().unwrap();
            let m = ds.value(t, 3).as_cat().unwrap();
            if age < 25 {
                young_total += 1.0;
                if m == never {
                    young_never += 1.0;
                }
            } else if age >= 45 {
                old_total += 1.0;
                if m == never {
                    old_never += 1.0;
                }
            }
        }
        assert!(young_never / young_total > 2.0 * old_never / old_total);
    }

    #[test]
    fn zip_pool_is_clamped_and_unique() {
        let pool = zip_pool(500);
        assert_eq!(pool.len(), 500);
        let mut dedup = pool.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), pool.len(), "zip codes are unique");
        for z in &pool {
            assert_eq!(z.len(), 5);
        }
        assert_eq!(zip_pool(0).len(), 1);
    }

    #[test]
    fn lattice_applies_to_generated_data() {
        let ds = generate(&CensusConfig {
            rows: 100,
            seed: 5,
            zip_pool: 10,
        });
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        let t = lattice.apply(&ds, &[2, 3, 1, 1, 1, 1], "mid").unwrap();
        assert_eq!(t.len(), 100);
        assert!(t.classes().class_count() < 100);
    }
}
