//! Multi-objective genetic search — the paper's §7 extension realized.
//!
//! "Under the light of vector representations, privacy should no longer be
//! imposed only as a constraint in the framework but rather handled
//! directly as an objective to maximize. We leave the exploration of this
//! frontier for a later study." — this module is that exploration, in the
//! spirit of Dewri et al.'s weighted-k-anonymity formulation (\[2\] in the
//! paper): no privacy *constraint* at all, instead a set of
//! [`Objective`]s (privacy-side and utility-side) optimized simultaneously
//! with NSGA-II machinery from `anoncmp_core::pareto`, returning the
//! **Pareto front of anonymizations** instead of a single winner.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use anoncmp_core::bias::gini;
use anoncmp_core::pareto::{nsga2_order, pareto_front};
use anoncmp_core::prelude::{EqClassSize, Property};
use anoncmp_microdata::loss::LossMetric;
use anoncmp_microdata::prelude::{AnonymizedTable, Dataset, GenCodec, LevelVector, NodePartition};

use crate::algorithms::full_domain::FullDomain;
use crate::algorithms::DatasetContext;
use crate::constraint::Constraint;
use crate::error::Result;

/// An objective measured on a candidate release. Higher is better
/// (workspace convention); invert lower-is-better measurements.
pub trait Objective: Send + Sync {
    /// Display name, e.g. `"mean-class-size"`.
    fn name(&self) -> String;

    /// The objective value of one release.
    fn value(&self, table: &AnonymizedTable) -> f64;

    /// The objective value of a lattice node, evaluated on the encoded
    /// representation — no table materialization. The search loop calls
    /// this for every candidate, so built-in objectives override it with
    /// direct codec kernels; the default decodes the node and falls back
    /// to [`Objective::value`]. Overrides must return the bit-identical
    /// value the decoded-table path would.
    fn value_encoded(&self, codec: &GenCodec, partition: &NodePartition) -> f64 {
        let table = codec
            .decode(partition.levels(), "moga")
            .expect("partition levels fit the codec");
        self.value(&table)
    }
}

/// Privacy objective: mean equivalence-class size — the "weighted
/// equivalence class size" reading of Dewri et al. \[2\].
#[derive(Debug, Clone, Copy, Default)]
pub struct MeanClassSize;

impl Objective for MeanClassSize {
    fn name(&self) -> String {
        "mean-class-size".into()
    }

    fn value(&self, table: &AnonymizedTable) -> f64 {
        EqClassSize.extract(table).mean().unwrap_or(0.0)
    }

    fn value_encoded(&self, codec: &GenCodec, partition: &NodePartition) -> f64 {
        EqClassSize
            .extract_encoded(codec, partition)
            .mean()
            .unwrap_or(0.0)
    }
}

/// Privacy objective: the scalar k (minimum class size) — kept for
/// comparison with the classical constraint view.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinClassSize;

impl Objective for MinClassSize {
    fn name(&self) -> String {
        "min-class-size".into()
    }

    fn value(&self, table: &AnonymizedTable) -> f64 {
        table.classes().min_class_size() as f64
    }

    fn value_encoded(&self, _codec: &GenCodec, partition: &NodePartition) -> f64 {
        partition.sizes().iter().copied().min().unwrap_or(0) as f64
    }
}

/// Utility objective: negated total generalization loss.
#[derive(Debug, Clone)]
pub struct NegLoss {
    /// The loss metric to negate.
    pub metric: LossMetric,
}

impl Default for NegLoss {
    fn default() -> Self {
        NegLoss {
            metric: LossMetric::classic(),
        }
    }
}

impl Objective for NegLoss {
    fn name(&self) -> String {
        "neg-loss".into()
    }

    fn value(&self, table: &AnonymizedTable) -> f64 {
        -self.metric.total_loss(table)
    }

    fn value_encoded(&self, codec: &GenCodec, partition: &NodePartition) -> f64 {
        -self
            .metric
            .total_loss_encoded(codec, partition.levels())
            .expect("partition levels fit the codec")
    }
}

/// Fairness objective: negated Gini coefficient of the per-tuple privacy
/// distribution — directly optimizing *against* anonymization bias (§2).
#[derive(Debug, Clone, Copy, Default)]
pub struct NegPrivacyGini;

impl Objective for NegPrivacyGini {
    fn name(&self) -> String {
        "neg-privacy-gini".into()
    }

    fn value(&self, table: &AnonymizedTable) -> f64 {
        -gini(&EqClassSize.extract(table))
    }

    fn value_encoded(&self, codec: &GenCodec, partition: &NodePartition) -> f64 {
        -gini(&EqClassSize.extract_encoded(codec, partition))
    }
}

/// One point of the resulting Pareto front.
pub struct ParetoSolution {
    /// The level vector of this release.
    pub levels: LevelVector,
    /// Objective values, in objective order.
    pub objectives: Vec<f64>,
    /// The release itself.
    pub table: AnonymizedTable,
}

impl std::fmt::Debug for ParetoSolution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParetoSolution")
            .field("levels", &self.levels)
            .field("objectives", &self.objectives)
            .finish()
    }
}

/// Configuration of the multi-objective search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MogaConfig {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MogaConfig {
    fn default() -> Self {
        MogaConfig {
            population: 32,
            generations: 30,
            mutation_rate: 0.2,
            seed: 42,
        }
    }
}

/// NSGA-II over the full-domain generalization lattice.
///
/// ```
/// use anoncmp_anonymize::prelude::*;
/// use anoncmp_datagen::census::{generate, CensusConfig};
///
/// let data = generate(&CensusConfig { rows: 80, seed: 1, zip_pool: 8 });
/// let moga = MultiObjectiveGenetic {
///     config: MogaConfig { population: 8, generations: 4, ..Default::default() },
///     ..Default::default()
/// };
/// let front = moga.run(&data).unwrap();
/// assert!(!front.is_empty());
/// // Sorted by privacy descending; utility rises as privacy falls.
/// for pair in front.windows(2) {
///     assert!(pair[0].objectives[0] >= pair[1].objectives[0]);
/// }
/// ```
pub struct MultiObjectiveGenetic {
    /// Search configuration.
    pub config: MogaConfig,
    /// The objectives to maximize simultaneously (at least two).
    pub objectives: Vec<Arc<dyn Objective>>,
}

impl Default for MultiObjectiveGenetic {
    fn default() -> Self {
        MultiObjectiveGenetic {
            config: MogaConfig::default(),
            objectives: vec![Arc::new(MeanClassSize), Arc::new(NegLoss::default())],
        }
    }
}

struct Individual {
    levels: LevelVector,
    objectives: Vec<f64>,
}

impl MultiObjectiveGenetic {
    /// Scores one lattice node through the encoded kernel: a
    /// [`NodePartition`] (class structure only) replaces the materialized
    /// table the search loop used to build per candidate.
    fn evaluate(&self, codec: &GenCodec, levels: LevelVector) -> Result<Individual> {
        let partition = codec.partition(&levels)?;
        let objectives = self
            .objectives
            .iter()
            .map(|o| o.value_encoded(codec, &partition))
            .collect();
        Ok(Individual { levels, objectives })
    }

    /// Runs the search and returns the non-dominated front, sorted by the
    /// first objective descending. The front always contains at least one
    /// solution.
    ///
    /// # Errors
    /// [`AnonymizeError::InvalidConfig`](crate::error::AnonymizeError::InvalidConfig)
    /// for degenerate configurations; propagation of lattice errors
    /// otherwise.
    pub fn run(&self, dataset: &Arc<Dataset>) -> Result<Vec<ParetoSolution>> {
        // Objectives are unconstrained, so borrow a k = 1 constraint for
        // the shared sanity checks.
        let unconstrained = Constraint::k_anonymity(1);
        let problem = if self.objectives.len() < 2 {
            Some("multi-objective search needs at least two objectives")
        } else {
            (self.config.population < 4).then_some("population must be ≥ 4")
        };
        let ctx = DatasetContext::new(dataset.clone());
        let fd = FullDomain::with_config(&ctx, &unconstrained, "moga", problem)?;
        let (lattice, codec) = (fd.lattice(), fd.codec());
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        // Initial population: corners plus random nodes.
        let mut population: Vec<Individual> = Vec::with_capacity(self.config.population * 2);
        population.push(self.evaluate(codec, lattice.bottom())?);
        population.push(self.evaluate(codec, lattice.top())?);
        while population.len() < self.config.population {
            let levels: LevelVector = lattice
                .max_levels()
                .iter()
                .map(|&m| rng.gen_range(0..=m))
                .collect();
            population.push(self.evaluate(codec, levels)?);
        }

        for _ in 0..self.config.generations {
            // Variation: binary tournaments on (front, crowding), one-point
            // crossover, ±1 mutation.
            let points: Vec<Vec<f64>> = population.iter().map(|i| i.objectives.clone()).collect();
            let mut rank = vec![0usize; points.len()];
            for (position, i) in nsga2_order(&points).into_iter().enumerate() {
                rank[i] = position;
            }
            let mut offspring: Vec<Individual> = Vec::with_capacity(self.config.population);
            while offspring.len() < self.config.population {
                let a = tournament(&mut rng, &rank);
                let b = tournament(&mut rng, &rank);
                let cut = rng.gen_range(0..=population[a].levels.len());
                let mut child: LevelVector = population[a].levels[..cut]
                    .iter()
                    .chain(population[b].levels[cut..].iter())
                    .copied()
                    .collect();
                for (dim, l) in child.iter_mut().enumerate() {
                    if rng.gen::<f64>() < self.config.mutation_rate {
                        let max = lattice.max_levels()[dim];
                        *l = if *l == 0 {
                            1.min(max)
                        } else if *l == max {
                            max.saturating_sub(1)
                        } else if rng.gen::<bool>() {
                            *l + 1
                        } else {
                            *l - 1
                        };
                    }
                }
                offspring.push(self.evaluate(codec, child)?);
            }
            // Environmental selection: μ+λ, keep the NSGA-II best.
            population.extend(offspring);
            let points: Vec<Vec<f64>> = population.iter().map(|i| i.objectives.clone()).collect();
            let keep = nsga2_order(&points);
            let mut next: Vec<Individual> = Vec::with_capacity(self.config.population);
            let mut taken = vec![false; population.len()];
            for &i in keep.iter().take(self.config.population) {
                taken[i] = true;
            }
            for (i, ind) in population.drain(..).enumerate() {
                if taken[i] {
                    next.push(ind);
                }
            }
            population = next;
        }

        // Final front, deduplicated by level vector.
        population.sort_by(|a, b| a.levels.cmp(&b.levels));
        population.dedup_by(|a, b| a.levels == b.levels);
        let points: Vec<Vec<f64>> = population.iter().map(|i| i.objectives.clone()).collect();
        let front = pareto_front(&points);
        let mut solutions: Vec<ParetoSolution> = Vec::with_capacity(front.len());
        for i in front {
            let table = fd.decode(&population[i].levels)?;
            solutions.push(ParetoSolution {
                levels: population[i].levels.clone(),
                objectives: population[i].objectives.clone(),
                table,
            });
        }
        solutions.sort_by(|a, b| {
            b.objectives[0]
                .partial_cmp(&a.objectives[0])
                .expect("objectives are not NaN")
        });
        Ok(solutions)
    }
}

/// Binary tournament: the individual with the smaller survival rank wins.
fn tournament(rng: &mut StdRng, rank: &[usize]) -> usize {
    let a = rng.gen_range(0..rank.len());
    let b = rng.gen_range(0..rank.len());
    if rank[a] <= rank[b] {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::AnonymizeError;
    use anoncmp_microdata::prelude::Lattice;

    use crate::algorithms::test_support::small_census;

    fn quick() -> MultiObjectiveGenetic {
        MultiObjectiveGenetic {
            config: MogaConfig {
                population: 12,
                generations: 8,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn front_is_mutually_non_dominated() {
        let ds = small_census();
        let front = quick().run(&ds).unwrap();
        assert!(!front.is_empty());
        for (i, a) in front.iter().enumerate() {
            for (j, b) in front.iter().enumerate() {
                if i != j {
                    assert!(
                        !anoncmp_core::pareto::point_strongly_dominates(
                            &a.objectives,
                            &b.objectives
                        ),
                        "front member dominates another"
                    );
                }
            }
        }
    }

    #[test]
    fn front_spans_the_privacy_utility_tradeoff() {
        let ds = small_census();
        let front = quick().run(&ds).unwrap();
        // Sorted by privacy descending, utility must be ascending — the
        // trade-off curve of §7.
        for w in front.windows(2) {
            assert!(w[0].objectives[0] >= w[1].objectives[0]);
            assert!(
                w[0].objectives[1] <= w[1].objectives[1] + 1e-9,
                "utility must rise as privacy falls along the front"
            );
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let ds = small_census();
        let f1 = quick().run(&ds).unwrap();
        let f2 = quick().run(&ds).unwrap();
        assert_eq!(f1.len(), f2.len());
        for (a, b) in f1.iter().zip(&f2) {
            assert_eq!(a.levels, b.levels);
        }
    }

    #[test]
    fn three_objective_run_with_fairness() {
        let ds = small_census();
        let moga = MultiObjectiveGenetic {
            config: MogaConfig {
                population: 12,
                generations: 6,
                ..Default::default()
            },
            objectives: vec![
                Arc::new(MeanClassSize),
                Arc::new(NegLoss::default()),
                Arc::new(NegPrivacyGini),
            ],
        };
        let front = moga.run(&ds).unwrap();
        assert!(!front.is_empty());
        for s in &front {
            assert_eq!(s.objectives.len(), 3);
            // Gini objective is in [-1, 0].
            assert!((-1.0..=0.0).contains(&s.objectives[2]));
        }
    }

    #[test]
    fn objective_names_and_values() {
        let ds = small_census();
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        let t = lattice.apply(&ds, &lattice.top(), "top").unwrap();
        assert_eq!(MeanClassSize.value(&t), ds.len() as f64);
        assert_eq!(MinClassSize.value(&t), ds.len() as f64);
        assert!(NegLoss::default().value(&t) < 0.0);
        assert_eq!(NegPrivacyGini.value(&t), 0.0, "uniform sizes → zero gini");
        assert_eq!(MeanClassSize.name(), "mean-class-size");
        assert_eq!(MinClassSize.name(), "min-class-size");
        assert_eq!(NegLoss::default().name(), "neg-loss");
        assert_eq!(NegPrivacyGini.name(), "neg-privacy-gini");
    }

    #[test]
    fn encoded_objectives_match_table_objectives() {
        // Every built-in objective must score a node identically whether
        // it sees the materialized table or the encoded partition.
        let ds = small_census();
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        let codec = GenCodec::new(&ds).unwrap();
        let objectives: Vec<Arc<dyn Objective>> = vec![
            Arc::new(MeanClassSize),
            Arc::new(MinClassSize),
            Arc::new(NegLoss::default()),
            Arc::new(NegPrivacyGini),
        ];
        for levels in [
            lattice.bottom(),
            lattice.top(),
            vec![1; lattice.bottom().len()],
        ] {
            let table = lattice.apply(&ds, &levels, "node").unwrap();
            let partition = codec.partition(&levels).unwrap();
            for o in &objectives {
                assert_eq!(
                    o.value(&table),
                    o.value_encoded(&codec, &partition),
                    "{} diverges at {levels:?}",
                    o.name()
                );
            }
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let ds = small_census();
        let m = MultiObjectiveGenetic {
            objectives: vec![Arc::new(MeanClassSize)],
            ..MultiObjectiveGenetic::default()
        };
        assert!(matches!(m.run(&ds), Err(AnonymizeError::InvalidConfig(_))));
        let m = MultiObjectiveGenetic {
            config: MogaConfig {
                population: 2,
                ..Default::default()
            },
            ..MultiObjectiveGenetic::default()
        };
        assert!(matches!(m.run(&ds), Err(AnonymizeError::InvalidConfig(_))));
    }

    #[test]
    fn corners_anchor_the_front() {
        // The raw release maximizes utility; the top maximizes privacy.
        // Both are seeded, so the front ends must match or beat them.
        let ds = small_census();
        let front = quick().run(&ds).unwrap();
        let best_privacy = front.first().unwrap();
        let best_utility = front.last().unwrap();
        assert!(best_privacy.objectives[0] >= ds.len() as f64 - 1e-9);
        assert!(
            best_utility.objectives[1] >= -1e-9,
            "raw release has zero loss"
        );
    }
}
