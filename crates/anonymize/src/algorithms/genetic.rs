//! Iyengar-style genetic search over the generalization lattice (cited as
//! \[7\] in the paper, with the crossover refinement of Lunacek et al. \[12\]).
//!
//! Chromosomes are level vectors; fitness rewards low information loss for
//! feasible individuals (constraint satisfiable within the suppression
//! budget) and penalizes infeasible ones proportionally to their violation
//! count, so the population is pulled toward the feasible frontier from
//! both sides. Selection is tournament-based; crossover is either uniform
//! or the one-point level-preserving variant ("Lunacek-style"); mutation
//! nudges single levels by ±1. Deterministic under a fixed seed.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use anoncmp_microdata::prelude::{AnonymizedTable, Dataset, Lattice, LevelVector};

use crate::algorithms::full_domain::{FullDomain, Verdict};
use crate::algorithms::{Anonymizer, DatasetContext};
use crate::constraint::Constraint;
use crate::error::{AnonymizeError, Result};

/// Crossover operator for level vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Crossover {
    /// Each gene independently from either parent.
    Uniform,
    /// One cut point; prefix from one parent, suffix from the other — the
    /// constrained operator of Lunacek et al., which preserves contiguous
    /// generalization decisions.
    OnePoint,
}

/// Configuration of the genetic search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeneticConfig {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Tournament size for selection.
    pub tournament: usize,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Crossover operator.
    pub crossover: Crossover,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GeneticConfig {
    fn default() -> Self {
        GeneticConfig {
            population: 32,
            generations: 40,
            tournament: 3,
            mutation_rate: 0.15,
            crossover: Crossover::OnePoint,
            seed: 42,
        }
    }
}

/// The genetic lattice search.
#[derive(Debug, Clone, Default)]
pub struct Genetic {
    /// Search configuration.
    pub config: GeneticConfig,
}

struct Evaluated {
    levels: LevelVector,
    fitness: f64,
    feasible: bool,
}

impl Genetic {
    fn evaluate(fd: &FullDomain<'_>, levels: LevelVector) -> Result<Evaluated> {
        let (fitness, feasible) = match fd.judge(&levels)? {
            Verdict::Feasible { loss, .. } => (-loss, true),
            Verdict::Infeasible(violating) => {
                // Infeasible: rank below every feasible individual, better
                // when fewer tuples violate.
                let n = fd.codec().rows() as f64;
                let a = fd.codec().dims() as f64;
                // Worst feasible fitness is -(loss ≤ a per tuple) ≥ -a·n.
                (-a * n - violating as f64, false)
            }
        };
        Ok(Evaluated {
            levels,
            fitness,
            feasible,
        })
    }

    fn mutate(&self, rng: &mut StdRng, lattice: &Lattice, levels: &mut LevelVector) {
        for (dim, l) in levels.iter_mut().enumerate() {
            if rng.gen::<f64>() < self.config.mutation_rate {
                let max = lattice.max_levels()[dim];
                if *l == 0 {
                    *l += 1;
                } else if *l == max {
                    *l -= 1;
                } else if rng.gen::<bool>() {
                    *l += 1;
                } else {
                    *l -= 1;
                }
            }
        }
    }

    fn cross(&self, rng: &mut StdRng, a: &LevelVector, b: &LevelVector) -> LevelVector {
        match self.config.crossover {
            Crossover::Uniform => a
                .iter()
                .zip(b)
                .map(|(&x, &y)| if rng.gen::<bool>() { x } else { y })
                .collect(),
            Crossover::OnePoint => {
                let cut = rng.gen_range(0..=a.len());
                a[..cut].iter().chain(b[cut..].iter()).copied().collect()
            }
        }
    }

    /// Runs the search, returning the best table and its level vector.
    pub fn run(
        &self,
        dataset: &Arc<Dataset>,
        constraint: &Constraint,
    ) -> Result<(AnonymizedTable, LevelVector)> {
        self.run_in(&DatasetContext::new(dataset.clone()), constraint)
    }

    /// [`Self::run`] on the lattice index of `ctx`.
    fn run_in(
        &self,
        ctx: &DatasetContext,
        constraint: &Constraint,
    ) -> Result<(AnonymizedTable, LevelVector)> {
        let problem = (self.config.population < 2 || self.config.tournament == 0)
            .then_some("population must be ≥ 2 and tournament ≥ 1");
        let fd = FullDomain::with_config(ctx, constraint, "genetic", problem)?;
        let lattice = fd.lattice();
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        // Initial population: random nodes plus the top (always feasible
        // for monotone constraints, anchoring the feasible side).
        let mut population: Vec<Evaluated> = Vec::with_capacity(self.config.population);
        population.push(Self::evaluate(&fd, lattice.top())?);
        while population.len() < self.config.population {
            let levels: LevelVector = lattice
                .max_levels()
                .iter()
                .map(|&m| rng.gen_range(0..=m))
                .collect();
            population.push(Self::evaluate(&fd, levels)?);
        }

        let mut best_idx = Self::best_index(&population);
        for _ in 0..self.config.generations {
            let mut next: Vec<Evaluated> = Vec::with_capacity(self.config.population);
            // Elitism: carry the best individual forward unchanged.
            next.push(Self::evaluate(&fd, population[best_idx].levels.clone())?);
            while next.len() < self.config.population {
                let a = self.select(&mut rng, &population);
                let b = self.select(&mut rng, &population);
                let mut child = self.cross(&mut rng, &population[a].levels, &population[b].levels);
                self.mutate(&mut rng, lattice, &mut child);
                next.push(Self::evaluate(&fd, child)?);
            }
            population = next;
            best_idx = Self::best_index(&population);
        }

        let best = population.swap_remove(best_idx);
        if !best.feasible {
            return Err(AnonymizeError::Unsatisfiable(format!(
                "no feasible individual found for {} (the constraint may be \
                 unsatisfiable even at the lattice top)",
                constraint.describe()
            )));
        }
        Ok((fd.release(&best.levels)?, best.levels))
    }

    fn best_index(population: &[Evaluated]) -> usize {
        population
            .iter()
            .enumerate()
            .max_by(|a, b| {
                a.1.fitness
                    .partial_cmp(&b.1.fitness)
                    .expect("fitness not NaN")
            })
            .map(|(i, _)| i)
            .expect("population is non-empty")
    }

    fn select(&self, rng: &mut StdRng, population: &[Evaluated]) -> usize {
        let mut best = rng.gen_range(0..population.len());
        for _ in 1..self.config.tournament {
            let c = rng.gen_range(0..population.len());
            if population[c].fitness > population[best].fitness {
                best = c;
            }
        }
        best
    }
}

impl Anonymizer for Genetic {
    fn name(&self) -> String {
        match self.config.crossover {
            Crossover::Uniform => "genetic-uniform".into(),
            Crossover::OnePoint => "genetic".into(),
        }
    }

    fn anonymize(
        &self,
        dataset: &Arc<Dataset>,
        constraint: &Constraint,
    ) -> Result<AnonymizedTable> {
        self.run(dataset, constraint).map(|(t, _)| t)
    }

    fn anonymize_in(
        &self,
        ctx: &DatasetContext,
        constraint: &Constraint,
    ) -> Result<AnonymizedTable> {
        self.run_in(ctx, constraint).map(|(t, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anoncmp_microdata::loss::LossMetric;

    use crate::algorithms::test_support::small_census;

    fn quick() -> Genetic {
        Genetic {
            config: GeneticConfig {
                population: 16,
                generations: 12,
                ..Default::default()
            },
        }
    }

    #[test]
    fn finds_feasible_solutions() {
        let ds = small_census();
        for k in [2, 5] {
            let c = Constraint::k_anonymity(k).with_suppression(ds.len() / 10);
            let (t, levels) = quick().run(&ds, &c).unwrap();
            assert!(c.satisfied(&t), "k = {k}");
            let lattice = Lattice::new(ds.schema().clone()).unwrap();
            assert!(lattice.contains(&levels));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let ds = small_census();
        let c = Constraint::k_anonymity(3).with_suppression(6);
        let (_, l1) = quick().run(&ds, &c).unwrap();
        let (_, l2) = quick().run(&ds, &c).unwrap();
        assert_eq!(l1, l2);
    }

    #[test]
    fn crossover_variants_both_work() {
        let ds = small_census();
        let c = Constraint::k_anonymity(4).with_suppression(6);
        for crossover in [Crossover::Uniform, Crossover::OnePoint] {
            let ga = Genetic {
                config: GeneticConfig {
                    population: 16,
                    generations: 10,
                    crossover,
                    ..Default::default()
                },
            };
            let t = ga.anonymize(&ds, &c).unwrap();
            assert!(c.satisfied(&t));
        }
    }

    #[test]
    fn search_beats_or_matches_the_top() {
        // The GA must never return something worse than full suppression.
        use anoncmp_microdata::prelude::AnonymizedTable;
        let ds = small_census();
        let c = Constraint::k_anonymity(3).with_suppression(6);
        let (t, _) = quick().run(&ds, &c).unwrap();
        let m = LossMetric::classic();
        let top = AnonymizedTable::fully_suppressed(ds.clone(), "top");
        assert!(m.total_loss(&t) <= m.total_loss(&top) + 1e-9);
    }

    #[test]
    fn invalid_config_rejected() {
        let ds = small_census();
        let ga = Genetic {
            config: GeneticConfig {
                population: 1,
                ..Default::default()
            },
        };
        assert!(matches!(
            ga.anonymize(&ds, &Constraint::k_anonymity(2)),
            Err(AnonymizeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn unsatisfiable_reported() {
        let ds = small_census();
        let c = Constraint::k_anonymity(ds.len() + 1);
        assert!(matches!(
            quick().anonymize(&ds, &c),
            Err(AnonymizeError::Unsatisfiable(_))
        ));
    }
}
