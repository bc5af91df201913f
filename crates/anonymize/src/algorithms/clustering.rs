//! Greedy k-member clustering — utility-based local recoding in the
//! spirit of Xu et al. (cited as \[22\] in the paper).
//!
//! Where Mondrian splits space top-down, clustering builds equivalence
//! classes bottom-up: repeatedly pick a seed tuple (the one farthest from
//! the previous cluster's centroid region), greedily add the `k − 1`
//! records whose inclusion grows the cluster's covering region the least,
//! and close the cluster. Leftover records (< k of them) join their
//! nearest clusters. Quadratic-ish in `N/k · N`, but with excellent
//! utility on skewed data — a third recoding family (global, spatial,
//! cluster-based) for the comparison framework to judge.

use std::sync::Arc;

use anoncmp_microdata::prelude::{AnonymizedTable, Dataset, Domain, Value};

use crate::algorithms::recoding::table_from_partitions;
use crate::algorithms::{validate_common, Anonymizer};
use crate::constraint::Constraint;
use crate::error::{AnonymizeError, Result};

/// The greedy k-member clustering algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyCluster;

struct Ctx<'a> {
    dataset: &'a Dataset,
    qi: Vec<usize>,
    /// Per-QI normalization spans for the distance metric.
    spans: Vec<f64>,
}

impl Ctx<'_> {
    /// Normalized distance between two tuples over the quasi-identifiers:
    /// numeric attributes contribute `|a − b| / span`, categorical ones
    /// `0/1` mismatch.
    fn distance(&self, a: u32, b: u32) -> f64 {
        self.qi
            .iter()
            .zip(&self.spans)
            .map(|(&col, &span)| {
                match (
                    self.dataset.value(a as usize, col),
                    self.dataset.value(b as usize, col),
                ) {
                    (Value::Int(x), Value::Int(y)) => {
                        (i128::from(*x) - i128::from(*y)).abs() as f64 / span
                    }
                    (Value::Cat(x), Value::Cat(y)) if x == y => 0.0,
                    _ => 1.0,
                }
            })
            .sum()
    }
}

impl GreedyCluster {
    /// Runs the clustering, also returning the partition.
    pub fn run(
        &self,
        dataset: &Arc<Dataset>,
        constraint: &Constraint,
    ) -> Result<(AnonymizedTable, Vec<Vec<u32>>)> {
        validate_common(dataset, constraint)?;
        let k = constraint.k;
        if k > dataset.len() {
            return Err(AnonymizeError::Unsatisfiable(format!(
                "k = {k} exceeds the dataset size {}",
                dataset.len()
            )));
        }
        let schema = dataset.schema();
        let spans: Vec<f64> = schema
            .quasi_identifiers()
            .iter()
            .map(|&col| match schema.attribute(col).domain() {
                // In i128: an extreme domain's width overflows i64.
                Domain::Integer { min, max } => (i128::from(*max) - i128::from(*min)).max(1) as f64,
                Domain::Categorical { .. } => 1.0,
            })
            .collect();
        let ctx = Ctx {
            dataset,
            qi: schema.quasi_identifiers().to_vec(),
            spans,
        };

        let n = dataset.len() as u32;
        let mut unassigned: Vec<u32> = (0..n).collect();
        let mut partitions: Vec<Vec<u32>> = Vec::new();
        let mut seed = 0u32; // first seed: tuple 0 (deterministic)
        while unassigned.len() >= k {
            // Remove the seed from the pool and grow a cluster around it.
            let pos = unassigned
                .iter()
                .position(|&t| t == seed)
                .expect("seed is unassigned");
            unassigned.swap_remove(pos);
            let mut cluster = vec![seed];
            while cluster.len() < k {
                // Greedy: the unassigned tuple closest to the seed (a
                // cheap surrogate for minimal region growth).
                let (idx, _) = unassigned
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| (i, ctx.distance(seed, t)))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("distances are not NaN"))
                    .expect("pool has at least k - |cluster| tuples");
                cluster.push(unassigned.swap_remove(idx));
            }
            // Next seed: the unassigned tuple farthest from this cluster's
            // seed, spreading clusters across the space.
            if let Some(&far) = unassigned.iter().max_by(|a, b| {
                ctx.distance(seed, **a)
                    .partial_cmp(&ctx.distance(seed, **b))
                    .expect("distances are not NaN")
            }) {
                seed = far;
            }
            partitions.push(cluster);
        }
        // Leftovers join their nearest cluster (by seed-tuple distance).
        for t in unassigned {
            let (idx, _) = partitions
                .iter()
                .enumerate()
                .map(|(i, p)| (i, ctx.distance(p[0], t)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("distances are not NaN"))
                .expect("at least one cluster exists");
            partitions[idx].push(t);
        }
        for p in &mut partitions {
            p.sort_unstable();
        }

        let table = table_from_partitions(dataset, &partitions, "clustering")?;
        // k-anonymity holds by construction; extra models are enforced via
        // the suppression budget.
        let table = constraint.enforce(&table).ok_or_else(|| {
            AnonymizeError::Unsatisfiable(format!(
                "clustering satisfies {}-anonymity but the extra models need more \
                 suppression than the budget allows",
                k
            ))
        })?;
        Ok((table, partitions))
    }
}

impl Anonymizer for GreedyCluster {
    fn name(&self) -> String {
        "clustering".into()
    }

    fn anonymize(
        &self,
        dataset: &Arc<Dataset>,
        constraint: &Constraint,
    ) -> Result<AnonymizedTable> {
        self.run(dataset, constraint).map(|(t, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::algorithms::test_support::{extreme_domain_ages, small_census};

    #[test]
    fn extreme_integer_domain_clusters_without_overflow() {
        // The domain's width, 2^64 − 1, overflows i64, and so does the
        // distance between the second set's two ends.
        let c = Constraint::k_anonymity(2);
        for ages in [
            [10, 20, 30, 40],
            [-i64::MAX, 1 - i64::MAX, i64::MAX - 1, i64::MAX],
        ] {
            let ds = extreme_domain_ages(&ages);
            let (t, parts) = GreedyCluster.run(&ds, &c).unwrap();
            assert!(c.satisfied(&t));
            assert_eq!(parts, vec![vec![0, 1], vec![2, 3]]);
        }
    }

    #[test]
    fn output_is_k_anonymous() {
        let ds = small_census();
        for k in [2usize, 3, 5, 10] {
            let c = Constraint::k_anonymity(k);
            let (t, parts) = GreedyCluster.run(&ds, &c).unwrap();
            assert!(c.satisfied(&t), "k = {k}");
            for p in &parts {
                assert!(p.len() >= k);
                assert!(p.len() < 2 * k, "clusters stay tight (got {})", p.len());
            }
            let total: usize = parts.iter().map(Vec::len).sum();
            assert_eq!(total, ds.len(), "partition covers all tuples");
        }
    }

    #[test]
    fn clusters_map_to_classes() {
        let ds = small_census();
        let (t, parts) = GreedyCluster.run(&ds, &Constraint::k_anonymity(4)).unwrap();
        for p in &parts {
            let class = t.classes().class_of(p[0] as usize);
            for &m in p {
                assert_eq!(t.classes().class_of(m as usize), class);
            }
        }
    }

    #[test]
    fn deterministic() {
        let ds = small_census();
        let (_, p1) = GreedyCluster.run(&ds, &Constraint::k_anonymity(3)).unwrap();
        let (_, p2) = GreedyCluster.run(&ds, &Constraint::k_anonymity(3)).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn utility_competitive_with_full_domain() {
        use anoncmp_microdata::loss::LossMetric;
        let ds = small_census();
        let c = Constraint::k_anonymity(5).with_suppression(6);
        let m = LossMetric::classic();
        let cluster = GreedyCluster.anonymize(&ds, &c).unwrap();
        let datafly = crate::algorithms::datafly::Datafly
            .anonymize(&ds, &c)
            .unwrap();
        assert!(m.total_loss(&cluster) <= m.total_loss(&datafly) + 1e-9);
    }

    #[test]
    fn oversized_k_unsatisfiable() {
        let ds = small_census();
        assert!(matches!(
            GreedyCluster.anonymize(&ds, &Constraint::k_anonymity(ds.len() + 1)),
            Err(AnonymizeError::Unsatisfiable(_))
        ));
    }

    #[test]
    fn k_equals_n_single_cluster() {
        let ds = small_census();
        let (t, parts) = GreedyCluster
            .run(&ds, &Constraint::k_anonymity(ds.len()))
            .unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(t.classes().class_count(), 1);
    }
}
