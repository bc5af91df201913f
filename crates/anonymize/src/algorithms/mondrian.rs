//! Mondrian multidimensional partitioning (LeFevre et al., cited as \[9\]
//! in the paper).
//!
//! Instead of recoding whole attribute domains, Mondrian recursively
//! splits the *tuple set* along one quasi-identifier at a time (median
//! split on the widest normalized dimension) while both halves keep at
//! least `k` tuples, then generalizes every leaf partition to its bounding
//! region: numeric columns to the partition's min–max interval,
//! categorical columns to the lowest taxonomy node covering the
//! partition's values. This local recoding "shows better performance in
//! capturing the underlying multivariate distribution of the attributes"
//! (paper §6) — and makes an instructive contrast with the full-domain
//! algorithms under the vector-based comparators.
//!
//! This is the *strict* variant (median split, no tuple straddling);
//! categorical dimensions split on the sorted category ids, a common
//! relaxation of the original taxonomy-guided split.

use std::sync::Arc;

use anoncmp_microdata::prelude::{AnonymizedTable, Dataset, Domain, Value};

use crate::algorithms::recoding::table_from_partitions;
use crate::algorithms::{validate_common, Anonymizer};
use crate::constraint::Constraint;
use crate::error::{AnonymizeError, Result};

/// The Mondrian strict multidimensional algorithm.
///
/// ```
/// use anoncmp_anonymize::prelude::*;
/// use anoncmp_datagen::census::{generate, CensusConfig};
///
/// let data = generate(&CensusConfig { rows: 120, seed: 1, zip_pool: 10 });
/// let constraint = Constraint::k_anonymity(5);
/// let release = Mondrian.anonymize(&data, &constraint).unwrap();
/// assert!(constraint.satisfied(&release));
/// assert!(release.classes().min_class_size() >= 5);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Mondrian;

struct Ctx<'a> {
    dataset: &'a Dataset,
    qi: Vec<usize>,
    k: usize,
}

impl Mondrian {
    /// Runs Mondrian and also returns the final partitions (tuple-id
    /// lists).
    pub fn run(
        &self,
        dataset: &Arc<Dataset>,
        constraint: &Constraint,
    ) -> Result<(AnonymizedTable, Vec<Vec<u32>>)> {
        validate_common(dataset, constraint)?;
        if constraint.k > dataset.len() {
            return Err(AnonymizeError::Unsatisfiable(format!(
                "k = {} exceeds the dataset size {}",
                constraint.k,
                dataset.len()
            )));
        }
        let ctx = Ctx {
            dataset,
            qi: dataset.schema().quasi_identifiers().to_vec(),
            k: constraint.k,
        };
        let all: Vec<u32> = (0..dataset.len() as u32).collect();
        let mut partitions = Vec::new();
        Self::split(&ctx, all, &mut partitions);

        // Generalize each partition to its bounding region.
        let table = table_from_partitions(dataset, &partitions, "mondrian")?;
        // Mondrian guarantees k-anonymity by construction; extra models are
        // enforced via the suppression budget.
        let table = constraint.enforce(&table).ok_or_else(|| {
            AnonymizeError::Unsatisfiable(format!(
                "partitioning satisfies {}-anonymity but the extra models need more \
                 suppression than the budget allows",
                constraint.k
            ))
        })?;
        Ok((table, partitions))
    }

    /// Recursively splits `part`, appending leaf partitions to `out`.
    fn split(ctx: &Ctx<'_>, part: Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if part.len() < 2 * ctx.k {
            out.push(part);
            return;
        }
        // Dimensions ordered by normalized range, widest first.
        let mut dims: Vec<(f64, usize)> = ctx
            .qi
            .iter()
            .map(|&col| (Self::normalized_range(ctx.dataset, col, &part), col))
            .collect();
        dims.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("ranges are not NaN"));
        for &(range, col) in &dims {
            if range <= 0.0 {
                break; // no dimension can split a constant region
            }
            if let Some((left, right)) = Self::median_split(ctx, col, &part) {
                Self::split(ctx, left, out);
                Self::split(ctx, right, out);
                return;
            }
        }
        out.push(part);
    }

    /// The normalized extent of `part` along `col` (0 when constant).
    fn normalized_range(dataset: &Dataset, col: usize, part: &[u32]) -> f64 {
        match dataset.schema().attribute(col).domain() {
            Domain::Integer { min, max } => {
                let lo = part
                    .iter()
                    .map(|&t| dataset.value(t as usize, col).as_int().expect("int column"))
                    .min()
                    .expect("non-empty partition");
                let hi = part
                    .iter()
                    .map(|&t| dataset.value(t as usize, col).as_int().expect("int column"))
                    .max()
                    .expect("non-empty partition");
                // In i128: an extreme domain's width overflows i64.
                let span = (i128::from(*max) - i128::from(*min)).max(1) as f64;
                (i128::from(hi) - i128::from(lo)) as f64 / span
            }
            Domain::Categorical { labels } => {
                let mut cats: Vec<u32> = part
                    .iter()
                    .map(|&t| dataset.value(t as usize, col).as_cat().expect("cat column"))
                    .collect();
                cats.sort_unstable();
                cats.dedup();
                if labels.len() <= 1 {
                    0.0
                } else {
                    (cats.len() - 1) as f64 / (labels.len() - 1) as f64
                }
            }
        }
    }

    /// Strict median split of `part` on `col`: tuples with value ≤ the
    /// median key go left. Returns `None` when either side would drop
    /// below `k` (e.g. the median value swallows everything).
    fn median_split(ctx: &Ctx<'_>, col: usize, part: &[u32]) -> Option<(Vec<u32>, Vec<u32>)> {
        let key = |t: u32| -> i64 {
            match ctx.dataset.value(t as usize, col) {
                Value::Int(v) => *v,
                Value::Cat(c) => *c as i64,
            }
        };
        let mut sorted: Vec<u32> = part.to_vec();
        sorted.sort_by_key(|&t| key(t));
        let median = key(sorted[sorted.len() / 2]);
        // Split strictly below/above the median key; tuples equal to the
        // median go left (ties are not straddled — strict Mondrian).
        let split_at = sorted.partition_point(|&t| key(t) <= median);
        let (left, right) = sorted.split_at(split_at);
        if left.len() >= ctx.k && right.len() >= ctx.k {
            Some((left.to_vec(), right.to_vec()))
        } else {
            // Try the other side of the tie block: strictly-less goes left.
            let split_at = sorted.partition_point(|&t| key(t) < median);
            let (left, right) = sorted.split_at(split_at);
            if !left.is_empty() && left.len() >= ctx.k && right.len() >= ctx.k {
                Some((left.to_vec(), right.to_vec()))
            } else {
                None
            }
        }
    }
}

impl Anonymizer for Mondrian {
    fn name(&self) -> String {
        "mondrian".into()
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

    use anoncmp_microdata::prelude::GenValue;

    use crate::algorithms::test_support::{extreme_domain_ages, medium_census, small_census};

    #[test]
    fn extreme_integer_domain_is_measured_without_overflow() {
        // The domain's width, 2^64 − 1, overflows i64; it rounds to 2^64.
        let ds = extreme_domain_ages(&[10, 20, 30, 40]);
        let range = Mondrian::normalized_range(&ds, 0, &[0, 1, 2, 3]);
        assert_eq!(range, 30.0 / 2f64.powi(64));
        let c = Constraint::k_anonymity(2);
        let (t, parts) = Mondrian.run(&ds, &c).unwrap();
        assert!(c.satisfied(&t));
        assert_eq!(parts, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn output_is_k_anonymous_with_bounded_partitions() {
        let ds = small_census();
        for k in [2, 3, 5, 10] {
            let c = Constraint::k_anonymity(k);
            let (t, parts) = Mondrian.run(&ds, &c).unwrap();
            assert!(c.satisfied(&t), "k = {k}");
            for p in &parts {
                assert!(p.len() >= k, "partition below k");
                assert!(
                    p.len() < 2 * k + ds.len() / 10,
                    "strict Mondrian keeps partitions close to k (got {})",
                    p.len()
                );
            }
            // Partitions partition the tuple set.
            let total: usize = parts.iter().map(Vec::len).sum();
            assert_eq!(total, ds.len());
        }
    }

    #[test]
    fn classes_match_partitions() {
        let ds = small_census();
        let (t, parts) = Mondrian.run(&ds, &Constraint::k_anonymity(4)).unwrap();
        // Tuples in the same partition share one equivalence class.
        for p in &parts {
            let class = t.classes().class_of(p[0] as usize);
            for &m in p {
                assert_eq!(t.classes().class_of(m as usize), class);
            }
        }
        // Class count is at most partition count (identical regions from
        // different partitions may merge).
        assert!(t.classes().class_count() <= parts.len());
    }

    #[test]
    fn intervals_cover_original_values() {
        let ds = small_census();
        let (t, _) = Mondrian.run(&ds, &Constraint::k_anonymity(3)).unwrap();
        let schema = ds.schema();
        for tuple in 0..ds.len() {
            for &col in schema.quasi_identifiers() {
                let gv = t.cell(tuple, col);
                let raw = ds.value(tuple, col);
                let covered = match (gv, schema.attribute(col).hierarchy()) {
                    (GenValue::Node(_), Some(h)) => h.covers(gv, raw),
                    _ => gv.covers_raw(raw),
                };
                assert!(covered, "cell does not cover its raw value");
            }
        }
    }

    #[test]
    fn beats_full_domain_on_utility() {
        // Mondrian's local recoding should lose (weakly) less information
        // than single-dimensional full-domain recoding at the same k — the
        // motivation LeFevre et al. give.
        use crate::algorithms::datafly::Datafly;
        use anoncmp_microdata::loss::LossMetric;
        let ds = medium_census();
        let c = Constraint::k_anonymity(5).with_suppression(ds.len() / 20);
        let m = LossMetric::classic();
        let mondrian = Mondrian.anonymize(&ds, &c).unwrap();
        let datafly = Datafly.anonymize(&ds, &c).unwrap();
        assert!(m.total_loss(&mondrian) <= m.total_loss(&datafly));
    }

    #[test]
    fn k_equal_to_n_yields_single_partition() {
        let ds = small_census();
        let (t, parts) = Mondrian
            .run(&ds, &Constraint::k_anonymity(ds.len()))
            .unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(t.classes().class_count(), 1);
    }

    #[test]
    fn oversized_k_unsatisfiable() {
        let ds = small_census();
        assert!(matches!(
            Mondrian.anonymize(&ds, &Constraint::k_anonymity(ds.len() + 1)),
            Err(AnonymizeError::Unsatisfiable(_))
        ));
    }

    #[test]
    fn extra_models_enforced_by_suppression() {
        use crate::models::LDiversity;
        use std::sync::Arc as StdArc;
        let ds = small_census();
        let c = Constraint::k_anonymity(2)
            .with_suppression(ds.len() / 2)
            .with_model(StdArc::new(LDiversity::distinct(2)));
        let t = Mondrian.anonymize(&ds, &c).unwrap();
        assert!(c.satisfied(&t));
    }
}
