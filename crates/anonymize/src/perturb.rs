//! Perturbative disclosure control methods.
//!
//! Where the generalization algorithms recode quasi-identifier values
//! into coarser hierarchy nodes, these methods keep the original row
//! count and numeric QI columns and modify the *values*: additive and
//! correlated noise, rank swapping, univariate and MDAV multivariate
//! microaggregation, and randomization within a record's nearest-neighbor
//! neighborhood (RWN-style). All of them consume a
//! [`NumericBase`] and emit a [`NumericRelease`], the perturbative wing
//! of the engine's two-family [`Release`](anoncmp_microdata::numeric::Release)
//! representation.
//!
//! # Determinism
//!
//! Every method is a pure function of `(base, spec, seed)`: the RNG is a
//! seeded [`StdRng`], Gaussian variates come from a fixed Box–Muller
//! transform, and all iteration orders are content-defined (column-major
//! with index-tie-broken sorts). The engine derives `seed` from the job's
//! release fingerprint, so memoization, checkpoint journaling, and dist
//! sharding work on perturbative jobs exactly as on generalization jobs.

use std::sync::Arc;

use anoncmp_microdata::numeric::{NumericBase, NumericRelease};
use rand::prelude::*;
use rand::rngs::StdRng;

/// The perturbative method families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PerturbMethod {
    /// Additive Gaussian noise, independent per column, scaled by each
    /// column's standard deviation.
    Noise,
    /// Correlated Gaussian noise: the noise vector's covariance is
    /// proportional to the data covariance (Kim's method), so published
    /// correlations survive perturbation.
    CorrelatedNoise,
    /// Rank swapping: each column's values are permuted, but only between
    /// records whose ranks differ by at most the window.
    RankSwap,
    /// Univariate microaggregation: each column is independently sorted
    /// and replaced by consecutive group means.
    MicroAgg,
    /// MDAV multivariate microaggregation: records are clustered into
    /// groups of `k..2k-1` by standardized distance and replaced by their
    /// group centroid.
    Mdav,
    /// Randomization within neighborhood: each record is replaced by a
    /// uniformly drawn member of its k-nearest-neighbor neighborhood.
    Rwn,
}

impl PerturbMethod {
    /// The method's family name (the prefix of its wire name).
    pub fn family(&self) -> &'static str {
        match self {
            PerturbMethod::Noise => "noise",
            PerturbMethod::CorrelatedNoise => "cnoise",
            PerturbMethod::RankSwap => "rankswap",
            PerturbMethod::MicroAgg => "microagg",
            PerturbMethod::Mdav => "mdav",
            PerturbMethod::Rwn => "rwn",
        }
    }
}

/// One fully parameterized perturbative method.
///
/// `param` is the method's single tuning knob, kept integral so the spec
/// stays `Copy`, hashable, and exactly round-trippable through wire
/// names: for the noise methods it is the noise scale in *thousandths* of
/// a column standard deviation (`noise:0.05` ⇔ `param = 50`); for rank
/// swapping it is the maximum rank displacement; for the
/// microaggregation methods the minimum group size `k`; for RWN the
/// neighborhood size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PerturbSpec {
    /// Which method.
    pub method: PerturbMethod,
    /// The method's parameter (see the struct docs for units).
    pub param: u32,
}

/// Thousandths per unit of noise scale in wire names.
const SCALE_MILLI: f64 = 1000.0;

impl PerturbSpec {
    /// Additive Gaussian noise with the given scale (fraction of each
    /// column's standard deviation, rounded to thousandths).
    pub fn noise(scale: f64) -> Self {
        PerturbSpec {
            method: PerturbMethod::Noise,
            param: (scale * SCALE_MILLI).round() as u32,
        }
    }

    /// Correlated Gaussian noise with the given scale.
    pub fn correlated_noise(scale: f64) -> Self {
        PerturbSpec {
            method: PerturbMethod::CorrelatedNoise,
            param: (scale * SCALE_MILLI).round() as u32,
        }
    }

    /// Rank swapping with the given maximum rank displacement.
    pub fn rank_swap(window: u32) -> Self {
        PerturbSpec {
            method: PerturbMethod::RankSwap,
            param: window,
        }
    }

    /// Univariate microaggregation with minimum group size `k`.
    pub fn micro_agg(k: u32) -> Self {
        PerturbSpec {
            method: PerturbMethod::MicroAgg,
            param: k,
        }
    }

    /// MDAV multivariate microaggregation with minimum group size `k`.
    pub fn mdav(k: u32) -> Self {
        PerturbSpec {
            method: PerturbMethod::Mdav,
            param: k,
        }
    }

    /// Randomization within a `k`-nearest-neighbor neighborhood.
    pub fn rwn(k: u32) -> Self {
        PerturbSpec {
            method: PerturbMethod::Rwn,
            param: k,
        }
    }

    /// The noise scale this spec encodes (noise methods only).
    pub fn scale(&self) -> f64 {
        f64::from(self.param) / SCALE_MILLI
    }

    /// The spec's stable wire name, e.g. `noise:0.05`, `rankswap:8`,
    /// `mdav:5`. Parses back exactly via [`PerturbSpec::parse`].
    pub fn wire_name(&self) -> String {
        match self.method {
            PerturbMethod::Noise | PerturbMethod::CorrelatedNoise => {
                format!("{}:{}", self.method.family(), self.scale())
            }
            _ => format!("{}:{}", self.method.family(), self.param),
        }
    }

    /// Parses a wire name back to its spec. `None` for unknown families,
    /// malformed or out-of-range parameters (noise scales are capped at
    /// 1000 standard deviations; group/neighborhood sizes and the swap
    /// window at 2³²−1; microaggregation and RWN need `k ≥ 1`).
    pub fn parse(name: &str) -> Option<PerturbSpec> {
        let (family, raw) = name.split_once(':')?;
        let spec = match family {
            "noise" | "cnoise" => {
                let scale: f64 = raw.parse().ok()?;
                if !(0.0..=1000.0).contains(&scale) {
                    return None;
                }
                if family == "noise" {
                    PerturbSpec::noise(scale)
                } else {
                    PerturbSpec::correlated_noise(scale)
                }
            }
            "rankswap" => PerturbSpec::rank_swap(raw.parse().ok()?),
            "microagg" | "mdav" | "rwn" => {
                let k: u32 = raw.parse().ok()?;
                if k == 0 {
                    return None;
                }
                match family {
                    "microagg" => PerturbSpec::micro_agg(k),
                    "mdav" => PerturbSpec::mdav(k),
                    _ => PerturbSpec::rwn(k),
                }
            }
            _ => return None,
        };
        // Reject inputs that do not round-trip (e.g. sub-thousandth noise
        // scales): every accepted name is *the* canonical spelling of its
        // spec, which keeps fingerprints and records unambiguous.
        (spec.wire_name() == name).then_some(spec)
    }

    /// Applies the method to `base` deterministically under `seed`,
    /// producing a release named by [`PerturbSpec::wire_name`].
    pub fn apply(&self, base: &Arc<NumericBase>, seed: u64) -> NumericRelease {
        let mut rng = StdRng::seed_from_u64(seed);
        let columns = match self.method {
            PerturbMethod::Noise => noise_columns(base, self.scale(), &mut rng),
            PerturbMethod::CorrelatedNoise => {
                correlated_noise_columns(base, self.scale(), &mut rng)
            }
            PerturbMethod::RankSwap => rank_swap_columns(base, self.param as usize, &mut rng),
            PerturbMethod::MicroAgg => micro_agg_columns(base, self.param as usize),
            PerturbMethod::Mdav => centroid_columns(base, &mdav_groups(base, self.param as usize)),
            PerturbMethod::Rwn => rwn_columns(base, self.param as usize, &mut rng),
        };
        NumericRelease::new(self.wire_name(), base.clone(), columns)
    }
}

/// One standard Gaussian variate via the Box–Muller transform. The
/// clamp keeps `ln` finite on a zero draw.
fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0_f64 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Additive independent noise: `y = x + scale · σ_j · z`, column-major.
fn noise_columns(base: &NumericBase, scale: f64, rng: &mut StdRng) -> Vec<Vec<f64>> {
    base.columns()
        .iter()
        .zip(base.stds())
        .map(|(col, &std)| {
            col.iter()
                .map(|&x| {
                    let z = gauss(rng);
                    if scale == 0.0 {
                        // Scale zero is the exact identity (the RNG is
                        // still advanced so records stay comparable
                        // across scales).
                        x
                    } else {
                        x + scale * std * z
                    }
                })
                .collect()
        })
        .collect()
}

/// Correlated noise: `y_i = x_i + scale · L·z_i` with `L·Lᵀ = Σ`, so the
/// added noise has covariance `scale² · Σ`.
fn correlated_noise_columns(base: &NumericBase, scale: f64, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let d = base.width();
    let l = base.cholesky();
    let mut columns: Vec<Vec<f64>> = base.columns().to_vec();
    let mut z = vec![0.0; d];
    for row in 0..base.len() {
        for slot in z.iter_mut() {
            *slot = gauss(rng);
        }
        if scale == 0.0 {
            continue;
        }
        for (j, column) in columns.iter_mut().enumerate() {
            let mut e = 0.0;
            for (k, &zk) in z.iter().enumerate().take(j + 1) {
                e += l[j][k] * zk;
            }
            column[row] += scale * e;
        }
    }
    columns
}

/// The ascending stable order of a column (ties broken by row index).
fn rank_order(col: &[f64]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..col.len() as u32).collect();
    order.sort_by(|&a, &b| {
        col[a as usize]
            .partial_cmp(&col[b as usize])
            .expect("numeric columns contain no NaN")
            .then(a.cmp(&b))
    });
    order
}

/// Rank swapping: per column, walk the ranks ascending; every unswapped
/// rank picks a uniformly random partner within the next `window` ranks
/// and exchanges values. A permutation of each column, so the per-column
/// marginal multiset is preserved *exactly*.
fn rank_swap_columns(base: &NumericBase, window: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    base.columns()
        .iter()
        .map(|col| {
            let n = col.len();
            let mut out = col.clone();
            if window == 0 || n < 2 {
                return out;
            }
            let order = rank_order(col);
            let mut swapped = vec![false; n];
            for r in 0..n {
                let a = order[r] as usize;
                if swapped[a] {
                    continue;
                }
                let hi = (r + window).min(n - 1);
                if hi == r {
                    break;
                }
                let s = rng.gen_range(r + 1..=hi);
                let b = order[s] as usize;
                if swapped[b] {
                    continue;
                }
                out.swap(a, b);
                swapped[a] = true;
                swapped[b] = true;
            }
            out
        })
        .collect()
}

/// The consecutive group ranges of a sorted length-`n` sequence under
/// minimum group size `k`: `⌊n/k⌋` groups, the last absorbing the
/// remainder, so every size lands in `[k, 2k−1]` (or one group of `n`
/// when `n < 2k`).
fn group_ranges(n: usize, k: usize) -> Vec<(usize, usize)> {
    let k = k.max(1);
    if n == 0 {
        return Vec::new();
    }
    if n < 2 * k {
        return vec![(0, n)];
    }
    let groups = n / k;
    (0..groups)
        .map(|g| (g * k, if g + 1 == groups { n } else { (g + 1) * k }))
        .collect()
}

/// Univariate microaggregation: per column, sort, group consecutively,
/// replace every member by its group mean. Group means are computed as
/// `sum / len`, so each column's total — and therefore its mean — is
/// preserved to floating-point roundoff.
fn micro_agg_columns(base: &NumericBase, k: usize) -> Vec<Vec<f64>> {
    base.columns()
        .iter()
        .map(|col| {
            let order = rank_order(col);
            let mut out = col.clone();
            for (lo, hi) in group_ranges(col.len(), k) {
                let members = &order[lo..hi];
                let mean =
                    members.iter().map(|&i| col[i as usize]).sum::<f64>() / members.len() as f64;
                for &i in members {
                    out[i as usize] = mean;
                }
            }
            out
        })
        .collect()
}

/// Squared standardized Euclidean distance between rows `a` and `b` of
/// the original data.
fn std_dist2(base: &NumericBase, a: usize, b: usize) -> f64 {
    base.columns()
        .iter()
        .zip(base.stds())
        .map(|(col, &std)| {
            let diff = (col[a] - col[b]) / std;
            diff * diff
        })
        .sum()
}

/// Squared standardized Euclidean distance from row `a` to a point given
/// in standardized coordinates.
fn std_dist2_to_point(base: &NumericBase, a: usize, point: &[f64]) -> f64 {
    base.columns()
        .iter()
        .zip(base.stds())
        .enumerate()
        .map(|(j, (col, &std))| {
            let diff = col[a] / std - point[j];
            diff * diff
        })
        .sum()
}

/// `rows` with their squared standardized distance to row `from`,
/// nearest first, ties to the lower row index. Each distance is computed
/// once, not once per comparison.
fn by_distance(
    base: &NumericBase,
    from: usize,
    rows: impl Iterator<Item = u32>,
) -> Vec<(f64, u32)> {
    let mut by_dist: Vec<(f64, u32)> = rows
        .map(|r| (std_dist2(base, from, r as usize), r))
        .collect();
    by_dist.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("distances contain no NaN")
            .then(a.1.cmp(&b.1))
    });
    by_dist
}

/// The MDAV (Maximum Distance to Average Vector) grouping: group sizes
/// are in `[k, 2k−1]` whenever `n ≥ k`, matching the fixed-size
/// microaggregation contract. Returned groups list row indices
/// ascending; groups are in construction order.
pub fn mdav_groups(base: &NumericBase, k: usize) -> Vec<Vec<u32>> {
    let k = k.max(1);
    let n = base.len();
    let mut remaining: Vec<u32> = (0..n as u32).collect();
    let mut groups: Vec<Vec<u32>> = Vec::new();

    // Helper: centroid of `rows` in standardized coordinates.
    let centroid = |rows: &[u32]| -> Vec<f64> {
        let mut c = vec![0.0; base.width()];
        for &r in rows {
            for (j, col) in base.columns().iter().enumerate() {
                c[j] += col[r as usize] / base.stds()[j];
            }
        }
        for v in &mut c {
            *v /= rows.len().max(1) as f64;
        }
        c
    };
    // Helper: index (into `remaining`) of the row farthest from `point`,
    // ties to the lowest row index (scan order).
    let farthest = |remaining: &[u32], point: &[f64]| -> usize {
        let mut best = 0;
        let mut best_d = f64::NEG_INFINITY;
        for (slot, &r) in remaining.iter().enumerate() {
            let d = std_dist2_to_point(base, r as usize, point);
            if d > best_d {
                best_d = d;
                best = slot;
            }
        }
        best
    };
    // Helper: extract the row at `slot` plus its k−1 nearest remaining
    // neighbors as one group.
    let take_group = |remaining: &mut Vec<u32>, slot: usize, k: usize| -> Vec<u32> {
        let anchor = remaining.swap_remove(slot);
        let by_dist = by_distance(base, anchor as usize, remaining.drain(..));
        let take = (k - 1).min(by_dist.len());
        let mut group: Vec<u32> = by_dist[..take].iter().map(|&(_, r)| r).collect();
        group.push(anchor);
        group.sort_unstable();
        remaining.extend(by_dist[take..].iter().map(|&(_, r)| r));
        group
    };

    while remaining.len() >= 3 * k {
        let c = centroid(&remaining);
        let r_slot = farthest(&remaining, &c);
        let r_row = remaining[r_slot];
        groups.push(take_group(&mut remaining, r_slot, k));
        // The record farthest from r, then its k−1 nearest.
        let s_slot = {
            let mut best = 0;
            let mut best_d = f64::NEG_INFINITY;
            for (slot, &row) in remaining.iter().enumerate() {
                let d = std_dist2(base, r_row as usize, row as usize);
                if d > best_d {
                    best_d = d;
                    best = slot;
                }
            }
            best
        };
        groups.push(take_group(&mut remaining, s_slot, k));
    }
    if remaining.len() >= 2 * k {
        let c = centroid(&remaining);
        let r_slot = farthest(&remaining, &c);
        groups.push(take_group(&mut remaining, r_slot, k));
    }
    if !remaining.is_empty() {
        remaining.sort_unstable();
        groups.push(std::mem::take(&mut remaining));
    }
    groups
}

/// Replaces every group member by the group's per-column mean (raw
/// coordinates), preserving each column's total exactly up to roundoff.
fn centroid_columns(base: &NumericBase, groups: &[Vec<u32>]) -> Vec<Vec<f64>> {
    let mut columns: Vec<Vec<f64>> = base.columns().to_vec();
    for group in groups {
        for (j, col) in base.columns().iter().enumerate() {
            let mean =
                group.iter().map(|&i| col[i as usize]).sum::<f64>() / group.len().max(1) as f64;
            for &i in group {
                columns[j][i as usize] = mean;
            }
        }
    }
    columns
}

/// Randomization within neighborhood: each record is replaced by a
/// uniformly drawn member of its `k`-nearest-neighbor neighborhood
/// (standardized Euclidean distance on the originals; the record itself
/// is a member, so the draw can keep it). Rows are processed in tuple
/// order with one RNG draw each.
fn rwn_columns(base: &NumericBase, k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let n = base.len();
    let k = k.max(1).min(n.saturating_sub(1).max(1));
    let mut columns: Vec<Vec<f64>> = base.columns().to_vec();
    if n < 2 {
        return columns;
    }
    for i in 0..n {
        // The k nearest other records, ties broken by row index.
        let mut others = by_distance(base, i, (0..n as u32).filter(|&j| j as usize != i));
        others.truncate(k);
        // Slot k means "keep the record itself".
        let pick = rng.gen_range(0..=others.len());
        if pick < others.len() {
            let donor = others[pick].1 as usize;
            for (col, base_col) in columns.iter_mut().zip(base.columns()) {
                col[i] = base_col[donor];
            }
        }
    }
    columns
}

#[cfg(test)]
mod tests {
    use super::*;
    use anoncmp_datagen::census::{generate, CensusConfig};
    use anoncmp_microdata::prelude::{Attribute, Dataset, Role, Schema, Value};

    fn census_base(rows: usize) -> Arc<NumericBase> {
        let ds = generate(&CensusConfig {
            rows,
            seed: 11,
            zip_pool: 8,
        });
        NumericBase::of(&ds).expect("census has a numeric age column")
    }

    fn sorted(mut v: Vec<f64>) -> Vec<f64> {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }

    #[test]
    fn wire_names_round_trip() {
        for spec in [
            PerturbSpec::noise(0.05),
            PerturbSpec::noise(0.0),
            PerturbSpec::correlated_noise(0.25),
            PerturbSpec::rank_swap(8),
            PerturbSpec::micro_agg(5),
            PerturbSpec::mdav(4),
            PerturbSpec::rwn(10),
        ] {
            let name = spec.wire_name();
            assert_eq!(PerturbSpec::parse(&name), Some(spec), "{name}");
        }
        assert_eq!(PerturbSpec::parse("noise:0.05").unwrap().param, 50);
        for bad in [
            "noise",
            "noise:",
            "noise:-1",
            "noise:x",
            "microagg:0",
            "rwn:0",
            "swap:3",
            "noise:0.0505",
            "mdav:5.5",
            "datafly",
        ] {
            assert_eq!(PerturbSpec::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn methods_are_deterministic_in_the_seed() {
        let base = census_base(120);
        for spec in [
            PerturbSpec::noise(0.1),
            PerturbSpec::correlated_noise(0.1),
            PerturbSpec::rank_swap(6),
            PerturbSpec::micro_agg(4),
            PerturbSpec::mdav(4),
            PerturbSpec::rwn(5),
        ] {
            let a = spec.apply(&base, 42);
            let b = spec.apply(&base, 42);
            assert_eq!(a.columns(), b.columns(), "{}", spec.wire_name());
            let c = spec.apply(&base, 43);
            if matches!(
                spec.method,
                PerturbMethod::Noise | PerturbMethod::CorrelatedNoise | PerturbMethod::RankSwap
            ) {
                assert_ne!(
                    a.columns(),
                    c.columns(),
                    "{} ignores its seed",
                    spec.wire_name()
                );
            }
        }
    }

    #[test]
    fn noise_scale_zero_is_the_identity() {
        let base = census_base(90);
        for spec in [PerturbSpec::noise(0.0), PerturbSpec::correlated_noise(0.0)] {
            let release = spec.apply(&base, 7);
            assert_eq!(release.columns(), base.columns(), "{}", spec.wire_name());
        }
    }

    #[test]
    fn rank_swap_preserves_marginal_multisets_exactly() {
        let base = census_base(150);
        let release = PerturbSpec::rank_swap(10).apply(&base, 3);
        for (orig, swapped) in base.columns().iter().zip(release.columns()) {
            assert_eq!(sorted(orig.clone()), sorted(swapped.clone()));
            assert_ne!(orig, swapped, "a 10-rank window must move something");
        }
    }

    #[test]
    fn micro_agg_groups_have_legal_sizes_and_preserve_means() {
        let base = census_base(137);
        for k in [3usize, 5, 10] {
            let ranges = group_ranges(base.len(), k);
            assert!(ranges
                .iter()
                .all(|&(lo, hi)| (k..2 * k).contains(&(hi - lo))));
            assert_eq!(ranges.iter().map(|&(lo, hi)| hi - lo).sum::<usize>(), 137);
            let release = PerturbSpec::micro_agg(k as u32).apply(&base, 1);
            for (j, col) in release.columns().iter().enumerate() {
                let mean = col.iter().sum::<f64>() / col.len() as f64;
                assert!(
                    (mean - base.means()[j]).abs() < 1e-9,
                    "k={k} col={j}: {mean} vs {}",
                    base.means()[j]
                );
            }
        }
    }

    #[test]
    fn mdav_groups_partition_with_legal_sizes_and_preserve_means() {
        let base = census_base(101);
        for k in [3usize, 4, 7] {
            let groups = mdav_groups(&base, k);
            let mut seen = vec![false; base.len()];
            for g in &groups {
                assert!((k..2 * k).contains(&g.len()), "k={k}: group of {}", g.len());
                for &i in g {
                    assert!(!seen[i as usize], "row {i} in two groups");
                    seen[i as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "k={k}: rows left ungrouped");
            let release = PerturbSpec::mdav(k as u32).apply(&base, 1);
            for (j, col) in release.columns().iter().enumerate() {
                let mean = col.iter().sum::<f64>() / col.len() as f64;
                assert!((mean - base.means()[j]).abs() < 1e-9, "k={k} col={j}");
            }
        }
    }

    /// MDAV grouping as it sorted before distances were precomputed: the
    /// comparator recomputes both distances on every comparison. The
    /// oracle for `by_distance`.
    fn oracle_mdav_groups(base: &NumericBase, k: usize) -> Vec<Vec<u32>> {
        let k = k.max(1);
        let mut remaining: Vec<u32> = (0..base.len() as u32).collect();
        let mut groups: Vec<Vec<u32>> = Vec::new();
        let centroid = |rows: &[u32]| -> Vec<f64> {
            let mut c = vec![0.0; base.width()];
            for &r in rows {
                for (j, col) in base.columns().iter().enumerate() {
                    c[j] += col[r as usize] / base.stds()[j];
                }
            }
            c.iter().map(|v| v / rows.len().max(1) as f64).collect()
        };
        let farthest = |remaining: &[u32], dist: &dyn Fn(u32) -> f64| -> usize {
            let (mut best, mut best_d) = (0, f64::NEG_INFINITY);
            for (slot, &r) in remaining.iter().enumerate() {
                let d = dist(r);
                if d > best_d {
                    (best, best_d) = (slot, d);
                }
            }
            best
        };
        let take_group = |remaining: &mut Vec<u32>, slot: usize| -> Vec<u32> {
            let anchor = remaining.swap_remove(slot) as usize;
            let mut by_dist: Vec<u32> = std::mem::take(remaining);
            by_dist.sort_by(|&a, &b| {
                std_dist2(base, anchor, a as usize)
                    .partial_cmp(&std_dist2(base, anchor, b as usize))
                    .expect("distances contain no NaN")
                    .then(a.cmp(&b))
            });
            let mut group: Vec<u32> = by_dist.drain(..(k - 1).min(by_dist.len())).collect();
            group.push(anchor as u32);
            group.sort_unstable();
            *remaining = by_dist;
            group
        };
        while remaining.len() >= 3 * k {
            let c = centroid(&remaining);
            let r_slot = farthest(&remaining, &|r| std_dist2_to_point(base, r as usize, &c));
            let r_row = remaining[r_slot] as usize;
            groups.push(take_group(&mut remaining, r_slot));
            let s_slot = farthest(&remaining, &|s| std_dist2(base, r_row, s as usize));
            groups.push(take_group(&mut remaining, s_slot));
        }
        if remaining.len() >= 2 * k {
            let c = centroid(&remaining);
            let r_slot = farthest(&remaining, &|r| std_dist2_to_point(base, r as usize, &c));
            groups.push(take_group(&mut remaining, r_slot));
        }
        if !remaining.is_empty() {
            remaining.sort_unstable();
            groups.push(remaining);
        }
        groups
    }

    /// RWN with the comparator sort, as [`oracle_mdav_groups`].
    fn oracle_rwn_columns(base: &NumericBase, k: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = base.len();
        let k = k.max(1).min(n.saturating_sub(1).max(1));
        let mut columns: Vec<Vec<f64>> = base.columns().to_vec();
        if n < 2 {
            return columns;
        }
        for i in 0..n {
            let mut others: Vec<u32> = (0..n as u32).filter(|&j| j as usize != i).collect();
            others.sort_by(|&a, &b| {
                std_dist2(base, i, a as usize)
                    .partial_cmp(&std_dist2(base, i, b as usize))
                    .expect("distances contain no NaN")
                    .then(a.cmp(&b))
            });
            others.truncate(k);
            let pick = rng.gen_range(0..=others.len());
            if pick < others.len() {
                for (col, base_col) in columns.iter_mut().zip(base.columns()) {
                    col[i] = base_col[others[pick] as usize];
                }
            }
        }
        columns
    }

    /// A base of `width` integer columns whose cells come from a
    /// four-value palette, so rows repeat and distances tie.
    fn palette_base(width: usize, cells: &[u8]) -> Arc<NumericBase> {
        let schema = Schema::new(
            (0..width)
                .map(|c| Attribute::integer(format!("c{c}"), Role::QuasiIdentifier, 0, 3))
                .collect(),
        )
        .unwrap();
        let rows = cells
            .chunks_exact(width)
            .map(|row| row.iter().map(|&v| Value::Int(i64::from(v))).collect())
            .collect();
        NumericBase::of(&Dataset::new(schema, rows).unwrap()).unwrap()
    }

    fn bits(columns: &[Vec<f64>]) -> Vec<Vec<u64>> {
        let bits = |col: &Vec<f64>| col.iter().map(|v| v.to_bits()).collect();
        columns.iter().map(bits).collect()
    }

    proptest::proptest! {
        #[test]
        fn mdav_and_rwn_match_the_comparator_sort(
            width in 1usize..=3,
            cells in proptest::collection::vec(0u8..4, 3..90),
            k_pick in 0usize..7,
            seed in 0u64..1 << 48,
        ) {
            let base = palette_base(width, &cells[..cells.len() / width * width]);
            let n = base.len();
            let k = [1, 2, 3, 5, n.saturating_sub(1).max(1), n, n + 1][k_pick];
            let groups = oracle_mdav_groups(&base, k);
            proptest::prop_assert_eq!(&mdav_groups(&base, k), &groups);
            let mdav = PerturbSpec::mdav(k as u32).apply(&base, seed);
            proptest::prop_assert_eq!(bits(mdav.columns()), bits(&centroid_columns(&base, &groups)));
            let rwn = PerturbSpec::rwn(k as u32).apply(&base, seed);
            proptest::prop_assert_eq!(bits(rwn.columns()), bits(&oracle_rwn_columns(&base, k, seed)));
        }
    }

    #[test]
    fn rwn_only_publishes_existing_rows() {
        let base = census_base(80);
        let release = PerturbSpec::rwn(6).apply(&base, 9);
        // Every released row must literally be some original row.
        for i in 0..base.len() {
            let row = release.row(i);
            assert!(
                (0..base.len())
                    .any(|j| { base.columns().iter().zip(&row).all(|(col, &v)| col[j] == v) }),
                "released row {i} is not an original row"
            );
        }
        assert_ne!(
            release.columns(),
            base.columns(),
            "a 6-neighborhood over 80 rows must move something"
        );
    }
}
