//! Pareto-front machinery for the paper's §7 extension.
//!
//! "If vector representations of privacy are adopted … finding 'good'
//! anonymizations thus converts into a multi-objective problem. …
//! privacy should no longer be imposed only as a constraint in the
//! framework but rather handled directly as an objective to maximize."
//!
//! This module supplies the multi-objective building blocks — dominance
//! over objective points, non-dominated sorting, and crowding distance
//! (Deb et al.'s NSGA-II machinery) — used by the
//! `MultiObjectiveGenetic` search in `anoncmp-anonymize` and available for
//! any "set of candidate anonymizations" analysis.
//!
//! All objectives follow the workspace convention: **higher is better**.

/// Whether objective point `a` weakly dominates `b` (component-wise `≥`).
///
/// # Panics
/// Panics if dimensions differ.
pub fn point_weakly_dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "objective points must share a dimension");
    a.iter().zip(b).all(|(x, y)| x >= y)
}

/// Whether `a` strongly dominates `b` (`≥` everywhere, `>` somewhere).
pub fn point_strongly_dominates(a: &[f64], b: &[f64]) -> bool {
    point_weakly_dominates(a, b) && a.iter().zip(b).any(|(x, y)| x > y)
}

/// Indices of the non-dominated points (the Pareto front) of `points`.
///
/// ```
/// use anoncmp_core::pareto::pareto_front;
/// let points = vec![
///     vec![1.0, 4.0], // on the front
///     vec![3.0, 1.0], // on the front
///     vec![1.0, 3.0], // dominated by (1,4)
/// ];
/// assert_eq!(pareto_front(&points), vec![0, 1]);
/// ```
///
/// Duplicated points are all kept (none strongly dominates its copy).
pub fn pareto_front(points: &[Vec<f64>]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            !points
                .iter()
                .enumerate()
                .any(|(j, p)| j != i && point_strongly_dominates(p, &points[i]))
        })
        .collect()
}

/// Fast non-dominated sorting: partitions point indices into fronts
/// `F₀, F₁, …` where `F₀` is the Pareto front and each `F_{k+1}` is the
/// front after removing `F₀ … F_k`.
pub fn non_dominated_sort(points: &[Vec<f64>]) -> Vec<Vec<usize>> {
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    // dominated_by[i]: how many points strongly dominate i.
    // dominates[i]: which points i strongly dominates.
    let mut dominated_by = vec![0usize; n];
    let mut dominates: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            if point_strongly_dominates(&points[i], &points[j]) {
                dominates[i].push(j);
                dominated_by[j] += 1;
            } else if point_strongly_dominates(&points[j], &points[i]) {
                dominates[j].push(i);
                dominated_by[i] += 1;
            }
        }
    }
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| dominated_by[i] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            for &j in &dominates[i] {
                dominated_by[j] -= 1;
                if dominated_by[j] == 0 {
                    next.push(j);
                }
            }
        }
        fronts.push(std::mem::replace(&mut current, next));
    }
    fronts
}

/// NSGA-II crowding distance of each point *within one front*: boundary
/// points on every objective get `∞`; interior points get the normalized
/// perimeter of their neighbor cuboid. Larger = less crowded = preferred
/// for diversity.
pub fn crowding_distance(points: &[Vec<f64>]) -> Vec<f64> {
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    let m = points[0].len();
    let mut dist = vec![0.0f64; n];
    if n <= 2 {
        return vec![f64::INFINITY; n];
    }
    #[allow(clippy::needless_range_loop)] // `obj` indexes two parallel views
    for obj in 0..m {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            points[a][obj]
                .partial_cmp(&points[b][obj])
                .expect("objectives are not NaN")
        });
        let lo = points[order[0]][obj];
        let hi = points[order[n - 1]][obj];
        dist[order[0]] = f64::INFINITY;
        dist[order[n - 1]] = f64::INFINITY;
        let span = hi - lo;
        if span <= 0.0 {
            continue;
        }
        for w in 1..(n - 1) {
            let prev = points[order[w - 1]][obj];
            let next = points[order[w + 1]][obj];
            dist[order[w]] += (next - prev) / span;
        }
    }
    dist
}

/// Convenience: sorts point indices by `(front rank ascending, crowding
/// distance descending)` — NSGA-II's survival order.
pub fn nsga2_order(points: &[Vec<f64>]) -> Vec<usize> {
    let fronts = non_dominated_sort(points);
    let mut order = Vec::with_capacity(points.len());
    for front in fronts {
        let front_points: Vec<Vec<f64>> = front.iter().map(|&i| points[i].clone()).collect();
        let crowd = crowding_distance(&front_points);
        let mut ranked: Vec<(usize, f64)> = front.into_iter().zip(crowd).collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("crowding is not NaN"));
        order.extend(ranked.into_iter().map(|(i, _)| i));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_dominance_basics() {
        assert!(point_weakly_dominates(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(!point_strongly_dominates(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(point_strongly_dominates(&[2.0, 2.0], &[1.0, 2.0]));
        assert!(!point_weakly_dominates(&[2.0, 1.0], &[1.0, 2.0]));
    }

    #[test]
    fn pareto_front_of_a_staircase() {
        // (1,4), (2,3), (3,1) are mutually non-dominated; (1,3) and (2,1)
        // are dominated.
        let pts = vec![
            vec![1.0, 4.0],
            vec![2.0, 3.0],
            vec![3.0, 1.0],
            vec![1.0, 3.0],
            vec![2.0, 1.0],
        ];
        assert_eq!(pareto_front(&pts), vec![0, 1, 2]);
    }

    #[test]
    fn duplicates_survive_the_front() {
        let pts = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        assert_eq!(pareto_front(&pts), vec![0, 1]);
    }

    #[test]
    fn sorting_produces_layered_fronts() {
        let pts = vec![
            vec![3.0, 3.0], // F0
            vec![2.0, 2.0], // F1
            vec![1.0, 1.0], // F2
            vec![3.0, 1.0], // F0 (incomparable with (3,3)? no: (3,3) ≻ (3,1)) → F1
            vec![1.0, 3.0], // dominated by (3,3) → F1
        ];
        let fronts = non_dominated_sort(&pts);
        assert_eq!(fronts[0], vec![0]);
        let mut f1 = fronts[1].clone();
        f1.sort_unstable();
        assert_eq!(f1, vec![1, 3, 4]);
        assert_eq!(fronts[2], vec![2]);
        // Every index appears exactly once.
        let total: usize = fronts.iter().map(Vec::len).sum();
        assert_eq!(total, pts.len());
    }

    #[test]
    fn empty_input() {
        assert!(non_dominated_sort(&[]).is_empty());
        assert!(pareto_front(&[]).is_empty());
        assert!(crowding_distance(&[]).is_empty());
    }

    #[test]
    fn crowding_prefers_spread_out_points() {
        // Four collinear points; the boundary two get ∞, the denser
        // interior point gets a smaller distance.
        let pts = vec![
            vec![0.0, 3.0],
            vec![1.0, 2.0],
            vec![1.2, 1.8],
            vec![3.0, 0.0],
        ];
        let d = crowding_distance(&pts);
        assert!(d[0].is_infinite());
        assert!(d[3].is_infinite());
        assert!(d[1] > d[2] || d[2] > d[1], "interior points are ranked");
        assert!(d[1].is_finite() && d[2].is_finite());
    }

    #[test]
    fn tiny_fronts_are_all_infinite() {
        let pts = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
        assert!(crowding_distance(&pts).iter().all(|d| d.is_infinite()));
    }

    #[test]
    fn degenerate_objective_span_is_handled() {
        // All points share objective 0; distances come from objective 1
        // alone, with no NaN from the zero span.
        let pts = vec![
            vec![1.0, 0.0],
            vec![1.0, 5.0],
            vec![1.0, 2.0],
            vec![1.0, 3.0],
        ];
        let d = crowding_distance(&pts);
        assert!(d.iter().all(|x| !x.is_nan()));
    }

    #[test]
    fn nsga2_order_ranks_first_front_first() {
        let pts = vec![
            vec![1.0, 1.0], // F1
            vec![2.0, 2.0], // F0
            vec![0.5, 0.5], // F2
        ];
        let order = nsga2_order(&pts);
        assert_eq!(order, vec![1, 0, 2]);
    }
}
