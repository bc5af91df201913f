//! Encoded-vs-materialized equivalence: the codec-routed search algorithms
//! must return **bit-identical** winning nodes and releases to reference
//! reimplementations that materialize a table at every lattice node (the
//! pre-codec evaluation strategy).
//!
//! The references below deliberately re-state each search in its naive
//! form — `Lattice::apply` + `Constraint::enforce` per node, scored with
//! `LossMetric::classic()` — so any divergence introduced by the shared
//! node evaluator (class-size feasibility, the shared lattice index, the
//! masked encoded loss, decoding only the release) shows up as a failed
//! equality, not a subtle loss delta. Every search runs under every constraint, including one
//! with an extra model, which takes the evaluator's decode-and-enforce
//! branch, on seed datasets and on random ones. CI runs this as the
//! perf-smoke equivalence gate.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use anoncmp_anonymize::prelude::*;
use anoncmp_datagen::census::{generate, CensusConfig};
use anoncmp_datagen::paper::{paper_schema_t3, paper_table1};
use anoncmp_microdata::loss::LossMetric;
use anoncmp_microdata::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ----------------------------------------------------------------------
// Reference implementations (materialize every evaluated node).
// ----------------------------------------------------------------------

fn ref_satisfying_at_height(
    lattice: &Lattice,
    ds: &Arc<Dataset>,
    constraint: &Constraint,
    height: usize,
) -> Vec<(LevelVector, AnonymizedTable)> {
    let mut out = Vec::new();
    for levels in lattice.nodes_at_height(height) {
        let table = lattice.apply(ds, &levels, "samarati").expect("valid node");
        if let Some(enforced) = constraint.enforce(&table) {
            out.push((levels, enforced));
        }
    }
    out
}

/// Datafly's greedy loop with materialized tables and a HashSet distinct
/// count per dimension.
fn ref_datafly(
    ds: &Arc<Dataset>,
    constraint: &Constraint,
) -> Option<(LevelVector, AnonymizedTable)> {
    use std::collections::HashSet;
    let lattice = Lattice::new(ds.schema().clone()).unwrap();
    let qi: Vec<usize> = ds.schema().quasi_identifiers().to_vec();
    let mut levels = lattice.bottom();
    loop {
        let table = lattice.apply(ds, &levels, "datafly").expect("valid node");
        if let Some(done) = constraint.enforce(&table) {
            return Some((levels, done));
        }
        let mut best: Option<(usize, usize)> = None;
        for (dim, &col) in qi.iter().enumerate() {
            if levels[dim] >= lattice.max_levels()[dim] {
                continue;
            }
            let distinct = table
                .records()
                .iter()
                .map(|r| r[col])
                .collect::<HashSet<_>>()
                .len();
            if best.is_none_or(|(_, d)| distinct > d) {
                best = Some((dim, distinct));
            }
        }
        let (dim, _) = best?;
        levels[dim] += 1;
    }
}

/// Samarati's binary search, evaluating every node through a full table.
fn ref_samarati(
    ds: &Arc<Dataset>,
    constraint: &Constraint,
) -> Option<(LevelVector, AnonymizedTable)> {
    let lattice = Lattice::new(ds.schema().clone()).unwrap();
    if ref_satisfying_at_height(&lattice, ds, constraint, lattice.max_height()).is_empty() {
        return None;
    }
    let (mut lo, mut hi) = (0usize, lattice.max_height());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if ref_satisfying_at_height(&lattice, ds, constraint, mid).is_empty() {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let frontier = ref_satisfying_at_height(&lattice, ds, constraint, lo);
    let metric = LossMetric::classic();
    frontier
        .into_iter()
        .min_by(|a, b| {
            metric
                .total_loss(&a.1)
                .partial_cmp(&metric.total_loss(&b.1))
                .unwrap()
        })
        .map(|(l, t)| (l, t.renamed("samarati")))
}

/// Incognito's BFS with anti-monotone pruning, one table per evaluation.
fn ref_incognito(
    ds: &Arc<Dataset>,
    constraint: &Constraint,
) -> Option<(LevelVector, AnonymizedTable)> {
    let lattice = Lattice::new(ds.schema().clone()).unwrap();
    let mut status: HashMap<LevelVector, bool> = HashMap::new();
    let mut frontier: Vec<(LevelVector, AnonymizedTable)> = Vec::new();
    let mut queue: VecDeque<LevelVector> = VecDeque::new();
    queue.push_back(lattice.bottom());
    while let Some(levels) = queue.pop_front() {
        if status.contains_key(&levels) {
            continue;
        }
        let dominated = frontier.iter().any(|(f, _)| Lattice::leq(f, &levels));
        let sat = dominated || {
            let table = lattice.apply(ds, &levels, "incognito").expect("valid node");
            match constraint.enforce(&table) {
                Some(t) => {
                    frontier.push((levels.clone(), t));
                    true
                }
                None => false,
            }
        };
        status.insert(levels.clone(), sat);
        if !sat {
            for s in lattice.successors(&levels) {
                queue.push_back(s);
            }
        }
    }
    let minimal: Vec<(LevelVector, AnonymizedTable)> = frontier
        .iter()
        .filter(|(cand, _)| {
            !frontier
                .iter()
                .any(|(l, _)| l != cand && Lattice::leq(l, cand))
        })
        .cloned()
        .collect();
    let metric = LossMetric::classic();
    minimal
        .into_iter()
        .min_by(|a, b| {
            metric
                .total_loss(&a.1)
                .partial_cmp(&metric.total_loss(&b.1))
                .unwrap()
        })
        .map(|(l, t)| (l, t.renamed("incognito")))
}

/// Exhaustive search, one table per lattice node.
fn ref_optimal(
    ds: &Arc<Dataset>,
    constraint: &Constraint,
) -> Option<(LevelVector, AnonymizedTable)> {
    let lattice = Lattice::new(ds.schema().clone()).unwrap();
    let metric = LossMetric::classic();
    let mut best: Option<(f64, LevelVector, AnonymizedTable)> = None;
    for levels in lattice.iter_all() {
        let table = lattice.apply(ds, &levels, "optimal").expect("valid node");
        let Some(enforced) = constraint.enforce(&table) else {
            continue;
        };
        let loss = metric.total_loss(&enforced);
        if best.as_ref().is_none_or(|(l, ..)| loss < *l) {
            best = Some((loss, levels, enforced));
        }
    }
    best.map(|(_, l, t)| (l, t))
}

/// SubsetIncognito's final stage. The subset phases hand it exactly the
/// full-QI nodes whose k-anonymity fits the budget, in lexicographic order
/// stable-sorted by height; minimal nodes are tried first, then the rest.
fn ref_subset_incognito(
    ds: &Arc<Dataset>,
    constraint: &Constraint,
) -> Option<(LevelVector, AnonymizedTable)> {
    let lattice = Lattice::new(ds.schema().clone()).unwrap();
    let k_only = Constraint::k_anonymity(constraint.k);
    let mut nodes: Vec<LevelVector> = lattice.iter_all().collect();
    nodes.sort_by_key(|levels| lattice.height_of(levels));
    let full_sat: Vec<LevelVector> = nodes
        .into_iter()
        .filter(|levels| {
            let table = lattice.apply(ds, levels, "x").expect("valid node");
            k_only.violating_tuples(&table) <= constraint.max_suppression
        })
        .collect();
    let is_minimal =
        |cand: &LevelVector| !full_sat.iter().any(|o| o != cand && Lattice::leq(o, cand));
    let metric = LossMetric::classic();
    let pick = |minimal: bool| {
        let mut best: Option<(f64, LevelVector, AnonymizedTable)> = None;
        for levels in full_sat.iter().filter(|l| is_minimal(l) == minimal) {
            let table = lattice
                .apply(ds, levels, "subset-incognito")
                .expect("valid node");
            let Some(enforced) = constraint.enforce(&table) else {
                continue;
            };
            let loss = metric.total_loss(&enforced);
            if best.as_ref().is_none_or(|(l, ..)| loss < *l) {
                best = Some((loss, levels.clone(), enforced));
            }
        }
        best.map(|(_, l, t)| (l, t))
    };
    pick(true).or_else(|| pick(false))
}

/// Top-down specialization from the top, one table per predecessor.
fn ref_top_down(
    ds: &Arc<Dataset>,
    constraint: &Constraint,
) -> Option<(LevelVector, AnonymizedTable)> {
    let lattice = Lattice::new(ds.schema().clone()).unwrap();
    let metric = LossMetric::classic();
    let mut levels = lattice.top();
    let top = lattice.apply(ds, &levels, "top-down").expect("valid node");
    let mut current = constraint.enforce(&top)?;
    let mut current_loss = metric.total_loss(&current);
    loop {
        let mut best: Option<(f64, LevelVector, AnonymizedTable, f64)> = None;
        for pred in lattice.predecessors(&levels) {
            let table = lattice.apply(ds, &pred, "top-down").expect("valid node");
            let Some(enforced) = constraint.enforce(&table) else {
                continue;
            };
            let loss = metric.total_loss(&enforced);
            let gain = (current_loss - loss).max(0.0);
            let anonymity_cost =
                (enforced.suppressed_count() as f64 - current.suppressed_count() as f64).max(0.0)
                    + 1.0;
            let score = gain / anonymity_cost;
            if best.as_ref().is_none_or(|(s, ..)| score > *s) {
                best = Some((score, pred, enforced, loss));
            }
        }
        match best {
            Some((_, pred, table, loss)) => {
                levels = pred;
                current = table;
                current_loss = loss;
            }
            None => return Some((levels, current)),
        }
    }
}

/// The greedy ratio recoder, scoring un-enforced tables of every successor.
fn ref_greedy(
    ds: &Arc<Dataset>,
    constraint: &Constraint,
) -> Option<(LevelVector, AnonymizedTable)> {
    let lattice = Lattice::new(ds.schema().clone()).unwrap();
    let metric = LossMetric::classic();
    let mut levels = lattice.bottom();
    let mut current = lattice.apply(ds, &levels, "greedy").expect("valid node");
    let mut current_viol = constraint.violating_tuples(&current);
    let mut current_loss = metric.total_loss(&current);
    loop {
        if let Some(done) = constraint.enforce(&current) {
            return Some((levels, done));
        }
        let mut best: Option<(f64, LevelVector, AnonymizedTable, usize, f64)> = None;
        for succ in lattice.successors(&levels) {
            let table = lattice.apply(ds, &succ, "greedy").expect("valid node");
            let viol = constraint.violating_tuples(&table);
            let loss = metric.total_loss(&table);
            let reduction = current_viol.saturating_sub(viol) as f64;
            let cost = (loss - current_loss).max(1e-9);
            let ratio = reduction / cost;
            if best.as_ref().is_none_or(|(r, ..)| ratio > *r) {
                best = Some((ratio, succ, table, viol, loss));
            }
        }
        let (_, succ, table, viol, loss) = best?;
        levels = succ;
        current = table;
        current_viol = viol;
        current_loss = loss;
    }
}

/// The small, fixed-seed genetic configuration both sides run.
fn genetic_config() -> GeneticConfig {
    GeneticConfig {
        population: 8,
        generations: 5,
        seed: 7,
        ..Default::default()
    }
}

/// The genetic search with the same RNG stream, one table per individual.
fn ref_genetic(
    ds: &Arc<Dataset>,
    constraint: &Constraint,
) -> Option<(LevelVector, AnonymizedTable)> {
    let config = genetic_config();
    let lattice = Lattice::new(ds.schema().clone()).unwrap();
    let metric = LossMetric::classic();
    let evaluate = |levels: LevelVector| {
        let table = lattice.apply(ds, &levels, "genetic").expect("valid node");
        match constraint.enforce(&table) {
            Some(enforced) => (levels, -metric.total_loss(&enforced), Some(enforced)),
            None => {
                let viol = constraint.violating_tuples(&table) as f64;
                let n = ds.len() as f64;
                let a = ds.schema().quasi_identifiers().len() as f64;
                (levels, -a * n - viol, None)
            }
        }
    };
    let best_index = |population: &[(LevelVector, f64, Option<AnonymizedTable>)]| {
        population
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).unwrap())
            .map(|(i, _)| i)
            .unwrap()
    };
    let select = |rng: &mut StdRng, population: &[(LevelVector, f64, Option<AnonymizedTable>)]| {
        let mut best = rng.gen_range(0..population.len());
        for _ in 1..config.tournament {
            let c = rng.gen_range(0..population.len());
            if population[c].1 > population[best].1 {
                best = c;
            }
        }
        best
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut population = vec![evaluate(lattice.top())];
    while population.len() < config.population {
        let levels: LevelVector = lattice
            .max_levels()
            .iter()
            .map(|&m| rng.gen_range(0..=m))
            .collect();
        population.push(evaluate(levels));
    }
    let mut best_idx = best_index(&population);
    for _ in 0..config.generations {
        let mut next = vec![evaluate(population[best_idx].0.clone())];
        while next.len() < config.population {
            let a = select(&mut rng, &population);
            let b = select(&mut rng, &population);
            let (pa, pb) = (&population[a].0, &population[b].0);
            let mut child: LevelVector = match config.crossover {
                Crossover::Uniform => pa
                    .iter()
                    .zip(pb)
                    .map(|(&x, &y)| if rng.gen::<bool>() { x } else { y })
                    .collect(),
                Crossover::OnePoint => {
                    let cut = rng.gen_range(0..=pa.len());
                    pa[..cut].iter().chain(pb[cut..].iter()).copied().collect()
                }
            };
            for (dim, l) in child.iter_mut().enumerate() {
                if rng.gen::<f64>() < config.mutation_rate {
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
            next.push(evaluate(child));
        }
        population = next;
        best_idx = best_index(&population);
    }
    let (levels, _, table) = population.swap_remove(best_idx);
    table.map(|t| (levels, t))
}

// ----------------------------------------------------------------------
// Equality assertions.
// ----------------------------------------------------------------------

/// Bit-identical releases: same cells, same suppression mask, same name.
fn assert_identical(context: &str, a: &AnonymizedTable, b: &AnonymizedTable) {
    assert_eq!(a.name(), b.name(), "{context}: names differ");
    assert_eq!(
        a.suppression_mask(),
        b.suppression_mask(),
        "{context}: suppression masks differ"
    );
    assert_eq!(a.records(), b.records(), "{context}: cells differ");
}

fn datasets() -> Vec<(&'static str, Arc<Dataset>)> {
    vec![
        ("paper_table1", paper_table1(paper_schema_t3())),
        (
            "census",
            generate(&CensusConfig {
                rows: 120,
                seed: 99,
                zip_pool: 12,
            }),
        ),
    ]
}

fn constraints(n: usize) -> Vec<Constraint> {
    vec![
        Constraint::k_anonymity(2),
        Constraint::k_anonymity(3).with_suppression(n / 10),
        Constraint::k_anonymity(5).with_suppression(n / 5),
        // An extra model: feasibility needs the decoded table.
        Constraint::k_anonymity(2)
            .with_suppression(n / 10)
            .with_model(Arc::new(LDiversity::distinct(2))),
    ]
}

#[test]
fn samarati_matches_materialized_reference() {
    for (label, ds) in datasets() {
        for c in constraints(ds.len()) {
            let reference = ref_samarati(&ds, &c).expect("satisfiable on seed data");
            let outcome = Samarati.run(&ds, &c).expect("satisfiable");
            let ctx = format!("samarati/{label}/{}", c.describe());
            assert_eq!(outcome.levels, reference.0, "{ctx}: winning node differs");
            assert_identical(&ctx, &outcome.table, &reference.1);
        }
    }
}

#[test]
fn incognito_matches_materialized_reference() {
    for (label, ds) in datasets() {
        for c in constraints(ds.len()) {
            let reference = ref_incognito(&ds, &c).expect("satisfiable on seed data");
            let outcome = Incognito.run(&ds, &c).expect("satisfiable");
            let ctx = format!("incognito/{label}/{}", c.describe());
            assert_eq!(outcome.levels, reference.0, "{ctx}: winning node differs");
            assert_identical(&ctx, &outcome.table, &reference.1);
        }
    }
}

#[test]
fn optimal_matches_materialized_reference() {
    for (label, ds) in datasets() {
        for c in constraints(ds.len()) {
            let reference = ref_optimal(&ds, &c).expect("satisfiable on seed data");
            let (table, levels, _) = OptimalLattice.run(&ds, &c).expect("satisfiable");
            let ctx = format!("optimal/{label}/{}", c.describe());
            assert_eq!(levels, reference.0, "{ctx}: winning node differs");
            assert_identical(&ctx, &table, &reference.1);
        }
    }
}

#[test]
fn datafly_matches_materialized_reference() {
    for (label, ds) in datasets() {
        for c in constraints(ds.len()) {
            let reference = ref_datafly(&ds, &c).expect("satisfiable on seed data");
            let (table, levels) = Datafly.run(&ds, &c).expect("satisfiable");
            let ctx = format!("datafly/{label}/{}", c.describe());
            assert_eq!(levels, reference.0, "{ctx}: final node differs");
            assert_identical(&ctx, &table, &reference.1);
        }
    }
}

#[test]
fn subset_incognito_matches_materialized_reference() {
    for (label, ds) in datasets() {
        for c in constraints(ds.len()) {
            let reference = ref_subset_incognito(&ds, &c).expect("satisfiable on seed data");
            let outcome = SubsetIncognito.run(&ds, &c).expect("satisfiable");
            let ctx = format!("subset-incognito/{label}/{}", c.describe());
            assert_eq!(outcome.levels, reference.0, "{ctx}: winning node differs");
            assert_identical(&ctx, &outcome.table, &reference.1);
        }
    }
}

#[test]
fn top_down_matches_materialized_reference() {
    for (label, ds) in datasets() {
        for c in constraints(ds.len()) {
            let reference = ref_top_down(&ds, &c).expect("satisfiable on seed data");
            let (table, levels) = TopDown.run(&ds, &c).expect("satisfiable");
            let ctx = format!("top-down/{label}/{}", c.describe());
            assert_eq!(levels, reference.0, "{ctx}: final node differs");
            assert_identical(&ctx, &table, &reference.1);
        }
    }
}

#[test]
fn greedy_matches_materialized_reference() {
    for (label, ds) in datasets() {
        for c in constraints(ds.len()) {
            let reference = ref_greedy(&ds, &c).expect("satisfiable on seed data");
            let (table, levels) = GreedyRecoder.run(&ds, &c).expect("satisfiable");
            let ctx = format!("greedy/{label}/{}", c.describe());
            assert_eq!(levels, reference.0, "{ctx}: final node differs");
            assert_identical(&ctx, &table, &reference.1);
        }
    }
}

#[test]
fn genetic_matches_materialized_reference() {
    let genetic = Genetic {
        config: genetic_config(),
    };
    for (label, ds) in datasets() {
        for c in constraints(ds.len()) {
            let reference = ref_genetic(&ds, &c).expect("satisfiable on seed data");
            let (table, levels) = genetic.run(&ds, &c).expect("satisfiable");
            let ctx = format!("genetic/{label}/{}", c.describe());
            assert_eq!(levels, reference.0, "{ctx}: best individual differs");
            assert_identical(&ctx, &table, &reference.1);
        }
    }
}

// ----------------------------------------------------------------------
// The same references on random datasets and constraints.
// ----------------------------------------------------------------------

fn random_schema() -> Arc<Schema> {
    Schema::new(vec![
        Attribute::integer("age", Role::QuasiIdentifier, 0, 99)
            .with_hierarchy(IntervalLadder::uniform(0, &[10, 50]).unwrap().into())
            .unwrap(),
        Attribute::from_taxonomy(
            "city",
            Role::QuasiIdentifier,
            Taxonomy::masking(&["aa", "ab", "ba", "bb"], &[1]).unwrap(),
        ),
        Attribute::categorical("d", Role::Sensitive, ["x", "y", "z"]),
    ])
    .unwrap()
}

/// A random dataset with a constraint: k ∈ 1..=n+1, a budget ∈ 0..=n,
/// and, in one case of three, distinct 2-diversity on top.
fn arb_instance() -> impl Strategy<Value = (Arc<Dataset>, Constraint)> {
    proptest::collection::vec(
        (0i64..100, 0u32..4, 0u32..3)
            .prop_map(|(a, c, d)| vec![Value::Int(a), Value::Cat(c), Value::Cat(d)]),
        1..40,
    )
    .prop_flat_map(|rows| {
        let n = rows.len();
        let ds = Dataset::new(random_schema(), rows).expect("in-domain rows");
        (Just(ds), 1..=n + 1, 0..=n, 0u8..3).prop_map(|(ds, k, budget, model)| {
            let mut c = Constraint::k_anonymity(k).with_suppression(budget);
            if model == 0 {
                c = c.with_model(Arc::new(LDiversity::distinct(2)));
            }
            (ds, c)
        })
    })
}

/// A search's result against its reference: the same node and the same
/// release, or both unsatisfiable.
fn check_search(
    name: &str,
    c: &Constraint,
    outcome: anoncmp_anonymize::error::Result<(LevelVector, AnonymizedTable)>,
    reference: Option<(LevelVector, AnonymizedTable)>,
) -> std::result::Result<(), TestCaseError> {
    let ctx = format!("{name}/{}", c.describe());
    match (outcome, reference) {
        (Ok((levels, table)), Some((ref_levels, ref_table))) => {
            prop_assert_eq!(levels, ref_levels, "{}: node differs", ctx);
            assert_identical(&ctx, &table, &ref_table);
        }
        (Err(AnonymizeError::Unsatisfiable(_)), None) => {}
        (Ok(_), None) => prop_assert!(false, "{ctx}: the reference finds no node"),
        (Err(e), _) => prop_assert!(false, "{ctx}: {e}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn searches_match_references_on_random_instances((ds, c) in arb_instance()) {
        let genetic = Genetic { config: genetic_config() };
        check_search(
            "datafly",
            &c,
            Datafly.run(&ds, &c).map(|(t, l)| (l, t)),
            ref_datafly(&ds, &c),
        )?;
        check_search(
            "samarati",
            &c,
            Samarati.run(&ds, &c).map(|o| (o.levels, o.table)),
            ref_samarati(&ds, &c),
        )?;
        check_search(
            "incognito",
            &c,
            Incognito.run(&ds, &c).map(|o| (o.levels, o.table)),
            ref_incognito(&ds, &c),
        )?;
        check_search(
            "subset-incognito",
            &c,
            SubsetIncognito.run(&ds, &c).map(|o| (o.levels, o.table)),
            ref_subset_incognito(&ds, &c),
        )?;
        check_search(
            "optimal",
            &c,
            OptimalLattice.run(&ds, &c).map(|(t, l, _)| (l, t)),
            ref_optimal(&ds, &c),
        )?;
        check_search(
            "top-down",
            &c,
            TopDown.run(&ds, &c).map(|(t, l)| (l, t)),
            ref_top_down(&ds, &c),
        )?;
        check_search(
            "greedy",
            &c,
            GreedyRecoder.run(&ds, &c).map(|(t, l)| (l, t)),
            ref_greedy(&ds, &c),
        )?;
        check_search(
            "genetic",
            &c,
            genetic.run(&ds, &c).map(|(t, l)| (l, t)),
            ref_genetic(&ds, &c),
        )?;
    }
}
