//! Pareto explorer: the paper's §7 future work, end to end.
//!
//! Instead of fixing k and maximizing utility, privacy is optimized *as an
//! objective*: NSGA-II sweeps the generalization lattice and returns the
//! whole privacy/utility frontier. Each frontier release is then profiled
//! with the operational lenses built in this workspace — re-identification
//! risk, query-workload accuracy, and bias — so a data publisher can pick
//! the knee point with full information.
//!
//! Run with: `cargo run --release --example pareto_explorer`

use anoncmp::datagen::census::{generate, CensusConfig};
use anoncmp::prelude::*;

fn main() {
    let dataset = generate(&CensusConfig {
        rows: 350,
        seed: 99,
        zip_pool: 20,
    });
    println!(
        "Exploring the privacy/utility frontier of {} census tuples (§7 of the paper).\n",
        dataset.len()
    );

    // Two objectives: mean class size (privacy) and negated loss (utility).
    let moga = MultiObjectiveGenetic {
        config: MogaConfig {
            population: 24,
            generations: 18,
            ..Default::default()
        },
        ..Default::default()
    };
    let front = moga.run(&dataset).expect("search runs");
    println!(
        "Found a {}-point Pareto frontier. Profiling each release:\n",
        front.len()
    );

    let workload = Workload::random(&dataset, 40, 2, 0.3, 7);
    println!(
        "{:<22} {:>6} {:>10} {:>10} {:>11} {:>10}",
        "levels", "k", "mean |EC|", "max risk", "query err", "priv gini"
    );
    for s in &front {
        let risk = RiskReport::of(&s.table, 0.2);
        let qerr = workload.mean_relative_error(&s.table);
        let privacy = EqClassSize.extract(&s.table);
        println!(
            "{:<22} {:>6} {:>10.1} {:>10.3} {:>11.3} {:>10.3}",
            format!("{:?}", s.levels),
            s.table.classes().min_class_size(),
            privacy.mean().unwrap_or(0.0),
            risk.max_risk,
            qerr,
            gini(&privacy)
        );
    }

    // Knee selection: the frontier point with the best normalized
    // harmonic trade-off between the two objectives.
    let lo0 = front
        .iter()
        .map(|s| s.objectives[0])
        .fold(f64::INFINITY, f64::min);
    let hi0 = front
        .iter()
        .map(|s| s.objectives[0])
        .fold(f64::NEG_INFINITY, f64::max);
    let lo1 = front
        .iter()
        .map(|s| s.objectives[1])
        .fold(f64::INFINITY, f64::min);
    let hi1 = front
        .iter()
        .map(|s| s.objectives[1])
        .fold(f64::NEG_INFINITY, f64::max);
    let knee = front
        .iter()
        .max_by(|a, b| {
            let score = |s: &ParetoSolution| {
                let p = (s.objectives[0] - lo0) / (hi0 - lo0).max(1e-9);
                let u = (s.objectives[1] - lo1) / (hi1 - lo1).max(1e-9);
                2.0 * p * u / (p + u).max(1e-9)
            };
            score(a).partial_cmp(&score(b)).expect("scores are not NaN")
        })
        .expect("front is non-empty");
    println!(
        "\nSuggested knee point: levels {:?} (k = {}, mean |EC| {:.1}).",
        knee.levels,
        knee.table.classes().min_class_size(),
        knee.objectives[0]
    );

    // How would the classical pipeline have done? Compare the knee against
    // a fixed-k release through the paper's comparators.
    let k = knee.table.classes().min_class_size().max(2);
    let constraint = Constraint::k_anonymity(k).with_suppression(dataset.len() / 20);
    if let Ok(classical) = Incognito.anonymize(&dataset, &constraint) {
        let knee_v = EqClassSize.extract(&knee.table);
        let classical_v = EqClassSize.extract(&classical);
        let matrix = ComparisonMatrix::of_vectors(
            &["knee", "incognito"],
            &[knee_v, classical_v],
            &CoverageComparator,
        );
        println!("\nKnee vs the classical fixed-k pipeline at k = {k}:");
        print!("{}", matrix.render());
    }
    println!(
        "\nThe frontier view surfaces choices the fixed-k pipeline never sees — \
         the paper's closing argument, running."
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn example_runs() {
        super::main();
    }
}
