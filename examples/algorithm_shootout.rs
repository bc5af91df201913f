//! Algorithm shootout: compare six disclosure control algorithms on
//! synthetic census microdata with both scalar and vector-based methods.
//!
//! This is the comparative study the paper's framework was built for:
//! several algorithms produce k-anonymous releases of the same dataset,
//! the scalar view (k, average class size, total loss) is printed next to
//! the vector view (pairwise ▶cov / ▶spr tournament and bias statistics),
//! and the disagreements between the two views are highlighted.
//!
//! Run with: `cargo run --release --example algorithm_shootout`

use anoncmp::datagen::census::{generate, CensusConfig};
use anoncmp::prelude::*;

fn main() {
    let dataset = generate(&CensusConfig {
        rows: 400,
        seed: 2024,
        zip_pool: 25,
    });
    let k = 5;
    let constraint = Constraint::k_anonymity(k).with_suppression(dataset.len() / 20);
    println!(
        "Dataset: {} synthetic census tuples; constraint: {}\n",
        dataset.len(),
        constraint.describe()
    );

    // Run every algorithm.
    let algos: Vec<Box<dyn Anonymizer>> = vec![
        Box::new(Datafly),
        Box::new(Samarati),
        Box::new(Incognito),
        Box::new(Mondrian),
        Box::new(GreedyRecoder),
        Box::new(Genetic::default()),
    ];
    let mut releases = Vec::new();
    for algo in &algos {
        match algo.anonymize(&dataset, &constraint) {
            Ok(t) => releases.push(t),
            Err(e) => println!("  {} failed: {e}", algo.name()),
        }
    }

    // ------------------------------------------------------------------
    // Scalar view.
    // ------------------------------------------------------------------
    let metric = LossMetric::classic();
    println!("Scalar view (what comparative studies usually report):");
    println!(
        "  {:<12} {:>4} {:>8} {:>10} {:>10} {:>9}",
        "algorithm", "k", "classes", "avg |EC|", "total loss", "suppressed"
    );
    for t in &releases {
        let sizes = EqClassSize.extract(t);
        println!(
            "  {:<12} {:>4} {:>8} {:>10.2} {:>10.1} {:>9}",
            t.name(),
            t.classes().min_class_size(),
            t.classes().class_count(),
            sizes.mean().unwrap(),
            metric.total_loss(t),
            t.suppressed_count()
        );
    }

    // ------------------------------------------------------------------
    // Vector view: pairwise coverage/spread tournament on privacy.
    // ------------------------------------------------------------------
    println!("\nPairwise ▶cov tournament on the equivalence-class-size property");
    println!("(cell = P_cov(row, column); row beats column when its value is larger):");
    let vectors: Vec<PropertyVector> = releases.iter().map(|t| EqClassSize.extract(t)).collect();
    print!("  {:<12}", "");
    for t in &releases {
        print!(" {:>10}", t.name());
    }
    println!();
    // The tournament tally comes from the ▶cov matrix; the cells print
    // the directed coverage indices behind its verdicts.
    let names: Vec<&str> = releases.iter().map(|t| t.name()).collect();
    let matrix = ComparisonMatrix::of_vectors(&names, &vectors, &CoverageComparator);
    for (i, di) in vectors.iter().enumerate() {
        print!("  {:<12}", releases[i].name());
        for (j, dj) in vectors.iter().enumerate() {
            if i == j {
                print!(" {:>10}", "—");
                continue;
            }
            let c = coverage_index(di, dj);
            print!(" {c:>10.2}");
        }
        println!();
    }
    let champion = (0..releases.len())
        .map(|i| matrix.wins(i))
        .enumerate()
        .max_by_key(|&(_, w)| w)
        .map(|(i, _)| releases[i].name())
        .unwrap_or("none");
    println!("  ▶cov tournament champion: {champion}");

    // ------------------------------------------------------------------
    // Bias view: identical k, very different distribution.
    // ------------------------------------------------------------------
    println!("\nBias statistics of the privacy distribution:");
    for (t, v) in releases.iter().zip(&vectors) {
        let b = BiasReport::of(v);
        println!(
            "  {:<12} min {:>3} max {:>4} gini {:.3}  at-minimum {:>4.0}%  disparity {:>6.1}×",
            t.name(),
            b.min,
            b.max,
            b.gini,
            b.at_minimum * 100.0,
            b.disparity
        );
    }

    // ------------------------------------------------------------------
    // Multi-property: weigh privacy against utility (§5.5).
    // ------------------------------------------------------------------
    println!("\nWeighted privacy/utility comparison (▶WTD, weights 0.5/0.5):");
    let util = IyengarUtility::paper();
    let sets: Vec<PropertySet> = releases
        .iter()
        .map(|t| induce_property_set(t, &[&EqClassSize, &util]))
        .collect();
    let wtd = WeightedComparator::equal(vec![
        Box::new(CoverageComparator),
        Box::new(CoverageComparator),
    ]);
    let wtd_matrix = ComparisonMatrix::of_sets(&sets, &wtd);
    for i in 0..sets.len() {
        for j in (i + 1)..sets.len() {
            let verdict = match wtd_matrix.outcome(i, j) {
                Preference::First => format!(
                    "{} ▶WTD {}",
                    sets[i].anonymization(),
                    sets[j].anonymization()
                ),
                Preference::Second => format!(
                    "{} ▶WTD {}",
                    sets[j].anonymization(),
                    sets[i].anonymization()
                ),
                _ => format!("{} ≈ {}", sets[i].anonymization(), sets[j].anonymization()),
            };
            println!("  {verdict}");
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn example_runs() {
        super::main();
    }
}
