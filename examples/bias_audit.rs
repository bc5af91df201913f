//! Bias audit: how a fixed scalar guarantee hides unequal protection.
//!
//! A data publisher promises "k = 10". This example produces 10-anonymous
//! releases with increasingly coarse recodings, shows that the scalar
//! guarantee is identical across all of them, and audits how differently
//! the actual per-tuple protection is distributed — the *anonymization
//! bias* of the paper's §2 — including a textual Lorenz curve.
//!
//! Run with: `cargo run --release --example bias_audit`

use anoncmp::datagen::census::{generate, CensusConfig};
use anoncmp::prelude::*;

fn lorenz_ascii(v: &PropertyVector, width: usize) -> String {
    let curve = lorenz_curve(v, width);
    let mut out = String::new();
    for row in (0..=4).rev() {
        let threshold = row as f64 / 4.0;
        out.push_str("    ");
        for (_, share) in &curve {
            out.push(if *share >= threshold { '█' } else { ' ' });
        }
        out.push('\n');
    }
    out
}

fn main() {
    let dataset = generate(&CensusConfig {
        rows: 500,
        seed: 7,
        zip_pool: 30,
    });
    let k = 10;
    println!(
        "Auditing 10-anonymous releases of {} census tuples.\n",
        dataset.len()
    );

    // Three ways to honor the same promise.
    let constraint = Constraint::k_anonymity(k).with_suppression(dataset.len() / 20);
    let releases = vec![
        Mondrian.anonymize(&dataset, &constraint).expect("mondrian"),
        Incognito
            .anonymize(&dataset, &constraint)
            .expect("incognito"),
        Datafly.anonymize(&dataset, &constraint).expect("datafly"),
    ];

    for t in &releases {
        let v = EqClassSize.extract(t);
        let b = BiasReport::of(&v);
        println!("── {} ───────────────────────────────────────", t.name());
        println!(
            "  scalar guarantee     : k = {}",
            t.classes().min_class_size()
        );
        println!("  actual class sizes   : {} … {}", b.min, b.max);
        println!("  mean / std deviation : {:.1} / {:.1}", b.mean, b.std_dev);
        println!("  gini coefficient     : {:.3}", b.gini);
        println!(
            "  tuples at minimum    : {:.0}% (only these get exactly the promised k)",
            b.at_minimum * 100.0
        );
        println!(
            "  protection disparity : the best-protected tuple sits in a class {:.1}× \
             larger than the worst",
            b.disparity
        );
        println!("  Lorenz curve of the privacy distribution:");
        print!("{}", lorenz_ascii(&v, 40));
        println!();
    }

    // The per-user perspective of §2: for how many tuples is each release
    // the personal optimum?
    println!("Per-user winners (paper §2's user-3 vs user-8 point, at scale):");
    let vectors: Vec<PropertyVector> = releases.iter().map(|t| EqClassSize.extract(t)).collect();
    let mut winners = vec![0usize; releases.len()];
    let mut ties = 0usize;
    for tuple in 0..dataset.len() {
        let best = vectors
            .iter()
            .map(|v| v[tuple])
            .fold(f64::NEG_INFINITY, f64::max);
        let who: Vec<usize> = (0..vectors.len())
            .filter(|&i| vectors[i][tuple] == best)
            .collect();
        if who.len() == 1 {
            winners[who[0]] += 1;
        } else {
            ties += 1;
        }
    }
    for (i, t) in releases.iter().enumerate() {
        println!(
            "  {:<12} is the unique personal optimum for {:>4} tuples",
            t.name(),
            winners[i]
        );
    }
    println!("  ({} tuples are tied across releases)", ties);
    println!(
        "\nNo single release is best for everyone — exactly why the paper rejects \
         \"k=10 is k=10\" comparisons."
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn example_runs() {
        super::main();
    }
}
