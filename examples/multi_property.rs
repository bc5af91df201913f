//! Multi-property preference: privacy *and* diversity *and* utility.
//!
//! The paper's §5.5–§5.7 schemes in action as a 3-property anonymization
//! (Definition 2 with r = 3): equivalence-class size (k-anonymity's
//! property), distinct sensitive diversity (ℓ-diversity's property), and
//! Iyengar utility. Three stakeholders — a privacy officer, a data
//! scientist, and a regulator with explicit targets — rank the same
//! candidate releases differently under ▶WTD, ▶LEX and ▶GOAL.
//!
//! Run with: `cargo run --release --example multi_property`

use anoncmp::datagen::census::{generate, CensusConfig};
use anoncmp::prelude::*;

fn cov_indices(r: usize) -> Vec<Box<dyn BinaryIndex>> {
    (0..r)
        .map(|_| Box::new(CoverageComparator) as Box<dyn BinaryIndex>)
        .collect()
}

fn rank_all(name: &str, sets: &[PropertySet], cmp: &dyn SetComparator) {
    // Tournament wins under the set comparator.
    let mut wins = vec![0usize; sets.len()];
    for i in 0..sets.len() {
        for j in 0..sets.len() {
            if i != j && cmp.compare(&sets[i], &sets[j]) == Preference::First {
                wins[i] += 1;
            }
        }
    }
    let mut order: Vec<usize> = (0..sets.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(wins[i]));
    let ranking: Vec<String> = order
        .iter()
        .map(|&i| format!("{} ({} wins)", sets[i].anonymization(), wins[i]))
        .collect();
    println!("  {name:<28} {}", ranking.join("  >  "));
}

fn main() {
    let dataset = generate(&CensusConfig {
        rows: 300,
        seed: 11,
        zip_pool: 20,
    });
    let constraint = Constraint::k_anonymity(4).with_suppression(15);

    // Candidate releases from different algorithm families.
    let releases = [
        Mondrian.anonymize(&dataset, &constraint).expect("mondrian"),
        Incognito
            .anonymize(&dataset, &constraint)
            .expect("incognito"),
        Genetic::default()
            .anonymize(&dataset, &constraint)
            .expect("genetic"),
    ];

    // The 3-property view (Definition 2, r = 3). Property order doubles as
    // the ▶LEX relevance order: privacy first, diversity second, utility
    // third.
    let diversity = DistinctSensitiveCount::default();
    let utility = IyengarUtility::paper();
    let sets: Vec<PropertySet> = releases
        .iter()
        .map(|t| induce_property_set(t, &[&EqClassSize, &diversity, &utility]))
        .collect();

    println!(
        "Candidates: {}\n",
        releases
            .iter()
            .map(|t| t.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    for s in &sets {
        println!("  {}:", s.anonymization());
        for v in s.vectors() {
            let b = BiasReport::of(v);
            println!(
                "    {:<26} min {:>6.2} mean {:>6.2} max {:>6.2}",
                v.name(),
                b.min,
                b.mean,
                b.max
            );
        }
    }
    println!();

    // Stakeholder 1: privacy officer — ▶WTD with weights (0.6, 0.3, 0.1).
    let officer = WeightedComparator::new(vec![0.6, 0.3, 0.1], cov_indices(3));
    rank_all("privacy officer (WTD 6/3/1):", &sets, &officer);

    // Stakeholder 2: data scientist — ▶WTD with weights (0.1, 0.2, 0.7).
    let scientist = WeightedComparator::new(vec![0.1, 0.2, 0.7], cov_indices(3));
    rank_all("data scientist (WTD 1/2/7):", &sets, &scientist);

    // Stakeholder 3: strict priority order with tolerances — ▶LEX.
    let lex = LexicographicComparator::new(vec![0.05, 0.05, 0.05], cov_indices(3));
    rank_all("regulator (LEX, ε = 0.05):", &sets, &lex);

    // Stakeholder 4: explicit targets — ▶GOAL on unary indices: at least
    // k = 8 on average-ish privacy, diversity 3, mean utility 5.
    let goal = GoalComparator::new(
        vec![8.0, 3.0, 5.0],
        GoalBasis::Unary(vec![
            Box::new(classic::MinIndex),
            Box::new(classic::MinIndex),
            Box::new(classic::MeanIndex),
        ]),
    );
    rank_all("auditor (GOAL k=8, ℓ=3, ū=5):", &sets, &goal);

    println!(
        "\nThe same candidates, four defensible rankings — the comparator, not the \
         releases, decides who \"wins\" (paper §5)."
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn example_runs() {
        super::main();
    }
}
