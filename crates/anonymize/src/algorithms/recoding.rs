//! Shared local-recoding helpers: generalizing a *group of tuples* to the
//! smallest region covering all of them. Used by the partition-based
//! algorithms ([`Mondrian`](crate::algorithms::mondrian::Mondrian),
//! [`GreedyCluster`](crate::algorithms::clustering::GreedyCluster)).

use std::sync::Arc;

use anoncmp_microdata::prelude::{AnonymizedTable, Dataset, Domain, Error, GenValue, Taxonomy};

use crate::error::Result;

/// The generalized cell covering the values of `part` in column `col`:
/// numeric columns get the tight half-open interval, categorical columns
/// the lowest covering taxonomy node (or the raw value when unique, or
/// `*` when only the root covers / no taxonomy exists).
///
/// # Errors
/// [`Error::ValueOutOfDomain`] when a group spanning `i64::MIN` needs an
/// interval, whose exclusive lower bound `i64::MIN − 1` does not exist.
pub(crate) fn cover(dataset: &Dataset, col: usize, part: &[u32]) -> Result<GenValue> {
    Ok(match dataset.schema().attribute(col).domain() {
        Domain::Integer { .. } => {
            let vals: Vec<i64> = part
                .iter()
                .map(|&t| dataset.value(t as usize, col).as_int().expect("int column"))
                .collect();
            let lo = *vals.iter().min().expect("non-empty partition");
            let hi = *vals.iter().max().expect("non-empty partition");
            if lo == hi {
                GenValue::Int(lo)
            } else {
                // Half-open (lo − 1, hi] covers exactly lo..=hi.
                let below = lo.checked_sub(1).ok_or_else(|| Error::ValueOutOfDomain {
                    attribute: dataset.schema().attribute(col).name().to_owned(),
                    value: lo.to_string(),
                })?;
                GenValue::Interval { lo: below, hi }
            }
        }
        Domain::Categorical { .. } => {
            let mut cats: Vec<u32> = part
                .iter()
                .map(|&t| dataset.value(t as usize, col).as_cat().expect("cat column"))
                .collect();
            cats.sort_unstable();
            cats.dedup();
            if cats.len() == 1 {
                return Ok(GenValue::Cat(cats[0]));
            }
            match dataset
                .schema()
                .attribute(col)
                .hierarchy()
                .and_then(|h| h.as_taxonomy())
            {
                Some(tax) => lca(tax, &cats),
                None => GenValue::Suppressed,
            }
        }
    })
}

/// Lowest taxonomy node covering all of `cats`; `Suppressed` when only the
/// root covers them.
pub(crate) fn lca(tax: &Taxonomy, cats: &[u32]) -> GenValue {
    let first = cats[0];
    for level in 1..tax.height() {
        let node = tax
            .ancestor_at_level(first, level)
            .expect("level within height");
        if cats.iter().all(|&c| tax.node_covers_leaf(node, c)) {
            return GenValue::Node(node);
        }
    }
    GenValue::Suppressed
}

/// Builds the release induced by a tuple partition: every quasi-identifier
/// cell of a group is generalized to the group's covering region;
/// non-QI columns stay raw.
///
/// # Errors
/// As [`cover`]; propagates [`AnonymizedTable::new`] validation errors.
pub(crate) fn table_from_partitions(
    dataset: &Arc<Dataset>,
    partitions: &[Vec<u32>],
    name: &str,
) -> Result<AnonymizedTable> {
    let qi: Vec<usize> = dataset.schema().quasi_identifiers().to_vec();
    let mut records: Vec<Vec<GenValue>> = dataset
        .rows()
        .iter()
        .map(|row| row.iter().map(|v| GenValue::raw(*v)).collect())
        .collect();
    for part in partitions {
        for &col in &qi {
            let gv = cover(dataset, col, part)?;
            for &t in part {
                records[t as usize][col] = gv;
            }
        }
    }
    Ok(AnonymizedTable::new(dataset.clone(), records, name)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    use anoncmp_microdata::prelude::*;

    use crate::error::AnonymizeError;

    fn dataset() -> Arc<Dataset> {
        let schema = Schema::new(vec![
            Attribute::integer("age", Role::QuasiIdentifier, 0, 100),
            Attribute::from_taxonomy(
                "city",
                Role::QuasiIdentifier,
                Taxonomy::masking(&["aa", "ab", "bb"], &[1]).unwrap(),
            ),
            Attribute::categorical("d", Role::Sensitive, ["x", "y"]),
        ])
        .unwrap();
        Dataset::new(
            schema,
            vec![
                vec![Value::Int(10), Value::Cat(0), Value::Cat(0)],
                vec![Value::Int(20), Value::Cat(1), Value::Cat(1)],
                vec![Value::Int(20), Value::Cat(2), Value::Cat(0)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn numeric_cover_is_tight() {
        let ds = dataset();
        assert_eq!(
            cover(&ds, 0, &[0, 1]).unwrap(),
            GenValue::Interval { lo: 9, hi: 20 }
        );
        assert_eq!(
            cover(&ds, 0, &[1, 2]).unwrap(),
            GenValue::Int(20),
            "single value stays raw"
        );
    }

    #[test]
    fn categorical_cover_uses_lca() {
        let ds = dataset();
        // aa (cat 0) and ab (cat 1) share the "a*" node.
        let gv = cover(&ds, 1, &[0, 1]).unwrap();
        let tax = ds
            .schema()
            .attribute(1)
            .hierarchy()
            .unwrap()
            .as_taxonomy()
            .unwrap();
        match gv {
            GenValue::Node(n) => assert_eq!(tax.label(n), "a*"),
            other => panic!("expected a node, got {other:?}"),
        }
        // aa and bb only share the root.
        assert_eq!(cover(&ds, 1, &[0, 2]).unwrap(), GenValue::Suppressed);
        assert_eq!(cover(&ds, 1, &[2]).unwrap(), GenValue::Cat(2));
    }

    #[test]
    fn numeric_cover_refuses_to_wrap_below_i64_min() {
        let schema = Schema::new(vec![Attribute::integer(
            "age",
            Role::QuasiIdentifier,
            i64::MIN,
            100,
        )])
        .unwrap();
        let ds = Dataset::new(
            schema,
            vec![vec![Value::Int(i64::MIN)], vec![Value::Int(30)]],
        )
        .unwrap();
        match cover(&ds, 0, &[0, 1]) {
            Err(AnonymizeError::Microdata(Error::ValueOutOfDomain { attribute, .. })) => {
                assert_eq!(attribute, "age");
            }
            other => panic!("expected a typed error, got {other:?}"),
        }
        assert_eq!(cover(&ds, 0, &[0]).unwrap(), GenValue::Int(i64::MIN));
        assert!(table_from_partitions(&ds, &[vec![0, 1]], "t").is_err());
    }

    #[test]
    fn partitions_become_classes() {
        let ds = dataset();
        let t = table_from_partitions(&ds, &[vec![0, 1], vec![2]], "t").unwrap();
        assert_eq!(t.classes().class_count(), 2);
        assert_eq!(t.classes().class_of(0), t.classes().class_of(1));
        // Sensitive cells stay raw.
        assert_eq!(t.cell(0, 2), &GenValue::Cat(0));
    }
}
