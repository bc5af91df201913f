//! Schema inference for external CSV data.
//!
//! Downstream users rarely have hand-built
//! [`Schema`]s for their files; this
//! module infers one: columns whose every value parses as an integer
//! become numeric attributes with an automatically nested interval ladder,
//! the rest become categorical — with a character-masking hierarchy when
//! all labels share one length (zip codes, phone prefixes), flat
//! otherwise. Quasi-identifier columns receive hierarchies; other columns
//! do not need them.
//!
//! Used by the `anoncmp` CLI; exposed here so library users get the same
//! behavior programmatically.

use std::sync::Arc;

use anoncmp_microdata::csv::dataset_from_csv;
use anoncmp_microdata::prelude::{
    Attribute, Dataset, Error, IntervalLadder, Role, Schema, Taxonomy,
};

/// An automatically nested interval ladder for span `[min, max]`: three
/// levels splitting the span in roughly sixteenths, quarters, and halves
/// (minimum width 1). The origin sits just below `min` so the finest
/// buckets start at the data.
///
/// # Errors
/// [`Error::InvalidHierarchy`] when the span is too wide for 64-bit
/// bucket arithmetic: the origin `min − 1`, the span, or a bucket bound
/// above `max` would overflow `i64`.
pub fn auto_ladder(min: i64, max: i64) -> Result<IntervalLadder, Error> {
    let too_wide = || {
        Error::InvalidHierarchy(format!(
            "integers {min}..={max} are too wide for a 64-bit interval ladder"
        ))
    };
    let origin = min.checked_sub(1).ok_or_else(too_wide)?;
    let span = max.checked_sub(min).ok_or_else(too_wide)?.max(1);
    let base = (span / 16).max(1);
    let mut widths = vec![base, base * 4, base * 8];
    widths.dedup();
    // Bucketing a value `v ≤ max` computes `v − origin + width − 1` and
    // an upper bound below `v + width`.
    let widest = base * 8;
    max.checked_sub(origin)
        .and_then(|delta| delta.checked_add(widest))
        .and(max.checked_add(widest))
        .ok_or_else(too_wide)?;
    IntervalLadder::uniform(origin, &widths)
}

/// Infers one attribute from its raw cells.
///
/// # Errors
/// Returns a message when the column is empty or hierarchy construction
/// fails.
pub fn infer_attribute(name: &str, role: Role, cells: &[String]) -> Result<Attribute, String> {
    if cells.is_empty() {
        return Err(format!("column '{name}' has no data"));
    }
    // Numeric?
    if let Ok(values) = cells
        .iter()
        .map(|c| c.parse::<i64>())
        .collect::<Result<Vec<_>, _>>()
    {
        let min = *values.iter().min().expect("non-empty");
        let max = *values.iter().max().expect("non-empty");
        let mut attr = Attribute::integer(name, role, min, max);
        if role == Role::QuasiIdentifier {
            let ladder = auto_ladder(min, max).map_err(|e| format!("column '{name}': {e}"))?;
            attr = attr
                .with_hierarchy(ladder.into())
                .map_err(|e| e.to_string())?;
        }
        return Ok(attr);
    }
    // Categorical: distinct labels in first-appearance order.
    let mut labels: Vec<String> = Vec::new();
    for c in cells {
        if !labels.contains(c) {
            labels.push(c.clone());
        }
    }
    if role != Role::QuasiIdentifier {
        return Ok(Attribute::categorical(name, role, labels));
    }
    // Masking hierarchy when all labels share a length > 1, flat otherwise.
    let len = labels[0].chars().count();
    let taxonomy = if len > 1 && labels.iter().all(|l| l.chars().count() == len) {
        let steps: Vec<usize> = (1..len).collect();
        Taxonomy::masking(&labels, &steps).map_err(|e| e.to_string())?
    } else {
        Taxonomy::flat(labels.clone()).map_err(|e| e.to_string())?
    };
    Ok(Attribute::from_taxonomy(name, role, taxonomy))
}

/// Parses CSV text into a dataset with an inferred schema. `qi` names the
/// quasi-identifier columns; `sensitive` the sensitive column; remaining
/// columns are insensitive.
///
/// The header is taken from the first non-empty line; quoting is honored
/// during the final parse but not during column-shape inference, so files
/// with quoted separators in QI columns should pre-declare schemas
/// instead.
///
/// # Errors
/// Returns a message for structural problems (missing columns, ragged
/// rows) or parse failures.
pub fn dataset_from_csv_inferred(
    text: &str,
    qi: &[&str],
    sensitive: &str,
) -> Result<Arc<Dataset>, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header: Vec<String> = lines
        .next()
        .ok_or("empty file")?
        .split(',')
        .map(|h| h.trim().to_owned())
        .collect();
    for name in qi.iter().copied().chain([sensitive]) {
        if !header.iter().any(|h| h == name) {
            return Err(format!("column '{name}' not found; header is {header:?}"));
        }
    }
    let mut columns: Vec<Vec<String>> = vec![Vec::new(); header.len()];
    for (no, line) in lines.enumerate() {
        let cells: Vec<&str> = line.split(',').map(str::trim).collect();
        if cells.len() != header.len() {
            return Err(format!(
                "line {}: expected {} cells, found {}",
                no + 2,
                header.len(),
                cells.len()
            ));
        }
        for (c, cell) in cells.iter().enumerate() {
            columns[c].push((*cell).to_owned());
        }
    }
    let mut attributes = Vec::with_capacity(header.len());
    for (idx, name) in header.iter().enumerate() {
        let role = if qi.contains(&name.as_str()) {
            Role::QuasiIdentifier
        } else if name == sensitive {
            Role::Sensitive
        } else {
            Role::Insensitive
        };
        attributes.push(infer_attribute(name, role, &columns[idx])?);
    }
    let schema = Schema::new(attributes).map_err(|e| e.to_string())?;
    dataset_from_csv(schema, text).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use anoncmp_microdata::prelude::{Domain, Lattice};

    const SAMPLE: &str = "age,zip,sex,disease\n34,SW305,M,flu\n41,SW326,F,cold\n29,NE325,F,flu\n";

    #[test]
    fn infers_numeric_and_categorical_columns() {
        let ds = dataset_from_csv_inferred(SAMPLE, &["age", "zip", "sex"], "disease").unwrap();
        let schema = ds.schema();
        assert_eq!(schema.quasi_identifiers().len(), 3);
        assert_eq!(schema.sensitive().len(), 1);
        assert!(matches!(
            schema.attribute(0).domain(),
            Domain::Integer { .. }
        ));
        assert!(matches!(
            schema.attribute(1).domain(),
            Domain::Categorical { .. }
        ));
        // zip got a masking taxonomy (equal-length 5-char labels).
        let tax = schema
            .attribute(1)
            .hierarchy()
            .unwrap()
            .as_taxonomy()
            .unwrap();
        assert_eq!(tax.height(), 5);
        // sex got a flat taxonomy (labels of length 1).
        let tax = schema
            .attribute(2)
            .hierarchy()
            .unwrap()
            .as_taxonomy()
            .unwrap();
        assert_eq!(tax.height(), 1);
        // A lattice builds directly.
        assert!(Lattice::new(schema.clone()).is_ok());
    }

    #[test]
    fn all_digit_codes_infer_as_numeric() {
        // "13053" parses as i64, so digit-only zips become numeric
        // attributes with an auto ladder (callers who want masking should
        // declare schemas explicitly).
        let text = "zip,d\n13053,x\n13268,y\n";
        let ds = dataset_from_csv_inferred(text, &["zip"], "d").unwrap();
        let schema = ds.schema();
        let idx = schema.index_of("zip").unwrap();
        assert!(matches!(
            schema.attribute(idx).domain(),
            Domain::Integer { .. }
        ));
        assert!(schema
            .attribute(idx)
            .hierarchy()
            .unwrap()
            .as_intervals()
            .is_some());
    }

    #[test]
    fn auto_ladder_shape() {
        let l = auto_ladder(20, 80).unwrap();
        // span 60 → base 3 → widths [3, 12, 24], origin 19.
        assert_eq!(l.levels().len(), 3);
        assert_eq!(l.levels()[0].width, 3);
        assert_eq!(l.levels()[2].width, 24);
        assert_eq!(l.levels()[0].origin, 19);
        // Tiny span.
        let l = auto_ladder(5, 5).unwrap();
        assert_eq!(l.levels()[0].width, 1);
    }

    #[test]
    fn auto_ladder_refuses_spans_that_overflow() {
        // `min − 1`, `max − min` and the bucket bounds above `max` would
        // each wrap around.
        for (min, max) in [(i64::MIN, 31), (-5, i64::MAX), (i64::MIN + 1, 0)] {
            assert!(
                matches!(auto_ladder(min, max), Err(Error::InvalidHierarchy(_))),
                "{min}..={max}"
            );
        }
        // The widest span that still fits buckets every value in range.
        let l = auto_ladder(-1_000, i64::MAX / 2).unwrap();
        for v in [-1_000, 0, i64::MAX / 2] {
            for level in 1..=l.max_level() {
                assert!(l.generalize(v, level).is_ok(), "{v} at level {level}");
            }
        }
        let err = dataset_from_csv_inferred("age,d\n-9223372036854775808,x\n30,y\n", &["age"], "d")
            .unwrap_err();
        assert!(err.contains("column 'age'"), "{err}");
    }

    #[test]
    fn missing_columns_and_ragged_rows_reported() {
        assert!(dataset_from_csv_inferred(SAMPLE, &["nope"], "disease")
            .unwrap_err()
            .contains("not found"));
        let ragged = "a,b\n1\n";
        assert!(dataset_from_csv_inferred(ragged, &["a"], "b")
            .unwrap_err()
            .contains("expected 2 cells"));
        assert!(dataset_from_csv_inferred("", &["a"], "b").is_err());
    }

    #[test]
    fn mixed_alpha_columns_are_flat_or_masked() {
        let text = "code,d\nAAA,x\nBB,y\n";
        let ds = dataset_from_csv_inferred(text, &["code"], "d").unwrap();
        // Mixed lengths → flat taxonomy.
        let tax = ds
            .schema()
            .attribute(0)
            .hierarchy()
            .unwrap()
            .as_taxonomy()
            .unwrap();
        assert_eq!(tax.height(), 1);
    }

    #[test]
    fn empty_column_rejected() {
        assert!(infer_attribute("x", Role::Sensitive, &[]).is_err());
    }
}
