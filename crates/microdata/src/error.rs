//! Error types for the microdata substrate.

use std::fmt;

/// Errors produced while building schemas, hierarchies, datasets, or
/// applying generalizations.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A hierarchy definition is structurally invalid (e.g. unbalanced
    /// taxonomy, empty level list, non-nested interval ladder).
    InvalidHierarchy(String),
    /// A requested generalization level exceeds the hierarchy height.
    LevelOutOfRange {
        /// Attribute name.
        attribute: String,
        /// Requested level.
        level: usize,
        /// Maximum admissible level for this attribute.
        max: usize,
    },
    /// A value does not belong to the attribute's domain.
    ValueOutOfDomain {
        /// Attribute name.
        attribute: String,
        /// Rendering of the offending value.
        value: String,
    },
    /// A tuple has the wrong arity for the schema.
    ArityMismatch {
        /// Expected number of attributes.
        expected: usize,
        /// Number of values supplied.
        actual: usize,
    },
    /// The schema has no attribute with the given name.
    UnknownAttribute(String),
    /// An attribute that requires a hierarchy does not have one.
    MissingHierarchy(String),
    /// The kind of value supplied does not match the attribute kind
    /// (e.g. a categorical value for a numeric attribute).
    KindMismatch {
        /// Attribute name.
        attribute: String,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// Failure while parsing external data (CSV).
    Parse {
        /// 1-based line number of the offending record, if known.
        line: usize,
        /// Description of the failure.
        detail: String,
    },
    /// Dataset-level invariant violation (e.g. empty dataset where tuples
    /// are required).
    InvalidDataset(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidHierarchy(msg) => write!(f, "invalid hierarchy: {msg}"),
            Error::LevelOutOfRange {
                attribute,
                level,
                max,
            } => write!(
                f,
                "generalization level {level} out of range for attribute '{attribute}' (max {max})"
            ),
            Error::ValueOutOfDomain { attribute, value } => {
                write!(
                    f,
                    "value '{value}' outside the domain of attribute '{attribute}'"
                )
            }
            Error::ArityMismatch { expected, actual } => {
                write!(
                    f,
                    "tuple arity mismatch: expected {expected} values, got {actual}"
                )
            }
            Error::UnknownAttribute(name) => write!(f, "unknown attribute '{name}'"),
            Error::MissingHierarchy(name) => {
                write!(f, "attribute '{name}' has no generalization hierarchy")
            }
            Error::KindMismatch { attribute, detail } => {
                write!(f, "kind mismatch on attribute '{attribute}': {detail}")
            }
            Error::Parse { line, detail } => write!(f, "parse error at line {line}: {detail}"),
            Error::InvalidDataset(msg) => write!(f, "invalid dataset: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = Error::LevelOutOfRange {
            attribute: "age".into(),
            level: 9,
            max: 3,
        };
        let msg = e.to_string();
        assert!(msg.contains("age"));
        assert!(msg.contains('9'));
        assert!(msg.contains('3'));

        let e = Error::ArityMismatch {
            expected: 3,
            actual: 2,
        };
        assert!(e.to_string().contains("expected 3"));

        let e = Error::Parse {
            line: 7,
            detail: "bad int".into(),
        };
        assert!(e.to_string().contains("line 7"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::UnknownAttribute("x".into()));
    }
}
