use std::error::Error;
use std::fmt;

/// Errors produced while defining a [`Space`](crate::Space) or constructing
/// points and queries against it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpaceError {
    /// The space has no dimensions.
    NoDimensions,
    /// `max_level` must be at least 1 (a single nesting level).
    ZeroLevel,
    /// `max_level` too large: `2^max_level` bucket indices must fit in a `u32`.
    LevelTooDeep {
        /// The offending nesting depth.
        max_level: u8,
    },
    /// Two dimensions share the same name.
    DuplicateDimension {
        /// The duplicated dimension name.
        name: String,
    },
    /// Bucket boundaries must be strictly increasing.
    UnsortedBoundaries {
        /// The dimension whose boundaries were not strictly increasing.
        dimension: String,
    },
    /// A dimension was declared with the wrong number of boundaries for the
    /// space's nesting depth (it needs `2^max_level - 1`).
    BoundaryCount {
        /// The dimension with the wrong boundary count.
        dimension: String,
        /// Number of boundaries supplied.
        got: usize,
        /// Number of boundaries required.
        expected: usize,
    },
    /// A point or value vector has the wrong number of coordinates.
    WrongArity {
        /// Number of values supplied.
        got: usize,
        /// The space's dimensionality `d`.
        expected: usize,
    },
    /// A query referenced an attribute name the space does not define.
    UnknownAttribute {
        /// The unknown attribute name.
        name: String,
    },
    /// A query range has `lo > hi` and can never match.
    EmptyRange {
        /// The dimension of the empty range.
        dimension: String,
    },
}

impl fmt::Display for SpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceError::NoDimensions => write!(f, "space must have at least one dimension"),
            SpaceError::ZeroLevel => write!(f, "nesting depth max(l) must be at least 1"),
            SpaceError::LevelTooDeep { max_level } => {
                write!(
                    f,
                    "nesting depth {max_level} too deep for u32 bucket indices"
                )
            }
            SpaceError::DuplicateDimension { name } => {
                write!(f, "duplicate dimension name `{name}`")
            }
            SpaceError::UnsortedBoundaries { dimension } => {
                write!(
                    f,
                    "bucket boundaries of `{dimension}` are not strictly increasing"
                )
            }
            SpaceError::BoundaryCount {
                dimension,
                got,
                expected,
            } => write!(
                f,
                "dimension `{dimension}` has {got} boundaries, nesting depth requires {expected}"
            ),
            SpaceError::WrongArity { got, expected } => {
                write!(f, "expected {expected} attribute values, got {got}")
            }
            SpaceError::UnknownAttribute { name } => write!(f, "unknown attribute `{name}`"),
            SpaceError::EmptyRange { dimension } => {
                write!(f, "query range on `{dimension}` is empty (lo > hi)")
            }
        }
    }
}

impl Error for SpaceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let variants = [
            SpaceError::NoDimensions,
            SpaceError::ZeroLevel,
            SpaceError::LevelTooDeep { max_level: 40 },
            SpaceError::DuplicateDimension { name: "mem".into() },
            SpaceError::UnsortedBoundaries {
                dimension: "mem".into(),
            },
            SpaceError::BoundaryCount {
                dimension: "mem".into(),
                got: 3,
                expected: 7,
            },
            SpaceError::WrongArity {
                got: 1,
                expected: 5,
            },
            SpaceError::UnknownAttribute { name: "gpu".into() },
            SpaceError::EmptyRange {
                dimension: "mem".into(),
            },
        ];
        for v in variants {
            let s = v.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase(), "{s}");
            assert!(!s.ends_with('.'), "{s}");
        }
    }
}
