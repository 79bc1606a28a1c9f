use std::fmt;
use std::sync::Arc;

use crate::RawValue;

/// A node's position in the attribute space: one raw value per dimension.
///
/// Construct through [`Space::point`](crate::Space::point), which validates
/// the arity against the space.
///
/// The values are stored behind an [`Arc`], so cloning a point — which every
/// routing-table entry, gossip profile and query match does — is a reference
/// bump, not an allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Point {
    values: Arc<[RawValue]>,
}

impl Point {
    pub(crate) fn new_unchecked(values: Vec<RawValue>) -> Self {
        Point {
            values: values.into(),
        }
    }

    /// The raw attribute values, in dimension order.
    pub fn values(&self) -> &[RawValue] {
        &self.values
    }

    /// Consumes the point and returns the raw values.
    pub fn into_values(self) -> Vec<RawValue> {
        self.values.to_vec()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl AsRef<[RawValue]> for Point {
    fn as_ref(&self) -> &[RawValue] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use crate::Space;

    #[test]
    fn display_is_tuple_like() {
        let s = Space::uniform(3, 80, 2).unwrap();
        let p = s.point(&[1, 2, 3]).unwrap();
        assert_eq!(p.to_string(), "(1, 2, 3)");
    }

    #[test]
    fn into_values_roundtrips() {
        let s = Space::uniform(2, 80, 2).unwrap();
        let p = s.point(&[7, 9]).unwrap();
        assert_eq!(p.clone().into_values(), vec![7, 9]);
        assert_eq!(p.as_ref(), &[7, 9]);
    }
}
