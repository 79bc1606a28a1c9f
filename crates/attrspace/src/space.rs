use std::collections::HashMap;
use std::sync::Arc;

use crate::{BucketIndex, CellCoord, Dimension, Point, RawValue, SpaceError};

/// The shared definition of the attribute space: `d` dimensions and the
/// nesting depth `max(l)`.
///
/// A `Space` is immutable after construction and cheaply cloneable (it wraps
/// an [`Arc`]); every node, query and simulator component holds a clone.
///
/// The paper fixes the number of attributes a priori (§3); so do we. Each
/// dimension is cut into exactly `2^max_level` buckets so that level-`l`
/// cells (`Cl`) group `2^d` adjacent level-`l-1` cells all the way down to
/// the unit buckets at level 0.
#[derive(Debug, Clone)]
pub struct Space {
    inner: Arc<SpaceInner>,
}

#[derive(Debug)]
struct SpaceInner {
    dimensions: Vec<Dimension>,
    by_name: HashMap<String, usize>,
    max_level: u8,
}

impl Space {
    /// Starts building a space. See [`SpaceBuilder`].
    pub fn builder() -> SpaceBuilder {
        SpaceBuilder::default()
    }

    /// A space with `d` anonymous uniform dimensions over `[0, hi)` and the
    /// given nesting depth — the configuration used throughout the paper's
    /// evaluation (values in `[0, 80]`, `d = 5`, `max(l) = 3`).
    ///
    /// Dimensions are named `"a0" … "a{d-1}"`.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`SpaceBuilder::build`].
    pub fn uniform(d: usize, hi: RawValue, max_level: u8) -> Result<Self, SpaceError> {
        let mut b = Space::builder().max_level(max_level);
        for i in 0..d {
            b = b.uniform_dimension(format!("a{i}"), 0, hi);
        }
        b.build()
    }

    /// Number of dimensions `d`.
    pub fn dims(&self) -> usize {
        self.inner.dimensions.len()
    }

    /// The nesting depth `max(l)`.
    pub fn max_level(&self) -> u8 {
        self.inner.max_level
    }

    /// Buckets per dimension, `2^max(l)`.
    pub fn buckets_per_dim(&self) -> u32 {
        1 << self.inner.max_level
    }

    /// The dimensions, in declaration order.
    pub fn dimensions(&self) -> &[Dimension] {
        &self.inner.dimensions
    }

    /// Looks up a dimension index by attribute name.
    pub fn dimension_index(&self, name: &str) -> Option<usize> {
        self.inner.by_name.get(name).copied()
    }

    /// Validates a raw value vector and wraps it as a [`Point`].
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::WrongArity`] if `values.len() != self.dims()`.
    pub fn point(&self, values: &[RawValue]) -> Result<Point, SpaceError> {
        if values.len() != self.dims() {
            return Err(SpaceError::WrongArity {
                got: values.len(),
                expected: self.dims(),
            });
        }
        Ok(Point::new_unchecked(values.to_vec()))
    }

    /// Maps a point to its per-dimension bucket indices.
    ///
    /// Uses each dimension's cached bucket resolver ([`Dimension::bucket`]):
    /// evenly spaced dimensions resolve by division, irregular ones by
    /// binary search. [`cell_coord_reference`](Self::cell_coord_reference)
    /// is the always-binary-search oracle this is tested against.
    ///
    /// # Panics
    ///
    /// Panics if the point's arity disagrees with the space (points are
    /// validated at construction, so this indicates points from a different
    /// space).
    pub fn cell_coord(&self, point: &Point) -> CellCoord {
        assert_eq!(
            point.values().len(),
            self.dims(),
            "point from a different space"
        );
        let indices: Vec<BucketIndex> = point
            .values()
            .iter()
            .zip(&self.inner.dimensions)
            .map(|(&v, dim)| dim.bucket(v))
            .collect();
        CellCoord::new(indices, self.inner.max_level)
    }

    /// [`cell_coord`](Self::cell_coord) without the cached fast path: every
    /// dimension resolves by binary search. Exists so property tests can
    /// assert the accelerated mapping agrees with the definition.
    pub fn cell_coord_reference(&self, point: &Point) -> CellCoord {
        assert_eq!(
            point.values().len(),
            self.dims(),
            "point from a different space"
        );
        let indices: Vec<BucketIndex> = point
            .values()
            .iter()
            .zip(&self.inner.dimensions)
            .map(|(&v, dim)| dim.bucket_reference(v))
            .collect();
        CellCoord::new(indices, self.inner.max_level)
    }

    /// Two spaces are *compatible* when they have the same dimensionality and
    /// nesting depth (bucket boundaries may differ). Used by defensive checks
    /// in higher layers.
    pub fn compatible(&self, other: &Space) -> bool {
        self.dims() == other.dims() && self.max_level() == other.max_level()
    }
}

/// Incremental builder for [`Space`] (C-BUILDER).
#[derive(Debug, Default)]
pub struct SpaceBuilder {
    dimensions: Vec<Dimension>,
    pending_uniform: Vec<(String, RawValue, RawValue)>,
    max_level: u8,
}

impl SpaceBuilder {
    /// Sets the nesting depth `max(l)`. Must be in `[1, 31]`.
    #[must_use]
    pub fn max_level(mut self, max_level: u8) -> Self {
        self.max_level = max_level;
        self
    }

    /// Adds a dimension with explicit bucket boundaries (must be exactly
    /// `2^max_level - 1` of them, checked at [`build`](Self::build) time).
    #[must_use]
    pub fn dimension(mut self, dim: Dimension) -> Self {
        self.dimensions.push(dim);
        self
    }

    /// Adds a dimension whose buckets evenly split `[lo, hi)`; the bucket
    /// count is derived from `max_level` at build time.
    #[must_use]
    pub fn uniform_dimension(
        mut self,
        name: impl Into<String>,
        lo: RawValue,
        hi: RawValue,
    ) -> Self {
        self.pending_uniform.push((name.into(), lo, hi));
        self
    }

    /// Validates and builds the [`Space`].
    ///
    /// # Errors
    ///
    /// * [`SpaceError::NoDimensions`] with zero dimensions;
    /// * [`SpaceError::ZeroLevel`] / [`SpaceError::LevelTooDeep`] for bad depth;
    /// * [`SpaceError::DuplicateDimension`] on name clashes;
    /// * [`SpaceError::BoundaryCount`] when an explicit dimension does not
    ///   define `2^max_level` buckets.
    pub fn build(self) -> Result<Space, SpaceError> {
        if self.max_level == 0 {
            return Err(SpaceError::ZeroLevel);
        }
        if self.max_level > 31 {
            return Err(SpaceError::LevelTooDeep {
                max_level: self.max_level,
            });
        }
        let buckets: u32 = 1 << self.max_level;

        let mut dimensions = self.dimensions;
        for (name, lo, hi) in self.pending_uniform {
            dimensions.push(Dimension::uniform(name, lo, hi, buckets));
        }
        if dimensions.is_empty() {
            return Err(SpaceError::NoDimensions);
        }

        let mut by_name = HashMap::with_capacity(dimensions.len());
        for (i, dim) in dimensions.iter().enumerate() {
            if dim.buckets() != buckets {
                return Err(SpaceError::BoundaryCount {
                    dimension: dim.name().to_string(),
                    got: dim.boundaries().len(),
                    expected: buckets as usize - 1,
                });
            }
            if by_name.insert(dim.name().to_string(), i).is_some() {
                return Err(SpaceError::DuplicateDimension {
                    name: dim.name().to_string(),
                });
            }
        }

        Ok(Space {
            inner: Arc::new(SpaceInner {
                dimensions,
                by_name,
                max_level: self.max_level,
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_space() {
        let s = Space::uniform(5, 80, 3).unwrap();
        assert_eq!(s.dims(), 5);
        assert_eq!(s.max_level(), 3);
        assert_eq!(s.buckets_per_dim(), 8);
        assert_eq!(s.dimension_index("a0"), Some(0));
        assert_eq!(s.dimension_index("a4"), Some(4));
        assert_eq!(s.dimension_index("a5"), None);
    }

    #[test]
    fn point_arity_checked() {
        let s = Space::uniform(3, 80, 2).unwrap();
        assert!(s.point(&[1, 2, 3]).is_ok());
        assert_eq!(
            s.point(&[1, 2]).unwrap_err(),
            SpaceError::WrongArity {
                got: 2,
                expected: 3
            }
        );
    }

    #[test]
    fn cell_coord_uses_each_dimensions_boundaries() {
        let s = Space::builder()
            .max_level(2)
            .dimension(Dimension::with_boundaries("mem", vec![128, 4096, 8192]).unwrap())
            .uniform_dimension("bw", 0, 40)
            .build()
            .unwrap();
        let p = s.point(&[5000, 15]).unwrap();
        let c = s.cell_coord(&p);
        assert_eq!(c.indices(), &[2, 1]);
    }

    #[test]
    fn build_rejects_bad_configs() {
        assert_eq!(
            Space::builder().max_level(3).build().unwrap_err(),
            SpaceError::NoDimensions
        );
        assert_eq!(
            Space::builder()
                .uniform_dimension("x", 0, 80)
                .build()
                .unwrap_err(),
            SpaceError::ZeroLevel
        );
        assert!(matches!(
            Space::builder()
                .max_level(40)
                .uniform_dimension("x", 0, 80)
                .build()
                .unwrap_err(),
            SpaceError::LevelTooDeep { .. }
        ));
        assert!(matches!(
            Space::builder()
                .max_level(2)
                .uniform_dimension("x", 0, 80)
                .uniform_dimension("x", 0, 80)
                .build()
                .unwrap_err(),
            SpaceError::DuplicateDimension { .. }
        ));
        assert!(matches!(
            Space::builder()
                .max_level(3)
                .dimension(Dimension::with_boundaries("x", vec![1, 2]).unwrap())
                .build()
                .unwrap_err(),
            SpaceError::BoundaryCount { .. }
        ));
    }

    #[test]
    fn compatibility_ignores_boundaries() {
        let a = Space::uniform(4, 80, 3).unwrap();
        let b = Space::uniform(4, 800, 3).unwrap();
        let c = Space::uniform(5, 80, 3).unwrap();
        assert!(a.compatible(&b));
        assert!(!a.compatible(&c));
    }
}
