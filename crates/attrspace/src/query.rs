use std::fmt;

use crate::{Point, RawValue, Region, Space, SpaceError};

/// An inclusive range of raw attribute values. Open ends are represented by
/// `0` and [`RawValue::MAX`], matching the paper's "lower bound, upper bound,
/// only one, or even none" query fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Range {
    /// Inclusive lower bound.
    pub lo: RawValue,
    /// Inclusive upper bound.
    pub hi: RawValue,
}

impl Range {
    /// The full range — matches every value (an unspecified attribute).
    pub const FULL: Range = Range {
        lo: 0,
        hi: RawValue::MAX,
    };

    /// Whether this range covers all possible values.
    pub fn is_full(&self) -> bool {
        *self == Range::FULL
    }

    /// Whether `value` lies in the range.
    pub fn contains(&self, value: RawValue) -> bool {
        self.lo <= value && value <= self.hi
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.lo, self.hi) {
            (0, RawValue::MAX) => write!(f, "[*]"),
            (lo, RawValue::MAX) => write!(f, "[{lo},∞)"),
            (lo, hi) => write!(f, "[{lo},{hi}]"),
        }
    }
}

/// A resource-selection query: a conjunction of per-attribute value ranges,
/// demarcating the subspace `Q(q)` of §3.
///
/// A `Query` is a pure predicate — the number of nodes requested (`σ`) and
/// routing scope live in the protocol message (`autosel-core`), not here.
///
/// The query pre-computes its *bucket footprint* ([`Query::region`]): the
/// box of unit buckets its value ranges can possibly touch. Routing uses the
/// footprint (`overlaps` in the paper's Fig. 4b); final matching always
/// re-checks the raw values ([`Query::matches`]), so nodes that share a
/// boundary bucket without matching are visited but never reported.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    ranges: Vec<Range>,
    region: Region,
}

impl Query {
    /// Starts building a query against `space` (C-BUILDER).
    pub fn builder(space: &Space) -> QueryBuilder<'_> {
        QueryBuilder {
            space,
            ranges: vec![Range::FULL; space.dims()],
            error: None,
        }
    }

    /// Builds a query directly from per-dimension ranges (positional form,
    /// used by generators and the wire codec).
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::WrongArity`] on a length mismatch and
    /// [`SpaceError::EmptyRange`] when any range has `lo > hi`.
    pub fn from_ranges(space: &Space, ranges: Vec<Range>) -> Result<Self, SpaceError> {
        if ranges.len() != space.dims() {
            return Err(SpaceError::WrongArity {
                got: ranges.len(),
                expected: space.dims(),
            });
        }
        for (r, dim) in ranges.iter().zip(space.dimensions()) {
            if r.lo > r.hi {
                return Err(SpaceError::EmptyRange {
                    dimension: dim.name().to_string(),
                });
            }
        }
        let region = Region::new(
            ranges
                .iter()
                .zip(space.dimensions())
                .map(|(r, dim)| (dim.bucket(r.lo), dim.bucket(r.hi)))
                .collect(),
        );
        Ok(Query { ranges, region })
    }

    /// Builds the query that exactly covers a box of unit buckets: each
    /// dimension's range is widened to the covered buckets' raw bounds.
    /// Used by workload generators to produce cell-aligned queries (the
    /// paper's footnote 2).
    ///
    /// # Panics
    ///
    /// Panics if `region`'s dimensionality differs from the space's or an
    /// interval exceeds the bucket count.
    pub fn from_bucket_region(space: &Space, region: &Region) -> Self {
        assert_eq!(region.dims(), space.dims(), "dimensionality mismatch");
        let ranges: Vec<Range> = region
            .intervals()
            .iter()
            .zip(space.dimensions())
            .map(|(&(lo, hi), dim)| {
                let (raw_lo, _) = dim.bucket_bounds(lo);
                let (_, raw_hi) = dim.bucket_bounds(hi);
                Range {
                    lo: raw_lo,
                    hi: raw_hi,
                }
            })
            .collect();
        Query {
            ranges,
            region: region.clone(),
        }
    }

    /// The per-dimension value ranges.
    pub fn ranges(&self) -> &[Range] {
        &self.ranges
    }

    /// The bucket footprint of the query (the paper's `Q(q)` quantized to
    /// unit cells).
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// Whether a node at `point` satisfies every range — the paper's
    /// `matches(n, q)` predicate.
    ///
    /// # Panics
    ///
    /// Panics if the point's arity differs from the query's.
    pub fn matches(&self, point: &Point) -> bool {
        self.matches_values(point.values())
    }

    /// [`matches`](Self::matches) on raw values in dimension order, for
    /// callers that store points column-wise (e.g. the simulator's
    /// ground-truth index).
    ///
    /// # Panics
    ///
    /// Panics if `values` has the wrong arity.
    pub fn matches_values(&self, values: &[RawValue]) -> bool {
        assert_eq!(values.len(), self.ranges.len(), "dimensionality mismatch");
        self.ranges.iter().zip(values).all(|(r, &v)| r.contains(v))
    }

    /// Whether the query leaves every attribute unspecified (matches all).
    pub fn is_universal(&self) -> bool {
        self.ranges.iter().all(Range::is_full)
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{{")?;
        for (i, r) in self.ranges.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "a{i}∈{r}")?;
        }
        write!(f, "}}")
    }
}

/// Builder for [`Query`], addressing attributes by name.
#[derive(Debug)]
pub struct QueryBuilder<'a> {
    space: &'a Space,
    ranges: Vec<Range>,
    error: Option<SpaceError>,
}

impl<'a> QueryBuilder<'a> {
    fn dim(&mut self, name: &str) -> Option<usize> {
        match self.space.dimension_index(name) {
            Some(i) => Some(i),
            None => {
                self.error.get_or_insert(SpaceError::UnknownAttribute {
                    name: name.to_string(),
                });
                None
            }
        }
    }

    /// Requires `name ∈ [lo, hi]` (inclusive).
    #[must_use]
    pub fn range(mut self, name: &str, lo: RawValue, hi: RawValue) -> Self {
        if let Some(i) = self.dim(name) {
            self.ranges[i] = Range { lo, hi };
        }
        self
    }

    /// Requires `name ≥ lo` (the paper's `MEM ∈ [4GB, ∞)` form).
    #[must_use]
    pub fn min(self, name: &str, lo: RawValue) -> Self {
        self.range(name, lo, RawValue::MAX)
    }

    /// Requires `name ≤ hi`.
    #[must_use]
    pub fn max(self, name: &str, hi: RawValue) -> Self {
        self.range(name, 0, hi)
    }

    /// Requires `name == value` (the paper's `CPU = IA32` form).
    #[must_use]
    pub fn exact(self, name: &str, value: RawValue) -> Self {
        self.range(name, value, value)
    }

    /// Validates and builds the [`Query`].
    ///
    /// # Errors
    ///
    /// Returns the first error recorded while building (unknown attribute)
    /// or range validation errors from [`Query::from_ranges`].
    pub fn build(self) -> Result<Query, SpaceError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        Query::from_ranges(self.space, self.ranges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Space {
        Space::builder()
            .max_level(3)
            .uniform_dimension("cpu", 0, 80)
            .uniform_dimension("mem", 0, 80)
            .uniform_dimension("bw", 0, 80)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_named_ranges() {
        let s = space();
        let q = Query::builder(&s)
            .min("mem", 40)
            .range("bw", 10, 19)
            .build()
            .unwrap();
        assert_eq!(q.ranges()[0], Range::FULL);
        assert_eq!(
            q.ranges()[1],
            Range {
                lo: 40,
                hi: RawValue::MAX
            }
        );
        assert_eq!(q.ranges()[2], Range { lo: 10, hi: 19 });
        // Footprint: cpu free [0,7]; mem buckets 4..7; bw bucket 1.
        assert_eq!(q.region(), &Region::new(vec![(0, 7), (4, 7), (1, 1)]));
    }

    #[test]
    fn matches_is_conjunction() {
        let s = space();
        let q = Query::builder(&s)
            .min("mem", 40)
            .min("bw", 30)
            .build()
            .unwrap();
        assert!(q.matches(&s.point(&[0, 70, 33]).unwrap()));
        assert!(!q.matches(&s.point(&[0, 39, 33]).unwrap()));
        assert!(!q.matches(&s.point(&[0, 70, 29]).unwrap()));
    }

    #[test]
    fn unknown_attribute_is_reported() {
        let s = space();
        let err = Query::builder(&s).min("gpu", 1).build().unwrap_err();
        assert_eq!(err, SpaceError::UnknownAttribute { name: "gpu".into() });
    }

    #[test]
    fn empty_range_rejected() {
        let s = space();
        let err = Query::builder(&s).range("mem", 50, 40).build().unwrap_err();
        assert_eq!(
            err,
            SpaceError::EmptyRange {
                dimension: "mem".into()
            }
        );
    }

    #[test]
    fn exact_and_universal() {
        let s = space();
        let q = Query::builder(&s).exact("cpu", 42).build().unwrap();
        assert!(q.matches(&s.point(&[42, 0, 0]).unwrap()));
        assert!(!q.matches(&s.point(&[43, 0, 0]).unwrap()));
        assert!(!q.is_universal());
        assert!(Query::builder(&s).build().unwrap().is_universal());
    }

    #[test]
    fn from_bucket_region_is_cell_aligned() {
        let s = space();
        let region = Region::new(vec![(2, 3), (0, 7), (7, 7)]);
        let q = Query::from_bucket_region(&s, &region);
        assert_eq!(q.region(), &region);
        assert_eq!(q.ranges()[0], Range { lo: 20, hi: 39 });
        assert_eq!(q.ranges()[1], Range::FULL);
        // Top bucket is open-ended.
        assert_eq!(
            q.ranges()[2],
            Range {
                lo: 70,
                hi: RawValue::MAX
            }
        );
        // Matching agrees with bucket containment for aligned queries.
        let p = s.point(&[25, 0, 1000]).unwrap();
        assert!(q.matches(&p));
        assert!(region.contains(&s.cell_coord(&p)));
    }

    #[test]
    fn display_forms() {
        let s = space();
        let q = Query::builder(&s)
            .min("mem", 40)
            .range("bw", 1, 2)
            .build()
            .unwrap();
        assert_eq!(q.to_string(), "q{a0∈[*] ∧ a1∈[40,∞) ∧ a2∈[1,2]}");
    }
}
