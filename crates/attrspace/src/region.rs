use std::fmt;

use crate::{BucketIndex, CellCoord};

/// An axis-aligned box in bucket-index space: one inclusive interval
/// `[lo, hi]` per dimension.
///
/// Regions are the common currency of routing: a query's bucket footprint,
/// a cell `Cl(X)`, and every neighboring subcell `N(l,k)(X)` are all regions,
/// and the routing decision of the paper's `overlaps` predicate (Fig. 4b) is
/// region intersection.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Region {
    intervals: Vec<(BucketIndex, BucketIndex)>,
}

impl Region {
    /// Creates a region from per-dimension inclusive intervals.
    ///
    /// # Panics
    ///
    /// Panics if any interval has `lo > hi` — empty regions are never
    /// meaningful here and indicate a logic error upstream.
    pub fn new(intervals: Vec<(BucketIndex, BucketIndex)>) -> Self {
        assert!(
            intervals.iter().all(|&(lo, hi)| lo <= hi),
            "region interval with lo > hi"
        );
        Region { intervals }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.intervals.len()
    }

    /// The per-dimension inclusive intervals.
    pub fn intervals(&self) -> &[(BucketIndex, BucketIndex)] {
        &self.intervals
    }

    /// Whether the bucket coordinate lies inside this region.
    ///
    /// # Panics
    ///
    /// Panics if dimensionalities disagree.
    pub fn contains(&self, coord: &CellCoord) -> bool {
        assert_eq!(
            coord.indices().len(),
            self.dims(),
            "dimensionality mismatch"
        );
        self.intervals
            .iter()
            .zip(coord.indices())
            .all(|(&(lo, hi), &c)| lo <= c && c <= hi)
    }

    /// Whether two regions intersect (share at least one bucket coordinate).
    ///
    /// # Panics
    ///
    /// Panics if dimensionalities disagree.
    pub fn intersects(&self, other: &Region) -> bool {
        assert_eq!(self.dims(), other.dims(), "dimensionality mismatch");
        self.intervals
            .iter()
            .zip(&other.intervals)
            .all(|(&(alo, ahi), &(blo, bhi))| alo <= bhi && blo <= ahi)
    }

    /// Number of bucket coordinates covered (volume). Saturates at `u64::MAX`.
    pub fn volume(&self) -> u64 {
        self.intervals
            .iter()
            .map(|&(lo, hi)| u64::from(hi - lo) + 1)
            .try_fold(1u64, |acc, w| acc.checked_mul(w))
            .unwrap_or(u64::MAX)
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (lo, hi)) in self.intervals.iter().enumerate() {
            if i > 0 {
                write!(f, "×")?;
            }
            write!(f, "[{lo},{hi}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coord(indices: &[BucketIndex]) -> CellCoord {
        CellCoord::new(indices.to_vec(), 3)
    }

    #[test]
    fn contains_checks_every_dimension() {
        let r = Region::new(vec![(1, 3), (0, 7)]);
        assert!(r.contains(&coord(&[2, 0])));
        assert!(r.contains(&coord(&[1, 7])));
        assert!(!r.contains(&coord(&[0, 0])));
        assert!(!r.contains(&coord(&[4, 3])));
    }

    #[test]
    fn intersection_is_symmetric_and_tight() {
        let a = Region::new(vec![(0, 3), (0, 3)]);
        let b = Region::new(vec![(3, 5), (2, 2)]);
        let c = Region::new(vec![(4, 5), (0, 7)]);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(b.intersects(&c)); // [3,5]∩[4,5] and [2,2]∩[0,7] both nonempty
    }

    #[test]
    fn volume_counts_buckets() {
        assert_eq!(Region::new(vec![(0, 7), (0, 7)]).volume(), 64);
        assert_eq!(Region::new(vec![(2, 2)]).volume(), 1);
    }

    #[test]
    #[should_panic(expected = "lo > hi")]
    fn empty_interval_panics() {
        let _ = Region::new(vec![(3, 1)]);
    }

    #[test]
    fn display_shows_box() {
        assert_eq!(Region::new(vec![(0, 3), (2, 2)]).to_string(), "[0,3]×[2,2]");
    }
}
