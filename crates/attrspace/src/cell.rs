use std::fmt;
use std::sync::Arc;

use crate::{BucketIndex, Region};

/// A cell level. Level 0 cells are the unit buckets (`C0`); level `max(l)`
/// is the whole space.
pub type Level = u8;

/// The bucket coordinate of a node: one bucket index per dimension, plus the
/// space's nesting depth. All nested-cell relations of the paper reduce to
/// bit arithmetic on these indices:
///
/// * `Cl(X)` is the set of coordinates sharing `X`'s indices shifted right by
///   `l` in every dimension;
/// * the neighboring subcell `N(l,k)(X)` constrains dimensions `< k` to `X`'s
///   half of `Cl`, flips dimension `k` to the *other* half, and leaves
///   dimensions `> k` free (§4.1 and Fig. 1b).
///
/// The indices live behind an [`Arc`]: coordinates are cloned into every
/// routing-table entry and node profile, and the shared storage makes those
/// clones reference bumps instead of allocations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellCoord {
    indices: Arc<[BucketIndex]>,
    max_level: Level,
}

/// Identifies one cell: the level plus the per-dimension index prefix
/// (`indices >> level`). Two nodes are in the same `Cl` iff their level-`l`
/// cell ids are equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellId {
    level: Level,
    prefix: Vec<BucketIndex>,
}

impl CellId {
    /// The level of this cell.
    pub fn level(&self) -> Level {
        self.level
    }

    /// The per-dimension index prefix.
    pub fn prefix(&self) -> &[BucketIndex] {
        &self.prefix
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}@", self.level)?;
        for (i, p) in self.prefix.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

impl CellCoord {
    /// Creates a coordinate from bucket indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range for the nesting depth
    /// (`index >= 2^max_level`) or if `indices` is empty.
    pub fn new(indices: Vec<BucketIndex>, max_level: Level) -> Self {
        assert!(!indices.is_empty(), "coordinate must have at least one dimension");
        assert!((1..=31).contains(&max_level), "nesting depth out of range");
        let buckets: BucketIndex = 1 << max_level;
        assert!(
            indices.iter().all(|&i| i < buckets),
            "bucket index out of range for max_level {max_level}"
        );
        CellCoord { indices: indices.into(), max_level }
    }

    /// The per-dimension bucket indices.
    pub fn indices(&self) -> &[BucketIndex] {
        &self.indices
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.indices.len()
    }

    /// The nesting depth of the space this coordinate belongs to.
    pub fn max_level(&self) -> Level {
        self.max_level
    }

    /// The id of the level-`l` cell containing this coordinate.
    ///
    /// # Panics
    ///
    /// Panics if `level > max_level`.
    pub fn cell_id(&self, level: Level) -> CellId {
        assert!(level <= self.max_level, "level beyond nesting depth");
        CellId { level, prefix: self.indices.iter().map(|&i| i >> level).collect() }
    }

    /// The region (box of unit buckets) covered by `Cl(X)`.
    ///
    /// # Panics
    ///
    /// Panics if `level > max_level`.
    pub fn cell_region(&self, level: Level) -> Region {
        assert!(level <= self.max_level, "level beyond nesting depth");
        let side: BucketIndex = 1 << level;
        Region::new(
            self.indices
                .iter()
                .map(|&i| {
                    let base = (i >> level) << level;
                    (base, base + side - 1)
                })
                .collect(),
        )
    }

    /// Whether `self` and `other` fall in the same level-`level` cell.
    ///
    /// # Panics
    ///
    /// Panics if dimensionalities disagree or `level > max_level`.
    pub fn same_cell(&self, other: &CellCoord, level: Level) -> bool {
        assert_eq!(self.dims(), other.dims(), "dimensionality mismatch");
        assert!(level <= self.max_level, "level beyond nesting depth");
        self.indices
            .iter()
            .zip(other.indices.iter())
            .all(|(&a, &b)| a >> level == b >> level)
    }

    /// The smallest level `l` such that `self` and `other` share the same
    /// `Cl` cell. 0 means same unit bucket (`C0`).
    ///
    /// # Panics
    ///
    /// Panics if dimensionalities disagree.
    pub fn lowest_common_level(&self, other: &CellCoord) -> Level {
        assert_eq!(self.dims(), other.dims(), "dimensionality mismatch");
        self.indices
            .iter()
            .zip(other.indices.iter())
            .map(|(&a, &b)| (32 - (a ^ b).leading_zeros()) as Level)
            .max()
            .expect("at least one dimension")
    }

    /// The neighboring subcell `N(l,k)(X)` of the paper (Fig. 1b): inside
    /// `Cl(X)`, dimensions `0..k` are restricted to the half containing
    /// `C(l-1)(X)`, dimension `k` to the *opposite* half, and dimensions
    /// `k+1..d` are unrestricted.
    ///
    /// The union of `N(l,k)` over all `k` is exactly `Cl(X) \ C(l-1)(X)`, and
    /// the subcells are pairwise disjoint — this is what makes query routing
    /// loop-free (property-tested in `tests/cell_properties.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `level == 0` (the paper defines `N(l,k)` only for `l ≥ 1`),
    /// `level > max_level`, or `dim >= self.dims()`.
    pub fn neighboring_cell(&self, level: Level, dim: usize) -> Region {
        assert!(level >= 1, "N(l,k) is defined for l >= 1");
        assert!(level <= self.max_level, "level beyond nesting depth");
        assert!(dim < self.dims(), "dimension out of range");
        let half: BucketIndex = 1 << (level - 1);
        let intervals = self
            .indices
            .iter()
            .enumerate()
            .map(|(j, &idx)| {
                let base = (idx >> level) << level;
                // Which half of Cl along dimension j contains C(l-1)(X)?
                let my_half = (idx >> (level - 1)) & 1;
                match j.cmp(&dim) {
                    std::cmp::Ordering::Less => {
                        let lo = base + my_half * half;
                        (lo, lo + half - 1)
                    }
                    std::cmp::Ordering::Equal => {
                        let lo = base + (1 - my_half) * half;
                        (lo, lo + half - 1)
                    }
                    std::cmp::Ordering::Greater => (base, base + 2 * half - 1),
                }
            })
            .collect();
        Region::new(intervals)
    }

    /// Whether `N(level, dim)` intersects `region`: the answer of
    /// `self.neighboring_cell(level, dim).intersects(region)`, computed
    /// one dimension at a time without building the subcell. This is the
    /// `overlaps` test of the query `forward` loop (Fig. 5), asked for
    /// every (level, dimension) pair a node scans on every hop.
    /// `neighboring_cell` stays the definition it is property-tested
    /// against (`tests/cache_agreement.rs`).
    ///
    /// # Panics
    ///
    /// Panics where [`neighboring_cell`](Self::neighboring_cell) does, or
    /// if `region` has another dimensionality.
    #[inline]
    pub fn neighbor_overlaps(&self, level: Level, dim: usize, region: &Region) -> bool {
        assert!(level >= 1, "N(l,k) is defined for l >= 1");
        assert!(level <= self.max_level, "level beyond nesting depth");
        assert!(dim < self.dims(), "dimension out of range");
        assert_eq!(region.dims(), self.dims(), "dimensionality mismatch");
        let half: BucketIndex = 1 << (level - 1);
        self.indices
            .iter()
            .zip(region.intervals())
            .enumerate()
            .all(|(j, (&idx, &(rlo, rhi)))| {
                let base = (idx >> level) << level;
                let my_half = (idx >> (level - 1)) & 1;
                let (lo, width) = match j.cmp(&dim) {
                    std::cmp::Ordering::Less => (base + my_half * half, half),
                    std::cmp::Ordering::Equal => (base + (1 - my_half) * half, half),
                    std::cmp::Ordering::Greater => (base, 2 * half),
                };
                lo <= rhi && rlo < lo + width
            })
    }

    /// Classifies another coordinate relative to `self`: either it shares the
    /// unit cell (`C0`) or it lies in exactly one neighboring subcell
    /// `N(l,k)`. This is how the gossip layer decides which routing-table
    /// slot a discovered peer belongs to.
    ///
    /// # Panics
    ///
    /// Panics if dimensionalities disagree.
    pub fn classify(&self, other: &CellCoord) -> Neighborhood {
        let level = self.lowest_common_level(other);
        if level == 0 {
            return Neighborhood::Zero;
        }
        // `other` shares Cl but not C(l-1): by the N(l,k) definition its
        // slot dimension is the *first* dimension whose level-(l-1) half
        // differs from ours (dims before it match our half, dims after are
        // unconstrained). Pure bit arithmetic — no region materialization.
        let shift = level - 1;
        for dim in 0..self.dims() {
            if (self.indices[dim] >> shift) != (other.indices[dim] >> shift) {
                return Neighborhood::Cell { level, dim };
            }
        }
        unreachable!("coordinate in Cl \\ C(l-1) must fall in exactly one N(l,k)")
    }

    /// The first 64 bits of this coordinate's bit-interleaved bucket code:
    /// bit `l - 1` of every index for each level `l` from `max_level` down
    /// to 1, dimensions ascending inside a level, packed from the most
    /// significant bit. A space of `d · max_level ≤ 64` bits fits whole
    /// (the unused low bits are zero); a wider one keeps its top levels.
    ///
    /// The highest bit in which two codes differ is the highest level at
    /// which the coordinates part and, within it, the first dimension that
    /// parts — exactly the `N(l,k)` of [`classify`](Self::classify), which
    /// [`classify_coded`](Self::classify_coded) reads off with one XOR.
    pub fn code(&self) -> u64 {
        let (mut code, mut bits) = (0u64, 0u32);
        'levels: for shift in (0..self.max_level).rev() {
            for &index in self.indices.iter() {
                if bits == 64 {
                    break 'levels;
                }
                code = code << 1 | u64::from(index >> shift & 1);
                bits += 1;
            }
        }
        code << (64 - bits)
    }

    /// [`classify`](Self::classify) from the two coordinates'
    /// [`code`](Self::code)s: `code` must be `self.code()` and `other_code`
    /// `other.code()`. `other` itself is read only when the space is wider
    /// than 64 code bits and the codes agree — the pair may then still part
    /// below the prefix, and the exact coordinate comparison decides.
    ///
    /// # Panics
    ///
    /// Panics (on that fallback) if dimensionalities disagree.
    #[inline]
    pub fn classify_coded(&self, code: u64, other: &CellCoord, other_code: u64) -> Neighborhood {
        debug_assert_eq!(code, self.code(), "code of another coordinate");
        debug_assert_eq!(other_code, other.code(), "code of another coordinate");
        let dims = self.dims();
        let diff = code ^ other_code;
        if diff == 0 {
            return if dims * self.max_level as usize <= 64 {
                Neighborhood::Zero
            } else {
                self.classify(other)
            };
        }
        let bit = diff.leading_zeros() as usize;
        Neighborhood::Cell { level: self.max_level - (bit / dims) as Level, dim: bit % dims }
    }

    /// Region-materializing rendition of [`classify`](Self::classify) — the
    /// definition straight from the paper, kept as the oracle the fast
    /// bit-arithmetic path is property-tested against.
    pub fn classify_reference(&self, other: &CellCoord) -> Neighborhood {
        let level = self.lowest_common_level(other);
        if level == 0 {
            return Neighborhood::Zero;
        }
        for dim in 0..self.dims() {
            if self.neighboring_cell(level, dim).contains(other) {
                return Neighborhood::Cell { level, dim };
            }
        }
        unreachable!("coordinate in Cl \\ C(l-1) must fall in exactly one N(l,k)")
    }
}

impl fmt::Display for CellCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, v) in self.indices.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "⟩")
    }
}

/// Result of [`CellCoord::classify`]: where another node sits relative to a
/// given node's nested-cell hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Neighborhood {
    /// Same lowest-level cell — belongs in the `neighborsZero` set.
    Zero,
    /// In the neighboring subcell `N(level, dim)` — a candidate for the
    /// routing-table slot `(level, dim)`.
    Cell {
        /// The level `l ≥ 1` of the neighboring subcell.
        level: Level,
        /// The dimension `k` of the neighboring subcell.
        dim: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(indices: &[BucketIndex]) -> CellCoord {
        CellCoord::new(indices.to_vec(), 3)
    }

    #[test]
    fn cell_ids_nest() {
        let x = c(&[5, 2]);
        assert_eq!(x.cell_id(0).prefix(), &[5, 2]);
        assert_eq!(x.cell_id(1).prefix(), &[2, 1]);
        assert_eq!(x.cell_id(2).prefix(), &[1, 0]);
        assert_eq!(x.cell_id(3).prefix(), &[0, 0]);
    }

    #[test]
    fn cell_region_boxes() {
        let x = c(&[5, 2]);
        assert_eq!(x.cell_region(0), Region::new(vec![(5, 5), (2, 2)]));
        assert_eq!(x.cell_region(1), Region::new(vec![(4, 5), (2, 3)]));
        assert_eq!(x.cell_region(2), Region::new(vec![(4, 7), (0, 3)]));
        assert_eq!(x.cell_region(3), Region::new(vec![(0, 7), (0, 7)]));
    }

    #[test]
    fn same_cell_and_common_level_agree() {
        let x = c(&[5, 2]);
        let y = c(&[4, 3]);
        assert!(!x.same_cell(&y, 0));
        assert!(x.same_cell(&y, 1));
        assert_eq!(x.lowest_common_level(&y), 1);
        assert_eq!(x.lowest_common_level(&x), 0);
        let far = c(&[0, 7]);
        assert_eq!(x.lowest_common_level(&far), 3);
    }

    #[test]
    fn neighboring_cells_figure_1b() {
        // Reproduce Figure 1(b) of the paper: node A in the top-left area of
        // an 8×8 grid (d = 2, max(l) = 3). Take A at bucket (1, 1):
        // column 1, row 1 (dimension 0 horizontal, dimension 1 vertical).
        let a = c(&[1, 1]);
        // Level 1: inside C1 = [0,1]×[0,1].
        assert_eq!(a.neighboring_cell(1, 0), Region::new(vec![(0, 0), (0, 1)]));
        assert_eq!(a.neighboring_cell(1, 1), Region::new(vec![(1, 1), (0, 0)]));
        // Level 2: inside C2 = [0,3]×[0,3]; A's C1 is the upper-left quadrant
        // (indices [0,1]×[0,1]).
        assert_eq!(a.neighboring_cell(2, 0), Region::new(vec![(2, 3), (0, 3)]));
        assert_eq!(a.neighboring_cell(2, 1), Region::new(vec![(0, 1), (2, 3)]));
        // Level 3: whole space.
        assert_eq!(a.neighboring_cell(3, 0), Region::new(vec![(4, 7), (0, 7)]));
        assert_eq!(a.neighboring_cell(3, 1), Region::new(vec![(0, 3), (4, 7)]));
    }

    #[test]
    fn neighboring_cells_partition_shell() {
        // For a 3-d coordinate, N(l,0) ∪ N(l,1) ∪ N(l,2) = Cl \ C(l-1),
        // pairwise disjoint. Exhaustive check at l = 2.
        let x = CellCoord::new(vec![3, 5, 1], 3);
        let l = 2;
        let shell_outer = x.cell_region(l);
        let shell_inner = x.cell_region(l - 1);
        let subcells: Vec<Region> = (0..3).map(|k| x.neighboring_cell(l, k)).collect();
        let mut covered = 0u64;
        for i0 in 0..8 {
            for i1 in 0..8 {
                for i2 in 0..8 {
                    let y = CellCoord::new(vec![i0, i1, i2], 3);
                    let inside: Vec<bool> = subcells.iter().map(|s| s.contains(&y)).collect();
                    let count = inside.iter().filter(|&&b| b).count();
                    let in_shell = shell_outer.contains(&y) && !shell_inner.contains(&y);
                    assert_eq!(count == 1, in_shell, "coord {y} count {count}");
                    assert!(count <= 1, "N(l,k) not disjoint at {y}");
                    if count == 1 {
                        covered += 1;
                    }
                }
            }
        }
        assert_eq!(covered, shell_outer.volume() - shell_inner.volume());
    }

    #[test]
    fn classify_zero_and_cells() {
        let x = c(&[5, 2]);
        assert_eq!(x.classify(&c(&[5, 2])), Neighborhood::Zero);
        // Same C1, different C0, differing along dimension 0.
        assert_eq!(x.classify(&c(&[4, 2])), Neighborhood::Cell { level: 1, dim: 0 });
        // Same C1, differing along dimension 1 only.
        assert_eq!(x.classify(&c(&[5, 3])), Neighborhood::Cell { level: 1, dim: 1 });
        // Opposite half of the space along dimension 0.
        assert_eq!(x.classify(&c(&[1, 1])), Neighborhood::Cell { level: 3, dim: 0 });
    }

    #[test]
    fn code_interleaves_levels_top_down() {
        // 5 = 0b101, 2 = 0b010: level 3 gives (1,0), level 2 (0,1), level 1 (1,0).
        assert_eq!(c(&[5, 2]).code(), 0b10_01_10 << 58);
        let x = c(&[5, 2]);
        for other in [[5, 2], [4, 2], [5, 3], [1, 1], [7, 7]] {
            let y = c(&other);
            assert_eq!(x.classify_coded(x.code(), &y, y.code()), x.classify(&y), "{y}");
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(c(&[5, 2]).to_string(), "⟨5,2⟩");
        assert_eq!(c(&[5, 2]).cell_id(1).to_string(), "C1@2.1");
    }

    #[test]
    #[should_panic(expected = "l >= 1")]
    fn neighboring_cell_level_zero_panics() {
        let _ = c(&[0, 0]).neighboring_cell(0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let _ = CellCoord::new(vec![8], 3);
    }
}
