//! Exact ground-truth counting over the space's nested cells.
//!
//! [`SimCluster`](crate::SimCluster) records, for every issued query, how
//! many alive nodes match it. [`TruthIndex`] answers that from the paper's
//! own decomposition (§3): a sparse `2^d`-ary tree whose root is the
//! level-`max(l)` cell, whose children are the occupied subcells one level
//! down, and whose level-0 cells hold their points' raw values. Every cell
//! keeps its population, so a query adds a cell's count outright when its
//! ranges cover the whole cell, skips cells outside its bucket footprint,
//! and re-checks raw values only in the level-0 cells its boundary cuts
//! through — exact for arbitrary (unaligned, open-ended, out-of-domain)
//! ranges.
//!
//! Costs: insert and remove walk one root-to-leaf path, `O(d · max(l))`.
//! A count visits only *occupied* cells that straddle the query boundary,
//! so it is bounded by the number of occupied cells (≤ `N · max(l)`),
//! never by the volume of the query region — `d = 16` has 2^48 unit cells
//! and is as safe as `d = 2`. A bucket-aligned query (every generator in
//! [`workload`](crate::workload)) straddles no level-0 cell and reads
//! counts only.
//!
//! Cells and points live in a few flat arrays linked by index, not in
//! per-cell allocations: the index is touched at random on every join and
//! leave, and only a compact one stays in cache (and in the TLB) while the
//! rest of a large population's state streams past.

use std::collections::hash_map::Entry;

use attrspace::{BucketIndex, CellCoord, Level, Query, RawValue, Space};
use autosel_core::fasthash::FastMap;

/// End of a list.
const NIL: u32 = u32::MAX;
/// Arena id of the level-`max(l)` cell, the whole space.
const ROOT: u32 = 0;

/// One occupied cell. Emptied cells are pruned (the root excepted), so at
/// most `N · max(l) + 1` are in use.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// Points inside.
    count: u32,
    /// Which subcell of its parent this is ([`child_key`]).
    key: u32,
    /// First of its occupied subcells (level ≥ 1) or of its points' slots
    /// (level 0).
    head: u32,
    /// Neighbours in the parent's list of occupied subcells. A freed cell's
    /// `next` chains the free list.
    next: u32,
    prev: u32,
}

/// The subcell of a level-`bit + 1` cell that `indices` falls in: bit `j`
/// is dimension `j`'s half. `SelectionNode` caps `d` at 32.
fn child_key(indices: &[BucketIndex], bit: Level) -> u32 {
    indices
        .iter()
        .enumerate()
        .fold(0, |key, (j, &i)| key | ((i >> bit) & 1) << j)
}

/// See the module docs.
#[derive(Debug)]
pub(crate) struct TruthIndex {
    space: Space,
    /// Cell arena; `cells[ROOT]` always exists.
    cells: Vec<Cell>,
    free_cell: u32,
    /// `(cell, child_key)` → that occupied subcell.
    kids: FastMap<(u32, u32), u32>,
    /// Point slots: slot `s` holds `values[s * d..][..d]`.
    values: Vec<RawValue>,
    /// The slot after `s` in its level-0 cell's list (or in the free list).
    next_slot: Vec<u32>,
    free_slot: u32,
}

impl TruthIndex {
    pub(crate) fn new(space: Space) -> Self {
        TruthIndex {
            space,
            cells: vec![Cell {
                count: 0,
                key: 0,
                head: NIL,
                next: NIL,
                prev: NIL,
            }],
            free_cell: NIL,
            kids: FastMap::default(),
            values: Vec::new(),
            next_slot: Vec::new(),
            free_slot: NIL,
        }
    }

    fn slot(&self, slot: u32) -> &[RawValue] {
        let d = self.space.dims();
        &self.values[slot as usize * d..][..d]
    }

    /// Adds a point with bucket coordinate `coord` and raw `values`.
    pub(crate) fn insert(&mut self, coord: &CellCoord, values: &[RawValue]) {
        let mut cell = ROOT;
        for bit in (0..self.space.max_level()).rev() {
            self.cells[cell as usize].count += 1;
            cell = self.kid_or_new(cell, child_key(coord.indices(), bit));
        }
        let slot = match self.free_slot {
            NIL => {
                self.values.extend_from_slice(values);
                self.next_slot.push(NIL);
                self.next_slot.len() as u32 - 1
            }
            slot => {
                self.free_slot = self.next_slot[slot as usize];
                let d = values.len();
                self.values[slot as usize * d..][..d].copy_from_slice(values);
                slot
            }
        };
        let leaf = &mut self.cells[cell as usize];
        leaf.count += 1;
        self.next_slot[slot as usize] = leaf.head;
        leaf.head = slot;
    }

    /// The occupied subcell `key` of `parent`, created empty if absent.
    fn kid_or_new(&mut self, parent: u32, key: u32) -> u32 {
        let vacant = match self.kids.entry((parent, key)) {
            Entry::Occupied(kid) => return *kid.get(),
            Entry::Vacant(vacant) => vacant,
        };
        let head = self.cells[parent as usize].head;
        let fresh = Cell {
            count: 0,
            key,
            head: NIL,
            next: head,
            prev: NIL,
        };
        let kid = match self.free_cell {
            NIL => {
                self.cells.push(fresh);
                self.cells.len() as u32 - 1
            }
            kid => {
                self.free_cell = self.cells[kid as usize].next;
                self.cells[kid as usize] = fresh;
                kid
            }
        };
        if head != NIL {
            self.cells[head as usize].prev = kid;
        }
        self.cells[parent as usize].head = kid;
        vacant.insert(kid);
        kid
    }

    /// Removes one point previously inserted with this `coord` and `values`
    /// (equal points are interchangeable), pruning every cell it empties.
    ///
    /// # Panics
    ///
    /// Panics if no such point is indexed.
    pub(crate) fn remove(&mut self, coord: &CellCoord, values: &[RawValue]) {
        // path[i] is the level-`levels - i` cell around the point; `Space`
        // caps `max(l)` at 31.
        let levels = self.space.max_level() as usize;
        let mut path = [ROOT; 32];
        for i in 0..levels {
            let key = child_key(coord.indices(), (levels - 1 - i) as Level);
            path[i + 1] = *self
                .kids
                .get(&(path[i], key))
                .expect("removed point's cell is occupied");
        }

        let leaf = path[levels] as usize;
        let (mut before, mut slot) = (NIL, self.cells[leaf].head);
        while self.slot(slot) != values {
            (before, slot) = (slot, self.next_slot[slot as usize]);
            assert!(slot != NIL, "removed point was indexed");
        }
        let after = std::mem::replace(&mut self.next_slot[slot as usize], self.free_slot);
        self.free_slot = slot;
        match before {
            NIL => self.cells[leaf].head = after,
            before => self.next_slot[before as usize] = after,
        }

        for i in (0..=levels).rev() {
            let cell = &mut self.cells[path[i] as usize];
            cell.count -= 1;
            if cell.count > 0 || i == 0 {
                continue;
            }
            let Cell {
                key, next, prev, ..
            } = *cell;
            cell.next = std::mem::replace(&mut self.free_cell, path[i]);
            self.kids.remove(&(path[i - 1], key));
            match prev {
                NIL => self.cells[path[i - 1] as usize].head = next,
                prev => self.cells[prev as usize].next = next,
            }
            if next != NIL {
                self.cells[next as usize].prev = prev;
            }
        }
    }

    /// How many indexed points satisfy `query` — equal to filtering every
    /// point through [`Query::matches_values`].
    pub(crate) fn count(&self, query: &Query) -> u32 {
        // Per dimension, the buckets the range covers *entirely*, as a
        // half-open interval inside the footprint's (inclusive) one: an end
        // bucket drops out when the range stops short of its raw bounds.
        let covered: Vec<(BucketIndex, BucketIndex)> = query
            .ranges()
            .iter()
            .zip(query.region().intervals())
            .zip(self.space.dimensions())
            .map(|((r, &(lo, hi)), dim)| {
                let cut_lo = dim.bucket_bounds(lo).0 < r.lo;
                let cut_hi = r.hi < dim.bucket_bounds(hi).1;
                (
                    lo + BucketIndex::from(cut_lo),
                    hi + BucketIndex::from(!cut_hi),
                )
            })
            .collect();
        let mut base = vec![0; self.space.dims()];
        Probe {
            index: self,
            query,
            covered: &covered,
        }
        .count(ROOT, self.space.max_level(), &mut base)
    }

    /// Cells in use, root included.
    #[cfg(test)]
    pub(crate) fn cells(&self) -> usize {
        self.kids.len() + 1
    }
}

/// One query's descent through the index.
struct Probe<'a> {
    index: &'a TruthIndex,
    query: &'a Query,
    covered: &'a [(BucketIndex, BucketIndex)],
}

impl Probe<'_> {
    /// Matching points in cell `id`, the level-`level` cell whose lowest
    /// bucket coordinate is `base` (restored before returning).
    fn count(&self, id: u32, level: Level, base: &mut [BucketIndex]) -> u32 {
        let last = (1 << level) - 1;
        let mut inside = true;
        for ((&lo, &(touch_lo, touch_hi)), &(cover_lo, cover_end)) in base
            .iter()
            .zip(self.query.region().intervals())
            .zip(self.covered)
        {
            let hi = lo + last;
            if hi < touch_lo || touch_hi < lo {
                return 0;
            }
            inside &= cover_lo <= lo && hi < cover_end;
        }
        let ix = self.index;
        let cell = &ix.cells[id as usize];
        if inside {
            return cell.count;
        }
        let mut total = 0;
        let mut at = cell.head;
        while at != NIL {
            if level == 0 {
                total += u32::from(self.query.matches_values(ix.slot(at)));
                at = ix.next_slot[at as usize];
            } else {
                let kid = &ix.cells[at as usize];
                let bit = level - 1;
                for (j, b) in base.iter_mut().enumerate() {
                    *b |= ((kid.key >> j) & 1) << bit;
                }
                total += self.count(at, bit, base);
                for b in base.iter_mut() {
                    *b &= !(1 << bit);
                }
                at = kid.next;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrspace::{Point, Range};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// 8 buckets of width 10 per dimension; the last one is open-ended.
    fn space(dims: usize) -> Space {
        Space::uniform(dims, 80, 3).unwrap()
    }

    /// One of 48 points per space, so duplicates and shared cells are
    /// common; some values lie past the last boundary (70), some far
    /// outside the domain.
    fn point(space: &Space, word: u64) -> Point {
        let mut rng = StdRng::seed_from_u64(word % 48);
        let values: Vec<RawValue> = (0..space.dims())
            .map(|_| match rng.gen_range(0..10u32) {
                0 => u64::MAX - rng.gen_range(0..3u64),
                _ => rng.gen_range(0..100u64),
            })
            .collect();
        space.point(&values).unwrap()
    }

    /// About two constrained dimensions, each one-sided, two-sided
    /// unaligned, bucket-aligned, or wholly outside the domain.
    fn query(space: &Space, word: u64) -> Query {
        let mut rng = StdRng::seed_from_u64(word);
        let ranges = (0..space.dims())
            .map(|_| {
                if rng.gen_range(0..space.dims()) >= 2 {
                    return Range::FULL;
                }
                let lo = rng.gen_range(0..110u64);
                match rng.gen_range(0..5u32) {
                    0 => Range {
                        lo,
                        hi: RawValue::MAX,
                    },
                    1 => Range { lo: 0, hi: lo },
                    2 => Range {
                        lo,
                        hi: lo + rng.gen_range(0..60u64),
                    },
                    3 => Range {
                        lo: lo / 10 * 10,
                        hi: (lo / 10 + rng.gen_range(1..5u64)) * 10 - 1,
                    },
                    _ => Range {
                        lo: 1000 + lo,
                        hi: RawValue::MAX,
                    },
                }
            })
            .collect();
        Query::from_ranges(space, ranges).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Under any interleaving of inserts and removes the index counts
        /// exactly what a scan of the live points counts, holds no cell
        /// without a point in it, and ends as the bare root.
        #[test]
        fn counts_like_a_scan(
            ops in proptest::collection::vec((0u8..8, proptest::prelude::any::<u64>()), 1..120)
        ) {
            use proptest::prelude::prop_assert_eq;
            for dims in [1, 3, 5, 8, 16] {
                let space = space(dims);
                let mut index = TruthIndex::new(space.clone());
                let mut live: Vec<Point> = Vec::new();
                for &(op, word) in &ops {
                    match op {
                        0..=3 => {
                            let p = point(&space, word);
                            index.insert(&space.cell_coord(&p), p.values());
                            live.push(p);
                        }
                        4 | 5 if !live.is_empty() => {
                            let p = live.swap_remove(word as usize % live.len());
                            index.remove(&space.cell_coord(&p), p.values());
                        }
                        _ => {
                            let q = query(&space, word);
                            let scan = live.iter().filter(|p| q.matches(p)).count();
                            prop_assert_eq!(index.count(&q) as usize, scan, "d={} {}", dims, q);
                        }
                    }
                    let all = Query::builder(&space).build().unwrap();
                    prop_assert_eq!(index.count(&all) as usize, live.len());
                    let cells: std::collections::BTreeSet<_> = live
                        .iter()
                        .flat_map(|p| (0..3).map(|l| space.cell_coord(p).cell_id(l)).collect::<Vec<_>>())
                        .map(|id| (id.level(), id.prefix().to_vec()))
                        .collect();
                    prop_assert_eq!(index.cells(), cells.len() + 1, "occupied cells + root");
                }
                for p in live.drain(..) {
                    index.remove(&space.cell_coord(&p), p.values());
                }
                prop_assert_eq!(index.cells(), 1);
                prop_assert_eq!(index.count(&Query::builder(&space).build().unwrap()), 0);
            }
        }
    }

    #[test]
    fn boundary_cells_are_rechecked_and_covered_cells_are_not() {
        let s = space(2);
        let mut index = TruthIndex::new(s.clone());
        for values in [[35, 5], [39, 5], [40, 5], [79, 5], [80, 5], [5000, 5]] {
            let p = s.point(&values).unwrap();
            index.insert(&s.cell_coord(&p), p.values());
        }
        let count = |lo, hi| index.count(&Query::builder(&s).range("a0", lo, hi).build().unwrap());
        assert_eq!(count(40, RawValue::MAX), 4, "aligned, open top bucket");
        assert_eq!(
            count(36, 79),
            3,
            "cuts bucket 3, stops inside the last bucket"
        );
        assert_eq!(count(36, 80), 4);
        assert_eq!(count(81, 4999), 0, "inside the open top bucket");
        assert_eq!(count(81, 5000), 1);
        assert_eq!(count(0, 34), 0, "touches bucket 3 only");
    }

    #[test]
    #[should_panic(expected = "removed point was indexed")]
    fn removing_an_unknown_point_panics() {
        let s = space(2);
        let mut index = TruthIndex::new(s.clone());
        let (a, b) = (s.point(&[1, 1]).unwrap(), s.point(&[2, 2]).unwrap());
        index.insert(&s.cell_coord(&a), a.values());
        index.remove(&s.cell_coord(&b), b.values());
    }
}
