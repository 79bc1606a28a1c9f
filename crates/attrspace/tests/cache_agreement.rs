//! The hot-path caches must agree with their unaccelerated definitions:
//! the division-based uniform bucket resolver vs. binary search, the
//! bit-arithmetic `classify` vs. the region-materializing one, and the
//! arithmetic `neighbor_overlaps` vs. intersecting a materialized
//! `neighboring_cell`.

use attrspace::{CellCoord, Dimension, Region, Space};
use proptest::prelude::*;

const MAX_LEVEL: u8 = 4;

fn arb_coord(dims: usize) -> impl Strategy<Value = CellCoord> {
    prop::collection::vec(0u32..(1 << MAX_LEVEL), dims)
        .prop_map(|idx| CellCoord::new(idx, MAX_LEVEL))
}

proptest! {
    /// Uniform dimensions resolve by division; the result must equal the
    /// binary-search reference for any value, including the open top end.
    #[test]
    fn uniform_bucket_fast_path_agrees(
        lo in 0u64..1_000,
        extent in 16u64..100_000,
        value in proptest::prelude::any::<u64>(),
    ) {
        let d = Dimension::uniform("x", lo, lo + extent, 16);
        prop_assert_eq!(d.bucket(value), d.bucket_reference(value));
    }

    /// Irregular dimensions fall back to the same search — trivially equal,
    /// but pinned so a future "fast path for everything" change can't skew
    /// skewed spaces silently.
    #[test]
    fn irregular_bucket_agrees(
        mut bounds in prop::collection::btree_set(1u64..10_000, 3),
        value in 0u64..20_000,
    ) {
        let bounds: Vec<u64> = std::mem::take(&mut bounds).into_iter().collect();
        let d = Dimension::with_boundaries("x", bounds).unwrap();
        prop_assert_eq!(d.bucket(value), d.bucket_reference(value));
    }

    /// The accelerated `Space::cell_coord` equals the reference mapping on
    /// a space mixing uniform and irregular dimensions.
    #[test]
    fn cell_coord_cache_agrees_with_reference(
        v0 in proptest::prelude::any::<u64>(),
        v1 in 0u64..200,
        v2 in 0u64..20_000,
    ) {
        let space = Space::builder()
            .max_level(2)
            .uniform_dimension("a", 0, 80)
            .uniform_dimension("b", 3, 163)
            .dimension(Dimension::with_boundaries("c", vec![128, 4096, 8192]).unwrap())
            .build()
            .unwrap();
        let p = space.point(&[v0, v1, v2]).unwrap();
        prop_assert_eq!(space.cell_coord(&p), space.cell_coord_reference(&p));
    }

    /// Bit-arithmetic classification equals the region-materializing
    /// definition for every coordinate pair.
    #[test]
    fn classify_fast_path_agrees(x in arb_coord(3), y in arb_coord(3)) {
        prop_assert_eq!(x.classify(&y), x.classify_reference(&y));
    }

}

/// Largest dimensionality a node supports (the scope bitmask's width).
const MAX_DIMS: usize = 32;

/// One per-dimension interval of a test region over `2^max_level` buckets:
/// random, aligned to a cell of some level, a single bucket, or the whole
/// dimension.
fn interval(shape: u8, max_level: u8, a: u32, b: u32, align: u8) -> (u32, u32) {
    let mask = (1u32 << max_level) - 1;
    let (a, b) = (a & mask, b & mask);
    match shape {
        0 => (a.min(b), a.max(b)),
        1 => {
            let level = align % (max_level + 1);
            let base = (a >> level) << level;
            (base, base + (1 << level) - 1)
        }
        2 => (a, a),
        _ => (0, mask),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// `neighbor_overlaps` answers exactly what intersecting the
    /// materialized `neighboring_cell` answers, for every level and
    /// dimension, `d` from 1 to 32, and regions that are random, aligned,
    /// one bucket, the full space — or (shape 4) a mix per dimension.
    #[test]
    fn neighbor_overlaps_agrees_with_neighboring_cell(
        d in 1usize..=MAX_DIMS,
        max_level in 1u8..=6,
        own in prop::collection::vec(any::<u32>(), MAX_DIMS),
        shape in 0u8..5,
        per_dim in prop::collection::vec((0u8..4, any::<u32>(), any::<u32>(), any::<u8>()), MAX_DIMS),
    ) {
        let mask = (1u32 << max_level) - 1;
        let x = CellCoord::new(own[..d].iter().map(|v| v & mask).collect(), max_level);
        let region = Region::new(
            per_dim[..d]
                .iter()
                .map(|&(s, a, b, align)| {
                    interval(if shape == 4 { s } else { shape }, max_level, a, b, align)
                })
                .collect(),
        );
        for level in 1..=max_level {
            for dim in 0..d {
                prop_assert_eq!(
                    x.neighbor_overlaps(level, dim, &region),
                    x.neighboring_cell(level, dim).intersects(&region),
                    "N({}, {}) of {} against {}",
                    level,
                    dim,
                    x,
                    region
                );
            }
        }
    }
}
