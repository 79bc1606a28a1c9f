//! Classification from interleaved cell codes against the paper's
//! definition: `classify_coded` must name the same `N(l,k)` (or `C0`) as the
//! region-materializing `classify_reference`, in spaces that fit a 64-bit
//! code and in wider ones, where codes only carry the top levels and pairs
//! equal in that prefix fall back to the coordinates.

use attrspace::{CellCoord, Level};
use proptest::prelude::*;

const MAX_DIMS: usize = 24;

/// Flips, in `indices`, the code bit at interleaved position `t` (0 = the
/// top level's first dimension).
fn flip(indices: &mut [u32], max_level: Level, t: usize) {
    let d = indices.len();
    let level = max_level as usize - t / d;
    indices[t % d] ^= 1 << (level - 1);
}

fn coded_agrees(x: &CellCoord, y: &CellCoord) {
    for (a, b) in [(x, y), (y, x)] {
        prop_assert_eq!(
            a.classify_coded(a.code(), b, b.code()),
            a.classify_reference(b),
            "{} vs {} (d = {}, max_level = {})",
            a,
            b,
            a.dims(),
            a.max_level()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Random pairs, identical pairs, pairs parting at one chosen code bit
    /// (and anywhere below it), and — in spaces over 64 bits — pairs equal
    /// in the whole 64-bit prefix that part only below it.
    #[test]
    fn code_classification_equals_reference(
        d in 1usize..=MAX_DIMS,
        max_level in 1u8..=6,
        own in prop::collection::vec(any::<u32>(), MAX_DIMS),
        other in prop::collection::vec(any::<u32>(), MAX_DIMS),
        shape in 0u8..4,
        at in any::<u64>(),
        below in prop::collection::vec(any::<bool>(), MAX_DIMS * 6),
    ) {
        let mask = (1u32 << max_level) - 1;
        let x: Vec<u32> = own[..d].iter().map(|v| v & mask).collect();
        let bits = d * max_level as usize;
        let y: Vec<u32> = match shape {
            0 => other[..d].iter().map(|v| v & mask).collect(),
            1 => x.clone(),
            _ => {
                // Part at position `t`, then anywhere after it. Shape 3
                // picks `t` past the 64-bit prefix when the space has one.
                let t = if shape == 3 && bits > 64 {
                    64 + (at as usize) % (bits - 64)
                } else {
                    (at as usize) % bits
                };
                let mut y = x.clone();
                flip(&mut y, max_level, t);
                for (u, _) in below.iter().enumerate().take(bits).skip(t + 1).filter(|(_, &f)| f) {
                    flip(&mut y, max_level, u);
                }
                y
            }
        };
        let (x, y) = (CellCoord::new(x, max_level), CellCoord::new(y, max_level));
        if shape == 3 && bits > 64 {
            prop_assert_eq!(x.code(), y.code(), "construction: equal 64-bit prefix");
            prop_assert!(x != y, "construction: parting below the prefix");
        }
        coded_agrees(&x, &y);
    }
}
