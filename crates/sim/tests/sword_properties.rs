//! Property tests of the SWORD baseline: range queries agree with a
//! brute-force scan, and σ prefixes are consistent with the full result.

use overlay_sim::sword::{Ring, SwordIndex};
use proptest::prelude::*;

fn brute_force(
    resources: &[Vec<u64>],
    dim: usize,
    range: (u64, u64),
    filters: &[(u64, u64)],
) -> Vec<usize> {
    resources
        .iter()
        .enumerate()
        .filter(|(_, row)| {
            row[dim] >= range.0
                && row[dim] <= range.1
                && row
                    .iter()
                    .zip(filters)
                    .all(|(&v, &(lo, hi))| lo <= v && v <= hi)
        })
        .map(|(i, _)| i)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn range_query_agrees_with_brute_force(
        rows in prop::collection::vec(prop::collection::vec(0u64..100, 3), 1..60),
        ring_seed in any::<u64>(),
        dim in 0usize..3,
        range in (0u64..100, 0u64..100),
        f0 in (0u64..100, 0u64..100),
        f1 in (0u64..100, 0u64..100),
    ) {
        let range = (range.0.min(range.1), range.0.max(range.1));
        let filters = vec![
            (f0.0.min(f0.1), f0.0.max(f0.1)),
            (f1.0.min(f1.1), f1.0.max(f1.1)),
            (0, u64::MAX),
        ];
        let ring = Ring::new(
            (0..32u64)
                .map(|i| (i ^ ring_seed).wrapping_mul(0x9E3779B97F4A7C15))
                .collect(),
        );
        let mut idx = SwordIndex::build(ring, &rows, &[100, 100, 100]);
        let start = idx.ring().nodes()[0];
        let mut got = idx.range_query(start, dim, range, &filters, None);
        got.sort_unstable();
        let mut want = brute_force(&rows, dim, range, &filters);
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn sigma_returns_a_subset_of_the_full_result(
        rows in prop::collection::vec(prop::collection::vec(0u64..50, 2), 1..50),
        sigma in 1u32..20,
    ) {
        let ring = Ring::new((0..16u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect());
        let mut idx = SwordIndex::build(ring, &rows, &[50, 50]);
        let start = idx.ring().nodes()[0];
        let filters = [(0, u64::MAX); 2];
        let full = idx.range_query(start, 0, (0, 49), &filters, None);
        let bounded = idx.range_query(start, 0, (0, 49), &filters, Some(sigma));
        prop_assert_eq!(bounded.len(), full.len().min(sigma as usize));
        for b in &bounded {
            prop_assert!(full.contains(b));
        }
    }

    /// Load accounting: every query charges at least the routing path, and
    /// totals are monotone in the number of queries.
    #[test]
    fn load_is_monotone(queries in 1usize..10) {
        let rows: Vec<Vec<u64>> = (0..40).map(|i| vec![i % 10, i / 4]).collect();
        let ring = Ring::new((0..24u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect());
        let mut idx = SwordIndex::build(ring, &rows, &[10, 10]);
        let starts: Vec<u64> = idx.ring().nodes().to_vec();
        let mut last_total = 0u64;
        for q in 0..queries {
            let _ = idx.range_query(starts[q % starts.len()], 0, (2, 7), &[(0, u64::MAX); 2], None);
            let total: u64 = idx.load_per_node().iter().sum();
            prop_assert!(total > last_total, "each query adds load");
            last_total = total;
        }
    }
}
