use std::collections::HashMap;

use crate::{Ring, RingNodeId};

/// SWORD-style resource index on a DHT [`Ring`].
///
/// Every resource publishes one record per attribute at an order-preserving
/// key (`attribute id` in the high bits, scaled value below), so a
/// single-attribute range maps to a contiguous key arc. A multi-attribute
/// query routes to the start of the most selective attribute's arc and walks
/// successors, filtering each record against the remaining attributes —
/// SWORD's "iterated search ... until the requested number of nodes is found
/// ... or the range is exhausted" (§6.4).
///
/// All routing hops and record-serving messages are charged to [`Ring`]'s
/// per-node load counters; Fig. 9(b) plots exactly that distribution.
#[derive(Debug, Clone)]
pub struct SwordIndex {
    ring: Ring,
    /// Records per owner: `(key, resource index)`.
    records: HashMap<RingNodeId, Vec<(u64, usize)>>,
    resources: Vec<Vec<u64>>,
    attr_max: Vec<u64>,
}

const DIM_BITS: u32 = 6; // up to 64 attributes
const VALUE_BITS: u32 = 64 - DIM_BITS;

impl SwordIndex {
    /// Publishes every resource's attribute records onto the ring.
    ///
    /// `attr_max[k]` is the largest expected value of attribute `k`, used
    /// for order-preserving scaling (larger observed values saturate).
    ///
    /// # Panics
    ///
    /// Panics if a resource row's arity differs from `attr_max`, more than
    /// 64 attributes are used, or any `attr_max` is zero.
    pub fn build(ring: Ring, resources: &[Vec<u64>], attr_max: &[u64]) -> Self {
        assert!(attr_max.len() <= 1 << DIM_BITS, "too many attributes");
        assert!(attr_max.iter().all(|&m| m > 0), "attr_max must be positive");
        let mut index = SwordIndex {
            ring,
            records: HashMap::new(),
            resources: resources.to_vec(),
            attr_max: attr_max.to_vec(),
        };
        for (i, row) in resources.iter().enumerate() {
            assert_eq!(row.len(), attr_max.len(), "resource arity mismatch");
            for (k, &v) in row.iter().enumerate() {
                let key = index.key_of(k, v);
                let owner = index.ring.successor(key);
                index.records.entry(owner).or_default().push((key, i));
            }
        }
        for recs in index.records.values_mut() {
            recs.sort_unstable();
        }
        index
    }

    /// The order-preserving key of `(attribute, value)`.
    pub fn key_of(&self, dim: usize, value: u64) -> u64 {
        assert!(dim < self.attr_max.len(), "attribute out of range");
        let max = self.attr_max[dim];
        let scaled = ((value.min(max) as u128) * ((1u128 << VALUE_BITS) - 1) / max as u128) as u64;
        ((dim as u64) << VALUE_BITS) | scaled
    }

    /// Read access to the underlying ring (load counters, node set).
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Clears accumulated load.
    pub fn reset_load(&mut self) {
        self.ring.reset_load();
    }

    /// Per-node messages served (routing + record serving + walk steps).
    pub fn load_per_node(&self) -> Vec<u64> {
        self.ring.load_per_node()
    }

    /// Executes a range query: `range` on attribute `dim`, with inclusive
    /// per-attribute `filters` (use `(0, u64::MAX)` for unconstrained),
    /// stopping after `sigma` matches if given. Returns matching resource
    /// indices in walk order.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a ring node or arities disagree.
    pub fn range_query(
        &mut self,
        start: RingNodeId,
        dim: usize,
        range: (u64, u64),
        filters: &[(u64, u64)],
        sigma: Option<u32>,
    ) -> Vec<usize> {
        assert_eq!(filters.len(), self.attr_max.len(), "filter arity mismatch");
        let (lo, hi) = range;
        let key_lo = self.key_of(dim, lo);
        let key_hi = self.key_of(dim, hi);
        let mut hits = Vec::new();
        if key_lo > key_hi {
            return hits;
        }

        // Phase 1: DHT routing to the arc owner (O(log N) charged hops).
        let (mut cur, _) = self.ring.route(start, key_lo);

        // Phase 2: successor walk over the arc.
        loop {
            if let Some(recs) = self.records.get(&cur) {
                for &(key, idx) in recs {
                    if key < key_lo || key > key_hi {
                        continue;
                    }
                    // Serving a candidate record costs a message exchange.
                    self.ring.charge(cur, 1);
                    let row = &self.resources[idx];
                    let ok = row
                        .iter()
                        .zip(filters)
                        .all(|(&v, &(flo, fhi))| flo <= v && v <= fhi);
                    if ok {
                        hits.push(idx);
                        if sigma.is_some_and(|s| hits.len() as u32 >= s) {
                            return hits;
                        }
                    }
                }
            }
            // The walk ends when this node's arc already covers key_hi.
            if cur >= key_hi {
                break;
            }
            let next = self.ring.next_of(cur);
            if next <= cur {
                break; // wrapped around the ring: arc exhausted
            }
            self.ring.charge(next, 1); // walk hop received by next
            cur = next;
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spread_ring(n: u64) -> Ring {
        // Well-spread node ids across the whole key circle.
        Ring::new((0..n).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect())
    }

    fn small_resources() -> Vec<Vec<u64>> {
        vec![
            vec![1, 100],
            vec![2, 200],
            vec![4, 400],
            vec![8, 800],
            vec![16, 1600],
        ]
    }

    #[test]
    fn key_is_order_preserving_within_dim() {
        let idx = SwordIndex::build(spread_ring(8), &small_resources(), &[16, 1600]);
        assert!(idx.key_of(0, 1) < idx.key_of(0, 2));
        assert!(idx.key_of(0, 2) < idx.key_of(0, 16));
        assert!(
            idx.key_of(0, 16) < idx.key_of(1, 0),
            "dims are disjoint arcs"
        );
        assert_eq!(
            idx.key_of(0, 99),
            idx.key_of(0, 16),
            "values saturate at max"
        );
    }

    #[test]
    fn range_query_finds_exactly_the_range() {
        let mut idx = SwordIndex::build(spread_ring(32), &small_resources(), &[16, 1600]);
        let start = idx.ring().nodes()[0];
        let mut hits = idx.range_query(start, 0, (2, 8), &[(0, u64::MAX); 2], None);
        hits.sort_unstable();
        assert_eq!(hits, vec![1, 2, 3]);
    }

    #[test]
    fn filters_apply_on_other_attributes() {
        let mut idx = SwordIndex::build(spread_ring(32), &small_resources(), &[16, 1600]);
        let start = idx.ring().nodes()[3];
        let hits = idx.range_query(start, 0, (0, 16), &[(0, u64::MAX), (300, 900)], None);
        let mut hits = hits;
        hits.sort_unstable();
        assert_eq!(hits, vec![2, 3], "only values with 300 ≤ attr1 ≤ 900");
    }

    #[test]
    fn sigma_stops_the_walk_early() {
        let resources: Vec<Vec<u64>> = (0..200).map(|i| vec![i, i]).collect();
        let mut idx = SwordIndex::build(spread_ring(64), &resources, &[200, 200]);
        let start = idx.ring().nodes()[0];
        let hits = idx.range_query(start, 0, (0, 199), &[(0, u64::MAX); 2], Some(5));
        assert_eq!(hits.len(), 5);
        let full = idx.range_query(start, 0, (0, 199), &[(0, u64::MAX); 2], None);
        assert_eq!(full.len(), 200);
    }

    #[test]
    fn skewed_values_concentrate_load() {
        // 95% of resources share one popular value: their records land on
        // one arc, so the serving load is heavy-tailed.
        let mut resources: Vec<Vec<u64>> = Vec::new();
        for i in 0..400 {
            let v = if i % 20 == 0 { 1 + (i as u64 % 50) } else { 7 };
            resources.push(vec![7, v]);
        }
        let mut idx = SwordIndex::build(spread_ring(64), &resources, &[16, 64]);
        let start_nodes: Vec<RingNodeId> = idx.ring().nodes().to_vec();
        for q in 0..50usize {
            let start = start_nodes[q % start_nodes.len()];
            let _ = idx.range_query(start, 0, (7, 7), &[(0, u64::MAX); 2], Some(50));
        }
        let mut load = idx.load_per_node();
        load.sort_unstable();
        let total: u64 = load.iter().sum();
        let top = load.last().copied().unwrap();
        assert!(
            top as f64 > 0.3 * total as f64,
            "one node should serve most traffic: top {top} of {total}"
        );
    }

    #[test]
    fn empty_range_returns_nothing() {
        let mut idx = SwordIndex::build(spread_ring(8), &small_resources(), &[16, 1600]);
        let start = idx.ring().nodes()[0];
        assert!(idx
            .range_query(start, 0, (9, 3), &[(0, u64::MAX); 2], None)
            .is_empty());
    }
}
