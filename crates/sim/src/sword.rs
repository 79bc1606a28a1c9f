//! The delegation-based comparison system of Fig. 9(b).
//!
//! The paper compares its self-representation overlay against a
//! *delegation* design: the Bamboo DHT with SWORD's resource-discovery
//! scheme ("store a record of the nodes' attributes in the DHT at a key for
//! each attribute value for each dimension", §6.4). This module implements
//! that baseline from scratch:
//!
//! * [`Ring`] — a Chord/Bamboo-style key ring: each node owns the key arc
//!   ending at its id; routing is iterative greedy over finger tables
//!   (`O(log N)` hops), and every hop is *charged* to the node that serves
//!   it, which is what the load histogram measures;
//! * [`SwordIndex`] — the SWORD key scheme: every resource publishes one
//!   record per attribute at an order-preserving key, and a range query
//!   routes to the range start then walks successors until the range is
//!   exhausted or `σ` matches are found, filtering on the other attributes.
//!
//! The point of the comparison: with skewed attribute values the SWORD keys
//! concentrate on few ring arcs, so a handful of registry nodes serve most
//! of the query traffic — the heavy tail of Fig. 9(b) — while the
//! autonomous overlay spreads the same workload almost uniformly.
//!
//! ```
//! use overlay_sim::sword::{Ring, SwordIndex};
//!
//! let ring = Ring::new((0..64).map(|i| i * 1_000).collect());
//! let resources = vec![vec![4, 512], vec![2, 256], vec![8, 2048]];
//! let mut index = SwordIndex::build(ring, &resources, &[16, 65_536]);
//! let hits = index.range_query(0, 0, (4, u64::MAX), &[(0, u64::MAX); 2], None);
//! assert_eq!(hits.len(), 2); // resources with ≥ 4 in attribute 0
//! ```

use autosel_core::fasthash::FastMap;

/// Identifier of a DHT ring node (its position on the 64-bit key circle).
pub type RingNodeId = u64;

/// A Chord/Bamboo-style key ring with finger-table routing.
///
/// Every key `k` is owned by its *successor*: the first node clockwise at or
/// after `k` (wrapping). Lookups start at an arbitrary node and repeatedly
/// jump to the closest preceding finger, exactly like iterative Chord/Bamboo
/// routing; each visited node is charged one unit of load.
#[derive(Debug, Clone)]
pub struct Ring {
    /// Sorted node positions.
    nodes: Vec<RingNodeId>,
    /// Finger tables: for node index `i`, fingers `[i][j]` is the node index
    /// owning key `nodes[i] + 2^j`.
    fingers: Vec<Vec<usize>>,
    /// Messages served per node (routing hops + record serving).
    load: FastMap<RingNodeId, u64>,
}

impl Ring {
    /// Builds a ring over the given node ids (deduplicated, sorted).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn new(mut nodes: Vec<RingNodeId>) -> Self {
        assert!(!nodes.is_empty(), "ring needs at least one node");
        nodes.sort_unstable();
        nodes.dedup();
        let mut ring = Ring {
            fingers: Vec::new(),
            load: FastMap::default(),
            nodes,
        };
        ring.rebuild_fingers();
        ring
    }

    fn rebuild_fingers(&mut self) {
        let n = self.nodes.len();
        self.fingers = (0..n)
            .map(|i| {
                (0..64)
                    .map(|j| {
                        let target = self.nodes[i].wrapping_add(1u64 << j);
                        self.successor_index(target)
                    })
                    .collect()
            })
            .collect();
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the ring is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The sorted node ids.
    pub fn nodes(&self) -> &[RingNodeId] {
        &self.nodes
    }

    /// Index of the node owning `key` (its successor, wrapping).
    pub fn successor_index(&self, key: u64) -> usize {
        match self.nodes.binary_search(&key) {
            Ok(i) => i,
            Err(i) => {
                if i == self.nodes.len() {
                    0
                } else {
                    i
                }
            }
        }
    }

    /// The node owning `key`.
    pub fn successor(&self, key: u64) -> RingNodeId {
        self.nodes[self.successor_index(key)]
    }

    /// The node after `node` clockwise.
    pub fn next_of(&self, node: RingNodeId) -> RingNodeId {
        let i = self.nodes.binary_search(&node).expect("known node");
        self.nodes[(i + 1) % self.nodes.len()]
    }

    /// Routes from `start` to the owner of `key`, charging one load unit to
    /// every node on the path (including start and owner). Returns the owner
    /// and the hop count.
    pub fn route(&mut self, start: RingNodeId, key: u64) -> (RingNodeId, u32) {
        let mut cur = self.nodes.binary_search(&start).expect("known start node");
        let target = self.successor_index(key);
        let mut hops = 0u32;
        *self.load.entry(self.nodes[cur]).or_insert(0) += 1;
        while cur != target {
            // Greedy: largest finger that does not overshoot the target.
            let mut next = (cur + 1) % self.nodes.len(); // successor fallback
            let gap = Self::clockwise(self.nodes[cur], key);
            for j in (0..64).rev() {
                let f = self.fingers[cur][j];
                if f == cur {
                    continue;
                }
                let d = Self::clockwise(self.nodes[cur], self.nodes[f]);
                if d > 0 && d <= gap.max(1) && Self::clockwise(self.nodes[f], key) < gap {
                    next = f;
                    break;
                }
            }
            cur = next;
            hops += 1;
            *self.load.entry(self.nodes[cur]).or_insert(0) += 1;
            if hops as usize > self.nodes.len() {
                // Defensive: cannot happen with consistent fingers.
                break;
            }
        }
        (self.nodes[cur], hops)
    }

    /// Charges `units` of serving load to `node` (record storage lookups).
    pub fn charge(&mut self, node: RingNodeId, units: u64) {
        *self.load.entry(node).or_insert(0) += units;
    }

    /// Per-node load counters, including zero entries for idle nodes.
    pub fn load_per_node(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .map(|n| self.load.get(n).copied().unwrap_or(0))
            .collect()
    }

    /// Clears all load counters.
    pub fn reset_load(&mut self) {
        self.load.clear();
    }

    fn clockwise(from: u64, to: u64) -> u64 {
        to.wrapping_sub(from)
    }
}

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
    records: FastMap<RingNodeId, Vec<(u64, usize)>>,
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
            records: FastMap::default(),
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

    fn ring() -> Ring {
        Ring::new((0..32).map(|i| i * 1000 + 17).collect())
    }

    #[test]
    fn successor_wraps() {
        let r = ring();
        assert_eq!(r.successor(0), 17);
        assert_eq!(r.successor(17), 17);
        assert_eq!(r.successor(18), 1017);
        assert_eq!(r.successor(u64::MAX), 17, "wraps past the top");
    }

    #[test]
    fn next_of_cycles() {
        let r = ring();
        assert_eq!(r.next_of(17), 1017);
        assert_eq!(r.next_of(31_017), 17);
    }

    #[test]
    fn route_reaches_owner_in_log_hops() {
        let mut r = Ring::new(
            (0u64..1024)
                .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
                .collect(),
        );
        let nodes = r.nodes().to_vec();
        let mut max_hops = 0;
        for k in 0..200u64 {
            let key = k.wrapping_mul(0x1234_5678_9ABC_DEF1);
            let start = nodes[(k as usize * 7) % nodes.len()];
            let (owner, hops) = r.route(start, key);
            assert_eq!(owner, r.successor(key));
            max_hops = max_hops.max(hops);
        }
        assert!(max_hops <= 20, "O(log n) routing, got {max_hops}");
    }

    #[test]
    fn load_is_charged_along_paths() {
        let mut r = ring();
        r.route(17, 30_000);
        let total: u64 = r.load_per_node().iter().sum();
        assert!(total >= 2, "start and owner charged");
        r.reset_load();
        assert_eq!(r.load_per_node().iter().sum::<u64>(), 0);
    }

    #[test]
    fn single_node_ring_owns_everything() {
        let mut r = Ring::new(vec![5]);
        let (owner, hops) = r.route(5, u64::MAX / 2);
        assert_eq!(owner, 5);
        assert_eq!(hops, 0);
    }

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
