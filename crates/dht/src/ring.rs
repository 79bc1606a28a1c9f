use std::collections::HashMap;

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
    load: HashMap<RingNodeId, u64>,
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
            load: HashMap::new(),
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
}
