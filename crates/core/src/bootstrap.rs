//! Oracle wiring of routing tables from global knowledge — the paper's
//! converged-state experimental setup (§6), used by the simulator and tests.

use crate::fasthash::FastMap;
use std::hash::Hash;

use attrspace::{BucketIndex, Level, Space};
use epigossip::NodeId;
use rand::Rng;

use crate::{NeighborEntry, RoutingTable, SelectionNode};

/// Precomputed group indexes for wiring routing tables from global
/// knowledge, as if the gossip layers had fully converged — the paper's
/// experimental setup ("we first randomly populate the space … and give
/// them sufficient time to build their routing tables", §6).
///
/// Built once from the population's `(id, point, coord)` entries; each
/// node's table is then wired by [`wire_table`](Self::wire_table) without
/// touching any other node, so a driver can wire tables in place (the
/// simulator does) instead of moving its state machines into a slice for
/// [`wire_perfect`].
///
/// `neighborsZero` becomes *all* same-`C0` nodes; each `(l,k)` slot gets a
/// node chosen uniformly at random from the occupants of `N(l,k)` (the same
/// independent randomness the gossip selection provides, which is what
/// spreads query load in §6.4).
///
/// Group keys are mixed-granularity prefixes. A node `Y` belongs to
/// `N(l,k)(X)` iff
///
/// ```text
/// Y_j >> (l-1) == X_j >> (l-1)        for j <  k
/// Y_k >> (l-1) == (X_k >> (l-1)) ^ 1  for j == k
/// Y_j >> l     == X_j >> l            for j >  k
/// ```
///
/// When the whole coordinate fits in one machine word (`d · max(l) ≤ 64` —
/// true for every configuration in the paper) the prefixes are packed into
/// a `u64`, so grouping hashes one integer per (node, level, dim) instead
/// of allocating a `Vec<BucketIndex>` key for each. Construction runs in
/// `O(N · d · max(l))` either way, scaling to the paper's 100 000-node
/// populations.
#[derive(Debug)]
pub struct OracleWiring {
    d: usize,
    max_level: Level,
    entries: Vec<NeighborEntry>,
    index: GroupIndex,
}

/// Entry indexes grouped by cell key — direct-indexed arrays when the
/// packed key space is small, hashed `u64` keys when the coordinate fits a
/// word, per-dimension vectors otherwise.
#[derive(Debug)]
enum GroupIndex {
    Dense(DenseGroups),
    Packed(Groups<u64>),
    Wide(Groups<Vec<BucketIndex>>),
}

/// Largest packed-key width (in bits) indexed as dense arrays: 2^16 offsets
/// per table stays a few hundred KB while covering every configuration the
/// paper benchmarks (e.g. 5 dims × 3 levels = 15 bits).
const DENSE_KEY_BITS: usize = 16;

/// One group table in compressed-sparse-row form: the member list of packed
/// key `k` is `members[starts[k]..starts[k + 1]]`. Grouping and lookup are
/// a direct array index — no hashing — which is what makes oracle-wiring a
/// 100 000-node population cheap enough to rerun per sweep point.
#[derive(Debug)]
struct Csr {
    starts: Vec<u32>,
    members: Vec<u32>,
}

impl Csr {
    /// Groups entry indexes `0..keys.len()` by their packed key. Members of
    /// a group keep ascending entry order (the hashed path's insertion
    /// order), so the one-draw-per-slot RNG contract picks identically.
    fn build(n_keys: usize, keys: &[u32]) -> Self {
        let mut starts = vec![0u32; n_keys + 1];
        for &k in keys {
            starts[k as usize + 1] += 1;
        }
        for i in 0..n_keys {
            starts[i + 1] += starts[i];
        }
        let mut cursor = starts.clone();
        let mut members = vec![0u32; keys.len()];
        for (i, &k) in keys.iter().enumerate() {
            let c = &mut cursor[k as usize];
            members[*c as usize] = i as u32;
            *c += 1;
        }
        Csr { starts, members }
    }

    fn get(&self, key: u64) -> &[u32] {
        let k = key as usize;
        &self.members[self.starts[k] as usize..self.starts[k + 1] as usize]
    }
}

/// [`Groups`] with every table in [`Csr`] form.
#[derive(Debug)]
struct DenseGroups {
    zero: Csr,
    slots: Vec<Csr>,
}

impl DenseGroups {
    fn build(entries: &[NeighborEntry], d: usize, max_level: Level) -> Self {
        let n_keys = 1usize << (d * max_level as usize);
        let mut keys: Vec<u32> = Vec::with_capacity(entries.len());
        keys.extend(
            entries
                .iter()
                .map(|e| packed_zero(e.coord.indices(), max_level) as u32),
        );
        let zero = Csr::build(n_keys, &keys);
        let mut slots = Vec::with_capacity(d * max_level as usize);
        for level in 1..=max_level {
            for dim in 0..d {
                keys.clear();
                keys.extend(
                    entries
                        .iter()
                        .map(|e| packed_slot(e.coord.indices(), level, dim, max_level) as u32),
                );
                slots.push(Csr::build(n_keys, &keys));
            }
        }
        DenseGroups { zero, slots }
    }
}

#[derive(Debug)]
struct Groups<K> {
    /// `C0` groups: full-coordinate key → entry indexes in that cell.
    zero: FastMap<K, Vec<u32>>,
    /// Per `(level-1)·d + dim`: mixed-granularity prefix → entry indexes.
    slots: Vec<FastMap<K, Vec<u32>>>,
}

impl<K: Hash + Eq> Groups<K> {
    fn build(
        entries: &[NeighborEntry],
        d: usize,
        max_level: Level,
        zero_key: impl Fn(&[BucketIndex]) -> K,
        slot_key: impl Fn(&[BucketIndex], Level, usize) -> K,
    ) -> Self {
        let mut zero: FastMap<K, Vec<u32>> = FastMap::default();
        for (i, e) in entries.iter().enumerate() {
            zero.entry(zero_key(e.coord.indices()))
                .or_default()
                .push(i as u32);
        }
        let mut slots: Vec<FastMap<K, Vec<u32>>> = (0..d * max_level as usize)
            .map(|_| FastMap::default())
            .collect();
        for (i, e) in entries.iter().enumerate() {
            for level in 1..=max_level {
                for dim in 0..d {
                    slots[(level as usize - 1) * d + dim]
                        .entry(slot_key(e.coord.indices(), level, dim))
                        .or_default()
                        .push(i as u32);
                }
            }
        }
        Groups { zero, slots }
    }
}

/// Packs a full coordinate into a word, `max_level` bits per dimension.
fn packed_zero(coord: &[BucketIndex], max_level: Level) -> u64 {
    coord
        .iter()
        .fold(0u64, |k, &v| (k << max_level) | u64::from(v))
}

/// Packs the `N(level, dim)` membership prefix into a word, keeping each
/// dimension in its own `max_level`-bit field so one field can be flipped.
fn packed_slot(coord: &[BucketIndex], level: Level, dim: usize, max_level: Level) -> u64 {
    coord.iter().enumerate().fold(0u64, |k, (j, &v)| {
        let shift = if j <= dim { level - 1 } else { level };
        (k << max_level) | u64::from(v >> shift)
    })
}

fn wide_slot(coord: &[BucketIndex], level: Level, dim: usize) -> Vec<BucketIndex> {
    coord
        .iter()
        .enumerate()
        .map(|(j, &v)| {
            if j <= dim {
                v >> (level - 1)
            } else {
                v >> level
            }
        })
        .collect()
}

impl OracleWiring {
    /// Indexes `entries` (the whole population) for wiring against `space`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty.
    pub fn new(space: &Space, entries: Vec<NeighborEntry>) -> Self {
        assert!(!entries.is_empty(), "cannot wire an empty population");
        let d = space.dims();
        let max_level = space.max_level();
        let index = if d * max_level as usize <= DENSE_KEY_BITS {
            GroupIndex::Dense(DenseGroups::build(&entries, d, max_level))
        } else if d * max_level as usize <= 64 {
            GroupIndex::Packed(Groups::build(
                &entries,
                d,
                max_level,
                |c| packed_zero(c, max_level),
                |c, l, k| packed_slot(c, l, k, max_level),
            ))
        } else {
            GroupIndex::Wide(Groups::build(
                &entries,
                d,
                max_level,
                <[BucketIndex]>::to_vec,
                wide_slot,
            ))
        };
        OracleWiring {
            d,
            max_level,
            entries,
            index,
        }
    }

    /// The indexed population entries, in the order given to
    /// [`new`](Self::new) (the order `wire_table` indexes by).
    pub fn entries(&self) -> &[NeighborEntry] {
        &self.entries
    }

    /// Rewires entry `i`'s routing table from global knowledge: all `C0`
    /// mates, plus one uniformly random occupant per non-empty `N(l,k)`.
    ///
    /// Slots are visited level-ascending, dimension-ascending, drawing from
    /// `rng` once per non-empty subcell — callers that fix the entry order
    /// and the RNG replay the exact same wiring.
    ///
    /// Returns the number of links wired (slot links + `C0` links), so
    /// drivers can report the bootstrap as an initial view change without
    /// re-walking the table.
    pub fn wire_table<R: Rng + ?Sized>(
        &self,
        i: usize,
        table: &mut RoutingTable,
        rng: &mut R,
    ) -> usize {
        match &self.index {
            GroupIndex::Dense(g) => self.wire_dense(g, i, table, rng),
            GroupIndex::Packed(g) => {
                let ml = self.max_level;
                self.wire_with(
                    g,
                    i,
                    table,
                    rng,
                    |c| packed_zero(c, ml),
                    |c, l, k| {
                        // Flip our half along `k`: the low bit of its field.
                        let field = (self.d - 1 - k) as u32 * u32::from(ml);
                        packed_slot(c, l, k, ml) ^ (1u64 << field)
                    },
                );
            }
            GroupIndex::Wide(g) => {
                self.wire_with(g, i, table, rng, <[BucketIndex]>::to_vec, |c, l, k| {
                    let mut key = wide_slot(c, l, k);
                    key[k] ^= 1;
                    key
                });
            }
        }
        table.link_count()
    }

    /// [`wire_with`](Self::wire_with) over direct-indexed tables: same
    /// slot visit order, same one-draw-per-non-empty-subcell RNG contract.
    fn wire_dense<R: Rng + ?Sized>(
        &self,
        g: &DenseGroups,
        i: usize,
        table: &mut RoutingTable,
        rng: &mut R,
    ) {
        let own = self.entries[i].coord.indices();
        let ml = self.max_level;
        table.clear();
        for &m in g.zero.get(packed_zero(own, ml)) {
            if m as usize != i {
                table.insert_zero(&self.entries[m as usize]);
            }
        }
        for level in 1..=ml {
            for dim in 0..self.d {
                let field = (self.d - 1 - dim) as u32 * u32::from(ml);
                let key = packed_slot(own, level, dim, ml) ^ (1u64 << field);
                let cands = g.slots[(level as usize - 1) * self.d + dim].get(key);
                if !cands.is_empty() {
                    let pick = cands[rng.gen_range(0..cands.len())] as usize;
                    table.set_neighbor(level, dim, &self.entries[pick]);
                }
            }
        }
    }

    fn wire_with<K: Hash + Eq, R: Rng + ?Sized>(
        &self,
        groups: &Groups<K>,
        i: usize,
        table: &mut RoutingTable,
        rng: &mut R,
        zero_key: impl Fn(&[BucketIndex]) -> K,
        flipped_slot_key: impl Fn(&[BucketIndex], Level, usize) -> K,
    ) {
        let own = self.entries[i].coord.indices();
        table.clear();
        if let Some(mates) = groups.zero.get(&zero_key(own)) {
            for &m in mates {
                if m as usize != i {
                    table.insert_zero(&self.entries[m as usize]);
                }
            }
        }
        for level in 1..=self.max_level {
            for dim in 0..self.d {
                let key = flipped_slot_key(own, level, dim);
                if let Some(cands) = groups.slots[(level as usize - 1) * self.d + dim].get(&key) {
                    if !cands.is_empty() {
                        let pick = cands[rng.gen_range(0..cands.len())] as usize;
                        table.set_neighbor(level, dim, &self.entries[pick]);
                    }
                }
            }
        }
    }
}

/// Wires every node's routing table from global knowledge via a shared
/// [`OracleWiring`] index. Nodes are wired in slice order; see
/// [`OracleWiring::wire_table`] for the per-node randomness contract.
pub fn wire_perfect<R: Rng + ?Sized>(nodes: &mut [SelectionNode], rng: &mut R) {
    if nodes.is_empty() {
        return;
    }
    let space = nodes[0].space().clone();
    let entries: Vec<NeighborEntry> = nodes
        .iter()
        .map(|n| NeighborEntry {
            id: n.id(),
            point: n.point().clone(),
            coord: n.coord().clone(),
        })
        .collect();
    let wiring = OracleWiring::new(&space, entries);
    for (i, node) in nodes.iter_mut().enumerate() {
        wiring.wire_table(i, node.routing_mut(), rng);
    }
}

/// Convenience: all node ids whose attribute values satisfy `query` — the
/// ground truth the experiments compare deliveries against.
pub fn ground_truth(nodes: &[SelectionNode], query: &attrspace::Query) -> Vec<NodeId> {
    nodes
        .iter()
        .filter(|n| query.matches(n.point()))
        .map(|n| n.id())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProtocolConfig;
    use attrspace::Space;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn population(space: &Space, n: u64, seed: u64) -> Vec<SelectionNode> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let vals: Vec<u64> = (0..space.dims()).map(|_| rng.gen_range(0..80)).collect();
                SelectionNode::new(
                    i,
                    space,
                    space.point(&vals).unwrap(),
                    ProtocolConfig::default(),
                )
            })
            .collect()
    }

    #[test]
    fn wiring_matches_brute_force_classification() {
        let space = Space::uniform(3, 80, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut nodes = population(&space, 200, 4);
        wire_perfect(&mut nodes, &mut rng);

        // Brute-force check on a sample of nodes: every filled slot's entry
        // really lies in N(l,k), every same-C0 node is a zero neighbor, and
        // slots are empty only when the subcell truly is.
        let coords: Vec<_> = nodes.iter().map(|n| n.coord().clone()).collect();
        for i in (0..nodes.len()).step_by(17) {
            let me = &coords[i];
            for level in 1..=2u8 {
                for dim in 0..3usize {
                    let region = me.neighboring_cell(level, dim);
                    let occupant = nodes[i].routing().neighbor(level, dim);
                    let exists = coords.iter().any(|c| region.contains(c));
                    assert_eq!(occupant.is_some(), exists, "node {i} slot ({level},{dim})");
                    if let Some(id) = occupant {
                        assert!(region.contains(&coords[id as usize]));
                    }
                }
            }
            let mates: Vec<NodeId> = (0..nodes.len() as u64)
                .filter(|&j| j != i as u64 && coords[j as usize].same_cell(me, 0))
                .collect();
            assert_eq!(nodes[i].routing().zero_count(), mates.len());
        }
    }

    /// The packed-key fast path must produce the exact same wiring (same
    /// links, same RNG draws) as the wide fallback. A 22-dimension depth-3
    /// space needs 66 bits and genuinely exercises the wide path.
    #[test]
    fn packed_and_wide_indexes_wire_identically() {
        let narrow = Space::uniform(5, 80, 3).unwrap();
        assert!(narrow.dims() * narrow.max_level() as usize <= 64);
        let wide = Space::uniform(22, 80, 3).unwrap();
        assert!(wide.dims() * wide.max_level() as usize > 64);

        for space in [narrow, wide] {
            let nodes = population(&space, 120, 9);
            let entries: Vec<NeighborEntry> = nodes
                .iter()
                .map(|n| NeighborEntry {
                    id: n.id(),
                    point: n.point().clone(),
                    coord: n.coord().clone(),
                })
                .collect();
            let auto = OracleWiring::new(&space, entries.clone());
            // Force the wide fallback on the same entries for comparison.
            let forced = OracleWiring {
                d: space.dims(),
                max_level: space.max_level(),
                index: GroupIndex::Wide(Groups::build(
                    &entries,
                    space.dims(),
                    space.max_level(),
                    <[BucketIndex]>::to_vec,
                    wide_slot,
                )),
                entries,
            };
            for i in (0..nodes.len()).step_by(13) {
                let mut ta = RoutingTable::new(space.clone(), nodes[i].coord().clone());
                let mut tb = RoutingTable::new(space.clone(), nodes[i].coord().clone());
                let mut ra = StdRng::seed_from_u64(77);
                let mut rb = StdRng::seed_from_u64(77);
                auto.wire_table(i, &mut ta, &mut ra);
                forced.wire_table(i, &mut tb, &mut rb);
                assert_eq!(
                    ra.gen_range(0..u64::MAX),
                    rb.gen_range(0..u64::MAX),
                    "RNG draw counts diverged"
                );
                let links = |t: &RoutingTable| -> Vec<(Level, usize, NodeId)> {
                    t.filled_slots().collect()
                };
                assert_eq!(links(&ta), links(&tb), "node {i}: slot wiring diverged");
                let zeros = |t: &RoutingTable| -> Vec<NodeId> {
                    t.zero_neighbors().map(|(id, _)| id).collect()
                };
                assert_eq!(zeros(&ta), zeros(&tb), "node {i}: C0 wiring diverged");
            }
        }
    }
}
