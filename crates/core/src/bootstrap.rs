//! Oracle wiring of routing tables from global knowledge — the paper's
//! converged-state experimental setup (§6), used by the simulator and tests.

use crate::fasthash::FastMap;
use std::hash::Hash;
use std::sync::Arc;

use attrspace::{BucketIndex, Level, Space};
use epigossip::NodeId;
use rand::Rng;

use crate::routing::ZeroSet;
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
/// Everything a table is wired from depends only on its node's `C0` cell,
/// so it is resolved once per occupied cell: the `neighborsZero` set, which
/// every member's table shares (each skipping its own id, and copying it on
/// its first write — per-node copies would make set-up grow as
/// N² / cells), and the candidate range of every `(l,k)` slot. Wiring a
/// table then reads its cell's ranges and draws.
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
    entries: Vec<NeighborEntry>,
    /// Per slot `(level-1)·d + dim`: entry ids grouped by `N(l,k)` prefix,
    /// each group in entry order.
    members: Vec<Vec<NodeId>>,
    /// One `neighborsZero` set per occupied `C0` cell, its members included.
    zero: Vec<Arc<ZeroSet>>,
    /// Per cell, `d · max(l)` candidate ranges `(start, len)`, one per slot
    /// into that slot's `members`; `len` 0 for an empty subcell.
    ranges: Vec<(u32, u32)>,
    /// Per entry, the index of its cell in `zero` and `ranges`.
    cell_of: Vec<u32>,
}

/// Packs a full coordinate into a word, `max_level` bits per dimension.
fn packed_zero(coord: &[BucketIndex], max_level: Level) -> u64 {
    coord
        .iter()
        .fold(0u64, |k, &v| (k << max_level) | u64::from(v))
}

/// Packs the `N(level, dim)` membership prefix of a `d`-dimensional
/// coordinate, given [`packed_zero`], into a word, keeping each dimension
/// in its own `max_level`-bit field so one field can be flipped.
fn packed_slot(zero: u64, d: usize, level: Level, dim: usize, max_level: Level) -> u64 {
    let mask = (1u64 << max_level) - 1;
    (0..d).fold(0u64, |k, j| {
        let v = zero >> ((d - 1 - j) * max_level as usize) & mask;
        let shift = if j <= dim { level - 1 } else { level };
        (k << max_level) | (v >> shift)
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

/// Groups `entries` by `C0` cell (`key` of entry `i`'s full coordinate)
/// into one shared `neighborsZero` set per occupied cell. Returns the
/// sets, each cell's first entry, and per entry the index of its cell.
fn zero_sets<K: Hash + Eq>(
    entries: &[NeighborEntry],
    key: impl Fn(usize) -> K,
) -> (Vec<Arc<ZeroSet>>, Vec<u32>, Vec<u32>) {
    let mut cells: FastMap<K, u32> = FastMap::default();
    let mut members: Vec<Vec<u32>> = Vec::new();
    let mut cell_of = Vec::with_capacity(entries.len());
    for i in 0..entries.len() {
        let next = members.len() as u32;
        let cell = *cells.entry(key(i)).or_insert(next);
        if cell == next {
            members.push(Vec::new());
        }
        members[cell as usize].push(i as u32);
        cell_of.push(cell);
    }
    let firsts = members.iter().map(|cell| cell[0]).collect();
    let sets = members
        .iter()
        .map(|cell| {
            let mates = cell.iter().map(|&m| &entries[m as usize]);
            Arc::new(ZeroSet::new(mates.map(|e| (e.id, e.point.clone()))))
        })
        .collect();
    (sets, firsts, cell_of)
}

/// Groups `entries` by `key` (of entry `i`: one slot's `N(l,k)` prefix):
/// the entry ids ordered by group, each group in entry order (so the
/// one-draw-per-slot RNG contract picks as a per-group list would), and
/// per cell — given by its first entry — the range of the group its
/// `flipped` key names.
fn slot_groups<K: Hash + Eq>(
    entries: &[NeighborEntry],
    firsts: &[u32],
    key: impl Fn(usize) -> K,
    flipped: impl Fn(usize) -> K,
) -> (Vec<NodeId>, Vec<(u32, u32)>) {
    let mut groups: FastMap<K, u32> = FastMap::default();
    let of: Vec<u32> = (0..entries.len())
        .map(|i| {
            let next = groups.len() as u32;
            *groups.entry(key(i)).or_insert(next)
        })
        .collect();
    // Counting sort by group: `starts[g]..starts[g + 1]` is group `g`.
    let mut starts = vec![0u32; groups.len() + 1];
    for &g in &of {
        starts[g as usize + 1] += 1;
    }
    for g in 0..groups.len() {
        starts[g + 1] += starts[g];
    }
    let mut cursor = starts.clone();
    let mut members = vec![0; entries.len()];
    for (e, &g) in entries.iter().zip(&of) {
        let c = &mut cursor[g as usize];
        members[*c as usize] = e.id;
        *c += 1;
    }
    let ranges = firsts
        .iter()
        .map(|&f| {
            groups.get(&flipped(f as usize)).map_or((0, 0), |&g| {
                let (start, end) = (starts[g as usize], starts[g as usize + 1]);
                (start, end - start)
            })
        })
        .collect();
    (members, ranges)
}

impl OracleWiring {
    /// Indexes `entries` (the whole population, ids distinct) for wiring
    /// against `space`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty.
    pub fn new(space: &Space, entries: Vec<NeighborEntry>) -> Self {
        let packed = space.dims() * space.max_level() as usize <= 64;
        Self::build(space, entries, packed)
    }

    /// [`new`](Self::new) with the key width chosen: `u64`-packed prefixes
    /// or one `Vec` per prefix, which any width fits.
    fn build(space: &Space, entries: Vec<NeighborEntry>, packed: bool) -> Self {
        assert!(!entries.is_empty(), "cannot wire an empty population");
        let d = space.dims();
        let ml = space.max_level();
        let coord = |i: usize| entries[i].coord.indices();
        // Each packed coordinate is read from its node once, not per slot.
        let packed_zeros: Vec<u64> = if packed {
            (0..entries.len())
                .map(|i| packed_zero(coord(i), ml))
                .collect()
        } else {
            Vec::new()
        };
        let (zero, firsts, cell_of) = if packed {
            zero_sets(&entries, |i| packed_zeros[i])
        } else {
            zero_sets(&entries, |i| coord(i).to_vec())
        };
        let slots = d * ml as usize;
        let mut members = Vec::with_capacity(slots);
        let mut ranges = vec![(0, 0); zero.len() * slots];
        for level in 1..=ml {
            for dim in 0..d {
                let (group, cell_ranges) = if packed {
                    // Flip our half along `dim`: the low bit of its field.
                    let field = (d - 1 - dim) as u32 * u32::from(ml);
                    let key = |i: usize| packed_slot(packed_zeros[i], d, level, dim, ml);
                    slot_groups(&entries, &firsts, key, |i| key(i) ^ (1u64 << field))
                } else {
                    let key = |i: usize| wide_slot(coord(i), level, dim);
                    slot_groups(&entries, &firsts, key, |i| {
                        let mut key = key(i);
                        key[dim] ^= 1;
                        key
                    })
                };
                let slot = members.len();
                for (cell, range) in cell_ranges.into_iter().enumerate() {
                    ranges[cell * slots + slot] = range;
                }
                members.push(group);
            }
        }
        OracleWiring {
            entries,
            members,
            zero,
            ranges,
            cell_of,
        }
    }

    /// The indexed population entries, in the order given to
    /// [`new`](Self::new) (the order `wire_table` indexes by).
    pub fn entries(&self) -> &[NeighborEntry] {
        &self.entries
    }

    /// Rewires entry `i`'s routing table from global knowledge: all `C0`
    /// mates (a clone of the cell's shared set), plus one uniformly random
    /// occupant per non-empty `N(l,k)`.
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
        let cell = self.cell_of[i] as usize;
        table.clear();
        table.share_zero(Arc::clone(&self.zero[cell]), self.entries[i].id);
        let slots = self.members.len();
        let ranges = &self.ranges[cell * slots..(cell + 1) * slots];
        for (slot, (&(start, len), group)) in ranges.iter().zip(&self.members).enumerate() {
            if len > 0 {
                let pick = group[start as usize + rng.gen_range(0..len as usize)];
                table.set_slot(slot, pick);
            }
        }
        table.link_count()
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

    /// Oracle wiring hands the members of a `C0` cell one shared set; no
    /// node lists itself, and a write at one member (a timeout's `remove`)
    /// copies before it changes anything, so the others keep the full set.
    #[test]
    fn cell_members_share_one_zero_set_until_written() {
        // 2 × 2 cells: ~25 members each.
        let space = Space::uniform(2, 80, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut nodes = population(&space, 100, 5);
        wire_perfect(&mut nodes, &mut rng);
        let zero = |n: &SelectionNode| -> Vec<NodeId> {
            n.routing().zero_neighbors().map(|(id, _)| id).collect()
        };
        let mates = |i: usize| -> Vec<usize> {
            (0..nodes.len())
                .filter(|&j| nodes[j].coord().same_cell(nodes[i].coord(), 0))
                .collect()
        };
        for i in 0..nodes.len() {
            let me = nodes[i].id();
            assert!(!zero(&nodes[i]).contains(&me), "node {i} lists itself");
            let cell = mates(i);
            assert_eq!(nodes[i].routing().zero_count(), cell.len() - 1);
            for &j in &cell {
                assert!(
                    nodes[i].routing().shares_zero_with(nodes[j].routing()),
                    "nodes {i} and {j} hold separate copies of one cell's set"
                );
            }
        }

        let cell = mates(0);
        assert!(cell.len() >= 3, "the test needs a crowded cell");
        let (writer, victim) = (cell[1], nodes[cell[2]].id());
        let before: Vec<Vec<NodeId>> = cell.iter().map(|&j| zero(&nodes[j])).collect();
        nodes[writer].routing_mut().remove(victim);
        assert!(!zero(&nodes[writer]).contains(&victim));
        assert_eq!(zero(&nodes[writer]).len(), cell.len() - 2);
        assert!(!nodes[writer]
            .routing()
            .shares_zero_with(nodes[cell[0]].routing()));
        for (k, &j) in cell.iter().enumerate().filter(|&(_, &j)| j != writer) {
            assert_eq!(
                zero(&nodes[j]),
                before[k],
                "node {j} saw node {writer}'s remove"
            );
            assert!(nodes[j]
                .routing()
                .shares_zero_with(nodes[cell[0]].routing()));
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
            // Force the wide keys on the same entries for comparison.
            let forced = OracleWiring::build(&space, entries, false);
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
