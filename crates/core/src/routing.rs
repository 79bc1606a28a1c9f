// This file defines protocol invariants: every panic site states the
// invariant it relies on (`expect`), tests included.
#![warn(clippy::unwrap_used)]

use std::fmt;

use attrspace::{CellCoord, Level, Neighborhood, Point, Space};
use epigossip::{NodeId, Scratch};
use rand::Rng;

/// A routing-table entry: a peer plus the attribute values it advertised.
///
/// This is the *currency* of bootstrap and observation — the table itself
/// does not store entries. Slots keep only the chosen peer's id (the
/// routing decision needs nothing else), and the `neighborsZero` set keeps
/// `(id, point)` pairs (the fanout matches against points); coordinates
/// are never stored, since a slot peer's coordinate is recomputable and a
/// `C0` mate's coordinate *is* this node's own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborEntry {
    /// The peer's id.
    pub id: NodeId,
    /// The peer's advertised attribute values.
    pub point: Point,
    /// The peer's bucket coordinate.
    pub coord: CellCoord,
}

/// Sentinel for an empty `(l,k)` slot; node ids are dense from zero and
/// never reach it.
const EMPTY: NodeId = NodeId::MAX;

/// The per-node routing state of §4.1: one selected neighbor `n(l,k)` per
/// neighboring subcell `N(l,k)` (empty slots mean no known node in that
/// subcell) plus the `neighborsZero` set of all known same-`C0` nodes.
///
/// The number of slots is `d × max(l)` — linear in the number of dimensions,
/// which is the property that lets the protocol scale to high-dimensional
/// attribute spaces where CAN/Voronoi-style partitioning explodes.
///
/// Storage is struct-of-arrays and id-centric: slots are a bare
/// `Vec<NodeId>` (8 bytes each instead of a ~48-byte `Option<NeighborEntry>`)
/// and the zero set is a sorted id column with a parallel point column —
/// at a million nodes the routing layer's footprint is dominated by what
/// queries actually read, nothing else.
pub struct RoutingTable {
    space: Space,
    own: CellCoord,
    /// Slot `(level-1) * d + dim` holds the chosen neighbor's id in
    /// `N(level,dim)`, or [`EMPTY`].
    slots: Vec<NodeId>,
    /// Ids of all known nodes of this node's own `C0` cell, sorted
    /// ascending (the determinism order the old `BTreeMap` provided).
    zero_ids: Vec<NodeId>,
    /// Advertised points of the `C0` mates, parallel to `zero_ids`.
    zero_points: Vec<Point>,
}

impl fmt::Debug for RoutingTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoutingTable")
            .field("own", &self.own)
            .field("links", &self.link_count())
            .field("zero", &self.zero_ids.len())
            .finish_non_exhaustive()
    }
}

impl RoutingTable {
    /// Creates an empty table for a node at `own` in `space`.
    pub fn new(space: Space, own: CellCoord) -> Self {
        let slots = vec![EMPTY; space.dims() * space.max_level() as usize];
        RoutingTable {
            space,
            own,
            slots,
            zero_ids: Vec::new(),
            zero_points: Vec::new(),
        }
    }

    fn slot_index(&self, level: Level, dim: usize) -> usize {
        debug_assert!(level >= 1 && level <= self.space.max_level());
        debug_assert!(dim < self.space.dims());
        (level as usize - 1) * self.space.dims() + dim
    }

    /// The space this table routes in.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// This node's own coordinate.
    pub fn own_coord(&self) -> &CellCoord {
        &self.own
    }

    /// The chosen neighbor `n(l,k)`, if any node is known in `N(l,k)`.
    pub fn neighbor(&self, level: Level, dim: usize) -> Option<NodeId> {
        let id = self.slots[self.slot_index(level, dim)];
        (id != EMPTY).then_some(id)
    }

    /// The `neighborsZero` set: all known nodes of this node's `C0` cell
    /// with their advertised points, ascending by id.
    pub fn zero_neighbors(&self) -> impl Iterator<Item = (NodeId, &Point)> {
        self.zero_ids.iter().copied().zip(self.zero_points.iter())
    }

    /// Number of same-`C0` links.
    pub fn zero_count(&self) -> usize {
        self.zero_ids.len()
    }

    /// Number of non-empty `(l,k)` slots.
    pub fn slot_count(&self) -> usize {
        self.slots.iter().filter(|&&s| s != EMPTY).count()
    }

    /// Total `(l,k)` slots, filled or not (`d × max(l)`).
    pub fn total_slots(&self) -> usize {
        self.slots.len()
    }

    /// Total links maintained (Fig. 10's metric: slot links + `C0` links).
    pub fn link_count(&self) -> usize {
        self.slot_count() + self.zero_ids.len()
    }

    /// Records a `C0` mate, keeping the id column sorted; a re-observation
    /// refreshes the stored point (last write wins, as the old map did).
    fn upsert_zero(&mut self, id: NodeId, point: Point) {
        match self.zero_ids.binary_search(&id) {
            Ok(i) => self.zero_points[i] = point,
            Err(i) => {
                self.zero_ids.insert(i, id);
                self.zero_points.insert(i, point);
            }
        }
    }

    /// Classifies and records a peer: same-`C0` peers join `neighborsZero`;
    /// others fill their `(l,k)` slot if it is empty. Existing slot holders
    /// are kept (stability); use [`rebuild`](Self::rebuild) for randomized
    /// re-selection.
    pub fn observe(&mut self, id: NodeId, point: Point) {
        let coord = self.space.cell_coord(&point);
        match self.own.classify(&coord) {
            Neighborhood::Zero => self.upsert_zero(id, point),
            Neighborhood::Cell { level, dim } => {
                let idx = self.slot_index(level, dim);
                if self.slots[idx] == EMPTY || self.slots[idx] == id {
                    self.slots[idx] = id;
                }
            }
        }
    }

    /// Empties the whole table.
    pub fn clear(&mut self) {
        self.zero_ids.clear();
        self.zero_points.clear();
        self.slots.fill(EMPTY);
    }

    /// Directly sets the link for slot `(level, dim)` (oracle bootstrap).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the entry does not lie in `N(level, dim)` of this
    /// node.
    pub fn set_neighbor(&mut self, level: Level, dim: usize, entry: &NeighborEntry) {
        debug_assert!(
            self.own.neighboring_cell(level, dim).contains(&entry.coord),
            "entry outside N({level},{dim})"
        );
        let idx = self.slot_index(level, dim);
        self.slots[idx] = entry.id;
    }

    /// Directly inserts a `neighborsZero` member (oracle bootstrap).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the entry is not in this node's `C0` cell.
    pub fn insert_zero(&mut self, entry: &NeighborEntry) {
        debug_assert!(entry.coord.same_cell(&self.own, 0), "entry outside C0");
        self.upsert_zero(entry.id, entry.point.clone());
    }

    /// Removes a peer everywhere (failure suspicion).
    pub fn remove(&mut self, id: NodeId) {
        if let Ok(i) = self.zero_ids.binary_search(&id) {
            self.zero_ids.remove(i);
            self.zero_points.remove(i);
        }
        for s in &mut self.slots {
            if *s == id {
                *s = EMPTY;
            }
        }
    }

    /// Rebuilds the whole table from a candidate set (typically the gossip
    /// semantic view): `neighborsZero` becomes all same-`C0` candidates, and
    /// each `(l,k)` slot keeps its current occupant when still offered,
    /// otherwise picks a *uniformly random* candidate from that subcell —
    /// the randomness that spreads query load across dense cells (§6.4).
    ///
    /// Candidates are borrowed `(id, point, class)` triples, the class being
    /// where the candidate sits relative to this table's own coordinate (the
    /// caller has it from the inline cell codes, see
    /// [`NodeProfile::classify`](crate::NodeProfile::classify)); nothing is
    /// cloned but the points of `C0` mates, which the table keeps. Slots are
    /// visited in index order and draw one `gen_range(0..n)` only where the
    /// holder is gone, picking among the slot's `n` candidates in the order
    /// they were offered.
    ///
    /// Returns the number of `(l,k)` slots whose occupant changed (filled,
    /// emptied, or replaced) — the table-churn signal the observability
    /// layer tracks alongside gossip view turnover.
    pub fn rebuild<'a, R: Rng + ?Sized>(
        &mut self,
        candidates: impl IntoIterator<Item = (NodeId, &'a Point, Neighborhood)>,
        rng: &mut R,
    ) -> usize {
        // `(slot, id)` of every candidate outside `C0` in offer order, and
        // per slot how many were offered and whether its holder was.
        // Call-local on purpose: a per-table buffer would be paid by every
        // node of a static 100 k-node overlay that never gossips.
        let mut offered: Scratch<(u32, NodeId), 32> = Scratch::new();
        let mut count: Scratch<u32, 16> = Scratch::filled(self.slots.len(), 0);
        let mut held: Scratch<bool, 16> = Scratch::filled(self.slots.len(), false);
        self.zero_ids.clear();
        self.zero_points.clear();
        for (id, point, class) in candidates {
            debug_assert_eq!(
                class,
                self.own.classify(&self.space.cell_coord(point)),
                "class of {id}"
            );
            match class {
                Neighborhood::Zero => self.upsert_zero(id, point.clone()),
                Neighborhood::Cell { level, dim } => {
                    let slot = self.slot_index(level, dim);
                    count.as_mut_slice()[slot] += 1;
                    held.as_mut_slice()[slot] |= self.slots[slot] == id;
                    offered.push((slot as u32, id));
                }
            }
        }
        let (count, held) = (count.as_slice(), held.as_slice());
        let mut changed = 0;
        for (slot, holder) in self.slots.iter_mut().enumerate() {
            if count[slot] == 0 {
                if *holder != EMPTY {
                    *holder = EMPTY;
                    changed += 1;
                }
                continue;
            }
            if *holder != EMPTY && held[slot] {
                continue;
            }
            let pick = rng.gen_range(0..count[slot] as usize);
            let mut offers = offered.as_slice().iter().filter(|o| o.0 as usize == slot);
            *holder = offers.nth(pick).expect("counted").1;
            changed += 1;
        }
        changed
    }

    /// Iterates over the filled `(level, dim, id)` slots.
    pub fn filled_slots(&self) -> impl Iterator<Item = (Level, usize, NodeId)> + '_ {
        let d = self.space.dims();
        self.slots
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != EMPTY)
            .map(move |(i, &s)| ((i / d + 1) as Level, i % d, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> Space {
        Space::uniform(2, 80, 3).expect("valid 2-d space geometry")
    }

    fn table_at(vals: [u64; 2]) -> RoutingTable {
        let s = space();
        let own = s.cell_coord(&s.point(&vals).expect("coords lie inside the space"));
        RoutingTable::new(s, own)
    }

    #[test]
    fn observe_routes_to_correct_slot() {
        // Own coord (1,1) in an 8×8 grid.
        let mut t = table_at([15, 15]);
        // Same C0 bucket.
        t.observe(
            2,
            space()
                .point(&[12, 11])
                .expect("coords lie inside the space"),
        );
        assert_eq!(t.zero_count(), 1);
        // Opposite half along dimension 0 → N(3,0).
        t.observe(
            3,
            space()
                .point(&[75, 15])
                .expect("coords lie inside the space"),
        );
        assert_eq!(t.neighbor(3, 0).expect("slot filled by observe"), 3);
        // Same C1, other bucket along dim 1 → N(1,1).
        t.observe(
            4,
            space()
                .point(&[15, 5])
                .expect("coords lie inside the space"),
        );
        assert_eq!(t.neighbor(1, 1).expect("slot filled by observe"), 4);
        assert_eq!(t.link_count(), 3);
    }

    #[test]
    fn observe_keeps_existing_slot_holder() {
        let mut t = table_at([15, 15]);
        t.observe(
            3,
            space()
                .point(&[75, 15])
                .expect("coords lie inside the space"),
        );
        t.observe(
            5,
            space()
                .point(&[70, 10])
                .expect("coords lie inside the space"),
        ); // same subcell N(3,0)
        assert_eq!(
            t.neighbor(3, 0).expect("slot filled by observe"),
            3,
            "first link kept"
        );
    }

    #[test]
    fn observe_refreshes_zero_point_in_place() {
        let s = space();
        let mut t = table_at([15, 15]);
        t.observe(2, s.point(&[12, 11]).expect("coords lie inside the space"));
        let fresh = s.point(&[13, 12]).expect("coords lie inside the space");
        t.observe(2, fresh.clone());
        assert_eq!(
            t.zero_count(),
            1,
            "re-observation is an update, not a duplicate"
        );
        let (id, p) = t.zero_neighbors().next().expect("one zero mate");
        assert_eq!(id, 2);
        assert_eq!(p, &fresh, "stored point refreshed by the later observation");
    }

    #[test]
    fn remove_clears_everywhere() {
        let mut t = table_at([15, 15]);
        t.observe(
            2,
            space()
                .point(&[12, 11])
                .expect("coords lie inside the space"),
        );
        t.observe(
            3,
            space()
                .point(&[75, 15])
                .expect("coords lie inside the space"),
        );
        t.remove(2);
        t.remove(3);
        assert_eq!(t.link_count(), 0);
        assert!(t.neighbor(3, 0).is_none());
    }

    /// `(id, point, class)` offers for `table`, classes from the cell codes
    /// as `SelectionNode::sync_from_view` computes them.
    fn offer(
        table: &RoutingTable,
        entries: &[(NodeId, Vec<u64>)],
    ) -> Vec<(NodeId, Point, Neighborhood)> {
        let (s, own) = (table.space(), table.own_coord());
        entries
            .iter()
            .map(|(id, vals)| {
                let p = s.point(vals).expect("coords lie inside the space");
                let c = s.cell_coord(&p);
                (*id, p, own.classify_coded(own.code(), &c, c.code()))
            })
            .collect()
    }

    #[test]
    fn rebuild_prefers_stability_and_fills_randomly() {
        let s = space();
        let mut t = table_at([15, 15]);
        t.observe(3, s.point(&[75, 15]).expect("coords lie inside the space"));
        let mut rng = StdRng::seed_from_u64(9);
        // Candidates: current holder 3 still present + extra in same subcell.
        let first = offer(
            &t,
            &[(3, vec![75, 15]), (5, vec![70, 10]), (6, vec![12, 11])],
        ); // 6: C0 mate
        t.rebuild(first.iter().map(|(id, p, c)| (*id, p, *c)), &mut rng);
        assert_eq!(
            t.neighbor(3, 0).expect("slot filled by observe"),
            3,
            "stability: holder kept"
        );
        assert_eq!(t.zero_count(), 1);
        // Holder vanishes from candidates → random replacement.
        let second = offer(&t, &[(5, vec![70, 10])]);
        t.rebuild(second.iter().map(|(id, p, c)| (*id, p, *c)), &mut rng);
        assert_eq!(t.neighbor(3, 0).expect("slot filled by observe"), 5);
        assert_eq!(t.zero_count(), 0, "zero set rebuilt from scratch");
    }

    #[test]
    fn filled_slots_reports_level_dim() {
        let s = space();
        let mut t = table_at([15, 15]);
        t.observe(3, s.point(&[75, 15]).expect("coords lie inside the space")); // N(3,0)
        t.observe(4, s.point(&[15, 5]).expect("coords lie inside the space")); // N(1,1)
        let mut got: Vec<(Level, usize, NodeId)> = t.filled_slots().collect();
        got.sort_unstable();
        assert_eq!(got, vec![(1, 1, 4), (3, 0, 3)]);
    }

    impl RoutingTable {
        /// `rebuild` as it was before it borrowed the view and took classes
        /// (owned points, coordinates re-derived and classified, one `Vec`
        /// of candidates per slot): the reference the rewrites are held to —
        /// same table, same `changed`, same RNG draws.
        fn rebuild_reference<R: Rng + ?Sized>(
            &mut self,
            candidates: impl IntoIterator<Item = (NodeId, Point)>,
            rng: &mut R,
        ) -> usize {
            let mut per_slot: Vec<Vec<NodeId>> = vec![Vec::new(); self.slots.len()];
            self.zero_ids.clear();
            self.zero_points.clear();
            for (id, point) in candidates {
                let coord = self.space.cell_coord(&point);
                match self.own.classify(&coord) {
                    Neighborhood::Zero => self.upsert_zero(id, point),
                    Neighborhood::Cell { level, dim } => {
                        per_slot[self.slot_index(level, dim)].push(id);
                    }
                }
            }
            let mut changed = 0;
            for (slot, cands) in self.slots.iter_mut().zip(per_slot) {
                if cands.is_empty() {
                    if *slot != EMPTY {
                        *slot = EMPTY;
                        changed += 1;
                    }
                    continue;
                }
                let keep = *slot != EMPTY && cands.contains(slot);
                if !keep {
                    *slot = cands[rng.gen_range(0..cands.len())];
                    changed += 1;
                }
            }
            changed
        }
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;
        use rand::RngCore;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// A chain of rebuilds (so holders exist, survive and vanish)
            /// leaves the same slots, zero set and `changed` as the
            /// reference and the RNG at the same point of its stream —
            /// duplicate ids, an id offered at two places, more candidates
            /// than the inline scratch holds, empty offers and spaces wider
            /// than a 64-bit cell code included.
            #[test]
            fn class_fed_rebuild_equals_reference(
                d in 1usize..=24,
                max_level in 1u8..4,
                own_vals in prop::collection::vec(0u64..80, 24),
                offers in prop::collection::vec(
                    prop::collection::vec((0u64..30, prop::collection::vec(0u64..80, 24)), 0..50),
                    1..5,
                ),
                seed in 0u64..1000,
            ) {
                let s = Space::uniform(d, 80, max_level).expect("valid space geometry");
                let own = s.cell_coord(&s.point(&own_vals[..d]).expect("coords lie inside the space"));
                let mut table = RoutingTable::new(s.clone(), own.clone());
                let mut reference = RoutingTable::new(s.clone(), own);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut reference_rng = StdRng::seed_from_u64(seed);
                for offer in &offers {
                    // One attribute in two takes the node's own value, so
                    // `C0` mates and low-level slots turn up.
                    let offer: Vec<(NodeId, Vec<u64>)> = offer
                        .iter()
                        .map(|(id, vals)| {
                            let vals = vals[..d]
                                .iter()
                                .zip(&own_vals)
                                .map(|(&v, &o)| if v % 2 == 0 { o } else { v })
                                .collect();
                            (*id, vals)
                        })
                        .collect();
                    let offer = super::offer(&table, &offer);
                    let changed = table.rebuild(offer.iter().map(|(id, p, c)| (*id, p, *c)), &mut rng);
                    let expected = reference.rebuild_reference(
                        offer.iter().map(|(id, p, _)| (*id, p.clone())),
                        &mut reference_rng,
                    );
                    prop_assert_eq!(changed, expected);
                    prop_assert_eq!(&table.slots, &reference.slots);
                    prop_assert_eq!(&table.zero_ids, &reference.zero_ids);
                    prop_assert_eq!(&table.zero_points, &reference.zero_points);
                    prop_assert_eq!(rng.next_u64(), reference_rng.next_u64(), "draw pattern diverged");
                }
            }
        }
    }
}
