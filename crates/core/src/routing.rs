// This file defines protocol invariants: every panic site states the
// invariant it relies on (`expect`), tests included.
#![warn(clippy::unwrap_used)]

use std::fmt;
use std::sync::Arc;

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

/// The class of a peer at `n` from a node of a `dims`-dimensional space:
/// `0` for a `C0` mate, else 1 + the routing slot `(level − 1) · dims +
/// dim` it can fill. What [`SlotSelector`](crate::SlotSelector) ranks by
/// and the semantic view keeps beside each entry, so
/// [`RoutingTable::rebuild`] takes it as it is.
pub fn slot_class(n: Neighborhood, dims: usize) -> u64 {
    match n {
        Neighborhood::Zero => 0,
        Neighborhood::Cell { level, dim } => 1 + ((level as usize - 1) * dims + dim) as u64,
    }
}

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
/// and the zero set is an id column with a parallel point column behind an
/// `Arc`, which oracle wiring shares across a `C0` cell — at a million
/// nodes the routing layer's footprint is dominated by what queries
/// actually read, nothing else.
pub struct RoutingTable {
    space: Space,
    own: CellCoord,
    /// Slot `(level-1) * d + dim` holds the chosen neighbor's id in
    /// `N(level,dim)`, or [`EMPTY`].
    slots: Vec<NodeId>,
    /// The `neighborsZero` set; `None` until the first mate is recorded.
    /// Oracle wiring hands every member of a `C0` cell a clone of one
    /// cell-wide set, so a write first takes a private copy
    /// ([`zero_mut`](Self::zero_mut)).
    zero: Option<Arc<ZeroSet>>,
    /// The id `zero` lists but this table does not: its owner's, while
    /// `zero` is a cell's shared set, [`EMPTY`] otherwise.
    zero_skip: NodeId,
}

/// The ids of a `neighborsZero` set, ascending (the determinism order the
/// old `BTreeMap` provided), with the advertised points alongside.
#[derive(Debug, Clone, Default)]
pub(crate) struct ZeroSet {
    ids: Vec<NodeId>,
    points: Vec<Point>,
}

impl ZeroSet {
    /// The set of `mates` (distinct ids, any order).
    pub(crate) fn new(mates: impl IntoIterator<Item = (NodeId, Point)>) -> Self {
        let mut mates: Vec<(NodeId, Point)> = mates.into_iter().collect();
        mates.sort_unstable_by_key(|&(id, _)| id);
        debug_assert!(mates.windows(2).all(|w| w[0].0 < w[1].0), "ids repeat");
        let (ids, points) = mates.into_iter().unzip();
        ZeroSet { ids, points }
    }

    fn contains(&self, id: NodeId) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Records a mate, keeping the id column sorted; a re-observation
    /// refreshes the stored point (last write wins, as the old map did).
    fn upsert(&mut self, id: NodeId, point: Point) {
        match self.ids.binary_search(&id) {
            Ok(i) => self.points[i] = point,
            Err(i) => {
                self.ids.insert(i, id);
                self.points.insert(i, point);
            }
        }
    }

    fn remove(&mut self, id: NodeId) {
        if let Ok(i) = self.ids.binary_search(&id) {
            self.ids.remove(i);
            self.points.remove(i);
        }
    }
}

impl fmt::Debug for RoutingTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoutingTable")
            .field("own", &self.own)
            .field("links", &self.link_count())
            .field("zero", &self.zero_count())
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
            zero: None,
            zero_skip: EMPTY,
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
        let (ids, points) = match self.zero.as_deref() {
            Some(z) => (&z.ids[..], &z.points[..]),
            None => (&[][..], &[][..]),
        };
        let skip = self.zero_skip;
        ids.iter()
            .copied()
            .zip(points)
            .filter(move |&(id, _)| id != skip)
    }

    /// Number of same-`C0` links.
    pub fn zero_count(&self) -> usize {
        let listed = self.zero.as_ref().map_or(0, |z| z.ids.len());
        listed - usize::from(self.zero_skip != EMPTY)
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
        self.slot_count() + self.zero_count()
    }

    /// Makes the zero set a cell's shared `set`, which lists `owner` (this
    /// table's node) among the mates; the table skips it (oracle
    /// bootstrap).
    pub(crate) fn share_zero(&mut self, set: Arc<ZeroSet>, owner: NodeId) {
        debug_assert!(set.contains(owner), "{owner} is not a member");
        self.zero_skip = owner;
        self.zero = Some(set);
    }

    /// Whether this table's zero set is the very allocation `other`'s is.
    #[cfg(test)]
    pub(crate) fn shares_zero_with(&self, other: &RoutingTable) -> bool {
        matches!((&self.zero, &other.zero), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }

    /// The zero set, made this table's own for writing: a shared set is
    /// copied (without the skipped id) first, a private one is written in
    /// place. Shared or private is the `Arc`'s refcount, not a second path.
    fn zero_mut(&mut self) -> &mut ZeroSet {
        let skip = std::mem::replace(&mut self.zero_skip, EMPTY);
        let set = Arc::make_mut(self.zero.get_or_insert_with(Arc::default));
        if skip != EMPTY {
            set.remove(skip);
        }
        set
    }

    /// Empties the zero set, keeping a private set's buffers.
    fn clear_zero(&mut self) {
        self.zero_skip = EMPTY;
        match self.zero.as_mut().and_then(Arc::get_mut) {
            Some(set) => {
                set.ids.clear();
                set.points.clear();
            }
            None => self.zero = None,
        }
    }

    /// Classifies and records a peer: same-`C0` peers join `neighborsZero`;
    /// others fill their `(l,k)` slot if it is empty. Existing slot holders
    /// are kept (stability); use [`rebuild`](Self::rebuild) for randomized
    /// re-selection.
    pub fn observe(&mut self, id: NodeId, point: Point) {
        let coord = self.space.cell_coord(&point);
        match self.own.classify(&coord) {
            Neighborhood::Zero => self.zero_mut().upsert(id, point),
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
        self.clear_zero();
        self.slots.fill(EMPTY);
    }

    /// Directly sets the link of slot `(level-1)·d + dim` to `id` (oracle
    /// bootstrap, which resolved the subcell itself).
    pub(crate) fn set_slot(&mut self, slot: usize, id: NodeId) {
        self.slots[slot] = id;
    }

    /// Directly inserts a `neighborsZero` member (oracle bootstrap).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the entry is not in this node's `C0` cell.
    pub fn insert_zero(&mut self, entry: &NeighborEntry) {
        debug_assert!(entry.coord.same_cell(&self.own, 0), "entry outside C0");
        self.zero_mut().upsert(entry.id, entry.point.clone());
    }

    /// Removes a peer everywhere (failure suspicion).
    pub fn remove(&mut self, id: NodeId) {
        let listed = self.zero.as_ref().is_some_and(|z| z.contains(id));
        if listed && id != self.zero_skip {
            self.zero_mut().remove(id);
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
    /// the candidate's [`slot_class`] from this table's own coordinate (the
    /// semantic view keeps it beside each entry); nothing is cloned but the
    /// points of `C0` mates, which the table keeps. Slots are visited in
    /// index order and draw one `gen_range(0..n)` only where the holder is
    /// gone, picking among the slot's `n` candidates in the order they were
    /// offered (a second pass over the candidates, so they are `Clone`). So a rebuild from the candidates of the last rebuild, with
    /// the table untouched since, draws nothing and changes nothing.
    ///
    /// Returns the number of `(l,k)` slots whose occupant changed (filled,
    /// emptied, or replaced) — the table-churn signal the observability
    /// layer tracks alongside gossip view turnover.
    pub fn rebuild<'a, R, C>(&mut self, candidates: C, rng: &mut R) -> usize
    where
        R: Rng + ?Sized,
        C: IntoIterator<Item = (NodeId, &'a Point, u64)> + Clone,
    {
        // Per slot, how many candidates were offered and whether its holder
        // was. Call-local on purpose: a per-table buffer would be paid by
        // every node of a static 100 k-node overlay that never gossips.
        let mut count: Scratch<u32, 16> = Scratch::filled(self.slots.len(), 0);
        let mut held: Scratch<bool, 16> = Scratch::filled(self.slots.len(), false);
        let (count, held) = (count.as_mut_slice(), held.as_mut_slice());
        self.clear_zero();
        for (id, point, class) in candidates.clone() {
            debug_assert_eq!(
                class,
                slot_class(
                    self.own.classify(&self.space.cell_coord(point)),
                    self.space.dims()
                ),
                "class of {id}"
            );
            let Some(slot) = (class as usize).checked_sub(1) else {
                self.zero_mut().upsert(id, point.clone());
                continue;
            };
            count[slot] += 1;
            held[slot] |= self.slots[slot] == id;
        }
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
            let class = slot as u64 + 1;
            let mut offers = candidates.clone().into_iter().filter(|o| o.2 == class);
            *holder = offers.nth(pick).expect("counted").0;
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
    /// as the semantic view keeps them.
    fn offer(table: &RoutingTable, entries: &[(NodeId, Vec<u64>)]) -> Vec<(NodeId, Point, u64)> {
        let (s, own) = (table.space(), table.own_coord());
        entries
            .iter()
            .map(|(id, vals)| {
                let p = s.point(vals).expect("coords lie inside the space");
                let c = s.cell_coord(&p);
                let n = own.classify_coded(own.code(), &c, c.code());
                (*id, p, slot_class(n, s.dims()))
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

    /// The routing table as it was before the zero set could be shared:
    /// private sorted `Vec` columns, and `rebuild` as it was before it
    /// borrowed the view and took classes (owned points, coordinates
    /// re-derived and classified, one `Vec` of candidates per slot). The
    /// reference the rewrites are held to — same links in the same order,
    /// same `changed`, same RNG draws.
    struct VecTable {
        space: Space,
        own: CellCoord,
        slots: Vec<NodeId>,
        zero_ids: Vec<NodeId>,
        zero_points: Vec<Point>,
    }

    impl VecTable {
        fn new(space: Space, own: CellCoord) -> Self {
            let slots = vec![EMPTY; space.dims() * space.max_level() as usize];
            VecTable {
                space,
                own,
                slots,
                zero_ids: Vec::new(),
                zero_points: Vec::new(),
            }
        }

        fn slot_index(&self, level: Level, dim: usize) -> usize {
            (level as usize - 1) * self.space.dims() + dim
        }

        fn upsert_zero(&mut self, id: NodeId, point: Point) {
            match self.zero_ids.binary_search(&id) {
                Ok(i) => self.zero_points[i] = point,
                Err(i) => {
                    self.zero_ids.insert(i, id);
                    self.zero_points.insert(i, point);
                }
            }
        }

        fn observe(&mut self, id: NodeId, point: Point) {
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

        fn clear(&mut self) {
            self.zero_ids.clear();
            self.zero_points.clear();
            self.slots.fill(EMPTY);
        }

        fn remove(&mut self, id: NodeId) {
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

        fn rebuild<R: Rng + ?Sized>(
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

        fn zero_neighbors(&self) -> Vec<(NodeId, Point)> {
            self.zero_ids
                .iter()
                .copied()
                .zip(self.zero_points.iter().cloned())
                .collect()
        }

        fn link_count(&self) -> usize {
            self.slots.iter().filter(|&&s| s != EMPTY).count() + self.zero_ids.len()
        }
    }

    fn zero_list(t: &RoutingTable) -> Vec<(NodeId, Point)> {
        t.zero_neighbors().map(|(id, p)| (id, p.clone())).collect()
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;
        use rand::RngCore;

        /// One write to a zero set, in the vocabulary of its callers:
        /// oracle wiring (`Share` = `clear` + hand over the cell's set),
        /// bootstrap, observation, failure handling and gossip.
        #[derive(Debug, Clone)]
        enum Op {
            /// Wire the table to a shared set of the owner and the `C0`
            /// population members picked by the mask.
            Share(u16),
            InsertZero(u64),
            /// Observe a member, at its own point or (`true`) at another
            /// point of the same cell.
            Observe(u64, bool),
            Remove(u64),
            /// Rebuild from the members picked by the mask.
            Rebuild(u16),
            Clear,
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                any::<u16>().prop_map(Op::Share),
                (0u64..16).prop_map(Op::InsertZero),
                (0u64..16, any::<bool>()).prop_map(|(id, alt)| Op::Observe(id, alt)),
                (0u64..16).prop_map(Op::Remove),
                any::<u16>().prop_map(Op::Rebuild),
                Just(Op::Clear),
            ]
        }

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
                let mut reference = VecTable::new(s.clone(), own);
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
                    let expected = reference.rebuild(
                        offer.iter().map(|(id, p, _)| (*id, p.clone())),
                        &mut reference_rng,
                    );
                    prop_assert_eq!(changed, expected);
                    prop_assert_eq!(&table.slots, &reference.slots);
                    prop_assert_eq!(zero_list(&table), reference.zero_neighbors());
                    prop_assert_eq!(rng.next_u64(), reference_rng.next_u64(), "draw pattern diverged");
                }
            }

            /// Any sequence of writes leaves a table whose zero set starts
            /// shared exactly where the reference's private `Vec`s are —
            /// same mates in the same order, same counts, same `changed`,
            /// same RNG draws — and never reaches the table it shares with:
            /// a sibling wired to the same set keeps seeing it unchanged.
            #[test]
            fn shared_zero_set_equals_private_reference(
                d in 1usize..=3,
                member_vals in prop::collection::vec(prop::collection::vec(0u64..80, 3), 16),
                in_cell in any::<u16>(),
                ops in prop::collection::vec(op(), 1..40),
                seed in 0u64..1000,
            ) {
                let s = Space::uniform(d, 80, 3).expect("valid space geometry");
                // Member 0 owns the table, member 1 the sibling; the members
                // picked by `in_cell` (and both owners) sit in their `C0`
                // cell, [10, 20) on every attribute, the rest anywhere.
                let point = |vals: &[u64]| s.point(&vals[..d]).expect("coords lie inside the space");
                let members: Vec<Point> = member_vals
                    .iter()
                    .enumerate()
                    .map(|(id, vals)| {
                        let inside = id < 2 || in_cell >> id & 1 == 1;
                        let vals: Vec<u64> =
                            vals.iter().map(|&v| if inside { 10 + v % 10 } else { v }).collect();
                        point(&vals)
                    })
                    .collect();
                let moved = |id: usize| {
                    let vals: Vec<u64> = member_vals[id].iter().map(|&v| 10 + (v + 3) % 10).collect();
                    point(&vals)
                };
                let own = s.cell_coord(&members[0]);
                let in_c0 = |p: &Point| s.cell_coord(p).same_cell(&own, 0);
                let mut table = RoutingTable::new(s.clone(), own.clone());
                let mut sibling = RoutingTable::new(s.clone(), own.clone());
                let mut reference = VecTable::new(s.clone(), own.clone());
                let mut sibling_reference = VecTable::new(s.clone(), own.clone());
                let mut rng = StdRng::seed_from_u64(seed);
                let mut reference_rng = StdRng::seed_from_u64(seed);
                for op in ops {
                    match op {
                        Op::Share(mask) => {
                            let mates: Vec<NodeId> = (0..16u64)
                                .filter(|&id| id < 2 || mask >> id & 1 == 1)
                                .filter(|&id| in_c0(&members[id as usize]))
                                .collect();
                            let set = Arc::new(ZeroSet::new(
                                mates.iter().map(|&id| (id, members[id as usize].clone())),
                            ));
                            for (t, r, owner) in [
                                (&mut table, &mut reference, 0),
                                (&mut sibling, &mut sibling_reference, 1),
                            ] {
                                t.clear();
                                t.share_zero(Arc::clone(&set), owner);
                                r.clear();
                                for &id in mates.iter().filter(|&&id| id != owner) {
                                    r.upsert_zero(id, members[id as usize].clone());
                                }
                            }
                            prop_assert!(Arc::ptr_eq(
                                table.zero.as_ref().expect("shared"),
                                sibling.zero.as_ref().expect("shared"),
                            ));
                        }
                        Op::InsertZero(id) => {
                            let p = &members[id as usize];
                            if in_c0(p) {
                                let entry = NeighborEntry { id, point: p.clone(), coord: s.cell_coord(p) };
                                table.insert_zero(&entry);
                                reference.upsert_zero(id, p.clone());
                            }
                        }
                        Op::Observe(id, alt) => {
                            let p = if alt && in_c0(&members[id as usize]) {
                                moved(id as usize)
                            } else {
                                members[id as usize].clone()
                            };
                            table.observe(id, p.clone());
                            reference.observe(id, p);
                        }
                        Op::Remove(id) => {
                            table.remove(id);
                            reference.remove(id);
                        }
                        Op::Rebuild(mask) => {
                            let picked: Vec<(NodeId, Vec<u64>)> = (0..16u64)
                                .filter(|&id| mask >> id & 1 == 1)
                                .map(|id| (id, members[id as usize].values()[..d].to_vec()))
                                .collect();
                            let offer = super::offer(&table, &picked);
                            let changed = table.rebuild(offer.iter().map(|(id, p, c)| (*id, p, *c)), &mut rng);
                            let expected = reference.rebuild(
                                offer.iter().map(|(id, p, _)| (*id, p.clone())),
                                &mut reference_rng,
                            );
                            prop_assert_eq!(changed, expected);
                        }
                        Op::Clear => {
                            table.clear();
                            reference.clear();
                        }
                    }
                    prop_assert_eq!(zero_list(&table), reference.zero_neighbors());
                    prop_assert_eq!(table.zero_count(), reference.zero_ids.len());
                    prop_assert_eq!(table.link_count(), reference.link_count());
                    prop_assert_eq!(&table.slots, &reference.slots);
                    prop_assert_eq!(zero_list(&sibling), sibling_reference.zero_neighbors());
                    prop_assert_eq!(sibling.zero_count(), sibling_reference.zero_ids.len());
                    prop_assert_eq!(rng.next_u64(), reference_rng.next_u64(), "draw pattern diverged");
                }
            }
        }
    }
}
