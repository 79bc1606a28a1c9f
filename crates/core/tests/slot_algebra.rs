//! Property tests of the [`RoutingTable`] "slot algebra" (§4.1): for *any*
//! observation history over *any* space shape,
//!
//! * at most one chosen neighbor `n(l,k)` exists per neighboring subcell
//!   `N(l,k)` — the `d × max(l)` slot bound that keeps per-node state
//!   linear in the number of dimensions;
//! * every filled slot's occupant actually lies in the `N(l,k)` it was
//!   filed under;
//! * the `neighborsZero` set never contains a node outside the owner's own
//!   `C0` cell (nor the owner itself filed as its own neighbor's peer id —
//!   ids are free, but the coordinate constraint must hold).
//!
//! These hold by construction of `observe`/`rebuild`/`set_neighbor`; the
//! point of the suite is that no *sequence* of observations, removals and
//! rebuilds can break them.

#![allow(clippy::disallowed_types)] // std-collections: test code; std sets only compare contents

use attrspace::{CellCoord, Neighborhood, Space};
use autosel_core::RoutingTable;
use epigossip::NodeId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Asserts the full slot algebra on a table. Slots store only ids now, so
/// the "occupant really lies in N(l,k)" check consults `universe` — every
/// `(id, point)` pair the table has ever been offered: some offering of
/// the holder's id must classify into the slot it occupies.
fn assert_slot_algebra(t: &RoutingTable, universe: &[(NodeId, attrspace::Point)]) {
    let space = t.space();
    let own = t.own_coord();
    let bound = space.dims() * space.max_level() as usize;

    assert!(
        t.slot_count() <= bound,
        "slot bound d*max(l) = {bound} exceeded"
    );
    assert_eq!(t.link_count(), t.slot_count() + t.zero_count());

    // Each filled slot is occupied by a node genuinely offered for N(l,k),
    // and no (l,k) appears twice (filled_slots enumerates distinct indices,
    // so duplicates would show as a count mismatch).
    let mut seen = std::collections::HashSet::new();
    for (level, dim, id) in t.filled_slots() {
        assert!(
            seen.insert((level, dim)),
            "two occupants for N({level},{dim})"
        );
        assert!(
            universe.iter().any(|(uid, p)| *uid == id
                && own.classify(&space.cell_coord(p)) == Neighborhood::Cell { level, dim }),
            "slot ({level},{dim}) holds node {id}, never offered for that subcell"
        );
    }
    assert_eq!(seen.len(), t.slot_count());

    // The zero set stays within the owner's own C0 cell — checkable from
    // the stored points directly.
    for (id, point) in t.zero_neighbors() {
        assert!(
            space.cell_coord(point).same_cell(own, 0),
            "neighborsZero contains {id} at {point:?}, outside own C0 {own:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Observing arbitrary peers in arbitrary order preserves the algebra,
    /// and removals never leave a stale reference behind.
    #[test]
    fn observe_and_remove_preserve_slot_algebra(
        d in 1usize..5,
        max_level in 1u8..4,
        own_vals in prop::collection::vec(0u64..80, 4),
        peers in prop::collection::vec((0u64..1000, prop::collection::vec(0u64..80, 4)), 0..60),
        remove_every in 1usize..5,
    ) {
        let space = Space::uniform(d, 80, max_level).unwrap();
        let own_point = space.point(&own_vals[..d]).unwrap();
        let own = space.cell_coord(&own_point);
        let mut t = RoutingTable::new(space.clone(), own);

        let mut offered: Vec<(NodeId, attrspace::Point)> = Vec::new();
        for (i, (id, vals)) in peers.iter().enumerate() {
            let p = space.point(&vals[..d]).unwrap();
            offered.push((*id as NodeId, p.clone()));
            t.observe(*id as NodeId, p);
            assert_slot_algebra(&t, &offered);
            if i % remove_every == 0 {
                t.remove(*id as NodeId);
                assert_slot_algebra(&t, &offered);
                prop_assert!(
                    t.filled_slots().all(|(_, _, sid)| sid != *id as NodeId),
                    "removed id still holds a slot"
                );
                prop_assert!(t.zero_neighbors().all(|(zid, _)| zid != *id as NodeId));
            }
        }
    }

    /// `rebuild` from an arbitrary candidate set lands every candidate in
    /// the right place (or drops it), keeps current holders when still
    /// offered, and leaves the algebra intact; `clear` empties everything.
    #[test]
    fn rebuild_preserves_slot_algebra_and_stability(
        d in 1usize..4,
        max_level in 1u8..4,
        own_vals in prop::collection::vec(0u64..80, 3),
        first in prop::collection::vec((0u64..500, prop::collection::vec(0u64..80, 3)), 0..40),
        second in prop::collection::vec((0u64..500, prop::collection::vec(0u64..80, 3)), 0..40),
        seed in 0u64..1000,
    ) {
        let space = Space::uniform(d, 80, max_level).unwrap();
        let own_point = space.point(&own_vals[..d]).unwrap();
        let own_coord = space.cell_coord(&own_point);
        let mut t = RoutingTable::new(space.clone(), own_coord.clone());
        let mut rng = StdRng::seed_from_u64(seed);

        let to_entries = |set: &[(u64, Vec<u64>)]| -> Vec<(NodeId, attrspace::Point)> {
            set.iter()
                .map(|(id, vals)| (*id as NodeId, space.point(&vals[..d]).unwrap()))
                .collect()
        };

        let offer = |set: &[(NodeId, attrspace::Point)]| -> Vec<(NodeId, attrspace::Point, CellCoord)> {
            set.iter().map(|(id, p)| (*id, p.clone(), space.cell_coord(p))).collect()
        };
        let offered = offer(&to_entries(&first));
        t.rebuild(offered.iter().map(|(id, p, c)| (*id, p, own_coord.classify(c))), &mut rng);
        assert_slot_algebra(&t, &to_entries(&first));
        // Every same-C0 candidate must be in the zero set (no candidate is
        // silently dropped from its own cell) with last-write-wins points.
        let expected_zero: std::collections::HashSet<NodeId> = to_entries(&first)
            .into_iter()
            .filter(|(_, p)| space.cell_coord(p).same_cell(&own_coord, 0))
            .map(|(id, _)| id)
            .collect();
        let got_zero: std::collections::HashSet<NodeId> =
            t.zero_neighbors().map(|(id, _)| id).collect();
        prop_assert_eq!(got_zero, expected_zero);

        // Stability: a holder still offered in the second candidate set
        // keeps its slot.
        let held: Vec<(u8, usize, NodeId)> = t.filled_slots().collect();
        let offered = offer(&to_entries(&second));
        t.rebuild(offered.iter().map(|(id, p, c)| (*id, p, own_coord.classify(c))), &mut rng);
        assert_slot_algebra(&t, &to_entries(&second));
        for (l, k, id) in held {
            if second.iter().any(|(sid, _)| *sid as NodeId == id) {
                // The old holder is among the new candidates; it can only
                // keep the slot if it still classifies there (same id may
                // reappear at a different point).
                if let Some(cur) = t.neighbor(l, k) {
                    let offered_same_place = to_entries(&second).iter().any(|(sid, p)| {
                        *sid == id
                            && t.own_coord().classify(&space.cell_coord(p))
                                == Neighborhood::Cell { level: l, dim: k }
                    });
                    if offered_same_place {
                        prop_assert_eq!(cur, id, "stable holder evicted from N({},{})", l, k);
                    }
                }
            }
        }

        t.clear();
        prop_assert_eq!(t.link_count(), 0);
        assert_slot_algebra(&t, &[]);
    }
}
