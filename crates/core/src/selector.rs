use attrspace::Neighborhood;
use epigossip::{Descriptor, NodeId, Scratch, Selector};

use crate::NodeProfile;

/// The [`Selector`] policy that drives the semantic gossip layer for
/// resource selection (§5): instead of a scalar proximity metric, peers are
/// ranked by *which routing slot they can fill*.
///
/// Priorities, in order:
/// 1. every known same-`C0` peer (the protocol's correctness at level 0
///    depends on knowing all of them), up to [`zero_cap`](Self::zero_cap);
/// 2. one peer per neighboring subcell `(l,k)` (round-robin across slots, so
///    coverage is broad before it is deep);
/// 3. additional per-slot spares up to [`per_slot`](Self::per_slot) — these
///    let the routing table replace a failed link instantly;
/// 4. youngest leftovers, which keep gossip exchanges informative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotSelector {
    /// Maximum same-`C0` peers retained (priority 1).
    pub zero_cap: usize,
    /// Candidates kept per `(l,k)` slot (priorities 2–3).
    pub per_slot: usize,
}

impl Default for SlotSelector {
    fn default() -> Self {
        SlotSelector { zero_cap: 8, per_slot: 2 }
    }
}

/// Sort key of one pooled candidate. Keys are ordered twice: first with
/// `group` = the candidate's class (`0` for `C0`, `1 + slot index`
/// otherwise) to rank it among its classmates, then with `group` = its
/// output priority. `tie` keeps both orders total — and equal to what
/// stable per-class sorts of the pool would give — so the unstable sort is
/// deterministic; `pos` is the candidate's index in the pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    group: u32,
    age: u32,
    id: NodeId,
    tie: u32,
    pos: u32,
}

/// Output priority of everything that is neither a prioritised `C0` mate
/// nor one of a slot's first `per_slot` candidates.
const LEFTOVER: u32 = u32::MAX;

impl Selector<NodeProfile> for SlotSelector {
    fn select(
        &self,
        own: &NodeProfile,
        candidates: &mut Vec<Descriptor<NodeProfile>>,
        capacity: usize,
    ) {
        let dims = own.coord().dims();
        let mut keys: Scratch<Key, 48> = candidates
            .iter()
            .enumerate()
            .map(|(pos, d)| {
                let group = match own.coord().classify(d.profile.coord()) {
                    Neighborhood::Zero => 0,
                    Neighborhood::Cell { level, dim } => {
                        1 + ((level as usize - 1) * dims + dim) as u32
                    }
                };
                Key { group, age: d.age, id: d.id, tie: pos as u32, pos: pos as u32 }
            })
            .collect();
        let keys = keys.as_mut_slice();
        // Youngest first within every class: fresher descriptors are
        // likelier alive.
        keys.sort_unstable();

        // C0 mates up to `zero_cap`; then round-robin across slots — rank 0
        // of every slot in (level, dim) order, then rank 1, … — so coverage
        // is broad before it is deep; the rest youngest first.
        let (mut class, mut rank) = (u32::MAX, 0usize);
        for (sorted_at, key) in keys.iter_mut().enumerate() {
            rank = if key.group == class { rank + 1 } else { 0 };
            class = key.group;
            key.tie = sorted_at as u32;
            if class == 0 {
                if rank >= self.zero_cap {
                    key.group = LEFTOVER;
                }
            } else if rank < self.per_slot {
                *key = Key { group: 1 + rank as u32, age: class, id: 0, ..*key };
            } else {
                key.group = LEFTOVER;
            }
        }
        keys.sort_unstable();

        // Move each kept descriptor into place: position `k` takes the
        // candidate that sat at `keys[k].pos`, which an earlier swap may
        // have displaced along the chain of already-final positions.
        for k in 0..keys.len().min(capacity) {
            let mut from = keys[k].pos as usize;
            while from < k {
                from = keys[from].pos as usize;
            }
            candidates.swap(k, from);
        }
        candidates.truncate(capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrspace::Space;

    fn profile(space: &Space, vals: &[u64]) -> NodeProfile {
        NodeProfile::new(space, space.point(vals).expect("coords lie inside the space"))
    }

    fn desc(id: NodeId, space: &Space, vals: &[u64], age: u32) -> Descriptor<NodeProfile> {
        Descriptor { id, profile: profile(space, vals), age }
    }

    #[test]
    fn zero_mates_have_top_priority() {
        let s = Space::uniform(2, 80, 3).expect("valid 2-d space geometry");
        let own = profile(&s, &[5, 5]);
        let sel = SlotSelector { zero_cap: 4, per_slot: 1 };
        let mut cands = vec![
            desc(10, &s, &[6, 6], 0),  // C0 mate
            desc(11, &s, &[7, 3], 1),  // C0 mate
            desc(20, &s, &[75, 5], 0), // N(3,0)
            desc(21, &s, &[5, 75], 0), // N(3,1)
        ];
        // Tiny capacity: C0 mates win, then slots round-robin.
        let mut kept = cands.clone();
        sel.select(&own, &mut kept, 3);
        let ids: Vec<NodeId> = kept.iter().map(|d| d.id).collect();
        assert_eq!(ids, vec![10, 11, 20]);

        // per_slot spares respected with more capacity.
        cands.push(desc(22, &s, &[70, 9], 3)); // also N(3,0), older spare
        let sel = SlotSelector { zero_cap: 4, per_slot: 2 };
        let mut kept = cands;
        sel.select(&own, &mut kept, 10);
        let ids: Vec<NodeId> = kept.iter().map(|d| d.id).collect();
        // zero mates, then rank-0 of each slot (sorted keys: (3,0) before
        // (3,1)), then rank-1 spares.
        assert_eq!(ids, vec![10, 11, 20, 21, 22]);
    }

    #[test]
    fn broad_before_deep() {
        let s = Space::uniform(2, 80, 3).expect("valid 2-d space geometry");
        let own = profile(&s, &[5, 5]);
        let sel = SlotSelector { zero_cap: 0, per_slot: 3 };
        let mut kept = vec![
            desc(1, &s, &[75, 5], 0),
            desc(2, &s, &[70, 9], 1),
            desc(3, &s, &[79, 2], 2),
            desc(4, &s, &[5, 75], 5), // different slot, old
        ];
        sel.select(&own, &mut kept, 2);
        let ids: Vec<NodeId> = kept.iter().map(|d| d.id).collect();
        // One per slot before any spare, despite node 4's age.
        assert_eq!(ids, vec![1, 4]);
    }

    #[test]
    fn zero_cap_bounds_c0_crowd() {
        let s = Space::uniform(2, 80, 3).expect("valid 2-d space geometry");
        let own = profile(&s, &[5, 5]);
        let sel = SlotSelector { zero_cap: 2, per_slot: 1 };
        let mut kept: Vec<_> = (0..6).map(|i| desc(i, &s, &[5 + i % 5, 5], i as u32)).collect();
        sel.select(&own, &mut kept, 6);
        // All six are C0 mates, but only zero_cap get priority; the rest are
        // leftovers and still fill remaining capacity, youngest first.
        assert_eq!(kept.len(), 6);
        assert_eq!(kept[0].id, 0);
        assert_eq!(kept[1].id, 1);
    }

    /// The selection as it was before it worked in place (classify into a
    /// map of per-slot `Vec`s, sort each, round-robin by cloning): the
    /// reference the in-place rewrite is held to, descriptor for descriptor.
    fn select_reference(
        sel: &SlotSelector,
        own: &NodeProfile,
        candidates: Vec<Descriptor<NodeProfile>>,
        capacity: usize,
    ) -> Vec<Descriptor<NodeProfile>> {
        use crate::fasthash::FastMap;
        use attrspace::Level;

        let mut zero: Vec<Descriptor<NodeProfile>> = Vec::new();
        let mut slots: FastMap<(Level, usize), Vec<Descriptor<NodeProfile>>> = FastMap::default();
        for d in candidates {
            match own.coord().classify(d.profile.coord()) {
                Neighborhood::Zero => zero.push(d),
                Neighborhood::Cell { level, dim } => {
                    slots.entry((level, dim)).or_default().push(d);
                }
            }
        }
        zero.sort_by_key(|d| (d.age, d.id));
        for v in slots.values_mut() {
            v.sort_by_key(|d| (d.age, d.id));
        }
        let mut slot_keys: Vec<(Level, usize)> = slots.keys().copied().collect();
        slot_keys.sort_unstable();

        let mut kept: Vec<Descriptor<NodeProfile>> = Vec::with_capacity(capacity);
        let mut leftovers: Vec<Descriptor<NodeProfile>> = Vec::new();

        let zero_take = sel.zero_cap.min(capacity).min(zero.len());
        let mut zero_iter = zero.into_iter();
        for _ in 0..zero_take {
            kept.push(zero_iter.next().expect("bounded by len"));
        }
        leftovers.extend(zero_iter);

        for rank in 0..sel.per_slot {
            for key in &slot_keys {
                let v = slots.get_mut(key).expect("known key");
                if rank < v.len() && kept.len() < capacity {
                    kept.push(v[rank].clone());
                }
            }
        }
        for key in &slot_keys {
            let v = slots.remove(key).expect("known key");
            leftovers.extend(v.into_iter().skip(sel.per_slot));
        }

        leftovers.sort_by_key(|d| (d.age, d.id));
        for d in leftovers {
            if kept.len() >= capacity {
                break;
            }
            kept.push(d);
        }
        kept.truncate(capacity);
        kept
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Same kept descriptors in the same order as the reference,
            /// for pools the gossip layer never builds too: duplicate ids,
            /// equal ages, the selecting node's own id, every `zero_cap`,
            /// `per_slot` and capacity including 0 and past the pool.
            #[test]
            fn in_place_select_equals_reference(
                d in 1usize..4,
                max_level in 1u8..4,
                own_vals in prop::collection::vec(0u64..80, 3),
                pool in prop::collection::vec(
                    (0u64..14, prop::collection::vec(0u64..80, 3), 0u32..4),
                    0..60,
                ),
                zero_cap in 0usize..6,
                per_slot in 0usize..4,
                capacity in 0usize..64,
            ) {
                let s = Space::uniform(d, 80, max_level).unwrap();
                let own = profile(&s, &own_vals[..d]);
                let sel = SlotSelector { zero_cap, per_slot };
                let pool: Vec<_> = pool
                    .iter()
                    .map(|(id, vals, age)| desc(*id, &s, &vals[..d], *age))
                    .collect();
                let expected = select_reference(&sel, &own, pool.clone(), capacity);
                let mut kept = pool;
                sel.select(&own, &mut kept, capacity);
                prop_assert_eq!(kept, expected);
            }
        }
    }
}
