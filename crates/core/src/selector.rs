use attrspace::Neighborhood;
use epigossip::{sort_smallest, Descriptor, NodeId, Ranking, Scratch, Selector};

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
        SlotSelector {
            zero_cap: 8,
            per_slot: 2,
        }
    }
}

/// Inline sizes of the per-call scratch, at the paper's defaults (`d = 5`,
/// `max(l) = 3`, a pool of one view plus one CYCLON view): rows for
/// `zero_cap + 15 · per_slot` = 38 candidates, 16 classes, ≤ 48 pooled,
/// and the leftovers that reach the partial sort.
const ROWS: usize = 40;
const CLASSES: usize = 16;
const POOL: usize = 48;
const LEFTOVERS: usize = 32;

impl Selector<NodeProfile> for SlotSelector {
    /// One pass over the pool: each candidate's class (`0` for `C0`,
    /// `1 + slot index` otherwise) comes from the inline cell codes, and
    /// each class keeps its best `per_slot` (`zero_cap` for `C0`)
    /// candidates by `(age, id)` — youngest first, fresher descriptors are
    /// likelier alive, the earlier one winning a tie — in a small sorted
    /// row. Out come the `C0` row, then round-robin across slots — rank 0
    /// of every slot in (level, dim) order, then rank 1, … — so coverage is
    /// broad before it is deep; only if the rows leave capacity unfilled
    /// are the rest partially sorted by `(age, id, class, position)`.
    fn rank(
        &self,
        own: &NodeProfile,
        pool: &[&Descriptor<NodeProfile>],
        capacity: usize,
    ) -> Ranking {
        let dims = own.coord().dims();
        let slots = dims * own.coord().max_level() as usize;
        let class_of = |d: &Descriptor<NodeProfile>| match own.classify(&d.profile) {
            Neighborhood::Zero => 0,
            Neighborhood::Cell { level, dim } => 1 + (level as usize - 1) * dims + dim,
        };
        let row_start = |class: usize| match class {
            0 => 0,
            _ => self.zero_cap + (class - 1) * self.per_slot,
        };
        let row_cap = |class: usize| {
            if class == 0 {
                self.zero_cap
            } else {
                self.per_slot
            }
        };
        let key = |at: u32| (pool[at as usize].age, pool[at as usize].id);

        let mut rows: Scratch<u32, ROWS> = Scratch::filled(row_start(1 + slots), 0);
        let mut lens: Scratch<u32, CLASSES> = Scratch::filled(1 + slots, 0);
        for (at, d) in pool.iter().enumerate() {
            let class = class_of(d);
            let (start, cap) = (row_start(class), row_cap(class));
            let row = &mut rows.as_mut_slice()[start..start + cap];
            let len = lens.as_slice()[class] as usize;
            let mut i = len;
            while i > 0 && (d.age, d.id) < key(row[i - 1]) {
                i -= 1;
            }
            if i == cap {
                continue;
            }
            let len = (len + 1).min(cap);
            row.copy_within(i..len - 1, i + 1);
            row[i] = at as u32;
            lens.as_mut_slice()[class] = len as u32;
        }
        let (rows, lens) = (rows.as_slice(), lens.as_slice());
        let row = |class: usize| &rows[row_start(class)..row_start(class) + lens[class] as usize];

        let mut kept = Ranking::new();
        for &at in row(0).iter().take(capacity) {
            kept.push(at);
        }
        'ranks: for rank in 0..self.per_slot {
            for class in 1..=slots {
                if kept.len() == capacity {
                    break 'ranks;
                }
                if let Some(&at) = row(class).get(rank) {
                    kept.push(at);
                }
            }
        }
        if kept.len() == capacity {
            return kept;
        }

        let mut in_row: Scratch<bool, POOL> = Scratch::filled(pool.len(), false);
        for class in 0..=slots {
            for &at in row(class) {
                in_row.as_mut_slice()[at as usize] = true;
            }
        }
        let mut rest: Scratch<(u32, NodeId, u32, u32), LEFTOVERS> = Scratch::new();
        for (at, d) in pool.iter().enumerate() {
            if !in_row.as_slice()[at] {
                rest.push((d.age, d.id, class_of(d) as u32, at as u32));
            }
        }
        for leftover in sort_smallest(rest.as_mut_slice(), capacity - kept.len()).iter() {
            kept.push(leftover.3);
        }
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrspace::Space;

    fn profile(space: &Space, vals: &[u64]) -> NodeProfile {
        NodeProfile::new(
            space,
            space.point(vals).expect("coords lie inside the space"),
        )
    }

    fn desc(id: NodeId, space: &Space, vals: &[u64], age: u32) -> Descriptor<NodeProfile> {
        Descriptor {
            id,
            profile: profile(space, vals),
            age,
        }
    }

    /// What the gossip layer keeps of `pool`: the ranked descriptors, best
    /// first.
    fn select(
        sel: &SlotSelector,
        own: &NodeProfile,
        pool: &[Descriptor<NodeProfile>],
        capacity: usize,
    ) -> Vec<Descriptor<NodeProfile>> {
        let refs: Vec<&Descriptor<NodeProfile>> = pool.iter().collect();
        let ranking = sel.rank(own, &refs, capacity);
        ranking
            .as_slice()
            .iter()
            .map(|&at| pool[at as usize].clone())
            .collect()
    }

    fn ids(kept: &[Descriptor<NodeProfile>]) -> Vec<NodeId> {
        kept.iter().map(|d| d.id).collect()
    }

    #[test]
    fn zero_mates_have_top_priority() {
        let s = Space::uniform(2, 80, 3).expect("valid 2-d space geometry");
        let own = profile(&s, &[5, 5]);
        let sel = SlotSelector {
            zero_cap: 4,
            per_slot: 1,
        };
        let mut cands = vec![
            desc(10, &s, &[6, 6], 0),  // C0 mate
            desc(11, &s, &[7, 3], 1),  // C0 mate
            desc(20, &s, &[75, 5], 0), // N(3,0)
            desc(21, &s, &[5, 75], 0), // N(3,1)
        ];
        // Tiny capacity: C0 mates win, then slots round-robin.
        assert_eq!(ids(&select(&sel, &own, &cands, 3)), vec![10, 11, 20]);

        // per_slot spares respected with more capacity.
        cands.push(desc(22, &s, &[70, 9], 3)); // also N(3,0), older spare
        let sel = SlotSelector {
            zero_cap: 4,
            per_slot: 2,
        };
        // zero mates, then rank-0 of each slot ((3,0) before (3,1)), then
        // rank-1 spares.
        assert_eq!(
            ids(&select(&sel, &own, &cands, 10)),
            vec![10, 11, 20, 21, 22]
        );
    }

    #[test]
    fn broad_before_deep() {
        let s = Space::uniform(2, 80, 3).expect("valid 2-d space geometry");
        let own = profile(&s, &[5, 5]);
        let sel = SlotSelector {
            zero_cap: 0,
            per_slot: 3,
        };
        let pool = vec![
            desc(1, &s, &[75, 5], 0),
            desc(2, &s, &[70, 9], 1),
            desc(3, &s, &[79, 2], 2),
            desc(4, &s, &[5, 75], 5), // different slot, old
        ];
        // One per slot before any spare, despite node 4's age.
        assert_eq!(ids(&select(&sel, &own, &pool, 2)), vec![1, 4]);
    }

    #[test]
    fn zero_cap_bounds_c0_crowd() {
        let s = Space::uniform(2, 80, 3).expect("valid 2-d space geometry");
        let own = profile(&s, &[5, 5]);
        let sel = SlotSelector {
            zero_cap: 2,
            per_slot: 1,
        };
        let pool: Vec<_> = (0..6)
            .map(|i| desc(i, &s, &[5 + i % 5, 5], i as u32))
            .collect();
        // All six are C0 mates, but only zero_cap get priority; the rest are
        // leftovers and still fill remaining capacity, youngest first.
        assert_eq!(ids(&select(&sel, &own, &pool, 6)), vec![0, 1, 2, 3, 4, 5]);
    }

    /// The selection as it was before it ranked in one pass or in place
    /// (classify into a map of per-slot `Vec`s, sort each, round-robin by
    /// cloning): the reference the rewrites are held to, descriptor for
    /// descriptor.
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
            /// `per_slot` and capacity including 0 and past the pool — in
            /// spaces up to 24 dimensions, so wider than a 64-bit cell code
            /// (the coordinate fallback) and with rows that leave capacity
            /// to the leftover sort.
            #[test]
            fn ranked_select_equals_reference(
                d in 1usize..=24,
                max_level in 1u8..4,
                own_vals in prop::collection::vec(0u64..80, 24),
                pool in prop::collection::vec(
                    (0u64..30, prop::collection::vec(0u64..80, 24), 0u32..4),
                    0..=80,
                ),
                zero_cap in 0usize..6,
                per_slot in 0usize..4,
                capacity in 0usize..64,
                near in 0u64..3,
            ) {
                let s = Space::uniform(d, 80, max_level).unwrap();
                let own = profile(&s, &own_vals[..d]);
                let sel = SlotSelector { zero_cap, per_slot };
                // Candidates share the node's value in an attribute never,
                // one time in three or fifteen in sixteen: `C0` mates and
                // pairs equal in a wide space's 64-bit prefix turn up.
                let vals = |v: &[u64]| -> Vec<u64> {
                    let own_value = |x: u64| match near {
                        0 => false,
                        1 => x.is_multiple_of(3),
                        _ => !x.is_multiple_of(16),
                    };
                    v[..d].iter().zip(&own_vals).map(|(&x, &o)| if own_value(x) { o } else { x }).collect()
                };
                let pool: Vec<_> = pool
                    .iter()
                    .map(|(id, v, age)| desc(*id, &s, &vals(v), *age))
                    .collect();
                let expected = select_reference(&sel, &own, pool.clone(), capacity);
                prop_assert_eq!(select(&sel, &own, &pool, capacity), expected);
            }
        }
    }
}
