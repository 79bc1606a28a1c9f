use epigossip::{sort_smallest, NodeId, RankKey, Ranking, Scratch, Selector};

use crate::{slot_class, NodeProfile};

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
/// `zero_cap + 15 · per_slot` = 38 candidates, 16 classes, and the
/// leftovers no row keeps.
const ROWS: usize = 40;
const CLASSES: usize = 16;
const LEFTOVERS: usize = 32;

impl SlotSelector {
    /// How many candidates of `class` a ranking keeps in its row.
    fn row_cap(&self, class: usize) -> usize {
        match class {
            0 => self.zero_cap,
            _ => self.per_slot,
        }
    }
}

/// Where ranking emits the member of `class`'s row at `rank`: the `C0` row
/// first, then rank 0 of every slot in (level, dim) order, then rank 1, …
/// — ordered as tuples.
fn cell(class: usize, rank: usize) -> (bool, usize, usize) {
    (class > 0, rank, class)
}

impl Selector<NodeProfile> for SlotSelector {
    /// [`slot_class`]: `0` for a `C0` mate, else 1 + the routing slot the
    /// peer can fill, from the inline cell codes.
    fn class(&self, own: &NodeProfile, other: &NodeProfile) -> u64 {
        slot_class(own.classify(other), own.coord().dims())
    }

    /// One pass over the pool: each class keeps its best `per_slot`
    /// (`zero_cap` for `C0`) candidates by `(age, id)` — youngest first,
    /// fresher descriptors are likelier alive, the earlier one winning a
    /// tie — in a small sorted row. Out come the `C0` row, then round-robin
    /// across slots — rank 0 of every slot in (level, dim) order, then rank
    /// 1, … — so coverage is broad before it is deep; only if the rows
    /// leave capacity unfilled are the rest partially sorted by `(age, id,
    /// class, position)`.
    fn rank(&self, own: &NodeProfile, pool: &[RankKey], capacity: usize) -> Ranking {
        let slots = own.coord().dims() * own.coord().max_level() as usize;
        let row_start = |class: usize| match class {
            0 => 0,
            _ => self.zero_cap + (class - 1) * self.per_slot,
        };
        let key = |at: u32| (pool[at as usize].age, pool[at as usize].id);

        let mut rows: Scratch<u32, ROWS> = Scratch::filled(row_start(1 + slots), 0);
        let mut lens: Scratch<u32, CLASSES> = Scratch::filled(1 + slots, 0);
        // The candidates no row keeps: rows only get better, so one that
        // misses its row or falls off it never returns.
        let mut rest: Scratch<u32, LEFTOVERS> = Scratch::new();
        let (rows_mut, lens_mut) = (rows.as_mut_slice(), lens.as_mut_slice());
        for (at, k) in pool.iter().enumerate() {
            let class = k.class as usize;
            let (start, cap) = (row_start(class), self.row_cap(class));
            let row = &mut rows_mut[start..start + cap];
            let len = lens_mut[class] as usize;
            let mut i = len;
            while i > 0 && (k.age, k.id) < key(row[i - 1]) {
                i -= 1;
            }
            if i == cap {
                rest.push(at as u32);
                continue;
            }
            if len == cap {
                rest.push(row[cap - 1]);
            }
            // Shift the worse members down a place, the last falling off a
            // full row; rows are a few long, so by hand.
            let len = (len + 1).min(cap);
            for j in (i + 1..len).rev() {
                row[j] = row[j - 1];
            }
            row[i] = at as u32;
            lens_mut[class] = len as u32;
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

        let mut rest: Scratch<(u32, NodeId, u32, u32), LEFTOVERS> = rest
            .as_slice()
            .iter()
            .map(|&at| {
                let k = &pool[at as usize];
                (k.age, k.id, k.class as u32, at)
            })
            .collect();
        for leftover in sort_smallest(rest.as_mut_slice(), capacity - kept.len()).iter() {
            kept.push(leftover.3);
        }
        kept
    }

    /// When `view` is what ranking it emits, every entry a row member (so
    /// its rows fill the capacity and no leftover is ranked), and no fresh
    /// candidate takes a row place that ranking emits: a candidate that
    /// would join its class's row at rank `r` changes the view only if
    /// cell `(class, r)` comes no later than the view's last entry's cell.
    /// So a class whose row has a free place before that cut admits every
    /// candidate, and a class whose row is cut full admits only candidates
    /// younger (by `(age, id)`) than its last member.
    fn keeps(&self, own: &NodeProfile, view: &[RankKey], fresh: &[RankKey]) -> bool {
        let slots = own.coord().dims() * own.coord().max_level() as usize;
        // Per class: how many entries, and the last one's `(age, id)`.
        let mut lens: Scratch<u32, CLASSES> = Scratch::filled(1 + slots, 0);
        let mut last: Scratch<(u32, NodeId), CLASSES> = Scratch::filled(1 + slots, (0, 0));
        let (lens, last) = (lens.as_mut_slice(), last.as_mut_slice());
        // The cell of the view's last entry so far.
        let mut end = None;
        for k in view {
            let class = k.class as usize;
            if class > slots {
                return false;
            }
            let rank = lens[class] as usize;
            let at = Some(cell(class, rank));
            let in_order = rank == 0 || last[class] < (k.age, k.id);
            if rank == self.row_cap(class) || !in_order || at <= end {
                return false;
            }
            end = at;
            lens[class] += 1;
            last[class] = (k.age, k.id);
        }
        let Some((in_slots, end_rank, end_class)) = end else {
            return true;
        };
        fresh.iter().all(|k| {
            let class = k.class as usize;
            if class > slots {
                return false;
            }
            // The row places of `class` that ranking emits up to the cut.
            let open = match (class, in_slots) {
                (0, true) => self.zero_cap,
                (0, false) => end_rank + 1,
                (_, false) => 0,
                _ => end_rank + usize::from(class <= end_class),
            };
            open == 0 || lens[class] as usize == open && (k.age, k.id) > last[class]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrspace::{Neighborhood, Space};
    use epigossip::Descriptor;

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

    /// `pool`'s rank keys from `own`'s vantage point.
    fn keys(
        sel: &SlotSelector,
        own: &NodeProfile,
        pool: &[Descriptor<NodeProfile>],
    ) -> Vec<RankKey> {
        pool.iter()
            .map(|d| RankKey::new(sel.class(own, &d.profile), d))
            .collect()
    }

    /// What the gossip layer keeps of `pool`: the ranked descriptors, best
    /// first.
    fn select(
        sel: &SlotSelector,
        own: &NodeProfile,
        pool: &[Descriptor<NodeProfile>],
        capacity: usize,
    ) -> Vec<Descriptor<NodeProfile>> {
        let ranking = sel.rank(own, &keys(sel, own, pool), capacity);
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

            /// Whenever `keeps` answers yes, ranking the view followed by
            /// the fresh candidates gives the view back, position for
            /// position — for views ranking made (cut anywhere in the
            /// round-robin, aged alike since), views it did not make, and
            /// candidates keyed just before or after an entry.
            #[test]
            fn keeps_only_views_ranking_keeps(
                d in 1usize..=4,
                max_level in 1u8..4,
                own_vals in prop::collection::vec(0u64..80, 4),
                pool in prop::collection::vec((0u64..40, prop::collection::vec(0u64..80, 4), 0u32..4), 0..40),
                zero_cap in 0usize..6,
                per_slot in 0usize..4,
                capacity in 1usize..24,
                aged in 0u32..3,
                scrambled in 0u8..4,
                fresh in prop::collection::vec((0usize..64, 0u8..6, 0u32..5), 0..8),
            ) {
                keeps_case(d, max_level, &own_vals, &pool, SlotSelector { zero_cap, per_slot }, capacity, aged, scrambled, &fresh);
            }

            /// Absorbs through a `SlotSelector` that may end early leave the
            /// semantic view — entries, order, classes — and its turnover
            /// as absorbs that always rank do.
            #[test]
            fn gated_absorb_equals_ungated(
                d in 1usize..=3,
                capacity in 4usize..21,
                seed in any::<u64>(),
            ) {
                gated_absorbs(d, capacity, seed);
            }
        }

        /// One case of [`keeps_only_views_ranking_keeps`]; whether `keeps`
        /// answered yes.
        #[allow(clippy::too_many_arguments)]
        fn keeps_case(
            d: usize,
            max_level: u8,
            own_vals: &[u64],
            pool: &[(u64, Vec<u64>, u32)],
            sel: SlotSelector,
            capacity: usize,
            aged: u32,
            scrambled: u8,
            fresh: &[(usize, u8, u32)],
        ) -> bool {
            let s = Space::uniform(d, 80, max_level).expect("valid space geometry");
            let own = profile(&s, &own_vals[..d]);
            // Distinct ids; one attribute in two takes the node's value.
            let mut seen = std::collections::BTreeSet::new();
            let pool: Vec<_> = pool
                .iter()
                .filter(|(id, ..)| seen.insert(*id))
                .map(|(id, v, age)| {
                    let vals: Vec<u64> = v[..d]
                        .iter()
                        .zip(own_vals)
                        .map(|(&x, &o)| if x % 2 == 0 { o } else { x })
                        .collect();
                    desc(*id, &s, &vals, *age)
                })
                .collect();
            let all = keys(&sel, &own, &pool);
            let mut view: Vec<RankKey> = sel
                .rank(&own, &all, capacity)
                .as_slice()
                .iter()
                .map(|&at| RankKey {
                    age: all[at as usize].age + aged,
                    ..all[at as usize]
                })
                .collect();
            if scrambled == 0 && view.len() > 1 {
                view.swap(0, 1);
            }
            // Fresh keys: a pool key or a view entry's, its id moved past
            // the view's and its age nudged; or a key of any class.
            let classes = 1 + d * max_level as usize;
            let fresh: Vec<RankKey> = fresh
                .iter()
                .map(|&(pick, how, age)| {
                    let base = match how {
                        0 if !view.is_empty() => view[pick % view.len()],
                        1 if !all.is_empty() => all[pick % all.len()],
                        _ => RankKey {
                            class: (pick % classes) as u64,
                            age,
                            id: 0,
                        },
                    };
                    let age = match how {
                        2 => base.age + 1,
                        3 => base.age.saturating_sub(1),
                        _ => base.age,
                    };
                    RankKey {
                        age,
                        id: 100 + base.id * 4 + u64::from(how),
                        ..base
                    }
                })
                .collect();
            let keeps = sel.keeps(&own, &view, &fresh);
            if keeps {
                // Pool the view and then one copy of each fresh id: the
                // first, then the last.
                for copies in [fresh.clone(), fresh.iter().rev().copied().collect()] {
                    let mut pooled = view.clone();
                    for k in copies {
                        if !pooled.iter().any(|p| p.id == k.id) {
                            pooled.push(k);
                        }
                    }
                    let ranked = sel.rank(&own, &pooled, view.len());
                    let expected: Vec<u32> = (0..view.len() as u32).collect();
                    prop_assert_eq!(
                        ranked.as_slice(),
                        &expected[..],
                        "view {:?} fresh {:?}",
                        view,
                        fresh
                    );
                }
            }
            keeps
        }

        /// A `SlotSelector` with its early-return proof on or off, counting
        /// the rankings it is asked for.
        struct Gate {
            inner: SlotSelector,
            on: bool,
            ranks: std::sync::atomic::AtomicUsize,
        }

        impl Selector<NodeProfile> for Gate {
            fn class(&self, own: &NodeProfile, other: &NodeProfile) -> u64 {
                self.inner.class(own, other)
            }

            fn rank(&self, own: &NodeProfile, pool: &[RankKey], capacity: usize) -> Ranking {
                self.ranks
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.inner.rank(own, pool, capacity)
            }

            fn keeps(&self, own: &NodeProfile, view: &[RankKey], fresh: &[RankKey]) -> bool {
                self.on && self.inner.keeps(own, view, fresh)
            }
        }

        /// One case of [`gated_absorb_equals_ungated`]: `(absorbs that
        /// ended early, absorbs into a full view)`.
        fn gated_absorbs(d: usize, capacity: usize, seed: u64) -> (usize, usize) {
            use epigossip::Vicinity;
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            use std::sync::atomic::{AtomicUsize, Ordering};
            use std::sync::Arc;

            const SELF: NodeId = 0;
            let s = Space::uniform(d, 80, 3).expect("valid space geometry");
            let mut draw = StdRng::seed_from_u64(seed);
            let point = |draw: &mut StdRng| -> Vec<u64> {
                (0..d).map(|_| draw.gen_range(0..80u64)).collect()
            };
            let own = profile(&s, &point(&mut draw));
            let population: Vec<NodeProfile> =
                (0..60).map(|_| profile(&s, &point(&mut draw))).collect();
            let gate = |on| {
                Arc::new(Gate {
                    inner: SlotSelector::default(),
                    on,
                    ranks: AtomicUsize::new(0),
                })
            };
            let (gated, ungated) = (gate(true), gate(false));
            let mut fast = Vicinity::new(SELF, own.clone(), capacity, 5, gated.clone());
            let mut slow = Vicinity::new(SELF, own.clone(), capacity, 5, ungated);
            let (mut rng, mut slow_rng) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let (mut early, mut full) = (0, 0);
            for _ in 0..40 {
                if draw.gen_range(0..3u32) == 0 {
                    let sent = fast.initiate(&mut rng);
                    prop_assert_eq!(sent, slow.initiate(&mut slow_rng));
                    continue;
                }
                let view = fast.view().as_slice().to_vec();
                let batch: Vec<Descriptor<NodeProfile>> = (0..draw.gen_range(1..4usize))
                    .map(|_| match (draw.gen_range(0..6u32), view.is_empty()) {
                        // A copy of an entry as fresh as it, staler, or
                        // fresher.
                        (0..=2, false) => {
                            let entry = &view[draw.gen_range(0..view.len())];
                            let aged = view.iter().rfind(|e| e.age > 0).unwrap_or(entry);
                            let (entry, age) = match draw.gen_range(0..3u32) {
                                0 => (entry, entry.age),
                                1 => (entry, entry.age + 1),
                                _ => (aged, aged.age.saturating_sub(1)),
                            };
                            Descriptor {
                                age,
                                ..entry.clone()
                            }
                        }
                        (3, _) => Descriptor::new(SELF, own.clone()),
                        _ => {
                            let id = draw.gen_range(1..60u64);
                            Descriptor {
                                id,
                                profile: population[id as usize].clone(),
                                age: draw.gen_range(0..6u32),
                            }
                        }
                    })
                    .collect();
                let ranks = gated.ranks.load(Ordering::Relaxed);
                let was_full = fast.view().len() == capacity;
                fast.absorb(&batch);
                slow.absorb(batch);
                let state = |v: &Vicinity<NodeProfile>| {
                    let view = v.view();
                    (
                        view.as_slice().to_vec(),
                        view.classes().to_vec(),
                        view.turnover(),
                    )
                };
                prop_assert_eq!(state(&fast), state(&slow));
                if was_full {
                    full += 1;
                    early += usize::from(gated.ranks.load(Ordering::Relaxed) == ranks);
                }
            }
            (early, full)
        }

        /// Both generators reach both answers.
        #[test]
        fn the_differentials_take_and_leave_the_early_return() {
            let (mut early, mut full) = (0, 0);
            for seed in 0..100u64 {
                let (e, f) = gated_absorbs(1 + seed as usize % 3, 4 + seed as usize % 17, seed);
                early += e;
                full += f;
            }
            assert!(
                early * 10 > full && early * 10 < full * 9,
                "{early} early returns of {full}"
            );

            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut draw = StdRng::seed_from_u64(1);
            let (mut kept, cases) = (0, 1000);
            for _ in 0..cases {
                let vals = |draw: &mut StdRng| -> Vec<u64> {
                    (0..4).map(|_| draw.gen_range(0..80u64)).collect()
                };
                let own_vals = vals(&mut draw);
                let pool: Vec<(u64, Vec<u64>, u32)> = (0..draw.gen_range(0..40usize))
                    .map(|_| {
                        (
                            draw.gen_range(0..40u64),
                            vals(&mut draw),
                            draw.gen_range(0..4u32),
                        )
                    })
                    .collect();
                let sel = SlotSelector {
                    zero_cap: draw.gen_range(0..6usize),
                    per_slot: draw.gen_range(0..4usize),
                };
                let fresh: Vec<(usize, u8, u32)> = (0..draw.gen_range(0..8usize))
                    .map(|_| {
                        (
                            draw.gen_range(0..64usize),
                            draw.gen_range(0..6u8),
                            draw.gen_range(0..5u32),
                        )
                    })
                    .collect();
                let (d, max_level, capacity) = (
                    draw.gen_range(1..=4usize),
                    draw.gen_range(1..4u8),
                    draw.gen_range(1..24usize),
                );
                let (aged, scrambled) = (draw.gen_range(0..3u32), draw.gen_range(0..4u8));
                kept += usize::from(keeps_case(
                    d, max_level, &own_vals, &pool, sel, capacity, aged, scrambled, &fresh,
                ));
            }
            assert!(
                kept * 10 > cases && kept * 10 < cases * 9,
                "kept {kept} of {cases}"
            );
        }
    }
}
