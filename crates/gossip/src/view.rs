use std::borrow::Borrow;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{Descriptor, NodeId, RankKey, Scratch, Selector};

/// Inline size of the per-call id/index scratch: covers the paper's view
/// size (20) with room to spare; larger views spill to the heap.
const INLINE: usize = 32;

/// Inline size of a selection pool: a view plus a CYCLON view's worth of
/// candidates (20 + 20 at the paper's sizes).
pub(crate) const POOL: usize = 48;

/// A bounded partial view: at most `capacity` descriptors, at most one per
/// peer id. This is the data structure underlying both gossip layers.
///
/// Beside each entry sits a `C` its owner computed once, when the entry
/// entered: the semantic layer keeps each entry's
/// [`Selector::class`](crate::Selector::class) there (`View<P, u64>`), the
/// random layer nothing (`View<P>`, `C = ()`).
///
/// Lookups scan the entry vector linearly: views are small (capacity ~20),
/// so a scan over one cache line of ids beats maintaining a side
/// `HashMap<NodeId, usize>` — which at a million nodes cost more memory
/// than the descriptors themselves and had to be repaired on every
/// swap-remove.
#[derive(Debug, Clone)]
pub struct View<P, C = ()> {
    entries: Vec<Descriptor<P>>,
    /// `classes[i]` belongs to `entries[i]`.
    classes: Vec<C>,
    capacity: usize,
    /// Monotone count of ids that *entered* the view (were not present the
    /// instant before). The overlay-health replacement-rate gauge: drivers
    /// read consecutive values and report the delta per gossip round.
    turnover: u64,
    /// Moves whenever an id, the order or a descriptor changes; ageing
    /// does not move it.
    stamp: u64,
}

impl<P, C> View<P, C> {
    /// Creates an empty view holding at most `capacity` descriptors.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "view capacity must be positive");
        View {
            entries: Vec::with_capacity(capacity),
            classes: Vec::with_capacity(capacity),
            capacity,
            turnover: 0,
            stamp: 0,
        }
    }

    /// Maximum number of descriptors.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Monotone count of distinct entries that have joined the view over
    /// its lifetime (each id counts once per *entry*, so an id that leaves
    /// and comes back counts again). Never reset; subtract two readings to
    /// get a replacement rate.
    pub fn turnover(&self) -> u64 {
        self.turnover
    }

    /// The view's change stamp: equal readings mean the same ids, in the
    /// same order, with the same descriptors up to their ages. Drivers
    /// that mirror the view elsewhere compare it to skip a re-sync.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    fn changed(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
    }

    /// Mean descriptor age in fixed-point thousandths of a round (integer
    /// so the observability schema stays float-free); 0 when empty.
    pub fn mean_age_x1000(&self) -> u64 {
        if self.entries.is_empty() {
            return 0;
        }
        let sum: u64 = self.entries.iter().map(|d| u64::from(d.age)).sum();
        sum * 1000 / self.entries.len() as u64
    }

    /// Current number of descriptors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the view holds no descriptors.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Position of `id`'s descriptor, if present.
    fn position(&self, id: NodeId) -> Option<usize> {
        self.entries.iter().position(|d| d.id == id)
    }

    /// Whether the view holds a descriptor for `id`.
    pub fn contains(&self, id: NodeId) -> bool {
        self.position(id).is_some()
    }

    /// The descriptor for `id`, if present.
    pub fn get(&self, id: NodeId) -> Option<&Descriptor<P>> {
        self.position(id).map(|i| &self.entries[i])
    }

    /// Iterates over the descriptors in view order.
    pub fn iter(&self) -> impl Iterator<Item = &Descriptor<P>> {
        self.entries.iter()
    }

    /// The descriptors in view order.
    pub fn as_slice(&self) -> &[Descriptor<P>] {
        &self.entries
    }

    /// What the owner computed for each entry when it entered, in view
    /// order.
    pub fn classes(&self) -> &[C] {
        &self.classes
    }

    /// Increments every descriptor's age by one round.
    pub fn increase_ages(&mut self) {
        for d in &mut self.entries {
            d.age = d.age.saturating_add(1);
        }
    }

    /// Removes and returns the descriptor for `id`.
    pub fn remove(&mut self, id: NodeId) -> Option<Descriptor<P>> {
        let i = self.position(id)?;
        self.classes.swap_remove(i);
        self.changed();
        Some(self.entries.swap_remove(i))
    }

    /// The id of the oldest descriptor (CYCLON's shuffle-partner choice).
    pub fn oldest(&self) -> Option<NodeId> {
        self.oldest_index().map(|i| self.entries[i].id)
    }

    fn oldest_index(&self) -> Option<usize> {
        self.entries
            .iter()
            .enumerate()
            .max_by_key(|(_, d)| d.age)
            .map(|(i, _)| i)
    }

    /// All peer ids currently in the view.
    pub fn ids(&self) -> Vec<NodeId> {
        self.entries.iter().map(|d| d.id).collect()
    }

    /// A uniformly random descriptor.
    pub fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Descriptor<P>> {
        self.entries.choose(rng)
    }

    /// The positions of all entries but `exclude`'s, shuffled — the draws
    /// behind [`random_subset`](Self::random_subset), for callers that
    /// rank the entries before they clone any.
    pub(crate) fn shuffled_positions<R: Rng + ?Sized>(
        &self,
        exclude: Option<NodeId>,
        rng: &mut R,
    ) -> Scratch<u32, INLINE> {
        // Shuffle positions, not references: same draws, no heap pool.
        let mut pool: Scratch<u32, INLINE> = (0..self.entries.len() as u32)
            .filter(|&i| Some(self.entries[i as usize].id) != exclude)
            .collect();
        pool.as_mut_slice().shuffle(rng);
        pool
    }
}

impl<P> View<P> {
    /// Inserts or replaces the descriptor for `d.id`. When the view is full
    /// and `d.id` is new, the *oldest* entry is evicted (age-based healing).
    /// When replacing, the fresher (lower-age) descriptor wins.
    pub fn insert(&mut self, d: Descriptor<P>) {
        if let Some(i) = self.position(d.id) {
            if d.age <= self.entries[i].age {
                self.entries[i] = d;
                self.changed();
            }
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(d);
            self.classes.push(());
            self.turnover += 1;
            self.changed();
            return;
        }
        if let Some(i) = self.oldest_index() {
            if d.age <= self.entries[i].age {
                self.entries[i] = d;
                self.turnover += 1;
                self.changed();
            }
        }
    }
}

impl<P: Clone, C> View<P, C> {
    /// Up to `n` distinct random descriptors, optionally excluding one id
    /// (CYCLON excludes the shuffle partner from the sent subset).
    pub fn random_subset<R: Rng + ?Sized>(
        &self,
        n: usize,
        exclude: Option<NodeId>,
        rng: &mut R,
    ) -> Vec<Descriptor<P>> {
        let pool = self.shuffled_positions(exclude, rng);
        let picked = &pool.as_slice()[..n.min(pool.len())];
        // CYCLON appends its own descriptor to the subset.
        let mut out = Vec::with_capacity(picked.len() + 1);
        out.extend(picked.iter().map(|&i| self.entries[i as usize].clone()));
        out
    }
}

impl<P: Clone> View<P> {
    /// CYCLON's merge rule: for each received descriptor (skipping our own id
    /// and known peers, where only a fresher age is kept), fill empty slots
    /// first, then overwrite slots whose descriptor was just *sent* to the
    /// peer, and drop the rest. Accepts owned or borrowed descriptors; a
    /// borrowed one is cloned only if it enters the view.
    pub fn merge_shuffle<D>(
        &mut self,
        received: impl IntoIterator<Item = D>,
        sent: &[NodeId],
        self_id: NodeId,
    ) where
        D: Borrow<Descriptor<P>> + Into<Descriptor<P>>,
    {
        // Sent ids are replaceable last-first; each is tried once.
        let mut replaceable = sent.len();
        for d in received {
            let (id, age) = (d.borrow().id, d.borrow().age);
            if id == self_id {
                continue;
            }
            if let Some(i) = self.position(id) {
                if age < self.entries[i].age {
                    self.entries[i] = d.into();
                    self.changed();
                }
                continue;
            }
            if self.entries.len() < self.capacity {
                self.entries.push(d.into());
                self.classes.push(());
                self.turnover += 1;
                self.changed();
                continue;
            }
            while replaceable > 0 {
                replaceable -= 1;
                if let Some(i) = self.position(sent[replaceable]) {
                    self.entries[i] = d.into();
                    self.turnover += 1;
                    self.changed();
                    break;
                }
            }
            // View full and nothing replaceable: the descriptor is dropped.
        }
    }
}

impl<P> View<P, u64> {
    /// Re-selects the view in place from its own entries plus
    /// `candidates`, by `selector` from `own`'s vantage point.
    ///
    /// The pool is the entries, then each candidate whose id is not
    /// `self_id` nor already pooled at least as fresh (a fresher one takes
    /// the pooled one's place; the first wins a tie). Only pooled
    /// candidates are classified; the entries carry their classes. A full
    /// view that no candidate refreshed ends here when the selector
    /// [`keeps`](Selector::keeps) it against the pooled candidates: nothing
    /// is ranked or moved. Otherwise the selector ranks the pool's keys and
    /// names what to keep, best first; that becomes the view, bounded by
    /// capacity. Kept entries stay where they live, kept candidates are
    /// moved in when `candidates` is owned and cloned when it is borrowed —
    /// a candidate that loses the ranking is never cloned — and the entry
    /// buffer never grows past capacity. Ids that were not in the view
    /// before count as turnover.
    pub fn reselect<C, S>(&mut self, candidates: C, self_id: NodeId, own: &P, selector: &S)
    where
        C: AsRef<[Descriptor<P>]> + IntoIterator,
        C::Item: Into<Descriptor<P>>,
        S: Selector<P> + ?Sized,
    {
        let offered = candidates.as_ref();
        let (known, offered_len) = (self.entries.len(), offered.len());
        // `source[i]`: where pool member `i` lives — `j < known` is entry
        // `j`, `known + j` is candidate `j`.
        let mut pool: Scratch<RankKey, POOL> = Scratch::new();
        let mut source: Scratch<u32, POOL> = Scratch::new();
        // Bit `id % 256` of every pooled id: a candidate whose bit is clear
        // is new to the pool without a scan.
        let mut pooled = [0u64; 4];
        let bit = |id: NodeId| (id as usize >> 6 & 3, 1u64 << (id & 63));
        for (j, (d, &class)) in self.entries.iter().zip(&self.classes).enumerate() {
            pool.push(RankKey::new(class, d));
            source.push(j as u32);
            let (word, mask) = bit(d.id);
            pooled[word] |= mask;
        }
        // Whether a candidate took an entry's place in the pool.
        let mut refreshed = false;
        for (j, d) in offered.iter().enumerate() {
            if d.id == self_id {
                continue;
            }
            let (word, mask) = bit(d.id);
            let known_at = match pooled[word] & mask {
                0 => None,
                _ => pool.as_slice().iter().position(|p| p.id == d.id),
            };
            pooled[word] |= mask;
            let key = |d: &Descriptor<P>| RankKey::new(selector.class(own, &d.profile), d);
            match known_at {
                Some(i) if pool.as_slice()[i].age <= d.age => {}
                Some(i) => {
                    refreshed |= i < known;
                    pool.as_mut_slice()[i] = key(d);
                    source.as_mut_slice()[i] = (known + j) as u32;
                }
                None => {
                    pool.push(key(d));
                    source.push((known + j) as u32);
                }
            }
        }
        let (entries, fresh) = pool.as_slice().split_at(known);
        if known == self.capacity && !refreshed && selector.keeps(own, entries, fresh) {
            return;
        }
        let ranking = selector.rank(own, pool.as_slice(), self.capacity);

        // `order[k]`: where the view's k-th entry comes from, and
        // `class[k]` its class. A pool position past the old entries is an
        // id new to the view.
        let mut taken: Scratch<bool, POOL> = Scratch::filled(source.len(), false);
        let mut order: Scratch<u32, INLINE> = Scratch::new();
        let mut class: Scratch<u64, INLINE> = Scratch::new();
        for &at in ranking.as_slice() {
            if order.len() == self.capacity
                || std::mem::replace(&mut taken.as_mut_slice()[at as usize], true)
            {
                continue;
            }
            if at as usize >= known {
                self.turnover += 1;
            }
            order.push(source.as_slice()[at as usize]);
            class.push(pool.as_slice()[at as usize].class);
        }
        let unchanged = order.len() == known
            && (order.as_slice().iter().enumerate()).all(|(k, &from)| from as usize == k);
        if unchanged {
            return;
        }
        self.changed();
        // Each kept candidate takes the place of an entry the ranking
        // dropped, or else is appended (never past capacity: the kept
        // candidates outnumber the dropped entries by at most `capacity −
        // known`); `order[k]` becomes where the k-th entry now lives.
        let mut slot_of: Scratch<u32, POOL> = Scratch::filled(offered_len, u32::MAX);
        let mut kept: Scratch<bool, INLINE> = Scratch::filled(known, false);
        for (k, &from) in order.as_slice().iter().enumerate() {
            match (from as usize).checked_sub(known) {
                Some(j) => slot_of.as_mut_slice()[j] = k as u32,
                None => kept.as_mut_slice()[from as usize] = true,
            }
        }
        let mut dropped = (0..known).filter(|&i| !kept.as_slice()[i]);
        for (d, &k) in candidates.into_iter().zip(slot_of.as_slice()) {
            if k == u32::MAX {
                continue;
            }
            let class = class.as_slice()[k as usize];
            let at = match dropped.next() {
                Some(at) => {
                    self.entries[at] = d.into();
                    self.classes[at] = class;
                    at
                }
                None => {
                    self.entries.push(d.into());
                    self.classes.push(class);
                    self.entries.len() - 1
                }
            };
            order.as_mut_slice()[k as usize] = at as u32;
        }
        // Gather: position `k` takes the entry at `order[k]`, which an
        // earlier swap may have displaced along the chain of already-final
        // positions.
        let order = order.as_slice();
        for k in 0..order.len() {
            let mut from = order[k] as usize;
            while from < k {
                from = order[from] as usize;
            }
            self.entries.swap(k, from);
            self.classes.swap(k, from);
        }
        self.entries.truncate(order.len());
        self.classes.truncate(order.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ranking;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn d(id: NodeId, age: u32) -> Descriptor<u8> {
        Descriptor {
            id,
            profile: id as u8,
            age,
        }
    }

    #[test]
    fn insert_dedupes_by_id_keeping_fresher() {
        let mut v = View::new(4);
        v.insert(d(1, 5));
        v.insert(d(1, 2));
        assert_eq!(v.get(1).unwrap().age, 2);
        v.insert(d(1, 9)); // staler: ignored
        assert_eq!(v.get(1).unwrap().age, 2);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn insert_full_evicts_oldest_if_staler() {
        let mut v = View::new(2);
        v.insert(d(1, 5));
        v.insert(d(2, 1));
        v.insert(d(3, 0)); // evicts id 1 (oldest)
        assert!(!v.contains(1));
        assert!(v.contains(2) && v.contains(3));
        v.insert(d(4, 9)); // older than current oldest: dropped
        assert!(!v.contains(4));
    }

    #[test]
    fn remove_keeps_lookup_consistent() {
        let mut v = View::new(4);
        for i in 1..=4 {
            v.insert(d(i, i as u32));
        }
        assert!(v.remove(2).is_some());
        assert!(v.remove(2).is_none());
        assert_eq!(v.len(), 3);
        for i in [1u64, 3, 4] {
            assert_eq!(v.get(i).unwrap().id, i);
        }
    }

    #[test]
    fn oldest_picks_max_age() {
        let mut v = View::new(4);
        v.insert(d(1, 3));
        v.insert(d(2, 7));
        v.insert(d(3, 5));
        assert_eq!(v.oldest(), Some(2));
    }

    #[test]
    fn random_subset_excludes_and_bounds() {
        let mut v = View::new(8);
        for i in 1..=6 {
            v.insert(d(i, 0));
        }
        let mut rng = StdRng::seed_from_u64(1);
        let s = v.random_subset(3, Some(4), &mut rng);
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|x| x.id != 4));
        let all = v.random_subset(100, None, &mut rng);
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn merge_shuffle_fills_then_replaces_sent() {
        let mut v = View::new(3);
        v.insert(d(1, 4));
        v.insert(d(2, 1));
        // We sent descriptor 1 away; merge three received entries.
        v.merge_shuffle(vec![d(10, 0), d(11, 0), d(12, 0)], &[1], 99);
        assert_eq!(v.len(), 3);
        assert!(v.contains(10)); // filled the empty slot
        assert!(v.contains(2)); // untouched: was not sent
        assert!(!v.contains(1)); // replaced by 11 or 12
                                 // Exactly one of 11/12 placed, the other dropped.
        assert_eq!([11, 12].iter().filter(|&&i| v.contains(i)).count(), 1);
    }

    #[test]
    fn merge_shuffle_skips_self_and_known() {
        let mut v = View::new(3);
        v.insert(d(1, 4));
        v.merge_shuffle(vec![d(99, 0), d(1, 9)], &[], 99);
        assert!(!v.contains(99));
        assert_eq!(v.get(1).unwrap().age, 4, "staler duplicate ignored");
        v.merge_shuffle(vec![d(1, 0)], &[], 99);
        assert_eq!(v.get(1).unwrap().age, 0, "fresher duplicate adopted");
    }

    /// A ranking that keeps the pooled descriptors of `ids`, in that order.
    fn keep(ids: &[NodeId]) -> impl Fn(&[RankKey]) -> Ranking + Send + Sync + '_ {
        move |pool| {
            ids.iter()
                .filter_map(|id| pool.iter().position(|k| k.id == *id))
                .map(|at| at as u32)
                .collect()
        }
    }

    /// Everything pooled, in pool order.
    fn keep_all(pool: &[RankKey]) -> Ranking {
        (0..pool.len() as u32).collect()
    }

    /// A selector over profiles that are bytes: class `profile % 3`, the
    /// ranking `.0`, and `.1` for whether it keeps every view.
    struct By<F>(F, bool);

    impl<P: Borrow<u8>, F: Fn(&[RankKey]) -> Ranking + Send + Sync> Selector<P> for By<F> {
        fn class(&self, _: &P, other: &P) -> u64 {
            u64::from(*other.borrow()) % 3
        }

        fn rank(&self, _: &P, pool: &[RankKey], _: usize) -> Ranking {
            (self.0)(pool)
        }

        fn keeps(&self, _: &P, _: &[RankKey], _: &[RankKey]) -> bool {
            self.1
        }
    }

    /// `v.reselect` by node 99 with the ranking `rank`.
    fn reselect<P, C>(
        v: &mut View<P, u64>,
        candidates: C,
        rank: impl Fn(&[RankKey]) -> Ranking + Send + Sync,
    ) where
        P: Borrow<u8> + Default,
        C: AsRef<[Descriptor<P>]> + IntoIterator,
        C::Item: Into<Descriptor<P>>,
    {
        v.reselect(candidates, 99, &P::default(), &By(rank, false));
    }

    #[test]
    fn reselect_bounds_and_dedupes() {
        let mut v = View::new(2);
        reselect(&mut v, vec![d(1, 0), d(1, 5), d(2, 0), d(3, 0)], keep_all);
        assert_eq!(v.ids(), vec![1, 2]);
        assert_eq!(v.get(1).unwrap().age, 0, "staler duplicate not pooled");
        reselect(&mut v, vec![d(3, 0), d(2, 0), d(99, 0)], |pool| {
            assert_eq!(pool.iter().map(|e| e.id).collect::<Vec<_>>(), vec![1, 2, 3]);
            [2, 2, 0, 1].into_iter().collect()
        });
        assert_eq!(v.ids(), vec![3, 1], "a repeated position is kept once");
        assert_eq!(v.classes(), &[0, 1], "each entry's class beside it");
    }

    #[test]
    fn reselect_pools_own_entries_then_candidates() {
        let mut v = View::new(3);
        reselect(&mut v, [d(1, 4), d(2, 1)], keep_all);
        reselect(&mut v, [d(7, 0), d(1, 2)], |pool| {
            let pooled: Vec<_> = pool.iter().map(|e| (e.id, e.age, e.class)).collect();
            assert_eq!(
                pooled,
                vec![(1, 2, 1), (2, 1, 2), (7, 0, 1)],
                "fresher candidate in place"
            );
            [2, 1, 0].into_iter().collect()
        });
        assert_eq!(
            v.ids(),
            vec![7, 2, 1],
            "the ranking's order becomes the view's"
        );
        assert_eq!(v.get(1).unwrap().age, 2);
        assert_eq!(v.turnover(), 3);
    }

    #[test]
    fn reselect_clones_borrowed_candidates_only_when_kept() {
        use std::rc::Rc;
        let mut v: View<Rc<u8>, u64> = View::new(2);
        let offered: Vec<Descriptor<Rc<u8>>> = (1..=4)
            .map(|id| Descriptor::new(id, Rc::new(id as u8)))
            .collect();
        reselect(&mut v, &offered, keep(&[3, 1]));
        assert_eq!(v.ids(), vec![3, 1]);
        let counts: Vec<usize> = offered
            .iter()
            .map(|d| Rc::strong_count(&d.profile))
            .collect();
        assert_eq!(counts, vec![2, 1, 2, 1]);
    }

    /// A full view that admits candidates keeps its buffers: the kept
    /// candidates take the places of the entries they displace.
    #[test]
    fn admissions_into_a_full_view_neither_reallocate_nor_exceed_capacity() {
        let mut v = View::new(20);
        reselect(
            &mut v,
            (0..20).map(|id| d(id, 0)).collect::<Vec<_>>(),
            keep_all,
        );
        let buffers = |v: &View<u8, u64>| {
            let entries = (v.entries.as_ptr(), v.entries.capacity());
            (entries, (v.classes.as_ptr(), v.classes.capacity()))
        };
        let before = buffers(&v);
        assert_eq!((before.0 .1, before.1 .1), (20, 20));
        for round in 0..10u64 {
            // Keep the newest ids: `round + 1` candidates displace as many
            // of the oldest entries.
            let offered: Vec<_> = (0..=round).map(|i| d(100 + 10 * round + i, 0)).collect();
            reselect(&mut v, offered, |pool| {
                let mut ranked: Vec<u32> = (0..pool.len() as u32).collect();
                ranked.sort_by_key(|&at| std::cmp::Reverse(pool[at as usize].id));
                ranked.into_iter().collect()
            });
            assert_eq!(v.len(), 20);
            assert_eq!(buffers(&v), before, "round {round}");
            let classes: Vec<u64> = v.iter().map(|e| e.id % 3).collect();
            assert_eq!(v.classes(), &classes[..], "classes follow their entries");
        }
    }

    /// A selector that keeps every view ends a reselect only where the view
    /// is full and no candidate refreshed an entry.
    #[test]
    fn only_a_full_unrefreshed_view_is_kept_unranked() {
        let keeps = By(keep_all, true);
        let mut v = View::new(2);
        v.reselect([d(1, 3)], 99, &0, &keeps);
        v.reselect([d(2, 3), d(4, 0)], 99, &0, &keeps);
        assert_eq!(v.ids(), vec![1, 2], "filled although kept");
        v.reselect([d(5, 0), d(2, 3), d(1, 4)], 99, &0, &keeps);
        assert_eq!(v.ids(), vec![1, 2], "kept");
        v.reselect([d(5, 0), d(2, 1)], 99, &0, &keeps);
        assert_eq!(v.ids(), vec![1, 2]);
        assert_eq!(v.get(2).unwrap().age, 1, "refreshed, so ranked");
    }

    #[test]
    fn the_stamp_moves_on_change_not_on_ageing() {
        let mut v = View::new(3);
        reselect(&mut v, [d(1, 0), d(2, 0)], keep_all);
        let stamp = v.stamp();
        v.increase_ages();
        reselect(&mut v, [d(2, 4), d(5, 0)], keep(&[1, 2]));
        assert_eq!(v.stamp(), stamp, "aged, same ids in the same order");
        reselect(&mut v, [d(1, 0)], keep(&[1, 2]));
        assert_ne!(v.stamp(), stamp, "a fresher copy of an entry");
        let stamp = v.stamp();
        reselect(&mut v, [d(5, 0)], keep(&[2, 1]));
        assert_ne!(v.stamp(), stamp, "the order");
        let stamp = v.stamp();
        v.remove(2);
        assert_ne!(v.stamp(), stamp, "an id");
    }

    #[test]
    fn merge_shuffle_clones_borrowed_descriptors_on_entry() {
        let mut v = View::new(2);
        let received = [d(1, 0), d(2, 0), d(3, 0)];
        v.merge_shuffle(&received, &[], 99);
        assert_eq!(
            v.ids(),
            vec![1, 2],
            "third dropped: full, nothing replaceable"
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: View<u8> = View::new(0);
    }

    #[test]
    fn turnover_counts_entries_not_refreshes() {
        let mut v = View::new(2);
        v.insert(d(1, 5));
        v.insert(d(2, 1));
        assert_eq!(v.turnover(), 2);
        v.insert(d(1, 0)); // refresh of a known id: no turnover
        assert_eq!(v.turnover(), 2);
        v.insert(d(3, 0)); // evicts oldest → one replacement
        assert_eq!(v.turnover(), 3);
        let mut v = View::new(2);
        reselect(&mut v, [d(1, 5), d(3, 1)], keep_all);
        assert_eq!(v.turnover(), 2);
        // reselect: id 3 survives, id 9 is new → +1.
        reselect(&mut v, [d(9, 0)], keep(&[3, 9]));
        assert_eq!(v.turnover(), 3);
        // An id that left and comes back counts again.
        reselect(&mut v, [d(1, 0)], keep(&[1]));
        assert_eq!(v.turnover(), 4);
    }

    #[test]
    fn mean_age_is_fixed_point_thousandths() {
        let mut v = View::new(4);
        assert_eq!(v.mean_age_x1000(), 0);
        v.insert(d(1, 1));
        v.insert(d(2, 2));
        assert_eq!(v.mean_age_x1000(), 1500);
    }
}
