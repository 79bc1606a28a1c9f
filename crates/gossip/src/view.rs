use std::borrow::Borrow;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{Descriptor, NodeId, Ranking, Scratch};

/// Inline size of the per-call id/index scratch: covers the paper's view
/// size (20) with room to spare; larger views spill to the heap.
const INLINE: usize = 32;

/// Inline size of a selection pool: a view plus a CYCLON view's worth of
/// candidates (20 + 20 at the paper's sizes).
pub(crate) const POOL: usize = 48;

/// A bounded partial view: at most `capacity` descriptors, at most one per
/// peer id. This is the data structure underlying both gossip layers.
///
/// Lookups scan the entry vector linearly: views are small (capacity ~20),
/// so a scan over one cache line of ids beats maintaining a side
/// `HashMap<NodeId, usize>` — which at a million nodes cost more memory
/// than the descriptors themselves and had to be repaired on every
/// swap-remove.
#[derive(Debug, Clone)]
pub struct View<P> {
    entries: Vec<Descriptor<P>>,
    capacity: usize,
    /// Monotone count of ids that *entered* the view (were not present the
    /// instant before). The overlay-health replacement-rate gauge: drivers
    /// read consecutive values and report the delta per gossip round.
    turnover: u64,
}

impl<P> View<P> {
    /// Creates an empty view holding at most `capacity` descriptors.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "view capacity must be positive");
        View {
            entries: Vec::with_capacity(capacity),
            capacity,
            turnover: 0,
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

    /// Increments every descriptor's age by one round.
    pub fn increase_ages(&mut self) {
        for d in &mut self.entries {
            d.age = d.age.saturating_add(1);
        }
    }

    /// Inserts or replaces the descriptor for `d.id`. When the view is full
    /// and `d.id` is new, the *oldest* entry is evicted (age-based healing).
    /// When replacing, the fresher (lower-age) descriptor wins.
    pub fn insert(&mut self, d: Descriptor<P>) {
        if let Some(i) = self.position(d.id) {
            if d.age <= self.entries[i].age {
                self.entries[i] = d;
            }
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(d);
            self.turnover += 1;
            return;
        }
        if let Some(i) = self.oldest_index() {
            if d.age <= self.entries[i].age {
                self.entries[i] = d;
                self.turnover += 1;
            }
        }
    }

    /// Removes and returns the descriptor for `id`.
    pub fn remove(&mut self, id: NodeId) -> Option<Descriptor<P>> {
        let i = self.position(id)?;
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

impl<P: Clone> View<P> {
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
                }
                continue;
            }
            if self.entries.len() < self.capacity {
                self.entries.push(d.into());
                self.turnover += 1;
                continue;
            }
            while replaceable > 0 {
                replaceable -= 1;
                if let Some(i) = self.position(sent[replaceable]) {
                    self.entries[i] = d.into();
                    self.turnover += 1;
                    break;
                }
            }
            // View full and nothing replaceable: the descriptor is dropped.
        }
    }
}

impl<P> View<P> {
    /// Re-selects the view in place from its own entries plus `candidates`.
    ///
    /// The pool is the entries, then each candidate whose id is not
    /// `self_id` nor already pooled at least as fresh (a fresher one takes
    /// the pooled one's place; the first wins a tie). `rank` sees it
    /// borrowed and names what to keep, best first; that becomes the view,
    /// bounded by capacity. Kept entries stay where they live, kept
    /// candidates are moved in when `candidates` is owned and cloned when it
    /// is borrowed — a candidate that loses the ranking is never cloned.
    /// Ids that were not in the view before count as turnover.
    pub fn reselect<C>(
        &mut self,
        candidates: C,
        self_id: NodeId,
        rank: impl FnOnce(&[&Descriptor<P>]) -> Ranking,
    ) where
        C: AsRef<[Descriptor<P>]> + IntoIterator,
        C::Item: Into<Descriptor<P>>,
    {
        let offered = candidates.as_ref();
        let (known, offered_len) = (self.entries.len(), offered.len());
        let Some(fill) = self.entries.first().or(offered.first()) else {
            return;
        };
        // `source[i]`: where pool member `i` lives — `j < known` is entry
        // `j`, `known + j` is candidate `j`.
        let mut pool: Scratch<&Descriptor<P>, POOL> = Scratch::with_fill(fill);
        let mut source: Scratch<u32, POOL> = Scratch::new();
        // Bit `id % 256` of every pooled id: a candidate whose bit is clear
        // is new to the pool without a scan.
        let mut pooled = [0u64; 4];
        let bit = |id: NodeId| (id as usize >> 6 & 3, 1u64 << (id & 63));
        for (j, d) in self.entries.iter().enumerate() {
            pool.push(d);
            source.push(j as u32);
            let (word, mask) = bit(d.id);
            pooled[word] |= mask;
        }
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
            match known_at {
                Some(i) if pool.as_slice()[i].age <= d.age => {}
                Some(i) => {
                    pool.as_mut_slice()[i] = d;
                    source.as_mut_slice()[i] = (known + j) as u32;
                }
                None => {
                    pool.push(d);
                    source.push((known + j) as u32);
                }
            }
        }
        let ranking = rank(pool.as_slice());

        // `order[k]`: where the view's k-th entry comes from. A pool
        // position past the old entries is an id new to the view.
        let mut taken: Scratch<bool, POOL> = Scratch::filled(source.len(), false);
        let mut order: Scratch<u32, INLINE> = Scratch::new();
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
        }
        // Append the kept candidates, then gather: position `k` takes the
        // entry at `order[k]`, which an earlier swap may have displaced
        // along the chain of already-final positions.
        let mut slot_of: Scratch<u32, POOL> = Scratch::filled(offered_len, u32::MAX);
        for (k, &from) in order.as_slice().iter().enumerate() {
            if from as usize >= known {
                slot_of.as_mut_slice()[from as usize - known] = k as u32;
            }
        }
        for (d, &k) in candidates.into_iter().zip(slot_of.as_slice()) {
            if k != u32::MAX {
                order.as_mut_slice()[k as usize] = self.entries.len() as u32;
                self.entries.push(d.into());
            }
        }
        let order = order.as_slice();
        for k in 0..order.len() {
            let mut from = order[k] as usize;
            while from < k {
                from = order[from] as usize;
            }
            self.entries.swap(k, from);
        }
        self.entries.truncate(order.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn d(id: NodeId, age: u32) -> Descriptor<u8> {
        Descriptor {
            id,
            profile: 0,
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
    fn keep<P>(ids: &[NodeId]) -> impl FnOnce(&[&Descriptor<P>]) -> Ranking + '_ {
        move |pool| {
            ids.iter()
                .filter_map(|id| pool.iter().position(|d| d.id == *id))
                .map(|at| at as u32)
                .collect()
        }
    }

    /// Everything pooled, in pool order.
    fn keep_all<P>(pool: &[&Descriptor<P>]) -> Ranking {
        (0..pool.len() as u32).collect()
    }

    #[test]
    fn reselect_bounds_and_dedupes() {
        let mut v = View::new(2);
        v.reselect(vec![d(1, 0), d(1, 5), d(2, 0), d(3, 0)], 99, keep_all);
        assert_eq!(v.ids(), vec![1, 2]);
        assert_eq!(v.get(1).unwrap().age, 0, "staler duplicate not pooled");
        v.reselect(vec![d(3, 0), d(2, 0), d(99, 0)], 99, |pool| {
            assert_eq!(pool.iter().map(|e| e.id).collect::<Vec<_>>(), vec![1, 2, 3]);
            [2, 2, 0, 1].into_iter().collect()
        });
        assert_eq!(v.ids(), vec![3, 1], "a repeated position is kept once");
    }

    #[test]
    fn reselect_pools_own_entries_then_candidates() {
        let mut v = View::new(3);
        v.insert(d(1, 4));
        v.insert(d(2, 1));
        v.reselect([d(7, 0), d(1, 2)], 99, |pool| {
            let pooled: Vec<_> = pool.iter().map(|e| (e.id, e.age)).collect();
            assert_eq!(
                pooled,
                vec![(1, 2), (2, 1), (7, 0)],
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
        let mut v: View<Rc<u8>> = View::new(2);
        let offered: Vec<Descriptor<Rc<u8>>> = (1..=4)
            .map(|id| Descriptor::new(id, Rc::new(id as u8)))
            .collect();
        v.reselect(&offered, 99, keep(&[3, 1]));
        assert_eq!(v.ids(), vec![3, 1]);
        let counts: Vec<usize> = offered
            .iter()
            .map(|d| Rc::strong_count(&d.profile))
            .collect();
        assert_eq!(counts, vec![2, 1, 2, 1]);
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
        // reselect: id 3 survives, id 9 is new → +1.
        v.reselect([d(9, 0)], 99, keep(&[3, 9]));
        assert_eq!(v.turnover(), 4);
        // An id that left and comes back counts again.
        v.reselect([d(1, 0)], 99, keep(&[1]));
        assert_eq!(v.turnover(), 5);
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
