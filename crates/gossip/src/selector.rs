use std::fmt;

use crate::{Descriptor, NodeId, Scratch};

/// Positions in a ranked pool, best first: what [`Selector::rank`] returns.
/// Inline room for the paper's view size (20) with slack.
pub type Ranking = Scratch<u32, 32>;

/// What a [`Selector`] ranks a descriptor by: its class from the ranking
/// node's vantage point ([`Selector::class`]), its age and its id.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankKey {
    /// The descriptor's class from the ranking node's vantage point.
    pub class: u64,
    /// The descriptor's age.
    pub age: u32,
    /// The descriptor's id.
    pub id: NodeId,
}

impl RankKey {
    /// The key of `d`, whose class is `class`.
    pub fn new<P>(class: u64, d: &Descriptor<P>) -> Self {
        RankKey {
            class,
            age: d.age,
            id: d.id,
        }
    }
}

/// Policy deciding which descriptors the semantic layer keeps.
///
/// Given this node's own profile and a candidate pool (current view ∪
/// received descriptors ∪ fresh random peers from CYCLON), name the
/// descriptors worth keeping, best first, at most `capacity` of them.
///
/// A selector ranks [`RankKey`]s, never descriptors: a descriptor's class
/// is a function of the two profiles alone, so the semantic view computes
/// it once, when a descriptor enters, and keeps it beside the entry
/// ([`View::classes`](crate::View::classes)); an absorb classifies only its
/// candidates, and an exchange classifies the view from the partner's
/// vantage point. The gossip layers clone (or move) only the descriptors a
/// ranking keeps.
///
/// Implementations must be deterministic in their inputs and independent of
/// the pool's incoming order; duplicates by id have already been collapsed
/// to the freshest descriptor when the gossip layers call `rank`.
pub trait Selector<P>: Send + Sync {
    /// `other`'s class from `own`'s vantage point: what a ranking orders by
    /// besides age and id.
    fn class(&self, own: &P, other: &P) -> u64;

    /// Ranks `pool` from `own`'s vantage point: the positions in `pool` of
    /// at most `capacity` descriptors, best first, each at most once.
    fn rank(&self, own: &P, pool: &[RankKey], capacity: usize) -> Ranking;

    /// Whether ranking `view` followed by `fresh` at capacity `view.len()`
    /// provably returns `view`'s positions in order: the absorb that would
    /// pool them cannot change the view. `fresh` holds candidates whose ids
    /// are not in `view`; an id may repeat, and the answer must hold
    /// whichever of its copies is pooled. `false` only costs the absorb a
    /// full ranking, so an implementation may answer `false` whenever it
    /// is unsure — never `true` wrongly. The default proves nothing.
    fn keeps(&self, own: &P, view: &[RankKey], fresh: &[RankKey]) -> bool {
        let _ = (own, view, fresh);
        false
    }
}

/// Sorts the `n` smallest of `items` into its front and returns them: the
/// partial sort behind a ranking that keeps a few of many.
pub fn sort_smallest<T: Ord>(items: &mut [T], n: usize) -> &mut [T] {
    let n = n.min(items.len());
    if n < items.len() {
        items.select_nth_unstable(n);
    }
    let head = &mut items[..n];
    head.sort_unstable();
    head
}

/// A [`Selector`] that keeps the `capacity` candidates minimizing a distance
/// function — the classic Vicinity "semantic proximity" policy. Useful on its
/// own for tests and for simple similarity overlays; the resource-selection
/// crate supplies a slot-quota selector instead.
#[derive(Clone)]
pub struct RankSelector<P, F> {
    distance: F,
    _marker: std::marker::PhantomData<fn(&P)>,
}

impl<P, F> RankSelector<P, F>
where
    F: Fn(&P, &P) -> u64,
{
    /// Creates a selector from a symmetric distance function.
    pub fn new(distance: F) -> Self {
        RankSelector {
            distance,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<P, F> fmt::Debug for RankSelector<P, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RankSelector").finish_non_exhaustive()
    }
}

impl<P, F> Selector<P> for RankSelector<P, F>
where
    P: Clone + Send + Sync,
    F: Fn(&P, &P) -> u64 + Send + Sync,
{
    /// The distance between the two profiles.
    fn class(&self, own: &P, other: &P) -> u64 {
        (self.distance)(own, other)
    }

    /// By `(distance, age, id)`, ties in pool order.
    fn rank(&self, _own: &P, pool: &[RankKey], capacity: usize) -> Ranking {
        let mut keys: Scratch<(u64, u32, NodeId, u32), 48> = pool
            .iter()
            .enumerate()
            .map(|(pos, k)| (k.class, k.age, k.id, pos as u32))
            .collect();
        sort_smallest(keys.as_mut_slice(), capacity)
            .iter()
            .map(|k| k.3)
            .collect()
    }

    /// When `view` is sorted, ties impossible, and every fresh key sorts
    /// after its last entry.
    fn keeps(&self, _own: &P, view: &[RankKey], fresh: &[RankKey]) -> bool {
        let key = |k: &RankKey| (k.class, k.age, k.id);
        let sorted = view.windows(2).all(|w| key(&w[0]) < key(&w[1]));
        sorted
            && view
                .last()
                .is_none_or(|last| fresh.iter().all(|k| key(k) > key(last)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(s: &impl Selector<u64>, own: u64, pool: &[Descriptor<u64>]) -> Vec<RankKey> {
        pool.iter()
            .map(|d| RankKey::new(s.class(&own, &d.profile), d))
            .collect()
    }

    fn ranked(
        s: &impl Selector<u64>,
        own: u64,
        pool: &[Descriptor<u64>],
        capacity: usize,
    ) -> Vec<NodeId> {
        s.rank(&own, &keys(s, own, pool), capacity)
            .as_slice()
            .iter()
            .map(|&p| pool[p as usize].id)
            .collect()
    }

    #[test]
    fn rank_selector_keeps_closest() {
        let s = RankSelector::new(|a: &u64, b: &u64| a.abs_diff(*b));
        let pool = [
            Descriptor::new(1, 100u64),
            Descriptor::new(2, 13),
            Descriptor::new(3, 11),
            Descriptor::new(4, 50),
        ];
        assert_eq!(ranked(&s, 10, &pool, 2), vec![3, 2]);
        assert_eq!(ranked(&s, 10, &pool, 9), vec![3, 2, 4, 1]);
        assert!(ranked(&s, 10, &pool, 0).is_empty());
    }

    #[test]
    fn ties_break_by_age_then_id_then_position() {
        let s = RankSelector::new(|_: &u64, _: &u64| 0);
        let pool = [
            Descriptor {
                id: 5,
                profile: 0,
                age: 3,
            },
            Descriptor {
                id: 9,
                profile: 0,
                age: 0,
            },
            Descriptor {
                id: 2,
                profile: 1,
                age: 0,
            },
            Descriptor {
                id: 2,
                profile: 2,
                age: 0,
            },
        ];
        assert_eq!(s.rank(&0, &keys(&s, 0, &pool), 3).as_slice(), &[2, 3, 1]);
    }

    #[test]
    fn keeps_a_sorted_view_against_keys_past_its_last() {
        let s = RankSelector::new(|a: &u64, b: &u64| a.abs_diff(*b));
        let key = |class, age, id| RankKey { class, age, id };
        let view = [key(1, 0, 4), key(1, 2, 3), key(5, 0, 9)];
        assert!(s.keeps(&0, &view, &[]));
        assert!(s.keeps(&0, &view, &[key(5, 0, 10), key(5, 1, 2), key(6, 0, 0)]));
        assert!(
            !s.keeps(&0, &view, &[key(5, 0, 8)]),
            "sorts before the last"
        );
        assert!(!s.keeps(&0, &[view[1], view[0]], &[]), "not sorted");
    }

    #[test]
    fn sort_smallest_is_a_partial_sort() {
        let mut v = [5, 1, 4, 2, 3];
        assert_eq!(sort_smallest(&mut v, 2), &[1, 2]);
        assert_eq!(sort_smallest(&mut v, 9), &[1, 2, 3, 4, 5]);
        assert!(sort_smallest(&mut v, 0).is_empty());
    }
}
