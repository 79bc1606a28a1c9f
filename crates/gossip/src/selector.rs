use std::fmt;

use crate::{Descriptor, NodeId, Scratch};

/// Positions in a ranked pool, best first: what [`Selector::rank`] returns.
/// Inline room for the paper's view size (20) with slack.
pub type Ranking = Scratch<u32, 32>;

/// Policy deciding which descriptors the semantic layer keeps.
///
/// Given this node's own profile and a candidate pool (current view ∪
/// received descriptors ∪ fresh random peers from CYCLON), name the
/// descriptors worth keeping, best first, at most `capacity` of them.
///
/// The pool is *borrowed*: ranking moves and clones nothing, and the gossip
/// layers clone (or move) only the descriptors a ranking keeps — the view
/// re-selects in place from it ([`View::reselect`](crate::View::reselect)),
/// an exchange sends exactly the ranked batch.
///
/// Implementations must be deterministic in their inputs and independent of
/// the pool's incoming order; duplicates by id have already been collapsed
/// to the freshest descriptor when the gossip layers call `rank`.
pub trait Selector<P>: Send + Sync {
    /// Ranks `pool` from `own`'s vantage point: the positions in `pool` of
    /// at most `capacity` descriptors, best first, each at most once.
    fn rank(&self, own: &P, pool: &[&Descriptor<P>], capacity: usize) -> Ranking;
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
    /// By `(distance, age, id)`, ties in pool order.
    fn rank(&self, own: &P, pool: &[&Descriptor<P>], capacity: usize) -> Ranking {
        let mut keys: Scratch<(u64, u32, NodeId, u32), 48> = pool
            .iter()
            .enumerate()
            .map(|(pos, d)| ((self.distance)(own, &d.profile), d.age, d.id, pos as u32))
            .collect();
        sort_smallest(keys.as_mut_slice(), capacity)
            .iter()
            .map(|k| k.3)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranked(
        s: &impl Selector<u64>,
        own: u64,
        pool: &[Descriptor<u64>],
        capacity: usize,
    ) -> Vec<NodeId> {
        let refs: Vec<&Descriptor<u64>> = pool.iter().collect();
        s.rank(&own, &refs, capacity)
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
        let refs: Vec<&Descriptor<u64>> = pool.iter().collect();
        assert_eq!(s.rank(&0, &refs, 3).as_slice(), &[2, 3, 1]);
    }

    #[test]
    fn sort_smallest_is_a_partial_sort() {
        let mut v = [5, 1, 4, 2, 3];
        assert_eq!(sort_smallest(&mut v, 2), &[1, 2]);
        assert_eq!(sort_smallest(&mut v, 9), &[1, 2, 3, 4, 5]);
        assert!(sort_smallest(&mut v, 0).is_empty());
    }
}
