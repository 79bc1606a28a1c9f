use std::fmt;

use crate::Descriptor;

/// Policy deciding which descriptors the semantic layer keeps.
///
/// Given this node's own profile and a candidate pool (current view ∪
/// received descriptors ∪ fresh random peers from CYCLON), keep the
/// descriptors worth keeping, best first, at most `capacity` of them.
///
/// The pool is reordered and truncated *in place*: descriptors are moved,
/// never cloned, and the gossip layers hand the same `Vec` back to the view
/// — a selection allocates nothing.
///
/// Implementations must be deterministic in their inputs and independent of
/// the pool's incoming order; duplicates by id have already been collapsed
/// to the freshest descriptor when `select` is called.
pub trait Selector<P>: Send + Sync {
    /// Ranks the candidate pool best-first and truncates it to `capacity`.
    fn select(&self, own: &P, candidates: &mut Vec<Descriptor<P>>, capacity: usize);
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
        RankSelector { distance, _marker: std::marker::PhantomData }
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
    fn select(&self, own: &P, candidates: &mut Vec<Descriptor<P>>, capacity: usize) {
        candidates.sort_by_key(|d| ((self.distance)(own, &d.profile), d.age, d.id));
        candidates.truncate(capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_selector_keeps_closest() {
        let s = RankSelector::new(|a: &u64, b: &u64| a.abs_diff(*b));
        let mut kept = vec![
            Descriptor::new(1, 100u64),
            Descriptor::new(2, 13),
            Descriptor::new(3, 11),
            Descriptor::new(4, 50),
        ];
        s.select(&10, &mut kept, 2);
        assert_eq!(kept.iter().map(|d| d.id).collect::<Vec<_>>(), vec![3, 2]);
    }

    #[test]
    fn ties_break_by_age_then_id() {
        let s = RankSelector::new(|_: &u64, _: &u64| 0);
        let mut kept = vec![
            Descriptor { id: 5, profile: 0, age: 3 },
            Descriptor { id: 9, profile: 0, age: 0 },
            Descriptor { id: 2, profile: 0, age: 0 },
        ];
        s.select(&0, &mut kept, 2);
        assert_eq!(kept.iter().map(|d| d.id).collect::<Vec<_>>(), vec![2, 9]);
    }
}
