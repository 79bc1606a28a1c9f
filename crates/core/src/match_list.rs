use std::fmt;
use std::sync::Arc;

use crate::Match;

/// An immutable, shared, in-order list of matches: what a REPLY carries
/// up the traversal tree.
///
/// Each hop of Fig. 5's `receive_reply` merges its subtrees' matches into
/// its own answer. A `MatchList` makes that merge a reference, not a copy:
/// its segments are single matches or whole child lists, shared by `Arc`.
/// A node that concludes builds its list in one allocation, and the REPLY
/// it sends, the copy its reply cache keeps and the upstream list that
/// absorbs it all hold that same allocation — no match is copied more than
/// once along a query's reply path.
///
/// An empty list allocates nothing, and a list made of a single child list
/// is that child. Equality is element-wise: two lists are equal when they
/// yield the same matches in the same order, however they are segmented.
///
/// The handle is one pointer pair and a segment three words: the list
/// keeps no length of its own, so [`len`](Self::len) walks it.
#[derive(Clone, Default)]
pub struct MatchList {
    /// `None` exactly when the list is empty; never holds an empty child.
    segments: Option<Arc<[Segment]>>,
}

/// One piece of a [`MatchList`]: a match of the node that built the list,
/// or a whole list received from a child, shared.
#[derive(Debug, Clone)]
pub(crate) enum Segment {
    One(Match),
    List(MatchList),
}

impl Segment {
    fn len(&self) -> usize {
        match self {
            Segment::One(_) => 1,
            Segment::List(l) => l.len(),
        }
    }
}

impl MatchList {
    /// The empty list.
    pub fn new() -> Self {
        MatchList::default()
    }

    /// Number of matches in the list: a walk over its segments.
    pub fn len(&self) -> usize {
        self.segments().iter().map(Segment::len).sum()
    }

    /// Whether the list holds no match.
    pub fn is_empty(&self) -> bool {
        self.segments.is_none()
    }

    /// The matches in order. Walking into a shared child allocates only
    /// when that child is not the last segment of its parent.
    pub fn iter(&self) -> MatchIter<'_> {
        MatchIter {
            front: self.segments().iter(),
            stack: Vec::new(),
        }
    }

    /// The matches in order, as an owned vector.
    pub fn to_vec(&self) -> Vec<Match> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.iter().cloned());
        out
    }

    fn segments(&self) -> &[Segment] {
        self.segments.as_deref().unwrap_or(&[])
    }

    /// Builds a list from `segments`, leaving the vector empty with its
    /// capacity. No segment may be an empty list. One allocation, or none
    /// when the list is empty or a single shared child.
    pub(crate) fn from_segments(segments: &mut Vec<Segment>) -> MatchList {
        if let [Segment::List(child)] = segments.as_slice() {
            let child = child.clone();
            segments.clear();
            return child;
        }
        if segments.is_empty() {
            return MatchList::new();
        }
        MatchList {
            segments: Some(segments.drain(..).collect()),
        }
    }

    /// Whether both lists are the same allocation (both empty counts too).
    #[cfg(test)]
    pub(crate) fn ptr_eq(&self, other: &MatchList) -> bool {
        match (&self.segments, &other.segments) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// The child lists this list shares, in order.
    #[cfg(test)]
    pub(crate) fn children(&self) -> impl Iterator<Item = &MatchList> {
        self.segments().iter().filter_map(|s| match s {
            Segment::List(l) => Some(l),
            Segment::One(_) => None,
        })
    }
}

impl From<Vec<Match>> for MatchList {
    fn from(matches: Vec<Match>) -> Self {
        if matches.is_empty() {
            return MatchList::new();
        }
        MatchList {
            segments: Some(matches.into_iter().map(Segment::One).collect()),
        }
    }
}

impl PartialEq for MatchList {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for MatchList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// In-order iterator over a [`MatchList`], depth-first through its shared
/// children.
#[derive(Debug, Clone)]
pub struct MatchIter<'a> {
    /// The segments still to visit at the current depth.
    front: std::slice::Iter<'a, Segment>,
    /// The unfinished segments of every enclosing list.
    stack: Vec<std::slice::Iter<'a, Segment>>,
}

impl<'a> Iterator for MatchIter<'a> {
    type Item = &'a Match;

    fn next(&mut self) -> Option<&'a Match> {
        loop {
            match self.front.next() {
                Some(Segment::One(m)) => return Some(m),
                Some(Segment::List(child)) => {
                    let outer = std::mem::replace(&mut self.front, child.segments().iter());
                    // A child in last position is a tail: nothing to return to.
                    if outer.len() > 0 {
                        self.stack.push(outer);
                    }
                }
                None => self.front = self.stack.pop()?,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrspace::Space;

    fn m(node: u64) -> Match {
        let s = Space::uniform(1, 80, 3).expect("valid 1-d space geometry");
        Match {
            node,
            values: s.point(&[node % 80]).expect("coords lie inside the space"),
        }
    }

    fn ids(l: &MatchList) -> Vec<u64> {
        l.iter().map(|m| m.node).collect()
    }

    #[test]
    fn empty_list_allocates_nothing() {
        let l = MatchList::from(Vec::new());
        assert!(l.is_empty() && l.segments.is_none());
        assert!(MatchList::from_segments(&mut Vec::new()).segments.is_none());
        assert_eq!(l.iter().next(), None);
        assert_eq!(format!("{l:?}"), "[]");
    }

    /// The layout the type comment promises: a segment's tag hides in a
    /// niche of the match it could hold, so a shared child costs no more
    /// than a match does.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn segments_are_three_words() {
        assert_eq!(std::mem::size_of::<MatchList>(), 16);
        assert_eq!(std::mem::size_of::<Segment>(), 24);
        assert_eq!(std::mem::size_of::<Segment>(), std::mem::size_of::<Match>());
    }

    #[test]
    fn a_single_child_is_the_child() {
        let child = MatchList::from(vec![m(1), m(2)]);
        let mut segs = Vec::with_capacity(4);
        segs.push(Segment::List(child.clone()));
        let parent = MatchList::from_segments(&mut segs);
        assert!(parent.ptr_eq(&child));
        assert!(
            segs.is_empty() && segs.capacity() == 4,
            "the vector keeps its capacity"
        );
    }

    #[test]
    fn nested_lists_iterate_in_order() {
        let a = MatchList::from(vec![m(1), m(2)]);
        let b = MatchList::from(vec![m(5)]);
        let mut segs = vec![
            Segment::One(m(0)),
            Segment::List(a.clone()),
            Segment::List(b),
        ];
        let ab = MatchList::from_segments(&mut segs);
        let mut segs = vec![
            Segment::List(ab.clone()),
            Segment::One(m(9)),
            Segment::List(a),
        ];
        let top = MatchList::from_segments(&mut segs);
        assert_eq!(ids(&top), vec![0, 1, 2, 5, 9, 1, 2]);
        assert_eq!(top.len(), 7);
        assert_eq!(top.iter().count(), 7);
        assert_eq!(top.to_vec().len(), 7);
        assert_eq!(top.children().count(), 2);
        assert!(top.children().next().expect("two children").ptr_eq(&ab));
        // Element-wise equality and list-shaped `Debug`, whatever the shape.
        let flat = MatchList::from(top.to_vec());
        assert_eq!(flat, top);
        assert!(!flat.ptr_eq(&top));
        assert_eq!(format!("{flat:?}"), format!("{top:?}"));
        assert_eq!(format!("{top:?}"), format!("{:?}", top.to_vec()));
        assert_ne!(ab, top);
    }
}
