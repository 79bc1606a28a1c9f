//! Dense `NodeId`-indexed storage for per-node simulator state.
//!
//! Simulator node ids are handed out contiguously from zero (`next_id`)
//! and restarts reuse the crashed node's id, so the id space is a dense
//! prefix of the naturals for the cluster's whole lifetime. A
//! `Vec<Option<T>>` indexed by id therefore replaces the former
//! `FastMap<NodeId, SimNode>`: lookups on the per-event hot path drop the
//! hash and probe sequence for one bounds-checked offset, and a million
//! nodes sit in one contiguous allocation instead of a hash table's
//! bucket spine (no per-entry key storage, no load-factor slack).
//!
//! Iteration order is ascending id — deterministic by construction, unlike
//! the seeded-but-arbitrary FastMap order. The only order-sensitive
//! consumers (`LoadHistogram::new`) sort internally, so this is
//! observation-equivalent; everything digest-pinned orders by `sorted_ids`
//! already.

use epigossip::NodeId;

pub(crate) struct NodeStore<T> {
    slots: Vec<Option<T>>,
    alive: usize,
}

impl<T> Default for NodeStore<T> {
    fn default() -> Self {
        NodeStore {
            slots: Vec::new(),
            alive: 0,
        }
    }
}

impl<T> NodeStore<T> {
    pub(crate) fn len(&self) -> usize {
        self.alive
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.alive == 0
    }

    pub(crate) fn contains_key(&self, id: &NodeId) -> bool {
        self.get(id).is_some()
    }

    pub(crate) fn get(&self, id: &NodeId) -> Option<&T> {
        self.slots.get(*id as usize).and_then(Option::as_ref)
    }

    pub(crate) fn get_mut(&mut self, id: &NodeId) -> Option<&mut T> {
        self.slots.get_mut(*id as usize).and_then(Option::as_mut)
    }

    pub(crate) fn insert(&mut self, id: NodeId, value: T) -> Option<T> {
        let idx = id as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let prev = self.slots[idx].replace(value);
        if prev.is_none() {
            self.alive += 1;
        }
        prev
    }

    pub(crate) fn remove(&mut self, id: &NodeId) -> Option<T> {
        let gone = self.slots.get_mut(*id as usize).and_then(Option::take);
        if gone.is_some() {
            self.alive -= 1;
        }
        gone
    }

    /// Occupied entries ascending by id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (i as NodeId, v)))
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().filter_map(Option::as_mut)
    }
}

impl<T> std::ops::Index<&NodeId> for NodeStore<T> {
    type Output = T;

    fn index(&self, id: &NodeId) -> &T {
        self.get(id).expect("indexed node alive")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s: NodeStore<&'static str> = NodeStore::default();
        assert!(s.is_empty());
        assert_eq!(s.insert(3, "c"), None);
        assert_eq!(s.insert(0, "a"), None);
        assert_eq!(s.len(), 2);
        assert!(s.contains_key(&3));
        assert!(!s.contains_key(&1));
        assert_eq!(s.get(&0), Some(&"a"));
        assert_eq!(s.insert(0, "a2"), Some("a"));
        assert_eq!(s.len(), 2);
        assert_eq!(s.remove(&0), Some("a2"));
        assert_eq!(s.remove(&0), None);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(&999), None);
    }

    #[test]
    fn iterates_ascending_by_id() {
        let mut s: NodeStore<u32> = NodeStore::default();
        for id in [5u64, 1, 9, 2] {
            s.insert(id, id as u32 * 10);
        }
        s.remove(&9);
        let pairs: Vec<_> = s.iter().map(|(id, &v)| (id, v)).collect();
        assert_eq!(pairs, vec![(1, 10), (2, 20), (5, 50)]);
        assert_eq!(s.values().count(), 3);
    }
}
