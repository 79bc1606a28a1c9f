//! `Vicinity::absorb` against its former self. The pooling used to go
//! through a `HashMap<NodeId, Descriptor>` and cloned views (`to_vec` →
//! `select(Vec) -> Vec` → `replace_all`); it now moves the view's own
//! entries through an in-place selection. The old bodies live on here as
//! the reference: same view entries, in the same order, and the same
//! `turnover` after any chain of absorbs.

use std::collections::HashMap;
use std::sync::Arc;

use epigossip::{Descriptor, NodeId, RankSelector, Vicinity};
use proptest::prelude::*;

fn distance(a: &u64, b: &u64) -> u64 {
    a.abs_diff(*b)
}

/// The semantic layer as it was: view entries, their capacity and the
/// turnover counter, driven by the parent commit's `absorb`, `RankSelector::
/// select` and `View::replace_all` bodies.
struct ReferenceVicinity {
    id: NodeId,
    profile: u64,
    entries: Vec<Descriptor<u64>>,
    capacity: usize,
    turnover: u64,
}

impl ReferenceVicinity {
    fn select(&self, mut candidates: Vec<Descriptor<u64>>) -> Vec<Descriptor<u64>> {
        candidates.sort_by_key(|d| (distance(&self.profile, &d.profile), d.age, d.id));
        candidates.truncate(self.capacity);
        candidates
    }

    fn replace_all(&mut self, entries: Vec<Descriptor<u64>>) {
        let previous: Vec<NodeId> = self.entries.iter().map(|d| d.id).collect();
        self.entries.clear();
        for d in entries {
            if self.entries.len() == self.capacity {
                break;
            }
            if !self.entries.iter().any(|e| e.id == d.id) {
                if !previous.contains(&d.id) {
                    self.turnover += 1;
                }
                self.entries.push(d);
            }
        }
    }

    fn absorb(&mut self, candidates: Vec<Descriptor<u64>>) {
        if candidates.is_empty() {
            return;
        }
        let mut pool: HashMap<NodeId, Descriptor<u64>> = HashMap::new();
        for d in self.entries.clone().into_iter().chain(candidates) {
            if d.id == self.id {
                continue;
            }
            match pool.get(&d.id) {
                Some(existing) if existing.age <= d.age => {}
                _ => {
                    pool.insert(d.id, d);
                }
            }
        }
        let kept = self.select(pool.into_values().collect());
        self.replace_all(kept);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Batches with duplicate ids, equal ages, conflicting profiles for one
    /// id, the node's own id and empty batches, at every view capacity from
    /// 1 up — fed owned and borrowed alike.
    #[test]
    fn absorb_equals_reference(
        own in 0u64..50,
        capacity in 1usize..9,
        batches in prop::collection::vec(
            prop::collection::vec((0u64..12, 0u64..50, 0u32..4), 0..30),
            1..6,
        ),
    ) {
        const SELF: NodeId = 3;
        let selector = Arc::new(RankSelector::new(distance));
        let mut owned = Vicinity::new(SELF, own, capacity, 1, selector.clone());
        let mut borrowed = Vicinity::new(SELF, own, capacity, 1, selector);
        let mut reference =
            ReferenceVicinity { id: SELF, profile: own, entries: Vec::new(), capacity, turnover: 0 };
        for batch in &batches {
            let batch: Vec<Descriptor<u64>> = batch
                .iter()
                .map(|&(id, profile, age)| Descriptor { id, profile, age })
                .collect();
            borrowed.absorb(&batch);
            owned.absorb(batch.clone());
            reference.absorb(batch);
            for v in [&owned, &borrowed] {
                let entries: Vec<Descriptor<u64>> = v.view().iter().cloned().collect();
                prop_assert_eq!(&entries, &reference.entries);
                prop_assert_eq!(v.view().turnover(), reference.turnover);
            }
        }
    }
}
