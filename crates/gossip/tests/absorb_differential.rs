//! `Vicinity` against its former selves. The pooling used to go through a
//! `HashMap<NodeId, Descriptor>` and cloned views (`to_vec` →
//! `select(Vec) -> Vec` → `replace_all`), and an exchange's batch used to be
//! cloned from the whole view before the selector cut it down; the view now
//! re-selects in place from a borrowed ranking, and a batch clones only what
//! it sends. The old bodies live on here as the reference: same view
//! entries, in the same order, the same `turnover`, the same batches and the
//! same RNG stream after any chain of absorbs and exchanges.

#![allow(clippy::disallowed_types)] // std-collections: test code; the reference keeps the old pool

use std::collections::HashMap;
use std::sync::Arc;

use epigossip::{Descriptor, NodeId, RankSelector, Vicinity};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

fn distance(a: &u64, b: &u64) -> u64 {
    a.abs_diff(*b)
}

/// The semantic layer as it was: view entries, their capacity and the
/// turnover counter, driven by the former `absorb`, `batch_for`,
/// `RankSelector::select` and `View::{random_subset, replace_all}` bodies.
struct ReferenceVicinity {
    id: NodeId,
    profile: u64,
    entries: Vec<Descriptor<u64>>,
    capacity: usize,
    shuffle_len: usize,
    turnover: u64,
}

impl ReferenceVicinity {
    fn select(
        &self,
        own: u64,
        mut candidates: Vec<Descriptor<u64>>,
        capacity: usize,
    ) -> Vec<Descriptor<u64>> {
        candidates.sort_by_key(|d| (distance(&own, &d.profile), d.age, d.id));
        candidates.truncate(capacity);
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
        let kept = self.select(self.profile, pool.into_values().collect(), self.capacity);
        self.replace_all(kept);
    }

    fn random_subset(
        &self,
        n: usize,
        exclude: Option<NodeId>,
        rng: &mut StdRng,
    ) -> Vec<Descriptor<u64>> {
        let mut pool: Vec<u32> = (0..self.entries.len() as u32)
            .filter(|&i| Some(self.entries[i as usize].id) != exclude)
            .collect();
        pool.shuffle(rng);
        pool.iter()
            .take(n)
            .map(|&i| self.entries[i as usize].clone())
            .collect()
    }

    /// Clone every entry but the partner's, add our own, select, and make
    /// sure our own survived.
    fn batch_for(&self, partner: &Descriptor<u64>, rng: &mut StdRng) -> Vec<Descriptor<u64>> {
        let mut batch = self.random_subset(self.entries.len(), Some(partner.id), rng);
        batch.push(Descriptor::new(self.id, self.profile));
        let mut batch = self.select(partner.profile, batch, self.shuffle_len);
        if !batch.iter().any(|d| d.id == self.id) {
            batch.pop();
            batch.push(Descriptor::new(self.id, self.profile));
        }
        batch
    }

    fn initiate(&mut self, rng: &mut StdRng) -> Option<(NodeId, Vec<Descriptor<u64>>)> {
        for d in &mut self.entries {
            d.age = d.age.saturating_add(1);
        }
        let oldest = self
            .entries
            .iter()
            .enumerate()
            .max_by_key(|(_, d)| d.age)?
            .0;
        let partner = self.entries[oldest].clone();
        Some((partner.id, self.batch_for(&partner, rng)))
    }

    fn handle_request(
        &mut self,
        from: &Descriptor<u64>,
        received: Vec<Descriptor<u64>>,
        rng: &mut StdRng,
    ) -> Vec<Descriptor<u64>> {
        let reply = self.batch_for(from, rng);
        self.absorb(received.into_iter().chain([from.refreshed()]).collect());
        reply
    }
}

fn batch(raw: &[(u64, u64, u32)]) -> Vec<Descriptor<u64>> {
    raw.iter()
        .map(|&(id, profile, age)| Descriptor { id, profile, age })
        .collect()
}

fn assert_same_view(v: &Vicinity<u64>, reference: &ReferenceVicinity) {
    let entries: Vec<Descriptor<u64>> = v.view().iter().cloned().collect();
    prop_assert_eq!(&entries, &reference.entries);
    prop_assert_eq!(v.view().turnover(), reference.turnover);
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
        let mut reference = ReferenceVicinity {
            id: SELF,
            profile: own,
            entries: Vec::new(),
            capacity,
            shuffle_len: 1,
            turnover: 0,
        };
        for raw in &batches {
            let batch = batch(raw);
            borrowed.absorb(&batch);
            owned.absorb(batch.clone());
            reference.absorb(batch);
            assert_same_view(&owned, &reference);
            assert_same_view(&borrowed, &reference);
        }
    }

    /// Exchanges: `initiate` and `handle_request` send the batch the
    /// clone-then-select `batch_for` sent — same descriptors, same order,
    /// the own descriptor forced in when ranked out — leave the RNG at the
    /// same point of its stream, and absorb the request into the same view.
    #[test]
    fn exchanges_equal_reference(
        own in 0u64..50,
        capacity in 1usize..9,
        shuffle_len in 1usize..9,
        seed in any::<u64>(),
        rounds in prop::collection::vec(
            (
                prop::collection::vec((0u64..16, 0u64..50, 0u32..4), 0..20),
                (0u64..16, 0u64..50),
                0u8..3,
            ),
            1..6,
        ),
    ) {
        const SELF: NodeId = 3;
        let selector = Arc::new(RankSelector::new(distance));
        let mut v = Vicinity::new(SELF, own, capacity, shuffle_len, selector);
        let mut reference = ReferenceVicinity {
            id: SELF,
            profile: own,
            entries: Vec::new(),
            capacity,
            shuffle_len,
            turnover: 0,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reference_rng = StdRng::seed_from_u64(seed);
        for (raw, (from_id, from_profile), step) in &rounds {
            let received = batch(raw);
            match step {
                0 => {
                    v.absorb(&received);
                    reference.absorb(received);
                }
                1 => {
                    let sent = v.initiate(&mut rng);
                    prop_assert_eq!(sent, reference.initiate(&mut reference_rng));
                }
                _ => {
                    let from = Descriptor { id: *from_id, profile: *from_profile, age: rng.gen_range(0..3u32) };
                    reference_rng.gen_range(0..3u32);
                    let reply = v.handle_request(&from, received.clone(), &mut rng);
                    prop_assert_eq!(reply, reference.handle_request(&from, received, &mut reference_rng));
                }
            }
            assert_same_view(&v, &reference);
            prop_assert_eq!(rng.next_u64(), reference_rng.next_u64(), "draw pattern diverged");
        }
    }
}
