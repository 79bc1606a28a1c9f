use rand::Rng;

use crate::{Descriptor, NodeId, Scratch, View};

/// The CYCLON peer-sampling layer: a bounded random view refreshed by
/// periodic *shuffles* with the oldest known neighbor.
///
/// CYCLON's properties — near-random graph, fast convergence, automatic
/// eviction of dead peers through ageing — are what make the paper's overlay
/// "extremely robust against partitioning even in the presence of churn and
/// massive node failures" (§5).
///
/// This type is one *half* of a node's gossip stack; use
/// [`GossipStack`](crate::GossipStack) unless you are composing layers
/// yourself.
#[derive(Debug, Clone)]
pub struct Cyclon<P> {
    id: NodeId,
    profile: P,
    view: View<P>,
    shuffle_len: usize,
    /// Ids sent in the last initiated shuffle, replaceable on response.
    in_flight: Vec<NodeId>,
    /// Partner of the in-flight shuffle, if any.
    pending_partner: Option<NodeId>,
}

impl<P> Cyclon<P> {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Read access to the random view.
    pub fn view(&self) -> &View<P> {
        &self.view
    }

    /// The shuffle partner this node is waiting on, if any. The stack uses
    /// this to evict unresponsive partners.
    pub fn pending_partner(&self) -> Option<NodeId> {
        self.pending_partner
    }

    /// Forgets the in-flight shuffle (partner deemed dead).
    pub fn abort_pending(&mut self) {
        self.pending_partner = None;
        self.in_flight.clear();
    }

    /// Removes a peer believed dead (transport-level failure detection).
    pub fn evict(&mut self, id: NodeId) {
        self.view.remove(id);
    }
}

impl<P: Clone> Cyclon<P> {
    /// Creates the layer with an empty view.
    pub fn new(id: NodeId, profile: P, view_size: usize, shuffle_len: usize) -> Self {
        assert!(shuffle_len >= 1, "shuffle length must be at least 1");
        Cyclon {
            id,
            profile,
            view: View::new(view_size),
            shuffle_len,
            in_flight: Vec::new(),
            pending_partner: None,
        }
    }

    /// Updates the profile advertised in future shuffles (attribute change).
    pub fn set_profile(&mut self, profile: P) {
        self.profile = profile;
    }

    /// Seeds the view with a known peer (bootstrap).
    pub fn introduce(&mut self, id: NodeId, profile: P) {
        if id != self.id {
            self.view.insert(Descriptor::new(id, profile));
        }
    }

    /// Starts one shuffle: ages the view, removes the oldest peer `q`, and
    /// returns `(q, descriptors-to-send)`. Returns `None` when the view is
    /// empty (an isolated node must be re-introduced).
    pub fn initiate<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
    ) -> Option<(NodeId, Vec<Descriptor<P>>)> {
        self.view.increase_ages();
        let partner = self.view.oldest()?;
        self.view.remove(partner);
        let mut batch = self
            .view
            .random_subset(self.shuffle_len - 1, Some(partner), rng);
        batch.push(Descriptor::new(self.id, self.profile.clone()));
        self.in_flight.clear();
        self.in_flight.extend(batch.iter().map(|d| d.id));
        self.pending_partner = Some(partner);
        Some((partner, batch))
    }

    /// Handles a shuffle request from `from`, returning the response batch.
    /// Received descriptors are cloned only where they enter the view.
    pub fn handle_request<R: Rng + ?Sized>(
        &mut self,
        from: NodeId,
        received: &[Descriptor<P>],
        rng: &mut R,
    ) -> Vec<Descriptor<P>> {
        let reply = self.view.random_subset(self.shuffle_len, Some(from), rng);
        // The reply is exactly what was sent; its ids are replaceable.
        let sent: Scratch<NodeId, 16> = reply.iter().map(|d| d.id).collect();
        self.view.merge_shuffle(received, sent.as_slice(), self.id);
        reply
    }

    /// Handles the response to a shuffle this node initiated.
    pub fn handle_response(&mut self, from: NodeId, received: &[Descriptor<P>]) {
        if self.pending_partner != Some(from) {
            // Stale or duplicate response: merge conservatively with no
            // replaceable slots.
            self.view.merge_shuffle(received, &[], self.id);
            return;
        }
        self.pending_partner = None;
        self.view.merge_shuffle(received, &self.in_flight, self.id);
        self.in_flight.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn initiate_targets_oldest_and_includes_self() {
        let mut c = Cyclon::new(1, (), 8, 3);
        c.introduce(2, ());
        c.introduce(3, ());
        // Age id 2 by one extra round via a no-partner trick: insert older.
        c.view.insert(Descriptor {
            id: 4,
            profile: (),
            age: 9,
        });
        let (partner, batch) = c.initiate(&mut rng()).unwrap();
        assert_eq!(partner, 4, "oldest entry is the shuffle partner");
        assert!(!c.view().contains(4), "partner removed from view");
        assert!(
            batch.iter().any(|d| d.id == 1 && d.age == 0),
            "self descriptor included"
        );
        assert!(batch.len() <= 3);
        assert!(batch.iter().all(|d| d.id != 4), "partner never echoed back");
    }

    #[test]
    fn empty_view_cannot_initiate() {
        let mut c: Cyclon<()> = Cyclon::new(1, (), 8, 3);
        assert!(c.initiate(&mut rng()).is_none());
    }

    #[test]
    fn request_response_exchanges_membership() {
        let mut a = Cyclon::new(1, (), 8, 3);
        let mut b = Cyclon::new(2, (), 8, 3);
        a.introduce(2, ());
        b.introduce(3, ());
        let (partner, batch) = a.initiate(&mut rng()).unwrap();
        assert_eq!(partner, 2);
        let reply = b.handle_request(1, &batch, &mut rng());
        a.handle_response(2, &reply);
        assert!(b.view().contains(1), "B learned A");
        assert!(a.view().contains(3), "A learned B's neighbor");
        assert_eq!(a.pending_partner(), None);
    }

    #[test]
    fn self_descriptor_never_enters_own_view() {
        let mut a = Cyclon::new(1, (), 8, 3);
        a.introduce(2, ());
        let (_, batch) = a.initiate(&mut rng()).unwrap();
        a.handle_response(2, &batch); // echo back, includes own descriptor
        assert!(!a.view().contains(1));
    }

    #[test]
    fn stale_response_merges_without_replacement() {
        let mut a = Cyclon::new(1, (), 2, 2);
        a.introduce(2, ());
        a.introduce(3, ());
        a.handle_response(9, &[Descriptor::new(4, ())]); // never initiated with 9
        assert!(!a.view().contains(4) || a.view().len() <= 2);
        assert!(a.view().contains(2) && a.view().contains(3));
    }

    #[test]
    fn evict_removes_peer() {
        let mut a = Cyclon::new(1, (), 4, 2);
        a.introduce(2, ());
        a.evict(2);
        assert!(a.view().is_empty());
    }
}
