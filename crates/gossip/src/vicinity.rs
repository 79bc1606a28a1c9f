use std::sync::Arc;

use rand::Rng;

use crate::view::POOL;
use crate::{Descriptor, NodeId, RankKey, Scratch, Selector, View};

/// The semantic (top) gossip layer: keeps the `Kv` peers a [`Selector`]
/// deems most useful, exchanging candidates with semantic neighbors and
/// absorbing random peers from the CYCLON layer underneath (§5).
///
/// Unlike CYCLON, entries are not *traded away* — both parties keep the union
/// filtered by the selector, because semantic links are about coverage, not
/// about keeping in-degree balanced (the random layer does that).
pub struct Vicinity<P> {
    id: NodeId,
    profile: P,
    /// Each entry beside its class from this node's vantage point.
    view: View<P, u64>,
    shuffle_len: usize,
    selector: Arc<dyn Selector<P>>,
    /// Partner of the in-flight exchange, if any.
    pending_partner: Option<NodeId>,
}

impl<P: std::fmt::Debug> std::fmt::Debug for Vicinity<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vicinity")
            .field("id", &self.id)
            .field("view_len", &self.view.len())
            .finish_non_exhaustive()
    }
}

impl<P> Vicinity<P> {
    /// Read access to the semantic view.
    pub fn view(&self) -> &View<P, u64> {
        &self.view
    }

    /// Removes a peer believed dead.
    pub fn evict(&mut self, id: NodeId) {
        self.view.remove(id);
    }

    /// The exchange partner this node is waiting on, if any.
    pub fn pending_partner(&self) -> Option<NodeId> {
        self.pending_partner
    }

    /// Forgets the in-flight exchange (partner deemed dead).
    pub fn abort_pending(&mut self) {
        self.pending_partner = None;
    }
}

impl<P: Clone> Vicinity<P> {
    /// Creates the layer with an empty view.
    pub fn new(
        id: NodeId,
        profile: P,
        view_size: usize,
        shuffle_len: usize,
        selector: Arc<dyn Selector<P>>,
    ) -> Self {
        Vicinity {
            id,
            profile,
            view: View::new(view_size),
            shuffle_len,
            selector,
            pending_partner: None,
        }
    }

    /// Feeds candidate descriptors through the selector (called with fresh
    /// CYCLON samples every round, with bootstrap seeds, and with gossip
    /// exchanges): the view re-selects itself from its entries and the
    /// candidates ([`View::reselect`]), classifying only the candidates it
    /// pools. A full view the selector proves the candidates cannot change
    /// ([`Selector::keeps`]) is left as it is, unranked; otherwise kept
    /// entries stay in place, and a candidate is moved in (owned batches)
    /// or cloned (borrowed ones) only if it is kept.
    pub fn absorb<C>(&mut self, candidates: C)
    where
        C: AsRef<[Descriptor<P>]> + IntoIterator,
        C::Item: Into<Descriptor<P>>,
    {
        if !candidates.as_ref().is_empty() {
            self.view
                .reselect(candidates, self.id, &self.profile, &*self.selector);
        }
    }

    /// Starts one semantic gossip: ages entries, picks the oldest semantic
    /// neighbor, and returns `(partner, batch-to-send)`. The batch holds the
    /// descriptors *most useful to the partner* as judged by the selector
    /// from the partner's perspective, plus our own fresh descriptor.
    pub fn initiate<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
    ) -> Option<(NodeId, Vec<Descriptor<P>>)> {
        self.view.increase_ages();
        let partner_id = self.view.oldest()?;
        let partner = self.view.get(partner_id)?;
        let batch = self.batch_for(partner, rng);
        self.pending_partner = Some(partner_id);
        Some((partner_id, batch))
    }

    /// Handles a semantic gossip request, returning the response batch.
    pub fn handle_request<R: Rng + ?Sized>(
        &mut self,
        from: &Descriptor<P>,
        mut received: Vec<Descriptor<P>>,
        rng: &mut R,
    ) -> Vec<Descriptor<P>> {
        let reply = self.batch_for(from, rng);
        received.push(from.refreshed());
        self.absorb(received);
        reply
    }

    /// Handles the response to a gossip this node initiated.
    pub fn handle_response(&mut self, from: NodeId, received: Vec<Descriptor<P>>) {
        if self.pending_partner == Some(from) {
            self.pending_partner = None;
        }
        self.absorb(received);
    }

    /// Builds the batch to send to `partner`: the descriptors we know that
    /// are most useful from the partner's vantage point, our own included.
    /// The view is ranked borrowed; only the sent descriptors are cloned.
    fn batch_for<R: Rng + ?Sized>(
        &self,
        partner: &Descriptor<P>,
        rng: &mut R,
    ) -> Vec<Descriptor<P>> {
        // The shuffle's draws feed the shared RNG stream and must stay,
        // although a selector's ranking ignores pool order.
        let order = self.view.shuffled_positions(Some(partner.id), rng);
        let entries = self.view.as_slice();
        let class = |p: &P| self.selector.class(&partner.profile, p);
        let own_at = order.len() as u32;
        let ranking = {
            let mut pool: Scratch<RankKey, POOL> = Scratch::new();
            for &at in order.as_slice() {
                let d = &entries[at as usize];
                pool.push(RankKey::new(class(&d.profile), d));
            }
            pool.push(RankKey {
                class: class(&self.profile),
                age: 0,
                id: self.id,
            });
            self.selector
                .rank(&partner.profile, pool.as_slice(), self.shuffle_len)
        };
        let own = || Descriptor::new(self.id, self.profile.clone());
        let mut own_sent = false;
        // One spare slot: a request's receiver appends the sender's
        // descriptor before absorbing the batch.
        let mut batch = Vec::with_capacity(ranking.len() + 1);
        for &at in ranking.as_slice() {
            if at == own_at {
                own_sent = true;
                batch.push(own());
            } else {
                batch.push(entries[order.as_slice()[at as usize] as usize].clone());
            }
        }
        // Always advertise ourselves even if the selector ranked us out:
        // self-propagation is what lets new nodes take their place.
        if !own_sent {
            batch.pop();
            batch.push(own());
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RankSelector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn selector() -> Arc<dyn Selector<u64>> {
        Arc::new(RankSelector::new(|a: &u64, b: &u64| a.abs_diff(*b)))
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn absorb_keeps_closest_profiles() {
        let mut v = Vicinity::new(1, 100u64, 3, 2, selector());
        v.absorb(vec![
            Descriptor::new(2, 90),
            Descriptor::new(3, 500),
            Descriptor::new(4, 105),
            Descriptor::new(5, 102),
            Descriptor::new(6, 99),
        ]);
        let ids: Vec<NodeId> = {
            let mut ids = v.view().ids();
            ids.sort_unstable();
            ids
        };
        assert_eq!(ids, vec![4, 5, 6], "closest three kept");
    }

    #[test]
    fn absorb_never_keeps_self() {
        let mut v = Vicinity::new(1, 100u64, 3, 2, selector());
        v.absorb(vec![Descriptor::new(1, 100)]);
        assert!(v.view().is_empty());
    }

    #[test]
    fn exchange_propagates_own_descriptor() {
        let mut a = Vicinity::new(1, 10u64, 4, 2, selector());
        let mut b = Vicinity::new(2, 11u64, 4, 2, selector());
        a.absorb(vec![Descriptor::new(2, 11)]);
        let (partner, batch) = a.initiate(&mut rng()).unwrap();
        assert_eq!(partner, 2);
        assert!(
            batch.iter().any(|d| d.id == 1),
            "self descriptor advertised"
        );
        let reply = b.handle_request(&Descriptor::new(1, 10), batch, &mut rng());
        a.handle_response(2, reply);
        assert!(b.view().contains(1), "B adopted A");
    }

    #[test]
    fn evict_and_empty_initiate() {
        let mut v = Vicinity::new(1, 5u64, 2, 1, selector());
        v.absorb(vec![Descriptor::new(2, 6)]);
        v.evict(2);
        assert!(v.initiate(&mut rng()).is_none());
    }
}
