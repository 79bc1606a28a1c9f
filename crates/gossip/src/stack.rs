use std::fmt;
use std::sync::Arc;

use autosel_obs::{Event, ObsHandle};
use rand::Rng;

use crate::{Cyclon, Descriptor, GossipConfig, NodeId, Selector, Vicinity};

/// Which gossip layer a message belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// Bottom layer: CYCLON random peer sampling.
    Random,
    /// Top layer: selector-driven semantic proximity.
    Semantic,
}

/// A gossip wire message. Requests carry the sender's current profile so the
/// semantic layer can rank its reply from the requester's vantage point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GossipMessage<P> {
    /// Gossip initiation carrying a batch of descriptors.
    Request {
        /// Target layer.
        layer: Layer,
        /// The initiator's current profile.
        from_profile: P,
        /// Descriptors offered by the initiator.
        batch: Vec<Descriptor<P>>,
    },
    /// Reply to a [`GossipMessage::Request`].
    Response {
        /// Target layer.
        layer: Layer,
        /// Descriptors returned by the responder.
        batch: Vec<Descriptor<P>>,
    },
}

/// Aggregate view health of one gossip layer over a population — the
/// in-degree / freshness / replacement-rate gauges behind the paper's
/// overlay-maintenance discussion. The simulator sums it from its nodes'
/// views, the live runtime from the gauges its peers publish after each
/// round. All integer fixed-point (×1000 where fractional) so readings stay
/// byte-stable across platforms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GossipHealth {
    /// Nodes with an active gossip stack.
    pub nodes: u64,
    /// Total view entries across those nodes.
    pub links: u64,
    /// Sum over nodes of per-view mean descriptor age, in thousandths.
    pub age_sum_x1000: u64,
    /// Total view turnover (monotone count of entries ever admitted;
    /// deltas between two readings are the replacement rate).
    pub turnover: u64,
}

impl GossipHealth {
    /// Mean view size in thousandths (0 when no nodes gossip).
    pub fn mean_view_size_x1000(&self) -> u64 {
        (self.links * 1000).checked_div(self.nodes).unwrap_or(0)
    }

    /// Mean of the per-node mean descriptor ages, in thousandths.
    pub fn mean_age_x1000(&self) -> u64 {
        self.age_sum_x1000.checked_div(self.nodes).unwrap_or(0)
    }
}

/// A node's complete two-layer gossip state (§5 of the paper): CYCLON
/// underneath for connectivity and randomness, a [`Vicinity`] layer on top
/// for semantic links, with the random layer continuously feeding candidates
/// to the semantic one.
///
/// Sans-IO: [`tick`](Self::tick) and [`handle`](Self::handle) return the
/// messages to transmit; the caller owns clocks and sockets.
pub struct GossipStack<P> {
    cyclon: Cyclon<P>,
    vicinity: Vicinity<P>,
    config: GossipConfig,
    next_gossip_at: u64,
    profile: P,
    /// Observability sink; null by default.
    obs: ObsHandle,
    /// Turnover readings at the previous emitted round, per layer
    /// (random, semantic) — consecutive deltas are the replacement rate.
    last_turnover: [u64; 2],
}

impl<P: fmt::Debug> fmt::Debug for GossipStack<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GossipStack")
            .field("id", &self.cyclon.id())
            .field("random", &self.cyclon.view().len())
            .field("semantic", &self.vicinity.view().len())
            .finish_non_exhaustive()
    }
}

impl<P: Clone> GossipStack<P> {
    /// Creates a stack for node `id` with the given profile and selector.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`GossipConfig::validate`].
    pub fn new(
        id: NodeId,
        profile: P,
        config: GossipConfig,
        selector: impl Selector<P> + 'static,
    ) -> Self {
        Self::with_selector(id, profile, config, Arc::new(selector))
    }

    /// Like [`new`](Self::new) but sharing an already-allocated selector.
    pub fn with_selector(
        id: NodeId,
        profile: P,
        config: GossipConfig,
        selector: Arc<dyn Selector<P>>,
    ) -> Self {
        config.validate();
        GossipStack {
            cyclon: Cyclon::new(
                id,
                profile.clone(),
                config.cyclon_view,
                config.cyclon_shuffle,
            ),
            vicinity: Vicinity::new(
                id,
                profile.clone(),
                config.semantic_view,
                config.semantic_shuffle,
                selector,
            ),
            config,
            next_gossip_at: 0,
            profile,
            obs: ObsHandle::null(),
            last_turnover: [0; 2],
        }
    }

    /// Installs an observability sink (null by default). Each gossip round
    /// then emits one [`Event::GossipRound`] per layer carrying the view
    /// size, mean descriptor age and replacement rate — the overlay-health
    /// gauges of the paper's Fig. 10/11 discussion.
    pub fn set_observer(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.cyclon.id()
    }

    /// This node's current profile.
    pub fn profile(&self) -> &P {
        &self.profile
    }

    /// The random (CYCLON) view.
    pub fn random_view(&self) -> &crate::View<P> {
        self.cyclon.view()
    }

    /// The semantic view.
    pub fn semantic_view(&self) -> &crate::View<P> {
        self.vicinity.view()
    }

    /// Seeds both layers with a known peer (bootstrap / rejoin).
    pub fn introduce(&mut self, id: NodeId, profile: P) {
        self.cyclon.introduce(id, profile.clone());
        self.vicinity.absorb([Descriptor::new(id, profile)]);
    }

    /// Changes this node's advertised profile (attribute values changed).
    pub fn set_profile(&mut self, profile: P) {
        self.profile = profile.clone();
        self.cyclon.set_profile(profile.clone());
        self.vicinity.set_profile(profile);
    }

    /// Drops a peer from both layers (e.g. the transport reported a broken
    /// connection).
    pub fn evict(&mut self, id: NodeId) {
        self.cyclon.evict(id);
        self.vicinity.evict(id);
    }

    /// Delays the first gossip initiation until `at` — drivers use random
    /// offsets so a large population does not gossip in lock-step.
    pub fn schedule_first(&mut self, at: u64) {
        self.next_gossip_at = at;
    }

    /// When the next [`tick`](Self::tick) will actually initiate gossip.
    pub fn next_gossip_at(&self) -> u64 {
        self.next_gossip_at
    }

    /// Advances the clock. If a gossip period has elapsed, initiates one
    /// CYCLON shuffle and one semantic exchange and returns the messages to
    /// send. An unanswered shuffle partner from the previous round is
    /// presumed dead and evicted (the paper's continuous repair needs no
    /// other failure detector).
    pub fn tick<R: Rng + ?Sized>(
        &mut self,
        now: u64,
        rng: &mut R,
    ) -> Vec<(NodeId, GossipMessage<P>)> {
        if now < self.next_gossip_at {
            return Vec::new();
        }
        self.next_gossip_at = now.saturating_add(self.config.period_ms);

        if let Some(stale) = self.cyclon.pending_partner() {
            self.cyclon.abort_pending();
            self.evict(stale);
        }
        if let Some(stale) = self.vicinity.pending_partner() {
            self.vicinity.abort_pending();
            self.evict(stale);
        }

        // Random layer feeds the semantic layer (§5: "the underlying CYCLON
        // layer continuously feeds the top layer with random nodes").
        self.vicinity.absorb(self.cyclon.view().as_slice());

        // A starved random layer (every entry traded away or evicted, e.g.
        // after a massive failure) re-seeds itself from the semantic view —
        // without this the CYCLON layer could never recover on its own.
        if self.cyclon.view().is_empty() {
            if let Some(d) = self.vicinity.view().random(rng) {
                let (id, profile) = (d.id, d.profile.clone());
                self.cyclon.introduce(id, profile);
            }
        }

        let mut out = Vec::with_capacity(2);
        if let Some((partner, batch)) = self.cyclon.initiate(rng) {
            out.push((
                partner,
                GossipMessage::Request {
                    layer: Layer::Random,
                    from_profile: self.profile.clone(),
                    batch,
                },
            ));
        }
        if let Some((partner, batch)) = self.vicinity.initiate(rng) {
            out.push((
                partner,
                GossipMessage::Request {
                    layer: Layer::Semantic,
                    from_profile: self.profile.clone(),
                    batch,
                },
            ));
        }

        if self.obs.enabled() {
            let id = self.cyclon.id();
            for (i, (layer, view)) in [
                (autosel_obs::Layer::Random, self.cyclon.view()),
                (autosel_obs::Layer::Semantic, self.vicinity.view()),
            ]
            .into_iter()
            .enumerate()
            {
                let turnover = view.turnover();
                let replaced = turnover - self.last_turnover[i];
                self.last_turnover[i] = turnover;
                self.obs.emit(|| Event::GossipRound {
                    at: now,
                    node: id,
                    layer,
                    view_size: view.len() as u32,
                    mean_age_x1000: view.mean_age_x1000(),
                    replaced,
                });
            }
        }
        out
    }

    /// Processes an incoming gossip message, returning any replies to send.
    pub fn handle<R: Rng + ?Sized>(
        &mut self,
        from: NodeId,
        msg: GossipMessage<P>,
        rng: &mut R,
    ) -> Vec<(NodeId, GossipMessage<P>)> {
        match msg {
            GossipMessage::Request {
                layer: Layer::Random,
                from_profile,
                batch,
            } => {
                // The shuffle borrows the batch (cloning what it keeps);
                // the batch itself then moves into the semantic layer,
                // which random-layer traffic also feeds. The layers' views
                // are independent and only the shuffle draws from `rng`,
                // so the order between them is free.
                let reply = self.cyclon.handle_request(from, &batch, rng);
                self.vicinity.absorb(batch);
                self.vicinity.absorb([Descriptor::new(from, from_profile)]);
                vec![(
                    from,
                    GossipMessage::Response {
                        layer: Layer::Random,
                        batch: reply,
                    },
                )]
            }
            GossipMessage::Request {
                layer: Layer::Semantic,
                from_profile,
                batch,
            } => {
                let from_desc = Descriptor::new(from, from_profile);
                let reply = self.vicinity.handle_request(&from_desc, batch, rng);
                vec![(
                    from,
                    GossipMessage::Response {
                        layer: Layer::Semantic,
                        batch: reply,
                    },
                )]
            }
            GossipMessage::Response {
                layer: Layer::Random,
                batch,
            } => {
                self.cyclon.handle_response(from, &batch);
                self.vicinity.absorb(batch);
                Vec::new()
            }
            GossipMessage::Response {
                layer: Layer::Semantic,
                batch,
            } => {
                self.vicinity.handle_response(from, batch);
                Vec::new()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RankSelector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stack(id: NodeId, profile: u64) -> GossipStack<u64> {
        GossipStack::new(
            id,
            profile,
            GossipConfig {
                period_ms: 1000,
                ..GossipConfig::default()
            },
            RankSelector::new(|a: &u64, b: &u64| a.abs_diff(*b)),
        )
    }

    #[test]
    fn tick_respects_period() {
        let mut a = stack(1, 5);
        a.introduce(2, 6);
        a.introduce(3, 7); // second peer survives the stale-partner eviction
        let mut rng = StdRng::seed_from_u64(3);
        assert!(!a.tick(0, &mut rng).is_empty());
        assert!(a.tick(500, &mut rng).is_empty(), "period not yet elapsed");
        assert!(!a.tick(1000, &mut rng).is_empty());
    }

    #[test]
    fn isolated_node_stays_silent() {
        let mut a = stack(1, 5);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(a.tick(0, &mut rng).is_empty());
    }

    #[test]
    fn full_round_trip_populates_both_layers() {
        let mut a = stack(1, 5);
        let mut b = stack(2, 6);
        a.introduce(2, 6);
        let mut rng = StdRng::seed_from_u64(3);
        let msgs = a.tick(0, &mut rng);
        assert_eq!(msgs.len(), 2, "one initiation per layer");
        for (dst, m) in msgs {
            assert_eq!(dst, 2);
            for (back, reply) in b.handle(1, m, &mut rng) {
                assert_eq!(back, 1);
                a.handle(2, reply, &mut rng);
            }
        }
        assert!(b.random_view().contains(1) || b.semantic_view().contains(1));
        assert!(
            b.semantic_view().contains(1),
            "semantic layer learned requester"
        );
    }

    #[test]
    fn unanswered_partner_evicted_next_round() {
        let mut a = stack(1, 5);
        a.introduce(2, 6);
        let mut rng = StdRng::seed_from_u64(3);
        let _ = a.tick(0, &mut rng); // shuffle sent to 2, never answered
        let _ = a.tick(1000, &mut rng);
        assert!(!a.random_view().contains(2));
        assert!(!a.semantic_view().contains(2));
    }

    #[test]
    fn set_profile_is_advertised() {
        let mut a = stack(1, 5);
        let mut b = stack(2, 6);
        a.introduce(2, 6);
        a.set_profile(50);
        let mut rng = StdRng::seed_from_u64(3);
        for (_, m) in a.tick(0, &mut rng) {
            b.handle(1, m, &mut rng);
        }
        let d = b
            .semantic_view()
            .get(1)
            .or_else(|| b.random_view().get(1))
            .expect("B learned A");
        assert_eq!(d.profile, 50);
    }
}
