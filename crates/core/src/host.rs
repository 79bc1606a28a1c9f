// This file defines protocol invariants: every panic site states the
// invariant it relies on (`expect`), tests included.
#![warn(clippy::unwrap_used)]

use autosel_obs::ObsHandle;
use epigossip::{GossipMessage, GossipStack, NodeId};
use rand::Rng;

use crate::{Message, NodeProfile, Output, QueryId, QueryRequest, SelectionNode};

/// A message between two nodes: the selection protocol or overlay gossip.
#[derive(Debug, Clone, PartialEq)]
pub enum NetMessage {
    /// QUERY/REPLY traffic.
    Protocol(Message),
    /// Membership gossip.
    Gossip(GossipMessage<NodeProfile>),
}

/// One node as a runtime drives it: its [`SelectionNode`] and, if it
/// gossips, its [`GossipStack`]. The simulator and the network runtime both
/// drive nodes through it, each with its own clock and RNG; it is the one
/// place that knows how the two machines meet:
///
/// * a gossip message or round is followed by
///   [`sync_from_view`](SelectionNode::sync_from_view), unless neither the
///   semantic view nor the routing table changed since the last one (by
///   their stamps, [`View::stamp`](epigossip::View::stamp) and
///   [`routing_stamp`](SelectionNode::routing_stamp)): a rebuild from the
///   view of the last rebuild into the table it left draws nothing and
///   changes nothing;
/// * a neighbor that timed out and a peer the transport reports
///   [`unreachable`](Self::unreachable) both leave the gossip layers, the
///   former the moment the node's expiry step drops it;
/// * every call appends its [`Output`]s — protocol and gossip sends, and
///   completions — in order, to the runtime's buffer, which the runtime
///   drains after the call.
///
/// Evictions draw nothing from the RNG and touch only the gossip layers, so
/// evicting in the middle of the node's expiry step changes no output.
#[derive(Debug)]
pub struct Host {
    selection: SelectionNode,
    /// Boxed: a node of a static overlay never gossips and pays one word.
    gossip: Option<Box<Gossip>>,
}

/// A gossiping node's stack and what its routing table was last rebuilt
/// from.
#[derive(Debug)]
struct Gossip {
    stack: GossipStack<NodeProfile>,
    /// The semantic view's stamp and the routing table's right after the
    /// last rebuild; `None` before the first.
    synced: Option<(u64, u32)>,
}

impl Host {
    /// A node from its selection machine and, if it gossips, a stack
    /// advertising the same profile.
    pub fn new(selection: SelectionNode, gossip: Option<GossipStack<NodeProfile>>) -> Self {
        let gossip = gossip.map(|stack| {
            Box::new(Gossip {
                stack,
                synced: None,
            })
        });
        Host { selection, gossip }
    }

    /// The selection state machine.
    pub fn selection(&self) -> &SelectionNode {
        &self.selection
    }

    /// The selection state machine, for set-up (oracle wiring, dynamic
    /// attributes) and test harnesses. Every write to the routing table
    /// through it moves the table's
    /// [`routing_stamp`](SelectionNode::routing_stamp), so the next gossip
    /// event re-syncs the table.
    pub fn selection_mut(&mut self) -> &mut SelectionNode {
        &mut self.selection
    }

    /// The gossip stack, if this node gossips.
    pub fn gossip(&self) -> Option<&GossipStack<NodeProfile>> {
        self.gossip.as_deref().map(|g| &g.stack)
    }

    /// Installs an observability sink on both machines.
    pub fn set_observer(&mut self, obs: ObsHandle) {
        if let Some(g) = self.gossip.as_mut() {
            g.stack.set_observer(obs.clone());
        }
        self.selection.set_observer(obs);
    }

    /// Bootstrap: seeds both gossip layers with a known peer.
    pub fn introduce(&mut self, id: NodeId, profile: NodeProfile) {
        if let Some(g) = self.gossip.as_mut() {
            g.stack.introduce(id, profile);
        }
    }

    /// Issues `request` from this node.
    pub fn begin(&mut self, request: QueryRequest, now: u64, out: &mut Vec<Output>) -> QueryId {
        self.selection.begin(request, now, out)
    }

    /// Hands this node a message from `from`. A node without a gossip
    /// stack ignores gossip.
    pub fn deliver<R: Rng + ?Sized>(
        &mut self,
        from: NodeId,
        msg: NetMessage,
        now: u64,
        rng: &mut R,
        out: &mut Vec<Output>,
    ) {
        match msg {
            NetMessage::Protocol(m) => self.selection.receive(from, m, now, out),
            NetMessage::Gossip(m) => {
                if let Some(g) = self.gossip.as_mut() {
                    let reply = g.stack.handle(from, m, rng);
                    g.sync(&mut self.selection, now, rng);
                    out.extend(reply.map(|(to, msg)| Output::Gossip { to, msg }));
                }
            }
        }
    }

    /// One gossip round (empty before the stack's first scheduled time).
    pub fn gossip_tick<R: Rng + ?Sized>(&mut self, now: u64, rng: &mut R, out: &mut Vec<Output>) {
        if let Some(g) = self.gossip.as_mut() {
            let msgs = g.stack.tick(now, rng);
            g.sync(&mut self.selection, now, rng);
            out.extend(msgs.into_iter().map(|(to, msg)| Output::Gossip { to, msg }));
        }
    }

    /// Expires overdue neighbors (the paper's `T(q)`); each leaves the
    /// gossip layers as the node drops it.
    pub fn poll_timeouts(&mut self, now: u64, out: &mut Vec<Output>) {
        let gossip = &mut self.gossip;
        self.selection.expire(now, out, |peer| {
            if let Some(g) = gossip.as_mut() {
                g.stack.evict(peer);
            }
        });
    }

    /// Transport feedback: `peer` is unreachable. Queries waiting on it
    /// continue without its subtree.
    pub fn unreachable(&mut self, peer: NodeId, now: u64, out: &mut Vec<Output>) {
        if let Some(g) = self.gossip.as_mut() {
            g.stack.evict(peer);
        }
        self.selection.peer_unreachable(peer, now, out);
    }
}

impl Gossip {
    /// Rebuilds `selection`'s routing table from the semantic view, unless
    /// neither changed since the last rebuild.
    fn sync<R: Rng + ?Sized>(&mut self, selection: &mut SelectionNode, now: u64, rng: &mut R) {
        let view = self.stack.semantic_view();
        if self.synced == Some((view.stamp(), selection.routing_stamp())) {
            return;
        }
        selection.sync_from_view(view, now, rng);
        self.synced = Some((view.stamp(), selection.routing_stamp()));
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use attrspace::{Query, Space};
    use epigossip::{Descriptor, GossipConfig, Layer};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    use super::*;
    use crate::{ProtocolConfig, SlotSelector};

    fn space() -> Space {
        Space::uniform(2, 80, 3).expect("valid 2-d space geometry")
    }

    fn profile(vals: [u64; 2]) -> NodeProfile {
        let point = space().point(&vals).expect("coords lie inside the space");
        NodeProfile::new(&space(), point)
    }

    /// Node 1 at `[5, 5]`, gossiping or not, with `links` in its table.
    fn host(gossips: bool, links: &[(NodeId, [u64; 2])]) -> Host {
        let own = profile([5, 5]);
        let config = ProtocolConfig::default();
        let mut sel = SelectionNode::new(1, &space(), own.point().clone(), config);
        for &(id, vals) in links {
            sel.routing_mut().observe(id, profile(vals).point().clone());
        }
        let selector = Arc::new(SlotSelector::default());
        let stack = GossipStack::with_selector(1, own, GossipConfig::default(), selector);
        Host::new(sel, gossips.then_some(stack))
    }

    fn gossip(layer: Layer, batch: Vec<Descriptor<NodeProfile>>) -> NetMessage {
        let from_profile = profile([5, 45]);
        NetMessage::Gossip(GossipMessage::Request {
            layer,
            from_profile,
            batch,
        })
    }

    fn query(host: &Host, min_a0: u64) -> Query {
        let q = Query::builder(host.selection().space()).min("a0", min_a0);
        q.build().expect("well-formed query")
    }

    /// Whether `host` has routing links, all of them the ones a fresh node
    /// at its point builds from its semantic view alone.
    fn routing_follows_view(node: &Host) -> bool {
        let mut fresh = host(false, &[]).selection;
        let view = node.gossip().expect("gossips").semantic_view();
        fresh.sync_from_view(view, 0, &mut StdRng::seed_from_u64(0));
        let links = |s: &SelectionNode| {
            let zero: Vec<NodeId> = s.routing().zero_neighbors().map(|(id, _)| id).collect();
            (s.routing().filled_slots().collect::<Vec<_>>(), zero)
        };
        node.selection().routing().link_count() > 0 && links(node.selection()) == links(&fresh)
    }

    #[test]
    fn a_timed_out_or_unreachable_peer_leaves_both_gossip_layers_and_the_routing_table() {
        let mut host = host(true, &[(2, [70, 70]), (3, [5, 70])]);
        host.introduce(2, profile([70, 70]));
        host.introduce(3, profile([5, 70]));
        let mut out = Vec::new();
        host.begin(query(&host, 60).into(), 0, &mut out);
        assert!(matches!(out[..], [Output::Send { to: 2, .. }]), "{out:?}");
        // Whether `id` is in the random view, the semantic view, the table.
        let known = |h: &Host, id: NodeId| {
            let (g, r) = (h.gossip().expect("gossips"), h.selection().routing());
            let routed =
                r.filled_slots().any(|(.., n)| n == id) || r.zero_neighbors().any(|(n, _)| n == id);
            [
                g.random_view().contains(id),
                g.semantic_view().contains(id),
                routed,
            ]
        };
        assert_eq!(known(&host, 3), [true; 3]);

        out.clear();
        host.unreachable(3, 1, &mut out);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(known(&host, 3), [false; 3]);
        assert_eq!(known(&host, 2), [true; 3]);
        host.poll_timeouts(u64::MAX, &mut out);
        assert_eq!(known(&host, 2), [false; 3]);
        assert!(
            matches!(out[..], [Output::Completed { count: 0, .. }]),
            "{out:?}"
        );
    }

    /// Peers in four routing slots and one `C0` mate: one candidate per
    /// slot, so a fresh table from the same view has no choice to make.
    #[test]
    fn routing_follows_the_semantic_view_after_gossip() {
        let mut host = host(true, &[]);
        let (mut rng, mut out) = (StdRng::seed_from_u64(7), Vec::new());
        let batch = [(3, [6, 6]), (4, [15, 5]), (5, [5, 25]), (6, [45, 5])]
            .map(|(id, vals)| Descriptor::new(id, profile(vals)));
        let msg = gossip(Layer::Semantic, batch.to_vec());
        host.deliver(2, msg, 10, &mut rng, &mut out);
        assert!(matches!(out[..], [Output::Gossip { to: 2, .. }]), "{out:?}");
        assert!(routing_follows_view(&host));

        // Knock the table out of step with the view: a round re-syncs it.
        for id in 2..=6 {
            host.selection_mut().routing_mut().remove(id);
        }
        host.gossip_tick(20, &mut rng, &mut out);
        assert!(routing_follows_view(&host));
    }

    #[test]
    fn a_host_without_gossip_ignores_gossip_and_failures_touch_only_routing() {
        let mut host = host(false, &[(2, [5, 70]), (3, [70, 5])]);
        let (mut rng, mut out) = (StdRng::seed_from_u64(7), Vec::new());
        host.introduce(4, profile([6, 6]));
        host.deliver(4, gossip(Layer::Random, Vec::new()), 0, &mut rng, &mut out);
        host.gossip_tick(0, &mut rng, &mut out);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(host.selection().routing().link_count(), 2);

        // One neighbor the transport reports gone, one that times out.
        host.begin(QueryRequest::count(query(&host, 0)), 0, &mut out);
        assert!(matches!(out[..], [Output::Send { to: 3, .. }]), "{out:?}");
        out.clear();
        host.unreachable(3, 1, &mut out);
        assert!(matches!(out[..], [Output::Send { to: 2, .. }]), "{out:?}");
        out.clear();
        host.poll_timeouts(u64::MAX, &mut out);
        assert!(
            matches!(out[..], [Output::Completed { count: 1, .. }]),
            "{out:?}"
        );
        assert_eq!(host.selection().routing().link_count(), 0);
    }

    /// One step of [`skipping_no_op_syncs_equals_always_rebuilding`].
    #[derive(Debug, Clone)]
    enum Step {
        /// A gossip round, one period on.
        Tick,
        /// A gossip message from a peer: `kind` picks request or response
        /// and the layer, the batch holds `(id, age)` descriptors.
        Gossip(u8, NodeId, Vec<(NodeId, u32)>),
        /// The transport reports a peer unreachable.
        Unreachable(NodeId),
        /// A test hook drops a peer from the routing table.
        Forget(NodeId),
        /// A count query, whose waits a later poll expires.
        Query,
        /// Every wait expires.
        Expire,
    }

    fn step() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::prelude::*;
        let peer = || 2..24u64;
        prop_oneof![
            Just(Step::Tick),
            Just(Step::Tick),
            (
                0u8..4,
                peer(),
                prop::collection::vec((peer(), 0u32..4), 0..8)
            )
                .prop_map(|(kind, from, batch)| Step::Gossip(kind, from, batch)),
            (
                0u8..4,
                peer(),
                prop::collection::vec((peer(), 0u32..4), 0..8)
            )
                .prop_map(|(kind, from, batch)| Step::Gossip(kind, from, batch)),
            peer().prop_map(Step::Unreachable),
            peer().prop_map(Step::Forget),
            Just(Step::Query),
            Just(Step::Expire),
        ]
    }

    /// Peer `id`'s profile: spread over the space, a few in node 1's cell.
    fn peer(id: NodeId) -> NodeProfile {
        match id % 5 {
            0 => profile([id % 10, 9 - id % 10]),
            _ => profile([(id * 37) % 80, (id * 53) % 80]),
        }
    }

    /// Runs `steps` through a host that skips no-op syncs and one that
    /// rebuilds after every gossip event; panics where they part. Returns
    /// `(syncs skipped, gossip events)`.
    fn skipping_against_rebuilding(seed: u64, steps: &[Step]) -> (usize, usize) {
        let mut hosts = [host(true, &[]), host(true, &[])];
        let mut rngs = [StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed)];
        for h in &mut hosts {
            for id in [2, 7, 11, 15] {
                h.introduce(id, peer(id));
            }
        }
        let (mut skipped, mut events, mut now) = (0, 0, 0);
        for step in steps {
            let mut outs = [Vec::new(), Vec::new()];
            if matches!(step, Step::Tick) {
                now += GossipConfig::default().period_ms;
            }
            let stamp = hosts[0].selection().routing_stamp();
            for (i, (h, rng)) in hosts.iter_mut().zip(&mut rngs).enumerate() {
                if i == 1 {
                    h.gossip.as_mut().expect("gossips").synced = None;
                }
                let out = &mut outs[i];
                match step {
                    Step::Tick => h.gossip_tick(now, rng, out),
                    Step::Gossip(kind, from, batch) => {
                        let layer = [Layer::Random, Layer::Semantic][usize::from(kind % 2)];
                        let batch = batch
                            .iter()
                            .map(|&(id, age)| Descriptor {
                                id,
                                profile: peer(id),
                                age,
                            })
                            .collect();
                        let msg = match kind / 2 {
                            0 => GossipMessage::Request {
                                layer,
                                from_profile: peer(*from),
                                batch,
                            },
                            _ => GossipMessage::Response { layer, batch },
                        };
                        h.deliver(*from, NetMessage::Gossip(msg), now, rng, out);
                    }
                    Step::Unreachable(id) => h.unreachable(*id, now, out),
                    Step::Forget(id) => h.selection_mut().routing_mut().remove(*id),
                    Step::Query => {
                        h.begin(QueryRequest::count(query(h, 0)), now, out);
                    }
                    Step::Expire => h.poll_timeouts(u64::MAX, out),
                }
            }
            if matches!(step, Step::Tick | Step::Gossip(..)) {
                events += 1;
                skipped += usize::from(hosts[0].selection().routing_stamp() == stamp);
            }
            let [skipping, rebuilding] = &hosts;
            let table = |h: &Host| {
                let r = h.selection().routing();
                let zero: Vec<NodeId> = r.zero_neighbors().map(|(id, _)| id).collect();
                (r.filled_slots().collect::<Vec<_>>(), zero)
            };
            assert_eq!(table(skipping), table(rebuilding), "after {step:?}");
            assert_eq!(outs[0], outs[1], "after {step:?}");
            let [a, b] = &mut rngs;
            assert_eq!(a.next_u64(), b.next_u64(), "RNG after {step:?}");
        }
        (skipped, events)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random gossip rounds and messages, transport failures, table
        /// writes through the test hook, queries and their expiry: a host
        /// that skips the re-syncs its stamps call no-ops keeps the same
        /// routing table, sends the same messages and leaves the RNG at the
        /// same point as a host that rebuilds after every gossip event.
        #[test]
        fn skipping_no_op_syncs_equals_always_rebuilding(
            seed in 0u64..1000,
            steps in proptest::prelude::prop::collection::vec(step(), 1..60),
        ) {
            skipping_against_rebuilding(seed, &steps);
        }
    }

    /// The steps reach both ends: skipped and performed re-syncs.
    #[test]
    fn no_op_syncs_are_skipped_and_others_are_not() {
        use proptest::strategy::Strategy;
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let (mut skipped, mut events) = (0, 0);
        for seed in 0..50 {
            let steps: Vec<Step> = (0..60).map(|_| step().generate(runner.rng_mut())).collect();
            let (s, e) = skipping_against_rebuilding(seed, &steps);
            skipped += s;
            events += e;
        }
        assert!(
            skipped * 20 > events && skipped * 10 < events * 9,
            "{skipped} of {events} skipped"
        );
    }
}
