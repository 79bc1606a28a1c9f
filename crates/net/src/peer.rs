use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use attrspace::{Point, Query, Space};
use autosel_core::{Match, Message, NodeProfile, Output, QueryId, SelectionNode, SlotSelector};
use autosel_obs::ObsHandle;
use epigossip::{GossipMessage, GossipStack, NodeId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::{NetConfig, Transport};

/// A message on the wire: either the selection protocol or overlay gossip.
#[derive(Debug, Clone, PartialEq)]
pub enum NetMessage {
    /// QUERY/REPLY traffic.
    Protocol(Message),
    /// Membership gossip.
    Gossip(GossipMessage<NodeProfile>),
}

/// Commands a peer accepts from its [`NetCluster`](crate::NetCluster) handle.
///
/// Reply channels are rendezvous-bounded (`sync_channel(1)`): a peer sends
/// exactly one completion per issued query, so the bound can never block it.
#[derive(Debug)]
pub(crate) enum Command {
    BeginQuery {
        query: Query,
        sigma: Option<u32>,
        reply: mpsc::SyncSender<(QueryId, Vec<Match>)>,
    },
    BeginCount {
        query: Query,
        reply: mpsc::SyncSender<u64>,
    },
    Introduce(NodeId, Point),
    Shutdown,
}

/// Everything a peer's event loop reacts to, multiplexed on one channel so
/// the loop is a single `recv_timeout` against its next timer deadline.
#[derive(Debug)]
pub(crate) enum PeerEvent {
    /// A message arrived from `NodeId`.
    Deliver(NodeId, NetMessage),
    /// A control command from the cluster handle.
    Command(Command),
    /// Fail-fast feedback from the transport: this peer is unreachable.
    Failed(NodeId),
}

/// Shared per-peer counters, readable from outside the thread.
#[derive(Debug, Default)]
pub(crate) struct PeerCounters {
    pub sent: AtomicU64,
    pub received: AtomicU64,
    /// Routing-table link count, published after every view sync — a cheap
    /// convergence gauge tests can poll instead of sleeping a fixed warm-up.
    pub links: AtomicU64,
    /// Events currently queued in this peer's inbox. Signed because the
    /// enqueue increment and dequeue decrement race benignly; readers clamp
    /// at zero.
    pub inbox_depth: AtomicI64,
    /// Deliveries dropped because the bounded inbox was full. The protocol
    /// absorbs these like network loss: timeouts retry or amputate.
    pub inbox_dropped: AtomicU64,
    /// Gossip-health gauges, published after every gossip round —
    /// per-layer view size, mean descriptor age (×1000) and cumulative
    /// turnover, mirroring the simulator's `gossip_health()` reading so
    /// soak-style bounds can be asserted on live clusters.
    pub view_random: AtomicU64,
    pub view_semantic: AtomicU64,
    pub age_random_x1000: AtomicU64,
    pub age_semantic_x1000: AtomicU64,
    pub turnover_random: AtomicU64,
    pub turnover_semantic: AtomicU64,
}

/// The sending half of a peer's *bounded* inbox plus the shared counters of
/// the peer it feeds — the only way crate code enqueues a [`PeerEvent`].
///
/// Two disciplines, by message class:
///
/// * [`try_deliver`](Self::try_deliver) — peer traffic (deliveries,
///   fail-fast feedback). Never blocks: a full inbox **drops** the event
///   and counts it, because backpressure between peer threads would
///   propagate into distributed deadlock, while the protocol already
///   survives loss via timeouts.
/// * [`send_blocking`](Self::send_blocking) — cluster-handle control
///   commands (queries, introductions, shutdown). These must not be lost,
///   come from outside the peer mesh, and are low-rate, so blocking on a
///   saturated inbox is safe and correct.
#[derive(Debug, Clone)]
pub(crate) struct InboxSender {
    tx: mpsc::SyncSender<PeerEvent>,
    counters: Arc<PeerCounters>,
}

impl InboxSender {
    pub(crate) fn new(tx: mpsc::SyncSender<PeerEvent>, counters: Arc<PeerCounters>) -> Self {
        InboxSender { tx, counters }
    }

    /// A bounded inbox plus its receiver, with fresh counters (tests and
    /// transport unit checks).
    #[cfg(test)]
    pub(crate) fn test_pair(capacity: usize) -> (Self, mpsc::Receiver<PeerEvent>) {
        let (tx, rx) = mpsc::sync_channel(capacity);
        (InboxSender::new(tx, Arc::new(PeerCounters::default())), rx)
    }

    /// Non-blocking delivery for peer traffic; a full inbox drops the event
    /// (counted in `inbox_dropped`). `Err` means the peer is gone.
    pub(crate) fn try_deliver(&self, event: PeerEvent) -> Result<(), ()> {
        match self.tx.try_send(event) {
            Ok(()) => {
                self.counters.inbox_depth.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(mpsc::TrySendError::Full(_)) => {
                self.counters.inbox_dropped.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(mpsc::TrySendError::Disconnected(_)) => Err(()),
        }
    }

    /// Blocking send for control commands; `Err` means the peer is gone.
    pub(crate) fn send_blocking(&self, event: PeerEvent) -> Result<(), ()> {
        match self.tx.send(event) {
            Ok(()) => {
                self.counters.inbox_depth.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(_) => Err(()),
        }
    }
}

pub(crate) struct PeerTask {
    id: NodeId,
    selection: SelectionNode,
    gossip: GossipStack<NodeProfile>,
    transport: Transport,
    events: mpsc::Receiver<PeerEvent>,
    /// Own sender, handed to the transport for fail-fast feedback.
    events_tx: InboxSender,
    config: NetConfig,
    counters: Arc<PeerCounters>,
    started: Instant,
    rng: SmallRng,
    pending_queries: HashMap<QueryId, mpsc::SyncSender<(QueryId, Vec<Match>)>>,
    pending_counts: HashMap<QueryId, mpsc::SyncSender<u64>>,
}

impl PeerTask {
    #[allow(clippy::too_many_arguments)] // internal constructor, one call site
    pub(crate) fn new(
        id: NodeId,
        space: &Space,
        point: Point,
        config: NetConfig,
        transport: Transport,
        events: mpsc::Receiver<PeerEvent>,
        events_tx: InboxSender,
        counters: Arc<PeerCounters>,
        started: Instant,
        obs: ObsHandle,
    ) -> Self {
        let mut selection = SelectionNode::new(id, space, point, config.protocol.clone());
        selection.set_observer(obs.clone());
        let mut gossip = GossipStack::new(
            id,
            selection.profile(),
            config.gossip.clone(),
            SlotSelector::default(),
        );
        gossip.set_observer(obs);
        PeerTask {
            id,
            selection,
            gossip,
            transport,
            events,
            events_tx,
            config,
            counters,
            started,
            rng: SmallRng::seed_from_u64(id ^ 0xA5A5_5A5A_DEAD_BEEF),
            pending_queries: HashMap::new(),
            pending_counts: HashMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn send(&self, to: NodeId, msg: NetMessage) {
        self.counters.sent.fetch_add(1, Ordering::Relaxed);
        self.transport.send(self.id, to, msg, &self.events_tx);
    }

    fn apply_outputs(&mut self, outputs: Vec<Output>) {
        for o in outputs {
            match o {
                Output::Send { to, msg } => self.send(to, NetMessage::Protocol(msg)),
                Output::Completed { id, matches, count } => {
                    if let Some(reply) = self.pending_queries.remove(&id) {
                        let _ = reply.send((id, matches));
                    } else if let Some(reply) = self.pending_counts.remove(&id) {
                        let _ = reply.send(count);
                    }
                }
                Output::NeighborFailed(peer) => self.gossip.evict(peer),
            }
        }
    }

    /// Publishes the per-layer gossip-health gauges (view size, mean
    /// descriptor age, turnover) — one store per field, read by
    /// [`NetCluster::gossip_health`](crate::NetCluster::gossip_health).
    fn publish_gossip_gauges(&self) {
        let c = &*self.counters;
        let random = self.gossip.random_view();
        let semantic = self.gossip.semantic_view();
        c.view_random.store(random.len() as u64, Ordering::Relaxed);
        c.view_semantic.store(semantic.len() as u64, Ordering::Relaxed);
        c.age_random_x1000.store(random.mean_age_x1000(), Ordering::Relaxed);
        c.age_semantic_x1000.store(semantic.mean_age_x1000(), Ordering::Relaxed);
        c.turnover_random.store(random.turnover(), Ordering::Relaxed);
        c.turnover_semantic.store(semantic.turnover(), Ordering::Relaxed);
    }

    fn do_gossip(&mut self) {
        let now = self.now();
        let msgs = self.gossip.tick(now, &mut self.rng);
        self.selection.sync_from_view(self.gossip.semantic_view(), now, &mut self.rng);
        self.counters
            .links
            .store(self.selection.routing().link_count() as u64, Ordering::Relaxed);
        self.publish_gossip_gauges();
        for (to, m) in msgs {
            self.send(to, NetMessage::Gossip(m));
        }
    }

    fn handle_envelope(&mut self, from: NodeId, msg: NetMessage) {
        self.counters.received.fetch_add(1, Ordering::Relaxed);
        match msg {
            NetMessage::Protocol(m) => {
                let now = self.now();
                let outputs = self.selection.handle_message(from, m, now);
                self.apply_outputs(outputs);
            }
            NetMessage::Gossip(g) => {
                let now = self.now();
                let replies = self.gossip.handle(from, g, &mut self.rng);
                self.selection.sync_from_view(self.gossip.semantic_view(), now, &mut self.rng);
                self.counters
                    .links
                    .store(self.selection.routing().link_count() as u64, Ordering::Relaxed);
                for (to, m) in replies {
                    self.send(to, NetMessage::Gossip(m));
                }
            }
        }
    }

    fn handle_command(&mut self, cmd: Command) -> bool {
        match cmd {
            Command::BeginQuery { query, sigma, reply } => {
                let now = self.now();
                let (qid, outputs) = self.selection.begin_query(query, sigma, now);
                self.pending_queries.insert(qid, reply);
                self.apply_outputs(outputs);
                true
            }
            Command::BeginCount { query, reply } => {
                let now = self.now();
                let (qid, outputs) = self.selection.begin_count_query(query, Vec::new(), now);
                self.pending_counts.insert(qid, reply);
                self.apply_outputs(outputs);
                true
            }
            Command::Introduce(id, point) => {
                let profile = NodeProfile::new(self.selection.space(), point);
                self.gossip.introduce(id, profile);
                true
            }
            Command::Shutdown => false,
        }
    }

    /// The peer's main loop; returns when shut down. Timers (gossip period,
    /// timeout polling) are expressed as deadlines the event `recv_timeout`
    /// is bounded by, with missed ticks delayed rather than bursted.
    pub(crate) fn run(mut self) {
        let gossip_period = Duration::from_millis(self.config.gossip.period_ms);
        let poll_period = Duration::from_millis(self.config.poll_interval_ms);
        let mut next_gossip = Instant::now() + gossip_period;
        let mut next_poll = Instant::now() + poll_period;
        loop {
            let now = Instant::now();
            if now >= next_gossip {
                self.do_gossip();
                next_gossip = Instant::now() + gossip_period;
                continue;
            }
            if now >= next_poll {
                let t = self.now();
                let outputs = self.selection.poll_timeouts(t);
                self.apply_outputs(outputs);
                next_poll = Instant::now() + poll_period;
                continue;
            }
            let wait = next_gossip.min(next_poll) - now;
            let event = self.events.recv_timeout(wait);
            if event.is_ok() {
                self.counters.inbox_depth.fetch_sub(1, Ordering::Relaxed);
            }
            match event {
                Ok(PeerEvent::Deliver(from, msg)) => self.handle_envelope(from, msg),
                Ok(PeerEvent::Command(cmd)) => {
                    if !self.handle_command(cmd) {
                        break;
                    }
                }
                Ok(PeerEvent::Failed(peer)) => {
                    // Transport said `peer` is gone: skip its subtrees now
                    // and stop gossiping with it.
                    self.gossip.evict(peer);
                    let t = self.now();
                    let outputs = self.selection.peer_unreachable(peer, t);
                    self.apply_outputs(outputs);
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        self.transport.deregister(self.id);
    }
}
