use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use attrspace::{Point, Space};
use autosel_core::fasthash::FastMap;
use autosel_core::{
    Host, Match, NetMessage, NodeProfile, Output, QueryId, QueryRequest, SelectionNode,
};
use autosel_obs::ObsHandle;
use epigossip::{GossipHealth, GossipStack, NodeId, Selector};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::transport::{Envelope, Fabric, TcpOut};
use crate::NetConfig;

/// Commands a peer accepts from its [`NetCluster`](crate::NetCluster) handle.
///
/// Reply channels are rendezvous-bounded (`sync_channel(1)`): a peer sends
/// exactly one completion per issued query, so the bound can never block it.
#[derive(Debug)]
pub(crate) enum Command {
    /// Issues the request; its matches and count go to `reply`.
    Begin {
        request: QueryRequest,
        reply: mpsc::SyncSender<(Vec<Match>, u64)>,
    },
    /// Removes the peer from its shard; a shard whose last peer is gone
    /// stops.
    Kill,
}

/// Everything a peer reacts to besides its timers.
#[derive(Debug)]
pub(crate) enum PeerEvent {
    /// A message arrived from `NodeId`.
    Deliver(NodeId, NetMessage),
    /// A control command from the cluster handle.
    Command(Command),
    /// Fail-fast feedback from the runtime: this peer is unreachable.
    Failed(NodeId),
}

/// One peer's entry in the cluster's fixed routing table: liveness plus
/// counters the cluster handle reads while the peer runs. Aligned to a
/// cache line so peers owned by different shards do not share one.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct PeerSlot {
    /// Set by [`NetCluster::kill`](crate::NetCluster::kill); sends to a
    /// dead peer fail fast.
    pub dead: AtomicBool,
    pub sent: AtomicU64,
    pub received: AtomicU64,
    /// Routing-table link count after the last view sync (a convergence gauge).
    pub links: AtomicU64,
    /// Events queued for this peer in its shard's inbox and local queue:
    /// raised before an event is queued, lowered once it is taken.
    pub inbox_depth: AtomicU64,
    /// Deliveries dropped because this peer's inbox was full. The protocol
    /// absorbs these like network loss: timeouts retry or amputate.
    pub inbox_dropped: AtomicU64,
    /// Gossip-health gauges, published after every gossip round: view
    /// size, mean age and turnover of the random, then the semantic view.
    gossip: [[AtomicU64; 3]; 2],
}

impl PeerSlot {
    /// Takes one place in this peer's inbox, or reports it full.
    pub(crate) fn try_reserve(&self, capacity: u64) -> bool {
        if self.inbox_depth.fetch_add(1, Ordering::Relaxed) < capacity {
            return true;
        }
        self.inbox_depth.fetch_sub(1, Ordering::Relaxed);
        false
    }

    /// One event left this peer's inbox.
    fn taken(&self) {
        self.inbox_depth.fetch_sub(1, Ordering::Relaxed);
    }

    fn publish_health(&self, (random, semantic): (GossipHealth, GossipHealth)) {
        for (gauges, h) in self.gossip.iter().zip([random, semantic]) {
            for (g, v) in gauges.iter().zip([h.links, h.age_sum_x1000, h.turnover]) {
                g.store(v, Ordering::Relaxed);
            }
        }
    }

    /// This peer's last published gossip health; a peer that has not
    /// gossiped yet reads as one node with empty views.
    pub(crate) fn health(&self) -> (GossipHealth, GossipHealth) {
        let read = |[links, age, turnover]: &[AtomicU64; 3]| GossipHealth {
            nodes: 1,
            links: links.load(Ordering::Relaxed),
            age_sum_x1000: age.load(Ordering::Relaxed),
            turnover: turnover.load(Ordering::Relaxed),
        };
        (read(&self.gossip[0]), read(&self.gossip[1]))
    }
}

/// One peer: the same sans-IO [`Host`] the simulator drives, its own RNG,
/// and the completion channels of the queries it originated. Owned
/// outright by one [`Shard`]; what it produces goes to the shard's `out`
/// buffer and is routed after each event.
pub(crate) struct PeerTask {
    host: Host,
    rng: SmallRng,
    pending: FastMap<QueryId, mpsc::SyncSender<(Vec<Match>, u64)>>,
}

impl PeerTask {
    pub(crate) fn new(
        id: NodeId,
        space: &Space,
        point: Point,
        config: &NetConfig,
        selector: &Arc<dyn Selector<NodeProfile>>,
        obs: ObsHandle,
    ) -> Self {
        let selection = SelectionNode::new(id, space, point, config.protocol.clone());
        let gossip = GossipStack::with_selector(
            id,
            selection.profile(),
            config.gossip.clone(),
            Arc::clone(selector),
        );
        let mut host = Host::new(selection, Some(gossip));
        host.set_observer(obs);
        PeerTask {
            host,
            rng: SmallRng::seed_from_u64(id ^ 0xA5A5_5A5A_DEAD_BEEF),
            pending: FastMap::default(),
        }
    }

    /// Bootstrap introduction to `id` at `point`.
    pub(crate) fn introduce(&mut self, id: NodeId, point: Point) {
        let profile = NodeProfile::new(self.host.selection().space(), point);
        self.host.introduce(id, profile);
    }

    /// Publishes the routing-table link count (a convergence gauge).
    fn publish_links(&self, slot: &PeerSlot) {
        let links = self.host.selection().routing().link_count();
        slot.links.store(links as u64, Ordering::Relaxed);
    }

    /// One gossip round, then the gauges the cluster handle reads.
    fn gossip(&mut self, now: u64, slot: &PeerSlot, out: &mut Vec<Output>) {
        self.host.gossip_tick(now, &mut self.rng, out);
        self.publish_links(slot);
        if let Some(g) = self.host.gossip() {
            slot.publish_health(g.health());
        }
    }

    fn handle(&mut self, event: PeerEvent, now: u64, slot: &PeerSlot, out: &mut Vec<Output>) {
        match event {
            PeerEvent::Deliver(from, msg) => {
                slot.received.fetch_add(1, Ordering::Relaxed);
                let gossip = matches!(msg, NetMessage::Gossip(_));
                self.host.deliver(from, msg, now, &mut self.rng, out);
                if gossip {
                    self.publish_links(slot);
                }
            }
            PeerEvent::Command(Command::Begin { request, reply }) => {
                let qid = self.host.begin(request, now, out);
                self.pending.insert(qid, reply);
            }
            // The shard removes a killed peer before it gets here.
            PeerEvent::Command(Command::Kill) => {}
            // The runtime said `peer` is gone: skip its subtrees now and
            // stop gossiping with it.
            PeerEvent::Failed(peer) => self.host.unreachable(peer, now, out),
        }
    }
}

/// How a shard's sends leave it.
pub(crate) enum Wire {
    /// In-process. A send to a peer of the same shard goes to the shard's
    /// local queue, any other to the owning shard's inbox at once. With
    /// injected latency every send, same-shard ones included, first waits
    /// its drawn delay in `delayed` (keyed by due time, then send order).
    Mem {
        latency_ms: Option<(u64, u64)>,
        /// Latency draws, seeded per shard.
        rng: SmallRng,
        delayed: BTreeMap<(Instant, u64), (NodeId, NodeId, NetMessage)>,
        seq: u64,
    },
    /// Every send is framed into this shard's link to the destination's
    /// shard — its own included —, written by the shard after the event
    /// or pass that sent it, and comes back through that shard's listener.
    Tcp(TcpOut),
}

/// Events one pass takes from the inbox, and again from the local queue,
/// before it looks at the timers again.
const PASS: usize = 64;

/// How often each peer polls its protocol timeouts (real time).
const POLL_PERIOD: Duration = Duration::from_millis(20);

/// A worker owning a fixed set of peers outright. Its one loop runs, per
/// pass: due gossip and poll timers, due latency-injected sends, then up to
/// [`PASS`] events from its inbox (other shards, the TCP readers, the
/// cluster handle) and up to [`PASS`] from its local queue (same-shard
/// sends); on TCP it then writes its links. With nothing to do it blocks on
/// the inbox until the next deadline. It stops when its last peer is
/// killed.
pub(crate) struct Shard {
    index: usize,
    peers: FastMap<NodeId, PeerTask>,
    fabric: Arc<Fabric>,
    inbox: mpsc::Receiver<Envelope>,
    local: VecDeque<Envelope>,
    /// Queries the cluster handle began, started once the shard has caught
    /// up with the work in flight: a burst of new queries waits here,
    /// counted against its origins' inbox bounds, instead of pushing busy
    /// peers' inboxes past theirs.
    fresh: VecDeque<Envelope>,
    /// Next gossip round per peer. Every re-arm lands one period after a
    /// deadline no later than all queued ones, so a FIFO stays sorted.
    gossip_due: VecDeque<(Instant, NodeId)>,
    poll_due: VecDeque<(Instant, NodeId)>,
    gossip_period: Duration,
    wire: Wire,
    /// What the event being handled produced, routed right after it.
    out: Vec<Output>,
    started: Instant,
}

impl Shard {
    /// A shard over `peers`. First gossip rounds and timeout polls are
    /// spread evenly over one period, so the shard's peers do not all
    /// gossip in the same pass.
    pub(crate) fn new(
        index: usize,
        peers: FastMap<NodeId, PeerTask>,
        fabric: Arc<Fabric>,
        inbox: mpsc::Receiver<Envelope>,
        wire: Wire,
        config: &NetConfig,
        started: Instant,
    ) -> Self {
        let gossip_period = Duration::from_millis(config.gossip.period_ms);
        let mut ids: Vec<NodeId> = peers.keys().copied().collect();
        ids.sort_unstable();
        let staggered = |period: Duration| -> VecDeque<(Instant, NodeId)> {
            let step = period / ids.len().max(1) as u32;
            (1..)
                .zip(&ids)
                .map(|(i, &id)| (started + step * i, id))
                .collect()
        };
        Shard {
            index,
            gossip_due: staggered(gossip_period),
            poll_due: staggered(POLL_PERIOD),
            peers,
            fabric,
            inbox,
            local: VecDeque::new(),
            fresh: VecDeque::new(),
            gossip_period,
            wire,
            out: Vec::new(),
            started,
        }
    }

    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Runs until the last peer is killed. What a pass or a woken event
    /// sent over TCP is written before the shard looks for more work, so
    /// nothing waits on a link while the shard blocks; a write that failed
    /// queued its bounces locally, which keeps the shard from blocking.
    pub(crate) fn run(mut self) {
        while !self.peers.is_empty() {
            let now = Instant::now();
            let busy = self.pass(now);
            self.flush_links();
            if !busy && self.local.is_empty() {
                let wait = self
                    .next_deadline(now)
                    .saturating_duration_since(Instant::now());
                if let Ok((to, event)) = self.inbox.recv_timeout(wait) {
                    self.dispatch(to, event);
                    self.flush_links();
                }
            }
        }
    }

    /// Writes every TCP link's pending frames, one `write_all` per link;
    /// each frame that could not be written bounces `Failed` to its sender,
    /// as a dead destination would.
    fn flush_links(&mut self) {
        let Wire::Tcp(links) = &mut self.wire else {
            return;
        };
        for (from, to) in links.flush(Instant::now()) {
            self.enqueue(from, PeerEvent::Failed(to));
        }
    }

    /// One pass of the loop at `now`; false if it found no event to handle.
    fn pass(&mut self, now: Instant) -> bool {
        self.fire_timers(now);
        self.release_delayed(now);
        let mut taken = 0;
        while taken < PASS {
            let Ok((to, event)) = self.inbox.try_recv() else {
                break;
            };
            taken += 1;
            if let PeerEvent::Command(Command::Begin { .. }) = event {
                self.fresh.push_back((to, event));
            } else {
                self.dispatch(to, event);
            }
        }
        let mut handled = 0;
        while handled < PASS {
            let Some((to, event)) = self.local.pop_front() else {
                break;
            };
            self.dispatch(to, event);
            handled += 1;
        }
        // Caught up with the inbox: start queries the handle began, as long
        // as the local queue stays short.
        if taken < PASS {
            while handled < PASS && self.local.len() < PASS {
                let Some((to, event)) = self.fresh.pop_front() else {
                    break;
                };
                self.dispatch(to, event);
                handled += 1;
            }
        }
        taken + handled > 0
    }

    /// The earliest timer, latency or link-retry deadline.
    fn next_deadline(&self, now: Instant) -> Instant {
        let delayed = match &self.wire {
            Wire::Mem { delayed, .. } => delayed.first_key_value().map(|(&(due, _), _)| due),
            Wire::Tcp(links) => links.next_retry(),
        };
        [
            self.gossip_due.front().map(|d| d.0),
            self.poll_due.front().map(|d| d.0),
            delayed,
        ]
        .into_iter()
        .flatten()
        .min()
        .unwrap_or(now + POLL_PERIOD)
    }

    /// Runs every gossip round and timeout poll due by `now`. A late timer
    /// skips the ticks it missed rather than bursting them.
    fn fire_timers(&mut self, now: Instant) {
        while let Some(&(due, id)) = self.gossip_due.front().filter(|d| d.0 <= now) {
            self.gossip_due.pop_front();
            let ms = self.now_ms();
            let Some(peer) = self.peers.get_mut(&id) else {
                continue;
            };
            peer.gossip(ms, self.fabric.peer(id), &mut self.out);
            self.flush(id);
            self.gossip_due
                .push_back((rearm(due, self.gossip_period, now), id));
        }
        while let Some(&(due, id)) = self.poll_due.front().filter(|d| d.0 <= now) {
            self.poll_due.pop_front();
            let ms = self.now_ms();
            let Some(peer) = self.peers.get_mut(&id) else {
                continue;
            };
            peer.host.poll_timeouts(ms, &mut self.out);
            self.flush(id);
            self.poll_due.push_back((rearm(due, POLL_PERIOD, now), id));
        }
    }

    /// Moves latency-injected sends whose delay has passed to their
    /// destination's queue.
    fn release_delayed(&mut self, now: Instant) {
        loop {
            let Wire::Mem { delayed, .. } = &mut self.wire else {
                return;
            };
            let Some(entry) = delayed.first_entry().filter(|e| e.key().0 <= now) else {
                return;
            };
            let (from, to, msg) = entry.remove();
            self.deliver(from, to, msg);
        }
    }

    /// Hands one event to its peer. An event for a peer killed since it
    /// was queued is dropped; a message bounces back to its sender as
    /// `Failed`, as a refused connection would.
    fn dispatch(&mut self, to: NodeId, event: PeerEvent) {
        let slot = self.fabric.peer(to);
        slot.taken();
        if matches!(event, PeerEvent::Command(Command::Kill)) {
            self.peers.remove(&to);
            return;
        }
        let now = self.now_ms();
        let Some(peer) = self.peers.get_mut(&to) else {
            if let PeerEvent::Deliver(from, _) = event {
                self.enqueue(from, PeerEvent::Failed(to));
            }
            return;
        };
        peer.handle(event, now, slot, &mut self.out);
        self.flush(to);
    }

    /// Routes what the last handled event of `from` produced: sends leave
    /// the shard, completions go to `from`'s waiting callers.
    fn flush(&mut self, from: NodeId) {
        let mut out = std::mem::take(&mut self.out);
        for output in out.drain(..) {
            match output {
                Output::Send { to, msg } => self.send(from, to, NetMessage::Protocol(msg)),
                Output::Gossip { to, msg } => self.send(from, to, NetMessage::Gossip(msg)),
                Output::Completed { id, matches, count } => {
                    let peer = self.peers.get_mut(&from);
                    if let Some(reply) = peer.and_then(|p| p.pending.remove(&id)) {
                        let _ = reply.send((matches, count));
                    }
                }
            }
        }
        self.out = out;
    }

    /// One send from a local peer. A dead destination fails fast: the
    /// sender gets `Failed(to)` instead of waiting for its timeout.
    fn send(&mut self, from: NodeId, to: NodeId, msg: NetMessage) {
        self.fabric.peer(from).sent.fetch_add(1, Ordering::Relaxed);
        match &mut self.wire {
            Wire::Mem {
                latency_ms: None, ..
            } => self.deliver(from, to, msg),
            Wire::Mem {
                latency_ms: Some((lo, hi)),
                rng,
                delayed,
                seq,
            } => {
                let due = Instant::now() + Duration::from_millis(rng.gen_range(*lo..=*hi));
                *seq += 1;
                delayed.insert((due, *seq), (from, to, msg));
            }
            Wire::Tcp(links) => {
                if self.fabric.live(to).is_some() {
                    links.send(self.fabric.shard_of(to), from, to, &msg);
                } else {
                    self.enqueue(from, PeerEvent::Failed(to));
                }
            }
        }
    }

    /// An in-memory delivery of `msg` to `to`, bouncing `Failed(to)` back to
    /// `from` if `to` is dead.
    fn deliver(&mut self, from: NodeId, to: NodeId, msg: NetMessage) {
        if !self.enqueue(to, PeerEvent::Deliver(from, msg)) {
            self.enqueue(from, PeerEvent::Failed(to));
        }
    }

    /// Queues `event` for `to`: in the local queue if `to` is this shard's,
    /// else in its shard's inbox. A full inbox drops the event (counted);
    /// `false` means `to` is dead or no peer of this cluster.
    fn enqueue(&mut self, to: NodeId, event: PeerEvent) -> bool {
        if self.fabric.shard_of(to) != self.index {
            return self.fabric.try_deliver(to, event).is_ok();
        }
        let Some(room) = self.fabric.admit(to) else {
            return false;
        };
        if room {
            self.local.push_back((to, event));
        }
        true
    }
}

impl Drop for Shard {
    /// A shard that stops with peers left has panicked: marked dead, they
    /// fail sends fast and the cluster handle stops waiting on them.
    fn drop(&mut self) {
        for &id in self.peers.keys() {
            self.fabric.peer(id).dead.store(true, Ordering::Relaxed);
        }
    }
}

/// The deadline after `due`, skipping the ticks missed if the shard fell behind.
fn rearm(due: Instant, period: Duration, now: Instant) -> Instant {
    let next = due + period;
    if next > now {
        next
    } else {
        now + period
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrspace::Query;
    use autosel_core::{MatchList, Message, ReplyMsg, SlotSelector};

    /// An unstarted shard owning peers `0..n` of a one-shard in-memory
    /// cluster whose inboxes hold `capacity` events each.
    fn shard(n: usize, capacity: usize, latency_ms: Option<(u64, u64)>) -> Shard {
        let space = Space::uniform(2, 80, 3).unwrap();
        let config = NetConfig::default();
        let (fabric, mut inboxes) = Fabric::new(n, 1, capacity);
        let selector: Arc<dyn Selector<NodeProfile>> = Arc::new(SlotSelector::default());
        let peers = (0..n as NodeId)
            .map(|id| {
                let point = space.point(&[id * 7 % 80, 40]).unwrap();
                (
                    id,
                    PeerTask::new(id, &space, point, &config, &selector, ObsHandle::null()),
                )
            })
            .collect();
        let (mut wires, _) = crate::Transport::mem(latency_ms).start(&fabric).unwrap();
        let (inbox, wire) = (inboxes.pop().unwrap(), wires.pop().unwrap());
        Shard::new(0, peers, fabric, inbox, wire, &config, Instant::now())
    }

    fn reply() -> NetMessage {
        let id = QueryId { origin: 0, seq: 0 };
        let reply = ReplyMsg {
            id,
            matching: MatchList::new(),
            count: 0,
            attempt: 1,
        };
        NetMessage::Protocol(Message::Reply(reply))
    }

    #[test]
    fn same_shard_sends_take_the_local_queue_within_the_inbox_bound() {
        let mut s = shard(3, 4, None);
        for _ in 0..6 {
            s.send(0, 1, reply());
        }
        assert_eq!(s.local.len(), 4);
        assert!(s
            .local
            .iter()
            .all(|(to, e)| *to == 1 && matches!(e, PeerEvent::Deliver(0, _))));
        let slot = s.fabric.peer(1);
        assert_eq!(slot.inbox_depth.load(Ordering::Relaxed), 4);
        assert_eq!(slot.inbox_dropped.load(Ordering::Relaxed), 2);
        assert_eq!(s.fabric.peer(0).sent.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn sends_to_dead_or_unknown_peers_fail_fast() {
        let mut s = shard(3, 8, None);
        s.fabric.peer(2).dead.store(true, Ordering::Relaxed);
        s.send(0, 2, reply());
        s.send(0, u64::MAX, reply());
        let events: Vec<_> = s.local.drain(..).collect();
        let bounced = matches!(
            events[..],
            [(0, PeerEvent::Failed(2)), (0, PeerEvent::Failed(u64::MAX))]
        );
        assert!(bounced, "expected both sends bounced, got {events:?}");
    }

    #[test]
    fn same_shard_sends_wait_their_injected_latency() {
        let mut s = shard(2, 8, Some((30, 30)));
        let sent = Instant::now();
        s.send(0, 1, reply());
        s.release_delayed(sent);
        assert!(s.local.is_empty(), "delivered before its latency");
        s.release_delayed(sent + Duration::from_millis(31));
        assert!(matches!(
            s.local.pop_front(),
            Some((1, PeerEvent::Deliver(0, _)))
        ));
    }

    /// A TCP link that cannot write bounces `Failed` to the sender of each
    /// frame it held, through the shard's own queue.
    #[test]
    fn a_link_that_cannot_write_fails_each_frame_back_to_its_sender() {
        let mut s = shard(3, 8, None);
        let space = Space::uniform(2, 80, 3).unwrap();
        let (mut wires, listeners) = crate::Transport::tcp(space).start(&s.fabric).unwrap();
        drop(listeners);
        s.wire = wires.pop().unwrap();
        s.send(0, 1, reply());
        s.send(2, 1, reply());
        assert!(s.local.is_empty(), "frames wait for the flush");
        s.flush_links();
        let events: Vec<_> = s.local.drain(..).collect();
        let bounced = matches!(
            events[..],
            [(0, PeerEvent::Failed(1)), (2, PeerEvent::Failed(1))]
        );
        assert!(bounced, "expected both frames bounced, got {events:?}");
    }

    /// A shard that dies with peers (a panic) must not leave the cluster
    /// handle waiting forever for room in their full inboxes.
    #[test]
    fn a_shard_gone_with_peers_releases_the_handle() {
        let s = shard(2, 2, None);
        let fabric = Arc::clone(&s.fabric);
        for _ in 0..2 {
            fabric
                .send_blocking(1, PeerEvent::Command(Command::Kill))
                .unwrap();
        }
        drop(s);
        assert!(fabric.live(1).is_none());
        assert!(fabric
            .send_blocking(1, PeerEvent::Command(Command::Kill))
            .is_err());
    }

    #[test]
    fn new_queries_wait_while_in_flight_work_is_queued() {
        let mut s = shard(2, 1_000, None);
        let query = Query::builder(&Space::uniform(2, 80, 3).unwrap())
            .build()
            .unwrap();
        let (tx, rx) = mpsc::sync_channel(1);
        let begin = Command::Begin {
            request: query.into(),
            reply: tx,
        };
        s.fabric
            .send_blocking(1, PeerEvent::Command(begin))
            .unwrap();
        // Two passes' worth of in-flight work is queued ahead of it.
        for _ in 0..2 * PASS {
            s.send(0, 1, reply());
        }
        // No timer is due at the shard's start instant.
        let at = s.started;
        assert!(s.pass(at) && s.fresh.len() == 1 && rx.try_recv().is_err());
        assert!(s.pass(at) && s.fresh.len() == 1 && rx.try_recv().is_err());
        // The local queue has drained: the query starts (and, with no
        // routing links yet, completes at its origin).
        assert!(s.pass(at) && s.fresh.is_empty());
        assert!(rx.try_recv().is_ok());
        assert!(!s.pass(at), "nothing left to do");
    }
}
