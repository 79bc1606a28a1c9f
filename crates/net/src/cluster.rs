use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use attrspace::{Point, Query, Space};
use autosel_core::{Match, QueryId};
use autosel_obs::{Event, ObsHandle};
use epigossip::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::peer::{Command, InboxSender, PeerCounters, PeerEvent, PeerTask};
use crate::{NetConfig, Transport};

struct PeerHandle {
    events: InboxSender,
    counters: Arc<PeerCounters>,
    point: Point,
    thread: Option<JoinHandle<()>>,
}

/// The result of a cluster-issued query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Matches reported to the originator.
    pub matches: Vec<Match>,
    /// Nodes matching the query at issue time (alive then).
    pub truth: usize,
    /// The `σ` bound the query was issued with, if any.
    pub sigma: Option<u32>,
}

impl QueryOutcome {
    /// Fraction of what was asked for that was reported: matches over
    /// `min(σ, truth)` (over `truth` when unbounded), capped at 1; 1 when
    /// nothing matched. At most the paper's delivery: a reached node whose
    /// reply was lost is not counted.
    pub fn delivery(&self) -> f64 {
        let wanted = self.sigma.map_or(self.truth, |s| self.truth.min(s as usize));
        if wanted == 0 {
            1.0
        } else {
            self.matches.len().min(wanted) as f64 / wanted as f64
        }
    }
}

/// A query in flight, issued by [`NetCluster::begin_query`]. Holds the
/// completion channel; poll with [`try_outcome`](Self::try_outcome) (load
/// generators juggling many tickets) or block with [`wait`](Self::wait).
#[derive(Debug)]
pub struct QueryTicket {
    rx: mpsc::Receiver<(QueryId, Vec<Match>)>,
    truth: usize,
    sigma: Option<u32>,
}

impl QueryTicket {
    /// Nodes matching the query at issue time.
    pub fn truth(&self) -> usize {
        self.truth
    }

    /// The outcome if the query has completed, `None` while still in
    /// flight. Ready at most once; later polls return `None` again.
    pub fn try_outcome(&self) -> Option<QueryOutcome> {
        let (_, matches) = self.rx.try_recv().ok()?;
        Some(QueryOutcome { matches, truth: self.truth, sigma: self.sigma })
    }

    /// Blocks until completion or `timeout`.
    pub fn wait(self, timeout: Duration) -> Option<QueryOutcome> {
        let (_, matches) = self.rx.recv_timeout(timeout).ok()?;
        Some(QueryOutcome { matches, truth: self.truth, sigma: self.sigma })
    }
}

/// Aggregate view health of one gossip layer across a live cluster, read
/// from the peers' published gauges — the wall-clock mirror of the
/// simulator's `gossip_health()` reading (same fields, same fixed-point
/// scaling), so soak-style health bounds apply to deployments too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GossipHealth {
    /// Peers that have published at least one gossip round.
    pub nodes: u64,
    /// Total view entries across those peers.
    pub links: u64,
    /// Sum over peers of per-view mean descriptor age, in thousandths.
    pub age_sum_x1000: u64,
    /// Total view turnover (entries ever admitted).
    pub turnover: u64,
}

impl GossipHealth {
    /// Mean view size in thousandths (0 when no peer has gossiped).
    pub fn mean_view_size_x1000(&self) -> u64 {
        (self.links * 1000).checked_div(self.nodes).unwrap_or(0)
    }

    /// Mean of the per-peer mean descriptor ages, in thousandths.
    pub fn mean_age_x1000(&self) -> u64 {
        self.age_sum_x1000.checked_div(self.nodes).unwrap_or(0)
    }
}

/// One peer's inbox gauge: current queue depth and deliveries dropped by
/// the bounded inbox since spawn.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InboxStats {
    /// Events queued right now (clamped at zero; enqueue/dequeue races
    /// make the instantaneous reading approximate by ±1).
    pub depth: u64,
    /// Deliveries dropped because the inbox was full.
    pub dropped: u64,
}

/// A live population of overlay nodes, one thread per node.
///
/// Emulates the paper's DAS (in-memory transport) and PlanetLab
/// ([`Transport::tcp`]) deployments. Every peer is an independent thread;
/// the cluster handle can issue queries at any node, kill nodes
/// ungracefully, and read per-node traffic counters.
pub struct NetCluster {
    space: Space,
    transport: Transport,
    peers: HashMap<NodeId, PeerHandle>,
    rng: StdRng,
    /// Observability sink handed to every peer; null unless spawned via
    /// [`spawn_observed`](Self::spawn_observed). Events carry wall-clock
    /// milliseconds since cluster start.
    obs: ObsHandle,
    /// Cluster start instant — the zero point of event timestamps.
    started: Instant,
}

impl std::fmt::Debug for NetCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetCluster")
            .field("peers", &self.peers.len())
            .finish_non_exhaustive()
    }
}

impl NetCluster {
    /// Spawns `points.len()` peers on the given transport. Each is
    /// introduced to `config.bootstrap_degree` random earlier peers, so the
    /// overlay must *gossip itself* into a routed state (give it a few
    /// periods before expecting full delivery).
    ///
    /// # Errors
    ///
    /// I/O errors from TCP listener binding.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid or `points` is empty.
    pub fn spawn(
        space: Space,
        points: Vec<Point>,
        config: NetConfig,
        transport: Transport,
        seed: u64,
    ) -> std::io::Result<Self> {
        Self::spawn_observed(space, points, config, transport, seed, ObsHandle::null())
    }

    /// Like [`spawn`](Self::spawn) but with an observability sink installed
    /// on every peer before its first message. Event timestamps are
    /// wall-clock milliseconds since this call — the same clock the peers'
    /// timeout logic runs on, so a trace from a deployment lines up with a
    /// trace from the simulator structurally (only the `at` values differ).
    ///
    /// # Errors
    ///
    /// I/O errors from TCP listener binding.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid or `points` is empty.
    pub fn spawn_observed(
        space: Space,
        points: Vec<Point>,
        config: NetConfig,
        transport: Transport,
        seed: u64,
        obs: ObsHandle,
    ) -> std::io::Result<Self> {
        config.validate();
        assert!(!points.is_empty(), "cluster needs at least one node");
        let started = Instant::now();
        let rng = StdRng::seed_from_u64(seed);
        let mut cluster =
            NetCluster { space, transport, peers: HashMap::new(), rng, obs, started };
        for (i, point) in points.into_iter().enumerate() {
            cluster.spawn_peer(i as NodeId, point, &config, started)?;
        }
        // Bootstrap introductions (ids are known to the spawner only).
        let ids: Vec<NodeId> = {
            let mut ids: Vec<NodeId> = cluster.peers.keys().copied().collect();
            ids.sort_unstable();
            ids
        };
        for &id in &ids {
            for _ in 0..config.bootstrap_degree {
                let other = ids[cluster.rng.gen_range(0..ids.len())];
                if other != id {
                    let point = cluster.peers[&other].point.clone();
                    let _ = cluster.peers[&id]
                        .events
                        .send_blocking(PeerEvent::Command(Command::Introduce(other, point)));
                }
            }
        }
        Ok(cluster)
    }

    fn spawn_peer(
        &mut self,
        id: NodeId,
        point: Point,
        config: &NetConfig,
        started: Instant,
    ) -> std::io::Result<()> {
        let (tx, events_rx) = mpsc::sync_channel(config.inbox_capacity);
        let counters = Arc::new(PeerCounters::default());
        let events_tx = InboxSender::new(tx, Arc::clone(&counters));
        self.transport.register(id, events_tx.clone())?;
        let task = PeerTask::new(
            id,
            &self.space,
            point.clone(),
            config.clone(),
            self.transport.clone(),
            events_rx,
            events_tx.clone(),
            Arc::clone(&counters),
            started,
            self.obs.clone(),
        );
        let thread = std::thread::Builder::new()
            .name(format!("autosel-net-peer-{id}"))
            .spawn(move || task.run())?;
        self.peers.insert(
            id,
            PeerHandle { events: events_tx, counters, point, thread: Some(thread) },
        );
        Ok(())
    }

    /// Alive node ids, in ascending order.
    pub fn ids(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.peers.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Number of alive nodes.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// Whether all nodes are gone.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// A uniformly random alive node.
    ///
    /// # Panics
    ///
    /// Panics if the cluster is empty.
    pub fn random_node(&mut self) -> NodeId {
        let ids = self.ids();
        assert!(!ids.is_empty(), "empty cluster");
        ids[self.rng.gen_range(0..ids.len())]
    }

    /// Issues `query` at `origin` without waiting: returns a
    /// [`QueryTicket`] whose channel the origin completes into. The
    /// non-blocking form load generators need — thousands of queries can
    /// be in flight from one issuing thread. Returns `None` if the origin
    /// is dead.
    pub fn begin_query(
        &mut self,
        origin: NodeId,
        query: Query,
        sigma: Option<u32>,
    ) -> Option<QueryTicket> {
        let truth = self
            .peers
            .values()
            .filter(|p| query.matches(&p.point))
            .count();
        // Rendezvous bound of 1: each query completes exactly once.
        let (tx, rx) = mpsc::sync_channel(1);
        self.peers
            .get(&origin)?
            .events
            .send_blocking(PeerEvent::Command(Command::BeginQuery { query, sigma, reply: tx }))
            .ok()?;
        Some(QueryTicket { rx, truth, sigma })
    }

    /// Issues `query` at `origin` and waits for completion (bounded by
    /// `timeout`). Returns `None` on timeout or if the origin died.
    pub fn query(
        &mut self,
        origin: NodeId,
        query: Query,
        sigma: Option<u32>,
        timeout: Duration,
    ) -> Option<QueryOutcome> {
        self.begin_query(origin, query, sigma)?.wait(timeout)
    }

    /// Runs a *count-only* query at `origin`: the answer is a single exact
    /// integer aggregated along the traversal tree (constant-size replies).
    /// Returns `None` on timeout or a dead origin.
    pub fn count(&mut self, origin: NodeId, query: Query, timeout: Duration) -> Option<u64> {
        let (tx, rx) = mpsc::sync_channel(1);
        self.peers
            .get(&origin)?
            .events
            .send_blocking(PeerEvent::Command(Command::BeginCount { query, reply: tx }))
            .ok()?;
        rx.recv_timeout(timeout).ok()
    }

    /// Kills `id` ungracefully: its thread stops, its inbox unroutes, no
    /// goodbye is gossiped.
    pub fn kill(&mut self, id: NodeId) {
        if let Some(p) = self.peers.remove(&id) {
            let _ = p.events.send_blocking(PeerEvent::Command(Command::Shutdown));
            self.transport.deregister(id);
            drop(p.thread); // detach; the thread exits on the shutdown command
            self.obs.emit(|| Event::NodeCrashed {
                at: self.started.elapsed().as_millis() as u64,
                node: id,
            });
        }
    }

    /// Kills a uniformly random fraction `f` of nodes; returns the victims.
    pub fn kill_fraction(&mut self, f: f64) -> Vec<NodeId> {
        let mut ids = self.ids();
        let n = ((ids.len() as f64) * f.clamp(0.0, 1.0)).round() as usize;
        let mut victims = Vec::with_capacity(n);
        for _ in 0..n {
            let i = self.rng.gen_range(0..ids.len());
            let id = ids.swap_remove(i);
            self.kill(id);
            victims.push(id);
        }
        victims
    }

    /// Per-node `(sent, received)` message counters.
    pub fn traffic(&self) -> HashMap<NodeId, (u64, u64)> {
        self.peers
            .iter()
            .map(|(&id, p)| {
                (
                    id,
                    (
                        p.counters.sent.load(std::sync::atomic::Ordering::Relaxed),
                        p.counters.received.load(std::sync::atomic::Ordering::Relaxed),
                    ),
                )
            })
            .collect()
    }

    /// Per-node routing-table link counts, as last published by each peer
    /// after a view sync. Zero until a node's first gossip round.
    pub fn link_counts(&self) -> HashMap<NodeId, u64> {
        self.peers
            .iter()
            .map(|(&id, p)| (id, p.counters.links.load(std::sync::atomic::Ordering::Relaxed)))
            .collect()
    }

    /// The transport every peer of this cluster shares — e.g. to read
    /// [`Transport::tcp_stats`] during a TCP load run.
    pub fn transport(&self) -> &Transport {
        &self.transport
    }

    /// Mean routing-table link count across alive peers (0.0 when empty) —
    /// the overlay's convergence gauge. Tests poll this with a bounded
    /// deadline instead of sleeping a fixed warm-up, so they adapt to
    /// loaded single-CPU machines instead of flaking on them.
    pub fn mean_links(&self) -> f64 {
        if self.peers.is_empty() {
            return 0.0;
        }
        let total: u64 = self
            .peers
            .values()
            .map(|p| p.counters.links.load(std::sync::atomic::Ordering::Relaxed))
            .sum();
        total as f64 / self.peers.len() as f64
    }

    /// Point-in-time gossip-health reading of `(random, semantic)` layers
    /// across alive peers, aggregated from the gauges each peer publishes
    /// after its gossip rounds. Peers that have not completed a first
    /// round yet (all-zero gauges) still count as nodes, matching the
    /// simulator's treatment of a quiet stack.
    pub fn gossip_health(&self) -> (GossipHealth, GossipHealth) {
        use std::sync::atomic::Ordering::Relaxed;
        let mut random = GossipHealth::default();
        let mut semantic = GossipHealth::default();
        for p in self.peers.values() {
            let c = &p.counters;
            random.nodes += 1;
            random.links += c.view_random.load(Relaxed);
            random.age_sum_x1000 += c.age_random_x1000.load(Relaxed);
            random.turnover += c.turnover_random.load(Relaxed);
            semantic.nodes += 1;
            semantic.links += c.view_semantic.load(Relaxed);
            semantic.age_sum_x1000 += c.age_semantic_x1000.load(Relaxed);
            semantic.turnover += c.turnover_semantic.load(Relaxed);
        }
        (random, semantic)
    }

    /// Per-peer inbox gauges: instantaneous queue depth and total
    /// deliveries dropped by the bounded inbox.
    pub fn inbox_stats(&self) -> HashMap<NodeId, InboxStats> {
        use std::sync::atomic::Ordering::Relaxed;
        self.peers
            .iter()
            .map(|(&id, p)| {
                (
                    id,
                    InboxStats {
                        depth: p.counters.inbox_depth.load(Relaxed).max(0) as u64,
                        dropped: p.counters.inbox_dropped.load(Relaxed),
                    },
                )
            })
            .collect()
    }

    /// The attribute values of `id`, if alive.
    pub fn point_of(&self, id: NodeId) -> Option<&Point> {
        self.peers.get(&id).map(|p| &p.point)
    }

    /// Stops every peer and waits for their threads to finish.
    pub fn shutdown(mut self) {
        let ids = self.ids();
        let mut threads = Vec::new();
        for id in ids {
            if let Some(mut p) = self.peers.remove(&id) {
                let _ = p.events.send_blocking(PeerEvent::Command(Command::Shutdown));
                self.transport.deregister(id);
                if let Some(t) = p.thread.take() {
                    threads.push(t);
                }
            }
        }
        for t in threads {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A completed ticket: `reported` matches came back, `truth` nodes
    /// matched at issue time.
    fn outcome(reported: u64, truth: usize, sigma: Option<u32>) -> QueryOutcome {
        let space = Space::uniform(1, 80, 3).expect("valid space");
        let values = space.point(&[5]).expect("arity 1");
        let matches = (0..reported).map(|node| Match { node, values: values.clone() }).collect();
        let (tx, rx) = mpsc::sync_channel(1);
        tx.send((QueryId { origin: 0, seq: 1 }, matches)).expect("receiver alive");
        QueryTicket { rx, truth, sigma }.try_outcome().expect("completed")
    }

    #[test]
    fn delivery_is_measured_against_what_was_asked_for() {
        // σ = 8 over 30 matching nodes: a full answer is full delivery, not
        // 8/30; the protocol may overshoot σ, which does not count extra.
        assert_eq!(outcome(8, 30, Some(8)).delivery(), 1.0);
        assert_eq!(outcome(11, 30, Some(8)).delivery(), 1.0);
        assert_eq!(outcome(4, 30, Some(8)).delivery(), 0.5);
        // Fewer matching nodes than σ: all of them is all there is.
        assert_eq!(outcome(3, 3, Some(8)).delivery(), 1.0);
        assert_eq!(outcome(0, 0, Some(8)).delivery(), 1.0);
        // Unbounded queries are still measured against the whole truth.
        assert_eq!(outcome(15, 30, None).delivery(), 0.5);
    }
}
