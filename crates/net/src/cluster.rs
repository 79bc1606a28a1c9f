use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use attrspace::{Point, Query, Space};
use autosel_core::fasthash::FastMap;
use autosel_core::{Match, QueryId};
use autosel_obs::{Event, ObsHandle};
use epigossip::{GossipHealth, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::peer::{Command, PeerEvent, PeerSlot, PeerTask, Shard};
use crate::transport::{Fabric, Listener};
use crate::{NetConfig, Transport};

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
        let wanted = self
            .sigma
            .map_or(self.truth, |s| self.truth.min(s as usize));
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
        Some(QueryOutcome {
            matches,
            truth: self.truth,
            sigma: self.sigma,
        })
    }

    /// Blocks until completion or `timeout`.
    pub fn wait(self, timeout: Duration) -> Option<QueryOutcome> {
        let (_, matches) = self.rx.recv_timeout(timeout).ok()?;
        Some(QueryOutcome {
            matches,
            truth: self.truth,
            sigma: self.sigma,
        })
    }
}

/// One peer's inbox gauge: current queue depth and deliveries dropped by
/// the bounded inbox since spawn. A peer's inbox is its share of its
/// shard's queues: the gauge counts only events addressed to that peer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InboxStats {
    /// Events queued for the peer right now — at most
    /// [`NetConfig::inbox_capacity`] (a sender racing for the last place
    /// can show in one reading as one more).
    pub depth: u64,
    /// Deliveries dropped because the peer's inbox was full.
    pub dropped: u64,
}

/// A live population of overlay nodes, run by a few worker shards.
///
/// Emulates the paper's DAS (in-memory transport) and PlanetLab
/// ([`Transport::tcp`]) deployments, which hosted many nodes per machine.
/// Peers are pinned by id to one of K shards — K set by the core count —
/// and each shard is one thread owning its peers' protocol state outright,
/// driving their timers and messages from one loop. On TCP every message
/// still crosses a loopback socket, same-shard ones included: each shard
/// listens on one port and keeps one persistent link to every shard. The
/// cluster handle can issue queries at any node, kill nodes ungracefully,
/// and read per-node traffic counters. Dropping the cluster shuts it down.
pub struct NetCluster {
    transport: Transport,
    fabric: Arc<Fabric>,
    /// The attribute values of every peer by id; `None` once killed.
    points: Vec<Option<Point>>,
    rng: StdRng,
    /// Observability sink handed to every peer; null unless spawned via
    /// [`spawn_observed`](Self::spawn_observed). Events carry wall-clock
    /// milliseconds since cluster start.
    obs: ObsHandle,
    /// Cluster start instant — the zero point of event timestamps.
    started: Instant,
    shards: Vec<JoinHandle<()>>,
    /// One per shard on TCP; empty on the in-memory transport.
    listeners: Vec<Listener>,
}

impl std::fmt::Debug for NetCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetCluster")
            .field("peers", &self.len())
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

/// How many shards a cluster of `n` peers runs on — the one place this is
/// decided. One per core but one, which is left to the caller (the load
/// generator, or the application issuing queries), and never more shards
/// than peers. docs/PERFORMANCE.md ("The shard runtime") has the table this
/// rule was chosen from.
fn shard_count(n: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    (cores - 1).clamp(1, n)
}

impl NetCluster {
    /// Spawns `points.len()` peers on the given transport. Each is
    /// introduced to `config.bootstrap_degree` random other peers, so the
    /// overlay must *gossip itself* into a routed state (give it a few
    /// periods before expecting full delivery).
    ///
    /// # Errors
    ///
    /// I/O errors from binding TCP listeners or starting threads.
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
    /// I/O errors from binding TCP listeners or starting threads.
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
        let shards = shard_count(points.len());
        Self::spawn_sharded(space, points, config, transport, seed, obs, shards)
    }

    /// [`spawn_observed`](Self::spawn_observed) on exactly `shards` shards.
    pub(crate) fn spawn_sharded(
        space: Space,
        points: Vec<Point>,
        config: NetConfig,
        transport: Transport,
        seed: u64,
        obs: ObsHandle,
        shards: usize,
    ) -> std::io::Result<Self> {
        config.validate();
        assert!(!points.is_empty(), "cluster needs at least one node");
        assert!((1..=points.len()).contains(&shards), "need 1..=n shards");
        let started = Instant::now();
        let n = points.len();
        let (fabric, inboxes) = Fabric::new(n, shards, config.inbox_capacity);
        let mut owned: Vec<FastMap<NodeId, PeerTask>> =
            (0..shards).map(|_| FastMap::default()).collect();
        for (id, point) in (0..).zip(&points) {
            let peer = PeerTask::new(id, &space, point.clone(), &config, obs.clone());
            owned[fabric.shard_of(id)].insert(id, peer);
        }
        // Bootstrap introductions (ids are known to the spawner only),
        // made before any peer runs.
        let mut rng = StdRng::seed_from_u64(seed);
        for id in 0..n as NodeId {
            for _ in 0..config.bootstrap_degree {
                let other = rng.gen_range(0..n);
                if other as NodeId != id {
                    let peer = owned[fabric.shard_of(id)].get_mut(&id).expect("owned");
                    peer.introduce(other as NodeId, points[other].clone());
                }
            }
        }
        let mut cluster = NetCluster {
            transport,
            fabric: Arc::clone(&fabric),
            points: points.into_iter().map(Some).collect(),
            rng,
            obs,
            started,
            shards: Vec::with_capacity(shards),
            listeners: Vec::new(),
        };
        let (wires, listeners) = cluster.transport.start(&fabric)?;
        cluster.listeners = listeners;
        for (k, ((peers, inbox), wire)) in owned.into_iter().zip(inboxes).zip(wires).enumerate() {
            let shard = Shard::new(k, peers, Arc::clone(&fabric), inbox, wire, &config, started);
            let handle = std::thread::Builder::new()
                .name(format!("autosel-net-shard-{k}"))
                .spawn(move || shard.run())?;
            cluster.shards.push(handle);
        }
        Ok(cluster)
    }

    /// The alive peers with their slots, in ascending id order.
    fn alive(&self) -> impl Iterator<Item = (NodeId, &PeerSlot)> {
        (0..)
            .zip(&self.points)
            .filter(|(_, p)| p.is_some())
            .map(|(id, _)| (id, self.fabric.peer(id)))
    }

    /// Alive node ids, in ascending order.
    pub fn ids(&self) -> Vec<NodeId> {
        self.alive().map(|(id, _)| id).collect()
    }

    /// Number of alive nodes.
    pub fn len(&self) -> usize {
        self.points.iter().flatten().count()
    }

    /// Whether all nodes are gone.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        self.point_of(origin)?;
        let truth = self
            .points
            .iter()
            .flatten()
            .filter(|p| query.matches(p))
            .count();
        // Rendezvous bound of 1: each query completes exactly once.
        let (tx, rx) = mpsc::sync_channel(1);
        let begin = Command::BeginQuery {
            query,
            sigma,
            reply: tx,
        };
        self.fabric
            .send_blocking(origin, PeerEvent::Command(begin))
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
        self.point_of(origin)?;
        let (tx, rx) = mpsc::sync_channel(1);
        let begin = Command::BeginCount { query, reply: tx };
        self.fabric
            .send_blocking(origin, PeerEvent::Command(begin))
            .ok()?;
        rx.recv_timeout(timeout).ok()
    }

    /// Kills `id` ungracefully: its shard drops it, no goodbye is gossiped,
    /// and sends to it fail fast from now on.
    pub fn kill(&mut self, id: NodeId) {
        if self.remove(id) {
            self.obs.emit(|| Event::NodeCrashed {
                at: self.started.elapsed().as_millis() as u64,
                node: id,
            });
        }
    }

    /// Marks `id` dead and has its shard drop it; false if it already was.
    fn remove(&mut self, id: NodeId) -> bool {
        let Some(point) = usize::try_from(id)
            .ok()
            .and_then(|i| self.points.get_mut(i))
        else {
            return false;
        };
        if point.take().is_none() {
            return false;
        }
        let _ = self
            .fabric
            .send_blocking(id, PeerEvent::Command(Command::Kill));
        self.fabric.peer(id).dead.store(true, Relaxed);
        true
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
        self.alive()
            .map(|(id, p)| (id, (p.sent.load(Relaxed), p.received.load(Relaxed))))
            .collect()
    }

    /// The transport this cluster runs on — e.g. to read
    /// [`Transport::tcp_stats`] during a TCP load run.
    pub fn transport(&self) -> &Transport {
        &self.transport
    }

    /// Mean routing-table link count across alive peers (0.0 when empty) —
    /// the overlay's convergence gauge. Tests poll this with a bounded
    /// deadline instead of sleeping a fixed warm-up, so they adapt to
    /// loaded single-CPU machines instead of flaking on them.
    pub fn mean_links(&self) -> f64 {
        let links: Vec<u64> = self.alive().map(|(_, p)| p.links.load(Relaxed)).collect();
        links.iter().sum::<u64>() as f64 / links.len().max(1) as f64
    }

    /// Point-in-time gossip-health reading of `(random, semantic)` layers
    /// across alive peers, aggregated from the gauges each peer publishes
    /// after its gossip rounds. Peers that have not completed a first
    /// round yet (all-zero gauges) still count as nodes, matching the
    /// simulator's treatment of a quiet stack.
    pub fn gossip_health(&self) -> (GossipHealth, GossipHealth) {
        let mut random = GossipHealth::default();
        let mut semantic = GossipHealth::default();
        for (_, p) in self.alive() {
            random.nodes += 1;
            random.links += p.view_random.load(Relaxed);
            random.age_sum_x1000 += p.age_random_x1000.load(Relaxed);
            random.turnover += p.turnover_random.load(Relaxed);
            semantic.nodes += 1;
            semantic.links += p.view_semantic.load(Relaxed);
            semantic.age_sum_x1000 += p.age_semantic_x1000.load(Relaxed);
            semantic.turnover += p.turnover_semantic.load(Relaxed);
        }
        (random, semantic)
    }

    /// Per-peer inbox gauges: instantaneous queue depth and total
    /// deliveries dropped by the peer's bounded inbox.
    pub fn inbox_stats(&self) -> HashMap<NodeId, InboxStats> {
        self.alive()
            .map(|(id, p)| {
                let stats = InboxStats {
                    depth: p.inbox_depth.load(Relaxed),
                    dropped: p.inbox_dropped.load(Relaxed),
                };
                (id, stats)
            })
            .collect()
    }

    /// The attribute values of `id`, if alive.
    pub fn point_of(&self, id: NodeId) -> Option<&Point> {
        self.points.get(usize::try_from(id).ok()?)?.as_ref()
    }

    /// Stops every peer and waits for every thread of the cluster to
    /// finish; TCP listeners release their ports. Dropping the cluster
    /// does the same, minus the check below.
    ///
    /// # Panics
    ///
    /// Panics if a shard thread panicked.
    pub fn shutdown(mut self) {
        assert!(self.stop(), "a shard thread panicked");
    }

    /// Kills every peer, which stops every shard (and with it its TCP
    /// links), then closes the listeners and their readers. False if a
    /// shard panicked.
    fn stop(&mut self) -> bool {
        for id in 0..self.points.len() as NodeId {
            self.remove(id);
        }
        let panicked = self
            .shards
            .drain(..)
            .map(JoinHandle::join)
            .filter(Result::is_err)
            .count();
        self.listeners.clear();
        panicked == 0
    }
}

impl Drop for NetCluster {
    fn drop(&mut self) {
        self.stop();
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
        let matches = (0..reported)
            .map(|node| Match {
                node,
                values: values.clone(),
            })
            .collect();
        let (tx, rx) = mpsc::sync_channel(1);
        tx.send((QueryId { origin: 0, seq: 1 }, matches))
            .expect("receiver alive");
        QueryTicket { rx, truth, sigma }
            .try_outcome()
            .expect("completed")
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

    /// The shard runtime at every shard count a CI box might pick: the
    /// public constructors choose K from the core count, so these go
    /// through `spawn_sharded` directly.
    mod shards {
        use super::*;
        use autosel_obs::FlightRecorder;
        use rand::rngs::StdRng;

        const KS: [usize; 3] = [1, 2, 3];

        fn space() -> Space {
            Space::uniform(2, 80, 3).expect("valid space")
        }

        fn points(n: usize, seed: u64) -> Vec<Point> {
            let space = space();
            let mut rng = StdRng::seed_from_u64(seed);
            (0..n)
                .map(|_| {
                    let vals = [rng.gen_range(0..80u64), rng.gen_range(0..80u64)];
                    space.point(&vals).expect("inside the space")
                })
                .collect()
        }

        /// Fast gossip and a 60 s query timeout: a query answered within
        /// seconds was never left waiting on a timeout.
        fn config() -> NetConfig {
            NetConfig {
                gossip: epigossip::GossipConfig {
                    period_ms: 30,
                    ..Default::default()
                },
                protocol: autosel_core::ProtocolConfig {
                    query_timeout_ms: 60_000,
                    ..Default::default()
                },
                poll_interval_ms: 10,
                ..NetConfig::default()
            }
        }

        fn spawn(n: usize, k: usize, transport: Transport, obs: ObsHandle) -> NetCluster {
            NetCluster::spawn_sharded(space(), points(n, 7), config(), transport, 11, obs, k)
                .expect("spawn")
        }

        /// Polls `pred` every 20 ms until it holds or 60 s pass (debug
        /// builds on a loaded box converge slowly).
        fn wait_until(mut pred: impl FnMut() -> bool) -> bool {
            let start = Instant::now();
            while start.elapsed() < Duration::from_secs(60) {
                if pred() {
                    return true;
                }
                #[allow(clippy::disallowed_methods)] // thread-sleep: bounded by the deadline above
                std::thread::sleep(Duration::from_millis(20));
            }
            false
        }

        fn match_ids(outcome: &QueryOutcome) -> Vec<NodeId> {
            let mut ids: Vec<NodeId> = outcome.matches.iter().map(|m| m.node).collect();
            ids.sort_unstable();
            ids
        }

        fn truth_ids(cluster: &NetCluster, query: &Query) -> Vec<NodeId> {
            cluster
                .ids()
                .into_iter()
                .filter(|&id| query.matches(cluster.point_of(id).expect("alive")))
                .collect()
        }

        /// Waits until an unbounded query from every origin returns exactly
        /// the ground truth: the overlay is routed.
        fn converge(cluster: &mut NetCluster) {
            let everyone = Query::builder(&space()).build().expect("query");
            let want = truth_ids(cluster, &everyone);
            let routed = wait_until(|| {
                cluster.ids().into_iter().all(|origin| {
                    cluster
                        .query(origin, everyone.clone(), None, Duration::from_secs(10))
                        .is_some_and(|o| match_ids(&o) == want)
                })
            });
            assert!(
                routed,
                "overlay never routed every origin to the full truth"
            );
        }

        #[test]
        fn every_query_completes_once_with_the_ground_truth() {
            for k in KS {
                let mut cluster = spawn(30, k, Transport::mem(None), ObsHandle::null());
                converge(&mut cluster);
                let mut rng = StdRng::seed_from_u64(k as u64);
                let tickets: Vec<(QueryTicket, Vec<NodeId>)> = (0..200)
                    .map(|_| {
                        let query = Query::builder(&space())
                            .min("a0", rng.gen_range(0..80))
                            .build()
                            .expect("query");
                        let want = truth_ids(&cluster, &query);
                        let origin = cluster.random_node();
                        (
                            cluster
                                .begin_query(origin, query, None)
                                .expect("origin alive"),
                            want,
                        )
                    })
                    .collect();
                for (i, (ticket, want)) in tickets.iter().enumerate() {
                    let mut outcome = None;
                    assert!(wait_until(|| {
                        outcome = ticket.try_outcome();
                        outcome.is_some()
                    }));
                    let outcome = outcome.expect("completed");
                    let ids = match_ids(&outcome);
                    let mut unique = ids.clone();
                    unique.dedup();
                    assert_eq!(ids, unique, "K={k}, query {i}: a node reported twice");
                    assert_eq!(
                        &ids, want,
                        "K={k}, query {i}: matches differ from the truth"
                    );
                }
                for (ticket, _) in &tickets {
                    assert!(
                        ticket.try_outcome().is_none(),
                        "K={k}: a query completed twice"
                    );
                }
            }
        }

        #[test]
        fn a_peer_killed_in_another_shard_fails_fast() {
            for k in KS {
                let flight = Arc::new(FlightRecorder::new(1 << 20));
                let obs = ObsHandle::new(Arc::clone(&flight) as Arc<dyn autosel_obs::Observer>);
                let mut cluster = spawn(30, k, Transport::mem(None), obs);
                converge(&mut cluster);
                // Origins in shard 0, the victim in the next shard (the same
                // one when K = 1).
                let victim = (1 % k) as NodeId + k as NodeId;
                cluster.kill(victim);
                let everyone = Query::builder(&space()).build().expect("query");
                let want = truth_ids(&cluster, &everyone);
                let stopped_waiting = || {
                    flight
                        .recent()
                        .iter()
                        .any(|e| matches!(e, Event::TimeoutFired { peer, .. } if *peer == victim))
                };
                // The query timeout is 60 s: a query that meets the dead peer
                // and still answers within seconds was told it is gone.
                for origin in (0..30).step_by(k).filter(|&o| o != victim).take(10) {
                    let outcome = cluster
                        .query(origin, everyone.clone(), None, Duration::from_secs(10))
                        .expect("answered long before the 60 s timeout");
                    assert!(match_ids(&outcome).iter().all(|id| want.contains(id)));
                    if stopped_waiting() {
                        break;
                    }
                }
                assert!(
                    stopped_waiting(),
                    "K={k}: no query ever routed to the victim"
                );
            }
        }

        #[test]
        fn same_shard_deliveries_wait_their_injected_latency() {
            const LO: u64 = 10;
            for k in KS {
                let flight = Arc::new(FlightRecorder::new(1 << 20));
                let obs = ObsHandle::new(Arc::clone(&flight) as Arc<dyn autosel_obs::Observer>);
                let mut cluster = spawn(12, k, Transport::mem(Some((LO, LO + 2))), obs);
                assert!(
                    wait_until(|| cluster.mean_links() >= 1.0),
                    "no routing links formed"
                );
                flight.clear();
                let everyone = Query::builder(&space()).build().expect("query");
                for origin in 0..4 {
                    cluster
                        .query(origin, everyone.clone(), None, Duration::from_secs(10))
                        .expect("answered");
                }
                // Every QUERY hop and every REPLY arrives at least LO ms
                // after it was sent (timestamps are whole ms since spawn).
                let events = flight.recent();
                let mut hops = 0;
                for e in &events {
                    let (query, from, to, sent) = match *e {
                        Event::QueryForwarded {
                            at,
                            query,
                            from,
                            to,
                            ..
                        } => (query, from, to, at),
                        Event::ReplySent {
                            at,
                            query,
                            node,
                            to,
                            ..
                        } => (query, node, to, at),
                        _ => continue,
                    };
                    let arrived = events.iter().find_map(|a| match *a {
                        Event::QueryReceived {
                            at,
                            query: q,
                            node,
                            parent,
                            ..
                        } if q == query && node == to && parent == from => Some(at),
                        Event::ReplyMerged {
                            at,
                            query: q,
                            node,
                            from: f,
                            ..
                        } if q == query && node == to && f == from => Some(at),
                        _ => None,
                    });
                    let arrived = arrived.expect("every send of a completed query arrived");
                    let took = arrived - sent;
                    assert!(took >= LO, "K={k}: {from}→{to} took {took} ms");
                    hops += 1;
                }
                assert!(hops > 0, "K={k}: no hops traced");
            }
        }

        #[test]
        fn shutdown_closes_every_listener_and_thread() {
            for k in KS {
                for tcp in [false, true] {
                    let transport = if tcp {
                        Transport::tcp(space())
                    } else {
                        Transport::mem(None)
                    };
                    let mut cluster = spawn(9, k, transport, ObsHandle::null());
                    converge(&mut cluster);
                    let addrs: Vec<_> = cluster.listeners.iter().map(Listener::addr).collect();
                    assert_eq!(addrs.len(), if tcp { k } else { 0 });
                    // Every thread of the cluster holds the routing table.
                    let fabric = Arc::downgrade(&cluster.fabric);
                    cluster.shutdown();
                    let left = fabric.strong_count();
                    assert_eq!(left, 0, "K={k}, tcp={tcp}: a thread outlived shutdown");
                    for addr in addrs {
                        assert!(
                            std::net::TcpStream::connect(addr).is_err(),
                            "K={k}: listener {addr} still accepts"
                        );
                    }
                }
            }
        }
    }
}
