use autosel_core::fasthash::FastMap;
use std::convert::Infallible;
use std::sync::Arc;

use attrspace::{Point, Query, Space};
use autosel_core::bootstrap::OracleWiring;
use autosel_core::NeighborEntry;
use autosel_core::{
    Host, Match, Message, NetMessage, NodeProfile, Output, QueryId, QueryRequest, SelectionNode,
    SlotSelector,
};
use autosel_obs::{Event, ObsHandle};
use epigossip::{GossipHealth, GossipStack, NodeId, Selector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use autosel_core::fasthash::Fnv64;

use crate::event::{EventKey, EventKind, QueuedEvent, ScheduledEvent};
use crate::faults::{FaultPlan, NodeEventKind};
use crate::invariants::{InvariantChecker, InvariantViolation};
use crate::metrics::LoadHistogram;
use crate::nodestore::NodeStore;
use crate::truth::TruthIndex;
use crate::{Placement, QueryStats, SimConfig};

struct SimNode {
    host: Host,
    /// Messages (queries + replies + gossip) dispatched by this node —
    /// Fig. 9's load metric.
    sent: u64,
    /// Firing time of the earliest `PollTimeouts` event queued for this
    /// node, or `u64::MAX` when none is. One covering poll per node is
    /// enough — it reschedules itself off `next_timeout()` — so deliveries
    /// skip pushing redundant poll events (previously one per message).
    next_poll: u64,
}

/// One issued query's bookkeeping.
struct Tracked {
    stats: QueryStats,
    /// The query itself, matched against each receiver.
    query: Query,
    /// The matches reported to the originator, once completed.
    result: Option<Vec<Match>>,
}

/// A simulated population of resource-selection nodes under virtual time.
///
/// See the crate docs for an end-to-end example. The cluster is
/// deterministic for a given seed and sequence of calls.
pub struct SimCluster {
    space: Space,
    config: SimConfig,
    /// Per-node state, dense by id (ids are handed out contiguously and
    /// restarts reuse them — see `nodestore`). Hot-path lookups are one
    /// bounds-checked offset; a million nodes are one allocation.
    nodes: NodeStore<SimNode>,
    /// Alive node ids, kept sorted ascending — maintained incrementally on
    /// every join/leave so the hot paths (`random_node`, oracle wiring,
    /// churn) never re-collect and re-sort the key set.
    sorted_ids: Vec<NodeId>,
    /// The alive nodes' attribute values, indexed by nested cell: answers
    /// "how many nodes match" for every issued query without walking the
    /// population.
    truth_index: TruthIndex,
    /// Pops in ascending `(at, seq)` order (`ScheduledEvent`'s reversed
    /// `Ord`); `seq` is unique, so that order is total.
    #[allow(clippy::disallowed_types)] // binary-heap: keys are unique, so pop order is total
    queue: std::collections::BinaryHeap<ScheduledEvent>,
    now: u64,
    seq: u64,
    next_id: NodeId,
    rng: StdRng,
    /// Every issued query until [`forget_query`](Self::forget_query).
    queries: FastMap<QueryId, Tracked>,
    /// Installed fault plan; quiet by default.
    faults: FaultPlan,
    /// Crashed nodes remembered (id → attribute values) so a timed restart
    /// can bring them back under the same identity.
    crashed: FastMap<NodeId, Point>,
    /// Reused buffer for per-message fault resolution (zero allocations on
    /// the send path once warm).
    delivery_scratch: Vec<u64>,
    /// Reused buffer for what one host call produced, routed right after it.
    outputs: Vec<Output>,
    /// Observability sink, propagated into every node (null by default).
    /// Events carry virtual-time timestamps.
    obs: ObsHandle,
    /// The semantic layer's policy, one allocation shared by every stack.
    selector: Arc<dyn Selector<NodeProfile>>,
}

impl std::fmt::Debug for SimCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCluster")
            .field("nodes", &self.nodes.len())
            .field("now", &self.now)
            .field("queued", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl SimCluster {
    /// Creates an empty cluster over `space`.
    pub fn new(space: Space, config: SimConfig, seed: u64) -> Self {
        config.gossip.validate();
        SimCluster {
            truth_index: TruthIndex::new(space.clone()),
            space,
            config,
            nodes: NodeStore::default(),
            sorted_ids: Vec::new(),
            queue: Default::default(),
            now: 0,
            seq: 0,
            next_id: 0,
            rng: StdRng::seed_from_u64(seed),
            queries: FastMap::default(),
            faults: FaultPlan::new(),
            crashed: FastMap::default(),
            delivery_scratch: Vec::new(),
            outputs: Vec::new(),
            obs: ObsHandle::null(),
            selector: Arc::new(SlotSelector::default()),
        }
    }

    /// Installs an observability sink on the cluster and every node (current
    /// and future). Timestamps in emitted events are virtual milliseconds.
    ///
    /// Observers are passive: they never touch the protocol RNG or the event
    /// queue, so a traced run and an untraced run of the same seed produce
    /// byte-identical [`QueryStats`] fingerprints.
    pub fn set_observer(&mut self, obs: ObsHandle) {
        for n in self.nodes.values_mut() {
            n.host.set_observer(obs.clone());
        }
        self.obs = obs;
    }

    /// Installs a [`FaultPlan`]: per-message faults apply to every message
    /// sent from now on, and the plan's timed crash/restart events are
    /// scheduled onto the event queue. Installing a plan replaces any
    /// previous one (already-scheduled node events still fire).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        for ev in plan.node_events() {
            self.schedule(
                ev.at.max(self.now),
                EventKind::NodeFault {
                    node: ev.node,
                    kind: ev.kind,
                },
            );
        }
        self.faults = plan;
    }

    /// Current virtual time in milliseconds.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of alive nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The attribute space.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// Ids of all alive nodes, in ascending order (determinism: anything
    /// that feeds the seeded RNG must enumerate in a stable order). The
    /// index is maintained incrementally — no per-call collect-and-sort.
    pub fn node_ids(&self) -> &[NodeId] {
        &self.sorted_ids
    }

    /// A uniformly random alive node.
    ///
    /// # Panics
    ///
    /// Panics if the cluster is empty.
    pub fn random_node(&mut self) -> NodeId {
        assert!(!self.nodes.is_empty(), "empty cluster");
        self.sorted_ids[self.rng.gen_range(0..self.sorted_ids.len())]
    }

    /// The attribute values of `id`, if alive.
    pub fn point_of(&self, id: NodeId) -> Option<&Point> {
        self.nodes.get(&id).map(|n| n.host.selection().point())
    }

    /// Adds one node at `point`, bootstrapping its gossip stack off up to
    /// three random existing nodes. Returns the new node's id.
    pub fn add_node(&mut self, point: Point) -> NodeId {
        let id = self.next_id;
        self.next_id += 1;
        self.insert_node(id, point);
        id
    }

    /// Inserts a node under a caller-chosen id (fresh joins allocate one,
    /// restarts reuse the crashed identity).
    fn insert_node(&mut self, id: NodeId, point: Point) {
        let selection = SelectionNode::new(id, &self.space, point, self.config.protocol.clone());
        let gossip = if self.config.gossip_enabled {
            let mut stack = GossipStack::with_selector(
                id,
                selection.profile(),
                self.config.gossip.clone(),
                Arc::clone(&self.selector),
            );
            let existing = &self.sorted_ids;
            for _ in 0..3.min(existing.len()) {
                let seed = existing[self.rng.gen_range(0..existing.len())];
                let seed_stack = self.nodes[&seed].host.gossip();
                let profile = seed_stack.expect("every node gossips").profile();
                stack.introduce(seed, profile.clone());
            }
            // Stagger the first gossip within one period.
            let offset = self.rng.gen_range(0..self.config.gossip.period_ms);
            stack.schedule_first(self.now + offset);
            self.schedule(self.now + offset, EventKind::GossipTick { node: id });
            Some(stack)
        } else {
            None
        };
        if let Err(at) = self.sorted_ids.binary_search(&id) {
            self.sorted_ids.insert(at, id);
            self.truth_index
                .insert(selection.coord(), selection.point().values());
        }
        let mut host = Host::new(selection, gossip);
        host.set_observer(self.obs.clone());
        self.nodes.insert(
            id,
            SimNode {
                host,
                sent: 0,
                next_poll: u64::MAX,
            },
        );
    }

    /// Takes `id` out of the population and its indexes, reporting it
    /// crashed; `None` if it is not alive.
    fn remove_node(&mut self, id: NodeId) -> Option<SimNode> {
        let node = self.nodes.remove(&id)?;
        let at = self
            .sorted_ids
            .binary_search(&id)
            .expect("alive node is indexed");
        self.sorted_ids.remove(at);
        let selection = node.host.selection();
        self.truth_index
            .remove(selection.coord(), selection.point().values());
        self.obs.emit(|| Event::NodeCrashed {
            at: self.now,
            node: id,
        });
        Some(node)
    }

    /// Adds `n` nodes drawn from `placement`.
    pub fn populate(&mut self, placement: &Placement, n: usize) {
        for i in 0..n {
            let point = placement.draw(&self.space, i, &mut self.rng);
            self.add_node(point);
        }
    }

    /// Oracle-wires every routing table from global knowledge (the paper's
    /// converged initial state for the static experiments).
    pub fn wire_oracle(&mut self) {
        // Index the whole population once, then rewire each table in place,
        // ascending id order (determinism: the wiring draws from the
        // cluster RNG once per non-empty subcell slot).
        let entries: Vec<NeighborEntry> = self
            .sorted_ids
            .iter()
            .map(|id| {
                let sel = self.nodes[id].host.selection();
                NeighborEntry {
                    id: *id,
                    point: sel.point().clone(),
                    coord: sel.coord().clone(),
                }
            })
            .collect();
        let wiring = OracleWiring::new(&self.space, entries);
        for i in 0..wiring.entries().len() {
            let id = wiring.entries()[i].id;
            let node = self.nodes.get_mut(&id).expect("known id");
            let table = node.host.selection_mut().routing_mut();
            wiring.wire_table(i, table, &mut self.rng);
        }
    }

    /// Sets a dynamic attribute on a node (footnote 1 of the paper): checked
    /// locally at match time, never routed or gossiped.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not alive.
    pub fn set_dynamic(&mut self, id: NodeId, key: u32, value: u64) {
        self.nodes
            .get_mut(&id)
            .expect("node alive")
            .host
            .selection_mut()
            .set_dynamic(key, value);
    }

    /// Issues `request` from `origin`; returns the id. The recorded
    /// [`QueryStats::truth`] counts *static* matches only — delivery is
    /// measured against the routable set. A count query's answer is
    /// [`QueryStats::reported`] once completed.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is not alive.
    pub fn issue(&mut self, origin: NodeId, request: QueryRequest) -> QueryId {
        let now = self.now;
        let query = request.query.clone();
        let mut stats = QueryStats::new(now, self.truth_index.count(&query));
        stats.sigma = request.sigma();
        let host = &mut self.nodes.get_mut(&origin).expect("origin alive").host;
        let qid = host.begin(request, now, &mut self.outputs);
        // The origin counts as reached if it matches (it "received" the
        // query by creating it).
        stats.receivers.insert(origin);
        if query.matches(host.selection().point()) {
            stats.matched_reached.insert(origin);
        }
        let tracked = Tracked {
            stats,
            query,
            result: None,
        };
        self.queries.insert(qid, tracked);
        self.route(origin);
        self.schedule_timeout_poll(origin);
        qid
    }

    /// [`issue`](Self::issue) enumerating the matches of `query`,
    /// σ-bounded if `sigma` is given.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is not alive.
    pub fn issue_query(&mut self, origin: NodeId, query: Query, sigma: Option<u32>) -> QueryId {
        self.issue(origin, QueryRequest::matches(query, sigma))
    }

    /// The recorded statistics for a query.
    pub fn query_stats(&self, id: QueryId) -> Option<&QueryStats> {
        self.queries.get(&id).map(|t| &t.stats)
    }

    /// The matches reported to the originator, once completed.
    pub fn query_result(&self, id: QueryId) -> Option<&[Match]> {
        self.queries.get(&id)?.result.as_deref()
    }

    /// Drops per-query bookkeeping (long experiments call this after
    /// sampling a query's stats).
    pub fn forget_query(&mut self, id: QueryId) {
        self.queries.remove(&id);
    }

    /// Kills `id` abruptly (no goodbye messages — the paper's ungraceful
    /// departure). In-flight messages to it are dropped on delivery.
    pub fn kill(&mut self, id: NodeId) {
        self.remove_node(id);
    }

    /// Crashes `id`: like [`kill`](Self::kill), but the identity and
    /// attribute values are remembered so [`restart`](Self::restart) can
    /// bring the machine back. No-op if `id` is not alive.
    pub fn crash(&mut self, id: NodeId) {
        if let Some(n) = self.remove_node(id) {
            self.crashed.insert(id, n.host.selection().point().clone());
        }
    }

    /// Restarts a crashed node under its old identity and attribute values
    /// with *empty* protocol state (pending queries and the duplicate-
    /// suppression set died with the process). Returns whether a restart
    /// happened (false if `id` was not crashed).
    pub fn restart(&mut self, id: NodeId) -> bool {
        let Some(point) = self.crashed.remove(&id) else {
            return false;
        };
        self.insert_node(id, point);
        self.obs.emit(|| Event::NodeRestarted {
            at: self.now,
            node: id,
        });
        true
    }

    /// Ids of currently crashed (restartable) nodes, ascending.
    pub fn crashed_ids(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.crashed.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Kills a uniformly random fraction `f` of nodes at once (§6.7).
    /// Returns how many died.
    pub fn kill_fraction(&mut self, f: f64) -> usize {
        let mut ids = self.sorted_ids.clone();
        let n = ((ids.len() as f64) * f.clamp(0.0, 1.0)).round() as usize;
        for _ in 0..n {
            let i = self.rng.gen_range(0..ids.len());
            let id = ids.swap_remove(i);
            self.kill(id);
        }
        n
    }

    /// One churn step (§6.6): a fraction `f` of nodes leave ungracefully and
    /// the same number re-enter *under fresh identities* at new uniform
    /// positions drawn from `placement`.
    pub fn churn_step(&mut self, f: f64, placement: &Placement) {
        let died = self.kill_fraction(f);
        for i in 0..died {
            let point = placement.draw(&self.space, i, &mut self.rng);
            self.add_node(point);
        }
    }

    /// Point-in-time health reading of both gossip layers across the alive
    /// population: `(random, semantic)`. Complements the per-round
    /// [`Event::GossipRound`] stream with an on-demand aggregate that needs
    /// no observer installed. Empty readings (gossip disabled) are all-zero.
    pub fn gossip_health(&self) -> (GossipHealth, GossipHealth) {
        let stacks = self.nodes.values().filter_map(|n| n.host.gossip());
        GossipHealth::total(stacks.map(GossipStack::health))
    }

    /// Per-node dispatched-message counts (Fig. 9's load metric).
    pub fn load_histogram(&self) -> LoadHistogram {
        LoadHistogram::new(self.nodes.values().map(|n| n.sent).collect())
    }

    /// Resets per-node message counters (between measurement windows).
    pub fn reset_load(&mut self) {
        for n in self.nodes.values_mut() {
            n.sent = 0;
        }
    }

    /// Per-node routing-table link counts (Fig. 10's metric) as a
    /// *gossip-bounded* node would report them: the `neighborsZero`
    /// contribution is capped by the remaining gossip-cache capacity (the
    /// paper's footnote 4: "for d < 5 the number of neighbors maintained by
    /// each node is bounded by the gossip cache"). Oracle wiring stores the
    /// full `C0` membership for delivery exactness; this view reports what a
    /// live deployment would maintain. A `cache` of `usize::MAX` counts
    /// every link.
    pub fn link_histogram_cache_bounded(&self, cache: usize) -> LoadHistogram {
        LoadHistogram::new(
            self.selections_iter()
                .map(|(_, s)| {
                    let (slots, zero) = (s.routing().slot_count(), s.routing().zero_count());
                    (slots + zero.min(cache.saturating_sub(slots))) as u64
                })
                .collect(),
        )
    }

    /// Total duplicate query receipts across all nodes and queries (the §6
    /// correctness claim is that this is always zero without churn).
    pub fn total_duplicates(&self) -> u64 {
        self.queries.values().map(|t| t.stats.duplicates).sum()
    }

    /// In-flight query records summed over all alive nodes — zero once
    /// every query has drained (the leak metric of the invariant checker).
    pub fn pending_total(&self) -> usize {
        self.selections_iter().map(|(_, s)| s.pending_len()).sum()
    }

    /// Total `T(q)` timeout expirations fired across all alive nodes —
    /// how much of the traversal was rescued by timeouts rather than
    /// replies (always zero on a fault-free static run).
    pub fn timeouts_fired_total(&self) -> u64 {
        self.selections_iter()
            .map(|(_, s)| s.timeouts_fired())
            .sum()
    }

    /// Number of events currently queued — a cheap backlog gauge for
    /// fixed-interval timeline sampling (soak harness); a runaway reading
    /// means deliveries are being scheduled faster than they drain.
    pub fn queued_len(&self) -> usize {
        self.queue.len()
    }

    /// Iterates tracked query stats (internal: invariant checking).
    pub(crate) fn queries_iter(&self) -> impl Iterator<Item = (&QueryId, &QueryStats)> {
        self.queries.iter().map(|(id, t)| (id, &t.stats))
    }

    /// Iterates alive nodes' protocol state (internal: invariant checking).
    pub(crate) fn selections_iter(&self) -> impl Iterator<Item = (NodeId, &SelectionNode)> {
        self.nodes.iter().map(|(id, n)| (id, n.host.selection()))
    }

    /// Processes events until the queue is empty (static experiments) —
    /// queries run to completion, no gossip is pending.
    ///
    /// # Panics
    ///
    /// Panics if gossip is enabled (the gossip tick makes the queue
    /// perpetual; use [`run_until`](Self::run_until) instead).
    pub fn run_to_quiescence(&mut self) {
        self.assert_static();
        let Ok(()) = self.run(u64::MAX, |_| Ok::<_, Infallible>(()));
    }

    /// Processes events with firing time ≤ `t`, then advances the clock to
    /// `t`.
    pub fn run_until(&mut self, t: u64) {
        let Ok(()) = self.run(t, |_| Ok::<_, Infallible>(()));
        self.now = self.now.max(t);
    }

    /// [`run_to_quiescence`](Self::run_to_quiescence) with `checker`'s
    /// step invariants asserted after *every* dispatched event and its
    /// quiescence invariants (no leaked pending state, completion) at the
    /// end.
    ///
    /// # Errors
    ///
    /// The first [`InvariantViolation`] found; the cluster is left at the
    /// violating instant for post-mortem inspection.
    ///
    /// # Panics
    ///
    /// Panics if gossip is enabled (see
    /// [`run_to_quiescence`](Self::run_to_quiescence)).
    pub fn run_to_quiescence_checked(
        &mut self,
        checker: &mut InvariantChecker,
    ) -> Result<(), InvariantViolation> {
        self.assert_static();
        self.run(u64::MAX, |sim| checker.check_step(sim))?;
        checker.check_quiescent(self)
    }

    /// [`run_until`](Self::run_until) with `checker`'s step invariants
    /// asserted after every dispatched event (quiescence invariants are
    /// *not* checked — the queue is generally non-empty at `t`).
    ///
    /// # Errors
    ///
    /// The first [`InvariantViolation`] found.
    pub fn run_until_checked(
        &mut self,
        t: u64,
        checker: &mut InvariantChecker,
    ) -> Result<(), InvariantViolation> {
        self.run(t, |sim| checker.check_step(sim))?;
        self.now = self.now.max(t);
        checker.check_step(self)
    }

    fn assert_static(&self) {
        assert!(
            !self.config.gossip_enabled,
            "gossip keeps the queue non-empty; use run_until"
        );
    }

    /// The one event loop: dispatches every event firing at or before `t`,
    /// in `(at, seq)` order, and calls `step` after each.
    fn run<E>(&mut self, t: u64, mut step: impl FnMut(&Self) -> Result<(), E>) -> Result<(), E> {
        while self.queue.peek().is_some_and(|ev| ev.at <= t) {
            let ev = self.queue.pop().expect("peeked");
            self.now = self.now.max(ev.at);
            self.dispatch(ev.kind);
            step(self)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Exploration API: the explorer's control over the event queue.
    //
    // `dispatch` already tolerates *any* dispatch order — it advances the
    // clock with `now = now.max(ev.at)`, so dispatching a later-scheduled
    // event first simply models an adversarially slow network for the
    // others. These hooks expose that freedom to the `explore` model
    // checker without touching the default `(at, seq)` pop order (whose
    // digests are pinned).
    // ------------------------------------------------------------------

    /// Snapshot of every queued event, ascending `(at, seq)`: index 0 is
    /// what [`run_to_quiescence`](Self::run_to_quiescence) would dispatch
    /// next. `seq` handles are only valid until the queue next changes;
    /// [`EventKey`]s are stable across re-executions of the same scenario.
    pub fn queued_events(&self) -> Vec<QueuedEvent> {
        let mut out: Vec<QueuedEvent> = self
            .queue
            .iter()
            .map(|ev| QueuedEvent {
                at: ev.at,
                seq: ev.seq,
                key: EventKey::of(ev),
            })
            .collect();
        out.sort_unstable_by_key(|e| (e.at, e.seq));
        out
    }

    /// Removes the event with handle `seq` from the queue (O(queue) — the
    /// exploration scenarios this serves are a handful of nodes).
    fn take_queued(&mut self, seq: u64) -> Option<ScheduledEvent> {
        let mut events = std::mem::take(&mut self.queue).into_vec();
        let taken = events
            .iter()
            .position(|e| e.seq == seq)
            .map(|i| events.swap_remove(i));
        self.queue = events.into();
        taken
    }

    /// Dispatches the queued event with handle `seq` *now*, regardless of
    /// its position in the default order. Returns `false` if no queued
    /// event has that handle. Virtual time never rewinds: a dispatched
    /// event fires at `max(now, its scheduled time)`.
    pub(crate) fn dispatch_queued(&mut self, seq: u64) -> bool {
        let Some(ev) = self.take_queued(seq) else {
            return false;
        };
        self.now = self.now.max(ev.at);
        self.dispatch(ev.kind);
        true
    }

    /// Silently discards the queued event with handle `seq` — a targeted
    /// message loss (choice-point form of the fault plan's random drop).
    /// Returns whether anything was removed.
    pub(crate) fn drop_queued(&mut self, seq: u64) -> bool {
        self.take_queued(seq).is_some()
    }

    /// Enqueues a second copy of the event with handle `seq` at the same
    /// firing time — a targeted duplication. Returns the copy's handle,
    /// or `None` if `seq` is not queued. The copy shares the original's
    /// [`EventKey`].
    pub(crate) fn duplicate_queued(&mut self, seq: u64) -> Option<u64> {
        let (at, kind) = {
            let ev = self.queue.iter().find(|e| e.seq == seq)?;
            (ev.at, ev.kind.clone())
        };
        self.seq += 1;
        let copy = self.seq;
        self.queue.push(ScheduledEvent {
            at,
            seq: copy,
            kind,
        });
        Some(copy)
    }

    /// FNV-1a digest of everything that determines the cluster's future
    /// behaviour *and* its invariant verdicts: virtual time, every node's
    /// [`SelectionNode::state_fingerprint`], the queue's logical contents,
    /// and all tracked query accounting. Two states with equal hashes
    /// behave identically under identical further choices — the pruning
    /// predicate of the [`explore`](crate::explore) explorer.
    ///
    /// Deliberately excluded: raw `seq` numbers (schedule-dependent names
    /// for the same logical events) and the RNG (exploration scenarios —
    /// constant latency, no fault plan, no gossip — draw nothing from it
    /// after setup; anything else would make equal hashes meaningless).
    pub fn state_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = Fnv64::new();
        h.word(self.now);
        h.word(self.sorted_ids.len() as u64);
        for &id in &self.sorted_ids {
            let n = &self.nodes[&id];
            h.word(id);
            h.word(n.host.selection().state_fingerprint());
            h.word(n.next_poll);
        }
        let mut crashed: Vec<NodeId> = self.crashed.keys().copied().collect();
        crashed.sort_unstable();
        h.word(crashed.len() as u64);
        for id in crashed {
            h.word(id);
        }
        let mut queued: Vec<(u64, EventKey)> =
            self.queue.iter().map(|e| (e.at, EventKey::of(e))).collect();
        queued.sort_unstable();
        h.word(queued.len() as u64);
        for (at, key) in queued {
            h.word(at);
            let mut kh = autosel_core::fasthash::FastHasher::default();
            key.hash(&mut kh);
            h.word(kh.finish());
        }
        let mut qids: Vec<QueryId> = self.queries.keys().copied().collect();
        qids.sort_unstable();
        h.word(qids.len() as u64);
        for qid in qids {
            let st = &self.queries[&qid].stats;
            h.word(qid.origin);
            h.word(u64::from(qid.seq));
            h.word(st.issued_at);
            h.word(u64::from(st.truth));
            h.word(st.sigma.map_or(u64::MAX, u64::from));
            h.word(st.overhead);
            h.word(st.duplicates);
            h.word(st.messages);
            h.word(u64::from(st.completed));
            h.word(st.completed_at.map_or(u64::MAX, |t| t));
            h.word(u64::from(st.reported));
            for set in [&st.matched_reached, &st.receivers] {
                let mut ids: Vec<NodeId> = set.iter().copied().collect();
                ids.sort_unstable();
                h.word(ids.len() as u64);
                for id in ids {
                    h.word(id);
                }
            }
        }
        h.finish()
    }

    /// One alive node's semantic gossip view, in view order (`None` for a
    /// dead node or with gossip disabled). Read-only window for overlay
    /// fingerprints and health checks.
    pub fn semantic_view_of(&self, id: NodeId) -> Option<&epigossip::View<NodeProfile, u64>> {
        self.nodes
            .get(&id)?
            .host
            .gossip()
            .map(|g| g.semantic_view())
    }

    /// One alive node's routing table.
    pub fn routing_of(&self, id: NodeId) -> Option<&autosel_core::RoutingTable> {
        self.nodes.get(&id).map(|n| n.host.selection().routing())
    }

    /// Direct mutable access to one node's protocol state machine.
    ///
    /// Test-harness plumbing (mutation hooks, hand-crafted state setups) —
    /// not part of the simulation API proper; the simulator owns these
    /// nodes and production drivers must go through messages.
    #[doc(hidden)]
    pub fn selection_mut(&mut self, id: NodeId) -> Option<&mut SelectionNode> {
        self.nodes.get_mut(&id).map(|n| n.host.selection_mut())
    }

    fn schedule(&mut self, at: u64, kind: EventKind) {
        self.seq += 1;
        self.queue.push(ScheduledEvent {
            at,
            seq: self.seq,
            kind,
        });
    }

    fn send(&mut self, from: NodeId, to: NodeId, payload: Arc<NetMessage>) {
        if let Some(n) = self.nodes.get_mut(&from) {
            n.sent += 1;
        }
        if let NetMessage::Protocol(msg) = payload.as_ref() {
            if let Some(t) = self.queries.get_mut(&msg.query_id()) {
                t.stats.messages += 1;
            }
        }
        let base = self.config.latency.sample_link(from, to, &mut self.rng);
        let protocol = matches!(*payload, NetMessage::Protocol(_));
        // The single fault-injection boundary: the plan turns one send into
        // zero (dropped / partitioned), one, or several (duplicated)
        // deliveries, each with its own delay.
        let mut deliveries = std::mem::take(&mut self.delivery_scratch);
        self.faults.deliveries_into(
            self.now,
            from,
            to,
            protocol,
            base,
            &mut self.rng,
            &mut deliveries,
        );
        match deliveries.first() {
            None => {}
            Some(&first) if protocol && !self.nodes.contains_key(&to) => {
                // Dead destination: the connection attempt fails after one
                // latency sample and the sender skips the broken link.
                self.schedule(
                    self.now + first,
                    EventKind::SendFailed {
                        node: from,
                        peer: to,
                    },
                );
            }
            Some(_) => {
                // Every delivery but the last shares the payload; the last
                // takes it.
                let (&last, copies) = deliveries.split_last().expect("non-empty");
                for &d in copies {
                    let payload = payload.clone();
                    self.schedule(self.now + d, EventKind::Deliver { from, to, payload });
                }
                self.schedule(self.now + last, EventKind::Deliver { from, to, payload });
            }
        }
        self.delivery_scratch = deliveries;
    }

    /// Routes what one host call of `from` left in `outputs`, in order:
    /// sends go on the network, completions into the query's stats.
    fn route(&mut self, from: NodeId) {
        let mut outputs = std::mem::take(&mut self.outputs);
        for output in outputs.drain(..) {
            let (to, msg) = match output {
                Output::Send { to, msg } => (to, NetMessage::Protocol(msg)),
                Output::Gossip { to, msg } => (to, NetMessage::Gossip(msg)),
                Output::Completed { id, matches, count } => {
                    // A forgotten query's late completion is not recorded.
                    if let Some(t) = self.queries.get_mut(&id) {
                        t.stats.completed = true;
                        t.stats.completed_at = Some(self.now);
                        t.stats.reported = count as u32;
                        t.result = Some(matches);
                    }
                    continue;
                }
            };
            self.send(from, to, Arc::new(msg));
        }
        self.outputs = outputs;
    }

    /// Runs one call on `node`'s host, if it is alive, and routes what it
    /// produced.
    fn drive(
        &mut self,
        node: NodeId,
        call: impl FnOnce(&mut Host, u64, &mut StdRng, &mut Vec<Output>),
    ) {
        let Some(n) = self.nodes.get_mut(&node) else {
            return;
        };
        call(&mut n.host, self.now, &mut self.rng, &mut self.outputs);
        self.route(node);
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Deliver { from, to, payload } => {
                if !self.nodes.contains_key(&to) {
                    return; // dead receiver: message dropped (§6.6)
                }
                self.record_receipt(to, &payload);
                let protocol = matches!(*payload, NetMessage::Protocol(_));
                // Sole owner in the common (non-duplicated) case: unwrap
                // without copying.
                let msg = Arc::try_unwrap(payload).unwrap_or_else(|a| (*a).clone());
                self.drive(to, |h, now, rng, out| h.deliver(from, msg, now, rng, out));
                if protocol {
                    // Ensure a timeout poll is scheduled for new waits.
                    self.schedule_timeout_poll(to);
                }
            }
            EventKind::GossipTick { node } => {
                let stack = self.nodes.get(&node).and_then(|n| n.host.gossip());
                if stack.is_none_or(|g| self.now < g.next_gossip_at()) {
                    // A dead node's chain, or a crashed incarnation's:
                    // `restart` started a fresh one, and a live chain fires
                    // exactly at `next_gossip_at`. Let this one die instead
                    // of rescheduling it (and re-syncing routing) forever.
                    return;
                }
                self.drive(node, |h, now, rng, out| h.gossip_tick(now, rng, out));
                // The next tick lands when the stack will gossip next.
                let stack = self.nodes.get(&node).and_then(|n| n.host.gossip());
                if let Some(at) = stack.map(|g| g.next_gossip_at()) {
                    self.schedule(at, EventKind::GossipTick { node });
                }
            }
            EventKind::PollTimeouts { node } => {
                let Some(n) = self.nodes.get_mut(&node) else {
                    return;
                };
                n.next_poll = u64::MAX;
                n.host.poll_timeouts(self.now, &mut self.outputs);
                // The next poll is queued before this one's sends.
                self.schedule_timeout_poll(node);
                self.route(node);
            }
            EventKind::SendFailed { node, peer } => {
                self.drive(node, |h, now, _, out| h.unreachable(peer, now, out));
                // Skipping the dead subtree may have re-forwarded the query
                // to fresh peers with fresh deadlines.
                self.schedule_timeout_poll(node);
            }
            EventKind::NodeFault { node, kind } => match kind {
                NodeEventKind::Crash => self.crash(node),
                NodeEventKind::Restart => {
                    self.restart(node);
                }
            },
        }
    }

    /// Schedules a timeout poll covering `node`'s earliest reply deadline,
    /// if it is waiting on anyone. Called after every mutation that can add
    /// `waiting` entries — without this, a query whose replies are all
    /// lost would strand its pending state forever (the leak
    /// [`InvariantChecker`] exists to catch).
    fn schedule_timeout_poll(&mut self, node: NodeId) {
        let at = {
            let Some(n) = self.nodes.get_mut(&node) else {
                return;
            };
            let Some(at) = n.host.selection().next_timeout() else {
                return;
            };
            let at = at.max(self.now + 1);
            // An earlier-or-equal poll is already queued and will cover this
            // deadline (it reschedules itself) — skip the redundant event.
            if n.next_poll <= at {
                return;
            }
            n.next_poll = at;
            at
        };
        self.schedule(at, EventKind::PollTimeouts { node });
    }

    fn record_receipt(&mut self, to: NodeId, msg: &NetMessage) {
        let NetMessage::Protocol(Message::Query(q)) = msg else {
            return;
        };
        let Some(Tracked { stats, query, .. }) = self.queries.get_mut(&q.id) else {
            return;
        };
        if !stats.receivers.insert(to) {
            stats.duplicates += 1;
            return;
        }
        let point = self.nodes[&to].host.selection().point();
        if query.matches(point) {
            stats.matched_reached.insert(to);
        } else {
            stats.overhead += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A million-node store pays `SimNode` per node: besides the protocol
    /// state it holds three words (the boxed gossip stack, `sent`,
    /// `next_poll`), so a stack stored inline again fails here.
    #[test]
    fn sim_node_keeps_the_gossip_stack_out_of_line() {
        use std::mem::size_of;
        assert!(size_of::<GossipStack<NodeProfile>>() > 64);
        assert_eq!(size_of::<Option<Box<GossipStack<NodeProfile>>>>(), 8);
        assert!(
            size_of::<SimNode>() <= size_of::<SelectionNode>() + 3 * 8,
            "SimNode grew to {} bytes",
            size_of::<SimNode>()
        );
    }
    use attrspace::Query;

    fn space() -> Space {
        Space::uniform(3, 80, 3).unwrap()
    }

    #[test]
    fn static_query_full_delivery() {
        let s = space();
        let mut sim = SimCluster::new(s.clone(), SimConfig::fast_static(), 1);
        sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, 300);
        sim.wire_oracle();
        let q = Query::builder(&s).min("a0", 40).build().unwrap();
        let origin = sim.random_node();
        let qid = sim.issue_query(origin, q, None);
        sim.run_to_quiescence();
        let st = sim.query_stats(qid).unwrap();
        assert!(st.completed);
        assert_eq!(st.delivery(), 1.0);
        assert_eq!(st.duplicates, 0);
        assert_eq!(st.reported, st.truth);
        assert!(st.truth > 50, "workload sanity");
    }

    #[test]
    fn sigma_limits_messages() {
        let s = space();
        let mut sim = SimCluster::new(s.clone(), SimConfig::fast_static(), 2);
        sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, 500);
        sim.wire_oracle();
        let q = Query::builder(&s).min("a0", 10).build().unwrap();
        let origin = sim.random_node();
        let unbounded = sim.issue_query(origin, q.clone(), None);
        sim.run_to_quiescence();
        let bounded = sim.issue_query(origin, q, Some(10));
        sim.run_to_quiescence();
        let mu = sim.query_stats(unbounded).unwrap().messages;
        let mb = sim.query_stats(bounded).unwrap().messages;
        assert!(sim.query_stats(bounded).unwrap().reported >= 10);
        assert!(mb * 3 < mu, "σ=10 used {mb} msgs vs {mu} unbounded");
    }

    #[test]
    fn kill_fraction_counts() {
        let s = space();
        let mut sim = SimCluster::new(s, SimConfig::fast_static(), 3);
        sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, 200);
        let died = sim.kill_fraction(0.5);
        assert_eq!(died, 100);
        assert_eq!(sim.len(), 100);
    }

    /// Every join and leave path keeps the ground-truth index equal to the
    /// alive population: after each one, issued queries record the count a
    /// scan over `node_ids()` × `point_of` gives, and the index holds no
    /// cell without a node in it.
    #[test]
    fn truth_follows_every_membership_change() {
        let s = space();
        let placement = Placement::Uniform { lo: 0, hi: 100 };
        let mut sim = SimCluster::new(s.clone(), SimConfig::fast_static(), 9);
        let queries = [
            Query::builder(&s).build().unwrap(),
            Query::builder(&s).min("a0", 40).build().unwrap(),
            Query::builder(&s)
                .range("a0", 13, 57)
                .max("a2", 71)
                .build()
                .unwrap(),
            Query::builder(&s)
                .min("a1", 85)
                .range("a2", 20, 29)
                .build()
                .unwrap(),
        ];
        let check = |sim: &mut SimCluster, after: &str| {
            for q in &queries {
                let scan = sim
                    .node_ids()
                    .iter()
                    .filter(|&&id| q.matches(sim.point_of(id).expect("alive")))
                    .count();
                let origin = sim.random_node();
                let qid = sim.issue_query(origin, q.clone(), Some(5));
                let cid = sim.issue(origin, QueryRequest::count(q.clone()));
                for id in [qid, cid] {
                    assert_eq!(
                        sim.query_stats(id).unwrap().truth as usize,
                        scan,
                        "{after}: {q}"
                    );
                    sim.forget_query(id);
                }
                sim.run_to_quiescence();
            }
            let bound = sim.len() * s.max_level() as usize + 1;
            assert!(
                sim.truth_index.cells() <= bound,
                "{after}: empty cells were kept"
            );
        };

        sim.populate(&placement, 400);
        check(&mut sim, "populate");
        sim.kill(7);
        sim.kill(7); // already gone: a no-op
        check(&mut sim, "kill");
        sim.crash(11);
        sim.crash(12); // stays down
        check(&mut sim, "crash");
        assert!(sim.restart(11));
        check(&mut sim, "restart");
        sim.kill_fraction(0.5);
        check(&mut sim, "kill_fraction");
        for _ in 0..20 {
            sim.churn_step(0.2, &placement);
        }
        check(&mut sim, "churn_step");
        sim.kill_fraction(1.0);
        assert_eq!(
            sim.truth_index.cells(),
            1,
            "an empty cluster indexes nothing"
        );
    }

    #[test]
    #[allow(clippy::disallowed_types)] // std-collections: test code; std sets only compare contents
    fn churn_preserves_population_and_refreshes_ids() {
        let s = space();
        let mut sim = SimCluster::new(s, SimConfig::default(), 4);
        sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, 100);
        let before: std::collections::HashSet<NodeId> = sim.node_ids().iter().copied().collect();
        sim.churn_step(0.1, &Placement::Uniform { lo: 0, hi: 80 });
        assert_eq!(sim.len(), 100);
        let after: std::collections::HashSet<NodeId> = sim.node_ids().iter().copied().collect();
        assert_eq!(after.difference(&before).count(), 10, "10 fresh identities");
    }

    #[test]
    fn gossip_converges_routing_tables() {
        let s = Space::uniform(2, 80, 2).unwrap();
        let mut cfg = SimConfig {
            latency: crate::LatencyModel::Constant { ms: 20 },
            ..SimConfig::default()
        };
        cfg.gossip.period_ms = 1_000;
        let mut sim = SimCluster::new(s.clone(), cfg, 5);
        sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, 60);
        sim.run_until(40_000); // 40 gossip rounds
        let q = Query::builder(&s).min("a0", 40).build().unwrap();
        let origin = sim.random_node();
        let qid = sim.issue_query(origin, q, None);
        sim.run_until(sim.now() + 30_000);
        let st = sim.query_stats(qid).unwrap();
        assert!(
            st.delivery() > 0.9,
            "gossip-built routing reached only {:.2}",
            st.delivery()
        );
    }

    #[test]
    fn count_queries_report_exact_totals_cheaply() {
        let s = space();
        let mut sim = SimCluster::new(s.clone(), SimConfig::fast_static(), 8);
        sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, 400);
        sim.wire_oracle();
        let q = Query::builder(&s).min("a0", 40).build().unwrap();

        let origin = sim.random_node();
        let enumerate = sim.issue_query(origin, q.clone(), None);
        sim.run_to_quiescence();
        let full = sim.query_stats(enumerate).unwrap().reported;

        let count = sim.issue(origin, QueryRequest::count(q));
        sim.run_to_quiescence();
        let st = sim.query_stats(count).unwrap();
        assert_eq!(st.reported, full, "count mode agrees with enumeration");
        assert!(
            sim.query_result(count).unwrap().is_empty(),
            "no match lists"
        );
        assert_eq!(st.duplicates, 0);
    }

    #[test]
    fn a_forgotten_query_leaves_no_record_when_it_completes() {
        let s = space();
        let mut sim = SimCluster::new(s.clone(), SimConfig::fast_static(), 10);
        sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, 200);
        sim.wire_oracle();
        let q = Query::builder(&s).min("a0", 40).build().unwrap();
        let origin = sim.random_node();
        let qid = sim.issue_query(origin, q, None);
        sim.forget_query(qid);
        sim.run_to_quiescence();
        assert!(
            sim.query_result(qid).is_none(),
            "late completion re-entered the result map"
        );
        assert!(sim.query_stats(qid).is_none());
        assert!(sim.queries.is_empty());
    }

    /// A 3-node oracle-wired line with one in-flight query, for the
    /// exploration-API tests.
    fn explore_fixture() -> (SimCluster, QueryId) {
        let s = Space::uniform(2, 80, 3).unwrap();
        let mut sim = SimCluster::new(s.clone(), SimConfig::fast_static(), 7);
        for vals in [[5u64, 5], [70, 5], [70, 70]] {
            sim.add_node(s.point(&vals).unwrap());
        }
        sim.wire_oracle();
        let q = Query::builder(&s).min("a0", 60).build().unwrap();
        let qid = sim.issue_query(0, q, None);
        (sim, qid)
    }

    #[test]
    fn queued_events_expose_stable_keys_and_handles() {
        let (sim, qid) = explore_fixture();
        let queued = sim.queued_events();
        assert!(!queued.is_empty());
        // The one interesting event: A's QUERY in flight to B.
        let deliver = queued
            .iter()
            .find(|e| e.key.is_deliver())
            .expect("query in flight");
        assert_eq!(
            deliver.key,
            crate::EventKey::Deliver {
                from: 0,
                to: 1,
                query: Some(qid),
                reply: false,
                attempt: 1
            }
        );
        assert_eq!(deliver.key.target(), 1);
        // Re-executing the same scenario yields the same keys even though
        // seq handles are an implementation detail.
        let (again, _) = explore_fixture();
        let keys: Vec<_> = sim.queued_events().iter().map(|e| e.key).collect();
        let keys2: Vec<_> = again.queued_events().iter().map(|e| e.key).collect();
        assert_eq!(keys, keys2);
    }

    #[test]
    fn dispatch_drop_duplicate_surgery() {
        let (mut sim, qid) = explore_fixture();
        let deliver = *sim
            .queued_events()
            .iter()
            .find(|e| e.key.is_deliver())
            .expect("query in flight");
        // Unknown handles are refused.
        assert!(!sim.dispatch_queued(u64::MAX));
        assert!(sim.duplicate_queued(u64::MAX).is_none());
        // Duplicate: the copy shares the key, and dropping the original
        // still leaves the copy deliverable.
        let copy = sim.duplicate_queued(deliver.seq).expect("queued");
        assert_ne!(copy, deliver.seq);
        assert!(sim.drop_queued(deliver.seq));
        assert!(!sim.drop_queued(deliver.seq), "already removed");
        assert!(sim.dispatch_queued(copy));
        sim.run_to_quiescence();
        let st = sim.query_stats(qid).unwrap();
        assert!(st.completed, "query survives drop of a duplicated delivery");
    }

    #[test]
    fn state_hash_tracks_logical_state_not_history() {
        let (sim, _) = explore_fixture();
        let (other, _) = explore_fixture();
        assert_eq!(
            sim.state_hash(),
            other.state_hash(),
            "identical builds hash equal"
        );
        let mut done = explore_fixture().0;
        done.run_to_quiescence();
        assert_ne!(
            sim.state_hash(),
            done.state_hash(),
            "progress changes the hash"
        );
    }

    #[test]
    fn load_and_link_histograms_cover_all_nodes() {
        let s = space();
        let mut sim = SimCluster::new(s.clone(), SimConfig::fast_static(), 6);
        sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, 100);
        sim.wire_oracle();
        let q = Query::builder(&s).build().unwrap();
        let origin = sim.random_node();
        sim.issue_query(origin, q, None);
        sim.run_to_quiescence();
        assert_eq!(sim.load_histogram().len(), 100);
        assert!(sim.load_histogram().max() > 0);
        assert!(sim.link_histogram_cache_bounded(usize::MAX).mean() > 1.0);
        sim.reset_load();
        assert_eq!(sim.load_histogram().max(), 0);
    }
}
