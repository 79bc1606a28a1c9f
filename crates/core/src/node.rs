// This file defines protocol invariants: every panic site states the
// invariant it relies on (`expect`), tests included.
#![warn(clippy::unwrap_used)]

use crate::fasthash::{FastMap, FastSet};
use std::cell::RefCell;
use std::sync::Arc;

use attrspace::{CellCoord, Level, Point, Query, Space};
use autosel_obs::{Event, ObsHandle, QueryRef};
use epigossip::{NodeId, View};
use rand::Rng;

use crate::match_list::Segment;
use crate::messages::all_dims;
use crate::{
    DynamicConstraint, Match, MatchList, Message, NodeProfile, QueryId, QueryMsg, ReplyMsg,
    RoutingTable,
};

/// Protocol tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// How long to wait for a REPLY from a neighbor before presuming it dead
    /// and continuing the traversal without its subtree (the paper's `T(q)`).
    pub query_timeout_ms: u64,
    /// Enables the `C0` epidemic relay (§4.1: nodes of a lowest-level cell
    /// "broadcast a message to each of them, for example through an epidemic
    /// protocol"): leaf receivers re-forward the query to same-cell mates
    /// the sender did not know, using the message's `visited_zero` set for
    /// deduplication. Off by default — with converged views and the paper's
    /// sparse cells every mate is already known to the fanning-out node.
    pub c0_relay: bool,
    /// How many concluded queries keep their final REPLY cached for
    /// retransmission. A duplicate QUERY arriving *after* this node already
    /// answered is met with a cached copy of the real reply instead of an
    /// empty dedup-reply, which makes upstream retries idempotent: the
    /// retransmitted copy either fresh-merges (the original was lost) or is
    /// dropped as stale by its attempt id. Evicted FIFO; `0` disables the
    /// cache (duplicates of concluded queries then answer empty).
    ///
    /// An entry costs a few words, not a copy of the reply: it shares the
    /// sent REPLY's [`MatchList`], which the upstream's own list shares in
    /// turn, so the cache holds each match of a query once however many
    /// nodes along its reply path keep the query cached.
    pub reply_cache: usize,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            query_timeout_ms: 5_000,
            c0_relay: false,
            reply_cache: 32,
        }
    }
}

/// An effect produced by the protocol state machine. The driver (simulator
/// or network runtime) interprets these.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Transmit `msg` to `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message to deliver.
        msg: Message,
    },
    /// A query issued *by this node* finished with these matches.
    Completed {
        /// The locally-issued query.
        id: QueryId,
        /// All matches collected (may exceed `σ` slightly; never misses a
        /// reported match). Empty in count-only mode.
        matches: Vec<Match>,
        /// Total matches found (the whole answer in count-only mode).
        count: u64,
    },
    /// A neighbor failed to answer within the timeout; the driver should
    /// also evict it from the gossip layers.
    NeighborFailed(
        /// The unresponsive peer.
        NodeId,
    ),
}

/// Per-query in-flight state: the paper's `pending`, `matching` and
/// `waiting` tables collapsed into one record (they are always indexed by
/// the same query id).
///
/// Records live boxed, and a concluded one goes back to its thread's
/// pool ([`PendingQuery::recycle`]) instead of staying with the node that
/// served it: a node keeps only the records of its in-flight queries.
#[derive(Debug, Default)]
struct PendingQuery {
    /// Shared with every [`QueryMsg`] this node forwards for the query;
    /// `None` only while the record sits in the pool.
    query: Option<Arc<Query>>,
    /// Constraints on dynamic attributes, checked locally (footnote 1).
    dynamic: Vec<DynamicConstraint>,
    sigma: Option<u32>,
    /// Exploration frontier: highest level still to scan; `-1` = exhausted.
    level: i8,
    /// Dimensions still explorable at `level` (bitmask).
    dims: u32,
    /// Upstream node to answer, or `None` when this node is the originator.
    reply_to: Option<NodeId>,
    /// Count-only queries aggregate here instead of collecting matches.
    count_only: bool,
    count: u64,
    /// This node's answer so far, in merge order: its own match and each
    /// child list, shared whole when none of its ids was already here.
    matching: Vec<Segment>,
    matched_ids: FastSet<NodeId>,
    /// The attempt id to echo upstream in the final REPLY — the one carried
    /// by the QUERY that created this record, refreshed if the same
    /// upstream re-delivers with a newer attempt while we are in flight.
    attempt: u32,
    /// Next attempt id to stamp on a forward of this query (starts at 1;
    /// `0` is the origin's self-delivery and never appears on the wire).
    next_attempt: u32,
    /// Peers queried but not yet answered, with their reply deadline and
    /// the attempt id their reply must echo to merge fresh.
    waiting: FastMap<NodeId, (u64, u32)>,
    /// `C0` neighbors already contacted (never re-sent on re-forwarding).
    contacted_zero: FastSet<NodeId>,
    /// `C0` members known (from the message) to have been visited already —
    /// the deduplication set of the optional epidemic relay.
    visited_zero: FastSet<NodeId>,
}

/// How many emptied records one thread keeps for reuse. A thread serves
/// its nodes' queries one message at a time, and each message concludes
/// at most one query, so a small pool stays hot however many nodes the
/// thread drives.
const POOLED_RECORDS: usize = 64;

thread_local! {
    /// Emptied [`PendingQuery`] records of the nodes this thread drives.
    /// A record bundles six containers (constraint and match lists, three
    /// id sets, the waiting table) that churn once per query per hop;
    /// reusing them keeps their capacity warm instead of round-tripping
    /// the allocator, and one pool per thread, not per node, keeps that
    /// capacity off the nodes that are idle. The boxes are the records
    /// themselves: they move between this pool and the pending tables
    /// without a copy.
    #[allow(clippy::vec_box)]
    static RECORDS: RefCell<Vec<Box<PendingQuery>>> = const { RefCell::new(Vec::new()) };
}

impl PendingQuery {
    /// An empty record: a pooled one when this thread has one.
    fn take() -> Box<PendingQuery> {
        RECORDS
            .with(|pool| pool.borrow_mut().pop())
            .unwrap_or_default()
    }

    /// Empties a concluded record — including its query, so nothing of the
    /// query outlives its conclusion — and returns it to this thread's
    /// pool, or frees it when the pool is full.
    fn recycle(mut self: Box<Self>) {
        self.query = None;
        self.dynamic.clear();
        self.matching.clear();
        self.matched_ids.clear();
        self.waiting.clear();
        self.contacted_zero.clear();
        self.visited_zero.clear();
        RECORDS.with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < POOLED_RECORDS {
                pool.push(self);
            }
        });
    }

    fn sigma_met(&self) -> bool {
        self.sigma.is_some_and(|s| self.count >= u64::from(s))
    }

    /// Adds this node's own match.
    fn add_own_match(&mut self, m: Match) {
        if self.count_only {
            // Exactly-once traversal: disjoint subtrees never double-count,
            // so no id set is needed (duplicated deliveries answer empty).
            self.count += 1;
        } else if self.matched_ids.insert(m.node) {
            self.matching.push(Segment::One(m));
            self.count += 1;
        }
    }

    /// Merges a REPLY's subtree answer. `fresh` says the reply is the one
    /// awaited for its forward (see [`SelectionNode::accept_reply`]).
    fn merge_reply(&mut self, count: u64, matching: MatchList, fresh: bool) {
        if self.count_only {
            // Counts carry no node identity, so the attempt-tagged waiting
            // entry is the only witness of "not yet merged": each attempt
            // id is added at most once, no matter how many copies of the
            // reply arrive. Enumerate mode is naturally immune —
            // `matched_ids` dedups.
            if fresh {
                self.count += count;
            }
        } else {
            self.merge_matches(matching);
        }
    }

    /// Merges a REPLY's matches (enumerate mode): every id not yet matched
    /// here is added once, in list order. A list whose ids are all new is
    /// kept whole — one reference count, not a copy; any other list has
    /// its new matches copied one by one.
    fn merge_matches(&mut self, list: MatchList) {
        let mut all_new = true;
        for (i, m) in list.iter().enumerate() {
            let new = self.matched_ids.insert(m.node);
            if new {
                self.count += 1;
            }
            if all_new && !new {
                // The first id already here: copy the new prefix, then go
                // on element by element.
                all_new = false;
                self.matching
                    .extend(list.iter().take(i).cloned().map(Segment::One));
            } else if !all_new && new {
                self.matching.push(Segment::One(m.clone()));
            }
        }
        if all_new && !list.is_empty() {
            self.matching.push(Segment::List(list));
        }
    }
}

/// A concluded query's final answer, kept for retransmission to late
/// duplicate QUERY deliveries (see [`ProtocolConfig::reply_cache`]).
#[derive(Debug)]
struct CachedReply {
    id: QueryId,
    /// The upstream the original REPLY went to — the only peer whose
    /// duplicates are answered from the cache (any other asker is a
    /// cross-path delivery whose subtree accounting we must not feed).
    to: NodeId,
    /// The sent REPLY's list itself, not a copy of it.
    matching: MatchList,
    count: u64,
}

/// The set of query ids a node has ever accepted, kept as 64-id blocks:
/// key `(origin, seq / 64)`, bit `seq % 64`. Origins number their queries
/// densely from 0, so one 24-byte entry stands for up to 64 ids where a
/// plain id set spends about 20 bytes on each (a block holding a single
/// id costs a little more than before). The set is never pruned —
/// duplicates must be recognised for a node's whole life — so this factor
/// is what a node's memory grows by per query it relays.
#[derive(Debug, Default)]
struct SeenSet {
    blocks: FastMap<(NodeId, u32), u64>,
}

impl SeenSet {
    fn contains(&self, id: QueryId) -> bool {
        self.blocks
            .get(&(id.origin, id.seq / 64))
            .is_some_and(|bits| bits & (1u64 << (id.seq % 64)) != 0)
    }

    fn insert(&mut self, id: QueryId) {
        *self.blocks.entry((id.origin, id.seq / 64)).or_insert(0) |= 1u64 << (id.seq % 64);
    }

    /// Every member in ascending `(origin, seq)` order — the enumeration
    /// [`SelectionNode::state_fingerprint`] hashes, the same one a sorted
    /// plain id set gives.
    fn sorted(&self) -> Vec<QueryId> {
        let mut keys: Vec<(NodeId, u32)> = self.blocks.keys().copied().collect();
        keys.sort_unstable();
        let mut out = Vec::new();
        for (origin, block) in keys {
            let mut bits = self.blocks[&(origin, block)];
            while bits != 0 {
                out.push(QueryId {
                    origin,
                    seq: block * 64 + bits.trailing_zeros(),
                });
                bits &= bits - 1;
            }
        }
        out
    }
}

/// A resource-selection node: one compute resource representing itself in
/// the overlay (§4.3, Fig. 5).
///
/// Sans-IO: all methods take the current time and return [`Output`]s; the
/// caller delivers messages and schedules [`poll_timeouts`](Self::poll_timeouts).
#[derive(Debug)]
pub struct SelectionNode {
    id: NodeId,
    space: Space,
    point: Point,
    coord: CellCoord,
    routing: RoutingTable,
    /// Current values of this node's dynamic attributes (footnote 1).
    dynamic: FastMap<u32, attrspace::RawValue>,
    /// Records of the queries in flight here. Boxed, so an idle node's
    /// table is a few pointer-sized slots; the table keeps its capacity
    /// when it empties, because a node goes idle and busy all the time.
    pending: FastMap<QueryId, Box<PendingQuery>>,
    /// Every query id ever accepted — duplicates are never re-processed,
    /// keeping the traversal exactly-once even under retries. While the
    /// query is still pending here the duplicate is *suppressed* (the real
    /// REPLY will answer the upstream); after conclusion it is answered
    /// from [`reply_cache`](Self::reply_cache), or empty on a cache miss.
    seen: SeenSet,
    /// Final replies of recently concluded queries, FIFO-bounded by
    /// [`ProtocolConfig::reply_cache`]: a ring, sized to what it holds,
    /// searched linearly — only a duplicate receipt looks anything up.
    reply_cache: Vec<CachedReply>,
    /// The oldest entry of a full [`reply_cache`](Self::reply_cache): the
    /// next one a conclusion overwrites.
    reply_cache_next: u32,
    config: ProtocolConfig,
    seq: u32,
    duplicate_receipts: u64,
    timeouts_fired: u64,
    /// Test-only fault re-injection: answer duplicates of still-pending
    /// queries with an unconditional empty dedup-reply (the pre-attempt-tag
    /// race). Never set outside analysis harnesses; see
    /// [`inject_empty_dedup_reply_bug`](Self::inject_empty_dedup_reply_bug).
    buggy_empty_dedup_reply: bool,
    /// Observability sink; null by default (one dead branch per emission).
    obs: ObsHandle,
}

/// Bridges a protocol [`QueryId`] to the observability layer's primitive
/// reference (the obs crate sits below this one and knows no protocol
/// types).
fn qref(id: QueryId) -> QueryRef {
    QueryRef::new(id.origin, id.seq)
}

use crate::fasthash::Fnv64 as Fnv;

impl SelectionNode {
    /// Creates a node at `point` with an empty routing table.
    ///
    /// # Panics
    ///
    /// Panics if `point` has the wrong arity for `space` or the space has
    /// more than 32 dimensions (the scope bitmask limit).
    pub fn new(id: NodeId, space: &Space, point: Point, config: ProtocolConfig) -> Self {
        assert!(space.dims() <= 32, "at most 32 dimensions supported");
        let coord = space.cell_coord(&point);
        SelectionNode {
            id,
            space: space.clone(),
            routing: RoutingTable::new(space.clone(), coord.clone()),
            point,
            coord,
            dynamic: FastMap::default(),
            pending: FastMap::default(),
            seen: SeenSet::default(),
            reply_cache: Vec::new(),
            reply_cache_next: 0,
            config,
            seq: 0,
            duplicate_receipts: 0,
            timeouts_fired: 0,
            buggy_empty_dedup_reply: false,
            obs: ObsHandle::null(),
        }
    }

    /// Re-introduces the historical dedup-reply race for mutation testing:
    /// a duplicate QUERY received while the original is still in flight is
    /// answered with an **empty** reply echoing the duplicate's attempt id,
    /// instead of being suppressed. Because a fault-duplicated copy carries
    /// the *live* attempt id, the empty reply fresh-merges upstream and
    /// clears the waiting entry before the real subtree REPLY arrives —
    /// silently discarding that subtree's results.
    ///
    /// This exists so the `autosel-analyze` explorer can prove it detects
    /// the race (the PR-4 regression) within its schedule budget. It is
    /// never enabled by any driver; the flag costs nothing on the hot path
    /// (checked only after the duplicate-receipt branch is already taken).
    #[doc(hidden)]
    pub fn inject_empty_dedup_reply_bug(&mut self) {
        self.buggy_empty_dedup_reply = true;
    }

    /// Installs an observability sink. The default is the null handle;
    /// observers are passive (they never alter protocol behaviour), so this
    /// can be called at any point in a node's life.
    pub fn set_observer(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's attribute values.
    pub fn point(&self) -> &Point {
        &self.point
    }

    /// This node's bucket coordinate.
    pub fn coord(&self) -> &CellCoord {
        &self.coord
    }

    /// The attribute space.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// This node's gossip profile (what it advertises about itself).
    pub fn profile(&self) -> NodeProfile {
        NodeProfile::new(&self.space, self.point.clone())
    }

    /// Read access to the routing table.
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// Mutable access to the routing table (bootstrap / maintenance).
    pub fn routing_mut(&mut self) -> &mut RoutingTable {
        &mut self.routing
    }

    /// Number of duplicate query receipts observed (§6 claims this is always
    /// zero without churn; the simulator asserts it).
    pub fn duplicate_receipts(&self) -> u64 {
        self.duplicate_receipts
    }

    /// Number of queries currently in flight through this node.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Number of `T(q)` expirations this node has fired (each is one
    /// neighbor presumed dead and skipped). Drivers use this to tell
    /// timeout-driven recovery apart from clean traversals.
    ///
    /// A dimensionless event count (not a duration), monotone over the
    /// node's lifetime: it is **never reset** — not by query completion,
    /// not by [`set_point`](Self::set_point) — and only returns to zero
    /// when the node value itself is rebuilt (e.g. a simulated
    /// crash-restart constructs a fresh `SelectionNode`). Each fired
    /// timeout is also emitted as an [`Event::TimeoutFired`] when an
    /// observer is installed.
    pub fn timeouts_fired(&self) -> u64 {
        self.timeouts_fired
    }

    /// The upstream (`reply_to`) edge of every in-flight query; `None`
    /// marks queries this node originated. An external checker can stitch
    /// these per-query edges together cluster-wide and assert the reply
    /// routing forms a forest (acyclic, rooted at originators).
    ///
    /// A point-in-time snapshot in no particular order: each entry exists
    /// only while its query is pending here and disappears when the query
    /// concludes (replied upstream, completed locally, or timed out) —
    /// there is no history and nothing accumulates.
    pub fn pending_upstreams(&self) -> Vec<(QueryId, Option<NodeId>)> {
        self.pending.iter().map(|(&q, p)| (q, p.reply_to)).collect()
    }

    /// A 64-bit FNV-1a digest of this node's complete protocol state —
    /// pending records (scope frontier, counts, waiting map with deadlines
    /// and attempt ids), the duplicate-suppression set, the reply cache,
    /// routing links, and the monotone counters. Two nodes with equal
    /// fingerprints behave identically on every future input (modulo hash
    /// collisions), which is what lets the model checker prune revisited
    /// states soundly.
    ///
    /// Everything order-dependent is serialized in a canonical sorted
    /// order, so the digest is independent of map iteration and of the
    /// schedule that produced the state. Match *lists* are hashed as sorted
    /// id sets: their order varies with merge order but affects no protocol
    /// decision and no checked invariant.
    pub fn state_fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.id);
        h.word(u64::from(self.seq));
        h.word(self.duplicate_receipts);
        h.word(self.timeouts_fired);
        for &v in self.point.values() {
            h.word(v);
        }
        let mut dynamic: Vec<(u32, attrspace::RawValue)> =
            self.dynamic.iter().map(|(&k, &v)| (k, v)).collect();
        dynamic.sort_unstable();
        for (k, v) in dynamic {
            h.word(u64::from(k));
            h.word(v);
        }

        let mut qids: Vec<QueryId> = self.pending.keys().copied().collect();
        qids.sort_unstable();
        h.word(qids.len() as u64);
        for qid in qids {
            let p = &self.pending[&qid];
            h.word(qid.origin);
            h.word(u64::from(qid.seq));
            h.word(p.level as u64);
            h.word(u64::from(p.dims));
            h.word(p.sigma.map_or(u64::MAX, u64::from));
            h.word(p.reply_to.map_or(u64::MAX, |n| n));
            h.word(u64::from(p.count_only));
            h.word(p.count);
            h.word(u64::from(p.attempt));
            h.word(u64::from(p.next_attempt));
            let mut waiting: Vec<(NodeId, u64, u32)> =
                p.waiting.iter().map(|(&n, &(d, a))| (n, d, a)).collect();
            waiting.sort_unstable();
            h.word(waiting.len() as u64);
            for (n, d, a) in waiting {
                h.word(n);
                h.word(d);
                h.word(u64::from(a));
            }
            for set in [&p.matched_ids, &p.contacted_zero, &p.visited_zero] {
                let mut ids: Vec<NodeId> = set.iter().copied().collect();
                ids.sort_unstable();
                h.word(ids.len() as u64);
                for n in ids {
                    h.word(n);
                }
            }
        }

        let seen = self.seen.sorted();
        h.word(seen.len() as u64);
        for qid in seen {
            h.word(qid.origin);
            h.word(u64::from(qid.seq));
        }

        let mut cached: Vec<&CachedReply> = self.reply_cache.iter().collect();
        cached.sort_unstable_by_key(|c| c.id);
        h.word(cached.len() as u64);
        for c in cached {
            h.word(c.id.origin);
            h.word(u64::from(c.id.seq));
            h.word(c.to);
            h.word(c.count);
            let mut ids: Vec<NodeId> = c.matching.iter().map(|m| m.node).collect();
            ids.sort_unstable();
            for n in ids {
                h.word(n);
            }
        }

        for (level, dim, id) in self.routing.filled_slots() {
            h.word(u64::from(level));
            h.word(dim as u64);
            h.word(id);
        }
        for (id, _) in self.routing.zero_neighbors() {
            h.word(id);
        }
        h.finish()
    }

    /// Changes this node's attribute values. The routing table is rebuilt
    /// empty (own cell may have moved) and must be repopulated by gossip —
    /// no registry needs updating, which is the point of the paper.
    pub fn set_point(&mut self, point: Point) {
        self.coord = self.space.cell_coord(&point);
        self.point = point;
        self.routing = RoutingTable::new(self.space.clone(), self.coord.clone());
    }

    /// Sets (or updates) the current value of a dynamic attribute. Dynamic
    /// attributes are never gossiped or routed on; queries carrying a
    /// [`DynamicConstraint`] check them locally at match time (footnote 1).
    pub fn set_dynamic(&mut self, key: u32, value: attrspace::RawValue) {
        self.dynamic.insert(key, value);
    }

    /// Whether this node currently satisfies `query` plus the given dynamic
    /// constraints.
    fn matches_fully(&self, query: &Query, dynamic: &[DynamicConstraint]) -> bool {
        query.matches(&self.point)
            && dynamic
                .iter()
                .all(|c| c.satisfied_by(self.dynamic.get(&c.key).copied()))
    }

    /// Rebuilds the routing table from a gossip semantic view. `now` is
    /// only used to timestamp the [`Event::ViewChange`] emission; the
    /// rebuild itself is time-independent.
    pub fn sync_from_view<R: Rng + ?Sized>(
        &mut self,
        view: &View<NodeProfile>,
        now: u64,
        rng: &mut R,
    ) {
        // Peers are classified from their profiles' inline cell codes.
        let (own, code) = (&self.coord, self.coord.code());
        let changed = self.routing.rebuild(
            view.iter().map(|d| {
                let class = own.classify_coded(code, d.profile.coord(), d.profile.code());
                (d.id, d.profile.point(), class)
            }),
            rng,
        );
        self.obs.emit(|| Event::ViewChange {
            at: now,
            node: self.id,
            links: self.routing.link_count() as u32,
            zero: (self.routing.total_slots() - self.routing.slot_count()) as u32,
            changed: changed as u32,
        });
    }

    /// Issues a new query from this node (the paper's `create_QUERY`): the
    /// user contacts *any* node and passes the query to it.
    ///
    /// Returns the query id and the initial outputs (forwarded messages, or
    /// an immediate [`Output::Completed`] if this node alone satisfies it).
    pub fn begin_query(
        &mut self,
        query: Query,
        sigma: Option<u32>,
        now: u64,
    ) -> (QueryId, Vec<Output>) {
        self.begin_query_full(query, Vec::new(), sigma, now)
    }

    /// Like [`begin_query`](Self::begin_query) with additional constraints
    /// on dynamic attributes, checked locally by every candidate
    /// (footnote 1 of the paper).
    pub fn begin_query_full(
        &mut self,
        query: Query,
        dynamic: Vec<DynamicConstraint>,
        sigma: Option<u32>,
        now: u64,
    ) -> (QueryId, Vec<Output>) {
        self.begin(query, dynamic, sigma, false, now)
    }

    /// Issues a *count-only* query: the traversal is identical, but replies
    /// aggregate a single integer per subtree instead of carrying match
    /// lists — constant-size replies, exact counts (§2's Astrolabe
    /// comparison: this overlay both counts and enumerates).
    pub fn begin_count_query(
        &mut self,
        query: Query,
        dynamic: Vec<DynamicConstraint>,
        now: u64,
    ) -> (QueryId, Vec<Output>) {
        self.begin(query, dynamic, None, true, now)
    }

    fn begin(
        &mut self,
        query: Query,
        dynamic: Vec<DynamicConstraint>,
        sigma: Option<u32>,
        count_only: bool,
        now: u64,
    ) -> (QueryId, Vec<Output>) {
        let id = QueryId {
            origin: self.id,
            seq: self.seq,
        };
        self.seq += 1;
        let msg = QueryMsg {
            id,
            query: Arc::new(query),
            sigma,
            level: self.space.max_level() as i8,
            dims: all_dims(self.space.dims()),
            dynamic,
            count_only,
            visited_zero: Vec::new(),
            attempt: 0,
        };
        let out = self.accept_query(None, msg, now);
        (id, out)
    }

    /// Processes an incoming protocol message.
    pub fn handle_message(&mut self, from: NodeId, msg: Message, now: u64) -> Vec<Output> {
        match msg {
            Message::Query(q) => self.accept_query(Some(from), q, now),
            Message::Reply(r) => self.accept_reply(from, r, now),
        }
    }

    /// The earliest deadline among in-flight queries, for driver scheduling.
    pub fn next_timeout(&self) -> Option<u64> {
        self.pending
            .values()
            .flat_map(|p| p.waiting.values().map(|&(deadline, _)| deadline))
            .min()
    }

    /// Expires overdue neighbors (the paper's `T(q)`): each is reported as
    /// [`Output::NeighborFailed`], dropped from the routing table, and the
    /// affected queries are re-forwarded or concluded.
    pub fn poll_timeouts(&mut self, now: u64) -> Vec<Output> {
        let mut out = Vec::new();
        let qids: Vec<QueryId> = self.pending.keys().copied().collect();
        for qid in qids {
            let Some(p) = self.pending.get_mut(&qid) else {
                continue;
            };
            let expired: Vec<NodeId> = p
                .waiting
                .iter()
                .filter(|(_, &(deadline, _))| deadline <= now)
                .map(|(&id, _)| id)
                .collect();
            if expired.is_empty() {
                continue;
            }
            for peer in expired {
                p.waiting.remove(&peer);
                self.timeouts_fired += 1;
                self.routing.remove(peer);
                self.obs.emit(|| Event::TimeoutFired {
                    at: now,
                    query: qref(qid),
                    node: self.id,
                    peer,
                });
                out.push(Output::NeighborFailed(peer));
            }
            let p = self.pending.get(&qid).expect("still pending");
            if p.waiting.is_empty() {
                if p.sigma_met() {
                    out.extend(self.conclude(qid, now));
                } else {
                    out.extend(self.continue_query(qid, now));
                }
            }
        }
        out
    }

    /// Transport-level failure feedback: the driver discovered that `peer`
    /// is unreachable (connection refused / send failed). The link is
    /// dropped and every query waiting on `peer` continues immediately with
    /// its remaining dimensions — the subtree behind the broken link is
    /// simply skipped, which is the paper's §6.6 "message is dropped"
    /// behaviour on a real transport (a dead TCP endpoint fails fast).
    pub fn peer_unreachable(&mut self, peer: NodeId, now: u64) -> Vec<Output> {
        self.routing.remove(peer);
        let mut out = Vec::new();
        let qids: Vec<QueryId> = self
            .pending
            .iter()
            .filter(|(_, p)| p.waiting.contains_key(&peer))
            .map(|(&q, _)| q)
            .collect();
        for qid in qids {
            let p = self.pending.get_mut(&qid).expect("just listed");
            p.waiting.remove(&peer);
            // Same signal as a `T(q)` expiry, just discovered sooner: the
            // trace records both as "stopped waiting on `peer`".
            self.obs.emit(|| Event::TimeoutFired {
                at: now,
                query: qref(qid),
                node: self.id,
                peer,
            });
            let p = self.pending.get(&qid).expect("just listed");
            if p.waiting.is_empty() {
                if p.sigma_met() {
                    out.extend(self.conclude(qid, now));
                } else {
                    out.extend(self.continue_query(qid, now));
                }
            }
        }
        out
    }

    /// The `receive_query` procedure of Fig. 5.
    fn accept_query(&mut self, from: Option<NodeId>, msg: QueryMsg, now: u64) -> Vec<Output> {
        if self.seen.contains(msg.id) {
            // Duplicate delivery (a fault-duplicated copy or an upstream
            // retry): never re-process. How to answer depends on where the
            // original traversal stands — replying empty unconditionally is
            // exactly the race that used to drop subtree results (the empty
            // dedup-reply overtakes the real REPLY and clears the
            // upstream's waiting entry early).
            self.duplicate_receipts += 1;
            if let Some(from) = from {
                self.obs.emit(|| Event::QueryReceived {
                    at: now,
                    query: qref(msg.id),
                    node: self.id,
                    parent: from,
                    level: msg.level,
                    matched: false,
                    duplicate: true,
                });
            }
            let Some(from) = from else { return Vec::new() };
            if self.buggy_empty_dedup_reply && self.pending.contains_key(&msg.id) {
                // Mutation hook (see `inject_empty_dedup_reply_bug`): the
                // historical behaviour answered *every* duplicate empty,
                // even mid-flight — the race the explorer must detect.
                return vec![Output::Send {
                    to: from,
                    msg: Message::Reply(ReplyMsg {
                        id: msg.id,
                        matching: MatchList::new(),
                        count: 0,
                        attempt: msg.attempt,
                    }),
                }];
            }
            if let Some(p) = self.pending.get_mut(&msg.id) {
                if p.reply_to == Some(from) {
                    // Still in flight for this same upstream: stay silent —
                    // the real REPLY will answer it. Track the newest
                    // attempt so a genuine retry still correlates.
                    p.attempt = msg.attempt;
                    return Vec::new();
                }
                // In flight, but the duplicate came over a different edge
                // (stale-view cross-path): that sender's subtree gets
                // nothing from us — answer empty immediately.
                return vec![Output::Send {
                    to: from,
                    msg: Message::Reply(ReplyMsg {
                        id: msg.id,
                        matching: MatchList::new(),
                        count: 0,
                        attempt: msg.attempt,
                    }),
                }];
            }
            // Concluded: retransmit the cached final reply to the upstream
            // we originally answered (retries become idempotent — the copy
            // fresh-merges iff the original was lost, else its attempt id
            // marks it stale). Anyone else gets an empty reply.
            let reply = match self.reply_cache.iter().find(|c| c.id == msg.id) {
                Some(c) if c.to == from => ReplyMsg {
                    id: msg.id,
                    matching: c.matching.clone(),
                    count: c.count,
                    attempt: msg.attempt,
                },
                _ => ReplyMsg {
                    id: msg.id,
                    matching: MatchList::new(),
                    count: 0,
                    attempt: msg.attempt,
                },
            };
            return vec![Output::Send {
                to: from,
                msg: Message::Reply(reply),
            }];
        }
        self.seen.insert(msg.id);

        // Validate untrusted scope fields (C-VALIDATE): an out-of-range
        // level or dimension mask from a buggy or malicious peer must not
        // be able to panic the traversal.
        let level = msg.level.clamp(-1, self.space.max_level() as i8);
        let dims = msg.dims & all_dims(self.space.dims());

        let matched = self.matches_fully(&msg.query, &msg.dynamic);
        // Containers arrive empty (fresh or recycled with capacity warm);
        // only the scalars and inputs need setting.
        let mut p = PendingQuery::take();
        p.query = Some(msg.query);
        p.dynamic = msg.dynamic;
        p.sigma = msg.sigma;
        p.level = level;
        p.dims = dims;
        p.reply_to = from;
        p.count_only = msg.count_only;
        p.count = 0;
        p.attempt = msg.attempt;
        p.next_attempt = 1;
        p.visited_zero.extend(msg.visited_zero);
        if matched {
            p.add_own_match(Match {
                node: self.id,
                values: self.point.clone(),
            });
        }
        let qid = msg.id;
        let sigma_met = p.sigma_met();
        let (sigma, count_only) = (p.sigma, p.count_only);
        self.pending.insert(qid, p);
        self.obs.emit(|| match from {
            None => Event::QueryIssued {
                at: now,
                query: qref(qid),
                node: self.id,
                sigma,
                count_only,
                matched,
            },
            Some(parent) => Event::QueryReceived {
                at: now,
                query: qref(qid),
                node: self.id,
                parent,
                level,
                matched,
                duplicate: false,
            },
        });
        if sigma_met {
            self.conclude(qid, now)
        } else {
            self.continue_query(qid, now)
        }
    }

    /// The `receive_reply` procedure of Fig. 5.
    fn accept_reply(&mut self, from: NodeId, msg: ReplyMsg, now: u64) -> Vec<Output> {
        let Some(p) = self.pending.get_mut(&msg.id) else {
            // Late reply for a concluded query: results already reported
            // upstream without it; nothing to do.
            self.obs.emit(|| Event::ReplyMerged {
                at: now,
                query: qref(msg.id),
                node: self.id,
                from,
                count: msg.count,
                fresh: false,
                attempt: msg.attempt,
            });
            return Vec::new();
        };
        // Fresh iff we still wait on `from` *for this exact attempt*. A
        // reply echoing a superseded attempt must not clear the waiting
        // entry — the reply to the live attempt is still owed, and removing
        // the entry here is what used to conclude the upstream early.
        let fresh = match p.waiting.get(&from) {
            Some(&(_, attempt)) if attempt == msg.attempt => {
                // Waiting entries only ever hold attempt ids this node
                // stamped, all below `next_attempt` — a fresh merge echoing
                // an id never issued means the waiting map was corrupted.
                debug_assert!(
                    msg.attempt < p.next_attempt,
                    "query {} merged reply echoing unissued attempt {} (next: {})",
                    msg.id,
                    msg.attempt,
                    p.next_attempt
                );
                p.waiting.remove(&from);
                true
            }
            _ => false,
        };
        self.obs.emit(|| Event::ReplyMerged {
            at: now,
            query: qref(msg.id),
            node: self.id,
            from,
            count: msg.count,
            fresh,
            attempt: msg.attempt,
        });
        p.merge_reply(msg.count, msg.matching, fresh);
        if !p.waiting.is_empty() {
            return Vec::new();
        }
        if p.sigma_met() || p.level < 0 {
            self.conclude(msg.id, now)
        } else {
            self.continue_query(msg.id, now)
        }
    }

    /// The `forward` procedure of Fig. 5: depth-first, one subtree at a time.
    ///
    /// Scans levels from the query's frontier downwards; at each level scans
    /// the still-allowed dimensions in increasing order and forwards to the
    /// first neighboring subcell that overlaps `Q(q)` and has a known
    /// occupant. The increasing-dimension order is what guarantees the
    /// subtrees explored by the receiver are disjoint from everything this
    /// node will explore later (exactly-once delivery; see
    /// `tests/routing_properties.rs`).
    fn continue_query(&mut self, qid: QueryId, now: u64) -> Vec<Output> {
        let deadline = now.saturating_add(self.config.query_timeout_ms);
        let d = self.space.dims();
        let p: &mut PendingQuery = self.pending.get_mut(&qid).expect("pending query");
        let query = p.query.as_ref().expect("a pending record holds its query");
        let mut out = Vec::new();

        while p.level > 0 {
            let level = p.level as Level;
            for dim in 0..d {
                if p.dims & (1 << dim) == 0 {
                    continue;
                }
                if !self.coord.neighbor_overlaps(level, dim, query.region()) {
                    continue;
                }
                // The subcell overlaps the query. Forward to our link there,
                // pruning this dimension from both our own frontier and the
                // forwarded scope (prevents backward propagation, Fig.5 l.4).
                p.dims &= !(1 << dim);
                if let Some(link) = self.routing.neighbor(level, dim) {
                    let attempt = p.next_attempt;
                    p.next_attempt += 1;
                    // Attempt monotonicity: every freshly stamped id must
                    // strictly exceed everything still awaited, or a stale
                    // reply could masquerade as the live one.
                    debug_assert!(
                        p.waiting.values().all(|&(_, a)| a < attempt),
                        "query {qid} stamped non-monotone attempt {attempt}"
                    );
                    let fwd = QueryMsg {
                        id: qid,
                        query: Arc::clone(query),
                        sigma: p.sigma,
                        level: p.level,
                        dims: p.dims,
                        dynamic: p.dynamic.clone(),
                        count_only: p.count_only,
                        visited_zero: Vec::new(),
                        attempt,
                    };
                    p.waiting.insert(link, (deadline, attempt));
                    let (to, fwd_level) = (link, p.level);
                    self.obs.emit(|| Event::QueryForwarded {
                        at: now,
                        query: qref(qid),
                        from: self.id,
                        to,
                        level: fwd_level,
                        attempt,
                    });
                    out.push(Output::Send {
                        to,
                        msg: Message::Query(fwd),
                    });
                    return out;
                }
                // No known node in that subcell: treat as empty and keep
                // scanning (delivery may suffer only if the view is stale).
            }
            p.level -= 1;
            p.dims = all_dims(d);
        }

        let do_zero_fanout = p.level == 0 || (p.level == -1 && self.config.c0_relay);
        if do_zero_fanout {
            // Leaf level: hand the query to every matching C0 neighbor not
            // yet contacted; they answer directly (level -1). With the C0
            // relay enabled, leaf receivers forward once more to same-cell
            // mates absent from the message's visited set — the epidemic
            // broadcast of §4.1 for densely populated cells.
            let mut targets = Vec::new();
            for (nid, npoint) in self.routing.zero_neighbors() {
                if query.matches(npoint)
                    && !p.matched_ids.contains(&nid)
                    && !p.contacted_zero.contains(&nid)
                    && !p.visited_zero.contains(&nid)
                {
                    targets.push(nid);
                }
            }
            let mut visited: Vec<NodeId> = p
                .visited_zero
                .iter()
                .copied()
                .chain(targets.iter().copied())
                .chain([self.id])
                .collect();
            visited.sort_unstable();
            visited.dedup();
            for id in targets {
                let attempt = p.next_attempt;
                p.next_attempt += 1;
                debug_assert!(
                    p.waiting.values().all(|&(_, a)| a < attempt),
                    "query {qid} stamped non-monotone attempt {attempt}"
                );
                let fwd = QueryMsg {
                    id: qid,
                    query: Arc::clone(query),
                    sigma: p.sigma,
                    level: -1,
                    dims: 0,
                    dynamic: p.dynamic.clone(),
                    count_only: p.count_only,
                    visited_zero: visited.clone(),
                    attempt,
                };
                p.waiting.insert(id, (deadline, attempt));
                p.contacted_zero.insert(id);
                self.obs.emit(|| Event::QueryForwarded {
                    at: now,
                    query: qref(qid),
                    from: self.id,
                    to: id,
                    level: -1,
                    attempt,
                });
                out.push(Output::Send {
                    to: id,
                    msg: Message::Query(fwd),
                });
            }
            p.level = -1;
            if !out.is_empty() {
                return out;
            }
        }

        if p.waiting.is_empty() {
            out.extend(self.conclude(qid, now));
        }
        out
    }

    /// Finishes a query at this node: answer upstream, or report completion
    /// when this node originated it.
    fn conclude(&mut self, qid: QueryId, now: u64) -> Vec<Output> {
        let mut p = self.pending.remove(&qid).expect("pending query");
        debug_assert!(
            p.waiting.is_empty(),
            "query {qid} concluded with {} live subtree(s) still waiting",
            p.waiting.len()
        );
        debug_assert!(
            self.reply_cache.iter().all(|c| c.id != qid),
            "query {qid} concluded twice: final reply already cached"
        );
        // A conclusion with unexplored scope left (level ≥ 0) can only mean
        // the σ bound cut the traversal short here.
        if p.sigma_met() && p.level >= 0 {
            self.obs.emit(|| Event::SigmaStop {
                at: now,
                query: qref(qid),
                node: self.id,
                count: p.count,
            });
        }
        // One allocation, shared from here on by the REPLY, the cache and
        // the upstream's own list.
        let matching = MatchList::from_segments(&mut p.matching);
        let (reply_to, count, attempt) = (p.reply_to, p.count, p.attempt);
        p.recycle();
        match reply_to {
            Some(upstream) => {
                self.obs.emit(|| Event::ReplySent {
                    at: now,
                    query: qref(qid),
                    node: self.id,
                    to: upstream,
                    count,
                    attempt,
                });
                if self.config.reply_cache > 0 {
                    // Keep the final answer around so duplicate QUERYs
                    // arriving after this point get the real reply again
                    // instead of a results-destroying empty one.
                    let entry = CachedReply {
                        id: qid,
                        to: upstream,
                        matching: matching.clone(),
                        count,
                    };
                    let (held, bound) = (self.reply_cache.len(), self.config.reply_cache);
                    if held < bound {
                        if held == self.reply_cache.capacity() {
                            // Exact growth while small (most nodes of a
                            // large overlay hold an entry or two), then
                            // doubling up to the bound.
                            let grow = if held < 4 { 1 } else { held.min(bound - held) };
                            self.reply_cache.reserve_exact(grow);
                        }
                        self.reply_cache.push(entry);
                    } else {
                        // Full: the oldest entry makes way.
                        let oldest = self.reply_cache_next as usize;
                        self.reply_cache[oldest] = entry;
                        self.reply_cache_next = ((oldest + 1) % bound) as u32;
                    }
                }
                vec![Output::Send {
                    to: upstream,
                    msg: Message::Reply(ReplyMsg {
                        id: qid,
                        matching,
                        count,
                        attempt,
                    }),
                }]
            }
            None => {
                self.obs.emit(|| Event::QueryCompleted {
                    at: now,
                    query: qref(qid),
                    node: self.id,
                    count,
                });
                vec![Output::Completed {
                    id: qid,
                    matches: matching.to_vec(),
                    count,
                }]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrspace::Query;

    fn space() -> Space {
        Space::uniform(2, 80, 3).expect("valid 2-d space geometry")
    }

    fn node(id: NodeId, vals: [u64; 2]) -> SelectionNode {
        let s = space();
        SelectionNode::new(
            id,
            &s,
            s.point(&vals).expect("coords lie inside the space"),
            ProtocolConfig::default(),
        )
    }

    fn deliver(to: &mut SelectionNode, from: NodeId, out: &[Output], now: u64) -> Vec<Output> {
        let mut produced = Vec::new();
        for o in out {
            if let Output::Send { to: dst, msg } = o {
                assert_eq!(*dst, to.id());
                produced.extend(to.handle_message(from, msg.clone(), now));
            }
        }
        produced
    }

    mod seen_set {
        use super::*;
        use proptest::prelude::*;

        /// Sequence numbers that stress the block arithmetic: both sides of
        /// the first block edges, the top of the `u32` range, and anything.
        fn seq() -> impl Strategy<Value = u32> {
            prop_oneof![
                0u32..200,
                Just(63u32),
                Just(64u32),
                Just(65u32),
                (u32::MAX - 130)..=u32::MAX,
                any::<u32>(),
            ]
        }

        /// A few origins (dense blocks) or any origin (many sparse ones).
        fn origin() -> impl Strategy<Value = NodeId> {
            prop_oneof![0u64..4, any::<u64>()]
        }

        proptest! {
            /// The blocked set answers every lookup exactly like the plain
            /// id set it replaced, on interleaved inserts and lookups, and
            /// enumerates the same ids in the same order — the order
            /// `state_fingerprint` hashes.
            #[test]
            fn agrees_with_a_plain_id_set(
                ops in prop::collection::vec((origin(), seq(), any::<bool>()), 1..300),
            ) {
                let mut seen = SeenSet::default();
                let mut reference: FastSet<QueryId> = FastSet::default();
                for &(origin, seq, insert) in &ops {
                    let id = QueryId { origin, seq };
                    if insert {
                        seen.insert(id);
                        reference.insert(id);
                    }
                    for probe in [seq.wrapping_sub(1), seq, seq.wrapping_add(1)] {
                        let q = QueryId { origin, seq: probe };
                        let want = reference.contains(&q);
                        prop_assert_eq!(seen.contains(q), want, "lookup of {}", q);
                    }
                }
                let mut want: Vec<QueryId> = reference.into_iter().collect();
                want.sort_unstable();
                prop_assert_eq!(seen.sorted(), want);
            }
        }

        /// `state_fingerprint` of the node below when `seen` was a plain
        /// `FastSet<QueryId>`.
        const FINGERPRINT_PLAIN_SET: u64 = 0xcf38_5677_518f_a566;

        /// The digest of a node's state does not depend on how the seen set
        /// is stored: ids on both sides of a block edge and at the top of
        /// the `u32` range hash exactly as the plain id set hashed them.
        #[test]
        fn fingerprint_matches_the_plain_id_set() {
            let mut n = node(1, [10, 20]);
            let ids = [
                (7, 0),
                (7, 63),
                (7, 64),
                (7, 65),
                (3, u32::MAX),
                (3, 5),
                (9, 1_000),
            ];
            for (origin, seq) in ids {
                n.seen.insert(QueryId { origin, seq });
            }
            assert_eq!(n.state_fingerprint(), FINGERPRINT_PLAIN_SET);
        }
    }

    #[test]
    fn self_match_with_sigma_one_completes_locally() {
        let mut a = node(1, [70, 70]);
        let q = Query::builder(&space())
            .min("a0", 60)
            .build()
            .expect("well-formed query");
        let (id, out) = a.begin_query(q, Some(1), 0);
        assert_eq!(out.len(), 1);
        let Output::Completed {
            id: got, matches, ..
        } = &out[0]
        else {
            panic!("expected completion, got {out:?}")
        };
        assert_eq!(*got, id);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].node, 1);
        assert_eq!(a.pending_len(), 0);
    }

    #[test]
    fn no_neighbors_no_match_completes_empty() {
        let mut a = node(1, [5, 5]);
        let q = Query::builder(&space())
            .min("a0", 60)
            .build()
            .expect("well-formed query");
        let (_, out) = a.begin_query(q, None, 0);
        let Output::Completed { matches, .. } = &out[0] else {
            panic!("{out:?}")
        };
        assert!(matches.is_empty());
    }

    #[test]
    fn two_hop_query_and_reply() {
        let mut a = node(1, [5, 5]);
        let mut b = node(2, [70, 70]);
        a.routing_mut().observe(2, b.point().clone());
        let q = Query::builder(&space())
            .min("a0", 60)
            .min("a1", 60)
            .build()
            .expect("well-formed query");
        let (qid, out) = a.begin_query(q, None, 0);
        // A forwards to B (the only link toward the query region).
        assert!(matches!(
            &out[0],
            Output::Send {
                to: 2,
                msg: Message::Query(_)
            }
        ));
        let replies = deliver(&mut b, 1, &out, 1);
        // B matches, has no further links, replies.
        let Output::Send {
            to: 1,
            msg: Message::Reply(r),
        } = &replies[0]
        else {
            panic!("{replies:?}")
        };
        assert_eq!(r.matching.len(), 1);
        let done = deliver(&mut a, 2, &replies, 2);
        let Output::Completed { id, matches, .. } = &done[0] else {
            panic!("{done:?}")
        };
        assert_eq!(*id, qid);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].node, 2);
        assert_eq!(a.pending_len(), 0);
        assert_eq!(b.pending_len(), 0);
    }

    #[test]
    fn zero_level_fans_out_to_all_matching_c0_mates() {
        let s = space();
        let mut a = node(1, [5, 5]);
        // Three C0 mates, two of which match the query.
        a.routing_mut()
            .observe(2, s.point(&[6, 6]).expect("coords lie inside the space"));
        a.routing_mut()
            .observe(3, s.point(&[7, 7]).expect("coords lie inside the space"));
        a.routing_mut()
            .observe(4, s.point(&[3, 3]).expect("coords lie inside the space"));
        let q = Query::builder(&s)
            .range("a0", 5, 9)
            .range("a1", 5, 9)
            .build()
            .expect("well-formed query");
        let (_, out) = a.begin_query(q.clone(), None, 0);
        let targets: FastSet<NodeId> = out
            .iter()
            .filter_map(|o| match o {
                Output::Send {
                    to,
                    msg: Message::Query(m),
                } => {
                    assert_eq!(m.level, -1, "leaf delivery");
                    Some(*to)
                }
                _ => None,
            })
            .collect();
        assert_eq!(targets, [2, 3].into_iter().collect::<FastSet<NodeId>>());

        // Leaves answer immediately with themselves only.
        let mut b = node(2, [6, 6]);
        let leaf_out = deliver(
            &mut b,
            1,
            &out.iter()
                .filter(|o| matches!(o, Output::Send { to: 2, .. }))
                .cloned()
                .collect::<Vec<_>>(),
            1,
        );
        let Output::Send {
            to: 1,
            msg: Message::Reply(r),
        } = &leaf_out[0]
        else {
            panic!("{leaf_out:?}")
        };
        assert_eq!(r.matching.to_vec()[0].node, 2);
        assert_eq!(r.matching.len(), 1);
        assert_eq!(b.pending_len(), 0, "leaf keeps no state");
    }

    fn leaf_query(id: QueryId, attempt: u32) -> QueryMsg {
        QueryMsg {
            id,
            query: Query::builder(&space())
                .build()
                .expect("well-formed query")
                .into(),
            sigma: None,
            level: -1,
            dims: 0,
            dynamic: Vec::new(),
            count_only: false,
            visited_zero: Vec::new(),
            attempt,
        }
    }

    /// A duplicate QUERY arriving *after* the node already answered is met
    /// with a cached copy of the real reply (echoing the duplicate's
    /// attempt id), so an upstream whose original REPLY was lost recovers
    /// the actual results from a retry — never a results-destroying empty.
    #[test]
    fn duplicate_query_retransmits_cached_reply() {
        let mut a = node(1, [5, 5]);
        let msg = leaf_query(QueryId { origin: 9, seq: 0 }, 3);
        let first = a.handle_message(9, Message::Query(msg.clone()), 0);
        let Output::Send {
            to: 9,
            msg: Message::Reply(r),
        } = &first[0]
        else {
            panic!("{first:?}")
        };
        assert_eq!(r.matching.len(), 1);
        assert_eq!(r.attempt, 3, "reply echoes the query's attempt id");

        let second = a.handle_message(9, Message::Query(msg.clone()), 1);
        let Output::Send {
            to: 9,
            msg: Message::Reply(r),
        } = &second[0]
        else {
            panic!("{second:?}")
        };
        assert_eq!(
            r.matching.len(),
            1,
            "duplicate answered from the reply cache"
        );
        assert_eq!(r.count, 1);
        assert_eq!(r.attempt, 3);
        assert_eq!(a.duplicate_receipts(), 1);

        // A copy arriving over a *different* edge is a cross-path delivery:
        // that sender gets nothing from this subtree — empty, not cached.
        let third = a.handle_message(8, Message::Query(msg), 2);
        let Output::Send {
            to: 8,
            msg: Message::Reply(r),
        } = &third[0]
        else {
            panic!("{third:?}")
        };
        assert!(r.matching.is_empty(), "cross-path duplicate answered empty");
        assert_eq!(a.duplicate_receipts(), 2);
    }

    /// With the cache disabled (`reply_cache: 0`) a post-conclusion
    /// duplicate falls back to the empty dedup-reply.
    #[test]
    fn reply_cache_zero_disables_retransmission() {
        let s = space();
        let cfg = ProtocolConfig {
            reply_cache: 0,
            ..ProtocolConfig::default()
        };
        let mut a = SelectionNode::new(
            1,
            &s,
            s.point(&[5, 5]).expect("coords lie inside the space"),
            cfg,
        );
        let msg = leaf_query(QueryId { origin: 9, seq: 0 }, 1);
        let _ = a.handle_message(9, Message::Query(msg.clone()), 0);
        let second = a.handle_message(9, Message::Query(msg), 1);
        let Output::Send {
            msg: Message::Reply(r),
            ..
        } = &second[0]
        else {
            panic!()
        };
        assert!(r.matching.is_empty(), "no cache, duplicate answered empty");
    }

    /// The cache is FIFO-bounded: concluding more upstream queries than
    /// `reply_cache` evicts the oldest entry, whose duplicates then answer
    /// empty again.
    #[test]
    fn reply_cache_evicts_fifo_at_its_bound() {
        let s = space();
        let cfg = ProtocolConfig {
            reply_cache: 2,
            ..ProtocolConfig::default()
        };
        let mut a = SelectionNode::new(
            1,
            &s,
            s.point(&[5, 5]).expect("coords lie inside the space"),
            cfg,
        );
        for seq in 0..3 {
            let msg = leaf_query(QueryId { origin: 9, seq }, 1);
            let _ = a.handle_message(9, Message::Query(msg), u64::from(seq));
        }
        // seq 0 was evicted (bound 2), seqs 1 and 2 are still cached.
        let dup0 = a.handle_message(
            9,
            Message::Query(leaf_query(QueryId { origin: 9, seq: 0 }, 1)),
            10,
        );
        let Output::Send {
            msg: Message::Reply(r),
            ..
        } = &dup0[0]
        else {
            panic!()
        };
        assert!(r.matching.is_empty(), "evicted entry answers empty");
        let dup2 = a.handle_message(
            9,
            Message::Query(leaf_query(QueryId { origin: 9, seq: 2 }, 1)),
            11,
        );
        let Output::Send {
            msg: Message::Reply(r),
            ..
        } = &dup2[0]
        else {
            panic!()
        };
        assert_eq!(r.matching.len(), 1, "recent entry still cached");
    }

    /// The root of the PR-1 caveat: a duplicate QUERY arriving while the
    /// receiver's subtree is still in flight must be *suppressed*, not
    /// answered empty — the empty dedup-reply is exactly what used to race
    /// ahead of the real REPLY and make the upstream conclude early.
    #[test]
    fn duplicate_while_pending_is_suppressed() {
        let s = space();
        let mut b = node(2, [5, 5]);
        // B will forward into the query region, so the query stays pending.
        b.routing_mut()
            .observe(3, s.point(&[70, 70]).expect("coords lie inside the space"));
        let msg = QueryMsg {
            id: QueryId { origin: 1, seq: 0 },
            query: Query::builder(&s)
                .min("a0", 60)
                .build()
                .expect("well-formed query")
                .into(),
            sigma: None,
            level: 3,
            dims: all_dims(2),
            dynamic: Vec::new(),
            count_only: false,
            visited_zero: Vec::new(),
            attempt: 7,
        };
        let first = b.handle_message(1, Message::Query(msg.clone()), 0);
        assert!(
            matches!(
                &first[0],
                Output::Send {
                    to: 3,
                    msg: Message::Query(_)
                }
            ),
            "query forwarded into its subtree: {first:?}"
        );
        assert_eq!(b.pending_len(), 1);
        let second = b.handle_message(1, Message::Query(msg), 1);
        assert!(
            second.is_empty(),
            "duplicate while pending must stay silent: {second:?}"
        );
        assert_eq!(b.duplicate_receipts(), 1);

        // The real subtree reply still flows upstream afterwards, echoing
        // the upstream's attempt id.
        let sub = b.handle_message(
            3,
            Message::Reply(ReplyMsg {
                id: QueryId { origin: 1, seq: 0 },
                matching: MatchList::new(),
                count: 0,
                attempt: 1,
            }),
            2,
        );
        let Some(Output::Send {
            to: 1,
            msg: Message::Reply(r),
        }) = sub.last()
        else {
            panic!("{sub:?}")
        };
        assert_eq!(r.attempt, 7);
    }

    #[test]
    fn timeout_reports_failure_and_concludes() {
        let mut a = node(1, [5, 5]);
        let mut dead = node(2, [70, 70]);
        a.routing_mut().observe(2, dead.point().clone());
        let q = Query::builder(&space())
            .min("a0", 60)
            .build()
            .expect("well-formed query");
        let (qid, out) = a.begin_query(q, None, 0);
        assert!(matches!(&out[0], Output::Send { to: 2, .. }));
        let _ = &mut dead; // never answers

        assert_eq!(
            a.next_timeout(),
            Some(ProtocolConfig::default().query_timeout_ms)
        );
        let out = a.poll_timeouts(ProtocolConfig::default().query_timeout_ms);
        assert!(out.contains(&Output::NeighborFailed(2)));
        let Some(Output::Completed { id, matches, .. }) = out.last() else {
            panic!("{out:?}")
        };
        assert_eq!(*id, qid);
        assert!(matches.is_empty());
        assert!(a.routing().neighbor(3, 0).is_none(), "dead link dropped");
    }

    #[test]
    fn late_reply_after_timeout_is_ignored() {
        let mut a = node(1, [5, 5]);
        let b = node(2, [70, 70]);
        a.routing_mut().observe(2, b.point().clone());
        let q = Query::builder(&space())
            .min("a0", 60)
            .build()
            .expect("well-formed query");
        let (qid, _) = a.begin_query(q, None, 0);
        let _ = a.poll_timeouts(u64::MAX);
        let out = a.handle_message(
            2,
            Message::Reply(ReplyMsg {
                id: qid,
                matching: vec![Match {
                    node: 2,
                    values: b.point().clone(),
                }]
                .into(),
                count: 1,
                attempt: 1,
            }),
            99,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn sigma_zero_completes_immediately() {
        // Per Fig. 5 the node adds itself to `matching` *before* the σ
        // check, so σ=0 still reports the local self-match — but nothing is
        // ever forwarded.
        let mut a = node(1, [70, 70]);
        a.routing_mut().observe(
            2,
            space().point(&[5, 5]).expect("coords lie inside the space"),
        );
        let q = Query::builder(&space()).build().expect("well-formed query");
        let (_, out) = a.begin_query(q, Some(0), 0);
        assert_eq!(out.len(), 1, "no forwarding under met σ");
        let Output::Completed { matches, .. } = &out[0] else {
            panic!("{out:?}")
        };
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].node, 1);
    }

    #[test]
    fn set_point_moves_cell_and_clears_routing() {
        let mut a = node(1, [5, 5]);
        a.routing_mut().observe(
            2,
            space().point(&[6, 6]).expect("coords lie inside the space"),
        );
        assert_eq!(a.routing().link_count(), 1);
        a.set_point(
            space()
                .point(&[75, 75])
                .expect("coords lie inside the space"),
        );
        assert_eq!(a.coord().indices(), &[7, 7]);
        assert_eq!(a.routing().link_count(), 0);
    }

    #[test]
    fn reply_merging_dedupes_matches() {
        let mut a = node(1, [5, 5]);
        let s = space();
        let b_point = s.point(&[70, 5]).expect("coords lie inside the space");
        let c_point = s.point(&[5, 70]).expect("coords lie inside the space");
        a.routing_mut().observe(2, b_point.clone());
        a.routing_mut().observe(3, c_point.clone());
        // Query spanning both neighbors' cells (but not A's).
        let q = Query::builder(&s)
            .range("a0", 60, 79)
            .build()
            .expect("well-formed query");
        let (qid, out1) = a.begin_query(q, None, 0);
        // First subtree: B replies claiming both B and (spuriously) B again.
        let Output::Send { to: first, .. } = &out1[0] else {
            panic!()
        };
        let dup = Match {
            node: 2,
            values: b_point.clone(),
        };
        let out2 = a.handle_message(
            *first,
            Message::Reply(ReplyMsg {
                id: qid,
                matching: vec![dup.clone(), dup].into(),
                count: 2,
                attempt: 1,
            }),
            1,
        );
        // Traversal continues or concludes; once concluded, count node 2 once.
        let finished: Vec<&Output> = out2
            .iter()
            .chain(
                [].iter(), // placeholder to keep types simple
            )
            .collect();
        let mut all = finished;
        let extra;
        if a.pending_len() > 0 {
            // Another branch outstanding: time it out to conclude.
            extra = a.poll_timeouts(u64::MAX);
            all.extend(extra.iter());
        }
        let completed = all.iter().find_map(|o| match o {
            Output::Completed { matches, .. } => Some(matches),
            _ => None,
        });
        let matches = completed.expect("query concluded");
        assert_eq!(matches.iter().filter(|m| m.node == 2).count(), 1);
    }

    /// Counts carry no node identity, so the only witness that a subtree
    /// was already merged is the waiting set: a duplicated REPLY delivery
    /// must be merged exactly once, not once per copy. The two neighbors
    /// sit in *different* subcells of the query region, so the traversal
    /// is still waiting on the second when the duplicate of the first's
    /// reply arrives.
    #[test]
    fn duplicated_reply_counts_once_in_count_mode() {
        let s = space();
        let mut a = node(1, [5, 5]);
        a.routing_mut()
            .observe(2, s.point(&[70, 70]).expect("coords lie inside the space")); // N(3,0)
        a.routing_mut()
            .observe(3, s.point(&[5, 70]).expect("coords lie inside the space")); // N(3,1)
        let q = Query::builder(&s)
            .min("a1", 60)
            .build()
            .expect("well-formed query");
        let (qid, out) = a.begin_count_query(q, Vec::new(), 0);
        let Output::Send { to: first, .. } = &out[0] else {
            panic!("{out:?}")
        };

        let reply = Message::Reply(ReplyMsg {
            id: qid,
            matching: MatchList::new(),
            count: 5,
            attempt: 1,
        });
        let mut outs = a.handle_message(*first, reply.clone(), 1);
        assert_eq!(a.pending_len(), 1, "second subcell still outstanding");
        // The same reply delivered again (a duplication fault).
        outs.extend(a.handle_message(*first, reply, 2));
        // Time out the remaining branch so the query concludes.
        outs.extend(a.poll_timeouts(u64::MAX));
        let total = outs.iter().find_map(|o| match o {
            Output::Completed { count, .. } => Some(*count),
            _ => None,
        });
        assert_eq!(total, Some(5), "duplicated reply merged more than once");
    }

    /// Count-mode end to end under QUERY duplication: the downstream node
    /// answers the duplicate with a cached *retransmission* of its real
    /// count reply, and the upstream — still waiting on a second subtree —
    /// must add that count at most once per attempt id, no matter how many
    /// copies (original + retransmissions) arrive.
    #[test]
    fn retransmitted_count_reply_merges_once_per_attempt() {
        let s = space();
        let mut a = node(1, [5, 5]);
        a.routing_mut()
            .observe(2, s.point(&[70, 70]).expect("coords lie inside the space")); // N(3,0)
        a.routing_mut()
            .observe(3, s.point(&[5, 70]).expect("coords lie inside the space")); // N(3,1)
        let q = Query::builder(&s)
            .min("a1", 60)
            .build()
            .expect("well-formed query");
        let (qid, out) = a.begin_count_query(q, Vec::new(), 0);
        let Output::Send {
            to: first,
            msg: Message::Query(fwd),
        } = &out[0]
        else {
            panic!("{out:?}")
        };

        // The downstream leaf B processes the forward, then a duplicated
        // copy of the same forward: the second answer is the cached
        // retransmission of the first, byte-identical.
        let mut b = SelectionNode::new(
            *first,
            &s,
            s.point(&[70, 70]).expect("coords lie inside the space"),
            ProtocolConfig::default(),
        );
        let r1 = b.handle_message(1, Message::Query(fwd.clone()), 1);
        let r2 = b.handle_message(1, Message::Query(fwd.clone()), 2);
        let Output::Send {
            msg: Message::Reply(reply1),
            ..
        } = &r1[0]
        else {
            panic!("{r1:?}")
        };
        let Output::Send {
            msg: Message::Reply(reply2),
            ..
        } = &r2[0]
        else {
            panic!("{r2:?}")
        };
        assert_eq!(reply1, reply2, "retransmission replays the real reply");
        assert_eq!(reply1.count, 1, "B matched itself");

        // Both copies reach A while it still waits on the second subtree.
        let mut outs = a.handle_message(*first, Message::Reply(reply1.clone()), 3);
        outs.extend(a.handle_message(*first, Message::Reply(reply2.clone()), 4));
        assert_eq!(a.pending_len(), 1, "second subcell still outstanding");
        outs.extend(a.poll_timeouts(u64::MAX));
        let total = outs.iter().find_map(|o| match o {
            Output::Completed { count, .. } => Some(*count),
            _ => None,
        });
        assert_eq!(
            *outs
                .iter()
                .filter_map(|o| match o {
                    Output::Completed { id, .. } => Some(id),
                    _ => None,
                })
                .next()
                .expect("concluded"),
            qid
        );
        assert_eq!(
            total,
            Some(1),
            "retransmitted count added more than once per attempt"
        );
    }

    /// The §4.1 epidemic relay: leaf receivers re-forward to same-`C0`
    /// mates the sender did not know. Four nodes share one `C0` cell but
    /// each knows only its ring successor (A→B→C→D→A), so full coverage
    /// *requires* relaying — and D's link back to A is exactly the edge
    /// that would re-deliver the query if the message's `visited_zero` set
    /// did not suppress it.
    #[test]
    fn c0_relay_covers_the_cell_without_duplicate_deliveries() {
        use std::collections::VecDeque;

        let s = Space::uniform(1, 80, 1).expect("valid 1-d space geometry");
        let run = |c0_relay: bool| -> (Vec<NodeId>, FastMap<NodeId, u32>, u64) {
            let cfg = ProtocolConfig {
                c0_relay,
                ..ProtocolConfig::default()
            };
            let mut nodes: FastMap<NodeId, SelectionNode> = (0..4)
                .map(|id| {
                    (
                        id,
                        SelectionNode::new(
                            id,
                            &s,
                            s.point(&[id + 1]).expect("coords lie inside the space"),
                            cfg.clone(),
                        ),
                    )
                })
                .collect();
            for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
                let p = nodes[&b].point().clone();
                nodes
                    .get_mut(&a)
                    .expect("node wired into the ring")
                    .routing_mut()
                    .observe(b, p);
            }
            let q = Query::builder(&s)
                .range("a0", 0, 39)
                .build()
                .expect("well-formed query");
            let (_, outs) = nodes
                .get_mut(&0)
                .expect("node wired into the ring")
                .begin_query(q, None, 0);

            let mut receipts: FastMap<NodeId, u32> = FastMap::default();
            let mut inbox: VecDeque<(NodeId, NodeId, Message)> = VecDeque::new();
            let mut completed: Option<Vec<Match>> = None;
            let absorb = |from: NodeId,
                          outs: Vec<Output>,
                          inbox: &mut VecDeque<(NodeId, NodeId, Message)>,
                          completed: &mut Option<Vec<Match>>| {
                for o in outs {
                    match o {
                        Output::Send { to, msg } => inbox.push_back((from, to, msg)),
                        Output::Completed { matches, .. } => *completed = Some(matches),
                        Output::NeighborFailed(_) => panic!("all nodes alive"),
                    }
                }
            };
            absorb(0, outs, &mut inbox, &mut completed);
            let mut now = 1;
            while let Some((from, to, msg)) = inbox.pop_front() {
                if matches!(msg, Message::Query(_)) {
                    *receipts.entry(to).or_insert(0) += 1;
                }
                let outs = nodes
                    .get_mut(&to)
                    .expect("node wired into the ring")
                    .handle_message(from, msg, now);
                now += 1;
                absorb(to, outs, &mut inbox, &mut completed);
            }
            let mut got: Vec<NodeId> = completed
                .expect("concluded")
                .iter()
                .map(|m| m.node)
                .collect();
            got.sort_unstable();
            let dups = nodes.values().map(|n| n.duplicate_receipts()).sum();
            for n in nodes.values() {
                assert_eq!(n.pending_len(), 0, "no residual state");
            }
            (got, receipts, dups)
        };

        // Without the relay, A's leaf fan-out stops at its only known mate.
        let (reached_off, _, _) = run(false);
        assert_eq!(reached_off, vec![0, 1]);

        // With it, the query percolates the whole cell…
        let (reached_on, receipts, dups) = run(true);
        assert_eq!(reached_on, vec![0, 1, 2, 3]);
        // …and `visited_zero` suppresses the ring-closing edge D→A: every
        // node received the query exactly once, none twice.
        for (&node, &count) in &receipts {
            assert_eq!(count, 1, "node {node} received {count} deliveries");
        }
        assert!(
            !receipts.contains_key(&0),
            "nothing re-delivered to the origin"
        );
        assert_eq!(
            dups, 0,
            "the dedup set left nothing for the seen-set to catch"
        );
    }

    /// An upstream's REPLY holds its child's list itself, not a copy, and
    /// the reply cache of each node on the path holds the very list that
    /// node sent. U receives a leaf-level query from 9, matches, and fans
    /// it out to its `C0` mate C, which matches too.
    #[test]
    fn replies_share_their_subtree_lists() {
        let s = space();
        let mut u = node(1, [5, 5]);
        let mut c = node(2, [6, 6]);
        u.routing_mut().observe(2, c.point().clone());
        let qid = QueryId { origin: 9, seq: 0 };
        let fwd = u.handle_message(9, Message::Query(query_at_level_zero(qid)), 0);
        assert!(matches!(&fwd[..], [Output::Send { to: 2, .. }]), "{fwd:?}");

        let leaf = deliver(&mut c, 1, &fwd, 1);
        let Output::Send {
            to: 1,
            msg: Message::Reply(r),
        } = &leaf[0]
        else {
            panic!("{leaf:?}")
        };
        let child = r.matching.clone();
        let up = deliver(&mut u, 2, &leaf, 2);
        let Output::Send {
            to: 9,
            msg: Message::Reply(up),
        } = &up[0]
        else {
            panic!("{up:?}")
        };

        let ids: Vec<NodeId> = up.matching.iter().map(|m| m.node).collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(up.count, 2);
        let shared: Vec<&MatchList> = up.matching.children().collect();
        assert_eq!(
            shared.len(),
            1,
            "the child's list is one segment: {:?}",
            up.matching
        );
        assert!(shared[0].ptr_eq(&child), "the child's list was copied");
        for (n, sent) in [(&u, &up.matching), (&c, &child)] {
            let cached = n
                .reply_cache
                .iter()
                .find(|e| e.id == qid)
                .expect("reply cached");
            assert!(
                cached.matching.ptr_eq(sent),
                "node {} cached a copy",
                n.id()
            );
        }
        // A node that adds nothing of its own passes its one child's list
        // up as it is.
        let mut relay = node(3, [5, 5]);
        relay.routing_mut().observe(2, c.point().clone());
        let q = Query::builder(&s)
            .range("a0", 6, 9)
            .range("a1", 6, 9)
            .build()
            .expect("well-formed query");
        let msg = QueryMsg {
            query: q.into(),
            ..query_at_level_zero(QueryId { origin: 9, seq: 1 })
        };
        let fwd = relay.handle_message(9, Message::Query(msg), 3);
        let leaf = deliver(&mut c, 3, &fwd, 4);
        let Output::Send {
            msg: Message::Reply(r),
            ..
        } = &leaf[0]
        else {
            panic!("{leaf:?}")
        };
        let child = r.matching.clone();
        let up = deliver(&mut relay, 2, &leaf, 5);
        let Output::Send {
            msg: Message::Reply(up),
            ..
        } = &up[0]
        else {
            panic!("{up:?}")
        };
        assert!(
            up.matching.ptr_eq(&child),
            "a lone child's list was wrapped or copied"
        );
    }

    /// A QUERY its receiver answers by fanning out to its `C0` mates.
    fn query_at_level_zero(id: QueryId) -> QueryMsg {
        QueryMsg {
            level: 0,
            dims: all_dims(2),
            ..leaf_query(id, 1)
        }
    }

    /// The shared-list merge against the one it replaced: every match of a
    /// REPLY through `add_match`, one at a time, into a flat vector. Random
    /// reply sequences — empty lists, duplicate ids within a list and
    /// across lists, lists nested inside lists, count mode, stale and
    /// fresh copies — must leave the same matches in the same order, the
    /// same count and the same id set.
    mod merge_differential {
        use super::*;
        use proptest::prelude::*;

        /// The per-query merge state before match lists were shared.
        #[derive(Default)]
        struct Reference {
            count_only: bool,
            count: u64,
            matching: Vec<Match>,
            matched_ids: FastSet<NodeId>,
        }

        impl Reference {
            fn add_match(&mut self, m: Match) -> bool {
                if self.count_only {
                    self.count += 1;
                    return true;
                }
                if self.matched_ids.insert(m.node) {
                    self.matching.push(m);
                    self.count += 1;
                    true
                } else {
                    false
                }
            }

            fn merge_reply(&mut self, count: u64, matching: Vec<Match>, fresh: bool) {
                if self.count_only {
                    if fresh {
                        self.count += count;
                    }
                } else {
                    for m in matching {
                        self.add_match(m);
                    }
                }
            }
        }

        fn m(node: NodeId) -> Match {
            Match {
                node,
                values: space()
                    .point(&[node % 80, 7])
                    .expect("coords lie inside the space"),
            }
        }

        /// List `i` of the pool: its own ids (duplicates likely: ids are
        /// drawn from 0..12) and earlier lists it nests, by index.
        type ListSpec = (Vec<NodeId>, Vec<usize>);

        fn build_pool(specs: &[ListSpec]) -> Vec<MatchList> {
            let mut pool: Vec<MatchList> = Vec::new();
            for (own, nested) in specs {
                let mut segments: Vec<Segment> =
                    own.iter().map(|&id| Segment::One(m(id))).collect();
                for &j in nested.iter().filter(|_| !pool.is_empty()) {
                    let child = &pool[j % pool.len()];
                    if !child.is_empty() {
                        segments.insert(j % (segments.len() + 1), Segment::List(child.clone()));
                    }
                }
                pool.push(MatchList::from_segments(&mut segments));
            }
            pool
        }

        fn ids(list: &MatchList) -> Vec<NodeId> {
            list.iter().map(|m| m.node).collect()
        }

        proptest! {
            #[test]
            fn shared_merge_agrees_with_the_match_by_match_loop(
                specs in prop::collection::vec(
                    (prop::collection::vec(0u64..12, 0..5), prop::collection::vec(0usize..8, 0..3)),
                    1..8,
                ),
                replies in prop::collection::vec((0usize..8, any::<bool>(), 0u64..5), 0..8),
                own in prop::option::of(0u64..12),
                count_only in any::<bool>(),
            ) {
                let pool = build_pool(&specs);
                let mut p = PendingQuery { count_only, ..PendingQuery::default() };
                let mut r = Reference { count_only, ..Reference::default() };
                if let Some(id) = own {
                    p.add_own_match(m(id));
                    r.add_match(m(id));
                }
                for &(i, fresh, count) in &replies {
                    let list = &pool[i % pool.len()];
                    p.merge_reply(count, list.clone(), fresh);
                    r.merge_reply(count, list.to_vec(), fresh);
                }
                let merged = MatchList::from_segments(&mut p.matching);
                let want: Vec<NodeId> = r.matching.iter().map(|m| m.node).collect();
                prop_assert_eq!(ids(&merged), want);
                prop_assert_eq!(merged.len(), r.matching.len());
                prop_assert_eq!(&merged, &MatchList::from(r.matching.clone()));
                prop_assert_eq!(p.count, r.count);
                let mut got: Vec<NodeId> = p.matched_ids.iter().copied().collect();
                let mut want: Vec<NodeId> = r.matched_ids.iter().copied().collect();
                got.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(got, want);
            }

            /// `From<Vec>` / `iter` / `len` / `eq` round-trip, flat and
            /// nested alike.
            #[test]
            fn lists_round_trip_through_vectors(
                specs in prop::collection::vec(
                    (prop::collection::vec(0u64..12, 0..5), prop::collection::vec(0usize..8, 0..3)),
                    1..8,
                ),
            ) {
                for list in build_pool(&specs) {
                    let flat = list.to_vec();
                    prop_assert_eq!(list.len(), flat.len());
                    prop_assert_eq!(list.iter().count(), flat.len());
                    prop_assert!(list.iter().eq(flat.iter()));
                    let back = MatchList::from(flat.clone());
                    prop_assert_eq!(&back, &list);
                    prop_assert_eq!(back.to_vec(), flat);
                    prop_assert_eq!(format!("{back:?}"), format!("{list:?}"));
                }
            }
        }
    }

    /// A node's memory follows its in-flight queries: a record exists only
    /// while its query is pending, a pooled record holds nothing of the
    /// query it served, and which records the pool hands out never shows
    /// in the protocol's behaviour.
    mod in_flight_memory {
        use super::*;
        use attrspace::Range;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::collections::VecDeque;
        use std::sync::Weak;

        const NODES: u64 = 48;
        /// Never answers: queries routed to it conclude by `T(q)`.
        const DEAD: NodeId = 7;

        /// What one run of [`run`] leaves behind.
        struct Run {
            nodes: Vec<SelectionNode>,
            /// Every completion in order: id, sorted matched ids, count.
            completed: Vec<(QueryId, Vec<NodeId>, u64)>,
            messages: u64,
            /// A handle on the query of every QUERY message sent.
            queries: Vec<Weak<Query>>,
            inbox: VecDeque<(NodeId, NodeId, Message)>,
        }

        impl Run {
            fn absorb(&mut self, from: NodeId, outs: Vec<Output>) {
                for o in outs {
                    match o {
                        Output::Send { to, msg } => {
                            self.messages += 1;
                            if let Message::Query(q) = &msg {
                                self.queries.push(Arc::downgrade(&q.query));
                            }
                            if to != DEAD {
                                self.inbox.push_back((from, to, msg));
                            }
                        }
                        Output::Completed { id, matches, count } => {
                            let mut ids: Vec<NodeId> = matches.iter().map(|m| m.node).collect();
                            ids.sort_unstable();
                            self.completed.push((id, ids, count));
                        }
                        Output::NeighborFailed(_) => {}
                    }
                }
            }
        }

        /// A static cluster on partial routing knowledge, with one dead
        /// node, runs sixteen concurrent queries — σ-bounded, unbounded,
        /// count-only and with a dynamic constraint — to quiescence.
        fn run(seed: u64) -> Run {
            let s = Space::uniform(3, 80, 3).expect("valid 3-d space geometry");
            let mut rng = StdRng::seed_from_u64(seed);
            let mut nodes: Vec<SelectionNode> = (0..NODES)
                .map(|id| {
                    // Half of each dimension only, so C0 cells hold mates.
                    let vals: Vec<u64> = (0..3).map(|_| rng.gen_range(0..40u64)).collect();
                    let point = s.point(&vals).expect("coords lie inside the space");
                    let mut n = SelectionNode::new(id, &s, point, ProtocolConfig::default());
                    n.set_dynamic(0, id % 4);
                    n
                })
                .collect();
            let points: Vec<Point> = nodes.iter().map(|n| n.point().clone()).collect();
            for n in &mut nodes {
                for _ in 0..24 {
                    let peer = rng.gen_range(0..NODES);
                    if peer != n.id() {
                        n.routing_mut().observe(peer, points[peer as usize].clone());
                    }
                }
            }
            let mut run = Run {
                nodes: Vec::new(),
                completed: Vec::new(),
                messages: 0,
                queries: Vec::new(),
                inbox: VecDeque::new(),
            };
            for i in 0..16u64 {
                let origin = rng.gen_range(DEAD + 1..NODES);
                let q = Query::builder(&s)
                    .min("a0", rng.gen_range(0..40u64))
                    .build()
                    .expect("well-formed query");
                let node = &mut nodes[origin as usize];
                let (_, outs) = match i % 4 {
                    0 => node.begin_query(q, Some(4), i),
                    1 => node.begin_query(q, None, i),
                    2 => node.begin_count_query(q, Vec::new(), i),
                    _ => {
                        let c = DynamicConstraint {
                            key: 0,
                            range: Range { lo: 1, hi: 2 },
                        };
                        node.begin_query_full(q, vec![c], None, i)
                    }
                };
                run.absorb(origin, outs);
            }
            let mut now = 16;
            loop {
                while let Some((from, to, msg)) = run.inbox.pop_front() {
                    now += 1;
                    let outs = nodes[to as usize].handle_message(from, msg, now);
                    run.absorb(to, outs);
                }
                let Some(next) = nodes.iter().filter_map(|n| n.next_timeout()).min() else {
                    break;
                };
                now = now.max(next);
                for n in &mut nodes {
                    let outs = n.poll_timeouts(now);
                    run.absorb(n.id(), outs);
                }
            }
            run.nodes = nodes;
            run
        }

        /// After a static cluster runs to quiescence every node's `pending`
        /// is empty, so no node owns a record; the records it used sit in
        /// this thread's pool, emptied.
        #[test]
        fn a_quiescent_cluster_owns_no_records() {
            let run = run(42);
            assert_eq!(run.completed.len(), 16, "every query completed");
            assert!(
                run.nodes.iter().any(|n| n.timeouts_fired() > 0),
                "the dead node forced a T(q) expiry"
            );
            for n in &run.nodes {
                assert!(n.pending.is_empty(), "node {} still holds a record", n.id());
            }
            RECORDS.with(|pool| {
                let pool = pool.borrow();
                assert!(!pool.is_empty(), "records went back to the pool");
                assert!(pool.len() <= POOLED_RECORDS);
                for r in pool.iter() {
                    assert!(r.query.is_none());
                    assert!(r.dynamic.is_empty() && r.matching.is_empty());
                    assert!(r.matched_ids.is_empty() && r.waiting.is_empty());
                    assert!(r.contacted_zero.is_empty() && r.visited_zero.is_empty());
                }
            });
        }

        /// Regression: a recycled record used to keep its `Arc<Query>`, so
        /// a parked record held the last query it served. Once every query
        /// has concluded everywhere and every message is gone, nothing may
        /// hold any of them.
        #[test]
        fn no_pooled_record_keeps_a_concluded_query() {
            let run = run(42);
            assert!(run.queries.len() > 16, "queries were forwarded");
            for q in &run.queries {
                assert!(q.upgrade().is_none(), "a concluded query is still held");
            }
        }

        /// The same seeded scenario run twice on one thread (the second
        /// time on a warm pool) and once on a fresh thread (a cold pool)
        /// leaves every node in the same state, completes every query the
        /// same way, and sends the same number of messages.
        #[test]
        fn outcomes_do_not_depend_on_the_pool() {
            type Outcome = (Vec<u64>, Vec<(QueryId, Vec<NodeId>, u64)>, u64);
            fn outcome(seed: u64) -> Outcome {
                let r = run(seed);
                (
                    r.nodes.iter().map(|n| n.state_fingerprint()).collect(),
                    r.completed,
                    r.messages,
                )
            }
            let first = outcome(7);
            assert!(
                RECORDS.with(|pool| !pool.borrow().is_empty()),
                "the pool is warm"
            );
            let warm = outcome(7);
            let cold = std::thread::spawn(|| outcome(7))
                .join()
                .expect("fresh thread ran");
            assert_eq!(warm, first, "a warm pool changed the run");
            assert_eq!(cold, first, "a cold pool changed the run");
        }
    }
}
