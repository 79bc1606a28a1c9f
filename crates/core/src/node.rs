// This file defines protocol invariants: every panic site states the
// invariant it relies on (`expect`), tests included.
#![warn(clippy::unwrap_used)]

use crate::fasthash::{FastMap, FastSet};
use std::cell::RefCell;
use std::sync::Arc;

use attrspace::{CellCoord, Level, Point, Query, Space};
use autosel_obs::{Event, ObsHandle, QueryRef};
use epigossip::{GossipMessage, NodeId, View};
use rand::Rng;

use crate::match_list::Segment;
use crate::messages::all_dims;
use crate::{
    Answer, DynamicConstraint, Match, MatchList, Message, NodeProfile, QueryId, QueryMsg,
    QueryRequest, ReplyMsg, RoutingTable,
};

/// Protocol tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// How long to wait for a REPLY from a neighbor before presuming it dead
    /// and continuing the traversal without its subtree (the paper's `T(q)`).
    pub query_timeout_ms: u64,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            query_timeout_ms: 5_000,
        }
    }
}

/// What a node asks of its runtime. [`SelectionNode`] and [`Host`](crate::Host)
/// push these, in order, into the caller's buffer; the runtime sends and
/// reports them in that order.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Transmit the protocol message `msg` to `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message to deliver.
        msg: Message,
    },
    /// Transmit the gossip message `msg` to `to` (written by a gossiping
    /// [`Host`](crate::Host)).
    Gossip {
        /// Destination node.
        to: NodeId,
        /// The message to deliver.
        msg: GossipMessage<NodeProfile>,
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
}

/// How many emptied records one thread keeps for reuse. A thread serves
/// its nodes' queries one message at a time, and each message concludes
/// at most one query, so a small pool stays hot however many nodes the
/// thread drives.
const POOLED_RECORDS: usize = 64;

thread_local! {
    /// Emptied [`PendingQuery`] records of the nodes this thread drives.
    /// A record bundles four containers (constraint and match lists, the
    /// matched-id set, the waiting table) that churn once per query per hop;
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

    /// The forward of query `qid` to `to` with the given scope: stamps it
    /// with a fresh attempt id and waits on `to` for that attempt until
    /// `deadline`.
    fn forward(
        &mut self,
        qid: QueryId,
        to: NodeId,
        level: i8,
        dims: u32,
        deadline: u64,
    ) -> QueryMsg {
        let attempt = self.next_attempt;
        self.next_attempt += 1;
        // Attempt monotonicity: every freshly stamped id must strictly
        // exceed everything still awaited, or a stale reply could
        // masquerade as the live one.
        debug_assert!(
            self.waiting.values().all(|&(_, a)| a < attempt),
            "query {qid} stamped non-monotone attempt {attempt}"
        );
        self.waiting.insert(to, (deadline, attempt));
        QueryMsg {
            id: qid,
            query: Arc::clone(
                self.query
                    .as_ref()
                    .expect("a pending record holds its query"),
            ),
            sigma: self.sigma,
            level,
            dims,
            dynamic: self.dynamic.clone(),
            count_only: self.count_only,
            attempt,
        }
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

/// How many concluded queries keep their final REPLY cached for
/// retransmission, evicted FIFO. A duplicate QUERY arriving *after* this
/// node already answered is met with a cached copy of the real reply
/// instead of an empty one, which makes upstream retries idempotent: the
/// retransmitted copy either fresh-merges (the original was lost) or is
/// dropped as stale by its attempt id.
///
/// An entry costs a few words, not a copy of the reply: it shares the sent
/// REPLY's [`MatchList`], which the upstream's own list shares in turn, so
/// the cache holds each match of a query once however many nodes along its
/// reply path keep the query cached.
const REPLY_CACHE: usize = 32;

/// A concluded query's final answer, kept for retransmission to late
/// duplicate QUERY deliveries (see [`REPLY_CACHE`]).
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
/// Sans-IO: every step takes the current time and pushes [`Output`]s into
/// its caller's buffer; the caller delivers messages and schedules expiries
/// by [`next_timeout`](Self::next_timeout).
#[derive(Debug)]
pub struct SelectionNode {
    id: NodeId,
    space: Space,
    point: Point,
    coord: CellCoord,
    routing: RoutingTable,
    /// Moves whenever the routing table may have been written; see
    /// [`routing_stamp`](Self::routing_stamp).
    routing_stamp: u32,
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
    /// [`REPLY_CACHE`]: a ring, sized to what it holds,
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
            routing_stamp: 0,
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
    /// This exists so the simulator's explorer (`overlay_sim::explore`) can
    /// prove it detects the race (a historical regression) within its
    /// schedule budget. It is never enabled by any runtime; the flag costs
    /// nothing on the hot path (checked only after the duplicate-receipt
    /// branch is already taken).
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
    /// Moves the [`routing_stamp`](Self::routing_stamp).
    pub fn routing_mut(&mut self) -> &mut RoutingTable {
        self.routing_written();
        &mut self.routing
    }

    /// The routing table's change stamp: it moves on every call that can
    /// write the table — [`routing_mut`](Self::routing_mut),
    /// [`sync_from_view`](Self::sync_from_view), an expiry and a peer
    /// reported unreachable — so equal readings mean the table was not
    /// written in between.
    pub fn routing_stamp(&self) -> u32 {
        self.routing_stamp
    }

    fn routing_written(&mut self) {
        self.routing_stamp = self.routing_stamp.wrapping_add(1);
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
    /// node's lifetime: it is **never reset** by query completion, and only
    /// returns to zero when the node value itself is rebuilt (e.g. a
    /// simulated crash-restart constructs a fresh `SelectionNode`). Each
    /// fired timeout is also emitted as an [`Event::TimeoutFired`] when an
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
            let mut ids: Vec<NodeId> = p.matched_ids.iter().copied().collect();
            ids.sort_unstable();
            h.word(ids.len() as u64);
            for n in ids {
                h.word(n);
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

    /// Rebuilds the routing table from a gossip semantic view: the view of
    /// a stack advertising this node's profile and ranking with
    /// [`SlotSelector`](crate::SlotSelector), whose classes are the
    /// entries' [`slot_class`](crate::slot_class)es from this node. `now`
    /// is only used to timestamp the [`Event::ViewChange`] emission; the
    /// rebuild itself is time-independent.
    pub fn sync_from_view<R: Rng + ?Sized>(
        &mut self,
        view: &View<NodeProfile, u64>,
        now: u64,
        rng: &mut R,
    ) {
        self.routing_written();
        let entries = view.as_slice().iter().zip(view.classes());
        let changed = self.routing.rebuild(
            entries.map(|(d, &class)| (d.id, d.profile.point(), class)),
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
    /// user contacts *any* node and passes the request to it.
    ///
    /// Returns the query id and pushes the initial outputs onto `out`
    /// (forwarded messages, or an immediate [`Output::Completed`] if this
    /// node alone satisfies it).
    pub fn begin(&mut self, request: QueryRequest, now: u64, out: &mut Vec<Output>) -> QueryId {
        let id = QueryId {
            origin: self.id,
            seq: self.seq,
        };
        self.seq += 1;
        let msg = QueryMsg {
            id,
            sigma: request.sigma(),
            count_only: request.answer == Answer::Count,
            query: Arc::new(request.query),
            level: self.space.max_level() as i8,
            dims: all_dims(self.space.dims()),
            dynamic: request.dynamic,
            attempt: 0,
        };
        self.accept_query(None, msg, now, out);
        id
    }

    /// [`begin`](Self::begin) enumerating the matches of `query`,
    /// σ-bounded if `sigma` is given, into a fresh `Vec`. This and the other
    /// two `Vec` forms, [`handle_message`](Self::handle_message) and
    /// [`poll_timeouts`](Self::poll_timeouts), are kept for the benchmark's
    /// protocol probes and for tests; runtimes drive a node through
    /// [`Host`](crate::Host), which writes into their buffer.
    pub fn begin_query(
        &mut self,
        query: Query,
        sigma: Option<u32>,
        now: u64,
    ) -> (QueryId, Vec<Output>) {
        let mut out = Vec::new();
        let id = self.begin(QueryRequest::matches(query, sigma), now, &mut out);
        (id, out)
    }

    /// Processes an incoming protocol message into a fresh `Vec`.
    pub fn handle_message(&mut self, from: NodeId, msg: Message, now: u64) -> Vec<Output> {
        let mut out = Vec::new();
        self.receive(from, msg, now, &mut out);
        out
    }

    /// Processes an incoming protocol message.
    pub(crate) fn receive(&mut self, from: NodeId, msg: Message, now: u64, out: &mut Vec<Output>) {
        match msg {
            Message::Query(q) => self.accept_query(Some(from), q, now, out),
            Message::Reply(r) => self.accept_reply(from, r, now, out),
        }
    }

    /// The earliest deadline among in-flight queries, for driver scheduling.
    pub fn next_timeout(&self) -> Option<u64> {
        self.pending
            .values()
            .flat_map(|p| p.waiting.values().map(|&(deadline, _)| deadline))
            .min()
    }

    /// Expires overdue neighbors (the paper's `T(q)`) into a fresh `Vec`,
    /// reporting them to no one.
    pub fn poll_timeouts(&mut self, now: u64) -> Vec<Output> {
        let mut out = Vec::new();
        self.expire(now, &mut out, |_| {});
        out
    }

    /// Expires overdue neighbors (the paper's `T(q)`): each is dropped from
    /// the routing table and reported to `gone`, and the affected queries
    /// are re-forwarded or concluded.
    pub(crate) fn expire(&mut self, now: u64, out: &mut Vec<Output>, mut gone: impl FnMut(NodeId)) {
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
            self.routing_stamp = self.routing_stamp.wrapping_add(1);
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
                gone(peer);
            }
            self.settle(qid, now, out);
        }
    }

    /// Transport-level failure feedback: the driver discovered that `peer`
    /// is unreachable (connection refused / send failed). The link is
    /// dropped and every query waiting on `peer` continues immediately with
    /// its remaining dimensions — the subtree behind the broken link is
    /// simply skipped, which is the paper's §6.6 "message is dropped"
    /// behaviour on a real transport (a dead TCP endpoint fails fast).
    pub(crate) fn peer_unreachable(&mut self, peer: NodeId, now: u64, out: &mut Vec<Output>) {
        self.routing_written();
        self.routing.remove(peer);
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
            self.settle(qid, now, out);
        }
    }

    /// The query stopped waiting on someone. Once it waits on no one, it
    /// concludes if σ is met and otherwise continues with its remaining
    /// scope — the subtree it gave up on is skipped.
    fn settle(&mut self, qid: QueryId, now: u64, out: &mut Vec<Output>) {
        let p = self.pending.get(&qid).expect("a settling query is pending");
        if !p.waiting.is_empty() {
            return;
        }
        if p.sigma_met() {
            self.conclude(qid, now, out);
        } else {
            self.continue_query(qid, now, out);
        }
    }

    /// The `receive_query` procedure of Fig. 5.
    fn accept_query(
        &mut self,
        from: Option<NodeId>,
        msg: QueryMsg,
        now: u64,
        out: &mut Vec<Output>,
    ) {
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
            let Some(from) = from else { return };
            // Answer `from` with the cached final reply, if it has one,
            // or empty.
            let cached = if self.buggy_empty_dedup_reply && self.pending.contains_key(&msg.id) {
                // Mutation hook (see `inject_empty_dedup_reply_bug`): the
                // historical behaviour answered *every* duplicate empty,
                // even mid-flight — the race the explorer must detect.
                None
            } else if let Some(p) = self.pending.get_mut(&msg.id) {
                if p.reply_to == Some(from) {
                    // Still in flight for this same upstream: stay silent —
                    // the real REPLY will answer it. Track the newest
                    // attempt so a genuine retry still correlates.
                    p.attempt = msg.attempt;
                    return;
                }
                // In flight, but the duplicate came over a different edge
                // (stale-view cross-path): that sender's subtree gets
                // nothing from us — answer empty immediately.
                None
            } else {
                // Concluded: retransmit the cached final reply to the
                // upstream we originally answered (retries become idempotent
                // — the copy fresh-merges iff the original was lost, else its
                // attempt id marks it stale). Anyone else gets an empty reply.
                let c = self.reply_cache.iter().find(|c| c.id == msg.id);
                c.filter(|c| c.to == from)
            };
            let (matching, count) =
                cached.map_or((MatchList::new(), 0), |c| (c.matching.clone(), c.count));
            let reply = ReplyMsg {
                id: msg.id,
                matching,
                count,
                attempt: msg.attempt,
            };
            out.push(Output::Send {
                to: from,
                msg: Message::Reply(reply),
            });
            return;
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
        if matched {
            p.add_own_match(Match {
                node: self.id,
                values: self.point.clone(),
            });
        }
        let qid = msg.id;
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
        self.settle(qid, now, out);
    }

    /// The `receive_reply` procedure of Fig. 5.
    fn accept_reply(&mut self, from: NodeId, msg: ReplyMsg, now: u64, out: &mut Vec<Output>) {
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
            return;
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
        self.settle(msg.id, now, out);
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
    fn continue_query(&mut self, qid: QueryId, now: u64, out: &mut Vec<Output>) {
        let deadline = now.saturating_add(self.config.query_timeout_ms);
        let d = self.space.dims();
        let p: &mut PendingQuery = self.pending.get_mut(&qid).expect("pending query");
        let query = p.query.as_ref().expect("a pending record holds its query");

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
                if let Some(to) = self.routing.neighbor(level, dim) {
                    let fwd = p.forward(qid, to, p.level, p.dims, deadline);
                    self.obs.emit(|| Event::QueryForwarded {
                        at: now,
                        query: qref(qid),
                        from: self.id,
                        to,
                        level: fwd.level,
                        attempt: fwd.attempt,
                    });
                    out.push(Output::Send {
                        to,
                        msg: Message::Query(fwd),
                    });
                    return;
                }
                // No known node in that subcell: treat as empty and keep
                // scanning (delivery may suffer only if the view is stale).
            }
            p.level -= 1;
            p.dims = all_dims(d);
        }

        if p.level == 0 {
            // Leaf level: hand the query to every matching C0 neighbor; they
            // answer directly (level -1). The frontier drops to -1 at once,
            // so this fan-out happens once per record.
            let sent = out.len();
            let targets: Vec<NodeId> = self
                .routing
                .zero_neighbors()
                .filter(|&(nid, npoint)| query.matches(npoint) && !p.matched_ids.contains(&nid))
                .map(|(nid, _)| nid)
                .collect();
            for to in targets {
                let fwd = p.forward(qid, to, -1, 0, deadline);
                self.obs.emit(|| Event::QueryForwarded {
                    at: now,
                    query: qref(qid),
                    from: self.id,
                    to,
                    level: -1,
                    attempt: fwd.attempt,
                });
                out.push(Output::Send {
                    to,
                    msg: Message::Query(fwd),
                });
            }
            p.level = -1;
            if out.len() > sent {
                return;
            }
        }

        if p.waiting.is_empty() {
            self.conclude(qid, now, out);
        }
    }

    /// Finishes a query at this node: answer upstream, or report completion
    /// when this node originated it.
    fn conclude(&mut self, qid: QueryId, now: u64, out: &mut Vec<Output>) {
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
                // Keep the final answer around so duplicate QUERYs arriving
                // after this point get the real reply again instead of a
                // results-destroying empty one.
                let entry = CachedReply {
                    id: qid,
                    to: upstream,
                    matching: matching.clone(),
                    count,
                };
                let held = self.reply_cache.len();
                if held < REPLY_CACHE {
                    if held == self.reply_cache.capacity() {
                        // Exact growth while small (most nodes of a large
                        // overlay hold an entry or two), then doubling up
                        // to the bound.
                        let grow = if held < 4 {
                            1
                        } else {
                            held.min(REPLY_CACHE - held)
                        };
                        self.reply_cache.reserve_exact(grow);
                    }
                    self.reply_cache.push(entry);
                } else {
                    // Full: the oldest entry makes way.
                    let oldest = self.reply_cache_next as usize;
                    self.reply_cache[oldest] = entry;
                    self.reply_cache_next = ((oldest + 1) % REPLY_CACHE) as u32;
                }
                out.push(Output::Send {
                    to: upstream,
                    msg: Message::Reply(ReplyMsg {
                        id: qid,
                        matching,
                        count,
                        attempt,
                    }),
                });
            }
            None => {
                self.obs.emit(|| Event::QueryCompleted {
                    at: now,
                    query: qref(qid),
                    node: self.id,
                    count,
                });
                out.push(Output::Completed {
                    id: qid,
                    matches: matching.to_vec(),
                    count,
                });
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
                to.receive(from, msg.clone(), now, &mut produced);
            }
        }
        produced
    }

    /// Where `out`'s first output goes, and what it sends.
    fn first_send(out: &[Output]) -> (NodeId, &Message) {
        match out.first() {
            Some(Output::Send { to, msg }) => (*to, msg),
            _ => panic!("expected a send first: {out:?}"),
        }
    }

    /// The REPLY that `out` starts with, and where it goes.
    fn first_reply(out: &[Output]) -> (NodeId, &ReplyMsg) {
        match first_send(out) {
            (to, Message::Reply(r)) => (to, r),
            _ => panic!("expected a REPLY first: {out:?}"),
        }
    }

    /// The first completion in `out`: its id, matches and count.
    fn completion(out: &[Output]) -> (QueryId, &[Match], u64) {
        let done = out.iter().find_map(|o| match o {
            Output::Completed { id, matches, count } => Some((*id, &matches[..], *count)),
            _ => None,
        });
        done.unwrap_or_else(|| panic!("no completion: {out:?}"))
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
        let (got, matches, _) = completion(&out);
        assert_eq!(got, id);
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
        assert_eq!(out.len(), 1);
        assert!(completion(&out).1.is_empty());
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
        assert!(matches!(first_send(&out), (2, Message::Query(_))));
        let replies = deliver(&mut b, 1, &out, 1);
        // B matches, has no further links, replies.
        let (to, r) = first_reply(&replies);
        assert_eq!(to, 1);
        assert_eq!(r.matching.len(), 1);
        let done = deliver(&mut a, 2, &replies, 2);
        assert_eq!(done.len(), 1);
        let (id, matches, _) = completion(&done);
        assert_eq!(id, qid);
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
        let (to, r) = first_reply(&leaf_out);
        assert_eq!(to, 1);
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
        let (to, r) = first_reply(&first);
        assert_eq!(to, 9);
        assert_eq!(r.matching.len(), 1);
        assert_eq!(r.attempt, 3, "reply echoes the query's attempt id");

        let second = a.handle_message(9, Message::Query(msg.clone()), 1);
        let (to, r) = first_reply(&second);
        assert_eq!(to, 9);
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
        let (to, r) = first_reply(&third);
        assert_eq!(to, 8);
        assert!(r.matching.is_empty(), "cross-path duplicate answered empty");
        assert_eq!(a.duplicate_receipts(), 2);
    }

    /// The cache is FIFO-bounded: concluding one upstream query more than
    /// [`REPLY_CACHE`] evicts the oldest entry, whose duplicates then answer
    /// empty again.
    #[test]
    fn reply_cache_evicts_fifo_at_its_bound() {
        let mut a = node(1, [5, 5]);
        let last = REPLY_CACHE as u32;
        for seq in 0..=last {
            let msg = leaf_query(QueryId { origin: 9, seq }, 1);
            let _ = a.handle_message(9, Message::Query(msg), u64::from(seq));
        }
        let dup = |a: &mut SelectionNode, seq: u32| {
            let out = a.handle_message(
                9,
                Message::Query(leaf_query(QueryId { origin: 9, seq }, 1)),
                100,
            );
            assert_eq!(out.len(), 1, "{out:?}");
            first_reply(&out).1.matching.len()
        };
        // seq 0 was evicted, seqs 1 to `last` are still cached.
        assert_eq!(dup(&mut a, 0), 0, "evicted entry answers empty");
        assert_eq!(dup(&mut a, 1), 1, "oldest kept entry still cached");
        assert_eq!(dup(&mut a, last), 1, "recent entry still cached");
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
            attempt: 7,
        };
        let first = b.handle_message(1, Message::Query(msg.clone()), 0);
        let forwarded = matches!(first_send(&first), (3, Message::Query(_)));
        assert!(forwarded, "query forwarded into its subtree: {first:?}");
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
        let (mut out, mut failed) = (Vec::new(), Vec::new());
        a.expire(
            ProtocolConfig::default().query_timeout_ms,
            &mut out,
            |peer| failed.push(peer),
        );
        assert_eq!(failed, [2], "the expiry reports the silent neighbor");
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
        let (_, matches, _) = completion(&out);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].node, 1);
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
        let (first, _) = first_send(&out1);
        let dup = Match {
            node: 2,
            values: b_point.clone(),
        };
        let mut out = a.handle_message(
            first,
            Message::Reply(ReplyMsg {
                id: qid,
                matching: vec![dup.clone(), dup].into(),
                count: 2,
                attempt: 1,
            }),
            1,
        );
        // Traversal continues or concludes; once concluded, count node 2 once.
        if a.pending_len() > 0 {
            // Another branch outstanding: time it out to conclude.
            out.extend(a.poll_timeouts(u64::MAX));
        }
        let (_, matches, _) = completion(&out);
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
        let mut out = Vec::new();
        let qid = a.begin(QueryRequest::count(q), 0, &mut out);
        let (first, _) = first_send(&out);

        let reply = Message::Reply(ReplyMsg {
            id: qid,
            matching: MatchList::new(),
            count: 5,
            attempt: 1,
        });
        let mut outs = a.handle_message(first, reply.clone(), 1);
        assert_eq!(a.pending_len(), 1, "second subcell still outstanding");
        // The same reply delivered again (a duplication fault).
        outs.extend(a.handle_message(first, reply, 2));
        // Time out the remaining branch so the query concludes.
        outs.extend(a.poll_timeouts(u64::MAX));
        let (_, _, total) = completion(&outs);
        assert_eq!(total, 5, "duplicated reply merged more than once");
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
        let mut out = Vec::new();
        let qid = a.begin(QueryRequest::count(q), 0, &mut out);
        let (first, Message::Query(fwd)) = first_send(&out) else {
            panic!("{out:?}")
        };

        // The downstream leaf B processes the forward, then a duplicated
        // copy of the same forward: the second answer is the cached
        // retransmission of the first, byte-identical.
        let mut b = SelectionNode::new(
            first,
            &s,
            s.point(&[70, 70]).expect("coords lie inside the space"),
            ProtocolConfig::default(),
        );
        let r1 = b.handle_message(1, Message::Query(fwd.clone()), 1);
        let r2 = b.handle_message(1, Message::Query(fwd.clone()), 2);
        let (_, reply1) = first_reply(&r1);
        let (_, reply2) = first_reply(&r2);
        assert_eq!(reply1, reply2, "retransmission replays the real reply");
        assert_eq!(reply1.count, 1, "B matched itself");

        // Both copies reach A while it still waits on the second subtree.
        let mut outs = a.handle_message(first, Message::Reply(reply1.clone()), 3);
        outs.extend(a.handle_message(first, Message::Reply(reply2.clone()), 4));
        assert_eq!(a.pending_len(), 1, "second subcell still outstanding");
        outs.extend(a.poll_timeouts(u64::MAX));
        let (id, _, total) = completion(&outs);
        assert_eq!(id, qid);
        assert_eq!(total, 1, "retransmitted count added more than once");
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
        let (to, r) = first_reply(&leaf);
        assert_eq!(to, 1);
        let child = r.matching.clone();
        let up = deliver(&mut u, 2, &leaf, 2);
        let (to, up) = first_reply(&up);
        assert_eq!(to, 9);

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
        let (_, r) = first_reply(&leaf);
        let child = r.matching.clone();
        let up = deliver(&mut relay, 2, &leaf, 5);
        let (_, up) = first_reply(&up);
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
                        Output::Gossip { .. } => unreachable!("a bare node never gossips"),
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
                let request = match i % 4 {
                    0 => QueryRequest::matches(q, Some(4)),
                    1 => QueryRequest::matches(q, None),
                    2 => QueryRequest::count(q),
                    _ => {
                        let c = DynamicConstraint {
                            key: 0,
                            range: Range { lo: 1, hi: 2 },
                        };
                        QueryRequest {
                            dynamic: vec![c],
                            ..q.into()
                        }
                    }
                };
                let mut outs = Vec::new();
                nodes[origin as usize].begin(request, i, &mut outs);
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
