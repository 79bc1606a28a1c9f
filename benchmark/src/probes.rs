//! Per-layer probes: each times one layer's public functions from outside
//! the crate, on inputs harvested from a real sans-IO run of the protocol
//! (a benchmark-owned message loop over oracle-wired nodes, and a gossip
//! mesh), so the numbers are the cost of the calls the workloads make.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use attrspace::{CellCoord, Point, Query, Space};
use autosel_core::bootstrap::{wire_perfect, OracleWiring};
use autosel_core::{
    Message, NeighborEntry, NodeProfile, Output, ProtocolConfig, RoutingTable, SelectionNode,
    SlotSelector,
};
use autosel_net::{wire, NetMessage};
use autosel_obs::{Event, Observer, QueryRef, Registry};
use epigossip::{GossipConfig, GossipMessage, GossipStack, Layer, NodeId};
use overlay_sim::workload::best_case_query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::Report;

/// Wall-clock budget of one timing loop.
const BUDGET: Duration = Duration::from_millis(100);

/// Runs `batch` (which returns how many operations it performed) until the
/// budget is spent; returns nanoseconds per operation and the operations
/// timed.
fn per_op(mut batch: impl FnMut() -> u64) -> (f64, u64) {
    let start = Instant::now();
    let mut ops = 0;
    while start.elapsed() < BUDGET {
        ops += batch();
    }
    (start.elapsed().as_nanos() as f64 / ops.max(1) as f64, ops)
}

fn random_points(space: &Space, n: usize, rng: &mut StdRng) -> Vec<Point> {
    (0..n)
        .map(|_| {
            let vals: Vec<u64> = (0..space.dims()).map(|_| rng.gen_range(0..80u64)).collect();
            space.point(&vals).expect("values within the space")
        })
        .collect()
}

/// Oracle-wired `SelectionNode`s and an in-order message queue: the
/// smallest driver the sans-IO core runs under.
struct MessageLoop {
    nodes: Vec<SelectionNode>,
    queue: VecDeque<(NodeId, NodeId, Message)>,
    now: u64,
    /// In-flight QUERY and the largest REPLY seen, kept for the wire probes.
    seen_query: Option<Message>,
    largest_reply: Option<Message>,
}

impl MessageLoop {
    fn new(space: &Space, n: usize, rng: &mut StdRng) -> Self {
        let mut nodes: Vec<SelectionNode> = random_points(space, n, rng)
            .into_iter()
            .enumerate()
            .map(|(i, p)| SelectionNode::new(i as NodeId, space, p, ProtocolConfig::default()))
            .collect();
        wire_perfect(&mut nodes, rng);
        MessageLoop {
            nodes,
            queue: VecDeque::new(),
            now: 0,
            seen_query: None,
            largest_reply: None,
        }
    }

    fn enqueue(&mut self, from: NodeId, outputs: Vec<Output>) {
        for o in outputs {
            if let Output::Send { to, msg } = o {
                self.queue.push_back((from, to, msg));
            }
        }
    }

    fn begin(&mut self, origin: NodeId, query: Query, sigma: Option<u32>) {
        let (_, outputs) = self.nodes[origin as usize].begin_query(query, sigma, self.now);
        self.enqueue(origin, outputs);
    }

    /// Delivers up to `limit` queued messages; returns how many.
    fn deliver(&mut self, limit: u64, harvest: bool) -> u64 {
        let mut handled = 0;
        while handled < limit {
            let Some((from, to, msg)) = self.queue.pop_front() else {
                break;
            };
            if harvest {
                match &msg {
                    Message::Query(_) if self.seen_query.is_none() => {
                        self.seen_query = Some(msg.clone());
                    }
                    Message::Reply(r) => {
                        let best = match &self.largest_reply {
                            Some(Message::Reply(b)) => b.matching.len(),
                            _ => 0,
                        };
                        if r.matching.len() >= best {
                            self.largest_reply = Some(msg.clone());
                        }
                    }
                    Message::Query(_) => {}
                }
            }
            self.now += 1;
            let outputs = self.nodes[to as usize].handle_message(from, msg, self.now);
            self.enqueue(to, outputs);
            handled += 1;
        }
        handled
    }
}

/// `(QUERY, largest REPLY)` of one query on a 60-node population shaped like
/// the live workloads', for the wire probes.
fn harvest_live_messages(seed: u64, sigma: Option<u32>) -> (Message, Message) {
    let space = crate::live::space();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rig = MessageLoop::new(&space, crate::live::NODES, &mut rng);
    // Origins that match answer some of σ themselves; any origin will do
    // for harvesting as long as the query is forwarded at all.
    for origin in 0..crate::live::NODES as NodeId {
        rig.begin(origin, crate::live::query(&space), sigma);
        rig.deliver(u64::MAX, true);
        if let (Some(q), Some(r)) = (&rig.seen_query, &rig.largest_reply) {
            return (q.clone(), r.clone());
        }
    }
    panic!("no query was forwarded on the harvest population");
}

fn wire_probe(rep: &mut Report, name: &'static [&'static str; 3], space: &Space, msg: &NetMessage) {
    let bytes = wire::encode(msg);
    assert_eq!(
        wire::decode(space, bytes.clone()).as_ref(),
        Ok(msg),
        "{} round-trips",
        name[0]
    );
    let (ns, n) = per_op(|| {
        for _ in 0..256 {
            black_box(wire::encode(black_box(msg)));
        }
        256
    });
    rep.set(name[0], ns, n, "encode calls");
    let (ns, n) = per_op(|| {
        for _ in 0..256 {
            black_box(wire::decode(space, black_box(bytes.clone())).expect("decodes"));
        }
        256
    });
    rep.set(name[1], ns, n, "decode calls");
    rep.set(name[2], bytes.len() as f64, 1, "harvested message");
}

/// Which optional probes a workload's traced run includes: only the layers
/// it exercises, so a bypassed layer reads 0 in its report. attrspace, the
/// core message loop and obs always run. `wire` needs `gossip` (one of its
/// inputs is a Request harvested from the mesh).
#[derive(Debug, Clone, Copy)]
pub struct ProbeSet {
    pub oracle: bool,
    pub gossip: bool,
    pub wire: bool,
}

/// Runs the probes and records their metrics into `rep`.
pub fn run(seed: u64, set: ProbeSet, rep: &mut Report) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x009E_0BE5);
    attrspace_and_core(&mut rng, rep);
    if set.oracle {
        oracle(&mut rng, rep);
    }
    let gossip_request = set.gossip.then(|| gossip(&mut rng, rep));
    if set.wire {
        let live_space = crate::live::space();
        let (query, reply8) = harvest_live_messages(seed, Some(crate::live::SIGMA));
        let (_, reply30) = harvest_live_messages(seed, None);
        let request = gossip_request.expect("the wire probes take a Request from the gossip mesh");
        let inputs = [
            (
                &[
                    "net.wire.encode_query_ns",
                    "net.wire.decode_query_ns",
                    "net.wire.query_bytes",
                ],
                NetMessage::Protocol(query),
            ),
            (
                &[
                    "net.wire.encode_reply8_ns",
                    "net.wire.decode_reply8_ns",
                    "net.wire.reply8_bytes",
                ],
                NetMessage::Protocol(reply8),
            ),
            (
                &[
                    "net.wire.encode_reply30_ns",
                    "net.wire.decode_reply30_ns",
                    "net.wire.reply30_bytes",
                ],
                NetMessage::Protocol(reply30),
            ),
            (
                &[
                    "net.wire.encode_gossip_ns",
                    "net.wire.decode_gossip_ns",
                    "net.wire.gossip_bytes",
                ],
                NetMessage::Gossip(request),
            ),
        ];
        for (names, msg) in &inputs {
            wire_probe(rep, names, &live_space, msg);
        }
    }
    registry(rep);
}

/// attrspace geometry and the core message loop, on the static simulator
/// workload's space (5 dimensions) with 1 000 oracle-wired nodes.
fn attrspace_and_core(rng: &mut StdRng, rep: &mut Report) {
    let space = crate::sim_static::space();
    let mut rig = MessageLoop::new(&space, 1_000, rng);
    let points: Vec<Point> = rig.nodes.iter().map(|n| n.point().clone()).collect();
    let coords: Vec<CellCoord> = rig.nodes.iter().map(|n| n.coord().clone()).collect();
    let queries: Vec<Query> = (0..64)
        .map(|_| best_case_query(&space, crate::sim_static::SELECTIVITY, rng))
        .collect();

    let (ns, n) = per_op(|| {
        for p in &points {
            black_box(space.cell_coord(black_box(p)));
        }
        points.len() as u64
    });
    rep.set("attrspace.cell_coord_ns", ns, n, "calls");

    let cells = u64::from(space.max_level()) * space.dims() as u64;
    let (ns, n) = per_op(|| {
        for c in coords.iter().take(64) {
            for level in 1..=space.max_level() {
                for dim in 0..space.dims() {
                    black_box(black_box(c).neighboring_cell(level, dim));
                }
            }
        }
        64 * cells
    });
    rep.set("attrspace.neighboring_cell_ns", ns, n, "calls");

    let (ns, n) = per_op(|| {
        for pair in coords.windows(2) {
            if pair[0] != pair[1] {
                black_box(black_box(&pair[0]).classify(black_box(&pair[1])));
            }
        }
        coords.len() as u64 - 1
    });
    rep.set("attrspace.classify_ns", ns, n, "calls");

    // The simulator's per-query truth scan walks one flat column of all N
    // nodes' values; a population that fits in cache would flatter it.
    let dims = space.dims();
    let column: Vec<u64> = (0..crate::sim_static::NODES * dims)
        .map(|_| rng.gen_range(0..80u64))
        .collect();
    let mut next = 0;
    let (ns, n) = per_op(|| {
        next = (next + 1) % queries.len();
        let q = black_box(&queries[next]);
        black_box(
            column
                .chunks_exact(dims)
                .filter(|v| q.matches_values(v))
                .count(),
        );
        crate::sim_static::NODES as u64
    });
    rep.set(
        "attrspace.query_matches_ns",
        ns,
        n,
        "calls over a 100000-node column",
    );

    // The message loop: σ-bounded and unbounded queries alternate, as the
    // workloads mix them.
    let (mut begin_ns, mut begun, mut handle_ns, mut handled) = (0u128, 0u64, 0u128, 0u64);
    let (mut poll_ns, mut polled) = (0u128, 0u64);
    let started = Instant::now();
    while started.elapsed() < 3 * BUDGET {
        let origin = rng.gen_range(0..rig.nodes.len()) as NodeId;
        let query = queries[begun as usize % queries.len()].clone();
        let sigma = (begun % 2 == 0).then_some(crate::sim_static::SIGMA);
        let t = Instant::now();
        rig.begin(origin, query, sigma);
        begin_ns += t.elapsed().as_nanos();
        begun += 1;
        let t = Instant::now();
        handled += rig.deliver(8, false);
        handle_ns += t.elapsed().as_nanos();
        // Mid-flight, nothing overdue: the poll every live peer makes every
        // 20 ms and every simulated node makes per deadline.
        let t = Instant::now();
        for node in &mut rig.nodes {
            black_box(node.poll_timeouts(rig.now));
        }
        poll_ns += t.elapsed().as_nanos();
        polled += rig.nodes.len() as u64;
        let t = Instant::now();
        handled += rig.deliver(u64::MAX, false);
        handle_ns += t.elapsed().as_nanos();
    }
    rep.set(
        "core.begin_query_ns",
        begin_ns as f64 / begun.max(1) as f64,
        begun,
        "calls",
    );
    rep.set(
        "core.handle_message_ns",
        handle_ns as f64 / handled.max(1) as f64,
        handled,
        "messages",
    );
    rep.set(
        "core.poll_timeouts_ns",
        poll_ns as f64 / polled.max(1) as f64,
        polled,
        "calls",
    );
}

/// Oracle index build and per-table wiring at the static workload's size.
fn oracle(rng: &mut StdRng, rep: &mut Report) {
    let space = crate::sim_static::space();
    let entries: Vec<NeighborEntry> = random_points(&space, crate::sim_static::NODES, rng)
        .into_iter()
        .enumerate()
        .map(|(i, point)| NeighborEntry {
            id: i as NodeId,
            coord: space.cell_coord(&point),
            point,
        })
        .collect();
    let mut builds = Vec::new();
    let mut wiring = None;
    for _ in 0..3 {
        let e = entries.clone();
        drop(wiring.take());
        let t = Instant::now();
        wiring = Some(OracleWiring::new(&space, e));
        builds.push(t.elapsed().as_secs_f64() * 1e3);
    }
    rep.set(
        "core.oracle_new_ms",
        crate::stats::median(&builds),
        3,
        "builds of 100000 entries",
    );
    let wiring = wiring.expect("built");
    let mut i = 0;
    let (ns, n) = per_op(|| {
        for _ in 0..64 {
            i = (i + 7_919) % entries.len();
            let mut table = RoutingTable::new(space.clone(), entries[i].coord.clone());
            black_box(wiring.wire_table(i, &mut table, rng));
        }
        64
    });
    rep.set(
        "core.wire_table_ns",
        ns,
        n,
        "tables (incl. RoutingTable::new)",
    );
}

/// A 64-stack gossip mesh over the live workloads' space; also times
/// `sync_from_view` on the converged semantic views and returns a harvested
/// gossip Request.
fn gossip(rng: &mut StdRng, rep: &mut Report) -> GossipMessage<NodeProfile> {
    const MESH: usize = 64;
    let space = crate::live::space();
    let config = GossipConfig::default();
    let mut nodes: Vec<SelectionNode> = random_points(&space, MESH, rng)
        .into_iter()
        .enumerate()
        .map(|(i, p)| SelectionNode::new(i as NodeId, &space, p, ProtocolConfig::default()))
        .collect();
    let mut stacks: Vec<GossipStack<NodeProfile>> = nodes
        .iter()
        .map(|n| GossipStack::new(n.id(), n.profile(), config.clone(), SlotSelector::default()))
        .collect();
    for (i, stack) in stacks.iter_mut().enumerate() {
        for _ in 0..3 {
            let other = rng.gen_range(0..MESH);
            if other != i {
                stack.introduce(other as NodeId, nodes[other].profile());
            }
        }
    }

    let (mut tick_ns, mut ticks, mut handle_ns, mut handles) = (0u128, 0u64, 0u128, 0u64);
    let mut request = None;
    let mut now = 0;
    let mut round = |stacks: &mut Vec<GossipStack<NodeProfile>>, rng: &mut StdRng, timed: bool| {
        now += config.period_ms;
        // Indexed: a tick's messages go to other stacks of the same vector.
        #[allow(clippy::needless_range_loop)]
        for i in 0..MESH {
            let t = Instant::now();
            let out = stacks[i].tick(now, rng);
            if timed {
                tick_ns += t.elapsed().as_nanos();
                ticks += 1;
            }
            for (dst, msg) in out {
                if let GossipMessage::Request {
                    layer: Layer::Semantic,
                    ..
                } = &msg
                {
                    request = Some(msg.clone());
                }
                let t = Instant::now();
                let replies = stacks[dst as usize].handle(i as NodeId, msg, rng);
                let n = 1 + replies.len() as u64;
                for (back, reply) in replies {
                    black_box(stacks[back as usize].handle(dst, reply, rng));
                }
                if timed {
                    handle_ns += t.elapsed().as_nanos();
                    handles += n;
                }
            }
        }
    };
    for _ in 0..30 {
        round(&mut stacks, rng, false);
    }
    let started = Instant::now();
    while started.elapsed() < 2 * BUDGET {
        round(&mut stacks, rng, true);
    }
    rep.set(
        "gossip.tick_ns",
        tick_ns as f64 / ticks.max(1) as f64,
        ticks,
        "ticks",
    );
    rep.set(
        "gossip.handle_ns",
        handle_ns as f64 / handles.max(1) as f64,
        handles,
        "messages",
    );
    rep.set(
        "gossip.msgs_per_round",
        handles as f64 / ticks.max(1) as f64,
        ticks,
        "node-rounds",
    );

    let views: Vec<_> = stacks.iter().map(|s| s.semantic_view().clone()).collect();
    let (ns, n) = per_op(|| {
        for (node, view) in nodes.iter_mut().zip(&views) {
            node.sync_from_view(black_box(view), now, rng);
        }
        MESH as u64
    });
    rep.set("core.sync_from_view_ns", ns, n, "calls");
    request.expect("the mesh gossiped")
}

/// `Registry::on_event` on the event mix one routed hop produces.
fn registry(rep: &mut Report) {
    let reg = Registry::new();
    let query = QueryRef::new(1, 0);
    let events = [
        Event::QueryForwarded {
            at: 1,
            query,
            from: 1,
            to: 2,
            level: 2,
            attempt: 1,
        },
        Event::QueryReceived {
            at: 2,
            query,
            node: 2,
            parent: 1,
            level: 2,
            matched: true,
            duplicate: false,
        },
        Event::ReplySent {
            at: 3,
            query,
            node: 2,
            to: 1,
            count: 1,
            attempt: 1,
        },
        Event::ReplyMerged {
            at: 4,
            query,
            node: 1,
            from: 2,
            count: 1,
            fresh: true,
            attempt: 1,
        },
    ];
    let (ns, n) = per_op(|| {
        for _ in 0..64 {
            for ev in &events {
                reg.on_event(black_box(ev));
            }
        }
        64 * events.len() as u64
    });
    rep.set("obs.registry_record_ns", ns, n, "events");
}
