//! `live_tcp_60` and `live_mem_60`: a 60-node `NetCluster` of real threads
//! under a closed loop of 32 outstanding queries, on loopback TCP or on the
//! in-memory transport. The two differ in the transport and nothing else.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use attrspace::{Point, Query, Space};
use autosel_net::{NetCluster, NetConfig, QueryOutcome, QueryTicket, TcpStatsSnapshot, Transport};
use autosel_obs::{ObsHandle, QueryRef};
use epigossip::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::probes::ProbeSet;
use crate::procfs;
use crate::report::Report;
use crate::stats::{median, quantile, range_note, slice_len, Slices};
use crate::trace::Tracing;
use crate::verify::{check_matches, delivered_share, Completeness};

pub const NODES: usize = 60;
pub const SIGMA: u32 = 8;
/// Closed loop: this many queries are always in flight.
const OUTSTANDING: usize = 32;
const TICKET_TIMEOUT: Duration = Duration::from_secs(3);
const WARMUP: Duration = Duration::from_millis(500);
const READY_CAP: Duration = Duration::from_secs(15);
/// Placements (clusters) an untraced run measures, one after the other.
const CLUSTERS: u64 = 3;
/// One query in four is unbounded (≈30 matches, large REPLY frames).
const UNBOUNDED_ONE_IN: u32 = 4;

pub fn space() -> Space {
    Space::uniform(3, 80, 3).expect("valid space")
}

/// The one query every live request carries: `a0 ≥ 40`, half the
/// population.
pub fn query(space: &Space) -> Query {
    Query::builder(space)
        .min("a0", 40)
        .build()
        .expect("valid query")
}

/// Latin-hypercube placement: along every attribute the 60 nodes take one
/// each of 60 equal strata of `[0, 80)`, in an order shuffled by the seed.
/// Every marginal is exactly uniform, so the query's selectivity (30 of 60
/// nodes) is the same for every seed; with plain uniform draws it varies by
/// ±13 %, and throughput across seeds with it.
fn points(space: &Space, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0090_1775);
    let columns: Vec<Vec<u64>> = (0..space.dims())
        .map(|_| {
            let mut strata: Vec<u64> = (0..NODES as u64).collect();
            strata.shuffle(&mut rng);
            strata
                .into_iter()
                .map(|s| (s * 80 + rng.gen_range(0..80u64)) / NODES as u64)
                .collect()
        })
        .collect();
    (0..NODES)
        .map(|i| {
            let vals: Vec<u64> = columns.iter().map(|c| c[i]).collect();
            space.point(&vals).expect("values within the space")
        })
        .collect()
}

/// A spawned cluster plus what the generator knows about it.
struct Live {
    cluster: NetCluster,
    query: Query,
    truth: usize,
    /// Queries begun so far at each origin. Origins number their queries
    /// from 0 and the benchmark is the only issuer, so this reconstructs
    /// the `QueryId` the ticket does not expose.
    begun: Vec<u32>,
}

#[derive(Clone, Copy)]
struct Flight {
    q: QueryRef,
    bounded: bool,
    /// Closed loop: when `begin_query` was called. Open loop: when the
    /// query was due.
    from: Instant,
    called: Instant,
    returned: Instant,
}

impl Live {
    /// Spawns the cluster and waits until it serves: one whole sweep of
    /// unbounded probes, one from every node, each returning exactly the
    /// ground truth. Returns the cluster, the `spawn` call's time and the
    /// time from before `spawn` to ready.
    fn spawn_ready(tcp: bool, seed: u64, obs: ObsHandle) -> Result<(Live, f64, f64), String> {
        let space = space();
        let points = points(&space, seed);
        let query = query(&space);
        let truth = points.iter().filter(|p| query.matches(p)).count();
        let transport = if tcp {
            Transport::tcp(space.clone())
        } else {
            Transport::mem(None)
        };
        let config = NetConfig {
            injected_latency_ms: None,
            ..NetConfig::default()
        };
        let t = Instant::now();
        let cluster =
            NetCluster::spawn_observed(space.clone(), points, config, transport, seed, obs)
                .map_err(|e| format!("spawn failed: {e}"))?;
        let spawn_s = t.elapsed().as_secs_f64();
        let mut live = Live {
            cluster,
            query,
            truth,
            begun: vec![0; NODES],
        };
        loop {
            let served = (0..NODES as NodeId).all(|origin| {
                live.begin(origin, false, Instant::now())
                    .and_then(|(ticket, _)| ticket.wait(TICKET_TIMEOUT))
                    .is_some_and(|o| o.matches.len() == truth)
            });
            if served {
                return Ok((live, spawn_s, t.elapsed().as_secs_f64()));
            }
            if t.elapsed() > READY_CAP {
                live.cluster.shutdown();
                return Err(format!("cluster not serving {READY_CAP:?} after spawn"));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn begin(
        &mut self,
        origin: NodeId,
        bounded: bool,
        from: Instant,
    ) -> Option<(QueryTicket, Flight)> {
        let q = QueryRef::new(origin, self.begun[origin as usize]);
        let called = Instant::now();
        let ticket =
            self.cluster
                .begin_query(origin, self.query.clone(), bounded.then_some(SIGMA))?;
        self.begun[origin as usize] += 1;
        Some((
            ticket,
            Flight {
                q,
                bounded,
                from,
                called,
                returned: Instant::now(),
            },
        ))
    }

    fn check(&self, bounded: bool, outcome: &QueryOutcome) -> Result<(), String> {
        let need = if bounded {
            Completeness::AtLeast(SIGMA)
        } else {
            Completeness::Exactly
        };
        check_matches(
            &self.query,
            &outcome.matches,
            |id| self.cluster.point_of(id),
            self.truth,
            need,
        )
    }

    fn sent_total(&self) -> u64 {
        self.cluster.traffic().values().map(|&(sent, _)| sent).sum()
    }

    fn tcp(&self) -> Option<TcpStatsSnapshot> {
        self.cluster.transport().tcp_stats()
    }
}

/// What one load phase measured.
struct Phase {
    slices: Slices,
    rates: Vec<f64>,
    completed: u64,
    wall: f64,
    delivered: f64,
    begin_s: f64,
    bounded_ms: Vec<f64>,
    unbounded_ms: Vec<f64>,
    /// Open loop: how late each query was issued against its due time.
    late_ms: Vec<f64>,
    gen_cpu_s: f64,
    inbox_depth_max: u64,
}

impl Phase {
    fn new(dur: Duration) -> Self {
        Phase {
            slices: Slices::new(slice_len(dur.as_secs_f64())),
            rates: Vec::new(),
            completed: 0,
            wall: 0.0,
            delivered: 0.0,
            begin_s: 0.0,
            bounded_ms: Vec::new(),
            unbounded_ms: Vec::new(),
            late_ms: Vec::new(),
            gen_cpu_s: 0.0,
            inbox_depth_max: 0,
        }
    }

    fn all_ms(&self) -> Vec<f64> {
        self.bounded_ms
            .iter()
            .chain(&self.unbounded_ms)
            .copied()
            .collect()
    }

    /// Accounts one finished flight: verification, latency, spans.
    fn settle(
        &mut self,
        live: &Live,
        f: Flight,
        outcome: Option<QueryOutcome>,
        at: Instant,
        rep: &mut Report,
        tracing: Option<&mut Tracing>,
    ) {
        rep.attempted += 1;
        self.begin_s += (f.returned - f.called).as_secs_f64();
        match outcome {
            None => rep.fail(format!("{}: no answer within {TICKET_TIMEOUT:?}", f.q)),
            Some(o) => {
                self.delivered +=
                    delivered_share(o.matches.len(), live.truth, f.bounded.then_some(SIGMA));
                match live.check(f.bounded, &o) {
                    Err(why) => rep.fail(format!("{}: {why}", f.q)),
                    Ok(()) => {
                        self.completed += 1;
                        self.slices.add(at, 1.0);
                        let ms = (at - f.from).as_secs_f64() * 1e3;
                        if f.bounded {
                            &mut self.bounded_ms
                        } else {
                            &mut self.unbounded_ms
                        }
                        .push(ms);
                    }
                }
            }
        }
        if let Some(tr) = tracing {
            if tr.wants(f.q) {
                tr.root(f.q, f.from, at);
                tr.call(f.q, "net.cluster.begin_query", f.called, f.returned);
            }
        }
    }
}

/// Draws the next request of the traffic mix: `(origin, bounded)`.
fn draw(rng: &mut StdRng) -> (NodeId, bool) {
    (
        rng.gen_range(0..NODES) as NodeId,
        rng.gen_range(0..UNBOUNDED_ONE_IN) != 0,
    )
}

/// Closed loop for `dur`: keeps [`OUTSTANDING`] queries in flight and waits
/// for them in issue order. With `counted` false it only warms up.
fn closed_loop(
    live: &mut Live,
    rng: &mut StdRng,
    dur: Duration,
    rep: &mut Report,
    mut tracing: Option<&mut Tracing>,
    counted: bool,
) -> Phase {
    let mut phase = Phase::new(dur);
    let mut scratch = Report::default();
    let rep = if counted { rep } else { &mut scratch };
    let mut flights: VecDeque<(QueryTicket, Flight)> = VecDeque::with_capacity(OUTSTANDING);
    let cpu0 = procfs::thread_cpu();
    let start = Instant::now();
    let mut next_sample = start;
    let mut end = start;
    while end.duration_since(start) < dur || !flights.is_empty() {
        let open = end.duration_since(start) < dur;
        while open && flights.len() < OUTSTANDING {
            let (origin, bounded) = draw(rng);
            match live.begin(origin, bounded, Instant::now()) {
                Some(f) => flights.push_back(f),
                None => {
                    rep.attempted += 1;
                    rep.fail(format!("begin_query refused at origin {origin}"));
                }
            }
        }
        let Some((ticket, f)) = flights.pop_front() else {
            break;
        };
        let outcome = ticket.wait(TICKET_TIMEOUT);
        let at = Instant::now();
        phase.settle(live, f, outcome, at, rep, tracing.as_deref_mut());
        if open {
            end = at;
        }
        if at >= next_sample {
            // 10 Hz inbox gauge, read from the generator between waits.
            next_sample = at + Duration::from_millis(100);
            let deepest = live
                .cluster
                .inbox_stats()
                .values()
                .map(|s| s.depth)
                .max()
                .unwrap_or(0);
            phase.inbox_depth_max = phase.inbox_depth_max.max(deepest);
        }
    }
    phase.gen_cpu_s = procfs::thread_cpu() - cpu0;
    phase.wall = end.duration_since(start).as_secs_f64();
    phase.rates = phase.slices.rates(end);
    phase
}

/// Open loop for `dur`: Poisson arrivals at `rate` per second, each query
/// timed from the instant it was due, so a stall is charged to every query
/// it delayed; how late the generator issued is reported beside it.
fn open_loop(
    live: &mut Live,
    rng: &mut StdRng,
    dur: Duration,
    rate: f64,
    rep: &mut Report,
    mut tracing: Option<&mut Tracing>,
) -> Phase {
    let mut phase = Phase::new(dur);
    let mut flights: Vec<(QueryTicket, Flight)> = Vec::new();
    let gap = |rng: &mut StdRng| {
        let u: f64 = rng.gen_range(0.0..1.0);
        Duration::from_secs_f64(-(1.0 - u).ln() / rate)
    };
    let start = Instant::now();
    let mut next_due = start + gap(rng);
    loop {
        let now = Instant::now();
        let issuing = now.duration_since(start) < dur;
        if !issuing && flights.is_empty() {
            break;
        }
        if issuing && now >= next_due {
            let (origin, bounded) = draw(rng);
            match live.begin(origin, bounded, next_due) {
                Some((ticket, f)) => {
                    phase
                        .late_ms
                        .push((f.called - next_due).as_secs_f64() * 1e3);
                    flights.push((ticket, f));
                }
                None => {
                    rep.attempted += 1;
                    rep.fail(format!("begin_query refused at origin {origin}"));
                }
            }
            next_due += gap(rng);
            continue; // catch up on a burst before looking at completions
        }
        let mut i = 0;
        while i < flights.len() {
            let outcome = flights[i].0.try_outcome();
            if outcome.is_some() || now.duration_since(flights[i].1.called) > TICKET_TIMEOUT {
                let (_, f) = flights.swap_remove(i);
                phase.settle(
                    live,
                    f,
                    outcome,
                    Instant::now(),
                    rep,
                    tracing.as_deref_mut(),
                );
            } else {
                i += 1;
            }
        }
        let nap = Duration::from_micros(200);
        std::thread::sleep(if issuing {
            nap.min(next_due.saturating_duration_since(now))
        } else {
            nap
        });
    }
    phase.wall = start.elapsed().as_secs_f64();
    phase
}

pub fn run(tcp: bool, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rep = Report::default();
    let workload = if tcp {
        crate::spec::LIVE_TCP
    } else {
        crate::spec::LIVE_MEM
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x04E7_10AD);
    let outcome = if trace {
        traced(tcp, workload, seed, seconds, &mut rng, &mut rep)
    } else {
        untraced(
            tcp,
            seed,
            Duration::from_secs_f64(seconds),
            &mut rng,
            &mut rep,
        )
    };
    if let Err(why) = outcome {
        rep.attempted += 1;
        rep.fail(why);
    }
    rep
}

fn untraced(
    tcp: bool,
    seed: u64,
    dur: Duration,
    rng: &mut StdRng,
    rep: &mut Report,
) -> Result<(), String> {
    // Throughput depends on where the 60 nodes happen to sit (which peers
    // become hubs) more than on anything else a seed draws, so one run
    // measures CLUSTERS placements for an equal share of the time each and
    // reports their mean. The same clusters give `setup_s` its median.
    let (mut setup, mut rates, mut slices) = (Vec::new(), Vec::new(), Vec::new());
    let (mut sent, mut completed, mut delivered) = (0, 0, 0.0);
    for k in 0..CLUSTERS {
        let placement = seed.wrapping_mul(1_000_003).wrapping_add(k);
        let (mut live, _, ready_s) = Live::spawn_ready(tcp, placement, ObsHandle::null())?;
        setup.push(ready_s);
        closed_loop(&mut live, rng, WARMUP, rep, None, false);
        let sent0 = live.sent_total();
        let phase = closed_loop(&mut live, rng, dur / CLUSTERS as u32, rep, None, true);
        sent += live.sent_total() - sent0;
        live.cluster.shutdown();
        rates.push(median(&phase.rates));
        completed += phase.completed;
        delivered += phase.delivered;
        slices.extend(phase.rates);
    }
    let done = completed.max(1) as f64;
    let mean_rate = rates.iter().sum::<f64>() / rates.len() as f64;
    rep.notes.push(range_note(&slices));
    #[rustfmt::skip] // one reading a line
    let readings = [
        ("setup_s", median(&setup), setup.len() as u64, "clusters: spawn until every origin serves the full truth"),
        ("queries_per_s", mean_rate, slices.len() as u64, "slices (mean of the clusters' median slice)"),
        ("rss_mib", procfs::vm_hwm_mib(), 1, "VmHWM"),
        ("msgs_per_query", sent as f64 / done, completed, "queries (protocol + background gossip)"),
        ("delivery", delivered / rep.attempted.max(1) as f64, rep.attempted, "queries"),
    ];
    rep.set_all(readings);
    Ok(())
}

fn traced(
    tcp: bool,
    workload: &'static str,
    seed: u64,
    seconds: f64,
    rng: &mut StdRng,
    rep: &mut Report,
) -> Result<(), String> {
    let secs = Duration::from_secs_f64;
    // Untraced reference on a cluster of its own: observers are installed at
    // spawn, so traced and untraced cannot share one.
    let (mut plain, _, _) = Live::spawn_ready(tcp, seed, ObsHandle::null())?;
    closed_loop(&mut plain, rng, WARMUP, rep, None, false);
    let reference = closed_loop(&mut plain, rng, secs(seconds * 0.25), rep, None, true);
    let t = Instant::now();
    plain.cluster.shutdown();
    let shutdown_s = t.elapsed().as_secs_f64();

    let mut tr = Tracing::new();
    let (mut live, spawn_s, _) = Live::spawn_ready(tcp, seed, tr.handle())?;
    closed_loop(&mut live, rng, WARMUP, rep, None, false);

    tr.arm();
    let events0 = tr.counts();
    let (sent0, tcp0) = (live.sent_total(), live.tcp().unwrap_or_default());
    let (cpu0, ctx0) = (procfs::process_cpu(), procfs::ctx_switches());
    let wall0 = Instant::now();
    let phase = closed_loop(
        &mut live,
        rng,
        secs(seconds * 0.5),
        rep,
        Some(&mut tr),
        true,
    );
    let wall = wall0.elapsed().as_secs_f64();
    let (cpu1, ctx1) = (procfs::process_cpu(), procfs::ctx_switches());
    let (sent1, tcp1) = (live.sent_total(), live.tcp());
    let threads = procfs::threads();
    let events = tr.counts().since(&events0);

    let open_rate = 0.5 * median(&reference.rates);
    let open = open_loop(
        &mut live,
        rng,
        secs(seconds * 0.25),
        open_rate,
        rep,
        Some(&mut tr),
    );
    let inbox_dropped: u64 = live.cluster.inbox_stats().values().map(|s| s.dropped).sum();
    let (random, semantic) = live.cluster.gossip_health();
    live.cluster.shutdown();

    let done = phase.completed.max(1) as f64;
    let (user_s, sys_s) = (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1);
    let cpu_s = user_s + sys_s;
    let tree = tr.tree_stats();
    for p in tr.problems() {
        rep.fail(format!("trace: {p}"));
    }
    if let Some(tcp1) = tcp1 {
        let frames = (tcp1.tx_frames - tcp0.tx_frames) as f64;
        let batches = (tcp1.tx_batches - tcp0.tx_batches).max(1);
        #[rustfmt::skip] // one reading a line
        let readings = [
            ("net.tcp.frames_per_query", frames / done, phase.completed, "queries"),
            ("net.tcp.frames_per_batch", frames / batches as f64, batches, "batches"),
            ("net.tcp.queue_full_drops", (tcp1.tx_queue_full_drops - tcp0.tx_queue_full_drops) as f64, 1, "closed loop"),
            ("net.tcp.oversize_drops", (tcp1.tx_oversize_drops - tcp0.tx_oversize_drops) as f64, 1, "closed loop"),
            ("net.tcp.conn_established", tcp1.conn_established as f64, 1, "since spawn"),
            ("net.tcp.conn_failed", tcp1.conn_failed as f64, 1, "since spawn"),
        ];
        rep.set_all(readings);
    }
    let overhead = 1.0 - median(&phase.rates) / median(&reference.rates).max(1e-9);
    let slices = (phase.rates.len() + reference.rates.len()) as u64;
    let traced = events.of("query_issued");
    let events_per_query = events.total() as f64 / traced.max(1) as f64;
    let busy = phase.gen_cpu_s / phase.wall.max(1e-9);
    if busy > 0.5 {
        rep.notes.push(format!(
            "generator_bound: the generator thread was busy {busy:.2} of the closed loop"
        ));
    }
    rep.notes.push(format!(
        "open loop offered {open_rate:.0}/s, completed {} in {:.1} s",
        open.completed, open.wall
    ));
    let (open_ms, all_ms) = (open.all_ms(), phase.all_ms());
    let (bounded, unbounded) = (&phase.bounded_ms, &phase.unbounded_ms);
    #[rustfmt::skip] // one reading a line
    let readings = [
        ("core.hops_per_query", tree.hops, tree.queries, "sampled trees"),
        ("core.depth_per_query", tree.depth, tree.queries, "sampled trees"),
        ("core.overhead_per_query", tree.overhead, tree.queries, "sampled trees"),
        ("core.duplicates_per_query", tree.duplicates, tree.queries, "sampled trees"),
        ("core.timeouts_fired", events.of("timeout_fired") as f64, 1, "closed loop"),
        ("core.leaked", tree.leaked as f64, tree.queries, "sampled trees"),
        ("gossip.rounds_per_s", events.of("gossip_round") as f64 / 2.0 / wall, 1, "closed loop"),
        ("gossip.links_random", random.links as f64 / random.nodes.max(1) as f64, random.nodes, "peers"),
        ("gossip.links_semantic", semantic.links as f64 / semantic.nodes.max(1) as f64, semantic.nodes, "peers"),
        ("net.peer.msgs_per_query", (sent1 - sent0) as f64 / done, phase.completed, "queries"),
        ("net.peer.inbox_depth_max", phase.inbox_depth_max as f64, (wall * 10.0) as u64, "10 Hz samples"),
        ("net.peer.inbox_dropped", inbox_dropped as f64, 1, "since spawn"),
        ("net.cluster.begin_query_us", phase.begin_s * 1e6 / done, phase.completed, "calls"),
        ("net.cluster.spawn_s", spawn_s, 1, "spawn_observed call"),
        ("net.cluster.shutdown_s", shutdown_s, 1, "shutdown call"),
        ("net.threads", threads, 1, "during the closed loop"),
        ("net.ctx_switches_per_query", (ctx1 - ctx0) / done, phase.completed, "queries"),
        ("proc.cpu_us_per_query", cpu_s * 1e6 / done, phase.completed, "queries"),
        ("proc.cores_busy", cpu_s / wall, 1, "closed loop"),
        ("proc.sys_frac", sys_s / cpu_s.max(1e-9), 1, "closed loop"),
        ("obs.trace_overhead_frac", overhead, slices, "slices"),
        ("obs.events_per_query", events_per_query, traced, "traced queries (gossip events included)"),
        ("gen.busy_frac", busy, 1, "generator thread CPU / closed-loop wall"),
        ("gen.open_p50_ms", quantile(&open_ms, 0.5), open_ms.len() as u64, "open-loop queries, from due time"),
        ("gen.open_p99_ms", quantile(&open_ms, 0.99), open_ms.len() as u64, "open-loop queries, from due time"),
        ("gen.open_late_p99_ms", quantile(&open.late_ms, 0.99), open.late_ms.len() as u64, "open-loop issues"),
        ("gen.bounded_p50_ms", quantile(bounded, 0.5), bounded.len() as u64, "closed-loop sigma=8 queries"),
        ("gen.unbounded_p50_ms", quantile(unbounded, 0.5), unbounded.len() as u64, "closed-loop unbounded queries"),
        ("gen.p99_ms", quantile(&all_ms, 0.99), all_ms.len() as u64, "closed-loop queries"),
    ];
    rep.set_all(readings);

    let probes = ProbeSet {
        oracle: false,
        gossip: true,
        wire: tcp,
    };
    crate::probes::run(seed, probes, rep);
    let us = |probe: &str, count: f64| rep.metrics[probe].value * count / 1e3;
    let rounds = events.per_query("gossip_round") / 2.0;
    let gossip_msgs = rounds * rep.metrics["gossip.msgs_per_round"].value;
    let protocol_msgs = events.per_query("query_received") + events.per_query("reply_merged");
    #[rustfmt::skip] // one row a line
    let mut rows = vec![
        ("core.begin_query_ns x 1", us("core.begin_query_ns", 1.0)),
        ("core.handle_message_ns x protocol msgs/query", us("core.handle_message_ns", protocol_msgs)),
        ("core.sync_from_view_ns x view changes/query", us("core.sync_from_view_ns", events.per_query("view_change"))),
        ("gossip.tick_ns x rounds/query", us("gossip.tick_ns", rounds)),
        ("gossip.handle_ns x gossip msgs/query", us("gossip.handle_ns", gossip_msgs)),
        ("obs.registry_record_ns x events/query", us("obs.registry_record_ns", events_per_query)),
    ];
    if tcp {
        // One frame per message. Reply sizes vary along the tree; the
        // sigma=8 reply stands in for all of them.
        let codec = |kind: &str, frames: f64| {
            us(&format!("net.wire.encode_{kind}_ns"), frames)
                + us(&format!("net.wire.decode_{kind}_ns"), frames)
        };
        #[rustfmt::skip] // one row a line
        rows.extend([
            ("net.wire (en+de)code_query_ns x QUERY frames/query", codec("query", events.per_query("query_forwarded"))),
            ("net.wire (en+de)code_reply8_ns x REPLY frames/query", codec("reply8", events.per_query("reply_sent"))),
            ("net.wire (en+de)code_gossip_ns x gossip frames/query", codec("gossip", gossip_msgs)),
        ]);
    }
    crate::trace::finish(workload, rep, &tr, &rows);
    Ok(())
}
