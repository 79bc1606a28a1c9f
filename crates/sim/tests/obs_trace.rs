//! Integration of the observability layer with the simulator: traces
//! reconstruct to one rooted tree per query, injected duplicates are
//! flagged at the offending hop, and — the contract everything else rests
//! on — installing an observer never perturbs the simulation itself.

use std::sync::Arc;

use attrspace::{Query, Space};
use autosel_obs::{jsonl::parse_trace, FlightRecorder, JsonlSink, ObsHandle, Registry, TraceTree};
use overlay_sim::faults::FaultPlan;
use overlay_sim::{InvariantChecker, LatencyModel, Placement, SimCluster, SimConfig};

fn traced_sim(seed: u64, n: usize) -> (SimCluster, Space, Arc<TraceTree>) {
    let space = Space::uniform(3, 80, 3).unwrap();
    let mut cfg = SimConfig::fast_static();
    cfg.protocol.query_timeout_ms = 8_000;
    cfg.latency = LatencyModel::Constant { ms: 5 };
    let mut sim = SimCluster::new(space.clone(), cfg, seed);
    sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, n);
    sim.wire_oracle();
    let tree = Arc::new(TraceTree::new());
    sim.set_observer(ObsHandle::new(tree.clone()));
    (sim, space, tree)
}

fn half_space_query(space: &Space) -> Query {
    Query::builder(space).min("a0", 40).build().unwrap()
}

#[test]
fn clean_run_reconstructs_one_rooted_tree_per_query() {
    let (mut sim, space, tree) = traced_sim(42, 100);
    let mut origins = Vec::new();
    for _ in 0..3 {
        let origin = sim.random_node();
        let qid = sim.issue_query(origin, half_space_query(&space), None);
        sim.run_to_quiescence();
        origins.push((qid, origin));
        sim.forget_query(qid);
    }
    assert_eq!(tree.problems(), Vec::<String>::new());
    let queries = tree.queries();
    assert_eq!(queries.len(), 3);
    for (qid, origin) in origins {
        let qref = queries
            .iter()
            .find(|q| q.origin == qid.origin && q.seq == qid.seq)
            .copied()
            .unwrap_or_else(|| panic!("query {qid:?} missing from trace"));
        let qt = tree.query(qref).expect("trace recorded");
        assert_eq!(qt.root, origin, "root of the routing tree is the origin");
        assert!(qt.completed.is_some(), "origin observed completion");
        let s = tree.summary(qref).expect("summary");
        assert!(s.hops > 1, "query never left the origin");
        assert_eq!(s.duplicates, 0, "clean run must not flag duplicates");
        assert_eq!(s.timeouts, 0);
        assert_eq!(s.leaked, 0, "no pending state may leak");
    }
}

#[test]
fn duplication_faults_are_flagged_at_the_offending_hop() {
    let (mut sim, space, tree) = traced_sim(11, 100);
    sim.set_fault_plan(FaultPlan::new().duplicate_protocol(0.5, 1));
    let origin = sim.random_node();
    let qid = sim.issue_query(origin, half_space_query(&space), None);
    sim.run_to_quiescence();
    sim.forget_query(qid);

    // Duplicate deliveries are protocol-level noise, not trace corruption.
    assert_eq!(tree.problems(), Vec::<String>::new());
    let q = tree.queries()[0];
    let s = tree.summary(q).expect("summary");
    assert!(s.duplicates > 0, "seeded duplication produced no duplicate receipts");
    let rendered = tree.render(q).expect("render");
    assert!(rendered.contains("!dup("), "duplicate hops must be flagged inline:\n{rendered}");
}

/// The determinism contract: a traced run and an untraced run of the same
/// seed produce byte-identical per-query stats. Observers only *watch* —
/// they must never consume protocol randomness or reorder events. This is
/// what keeps `sweepbench` digests identical whether or not tracing is on.
#[test]
fn observers_do_not_perturb_the_simulation() {
    let run = |observe: bool| -> Vec<String> {
        let space = Space::uniform(3, 80, 3).unwrap();
        let mut sim = SimCluster::new(space.clone(), SimConfig::fast_static(), 7);
        sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, 120);
        sim.wire_oracle();
        if observe {
            // Heaviest stack available: metrics + flight ring + trace +
            // serialization.
            let mut fan = autosel_obs::Fanout::new();
            fan.push(Arc::new(Registry::new()));
            fan.push(Arc::new(FlightRecorder::new(256)));
            fan.push(Arc::new(TraceTree::new()));
            let (sink, _buf) = JsonlSink::shared_buffer();
            fan.push(Arc::new(sink));
            sim.set_observer(ObsHandle::of(fan));
        }
        let mut out = Vec::new();
        for _ in 0..4 {
            let origin = sim.random_node();
            let qid = sim.issue_query(origin, half_space_query(&space), None);
            sim.run_to_quiescence();
            out.push(sim.query_stats(qid).unwrap().fingerprint());
            sim.forget_query(qid);
        }
        out
    };
    assert_eq!(run(false), run(true), "observer presence changed the simulation");
}

/// JSONL round-trip: streaming events through the serializer and parser
/// rebuilds the exact same trace tree a live observer saw.
#[test]
fn jsonl_roundtrip_rebuilds_the_live_tree() {
    let space = Space::uniform(3, 80, 3).unwrap();
    let mut sim = SimCluster::new(space.clone(), SimConfig::fast_static(), 97);
    sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, 80);
    sim.wire_oracle();
    let live = Arc::new(TraceTree::new());
    let (sink, buf) = JsonlSink::shared_buffer();
    let mut fan = autosel_obs::Fanout::new();
    fan.push(live.clone());
    fan.push(Arc::new(sink));
    sim.set_observer(ObsHandle::of(fan));

    let origin = sim.random_node();
    let qid = sim.issue_query(origin, half_space_query(&space), None);
    sim.run_to_quiescence();
    sim.forget_query(qid);

    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    let events = parse_trace(&text).expect("recorded trace parses");
    assert!(!events.is_empty());
    let replayed = TraceTree::new();
    for ev in &events {
        replayed.apply(ev);
    }
    let q = live.queries()[0];
    assert_eq!(replayed.queries(), live.queries());
    assert_eq!(replayed.render(q), live.render(q), "replay diverged from live trace");
    assert_eq!(replayed.problems(), live.problems());
}

/// Metrics under virtual time are fully deterministic: the registry only
/// counts the event stream, so two same-seed runs render byte-identical
/// snapshots — counters, histograms and all.
#[test]
fn registry_snapshots_are_virtual_time_deterministic() {
    let run = || -> String {
        let space = Space::uniform(3, 80, 3).unwrap();
        let mut sim = SimCluster::new(space.clone(), SimConfig::fast_static(), 23);
        sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, 100);
        sim.wire_oracle();
        let reg = Arc::new(Registry::new());
        sim.set_observer(ObsHandle::new(reg.clone()));
        for _ in 0..3 {
            let origin = sim.random_node();
            let qid = sim.issue_query(origin, half_space_query(&space), None);
            sim.run_to_quiescence();
            sim.forget_query(qid);
        }
        reg.snapshot().render()
    };
    let a = run();
    assert!(a.contains("event.query_issued"), "the registry never saw the event stream:\n{a}");
    assert_eq!(a, run(), "snapshot depends on something besides the event stream");
}

/// The flight-recorder post-mortem path: a duplication fault trips the
/// strict invariant checker, and the recorder — installed alongside the
/// registry via `add_observers` — holds the last K events leading up to
/// the violation, dumpable as JSONL that the closed-schema trace parser
/// accepts. Bounded memory: the ring kept at most K of the many more
/// events the run emitted, and exactly the most recent ones, in order.
#[test]
fn invariant_violation_dumps_a_parseable_flight_recording() {
    const K: usize = 64;
    let space = Space::uniform(3, 80, 3).unwrap();
    let mut cfg = SimConfig::fast_static();
    cfg.protocol.query_timeout_ms = 8_000;
    cfg.latency = LatencyModel::Constant { ms: 5 };
    let mut sim = SimCluster::new(space.clone(), cfg, 11);
    sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, 100);
    sim.wire_oracle();
    let flight = Arc::new(FlightRecorder::new(K));
    let reg = Arc::new(Registry::new());
    sim.add_observers(vec![flight.clone(), reg.clone()]);

    // Fill the ring with healthy traffic first — the recorder is always-on,
    // not armed by the fault — so the dump shows the lead-up, not just the
    // crash site.
    for _ in 0..2 {
        let origin = sim.random_node();
        let qid = sim.issue_query(origin, half_space_query(&space), None);
        sim.run_to_quiescence();
        sim.forget_query(qid);
    }

    // Duplicate every protocol message once: the strict checker forbids
    // duplicate deliveries, so the run must halt at the first one.
    sim.set_fault_plan(FaultPlan::new().duplicate_protocol(1.0, 1));
    let origin = sim.random_node();
    let _ = sim.issue_query(origin, half_space_query(&space), None);
    let violation = sim
        .run_to_quiescence_checked(&mut InvariantChecker::strict())
        .expect_err("seeded duplication must trip the strict checker");
    let rendered = violation.to_string();
    assert!(rendered.contains("duplicate"), "unexpected violation: {rendered}");

    // The ring is a bounded window onto a larger stream…
    assert_eq!(flight.len(), K, "expected a full ring at the violation point");
    assert!(
        flight.total_seen() > K as u64,
        "run too small to exercise wraparound ({} events)",
        flight.total_seen()
    );
    assert_eq!(flight.dropped(), flight.total_seen() - K as u64);

    // …whose dump is ordinary trace JSONL: closed schema, monotone-ish
    // event times, parseable by the same parser as a full trace.
    let mut dump = Vec::new();
    let lines = flight.dump_jsonl(&mut dump).expect("in-memory dump");
    assert_eq!(lines, K as u64);
    let events = parse_trace(std::str::from_utf8(&dump).unwrap()).expect("dump parses");
    assert_eq!(events.len(), K);
    assert!(
        events.windows(2).all(|w| w[0].at() <= w[1].at()),
        "flight dump out of order"
    );
    // The ring held the *most recent* events: its newest timestamp is the
    // newest the registry saw anywhere.
    let newest = events.last().unwrap().at();
    assert_eq!(newest, sim.now(), "ring tail should sit at the violating instant");
}

/// Gossip health gauges tick when the membership layer is on: the registry
/// sees per-round view sizes and the cluster aggregate reflects real links.
#[test]
fn gossip_rounds_feed_health_gauges() {
    let space = Space::uniform(3, 80, 3).unwrap();
    let mut cfg = SimConfig::default();
    cfg.gossip.period_ms = 1_000;
    let mut sim = SimCluster::new(space, cfg, 5);
    let reg = Arc::new(Registry::new());
    sim.set_observer(ObsHandle::new(reg.clone()));
    sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, 30);
    sim.run_until(20_000);

    assert!(reg.counter("event.gossip_round") > 0, "no gossip rounds observed");
    let sizes = reg.histogram("gossip.view_size.random").expect("random-layer gauge");
    assert!(sizes.count() > 0 && sizes.max() > 0, "random views never filled");
    let (random, semantic) = sim.gossip_health();
    assert_eq!(random.nodes, 30);
    assert!(random.links > 0, "no random-layer links after 20 virtual seconds");
    assert!(semantic.links > 0, "no semantic links after 20 virtual seconds");
    assert!(
        random.turnover >= random.links,
        "turnover counts every admission, so it can never trail the live link count"
    );
}
