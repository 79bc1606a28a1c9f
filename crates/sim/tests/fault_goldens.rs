//! Golden pins on the fault paths: duplicated, dropped and reordered
//! protocol messages are the only runs where a node retransmits a cached
//! REPLY, merges a reply whose subtree it already partly holds, or hears
//! from a subtree after its timeout. For two seeds this pins, per query,
//! the [`QueryStats::fingerprint`] and the matched ids in the order the
//! origin reported them, and every node's `state_fingerprint` at the end.
//!
//! Captured before match lists became shared, and asserted after: how a
//! REPLY holds its matches must change no count, no order and no state.
//!
//! To re-capture after an *intentional* protocol change:
//! `cargo test -p overlay-sim --test fault_goldens -- --ignored --nocapture`
//! and paste the printed strings over the constants below.

use attrspace::{Query, Space};
use autosel_core::fasthash::Fnv64;
use autosel_core::QueryRequest;
use overlay_sim::{FaultPlan, LatencyModel, Placement, SimCluster, SimConfig};

/// FNV-1a over a sequence of words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv64::new();
    for w in words {
        h.word(w);
    }
    h.finish()
}

/// Four queries (two unbounded, one σ-bounded, one count-only), issued in
/// overlapping pairs on a 200-node oracle-wired cluster under duplication,
/// loss and reordering. One line per query, then one line for the nodes.
fn fault_scenario(seed: u64) -> String {
    let space = Space::uniform(3, 80, 3).unwrap();
    let mut cfg = SimConfig::fast_static();
    cfg.protocol.query_timeout_ms = 8_000;
    cfg.latency = LatencyModel::Constant { ms: 5 };
    let mut sim = SimCluster::new(space.clone(), cfg, seed);
    sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, 200);
    sim.wire_oracle();
    sim.set_fault_plan(
        FaultPlan::new()
            .duplicate_protocol(0.3, 1)
            .drop_all(0.03)
            .reorder_all(0.5, 100),
    );

    let mut qids = Vec::new();
    for round in 0..2 {
        let wide = Query::builder(&space).min("a0", 40).build().unwrap();
        let narrow = Query::builder(&space)
            .range("a1", 10, 59)
            .min("a2", 20)
            .build()
            .unwrap();
        let o1 = sim.random_node();
        qids.push(sim.issue_query(o1, wide, if round == 0 { None } else { Some(25) }));
        let o2 = sim.random_node();
        qids.push(if round == 0 {
            sim.issue_query(o2, narrow, None)
        } else {
            sim.issue(o2, QueryRequest::count(narrow))
        });
        sim.run_to_quiescence();
    }
    assert_eq!(
        sim.pending_total(),
        0,
        "seed {seed}: a fault run leaked pending state"
    );

    let mut lines = Vec::new();
    let mut dups = 0;
    for qid in qids {
        let st = sim.query_stats(qid).unwrap();
        assert!(st.completed, "seed {seed}: {qid} never completed");
        dups += st.duplicates;
        let order = sim
            .query_result(qid)
            .map_or(Vec::new(), |ms| ms.iter().map(|m| m.node).collect());
        lines.push(format!(
            "{qid} reported={} dups={} stats={:016x} order={:016x}",
            st.reported,
            st.duplicates,
            digest(st.fingerprint().bytes().map(u64::from)),
            digest(order),
        ));
    }
    assert!(dups > 0, "seed {seed}: the plan duplicated no QUERY");
    assert!(
        sim.timeouts_fired_total() > 0,
        "seed {seed}: the plan lost no message"
    );

    let ids = sim.node_ids().to_vec();
    let nodes = digest(ids.iter().flat_map(|&id| {
        let fp = sim.selection_mut(id).expect("alive").state_fingerprint();
        [id, fp]
    }));
    lines.push(format!("nodes={} fnv={nodes:016x}", ids.len()));
    lines.join("\n")
}

const GOLDEN_FAULTS_42: &str =
    "q24#0 reported=81 dups=25 stats=c3961679ba8bbdb4 order=bc9095ac6e68ef3a
q167#0 reported=19 dups=23 stats=f712d62d35788f11 order=2c17a525614ea00e
q148#0 reported=26 dups=13 stats=121f455a006c31ff order=d94e3cc3f4135f90
q112#0 reported=44 dups=26 stats=be1882dffe001cde order=cbf29ce484222325
nodes=200 fnv=39928fc31d28a23b";
const GOLDEN_FAULTS_1337: &str =
    "q2#0 reported=0 dups=27 stats=1f2a5eb90ec9ab65 order=cbf29ce484222325
q39#0 reported=11 dups=26 stats=b9d441bdd0f1e630 order=5a5054870d61876e
q54#0 reported=0 dups=5 stats=74e20b9f1e849b92 order=cbf29ce484222325
q131#0 reported=11 dups=33 stats=5fb7722859b85f80 order=cbf29ce484222325
nodes=200 fnv=334a4c2abd3a16f6";

#[test]
#[ignore = "capture helper: prints the golden strings for pinning"]
fn print_goldens() {
    println!("GOLDEN_FAULTS_42:\n{}\n", fault_scenario(42));
    println!("GOLDEN_FAULTS_1337:\n{}\n", fault_scenario(1337));
}

#[test]
fn fault_paths_match_pinned_goldens() {
    assert_eq!(
        fault_scenario(42),
        GOLDEN_FAULTS_42,
        "seed 42 diverged from golden"
    );
    assert_eq!(
        fault_scenario(1337),
        GOLDEN_FAULTS_1337,
        "seed 1337 diverged from golden"
    );
}
