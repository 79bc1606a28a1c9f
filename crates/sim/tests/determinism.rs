//! The simulator is a measurement instrument: identical seeds must replay
//! identically, across populations, gossip, churn and queries.

use attrspace::{Query, Space};
use overlay_sim::{FaultPlan, LatencyModel, Placement, QueryStats, SimCluster, SimConfig};

fn run_scenario(seed: u64) -> (Vec<u64>, f64, u64, u64) {
    let space = Space::uniform(4, 80, 3).unwrap();
    let mut cfg = SimConfig {
        latency: LatencyModel::Uniform {
            lo_ms: 5,
            hi_ms: 50,
        },
        ..SimConfig::default()
    };
    cfg.gossip.period_ms = 1_000;
    let placement = Placement::Uniform { lo: 0, hi: 80 };
    let mut sim = SimCluster::new(space.clone(), cfg, seed);
    sim.populate(&placement, 80);
    sim.run_until(12_000);
    sim.churn_step(0.05, &placement);
    sim.run_until(18_000);

    let query = Query::builder(&space).min("a1", 30).build().unwrap();
    let origin = sim.random_node();
    let qid = sim.issue_query(origin, query, None);
    sim.run_until(60_000);
    let st = sim.query_stats(qid).unwrap();
    let ids = sim.node_ids().to_vec();
    (ids, st.delivery(), st.messages, st.overhead)
}

#[test]
fn identical_seeds_replay_identically() {
    let a = run_scenario(424242);
    let b = run_scenario(424242);
    assert_eq!(a, b, "same seed must give bit-identical runs");
}

#[test]
fn different_seeds_diverge() {
    let a = run_scenario(1);
    let b = run_scenario(2);
    // Populations share sizes but node placements and traffic differ.
    assert_ne!((a.2, a.3), (b.2, b.3), "different seeds should differ");
}

/// Fault injection draws from the cluster's own seeded RNG, so the same
/// seed and the same [`FaultPlan`] must replay to *identical* per-query
/// stats — every field, including which nodes were reached and how many
/// duplicates landed. This is what makes a failing fault-matrix seed a
/// reproducible bug report (see `docs/TESTING.md`).
#[test]
fn same_seed_and_fault_plan_replay_identical_stats() {
    let space = Space::uniform(3, 80, 3).unwrap();
    let plan = FaultPlan::new()
        .drop_all(0.10)
        .delay_all(0.3, 10, 80)
        .duplicate_protocol(0.2, 1)
        .crash(5_000, 3)
        .restart(40_000, 3);
    let run = |seed: u64| -> Vec<QueryStats> {
        let mut cfg = SimConfig::fast_static();
        cfg.protocol.query_timeout_ms = 8_000;
        cfg.latency = LatencyModel::Constant { ms: 5 };
        let mut sim = SimCluster::new(space.clone(), cfg, seed);
        sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, 150);
        sim.wire_oracle();
        sim.set_fault_plan(plan.clone());
        let query = Query::builder(&space).min("a0", 40).build().unwrap();
        let mut out = Vec::new();
        for _ in 0..3 {
            let origin = sim.random_node();
            let qid = sim.issue_query(origin, query.clone(), None);
            sim.run_to_quiescence();
            out.push(sim.query_stats(qid).unwrap().clone());
        }
        out
    };
    let a = run(31337);
    assert_eq!(
        a,
        run(31337),
        "same seed + same plan must be byte-identical"
    );
    assert_ne!(
        a,
        run(31338),
        "a different seed draws a different fault schedule"
    );
}

#[test]
fn oracle_wiring_is_deterministic_too() {
    let space = Space::uniform(5, 80, 3).unwrap();
    let build = || {
        let mut sim = SimCluster::new(space.clone(), SimConfig::fast_static(), 9);
        sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, 250);
        sim.wire_oracle();
        let query = Query::builder(&space).min("a0", 40).build().unwrap();
        let origin = sim.random_node();
        let qid = sim.issue_query(origin, query, Some(50));
        sim.run_to_quiescence();
        let st = sim.query_stats(qid).unwrap();
        (st.messages, st.overhead, st.reported, st.latency())
    };
    assert_eq!(build(), build());
}

/// Nodes take their per-query records from a pool of the thread that
/// drives them. Which records it hands out must never show: a fault-plan
/// run repeated on a warm thread and on a fresh thread gives the same
/// stats for every query and the same state hash, which covers every
/// node's `state_fingerprint`.
#[test]
fn pooled_query_records_do_not_change_a_run() {
    fn run() -> (Vec<String>, u64) {
        let space = Space::uniform(3, 80, 3).unwrap();
        let mut cfg = SimConfig::fast_static();
        cfg.protocol.query_timeout_ms = 8_000;
        let mut sim = SimCluster::new(space.clone(), cfg, 4242);
        sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, 200);
        sim.wire_oracle();
        sim.set_fault_plan(
            FaultPlan::new()
                .drop_all(0.05)
                .duplicate_protocol(0.2, 1)
                .crash(2_000, 5),
        );
        let mut qids = Vec::new();
        for sigma in [Some(8), None, Some(30), None] {
            let query = Query::builder(&space).min("a1", 30).build().unwrap();
            let origin = sim.random_node();
            qids.push(sim.issue_query(origin, query, sigma));
        }
        sim.run_to_quiescence();
        let stats = qids
            .iter()
            .map(|&q| sim.query_stats(q).unwrap().fingerprint())
            .collect();
        (stats, sim.state_hash())
    }
    let first = run();
    let warm = run();
    let cold = std::thread::spawn(run).join().unwrap();
    assert_eq!(warm, first, "a warm pool changed the run");
    assert_eq!(cold, first, "a cold pool changed the run");
}
