//! Robustness beyond the paper's failure models: random message loss and
//! the timeout backstop. The paper assumes reliable links between live
//! nodes (TCP); these tests quantify what happens when that assumption is
//! relaxed.

use attrspace::{Query, Space};
use overlay_sim::{LatencyModel, Placement, SimCluster, SimConfig};

fn lossy_config(loss: f64) -> SimConfig {
    SimConfig {
        latency: LatencyModel::Lossy {
            lo_ms: 1,
            hi_ms: 5,
            loss,
        },
        protocol: autosel_core::ProtocolConfig {
            query_timeout_ms: 2_000,
            ..Default::default()
        },
        gossip_enabled: false,
        ..SimConfig::default()
    }
}

/// One lost QUERY abandons its subtree, but `T(q)` unfreezes the waiting
/// node and the traversal continues — partial delivery, full termination.
#[test]
fn queries_terminate_under_message_loss() {
    let space = Space::uniform(3, 80, 3).unwrap();
    let mut sim = SimCluster::new(space.clone(), lossy_config(0.02), 18);
    sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, 500);
    sim.wire_oracle();

    let mut total_delivery = 0.0;
    let queries = 10;
    for _ in 0..queries {
        let q = Query::builder(&space).min("a0", 40).build().unwrap();
        let origin = sim.random_node();
        let qid = sim.issue_query(origin, q, None);
        sim.run_to_quiescence();
        let st = sim.query_stats(qid).unwrap();
        total_delivery += st.delivery();
        sim.forget_query(qid);
    }
    let mean = total_delivery / queries as f64;
    assert!(
        mean > 0.7,
        "2% loss should not devastate delivery: {mean:.3}"
    );
    assert!(mean < 1.0 + 1e-9);
}

/// Heavy loss degrades delivery monotonically but never wedges the system:
/// every query still terminates (no event-queue leak, no stuck pending).
#[test]
fn heavy_loss_degrades_gracefully() {
    let space = Space::uniform(3, 80, 3).unwrap();
    let mut deliveries = Vec::new();
    for &loss in &[0.0, 0.05, 0.25] {
        let mut sim = SimCluster::new(space.clone(), lossy_config(loss), 23);
        sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, 300);
        sim.wire_oracle();
        let q = Query::builder(&space).min("a0", 30).build().unwrap();
        let mut sum = 0.0;
        for _ in 0..5 {
            let origin = sim.random_node();
            let qid = sim.issue_query(origin, q.clone(), None);
            sim.run_to_quiescence();
            sum += sim.query_stats(qid).unwrap().delivery();
            sim.forget_query(qid);
        }
        deliveries.push(sum / 5.0);
    }
    assert!((deliveries[0] - 1.0).abs() < 1e-9, "no loss → perfect");
    assert!(deliveries[1] > deliveries[2], "more loss, less delivery");
    assert!(deliveries[2] > 0.05, "even 25% loss finds something");
}

/// With σ set, lost branches cost extra time but the threshold is still
/// usually met — the redundancy σ-overshoot buys in practice.
#[test]
fn sigma_queries_usually_fill_under_loss() {
    let space = Space::uniform(5, 80, 3).unwrap();
    let mut sim = SimCluster::new(space.clone(), lossy_config(0.05), 29);
    sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, 1_000);
    sim.wire_oracle();
    let mut filled = 0;
    for _ in 0..10 {
        let q = Query::builder(&space).min("a0", 20).build().unwrap();
        let origin = sim.random_node();
        let qid = sim.issue_query(origin, q, Some(20));
        sim.run_to_quiescence();
        if sim.query_stats(qid).unwrap().reported >= 20 {
            filled += 1;
        }
        sim.forget_query(qid);
    }
    assert!(filled >= 7, "σ met in only {filled}/10 lossy runs");
}
