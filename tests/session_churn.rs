//! Trace-driven churn: instead of a uniform churn rate, replay a
//! heavy-tailed join/leave schedule derived from the synthetic BOINC hosts'
//! availability (what the paper's cited volatility studies measure), and
//! check the overlay keeps answering.

use std::collections::HashMap;

use autosel::prelude::*;
use autosel::traces::sessions::{Schedule, SessionEvent};

#[test]
fn overlay_survives_trace_driven_sessions() {
    let hosts: Vec<_> = HostGenerator::new(11).take(150).collect();
    let rows: Vec<Vec<u64>> = hosts.iter().map(|h| h.to_values()).collect();
    let space = fit_space(&rows, 3).expect("fit space");

    let mut cfg = SimConfig {
        latency: LatencyModel::Constant { ms: 5 },
        ..SimConfig::default()
    };
    cfg.gossip.period_ms = 10_000;

    let mut sim = SimCluster::new(space.clone(), cfg, 5);

    // 30 000 s of sessions: mean offline gap 30 min.
    let schedule = Schedule::generate(&hosts, 10_000, 1_800, 7);
    let mut alive: HashMap<usize, NodeId> = HashMap::new();

    // Apply the t = 0 joins, then let gossip build the overlay.
    for &(t, ev) in schedule.events() {
        if t > 0 {
            break;
        }
        if let SessionEvent::Join { host } = ev {
            let id = sim.add_node(space.point(&rows[host]).unwrap());
            alive.insert(host, id);
        }
    }
    let initial = alive.len();
    assert!(initial > 30, "enough hosts start online: {initial}");
    sim.run_until(250_000);

    // Replay the schedule in 100-virtual-second steps, probing periodically.
    let mut deliveries = Vec::new();
    let mut cursor = 0u64;
    let t0 = sim.now();
    while cursor < 3_000 {
        for &(t, ev) in schedule.window(cursor, cursor + 100) {
            let _ = t;
            match ev {
                SessionEvent::Join { host } => {
                    alive.entry(host).or_insert_with(|| {
                        // Rejoin under a fresh identity (§6.6's model).

                        sim.add_node(space.point(&rows[host]).unwrap())
                    });
                }
                SessionEvent::Leave { host } => {
                    if let Some(id) = alive.remove(&host) {
                        sim.kill(id);
                    }
                }
            }
        }
        cursor += 100;
        sim.run_until(t0 + cursor * 1_000); // schedule seconds = sim seconds
        if cursor.is_multiple_of(1_000) && sim.len() > 10 {
            let query = Query::builder(&space).min("cpu_cores", 2).build().unwrap();
            let origin = sim.random_node();
            let qid = sim.issue_query(origin, query, None);
            sim.run_until(sim.now() + 60_000);
            deliveries.push(sim.query_stats(qid).unwrap().delivery());
            sim.forget_query(qid);
        }
    }
    assert!(!deliveries.is_empty());
    let mean: f64 = deliveries.iter().sum::<f64>() / deliveries.len() as f64;
    assert!(
        mean > 0.7,
        "trace-driven churn: mean delivery {mean:.3} over {deliveries:?}"
    );
}
