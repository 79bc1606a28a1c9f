//! A restarted node must gossip on exactly one tick chain. `restart`
//! schedules a fresh `GossipTick`; the crashed incarnation's pending tick
//! is still queued, finds the node alive again and — before the fix —
//! rescheduled itself forever, one wasted routing sync per period each.

use attrspace::Space;
use overlay_sim::{EventKey, LatencyModel, Placement, SimCluster, SimConfig};

fn queued_ticks(sim: &SimCluster) -> usize {
    sim.queued_events()
        .iter()
        .filter(|e| matches!(e.key, EventKey::GossipTick { .. }))
        .count()
}

#[test]
fn restart_does_not_leak_a_gossip_tick_chain() {
    let space = Space::uniform(3, 80, 3).expect("space");
    let mut cfg = SimConfig {
        latency: LatencyModel::Constant { ms: 5 },
        ..SimConfig::default()
    };
    cfg.gossip.period_ms = 1_000;
    let mut sim = SimCluster::new(space, cfg, 7);
    sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, 50);
    assert_eq!(queued_ticks(&sim), 50, "one chain per node after populate");

    // Five rounds of crash-10 / restart-10 inside 100 ms: the crashed
    // incarnations' ticks (up to a period away) are all still queued.
    for round in 0..5u64 {
        let victims: Vec<_> = sim
            .node_ids()
            .iter()
            .copied()
            .skip(round as usize * 7)
            .take(10)
            .collect();
        for &id in &victims {
            sim.crash(id);
        }
        sim.run_until(sim.now() + 10);
        for &id in &victims {
            assert!(sim.restart(id));
        }
        sim.run_until(sim.now() + 10);
    }
    assert_eq!(sim.len(), 50);

    // Every superseded tick fires within one period of the arc and must
    // die there instead of rescheduling itself.
    sim.run_until(sim.now() + 2_000);
    assert_eq!(
        queued_ticks(&sim),
        sim.len(),
        "queued GossipTick events == alive nodes"
    );
    sim.run_until(sim.now() + 10_000);
    assert_eq!(queued_ticks(&sim), sim.len(), "and it stays that way");
}
