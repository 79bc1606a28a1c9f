//! `gossip_health()` under the soak harness's two hardest arcs, isolated:
//! a healing partition and a flash crowd. Both tests pin the *recovery*
//! contract the soak bounds rely on — per-layer mean view size and mean
//! descriptor age return to near-baseline within a bounded number of
//! gossip rounds after the adversity ends — not just survival.

use attrspace::Space;
use epigossip::NodeId;
use overlay_sim::faults::Window;
use overlay_sim::{FaultPlan, GossipHealth, LatencyModel, Placement, SimCluster, SimConfig};

const GOSSIP_PERIOD_MS: u64 = 10_000;

fn gossip_config() -> SimConfig {
    SimConfig {
        latency: LatencyModel::Constant { ms: 5 },
        ..SimConfig::default()
    }
}

fn cluster(n: usize, seed: u64) -> SimCluster {
    let space = Space::uniform(5, 80, 3).expect("space");
    let mut sim = SimCluster::new(space, gossip_config(), seed);
    sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, n);
    sim
}

/// Max relative degradation the recovered state may show versus baseline:
/// view size ≥ 90%, mean age ≤ 150%.
fn assert_recovered(layer: &str, baseline: &GossipHealth, healed: &GossipHealth) {
    let (bv, hv) = (
        baseline.mean_view_size_x1000(),
        healed.mean_view_size_x1000(),
    );
    assert!(
        hv * 10 >= bv * 9,
        "{layer} view size did not recover: baseline {bv}, healed {hv} (x1000)"
    );
    let (ba, ha) = (baseline.mean_age_x1000(), healed.mean_age_x1000());
    assert!(
        ha * 2 <= ba * 3,
        "{layer} descriptor age did not recover: baseline {ba}, healed {ha} (x1000)"
    );
}

#[test]
fn partition_heals_within_bounded_rounds() {
    let mut sim = cluster(100, 11);
    // 25 rounds of warmup, then baseline.
    sim.run_until(25 * GOSSIP_PERIOD_MS);
    let (base_rnd, base_sem) = sim.gossip_health();
    assert!(
        base_rnd.mean_view_size_x1000() > 0,
        "warmup produced no random view"
    );
    assert!(
        base_sem.mean_view_size_x1000() > 0,
        "warmup produced no semantic view"
    );

    // Partition half the population away for 15 rounds, then heal.
    let island: Vec<NodeId> = sim
        .node_ids()
        .iter()
        .copied()
        .filter(|id| id % 2 == 0)
        .collect();
    let from = sim.now();
    let until = from + 15 * GOSSIP_PERIOD_MS;
    sim.set_fault_plan(FaultPlan::new().partition(Window::new(from, until), island));
    sim.run_until(until);

    // During the split, cross-island descriptors cannot refresh: the mean
    // age must visibly climb — otherwise the arc never stressed anything
    // and the recovery assertion below would be vacuous.
    let (split_rnd, _) = sim.gossip_health();
    assert!(
        split_rnd.mean_age_x1000() > base_rnd.mean_age_x1000(),
        "partition did not age the random layer: baseline {}, split {}",
        base_rnd.mean_age_x1000(),
        split_rnd.mean_age_x1000()
    );

    // Heal and give the overlay a bounded 30 rounds to re-mix.
    sim.run_until(until + 30 * GOSSIP_PERIOD_MS);
    let (healed_rnd, healed_sem) = sim.gossip_health();
    assert_recovered("random", &base_rnd, &healed_rnd);
    assert_recovered("semantic", &base_sem, &healed_sem);
}

#[test]
fn flash_crowd_is_absorbed_within_bounded_rounds() {
    let mut sim = cluster(80, 12);
    sim.run_until(25 * GOSSIP_PERIOD_MS);
    let (base_rnd, base_sem) = sim.gossip_health();
    let before = sim.len();

    // Flash crowd: +50% membership at one instant.
    sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, before / 2);
    assert_eq!(sim.len(), before + before / 2);

    // 30 rounds to absorb the newcomers.
    let t = sim.now();
    sim.run_until(t + 30 * GOSSIP_PERIOD_MS);
    let (after_rnd, after_sem) = sim.gossip_health();

    // Every node — newcomers included — gossips on both layers...
    assert_eq!(
        after_rnd.nodes,
        sim.len() as u64,
        "newcomers missing from the random layer"
    );
    assert_eq!(
        after_sem.nodes,
        sim.len() as u64,
        "newcomers missing from the semantic layer"
    );
    // ...and the per-node health statistics return to baseline, i.e. the
    // grown population is as well-mixed as the original one was.
    assert_recovered("random", &base_rnd, &after_rnd);
    assert_recovered("semantic", &base_sem, &after_sem);
}
