//! End-to-end behaviour of the two-layer stack on a synchronously simulated
//! population: semantic convergence, connectivity, self-healing, and
//! partitions — two overlay islands stay separate until a single
//! introduction bridges them, the mechanism behind the paper's §6.7 claim
//! that only true graph partition prevents recovery.

use epigossip::{GossipConfig, GossipMessage, GossipStack, NodeId, RankSelector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;

type Population = BTreeMap<NodeId, GossipStack<u64>>;

/// Runs `rounds` synchronous gossip rounds over the population, delivering
/// every message (including replies) within the round. Nodes tick in
/// ascending id order, so one seed is one schedule and a failing seed
/// reproduces; a hash map's order would change from process to process.
fn run_rounds(nodes: &mut Population, start_round: u64, rounds: u64, rng: &mut StdRng) {
    for r in start_round..start_round + rounds {
        let now = r * 1000;
        let ids: Vec<NodeId> = nodes.keys().copied().collect();
        let mut queue: VecDeque<(NodeId, NodeId, GossipMessage<u64>)> = VecDeque::new();
        for &id in &ids {
            for (dst, msg) in nodes.get_mut(&id).unwrap().tick(now, rng) {
                queue.push_back((id, dst, msg));
            }
        }
        while let Some((from, to, msg)) = queue.pop_front() {
            let Some(node) = nodes.get_mut(&to) else {
                continue; // dead peer: message dropped
            };
            for (back, reply) in node.handle(from, msg, rng) {
                queue.push_back((to, back, reply));
            }
        }
    }
}

/// Nodes `ids` with profiles on a line (`id * 10`), bootstrapped as a chain:
/// each node knows only its predecessor in `ids`.
fn line_population(ids: Range<u64>, cfg: &GossipConfig) -> Population {
    let start = ids.start;
    ids.map(|id| {
        let mut s = GossipStack::new(
            id,
            id * 10,
            cfg.clone(),
            RankSelector::new(|a: &u64, b: &u64| a.abs_diff(*b)),
        );
        if id > start {
            s.introduce(id - 1, (id - 1) * 10);
        }
        (id, s)
    })
    .collect()
}

/// Reachability from `from` over the union of both views.
fn reachable(nodes: &Population, from: NodeId) -> BTreeSet<NodeId> {
    let mut seen = BTreeSet::from([from]);
    let mut stack = vec![from];
    while let Some(id) = stack.pop() {
        let Some(n) = nodes.get(&id) else { continue };
        for next in n
            .random_view()
            .ids()
            .into_iter()
            .chain(n.semantic_view().ids())
        {
            if nodes.contains_key(&next) && seen.insert(next) {
                stack.push(next);
            }
        }
    }
    seen
}

#[test]
fn semantic_views_converge_to_nearest_neighbors() {
    let cfg = GossipConfig {
        cyclon_view: 8,
        cyclon_shuffle: 4,
        semantic_view: 6,
        semantic_shuffle: 4,
        period_ms: 1000,
    };
    let mut rng = StdRng::seed_from_u64(11);
    let mut nodes = line_population(0..64, &cfg);
    run_rounds(&mut nodes, 0, 40, &mut rng);

    // Each node's semantic view should be dominated by line-adjacent peers:
    // count how many of the 2 nearest neighbors each node knows.
    let mut hits = 0usize;
    let mut total = 0usize;
    for (&id, node) in &nodes {
        for w in [id.checked_sub(1), id.checked_add(1).filter(|&x| x < 64)]
            .into_iter()
            .flatten()
        {
            total += 1;
            if node.semantic_view().contains(w) {
                hits += 1;
            }
        }
    }
    let ratio = hits as f64 / total as f64;
    assert!(
        ratio > 0.95,
        "only {hits}/{total} nearest-neighbor links found"
    );
}

#[test]
fn population_remains_connected() {
    let cfg = GossipConfig {
        cyclon_view: 8,
        cyclon_shuffle: 4,
        semantic_view: 6,
        semantic_shuffle: 4,
        period_ms: 1000,
    };
    let mut rng = StdRng::seed_from_u64(5);
    let mut nodes = line_population(0..100, &cfg);
    run_rounds(&mut nodes, 0, 30, &mut rng);
    assert_eq!(reachable(&nodes, 0).len(), 100);
}

#[test]
fn overlay_heals_after_majority_failure() {
    let cfg = GossipConfig {
        cyclon_view: 10,
        cyclon_shuffle: 5,
        semantic_view: 8,
        semantic_shuffle: 5,
        period_ms: 1000,
    };
    let mut rng = StdRng::seed_from_u64(23);
    let mut nodes = line_population(0..120, &cfg);
    run_rounds(&mut nodes, 0, 25, &mut rng);

    // Kill half the population (every even id).
    let victims: Vec<NodeId> = nodes.keys().copied().filter(|id| id % 2 == 0).collect();
    for v in victims {
        nodes.remove(&v);
    }
    run_rounds(&mut nodes, 25, 40, &mut rng);

    // Survivors form a connected overlay again, with no dead entries
    // lingering in random views.
    let survivors: BTreeSet<NodeId> = nodes.keys().copied().collect();
    let seen = reachable(&nodes, *survivors.iter().next().unwrap());
    assert_eq!(
        seen.len(),
        survivors.len(),
        "overlay partitioned after failure"
    );

    let dead_refs: usize = nodes
        .values()
        .flat_map(|n| n.random_view().ids())
        .filter(|id| !survivors.contains(id))
        .count();
    let live_refs: usize = nodes.values().map(|n| n.random_view().len()).sum();
    assert!(
        (dead_refs as f64) < 0.2 * live_refs as f64,
        "too many dead entries survive: {dead_refs}/{live_refs}"
    );
}

#[test]
fn churned_node_rejoins_under_new_identity() {
    let cfg = GossipConfig {
        cyclon_view: 8,
        cyclon_shuffle: 4,
        semantic_view: 6,
        semantic_shuffle: 4,
        period_ms: 1000,
    };
    let mut rng = StdRng::seed_from_u64(2);
    let mut nodes = line_population(0..40, &cfg);
    run_rounds(&mut nodes, 0, 20, &mut rng);

    // Node 7 leaves and re-enters as id 1000 with the same profile,
    // bootstrapped off a single survivor — the paper's churn model.
    nodes.remove(&7);
    let mut fresh = GossipStack::new(
        1000,
        70,
        cfg.clone(),
        RankSelector::new(|a: &u64, b: &u64| a.abs_diff(*b)),
    );
    fresh.introduce(8, 80);
    nodes.insert(1000, fresh);
    run_rounds(&mut nodes, 20, 20, &mut rng);

    let adopted = nodes
        .values()
        .filter(|n| n.id() != 1000)
        .filter(|n| n.semantic_view().contains(1000) || n.random_view().contains(1000))
        .count();
    assert!(
        adopted >= 5,
        "rejoined node adopted by only {adopted} peers"
    );
    let newcomer = &nodes[&1000];
    assert!(
        newcomer.semantic_view().contains(6) || newcomer.semantic_view().contains(8),
        "newcomer failed to find line neighbors"
    );
}

#[test]
fn islands_stay_apart_until_bridged_then_merge() {
    let cfg = GossipConfig {
        cyclon_view: 8,
        cyclon_shuffle: 4,
        semantic_view: 6,
        semantic_shuffle: 4,
        period_ms: 1_000,
    };
    let mut rng = StdRng::seed_from_u64(3);
    let mut nodes = line_population(0..40, &cfg);
    nodes.extend(line_population(100..140, &cfg));
    run_rounds(&mut nodes, 0, 25, &mut rng);

    // No introduction crossed the gap: two components.
    let a = reachable(&nodes, 0);
    assert_eq!(a.len(), 40, "island A self-contained");
    assert!(!a.contains(&100), "no cross-island knowledge");
    let b = reachable(&nodes, 100);
    assert_eq!(b.len(), 40, "island B self-contained");

    // One single introduction bridges them…
    nodes.get_mut(&0).unwrap().introduce(100, 1000);
    run_rounds(&mut nodes, 25, 30, &mut rng);

    // …and gossip merges the membership completely.
    let merged = reachable(&nodes, 17);
    assert_eq!(merged.len(), 80, "overlay merged through one bridge link");
}
