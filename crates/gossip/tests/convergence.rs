//! End-to-end behaviour of the two-layer stack on a synchronously simulated
//! population: semantic convergence, connectivity, and self-healing.

#![allow(clippy::disallowed_types)] // std-collections: test code; the population is a std map

use epigossip::{GossipConfig, GossipMessage, GossipStack, NodeId, RankSelector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet, VecDeque};

/// Runs `rounds` synchronous gossip rounds over the population, delivering
/// every message (including replies) within the round.
fn run_rounds(
    nodes: &mut HashMap<NodeId, GossipStack<u64>>,
    start_round: u64,
    rounds: u64,
    rng: &mut StdRng,
) {
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

fn line_population(n: u64, cfg: &GossipConfig) -> HashMap<NodeId, GossipStack<u64>> {
    let mut nodes = HashMap::new();
    for id in 0..n {
        let mut s = GossipStack::new(
            id,
            id * 10, // profile: position on a line
            cfg.clone(),
            RankSelector::new(|a: &u64, b: &u64| a.abs_diff(*b)),
        );
        // Bootstrap chain: each node knows its predecessor only.
        if id > 0 {
            s.introduce(id - 1, (id - 1) * 10);
        }
        nodes.insert(id, s);
    }
    nodes
}

/// Random-layer reachability from node 0 over the union of both views.
fn reachable(nodes: &HashMap<NodeId, GossipStack<u64>>, from: NodeId) -> HashSet<NodeId> {
    let mut seen = HashSet::from([from]);
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
    let mut nodes = line_population(64, &cfg);
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
    let mut nodes = line_population(100, &cfg);
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
    let mut nodes = line_population(120, &cfg);
    run_rounds(&mut nodes, 0, 25, &mut rng);

    // Kill half the population (every even id).
    let victims: Vec<NodeId> = nodes.keys().copied().filter(|id| id % 2 == 0).collect();
    for v in victims {
        nodes.remove(&v);
    }
    run_rounds(&mut nodes, 25, 40, &mut rng);

    // Survivors form a connected overlay again, with no dead entries
    // lingering in random views.
    let survivors: HashSet<NodeId> = nodes.keys().copied().collect();
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
    let mut nodes = line_population(40, &cfg);
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
