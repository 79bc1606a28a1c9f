//! Partition behaviour: two overlay islands stay separate until a single
//! introduction bridges them, after which gossip merges the membership —
//! the mechanism behind the paper's §6.7 claim that only true graph
//! partition prevents recovery.

#![allow(clippy::disallowed_types)] // std-collections: test code; the population is a std map

use epigossip::{GossipConfig, GossipMessage, GossipStack, NodeId, RankSelector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet, VecDeque};

fn cfg() -> GossipConfig {
    GossipConfig {
        cyclon_view: 8,
        cyclon_shuffle: 4,
        semantic_view: 6,
        semantic_shuffle: 4,
        period_ms: 1_000,
    }
}

fn island(ids: std::ops::Range<u64>) -> HashMap<NodeId, GossipStack<u64>> {
    let mut nodes = HashMap::new();
    let start = ids.start;
    for id in ids {
        let mut s = GossipStack::new(
            id,
            id * 10,
            cfg(),
            RankSelector::new(|a: &u64, b: &u64| a.abs_diff(*b)),
        );
        if id > start {
            s.introduce(id - 1, (id - 1) * 10);
        }
        nodes.insert(id, s);
    }
    nodes
}

fn run_rounds(
    nodes: &mut HashMap<NodeId, GossipStack<u64>>,
    start_round: u64,
    rounds: u64,
    rng: &mut StdRng,
) {
    for r in start_round..start_round + rounds {
        let now = r * 1_000;
        let ids: Vec<NodeId> = {
            let mut v: Vec<NodeId> = nodes.keys().copied().collect();
            v.sort_unstable();
            v
        };
        let mut queue: VecDeque<(NodeId, NodeId, GossipMessage<u64>)> = VecDeque::new();
        for &id in &ids {
            for (dst, msg) in nodes.get_mut(&id).unwrap().tick(now, rng) {
                queue.push_back((id, dst, msg));
            }
        }
        while let Some((from, to, msg)) = queue.pop_front() {
            let Some(node) = nodes.get_mut(&to) else {
                continue;
            };
            for (back, reply) in node.handle(from, msg, rng) {
                queue.push_back((to, back, reply));
            }
        }
    }
}

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
fn islands_stay_apart_until_bridged_then_merge() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut nodes = island(0..40);
    nodes.extend(island(100..140));
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
