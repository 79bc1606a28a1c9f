//! End-to-end properties of the query-routing protocol on oracle-wired
//! populations: the §6 claims that *every* matching node is reached ("100%
//! delivery"), that *no node ever receives the same query twice*, and that
//! σ-bounded queries stop early but never under-deliver.

use std::collections::VecDeque;

use attrspace::{Query, Range, Space};
use autosel_core::bootstrap::{ground_truth, wire_perfect};
use autosel_core::{Match, Message, Output, ProtocolConfig, QueryId, SelectionNode};
use epigossip::NodeId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Synchronous driver: runs one query from `origin` to completion, counting
/// query receipts per node. Panics on dropped messages (all nodes alive).
struct RunResult {
    matches: Vec<Match>,
    /// Per node: how often it received the QUERY message.
    receipts: Vec<u32>,
    /// Total protocol messages (queries + replies).
    messages: u64,
}

fn run_query(
    nodes: &mut [SelectionNode],
    origin: usize,
    query: Query,
    sigma: Option<u32>,
) -> RunResult {
    let mut receipts = vec![0u32; nodes.len()];
    let mut messages = 0u64;
    let mut inbox: VecDeque<(NodeId, NodeId, Message)> = VecDeque::new();
    let mut completed: Option<(QueryId, Vec<Match>)> = None;

    let (qid, outs) = nodes[origin].begin_query(query, sigma, 0);
    let push = |from: NodeId,
                outs: Vec<Output>,
                inbox: &mut VecDeque<(NodeId, NodeId, Message)>,
                completed: &mut Option<(QueryId, Vec<Match>)>| {
        for o in outs {
            match o {
                Output::Send { to, msg } => inbox.push_back((from, to, msg)),
                Output::Completed { id, matches, .. } => *completed = Some((id, matches)),
                Output::NeighborFailed(_) => panic!("no failures in static run"),
            }
        }
    };
    push(origin as NodeId, outs, &mut inbox, &mut completed);

    let mut now = 1;
    while let Some((from, to, msg)) = inbox.pop_front() {
        messages += 1;
        if let Message::Query(_) = &msg {
            receipts[to as usize] += 1;
        }
        let outs = nodes[to as usize].handle_message(from, msg, now);
        now += 1;
        push(to, outs, &mut inbox, &mut completed);
    }

    let (id, matches) = completed.expect("query must complete");
    assert_eq!(id, qid);
    RunResult {
        matches,
        receipts,
        messages,
    }
}

fn population(space: &Space, n: usize, seed: u64) -> (Vec<SelectionNode>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nodes: Vec<SelectionNode> = (0..n)
        .map(|i| {
            let vals: Vec<u64> = (0..space.dims()).map(|_| rng.gen_range(0..80)).collect();
            SelectionNode::new(
                i as NodeId,
                space,
                space.point(&vals).unwrap(),
                ProtocolConfig::default(),
            )
        })
        .collect();
    wire_perfect(&mut nodes, &mut rng);
    (nodes, rng)
}

#[test]
fn unbounded_query_reaches_exactly_the_matching_set() {
    let space = Space::uniform(3, 80, 3).unwrap();
    let (mut nodes, _) = population(&space, 500, 7);
    let query = Query::builder(&space)
        .min("a0", 40)
        .range("a1", 10, 59)
        .build()
        .unwrap();
    let mut truth = ground_truth(&nodes, &query);
    truth.sort_unstable();

    for origin in [0usize, 123, 499] {
        let r = run_query(&mut nodes, origin, query.clone(), None);
        let mut got: Vec<NodeId> = r.matches.iter().map(|m| m.node).collect();
        got.sort_unstable();
        assert_eq!(got, truth, "100% delivery from origin {origin}");
        for (i, &c) in r.receipts.iter().enumerate() {
            assert!(c <= 1, "node {i} received the query {c} times");
        }
        for &m in &truth {
            if m as usize != origin {
                assert_eq!(r.receipts[m as usize], 1, "matching node {m} missed");
            }
        }
        assert_eq!(nodes.iter().map(|n| n.duplicate_receipts()).sum::<u64>(), 0);
        for n in nodes.iter() {
            assert_eq!(n.pending_len(), 0, "no residual per-query state");
        }
    }
}

#[test]
fn sigma_bounds_early_stop_without_underdelivery() {
    let space = Space::uniform(5, 80, 3).unwrap();
    let (mut nodes, _) = population(&space, 800, 13);
    let query = Query::builder(&space).min("a0", 20).build().unwrap();
    let total = ground_truth(&nodes, &query).len();
    assert!(total > 100, "workload sanity: selective but populous");

    let r_unbounded = run_query(&mut nodes, 5, query.clone(), None);
    let r_sigma = run_query(&mut nodes, 5, query.clone(), Some(10));
    assert!(r_sigma.matches.len() >= 10, "σ satisfied");
    assert!(
        r_sigma.matches.len() < total,
        "σ stopped before exhausting all {total} matches"
    );
    assert!(
        r_sigma.messages < r_unbounded.messages / 2,
        "σ run used {} messages vs {} unbounded",
        r_sigma.messages,
        r_unbounded.messages
    );
    assert!(r_sigma.matches.iter().all(|m| query.matches(&m.values)));
}

#[test]
fn query_from_every_node_of_a_small_population() {
    // The paper issues each query from every node (§6): delivery must be
    // independent of the origin.
    let space = Space::uniform(2, 80, 3).unwrap();
    let (mut nodes, _) = population(&space, 120, 21);
    let query = Query::builder(&space).range("a0", 30, 69).build().unwrap();
    let mut truth = ground_truth(&nodes, &query);
    truth.sort_unstable();
    for origin in 0..nodes.len() {
        let r = run_query(&mut nodes, origin, query.clone(), None);
        let mut got: Vec<NodeId> = r.matches.iter().map(|m| m.node).collect();
        got.sort_unstable();
        assert_eq!(got, truth, "origin {origin}");
    }
}

#[test]
fn empty_result_queries_terminate() {
    let space = Space::uniform(3, 80, 3).unwrap();
    let (mut nodes, _) = population(&space, 300, 3);
    // Match nothing: the top bucket is [70,∞) and we demand an impossible
    // combination by excluding every existing point in dimension 0.
    let occupied: Vec<u64> = nodes.iter().map(|n| n.point().values()[0]).collect();
    let free = (0..80u64).find(|v| !occupied.contains(v));
    if let Some(v) = free {
        let query = Query::builder(&space).exact("a0", v).build().unwrap();
        let r = run_query(&mut nodes, 0, query, None);
        assert!(r.matches.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exactly-once delivery of the full matching set for random populations,
    /// random (possibly unaligned) queries, dimensions 1–4, depth 2–3.
    #[test]
    fn delivery_is_exact_for_random_configs(
        seed in 0u64..1000,
        n in 20usize..150,
        d in 1usize..5,
        max_level in 2u8..4,
        ranges in prop::collection::vec((0u64..90, 0u64..90), 4),
        origin_sel in 0usize..1000,
    ) {
        let space = Space::uniform(d, 80, max_level).unwrap();
        let (mut nodes, _) = population(&space, n, seed);
        let ranges: Vec<Range> = ranges
            .into_iter()
            .take(d)
            .map(|(a, b)| Range { lo: a.min(b), hi: a.max(b) })
            .collect();
        let query = Query::from_ranges(&space, ranges).unwrap();
        let mut truth = ground_truth(&nodes, &query);
        truth.sort_unstable();

        let origin = origin_sel % n;
        let r = run_query(&mut nodes, origin, query, None);
        let mut got: Vec<NodeId> = r.matches.iter().map(|m| m.node).collect();
        got.sort_unstable();
        prop_assert_eq!(got, truth);
        for &c in &r.receipts {
            prop_assert!(c <= 1, "duplicate receipt");
        }
        prop_assert_eq!(nodes.iter().map(|x| x.duplicate_receipts()).sum::<u64>(), 0);
    }

    /// σ-bounded queries return at least min(σ, total) matches, all valid.
    #[test]
    fn sigma_never_underdelivers(
        seed in 0u64..1000,
        n in 30usize..120,
        sigma in 1u32..40,
    ) {
        let space = Space::uniform(3, 80, 3).unwrap();
        let (mut nodes, _) = population(&space, n, seed);
        let query = Query::builder(&space).min("a0", 10).build().unwrap();
        let total = ground_truth(&nodes, &query).len() as u32;
        let r = run_query(&mut nodes, 0, query.clone(), Some(sigma));
        prop_assert!(r.matches.len() as u32 >= sigma.min(total));
        for m in &r.matches {
            prop_assert!(query.matches(&m.values));
        }
    }
}
