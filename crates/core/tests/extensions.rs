//! Tests for the paper's extension points: dynamic attributes checked
//! locally at match time (footnote 1) and the `C0` epidemic relay for
//! densely populated lowest-level cells (§4.1).

#![allow(clippy::disallowed_types)] // std-collections: test code; std sets only compare contents

use std::collections::{HashSet, VecDeque};

use attrspace::{Query, Range, Space};
use autosel_core::bootstrap::wire_perfect;
use autosel_core::{DynamicConstraint, Match, Message, Output, ProtocolConfig, SelectionNode};
use epigossip::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Minimal synchronous driver (subset of `routing_properties.rs`).
fn drive(nodes: &mut [SelectionNode], origin: usize, outs: Vec<Output>) -> (Vec<Match>, Vec<u32>) {
    let mut receipts = vec![0u32; nodes.len()];
    let mut inbox: VecDeque<(NodeId, NodeId, Message)> = VecDeque::new();
    let mut completed = None;
    let mut push =
        |from: NodeId, outs: Vec<Output>, inbox: &mut VecDeque<(NodeId, NodeId, Message)>| {
            for o in outs {
                match o {
                    Output::Send { to, msg } => inbox.push_back((from, to, msg)),
                    Output::Completed { matches, .. } => completed = Some(matches),
                    Output::NeighborFailed(_) => {}
                }
            }
        };
    push(origin as NodeId, outs, &mut inbox);
    let mut now = 1;
    while let Some((from, to, msg)) = inbox.pop_front() {
        if matches!(msg, Message::Query(_)) {
            receipts[to as usize] += 1;
        }
        let outs = nodes[to as usize].handle_message(from, msg, now);
        now += 1;
        push(to, outs, &mut inbox);
    }
    (completed.expect("completed"), receipts)
}

fn population(space: &Space, n: usize, seed: u64, config: ProtocolConfig) -> Vec<SelectionNode> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nodes: Vec<SelectionNode> = (0..n)
        .map(|i| {
            let vals: Vec<u64> = (0..space.dims()).map(|_| rng.gen_range(0..80)).collect();
            SelectionNode::new(
                i as NodeId,
                space,
                space.point(&vals).unwrap(),
                config.clone(),
            )
        })
        .collect();
    wire_perfect(&mut nodes, &mut rng);
    nodes
}

#[test]
fn dynamic_constraints_filter_at_match_time() {
    let space = Space::uniform(3, 80, 3).unwrap();
    let mut nodes = population(&space, 300, 5, ProtocolConfig::default());

    // Give every node a "free disk" dynamic value derived from its id;
    // only even-id nodes have ≥ 100.
    const FREE_DISK: u32 = 7;
    for n in nodes.iter_mut() {
        let v = if n.id() % 2 == 0 { 150 } else { 10 };
        n.set_dynamic(FREE_DISK, v);
    }

    let query = Query::builder(&space).min("a0", 40).build().unwrap();
    let static_truth: HashSet<NodeId> = nodes
        .iter()
        .filter(|n| query.matches(n.point()))
        .map(|n| n.id())
        .collect();
    let dynamic = vec![DynamicConstraint {
        key: FREE_DISK,
        range: Range {
            lo: 100,
            hi: u64::MAX,
        },
    }];

    let (_, outs) = nodes[3].begin_query_full(query.clone(), dynamic, None, 0);
    let (matches, receipts) = drive(&mut nodes, 3, outs);

    let got: HashSet<NodeId> = matches.iter().map(|m| m.node).collect();
    let expected: HashSet<NodeId> = static_truth
        .iter()
        .copied()
        .filter(|id| id % 2 == 0)
        .collect();
    assert_eq!(got, expected, "only dynamically-eligible nodes reported");
    // Routing is unchanged: every *statically* matching node is still
    // visited (the dynamic check happens locally, not in the overlay).
    for &id in &static_truth {
        if id != 3 {
            assert_eq!(receipts[id as usize], 1, "node {id} not visited");
        }
    }
}

#[test]
fn dynamic_values_can_change_between_queries() {
    let space = Space::uniform(2, 80, 2).unwrap();
    let cfg = ProtocolConfig::default();
    let mut a = SelectionNode::new(1, &space, space.point(&[10, 10]).unwrap(), cfg.clone());
    let mut b = SelectionNode::new(2, &space, space.point(&[70, 70]).unwrap(), cfg);
    a.routing_mut().observe(2, b.point().clone());
    b.set_dynamic(1, 5);

    let query = Query::builder(&space).min("a0", 60).build().unwrap();
    let dynamic = vec![DynamicConstraint {
        key: 1,
        range: Range { lo: 10, hi: 100 },
    }];

    // First query: b's load is 5 → constraint unsatisfied.
    let (_, outs) = a.begin_query_full(query.clone(), dynamic.clone(), None, 0);
    let Output::Send { msg, .. } = &outs[0] else {
        panic!("{outs:?}")
    };
    let replies = b.handle_message(1, msg.clone(), 1);
    let Output::Send { msg: reply, .. } = &replies[0] else {
        panic!()
    };
    let done = a.handle_message(2, reply.clone(), 2);
    let Output::Completed { matches, .. } = &done[0] else {
        panic!("{done:?}")
    };
    assert!(matches.is_empty(), "dynamically ineligible");

    // Value changes — no registry to update, next query sees it instantly.
    b.set_dynamic(1, 42);
    let (_, outs) = a.begin_query_full(query, dynamic, None, 10);
    let Output::Send { msg, .. } = &outs[0] else {
        panic!()
    };
    let replies = b.handle_message(1, msg.clone(), 11);
    let Output::Send { msg: reply, .. } = &replies[0] else {
        panic!()
    };
    let done = a.handle_message(2, reply.clone(), 12);
    let Output::Completed { matches, .. } = &done[0] else {
        panic!()
    };
    assert_eq!(matches.len(), 1);
    assert_eq!(matches[0].node, 2);
}

#[test]
fn missing_dynamic_value_never_matches() {
    let space = Space::uniform(2, 80, 2).unwrap();
    let mut a = SelectionNode::new(
        1,
        &space,
        space.point(&[70, 70]).unwrap(),
        ProtocolConfig::default(),
    );
    let query = Query::builder(&space).build().unwrap();
    let dynamic = vec![DynamicConstraint {
        key: 9,
        range: Range::FULL,
    }];
    let (_, outs) = a.begin_query_full(query, dynamic, None, 0);
    let Output::Completed { matches, .. } = &outs[0] else {
        panic!("{outs:?}")
    };
    assert!(matches.is_empty(), "no value set for key 9");
}

/// Builds a dense single-`C0` population where each node only knows a few
/// mates (a chain), so plain zero-fanout cannot cover the cell but the
/// epidemic relay can.
fn dense_cell_chain(relay: bool) -> Vec<SelectionNode> {
    let space = Space::uniform(2, 80, 2).unwrap();
    let cfg = ProtocolConfig {
        c0_relay: relay,
        ..ProtocolConfig::default()
    };
    let n = 12;
    let mut nodes: Vec<SelectionNode> = (0..n)
        .map(|i| {
            // All in the same C0 bucket (values 0..19 → bucket 0 at L=2).
            SelectionNode::new(
                i,
                &space,
                space.point(&[5 + i % 10, 7]).unwrap(),
                cfg.clone(),
            )
        })
        .collect();
    // Chain knowledge: node i knows only i-1 and i+1.
    let points: Vec<_> = nodes.iter().map(|x| x.point().clone()).collect();
    for i in 0..n as usize {
        if i > 0 {
            nodes[i]
                .routing_mut()
                .observe((i - 1) as NodeId, points[i - 1].clone());
        }
        if i + 1 < n as usize {
            nodes[i]
                .routing_mut()
                .observe((i + 1) as NodeId, points[i + 1].clone());
        }
    }
    nodes
}

#[test]
fn c0_relay_covers_mates_beyond_direct_knowledge() {
    let space = Space::uniform(2, 80, 2).unwrap();
    let query = Query::builder(&space).max("a0", 79).build().unwrap();

    // Without the relay: origin 0 only reaches its direct mate(s).
    let mut plain = dense_cell_chain(false);
    let (_, outs) = plain[0].begin_query(query.clone(), None, 0);
    let (matches, _) = drive(&mut plain, 0, outs);
    assert!(
        matches.len() <= 2,
        "plain fanout is bounded by direct knowledge, got {}",
        matches.len()
    );

    // With the relay: the query spreads down the chain epidemic-style.
    let mut relayed = dense_cell_chain(true);
    let (_, outs) = relayed[0].begin_query(query.clone(), None, 0);
    let (matches, receipts) = drive(&mut relayed, 0, outs);
    assert_eq!(matches.len(), 12, "relay reaches the whole cell");
    // The visited_zero set keeps the epidemic nearly duplicate-free in a
    // chain topology: every node receives the query exactly once.
    for (i, &r) in receipts.iter().enumerate().skip(1) {
        assert_eq!(r, 1, "node {i} receipts");
    }
}

#[test]
fn c0_relay_with_sigma_overshoots_but_terminates() {
    // Fig. 5's zero-level loop contacts matching mates without consulting σ
    // (σ prunes only the level > 0 exploration), so a relayed chain returns
    // the whole cell — a documented overshoot, never an under-delivery or a
    // hang.
    let space = Space::uniform(2, 80, 2).unwrap();
    let query = Query::builder(&space).max("a0", 79).build().unwrap();
    let mut relayed = dense_cell_chain(true);
    let (_, outs) = relayed[0].begin_query(query, Some(4), 0);
    let (matches, _) = drive(&mut relayed, 0, outs);
    assert!(matches.len() >= 4, "σ satisfied via relay");
    assert_eq!(matches.len(), 12);
    for n in relayed.iter() {
        assert_eq!(n.pending_len(), 0, "no dangling state after the epidemic");
    }
}

#[test]
fn hostile_scope_fields_cannot_panic_a_node() {
    // A buggy or malicious peer sends out-of-range level/dims: the receiver
    // clamps them and answers normally instead of panicking (C-VALIDATE).
    use autosel_core::{Message, QueryId, QueryMsg};
    let space = Space::uniform(3, 80, 3).unwrap();
    let mut nodes = population(&space, 50, 9, ProtocolConfig::default());
    let query = Query::builder(&space).min("a0", 40).build().unwrap();
    for (i, (level, dims)) in [(i8::MAX, u32::MAX), (i8::MIN, 0), (3, u32::MAX), (-1, 7)]
        .into_iter()
        .enumerate()
    {
        let msg = QueryMsg {
            id: QueryId {
                origin: 999,
                seq: i as u32,
            },
            query: query.clone().into(),
            sigma: Some(5),
            level,
            dims,
            dynamic: Vec::new(),
            count_only: false,
            visited_zero: Vec::new(),
            attempt: 1,
        };
        let outs = nodes[0].handle_message(999, Message::Query(msg), 0);
        assert!(!outs.is_empty(), "node answered or forwarded");
    }
}

#[test]
fn count_queries_agree_with_enumeration_at_constant_reply_size() {
    let space = Space::uniform(3, 80, 3).unwrap();
    let mut nodes = population(&space, 400, 12, ProtocolConfig::default());
    let query = Query::builder(&space)
        .min("a0", 30)
        .range("a2", 10, 59)
        .build()
        .unwrap();

    // Enumerate.
    let (_, outs) = nodes[0].begin_query(query.clone(), None, 0);
    let (matches, _) = drive(&mut nodes, 0, outs);

    // Count-only: same traversal, aggregate-only replies.
    let mut count_result = None;
    let (_, outs) = nodes[0].begin_count_query(query.clone(), Vec::new(), 100);
    let mut inbox: VecDeque<(NodeId, NodeId, Message)> = VecDeque::new();
    let mut reply_matches = 0usize;
    for o in outs {
        if let Output::Send { to, msg } = o {
            inbox.push_back((0, to, msg));
        } else if let Output::Completed { count, .. } = o {
            count_result = Some(count);
        }
    }
    let mut now = 101;
    while let Some((from, to, msg)) = inbox.pop_front() {
        if let Message::Reply(r) = &msg {
            reply_matches += r.matching.len();
        }
        for o in nodes[to as usize].handle_message(from, msg, now) {
            match o {
                Output::Send { to: dst, msg } => inbox.push_back((to, dst, msg)),
                Output::Completed { count, .. } => count_result = Some(count),
                Output::NeighborFailed(_) => {}
            }
        }
        now += 1;
    }
    assert_eq!(count_result, Some(matches.len() as u64), "exact count");
    assert_eq!(reply_matches, 0, "count-only replies carry no match lists");
}
