//! Tests for the paper's extension points and edge rules: dynamic
//! attributes checked locally at match time (footnote 1), count queries,
//! the `C0` fan-out (§4.1) and hostile scope fields.

#![allow(clippy::disallowed_types)] // std-collections: test code; std sets only compare contents

mod common;

use std::collections::HashSet;

use attrspace::{Query, Range, Space};
use autosel_core::bootstrap::wire_perfect;
use autosel_core::{DynamicConstraint, ProtocolConfig, QueryRequest, SelectionNode};
use epigossip::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

    let request = QueryRequest {
        dynamic,
        ..query.clone().into()
    };
    let run = common::run(&mut nodes, 3, request, 0);

    let got: HashSet<NodeId> = run.matches.iter().map(|m| m.node).collect();
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
            assert_eq!(run.receipts[id as usize], 1, "node {id} not visited");
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
    let request = QueryRequest {
        dynamic,
        ..query.into()
    };
    let mut nodes = [a, b];
    let matches = common::run(&mut nodes, 0, request.clone(), 0).matches;
    assert!(matches.is_empty(), "dynamically ineligible");

    // Value changes — no registry to update, next query sees it instantly.
    nodes[1].set_dynamic(1, 42);
    let matches = common::run(&mut nodes, 0, request, 10).matches;
    assert_eq!(matches.len(), 1);
    assert_eq!(matches[0].node, 2);
}

#[test]
fn missing_dynamic_value_never_matches() {
    let space = Space::uniform(2, 80, 2).unwrap();
    let point = space.point(&[70, 70]).unwrap();
    let a = SelectionNode::new(1, &space, point, ProtocolConfig::default());
    let query = Query::builder(&space).build().unwrap();
    let dynamic = vec![DynamicConstraint {
        key: 9,
        range: Range::FULL,
    }];
    let request = QueryRequest {
        dynamic,
        ..query.into()
    };
    let matches = common::run(&mut [a], 0, request, 0).matches;
    assert!(matches.is_empty(), "no value set for key 9");
}

/// The one `C0` rule (§4.1, Fig. 5's zero-level loop): once the levels
/// above are exhausted, a node hands the query to every matching `C0` mate
/// it knows, and each answers directly. Mates it does not know are not
/// reached, and σ does not cut the loop short.
#[test]
fn c0_fanout_contacts_exactly_the_known_matching_mates() {
    // A single-`C0` ring where each node knows only its successor: the
    // origin reaches its one known mate, once, and nobody else.
    let s = Space::uniform(1, 80, 1).unwrap();
    let mut ring: Vec<SelectionNode> = (0..4)
        .map(|id| SelectionNode::new(id, &s, s.point(&[id + 1]).unwrap(), Default::default()))
        .collect();
    for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
        let p = ring[b].point().clone();
        ring[a].routing_mut().observe(b as NodeId, p);
    }
    let query = Query::builder(&s).range("a0", 0, 39).build().unwrap();
    let run = common::run(&mut ring, 0, query.into(), 0);
    let mut got: Vec<NodeId> = run.matches.iter().map(|m| m.node).collect();
    got.sort_unstable();
    assert_eq!(got, vec![0, 1]);
    assert_eq!(run.receipts, vec![0, 1, 0, 0], "one receipt per known mate");

    // A denser cell whose origin knows every mate: a σ-bounded query still
    // contacts each matching one (the documented overshoot), and no other.
    let s = Space::uniform(2, 80, 2).unwrap();
    let mut cell: Vec<SelectionNode> = (0..12)
        .map(|i| {
            SelectionNode::new(
                i,
                &s,
                s.point(&[5 + i % 10, 7]).unwrap(),
                Default::default(),
            )
        })
        .collect();
    for i in 1..12 {
        let p = cell[i].point().clone();
        cell[0].routing_mut().observe(i as NodeId, p);
    }
    let query = Query::builder(&s).max("a0", 9).build().unwrap();
    let matching: Vec<NodeId> = (0..12).filter(|&i| 5 + i % 10 <= 9).collect();
    let run = common::run(&mut cell, 0, QueryRequest::matches(query, Some(4)), 0);
    let mut got: Vec<NodeId> = run.matches.iter().map(|m| m.node).collect();
    got.sort_unstable();
    assert_eq!(got, matching, "every known matching mate, past σ = 4");
    for (i, &r) in run.receipts.iter().enumerate().skip(1) {
        let want = u32::from(matching.contains(&(i as NodeId)));
        assert_eq!(r, want, "node {i} receipts");
    }
    assert_eq!(run.receipts[0], 0, "nothing re-delivered to the origin");

    for n in ring.iter().chain(&cell) {
        assert_eq!(n.pending_len(), 0, "node {} keeps pending state", n.id());
        assert_eq!(n.duplicate_receipts(), 0, "node {} saw a duplicate", n.id());
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
    let matches = common::run(&mut nodes, 0, query.clone().into(), 0).matches;

    // Count-only: same traversal, aggregate-only replies.
    let counted = common::run(&mut nodes, 0, QueryRequest::count(query), 100);
    assert_eq!(counted.count, matches.len() as u64, "exact count");
    assert_eq!(
        counted.reply_matches, 0,
        "count-only replies carry no match lists"
    );
}
