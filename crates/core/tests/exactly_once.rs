//! Exactly-once accounting property: whatever the network does to one
//! forward's traffic — duplicating the QUERY (a retry redelivers it),
//! duplicating the REPLY, or reordering deliveries arbitrarily — the
//! upstream merges each subtree's contribution exactly once. Attempt ids
//! correlate every REPLY with the specific forward it answers, and the
//! bounded reply cache answers post-conclusion duplicates with the real
//! result instead of an empty stub, so neither the count total nor the
//! enumerated match set can drift.

#![allow(clippy::disallowed_types)] // std-collections: test code; std maps only tally deliveries

use std::collections::HashMap;

use attrspace::{Query, Space};
use autosel_core::{
    Match, Message, Output, ProtocolConfig, QueryMsg, QueryRequest, ReplyMsg, SelectionNode,
};
use epigossip::NodeId;
use proptest::prelude::*;

fn space() -> Space {
    Space::uniform(2, 80, 3).unwrap()
}

fn node(id: NodeId, vals: [u64; 2]) -> SelectionNode {
    let s = space();
    let point = s.point(&vals).unwrap();
    SelectionNode::new(id, &s, point, ProtocolConfig::default())
}

/// Sorts one batch of outputs into the in-flight mailboxes. Forwards can
/// only come from the origin; replies only from a downstream leaf, so the
/// sender is `from` for replies and implied for forwards.
fn absorb(
    from: NodeId,
    outs: Vec<Output>,
    pending_fwd: &mut Vec<(NodeId, QueryMsg)>,
    pending_rep: &mut Vec<(NodeId, ReplyMsg)>,
    completed: &mut Option<(Vec<Match>, u64)>,
) {
    for o in outs {
        match o {
            Output::Send {
                to,
                msg: Message::Query(q),
            } => pending_fwd.push((to, q)),
            Output::Send {
                to: _,
                msg: Message::Reply(r),
            } => pending_rep.push((from, r)),
            Output::Completed { matches, count, .. } => *completed = Some((matches, count)),
            Output::NeighborFailed(_) => {}
        }
    }
}

proptest! {
    /// Origin 1 forwards one query to two leaf subtrees (nodes 2 and 3, in
    /// distinct routing slots). The op tape then delivers, redelivers and
    /// reorders that traffic arbitrarily; afterwards everything still
    /// outstanding is drained. The query must complete with *exactly* the
    /// three matching nodes accounted — count mode (no identities to dedup
    /// by, the attempt tag is the only witness) and enumerate mode both.
    #[test]
    fn any_interleaving_of_duplicate_reorder_retry_merges_each_subtree_once(
        ops in prop::collection::vec((0u8..4, any::<u8>()), 0..48),
        count_mode in any::<bool>(),
    ) {
        let s = space();
        let mut a = node(1, [10, 10]);
        a.routing_mut().observe(2, s.point(&[70, 10]).unwrap());
        a.routing_mut().observe(3, s.point(&[10, 70]).unwrap());
        prop_assert_eq!(a.routing().link_count(), 2, "leaves must occupy distinct slots");

        let mut downstream: HashMap<NodeId, SelectionNode> = HashMap::new();
        downstream.insert(2, node(2, [70, 10]));
        downstream.insert(3, node(3, [10, 70]));

        // Matches all three nodes: exactness means the answer is 3, not
        // "at most 3" or "whatever survived the race".
        let query = Query::builder(&s).build().unwrap();
        let request = if count_mode {
            QueryRequest::count(query)
        } else {
            query.into()
        };
        let (qid, outs) = a.begin(request, 0);

        let mut pending_fwd: Vec<(NodeId, QueryMsg)> = Vec::new();
        let mut pending_rep: Vec<(NodeId, ReplyMsg)> = Vec::new();
        let mut sent_fwd: Vec<(NodeId, QueryMsg)> = Vec::new();
        let mut sent_rep: Vec<(NodeId, ReplyMsg)> = Vec::new();
        let mut completed: Option<(Vec<Match>, u64)> = None;
        // The traversal is depth-first: the origin forwards into one
        // subtree now and into the next only after that reply merges (the
        // later forwards surface through `absorb` as replies drain).
        absorb(1, outs, &mut pending_fwd, &mut pending_rep, &mut completed);
        prop_assert_eq!(pending_fwd.len(), 1, "origin opens exactly one subtree first");

        for &(op, pick) in &ops {
            match op {
                // Deliver one pending forward to its leaf (first delivery).
                0 => {
                    if pending_fwd.is_empty() {
                        continue;
                    }
                    let (to, q) = pending_fwd.remove(pick as usize % pending_fwd.len());
                    sent_fwd.push((to, q.clone()));
                    let n = downstream.get_mut(&to).expect("forward targets a leaf");
                    let outs = n.handle_message(1, Message::Query(q), 0);
                    absorb(to, outs, &mut pending_fwd, &mut pending_rep, &mut completed);
                }
                // Retry/duplication of a forward: redeliver a QUERY copy
                // the leaf has already seen.
                1 => {
                    if sent_fwd.is_empty() {
                        continue;
                    }
                    let (to, q) = sent_fwd[pick as usize % sent_fwd.len()].clone();
                    let n = downstream.get_mut(&to).expect("forward targets a leaf");
                    let outs = n.handle_message(1, Message::Query(q), 0);
                    absorb(to, outs, &mut pending_fwd, &mut pending_rep, &mut completed);
                }
                // Deliver one pending reply to the origin — the index is
                // arbitrary, so replies arrive in any order.
                2 => {
                    if pending_rep.is_empty() {
                        continue;
                    }
                    let (from, r) = pending_rep.remove(pick as usize % pending_rep.len());
                    sent_rep.push((from, r.clone()));
                    let outs = a.handle_message(from, Message::Reply(r), 0);
                    absorb(1, outs, &mut pending_fwd, &mut pending_rep, &mut completed);
                }
                // Duplication of a reply: redeliver a REPLY copy the origin
                // has already merged.
                _ => {
                    if sent_rep.is_empty() {
                        continue;
                    }
                    let (from, r) = sent_rep[pick as usize % sent_rep.len()].clone();
                    let outs = a.handle_message(from, Message::Reply(r), 0);
                    absorb(1, outs, &mut pending_fwd, &mut pending_rep, &mut completed);
                }
            }
        }

        // Drain: whatever the tape left in flight is now delivered, so the
        // query always completes and the exactness assertion always runs.
        while !pending_fwd.is_empty() || !pending_rep.is_empty() {
            if let Some((to, q)) = pending_fwd.pop() {
                let n = downstream.get_mut(&to).expect("forward targets a leaf");
                let outs = n.handle_message(1, Message::Query(q.clone()), 0);
                sent_fwd.push((to, q));
                absorb(to, outs, &mut pending_fwd, &mut pending_rep, &mut completed);
            } else if let Some((from, r)) = pending_rep.pop() {
                let outs = a.handle_message(from, Message::Reply(r.clone()), 0);
                sent_rep.push((from, r));
                absorb(1, outs, &mut pending_fwd, &mut pending_rep, &mut completed);
            }
        }

        let (matches, count) = completed.expect("query completes once traffic drains");
        let _ = qid;
        if count_mode {
            prop_assert_eq!(count, 3, "each subtree (and the origin) counted exactly once");
            prop_assert!(matches.is_empty(), "count mode carries no match list");
        } else {
            let mut ids: Vec<NodeId> = matches.iter().map(|m| m.node).collect();
            ids.sort_unstable();
            prop_assert_eq!(ids, vec![1, 2, 3], "every node reported exactly once");
        }
        prop_assert_eq!(a.pending_len(), 0, "no leaked per-query state at the origin");
    }
}
