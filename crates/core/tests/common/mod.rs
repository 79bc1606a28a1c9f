//! The FIFO message pump the integration tests share: one query, run to
//! completion over a population of `SelectionNode`s with every node alive.

use std::collections::VecDeque;

use autosel_core::{Match, Message, Output, QueryRequest, SelectionNode};
use epigossip::NodeId;

/// What one pumped query produced.
#[derive(Default)]
#[allow(dead_code)] // each test file reads the fields it checks
pub struct Run {
    /// Matches reported at the origin.
    pub matches: Vec<Match>,
    /// Total matches reported at the origin (a count query's answer).
    pub count: u64,
    /// Per node, in `nodes` order: how often it received the QUERY message.
    pub receipts: Vec<u32>,
    /// Total protocol messages (queries + replies).
    pub messages: u64,
    /// Matches carried by REPLY messages.
    pub reply_matches: usize,
}

/// Issues `request` at `nodes[origin]` at time `now`, then delivers every
/// message in send order, one time unit apart, until none is left. Panics
/// if the query does not complete.
pub fn run(nodes: &mut [SelectionNode], origin: usize, request: QueryRequest, now: u64) -> Run {
    let mut run = Run {
        receipts: vec![0; nodes.len()],
        ..Run::default()
    };
    let mut outs = Vec::new();
    let qid = nodes[origin].begin(request, now, &mut outs);
    let (mut inbox, mut completed) = (VecDeque::new(), false);
    let mut push = |from: NodeId, outs: Vec<Output>, inbox: &mut VecDeque<_>, run: &mut Run| {
        for o in outs {
            match o {
                Output::Send { to, msg } => inbox.push_back((from, to, msg)),
                Output::Completed { id, matches, count } => {
                    assert_eq!(id, qid);
                    (run.matches, run.count, completed) = (matches, count, true);
                }
                Output::Gossip { .. } => panic!("a bare node never gossips"),
            }
        }
    };
    push(nodes[origin].id(), outs, &mut inbox, &mut run);
    let mut now = now + 1;
    while let Some((from, to, msg)) = inbox.pop_front() {
        let at = nodes
            .iter()
            .position(|n| n.id() == to)
            .expect("a known node");
        run.messages += 1;
        match &msg {
            Message::Query(_) => run.receipts[at] += 1,
            Message::Reply(r) => run.reply_matches += r.matching.len(),
        }
        let outs = nodes[at].handle_message(from, msg, now);
        now += 1;
        push(to, outs, &mut inbox, &mut run);
    }
    assert!(completed, "query must complete");
    run
}
