//! In-memory reconstruction of each query's depth-first routing tree.
//!
//! The protocol guarantees exactly-once delivery, so `(query, node)` names
//! a unique span and the tree is simply: root = the issuing node, edge =
//! the first `QueryForwarded` reaching a node. Everything that violates
//! that shape — a forward from an unknown hop, a second root, a delivery
//! with no issue — is collected as a *problem* for `tracedump --check`,
//! while expected anomalies (duplicate deliveries under fault injection,
//! timeouts, hops that never replied) are *flags* rendered inline.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::event::{Event, NodeRef, QueryRef};
use crate::observer::Observer;

/// One node's span in a query's routing tree.
#[derive(Debug, Clone, Default)]
pub struct Hop {
    /// Causal parent (None only for the root).
    pub parent: Option<NodeRef>,
    /// When the parent handed this subtree over.
    pub forwarded_at: Option<u64>,
    /// When the QUERY delivery arrived here (first, non-duplicate one).
    pub received_at: Option<u64>,
    /// Hierarchy level of the received subtree (-1 = whole space).
    pub level: i8,
    /// Whether this node's resource matched the query.
    pub matched: bool,
    /// Extra (duplicate) QUERY deliveries observed at this hop.
    pub duplicates: u32,
    /// When this hop answered upstream, and with what count.
    pub reply: Option<(u64, u64)>,
    /// When the parent merged this hop's reply (fresh merges only).
    pub merged_at: Option<u64>,
    /// Genuinely stale replies from this hop: copies echoing an attempt id
    /// the parent no longer waited on (duplicated delivery, superseded
    /// forward, post-conclusion arrival). Since attempt-tagged replies, a
    /// stale reply never costs results — the fresh copy of the same
    /// attempt, or the cached retransmission, carries them.
    pub stale_replies: u32,
    /// True when the parent's timeout fired while waiting on this hop.
    pub timed_out: bool,
    /// Children in forwarding order.
    pub children: Vec<NodeRef>,
}

/// Everything reconstructed about one query.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// The issuing node (tree root).
    pub root: NodeRef,
    /// Issue timestamp (ms).
    pub issued_at: u64,
    /// σ early-stop bound, when one was requested.
    pub sigma: Option<u32>,
    /// Count-only query?
    pub count_only: bool,
    /// `(at, count)` when the origin observed completion.
    pub completed: Option<(u64, u64)>,
    /// Nodes that cut the traversal short on σ, with the count there.
    pub sigma_stops: Vec<(NodeRef, u64)>,
    /// Every span, keyed by node id.
    pub hops: BTreeMap<NodeRef, Hop>,
}

/// Aggregate numbers for one reconstructed tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Spans in the tree (nodes the query visited).
    pub hops: usize,
    /// Longest root-to-leaf path (root alone = 1).
    pub depth: usize,
    /// Hops whose resource matched.
    pub matched: usize,
    /// Total duplicate deliveries across all hops.
    pub duplicates: u64,
    /// Timeout refires observed.
    pub timeouts: u64,
    /// Non-root hops that received the query but never replied.
    pub leaked: u64,
}

#[derive(Debug, Default)]
struct State {
    queries: BTreeMap<QueryRef, QueryTrace>,
    problems: Vec<String>,
}

/// Appends a problem, capped so a pathological trace cannot balloon memory.
fn push_problem(problems: &mut Vec<String>, msg: String) {
    if problems.len() < 1000 {
        problems.push(msg);
    }
}

impl State {
    fn apply(&mut self, ev: &Event) {
        let State { queries, problems } = self;
        match *ev {
            Event::QueryIssued { at, query, node, sigma, count_only, matched } => {
                if queries.contains_key(&query) {
                    push_problem(
                        problems,
                        format!("{query}: issued more than once (second root at node {node})"),
                    );
                    return;
                }
                let mut hops = BTreeMap::new();
                hops.insert(
                    node,
                    Hop { received_at: Some(at), matched, level: i8::MIN, ..Hop::default() },
                );
                queries.insert(
                    query,
                    QueryTrace {
                        root: node,
                        issued_at: at,
                        sigma,
                        count_only,
                        completed: None,
                        sigma_stops: Vec::new(),
                        hops,
                    },
                );
            }
            Event::QueryForwarded { at, query, from, to, level, .. } => {
                let Some(qt) = queries.get_mut(&query) else {
                    push_problem(problems, format!("{query}: forward {from}->{to} before issue"));
                    return;
                };
                if !qt.hops.contains_key(&from) {
                    push_problem(
                        problems,
                        format!("{query}: forward from {from}, which is not a hop of this tree"),
                    );
                }
                let known = qt.hops.contains_key(&to);
                let hop = qt.hops.entry(to).or_default();
                if !known {
                    hop.parent = Some(from);
                    hop.forwarded_at = Some(at);
                    hop.level = level;
                    if let Some(parent) = qt.hops.get_mut(&from) {
                        parent.children.push(to);
                    }
                }
                // Re-forwards to an already-visited node produce a
                // duplicate delivery there; the receive event flags it.
            }
            Event::QueryReceived { at, query, node, parent, level, matched, duplicate } => {
                let Some(qt) = queries.get_mut(&query) else {
                    push_problem(problems, format!("{query}: delivery at {node} before issue"));
                    return;
                };
                if !qt.hops.contains_key(&parent) {
                    push_problem(
                        problems,
                        format!(
                            "{query}: delivery at {node} from {parent}, which is not a hop of this tree"
                        ),
                    );
                }
                let known = qt.hops.contains_key(&node);
                let hop = qt.hops.entry(node).or_default();
                if duplicate {
                    hop.duplicates += 1;
                } else if hop.received_at.is_some() {
                    push_problem(
                        problems,
                        format!("{query}: second non-duplicate delivery at {node} (t={at})"),
                    );
                } else {
                    hop.received_at = Some(at);
                    hop.level = level;
                    hop.matched = matched;
                    if hop.parent.is_none() && node != qt.root {
                        // Delivery without a matching forward edge (e.g. a
                        // trace that only recorded the receiving side).
                        hop.parent = Some(parent);
                        if !known {
                            if let Some(p) = qt.hops.get_mut(&parent) {
                                p.children.push(node);
                            }
                        }
                    }
                }
            }
            Event::ReplySent { at, query, node, count, .. } => {
                let Some(qt) = queries.get_mut(&query) else {
                    push_problem(problems, format!("{query}: reply from {node} before issue"));
                    return;
                };
                let hop = qt.hops.entry(node).or_default();
                if hop.reply.is_none() {
                    hop.reply = Some((at, count));
                }
            }
            Event::ReplyMerged { at, query, node: _, from, fresh, .. } => {
                let Some(qt) = queries.get_mut(&query) else {
                    push_problem(
                        problems,
                        format!("{query}: merge of {from}'s reply before issue"),
                    );
                    return;
                };
                let hop = qt.hops.entry(from).or_default();
                if fresh {
                    if hop.merged_at.is_none() {
                        hop.merged_at = Some(at);
                    }
                } else {
                    hop.stale_replies += 1;
                }
            }
            Event::TimeoutFired { query, peer, .. } => {
                let Some(qt) = queries.get_mut(&query) else {
                    push_problem(problems, format!("{query}: timeout on {peer} before issue"));
                    return;
                };
                qt.hops.entry(peer).or_default().timed_out = true;
            }
            Event::SigmaStop { query, node, count, .. } => {
                if let Some(qt) = queries.get_mut(&query) {
                    qt.sigma_stops.push((node, count));
                }
            }
            Event::QueryCompleted { at, query, count, .. } => {
                let Some(qt) = queries.get_mut(&query) else {
                    push_problem(problems, format!("{query}: completed before issue"));
                    return;
                };
                qt.completed = Some((at, count));
            }
            // Membership and gossip events carry no per-query causality.
            Event::GossipRound { .. }
            | Event::ViewChange { .. }
            | Event::NodeCrashed { .. }
            | Event::NodeRestarted { .. } => {}
        }
    }
}

/// The in-memory trace sink: feed it events (directly as an [`Observer`]
/// or replayed from a JSONL file) and ask for reconstructed trees.
#[derive(Debug, Default)]
pub struct TraceTree {
    state: Mutex<State>,
}

impl TraceTree {
    /// An empty trace.
    pub fn new() -> Self {
        TraceTree::default()
    }

    /// Feeds one event into the reconstruction (same as `on_event`).
    pub fn apply(&self, ev: &Event) {
        self.state.lock().expect("trace lock").apply(ev);
    }

    /// Every query seen so far, ascending by (origin, seq).
    pub fn queries(&self) -> Vec<QueryRef> {
        self.state.lock().expect("trace lock").queries.keys().copied().collect()
    }

    /// A copy of one query's reconstruction.
    pub fn query(&self, q: QueryRef) -> Option<QueryTrace> {
        self.state.lock().expect("trace lock").queries.get(&q).cloned()
    }

    /// Structural problems: unresolved parents, multiple roots, deliveries
    /// before issue, double non-duplicate delivery. Empty ⇔ the trace is a
    /// well-formed forest with one rooted tree per query.
    pub fn problems(&self) -> Vec<String> {
        self.state.lock().expect("trace lock").problems.clone()
    }

    /// Aggregate numbers for one query's tree.
    pub fn summary(&self, q: QueryRef) -> Option<TraceSummary> {
        let qt = self.query(q)?;
        let mut s = TraceSummary { hops: qt.hops.len(), ..TraceSummary::default() };
        for (&id, hop) in &qt.hops {
            if hop.matched {
                s.matched += 1;
            }
            s.duplicates += hop.duplicates as u64;
            if hop.timed_out {
                s.timeouts += 1;
            }
            if id != qt.root && hop.received_at.is_some() && hop.reply.is_none() {
                s.leaked += 1;
            }
        }
        s.depth = depth_of(&qt, qt.root, 0);
        Some(s)
    }

    /// Renders one query's routing tree as an indented ASCII tree with
    /// per-hop latency/overhead annotations; duplicate deliveries, timeout
    /// refires, stale replies and leaked pending state are flagged inline
    /// at the offending hop.
    pub fn render(&self, q: QueryRef) -> Option<String> {
        let qt = self.query(q)?;
        let mut out = String::new();
        let _ = write!(out, "{q}  origin={}  issued t={}ms", qt.root, qt.issued_at);
        if let Some(sigma) = qt.sigma {
            let _ = write!(out, "  sigma={sigma}");
        }
        if qt.count_only {
            out.push_str("  count-only");
        }
        match qt.completed {
            Some((at, count)) => {
                let _ = write!(out, "  completed t={at}ms count={count} ({} ms)", at - qt.issued_at);
            }
            None => out.push_str("  !UNRESOLVED"),
        }
        out.push('\n');
        for &(node, count) in &qt.sigma_stops {
            let _ = writeln!(out, "  sigma met at node {node} (count={count})");
        }
        render_hop(&mut out, &qt, qt.root, "", true);
        Some(out)
    }

    /// Renders every query in id order, separated by blank lines.
    pub fn render_all(&self) -> String {
        let mut out = String::new();
        for q in self.queries() {
            if let Some(tree) = self.render(q) {
                if !out.is_empty() {
                    out.push('\n');
                }
                out.push_str(&tree);
            }
        }
        out
    }
}

impl Observer for TraceTree {
    fn on_event(&self, event: &Event) {
        self.apply(event);
    }
}

fn depth_of(qt: &QueryTrace, node: NodeRef, seen: usize) -> usize {
    // `seen` guards against a corrupt trace containing a cycle.
    if seen > qt.hops.len() {
        return seen;
    }
    let Some(hop) = qt.hops.get(&node) else { return seen };
    1 + hop.children.iter().map(|&c| depth_of(qt, c, seen + 1)).max().unwrap_or(0)
}

fn render_hop(out: &mut String, qt: &QueryTrace, node: NodeRef, prefix: &str, last: bool) {
    let connector = if prefix.is_empty() {
        ""
    } else if last {
        "`- "
    } else {
        "|- "
    };
    let Some(hop) = qt.hops.get(&node) else {
        let _ = writeln!(out, "{prefix}{connector}[{node}] <missing hop>");
        return;
    };
    let _ = write!(out, "{prefix}{connector}[{node}]");
    if node == qt.root {
        out.push_str(" root");
    } else if hop.level != i8::MIN {
        let _ = write!(out, " L{}", hop.level);
    }
    if node != qt.root {
        match (hop.forwarded_at, hop.received_at) {
            (Some(f), Some(r)) => {
                let _ = write!(out, " recv@{r} (+{} ms)", r.saturating_sub(f));
            }
            (Some(f), None) => {
                let _ = write!(out, " sent@{f} NEVER-RECEIVED");
            }
            (None, Some(r)) => {
                let _ = write!(out, " recv@{r}");
            }
            (None, None) => {}
        }
    }
    out.push_str(if hop.matched { " matched" } else { " overhead" });
    if let Some((at, count)) = hop.reply {
        let _ = write!(out, " reply={count}@{at}");
        if let Some(m) = hop.merged_at {
            if let Some(f) = hop.forwarded_at {
                let _ = write!(out, " (subtree {} ms)", m.saturating_sub(f));
            }
        } else if node != qt.root {
            out.push_str(" UNMERGED");
        }
    }
    if hop.duplicates > 0 {
        let _ = write!(out, " !dup(x{})", hop.duplicates);
    }
    if hop.timed_out {
        out.push_str(" !timeout");
    }
    if hop.stale_replies > 0 {
        let _ = write!(out, " !stale-reply(x{})", hop.stale_replies);
    }
    if node != qt.root && hop.received_at.is_some() && hop.reply.is_none() {
        out.push_str(" !leaked-pending");
    }
    out.push('\n');
    let deeper = if prefix.is_empty() {
        "   ".to_string()
    } else if last {
        format!("{prefix}   ")
    } else {
        format!("{prefix}|  ")
    };
    for (i, &child) in hop.children.iter().enumerate() {
        let last_child = i + 1 == hop.children.len();
        render_hop(out, qt, child, &deeper, last_child);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> QueryRef {
        QueryRef::new(1, 0)
    }

    /// 1 → {2, 3}, 2 → 4, with a duplicate delivery at 3.
    fn sample_events() -> Vec<Event> {
        let q = q();
        vec![
            Event::QueryIssued { at: 0, query: q, node: 1, sigma: Some(10), count_only: false, matched: true },
            Event::QueryForwarded { at: 0, query: q, from: 1, to: 2, level: 1, attempt: 1 },
            Event::QueryForwarded { at: 0, query: q, from: 1, to: 3, level: 1, attempt: 2 },
            Event::QueryReceived { at: 5, query: q, node: 2, parent: 1, level: 1, matched: true, duplicate: false },
            Event::QueryReceived { at: 5, query: q, node: 3, parent: 1, level: 1, matched: false, duplicate: false },
            Event::QueryReceived { at: 6, query: q, node: 3, parent: 1, level: 1, matched: false, duplicate: true },
            Event::QueryForwarded { at: 5, query: q, from: 2, to: 4, level: 0, attempt: 1 },
            Event::QueryReceived { at: 10, query: q, node: 4, parent: 2, level: 0, matched: true, duplicate: false },
            Event::ReplySent { at: 10, query: q, node: 4, to: 2, count: 1, attempt: 1 },
            Event::ReplySent { at: 5, query: q, node: 3, to: 1, count: 0, attempt: 2 },
            Event::ReplyMerged { at: 10, query: q, node: 1, from: 3, count: 0, fresh: true, attempt: 2 },
            Event::ReplyMerged { at: 15, query: q, node: 2, from: 4, count: 1, fresh: true, attempt: 1 },
            Event::ReplySent { at: 15, query: q, node: 2, to: 1, count: 2, attempt: 1 },
            Event::ReplyMerged { at: 20, query: q, node: 1, from: 2, count: 2, fresh: true, attempt: 1 },
            Event::QueryCompleted { at: 20, query: q, node: 1, count: 3 },
        ]
    }

    #[test]
    fn reconstructs_one_rooted_tree() {
        let tree = TraceTree::new();
        for ev in sample_events() {
            tree.apply(&ev);
        }
        assert!(tree.problems().is_empty(), "{:?}", tree.problems());
        let qt = tree.query(q()).unwrap();
        assert_eq!(qt.root, 1);
        assert_eq!(qt.completed, Some((20, 3)));
        assert_eq!(qt.hops[&1].children, vec![2, 3]);
        assert_eq!(qt.hops[&2].children, vec![4]);
        assert_eq!(qt.hops[&3].duplicates, 1);
        let s = tree.summary(q()).unwrap();
        assert_eq!(s.hops, 4);
        assert_eq!(s.depth, 3);
        assert_eq!(s.matched, 3);
        assert_eq!(s.duplicates, 1);
        assert_eq!(s.leaked, 0);
    }

    #[test]
    fn render_flags_duplicates_inline() {
        let tree = TraceTree::new();
        for ev in sample_events() {
            tree.apply(&ev);
        }
        let text = tree.render(q()).unwrap();
        assert!(text.contains("completed t=20ms count=3"), "{text}");
        // The duplicate is flagged at node 3's hop line, not elsewhere.
        let dup_line = text.lines().find(|l| l.contains("!dup")).expect("dup flag rendered");
        assert!(dup_line.contains("[3]"), "{text}");
        assert!(text.contains("[2] L1 recv@5 (+5 ms) matched"), "{text}");
    }

    #[test]
    fn unresolved_parent_is_a_problem() {
        let tree = TraceTree::new();
        tree.apply(&Event::QueryIssued {
            at: 0,
            query: q(),
            node: 1,
            sigma: None,
            count_only: false,
            matched: false,
        });
        tree.apply(&Event::QueryForwarded { at: 1, query: q(), from: 99, to: 5, level: 0, attempt: 1 });
        let problems = tree.problems();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("not a hop"), "{problems:?}");
    }

    #[test]
    fn second_root_is_a_problem() {
        let tree = TraceTree::new();
        let issue = Event::QueryIssued {
            at: 0,
            query: q(),
            node: 1,
            sigma: None,
            count_only: false,
            matched: false,
        };
        tree.apply(&issue);
        tree.apply(&issue);
        assert!(tree.problems().iter().any(|p| p.contains("more than once")));
    }

    #[test]
    fn delivery_before_issue_is_a_problem() {
        let tree = TraceTree::new();
        tree.apply(&Event::QueryReceived {
            at: 1,
            query: q(),
            node: 2,
            parent: 1,
            level: 0,
            matched: false,
            duplicate: false,
        });
        assert!(tree.problems().iter().any(|p| p.contains("before issue")));
    }

    #[test]
    fn leaked_pending_state_is_flagged() {
        let tree = TraceTree::new();
        let qr = q();
        tree.apply(&Event::QueryIssued {
            at: 0,
            query: qr,
            node: 1,
            sigma: None,
            count_only: false,
            matched: false,
        });
        tree.apply(&Event::QueryForwarded { at: 0, query: qr, from: 1, to: 2, level: 0, attempt: 1 });
        tree.apply(&Event::QueryReceived {
            at: 3,
            query: qr,
            node: 2,
            parent: 1,
            level: 0,
            matched: false,
            duplicate: false,
        });
        // Node 2 never replies.
        assert_eq!(tree.summary(qr).unwrap().leaked, 1);
        let text = tree.render(qr).unwrap();
        assert!(text.contains("!leaked-pending"), "{text}");
        assert!(text.contains("!UNRESOLVED"), "{text}");
    }
}
