//! Protocol invariants, checked against a [`SimCluster`] after every event
//! and at quiescence.
//!
//! The paper's §6 correctness claims are *global* properties of the
//! traversal — exactly-once visits, bounded σ early-stop, no stranded
//! state — that individual nodes cannot observe. The simulator can: an
//! [`InvariantChecker`] walks the cluster's bookkeeping and every node's
//! protocol state and reports the first [`InvariantViolation`] it finds.
//!
//! Two strictness levels exist because faults legitimately weaken some
//! claims:
//!
//! * [`InvariantChecker::strict`] — for fault-free runs. Everything must
//!   hold: zero duplicate deliveries, every tracked query completes at
//!   quiescence, σ-bounded queries report at least `min(σ, truth)` and at
//!   most `truth` matches.
//! * [`InvariantChecker::relaxed`] — for runs under a
//!   [`FaultPlan`](crate::faults::FaultPlan). Duplicates, under-delivery
//!   and incompleteness are expected casualties of message loss, crashes
//!   and retries; what must *still* hold is monotone virtual time, acyclic
//!   reply routing, internally consistent stats, and — at quiescence — no
//!   leaked per-query state on any surviving node.
//!
//! Orthogonally to the strict/relaxed split, a checker can demand *exact
//! reporting*: every completed unbounded query must report exactly the
//! matches it reached (`reported == matched_reached`). Strict mode always
//! checks this; [`InvariantChecker::expect_exact_reporting`] turns it on
//! for a relaxed checker too, which is the right setting for fault plans
//! that duplicate or reorder messages but never lose them — attempt-tagged
//! replies guarantee exactly-once accounting there.
//!
//! Drive the checks with
//! [`SimCluster::run_to_quiescence_checked`](crate::SimCluster::run_to_quiescence_checked)
//! /
//! [`SimCluster::run_until_checked`](crate::SimCluster::run_until_checked),
//! or call [`SimCluster::check_invariants`](crate::SimCluster::check_invariants)
//! at hand-picked instants.

use autosel_core::fasthash::{FastMap, FastSet};
use autosel_core::QueryId;
use epigossip::NodeId;

use crate::SimCluster;

/// The first broken invariant a check found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// Virtual time moved backwards between two checks.
    TimeWentBackwards {
        /// Time observed at the previous check.
        prev: u64,
        /// (Smaller) time observed now.
        now: u64,
    },
    /// A node received the same QUERY more than once (strict mode only —
    /// §6 claims exactly-once without churn).
    DuplicateDelivery {
        /// The affected query.
        query: QueryId,
        /// How many duplicate receipts were recorded.
        duplicates: u64,
    },
    /// A query reported more matches than existed at issue time.
    OverReported {
        /// The affected query.
        query: QueryId,
        /// Matches reported to the originator.
        reported: u32,
        /// Matching nodes at issue time.
        truth: u32,
    },
    /// A σ-bounded query completed with fewer than `min(σ, truth)` matches
    /// (early stop is only allowed *after* σ is satisfied).
    SigmaUnderfilled {
        /// The affected query.
        query: QueryId,
        /// The requested bound.
        sigma: u32,
        /// Matches reported.
        reported: u32,
        /// Matching nodes at issue time.
        truth: u32,
    },
    /// A query's stats disagree with themselves (e.g. a node counted as
    /// matched-and-reached that never received the query).
    InconsistentStats {
        /// The affected query.
        query: QueryId,
        /// What is inconsistent.
        detail: &'static str,
    },
    /// Following `reply_to` edges for one query revisits a node: replies
    /// would circulate forever instead of draining to the originator.
    ReplyCycle {
        /// The affected query.
        query: QueryId,
        /// A node on the cycle.
        node: NodeId,
    },
    /// A node still holds in-flight query state at quiescence.
    LeakedPending {
        /// The leaking node.
        node: NodeId,
        /// How many queries it still considers in flight.
        pending: usize,
    },
    /// A tracked query never completed although the run quiesced and its
    /// originator is alive (strict mode only).
    IncompleteQuery {
        /// The stranded query.
        query: QueryId,
    },
    /// An unbounded query completed reporting a different number of matches
    /// than it actually reached: duplication or reordering double-counted or
    /// dropped a subtree contribution (exact-reporting checks only).
    ReportedInexact {
        /// The affected query.
        query: QueryId,
        /// Matches reported to the originator.
        reported: u32,
        /// Matching nodes actually reached by the traversal.
        reached: u32,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::TimeWentBackwards { prev, now } => {
                write!(f, "virtual time went backwards: {prev} -> {now}")
            }
            InvariantViolation::DuplicateDelivery { query, duplicates } => {
                write!(f, "query {query:?} delivered {duplicates} duplicate(s); expected exactly-once")
            }
            InvariantViolation::OverReported { query, reported, truth } => {
                write!(f, "query {query:?} reported {reported} matches but only {truth} existed")
            }
            InvariantViolation::SigmaUnderfilled { query, sigma, reported, truth } => write!(
                f,
                "query {query:?} stopped at {reported} matches; σ={sigma} with {truth} available"
            ),
            InvariantViolation::InconsistentStats { query, detail } => {
                write!(f, "query {query:?} has inconsistent stats: {detail}")
            }
            InvariantViolation::ReplyCycle { query, node } => {
                write!(f, "query {query:?} reply routing cycles through node {node}")
            }
            InvariantViolation::LeakedPending { node, pending } => {
                write!(f, "node {node} leaked {pending} pending quer(ies) past quiescence")
            }
            InvariantViolation::IncompleteQuery { query } => {
                write!(f, "query {query:?} never completed although the run quiesced")
            }
            InvariantViolation::ReportedInexact { query, reported, reached } => write!(
                f,
                "query {query:?} reported {reported} matches but reached {reached}; accounting must be exact"
            ),
        }
    }
}

impl std::error::Error for InvariantViolation {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Strict,
    Relaxed,
}

/// Stateful checker asserting the protocol's global invariants over a
/// [`SimCluster`] (see the module docs for the invariant list and the
/// strict/relaxed split).
#[derive(Debug)]
pub struct InvariantChecker {
    mode: Mode,
    exact_reporting: bool,
    last_now: u64,
}

impl InvariantChecker {
    /// Full-strength checks for fault-free runs (implies exact reporting).
    pub fn strict() -> Self {
        InvariantChecker {
            mode: Mode::Strict,
            exact_reporting: true,
            last_now: 0,
        }
    }

    /// Fault-tolerant checks: duplicates / under-delivery / incompleteness
    /// are permitted, structural invariants are not.
    pub fn relaxed() -> Self {
        InvariantChecker {
            mode: Mode::Relaxed,
            exact_reporting: false,
            last_now: 0,
        }
    }

    /// Additionally require `reported == matched_reached` for every
    /// completed unbounded query. Correct for fault plans that duplicate
    /// or reorder messages without losing them: delivery may still reach
    /// every matching node, and attempt-tagged replies make the upstream
    /// accounting exactly-once, so any drift is a protocol bug.
    pub fn expect_exact_reporting(mut self) -> Self {
        self.exact_reporting = true;
        self
    }

    /// Invariants that must hold after *every* event.
    pub fn check_step(&mut self, cluster: &SimCluster) -> Result<(), InvariantViolation> {
        let now = cluster.now();
        if now < self.last_now {
            return Err(InvariantViolation::TimeWentBackwards {
                prev: self.last_now,
                now,
            });
        }
        self.last_now = now;

        for (qid, stats) in cluster.queries_iter() {
            if self.mode == Mode::Strict && stats.duplicates > 0 {
                return Err(InvariantViolation::DuplicateDelivery {
                    query: *qid,
                    duplicates: stats.duplicates,
                });
            }
            if !stats.matched_reached.is_subset(&stats.receivers) {
                return Err(InvariantViolation::InconsistentStats {
                    query: *qid,
                    detail: "matched_reached contains a node that never received the query",
                });
            }
            if self.exact_reporting && stats.completed && stats.sigma.is_none() {
                let reached = stats.matched_reached.len() as u32;
                if stats.reported != reached {
                    return Err(InvariantViolation::ReportedInexact {
                        query: *qid,
                        reported: stats.reported,
                        reached,
                    });
                }
            }
            if self.mode == Mode::Strict {
                // Churn/restart can add matching nodes after the truth
                // snapshot, so these bounds only hold fault-free.
                if stats.matched_reached.len() as u32 > stats.truth {
                    return Err(InvariantViolation::InconsistentStats {
                        query: *qid,
                        detail: "more matching nodes reached than existed at issue time",
                    });
                }
                if stats.completed {
                    if stats.reported > stats.truth {
                        return Err(InvariantViolation::OverReported {
                            query: *qid,
                            reported: stats.reported,
                            truth: stats.truth,
                        });
                    }
                    if let Some(sigma) = stats.sigma {
                        if stats.reported < sigma.min(stats.truth) {
                            return Err(InvariantViolation::SigmaUnderfilled {
                                query: *qid,
                                sigma,
                                reported: stats.reported,
                                truth: stats.truth,
                            });
                        }
                    }
                }
            }
        }

        self.check_reply_acyclicity(cluster)
    }

    /// Invariants that additionally hold once the event queue has drained.
    pub fn check_quiescent(&mut self, cluster: &SimCluster) -> Result<(), InvariantViolation> {
        self.check_step(cluster)?;
        for (id, node) in cluster.selections_iter() {
            let pending = node.pending_len();
            if pending > 0 {
                return Err(InvariantViolation::LeakedPending { node: id, pending });
            }
        }
        if self.mode == Mode::Strict {
            for (qid, stats) in cluster.queries_iter() {
                if !stats.completed && cluster.point_of(qid.origin).is_some() {
                    return Err(InvariantViolation::IncompleteQuery { query: *qid });
                }
            }
        }
        Ok(())
    }

    /// Stitches every node's per-query `reply_to` edge into a graph and
    /// walks each chain: replies must drain toward an originator, never
    /// loop. (Each node has at most one upstream per query, so a cycle is
    /// detectable by following the chain with a visited set.)
    fn check_reply_acyclicity(&self, cluster: &SimCluster) -> Result<(), InvariantViolation> {
        let mut upstream: FastMap<QueryId, FastMap<NodeId, Option<NodeId>>> = FastMap::default();
        for (id, node) in cluster.selections_iter() {
            for (qid, up) in node.pending_upstreams() {
                upstream.entry(qid).or_default().insert(id, up);
            }
        }
        for (qid, edges) in &upstream {
            for &start in edges.keys() {
                let mut seen: FastSet<NodeId> = FastSet::default();
                let mut cur = start;
                seen.insert(cur);
                while let Some(&Some(next)) = edges.get(&cur) {
                    if !seen.insert(next) {
                        return Err(InvariantViolation::ReplyCycle {
                            query: *qid,
                            node: next,
                        });
                    }
                    cur = next;
                }
            }
        }
        Ok(())
    }
}
