use std::fmt;
use std::sync::Arc;

use attrspace::{Point, Query, Range, RawValue};
use epigossip::NodeId;

use crate::MatchList;

/// A constraint on a *dynamic* attribute (footnote 1 of the paper): a value
/// that changes too quickly to be represented as a space dimension — free
/// disk, current load, queue depth. Queries are **routed** on the static
/// attributes only; every node that receives the query checks its own
/// current dynamic values locally before answering. This is impossible in
/// delegation-based systems, where the registry's copy would be stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DynamicConstraint {
    /// Application-defined key identifying the dynamic attribute.
    pub key: u32,
    /// The value range the resource must currently satisfy.
    pub range: Range,
}

impl DynamicConstraint {
    /// Whether a current value satisfies the constraint.
    pub fn satisfied_by(&self, value: Option<RawValue>) -> bool {
        value.is_some_and(|v| self.range.contains(v))
    }
}

/// Globally unique query identifier: the originating node plus a local
/// sequence number (the paper's `q.id`, "must be unique").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId {
    /// The node that issued the query.
    pub origin: NodeId,
    /// Origin-local sequence number.
    pub seq: u32,
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}#{}", self.origin, self.seq)
    }
}

/// One discovered resource: a node that matched the query, with the
/// attribute values it advertised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Match {
    /// The matching node.
    pub node: NodeId,
    /// Its attribute values at match time.
    pub values: Point,
}

/// The QUERY message of Fig. 4(a).
///
/// `level` and `dimensions` restrict how the receiver may continue the
/// traversal: a receiver never explores a (level, dimension) pair its sender
/// already covered, which is what makes the depth-first tree loop-free.
/// `level == -1` is a leaf delivery to a `C0` neighbor that must answer
/// directly without forwarding.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryMsg {
    /// Unique query identifier.
    pub id: QueryId,
    /// The attribute ranges being searched. Shared, not owned: a query is
    /// immutable for its whole lifetime, so every hop of the depth-first
    /// traversal forwards the same allocation instead of deep-cloning the
    /// range vector (the simulator's hottest clone before this change).
    pub query: Arc<Query>,
    /// Upper bound `σ` on the number of nodes wanted (`None` = unbounded).
    pub sigma: Option<u32>,
    /// Highest cell level the receiver may explore; `-1` = answer only.
    pub level: i8,
    /// Dimensions still explorable at `level` (bitmask over dimensions;
    /// bit `k` set ⇒ dimension `k` may be explored).
    pub dims: u32,
    /// Constraints on dynamic attributes, checked locally by every receiver
    /// (footnote 1); empty for purely static queries.
    pub dynamic: Vec<DynamicConstraint>,
    /// Count-only mode: replies carry an aggregate count instead of the
    /// matching nodes themselves. §2 contrasts the overlay with Astrolabe,
    /// which "can easily provide (approximate) information on how many
    /// nodes fit an application's requirements, but cannot efficiently
    /// produce the list" — this protocol does both, and counting is exact
    /// because the traversal visits each matching node exactly once.
    pub count_only: bool,
    /// `C0` members already contacted for this query — carried on leaf
    /// (`level ≤ 0`) deliveries so the optional `C0` epidemic relay
    /// (§4.1: "broadcast … through an epidemic protocol") does not re-visit
    /// nodes. Empty unless the relay is enabled.
    pub visited_zero: Vec<NodeId>,
    /// Per-forward attempt id, unique among this sender's forwards of this
    /// query (`0` marks the origin's self-delivery, which is never on the
    /// wire). The receiver echoes it verbatim in its REPLY so the sender
    /// can correlate the reply to the *specific forward* rather than just
    /// `(query, peer)` — the difference between exactly-once accounting and
    /// the dedup-reply race under duplicated or retried deliveries.
    pub attempt: u32,
}

/// The REPLY message of Fig. 4(a): the matches collected by the subtree
/// rooted at the replying node.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplyMsg {
    /// The query being answered.
    pub id: QueryId,
    /// Matching nodes found in the sender's subtree (empty in count-only
    /// mode). Shared, not owned: the list holds the sender's own match and
    /// its children's lists by reference, and the sender's reply cache
    /// keeps the same allocation, so relaying, merging and retransmitting a
    /// reply copy no match.
    pub matching: MatchList,
    /// Number of matches in the sender's subtree. Equals `matching.len()`
    /// in enumerate mode; carries the whole answer in count-only mode.
    pub count: u64,
    /// Echo of the answered QUERY's [`attempt`](QueryMsg::attempt). The
    /// upstream merges a reply *fresh* only while it still waits on this
    /// exact attempt — any other copy (duplicated delivery, reply to a
    /// superseded forward) is recognisably stale and cannot clear the
    /// waiting entry or double-add a count.
    pub attempt: u32,
}

/// A resource-selection protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Depth-first query propagation.
    Query(QueryMsg),
    /// Subtree results travelling back up the traversal tree.
    Reply(ReplyMsg),
}

impl Message {
    /// The query id this message concerns.
    pub fn query_id(&self) -> QueryId {
        match self {
            Message::Query(q) => q.id,
            Message::Reply(r) => r.id,
        }
    }
}

/// Returns a bitmask with the low `d` bits set — "all dimensions".
pub(crate) fn all_dims(d: usize) -> u32 {
    debug_assert!(
        d <= 32,
        "at most 32 dimensions supported by the dims bitmask"
    );
    if d == 32 {
        u32::MAX
    } else {
        (1u32 << d) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrspace::Space;

    #[test]
    fn query_id_display() {
        assert_eq!(QueryId { origin: 3, seq: 9 }.to_string(), "q3#9");
    }

    #[test]
    fn all_dims_masks() {
        assert_eq!(all_dims(1), 0b1);
        assert_eq!(all_dims(5), 0b11111);
        assert_eq!(all_dims(32), u32::MAX);
    }

    #[test]
    fn message_query_id_roundtrip() {
        let space = Space::uniform(2, 80, 3).unwrap();
        let id = QueryId { origin: 1, seq: 2 };
        let q = Message::Query(QueryMsg {
            id,
            query: Query::builder(&space).build().unwrap().into(),
            sigma: None,
            level: 3,
            dims: all_dims(2),
            dynamic: Vec::new(),
            count_only: false,
            visited_zero: Vec::new(),
            attempt: 1,
        });
        let r = Message::Reply(ReplyMsg {
            id,
            matching: MatchList::new(),
            count: 0,
            attempt: 1,
        });
        assert_eq!(q.query_id(), id);
        assert_eq!(r.query_id(), id);
    }
}
