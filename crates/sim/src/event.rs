use std::cmp::Ordering;
use std::sync::Arc;

use autosel_core::{Message, NetMessage};
use epigossip::NodeId;

use crate::faults::NodeEventKind;

/// A scheduled simulator event.
#[derive(Debug, Clone)]
pub(crate) enum EventKind {
    /// Deliver `payload` from `from` to `to`. `Arc`-backed so that
    /// scheduling a delivery (or a fault-injected duplicate) is a refcount
    /// bump instead of a deep clone of the message body; the receiver
    /// unwraps the sole reference at dispatch time without copying.
    Deliver {
        from: NodeId,
        to: NodeId,
        payload: Arc<NetMessage>,
    },
    /// Let `node` initiate its periodic gossip (self-rescheduling).
    GossipTick { node: NodeId },
    /// Check `node`'s protocol timeouts.
    PollTimeouts { node: NodeId },
    /// Tell `node` that its send to `peer` failed (dead destination) — the
    /// fail-fast transport feedback of a refused connection.
    SendFailed { node: NodeId, peer: NodeId },
    /// A timed crash or restart from the installed fault plan.
    NodeFault { node: NodeId, kind: NodeEventKind },
}

/// An event with its firing time and a tiebreaking sequence number so the
/// queue is a total, deterministic order.
#[derive(Debug)]
pub(crate) struct ScheduledEvent {
    pub at: u64,
    pub seq: u64,
    pub kind: EventKind,
}

impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for ScheduledEvent {}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Stable, *schedule-independent* identity of a queued event.
///
/// Sequence numbers are assigned in scheduling order, so the same logical
/// event (deliver B's reply for query q, attempt 2) gets a different `seq`
/// on every explored interleaving. A model checker needs to recognise "the
/// same choice" across executions — for sleep sets, for replaying a
/// recorded schedule, for minimizing a failing one — so delivery events
/// are keyed by their protocol-level identity (endpoints, query, direction,
/// attempt tag) and timer/fault events by node and firing time.
///
/// Two *duplicate* copies of one message deliberately share a key: they are
/// interchangeable for the protocol, and the explorer treats dispatching
/// either as the same choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKey {
    /// Deliver a protocol message. `query` is `None` for gossip payloads
    /// (never explored — the explorer requires gossip disabled).
    Deliver {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// The query the message belongs to (`None` for gossip).
        query: Option<autosel_core::QueryId>,
        /// `true` for a REPLY, `false` for a QUERY.
        reply: bool,
        /// The attempt tag carried by the message.
        attempt: u32,
    },
    /// A gossip self-tick.
    GossipTick {
        /// The ticking node.
        node: NodeId,
    },
    /// A `T(q)` timeout poll.
    PollTimeouts {
        /// The polled node.
        node: NodeId,
        /// The poll's firing time (distinguishes successive polls).
        at: u64,
    },
    /// Fail-fast feedback for a send to a dead peer.
    SendFailed {
        /// The sender being notified.
        node: NodeId,
        /// The dead destination.
        peer: NodeId,
    },
    /// A timed crash (`restart == false`) or restart from a fault plan.
    NodeFault {
        /// The affected node.
        node: NodeId,
        /// Whether this is a restart (else a crash).
        restart: bool,
        /// The scheduled firing time.
        at: u64,
    },
}

impl EventKey {
    pub(crate) fn of(ev: &ScheduledEvent) -> EventKey {
        match &ev.kind {
            EventKind::Deliver { from, to, payload } => {
                let (query, reply, attempt) = match payload.as_ref() {
                    NetMessage::Protocol(Message::Query(q)) => (Some(q.id), false, q.attempt),
                    NetMessage::Protocol(Message::Reply(r)) => (Some(r.id), true, r.attempt),
                    NetMessage::Gossip(_) => (None, false, 0),
                };
                EventKey::Deliver {
                    from: *from,
                    to: *to,
                    query,
                    reply,
                    attempt,
                }
            }
            EventKind::GossipTick { node } => EventKey::GossipTick { node: *node },
            EventKind::PollTimeouts { node } => EventKey::PollTimeouts {
                node: *node,
                at: ev.at,
            },
            EventKind::SendFailed { node, peer } => EventKey::SendFailed {
                node: *node,
                peer: *peer,
            },
            EventKind::NodeFault { node, kind } => EventKey::NodeFault {
                node: *node,
                restart: matches!(kind, NodeEventKind::Restart),
                at: ev.at,
            },
        }
    }

    /// The node whose state this event mutates when dispatched — the
    /// dependence relation for partial-order reduction: two queued events
    /// commute iff they target different nodes (each dispatch touches only
    /// the target's protocol state plus append-only global accounting).
    pub fn target(&self) -> NodeId {
        match *self {
            EventKey::Deliver { to, .. } => to,
            EventKey::GossipTick { node }
            | EventKey::PollTimeouts { node, .. }
            | EventKey::SendFailed { node, .. }
            | EventKey::NodeFault { node, .. } => node,
        }
    }

    /// Whether this is a message delivery (the choice points a model
    /// checker reorders; timers and faults are time-driven).
    pub fn is_deliver(&self) -> bool {
        matches!(self, EventKey::Deliver { .. })
    }
}

/// A snapshot descriptor of one event sitting in the simulator queue,
/// exposed to the [`explore`](crate::explore) explorer. `seq` is the
/// handle the explorer dispatches, drops or duplicates *within the current
/// state*; `key` is the stable identity that survives re-execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedEvent {
    /// Scheduled firing time (virtual ms).
    pub at: u64,
    /// Queue-order tiebreak and dispatch handle (schedule-dependent).
    pub seq: u64,
    /// Stable logical identity (schedule-independent).
    pub key: EventKey,
}

#[cfg(test)]
#[allow(clippy::disallowed_types)] // binary-heap: test code; checks the event queue's pop order
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn ev(at: u64, seq: u64) -> ScheduledEvent {
        ScheduledEvent {
            at,
            seq,
            kind: EventKind::PollTimeouts { node: 0 },
        }
    }

    #[test]
    fn heap_pops_earliest_first_with_fifo_ties() {
        let mut h = BinaryHeap::new();
        h.push(ev(5, 0));
        h.push(ev(1, 2));
        h.push(ev(1, 1));
        h.push(ev(3, 3));
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| h.pop().map(|e| (e.at, e.seq))).collect();
        assert_eq!(order, vec![(1, 1), (1, 2), (3, 3), (5, 0)]);
    }
}
