//! # autosel-core — the autonomous resource-selection protocol
//!
//! This crate implements the primary contribution of *"Autonomous Resource
//! Selection for Decentralized Utility Computing"* (Costa, Napper, Pierre,
//! van Steen — ICDCS 2009): a fully decentralized lookup service in which
//! every compute node represents **itself** in a d-dimensional attribute
//! space — no delegation to registry nodes — and multi-attribute range
//! queries are routed depth-first along links to *neighboring cells*
//! `N(l,k)`, visiting every matching node exactly once.
//!
//! The protocol follows Figures 4–5 of the paper:
//!
//! * [`SelectionNode`] holds the per-node state: the routing table (one link
//!   per neighboring subcell plus the `neighborsZero` set), and the
//!   `pending` / `matching` / `waiting` tables of in-flight queries;
//! * [`Message`] is the QUERY/REPLY wire format, including the `level` and
//!   `dimensions` scope fields that make the traversal loop-free;
//! * [`RoutingTable`] maps gossip views to routing links, and
//!   [`SlotSelector`] is the [`epigossip::Selector`] policy that makes the
//!   semantic gossip layer retain exactly the peers the routing table needs.
//!
//! Everything is **sans-IO**. A [`Host`] is one node as a runtime drives
//! it — its `SelectionNode` plus its [`epigossip::GossipStack`] — and the
//! one place that wires the two together (gossip re-syncs routing, failed
//! peers leave the gossip layers). Each call pushes [`Output`]s, in order,
//! into the runtime's buffer: protocol and gossip sends, and completions.
//! The simulator (`overlay-sim`) and the deployment runtime (`autosel-net`)
//! both drive nodes through it, each with its own clock and RNG, exchanging
//! [`NetMessage`]s. The `Vec`-returning forms the example uses are kept for
//! the benchmark's protocol probes and for tests.
//!
//! ## Example: three nodes, oracle-wired, one query
//!
//! ```
//! use attrspace::{Query, Space};
//! use autosel_core::{Output, ProtocolConfig, SelectionNode};
//!
//! let space = Space::uniform(2, 80, 3)?;
//! let mk = |id, vals: [u64; 2]| {
//!     SelectionNode::new(id, &space, space.point(&vals).unwrap(), ProtocolConfig::default())
//! };
//! let mut a = mk(1, [5, 5]);
//! let mut b = mk(2, [70, 70]);
//!
//! // Wire A -> B by hand (in production the gossip layer does this).
//! a.routing_mut().observe(2, b.point().clone());
//!
//! let query = Query::builder(&space).min("a0", 60).build()?;
//! let (qid, outputs) = a.begin_query(query, Some(1), 0);
//! // A does not match, so it forwards towards B's cell.
//! let Output::Send { to, msg } = &outputs[0] else { panic!() };
//! assert_eq!(*to, 2);
//!
//! // Deliver to B; B matches, cannot forward further, replies to A.
//! let replies = b.handle_message(1, msg.clone(), 1);
//! let Output::Send { to, msg } = &replies[0] else { panic!() };
//! assert_eq!(*to, 1);
//! let done = a.handle_message(2, msg.clone(), 2);
//! let Output::Completed { id, matches, .. } = &done[0] else { panic!() };
//! assert_eq!(*id, qid);
//! assert_eq!(matches[0].node, 2);
//! # Ok::<(), attrspace::SpaceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod bootstrap;
pub mod fasthash;
mod host;
mod match_list;
mod messages;
mod node;
mod profile;
mod routing;
mod selector;

pub use host::{Host, NetMessage};
pub use match_list::{MatchIter, MatchList};
pub use messages::{
    Answer, DynamicConstraint, Match, Message, QueryId, QueryMsg, QueryRequest, ReplyMsg,
};
pub use node::{Output, ProtocolConfig, SelectionNode};
pub use profile::NodeProfile;
pub use routing::{slot_class, NeighborEntry, RoutingTable};
pub use selector::SlotSelector;
