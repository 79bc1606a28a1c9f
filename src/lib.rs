//! # autosel — autonomous resource selection for decentralized utility computing
//!
//! A production-quality Rust reproduction of **Costa, Napper, Pierre,
//! van Steen, "Autonomous Resource Selection for Decentralized Utility
//! Computing" (ICDCS 2009)**: a fully decentralized resource-selection
//! service in which every compute node represents *itself* — no registry,
//! no delegation — as a point in a d-dimensional attribute space, and
//! multi-attribute range queries are routed depth-first along nested-cell
//! links, reaching every matching node exactly once.
//!
//! This crate is the facade over the workspace:
//!
//! | Re-export | Crate | Role |
//! |-----------|-------|------|
//! | [`space`] | `attrspace` | attribute space, nested cells `N(l,k)`, queries |
//! | [`gossip`] | `epigossip` | CYCLON + semantic two-layer overlay maintenance |
//! | [`protocol`] | `autosel-core` | the QUERY/REPLY routing state machine |
//! | [`sim`] | `overlay-sim` | discrete-event simulator (PeerSim role), synthetic BOINC host traces ([`sim::traces`]), the scenario DSL and soak runner ([`sim::scenario`]), the SWORD baseline, the interleaving explorer |
//! | [`net`] | `autosel-net` | sharded network runtime (DAS / PlanetLab role) |
//! | [`obs`] | `autosel-obs` | zero-dependency tracing & metrics (observers, trace trees) |
//!
//! ## Quickstart
//!
//! ```
//! use autosel::prelude::*;
//!
//! // Define the attribute space: 5 attributes, nesting depth 3 (Table 1).
//! let space = Space::uniform(5, 80, 3)?;
//!
//! // A simulated 1 000-node infrastructure, oracle-converged.
//! let mut cluster = SimCluster::new(space.clone(), SimConfig::fast_static(), 42);
//! cluster.populate(&Placement::Uniform { lo: 0, hi: 80 }, 1_000);
//! cluster.wire_oracle();
//!
//! // "Find 50 machines with a0 ≥ 40 and a2 in [10, 30]".
//! let query = Query::builder(&space)
//!     .min("a0", 40)
//!     .range("a2", 10, 30)
//!     .build()?;
//! let origin = cluster.random_node();
//! let qid = cluster.issue_query(origin, query, Some(50));
//! cluster.run_to_quiescence();
//!
//! let matches = cluster.query_result(qid).expect("completed");
//! assert!(!matches.is_empty());
//! # Ok::<(), autosel::space::SpaceError>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `DESIGN.md` for the full
//! system inventory and per-figure experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scheduler;

/// Attribute-space geometry (re-export of `attrspace`).
pub mod space {
    pub use attrspace::*;
}

/// Epidemic overlay maintenance (re-export of `epigossip`).
pub mod gossip {
    pub use epigossip::*;
}

/// The selection protocol (re-export of `autosel-core`).
pub mod protocol {
    pub use autosel_core::*;
}

/// Discrete-event simulation (re-export of `overlay-sim`).
pub mod sim {
    pub use overlay_sim::*;
}

/// Sharded deployment runtime (re-export of `autosel-net`).
pub mod net {
    pub use autosel_net::*;
}

/// Tracing and metrics (re-export of `autosel-obs`).
pub mod obs {
    pub use autosel_obs::*;
}

/// The most common imports in one place.
pub mod prelude {
    pub use attrspace::{Dimension, Point, Query, Range, Space};
    pub use autosel_core::{
        Answer, Match, Output, ProtocolConfig, QueryId, QueryRequest, SelectionNode,
    };
    pub use autosel_net::{NetCluster, NetConfig, Transport};
    pub use autosel_obs::{
        Fanout, FlightRecorder, JsonlSink, ObsHandle, Observer, Registry, TraceTree,
    };
    pub use epigossip::{GossipConfig, GossipStack, NodeId};
    pub use overlay_sim::scenario::{ScenarioSpec, SoakRunner};
    pub use overlay_sim::traces::{fit_space, HostGenerator};
    pub use overlay_sim::{LatencyModel, Placement, QueryStats, SimCluster, SimConfig};
}
