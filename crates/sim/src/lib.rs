//! # overlay-sim — discrete-event simulation of the resource-selection overlay
//!
//! The paper evaluates its protocol on PeerSim with up to 100 000 nodes; this
//! crate is the equivalent substrate, built from scratch:
//!
//! * [`SimCluster`] — a population of [`autosel_core::SelectionNode`]s (each
//!   optionally paired with a two-layer [`epigossip::GossipStack`]) driven by
//!   a virtual-time event queue;
//! * [`LatencyModel`] — per-message delays and loss;
//! * [`Placement`] — how node attribute values are drawn (uniform, normal
//!   hotspot, or externally supplied trace vectors);
//! * [`workload`] — the paper's query generators: selectivity-targeted
//!   *best-case* (cell-aligned, single subtree) and *worst-case* (straddling
//!   every split boundary) queries (§6.2);
//! * churn and massive-failure injection ([`SimCluster::churn_step`],
//!   [`SimCluster::kill_fraction`]) as in §6.6–6.7;
//! * [`faults`] — a seeded, composable [`FaultPlan`] (message drop /
//!   delay / duplication / reordering, healing partitions, timed crash &
//!   restart) injected at the single delivery boundary;
//! * [`invariants`] — an [`InvariantChecker`] asserting the §6 global
//!   correctness claims (exactly-once visits, σ-bounded early stop, no
//!   leaked per-query state, monotone time, acyclic reply routing) after
//!   every event and at quiescence;
//! * [`QueryStats`] — per-query routing overhead, delivery, duplicate count
//!   and message totals: exactly the metrics the paper's figures plot;
//! * an exploration surface for external model checkers
//!   ([`SimCluster::queued_events`] exposing stable [`EventKey`]s,
//!   per-event dispatch / drop / duplicate surgery through
//!   [`SimCluster::dispatch_queued`] and friends, and a logical
//!   [`SimCluster::state_hash`]) — `autosel-analyze`'s DPOR interleaving
//!   explorer drives every schedule through it.
//!
//! Determinism: a cluster seeded with the same seed replays identically.
//!
//! ## Example
//!
//! ```
//! use attrspace::{Query, Space};
//! use overlay_sim::{Placement, SimCluster, SimConfig};
//!
//! let space = Space::uniform(2, 80, 3)?;
//! let mut sim = SimCluster::new(space.clone(), SimConfig::fast_static(), 42);
//! sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, 200);
//! sim.wire_oracle();
//!
//! let query = Query::builder(&space).min("a0", 40).build()?;
//! let origin = sim.random_node();
//! let qid = sim.issue_query(origin, query, None);
//! sim.run_to_quiescence();
//!
//! let stats = sim.query_stats(qid).expect("stats recorded");
//! assert_eq!(stats.delivery(), 1.0);     // every matching node was reached
//! assert_eq!(stats.duplicates, 0);       // and none more than once
//! # Ok::<(), attrspace::SpaceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod ablation;
mod calendar;
mod cluster;
mod config;
mod event;
pub mod faults;
pub mod invariants;
mod metrics;
mod network;
mod nodestore;
mod truth;
pub mod workload;

pub use cluster::SimCluster;
pub use config::SimConfig;
pub use epigossip::GossipHealth;
pub use event::{EventKey, QueuedEvent};
pub use faults::FaultPlan;
pub use invariants::{InvariantChecker, InvariantViolation};
pub use metrics::{LoadHistogram, QueryStats};
pub use network::LatencyModel;
pub use workload::Placement;
