//! # autosel-net — real-network deployment of the resource-selection overlay
//!
//! The paper validates its protocol beyond simulation: 1 000 emulated nodes
//! on the DAS-3 cluster (20 per physical host) and 302 nodes on PlanetLab.
//! This crate is the equivalent runtime, built on OS threads and blocking
//! I/O:
//!
//! * every node is the *same* sans-IO [`autosel_core::Host`] the simulator
//!   drives ([`autosel_core::SelectionNode`] + [`epigossip::GossipStack`]),
//!   with its own RNG, real timers, real queues and real message
//!   interleavings;
//! * nodes are pinned by id to a few worker shards — about one per core —
//!   and each shard is one thread owning its nodes outright: one loop runs
//!   their gossip and timeout timers and hands them their messages, so
//!   protocol state is never shared and never locked;
//! * a shard keeps one clock, milliseconds since the cluster started, and
//!   reads the wall clock only at the top of its loop and after a blocking
//!   wait. Protocol steps, timers, injected latency and TCP backoff all run
//!   on it, and each node's [`epigossip::GossipStack`] alone decides when
//!   the node gossips: the shard re-arms a node's gossip timer at the
//!   stack's next round, as the simulator does;
//! * two transports: [`Transport::mem`] (in-process queues with optional
//!   injected latency — the DAS emulation) and [`Transport::tcp`] (real
//!   sockets over loopback with a length-prefixed binary codec — the
//!   PlanetLab role; every message crosses a socket, one listener and one
//!   persistent link per shard pair);
//! * [`NetCluster`] — spawn a population, issue queries, kill nodes
//!   ungracefully, and watch gossip repair the overlay, exactly like
//!   §6.6–6.7's deployments.
//!
//! Wall-clock scaling: experiments shrink the paper's 10-second gossip
//! period to tens of milliseconds. All dynamics are expressed in gossip
//! *rounds*, so the scaled runs preserve the recovery behaviour (DESIGN.md
//! §4).

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod cluster;
mod config;
mod peer;
mod transport;
pub mod wire;

pub use autosel_core::NetMessage;
pub use cluster::{InboxStats, NetCluster, QueryOutcome, QueryTicket};
pub use config::NetConfig;
pub use epigossip::GossipHealth;
pub use transport::{TcpStatsSnapshot, Transport};
