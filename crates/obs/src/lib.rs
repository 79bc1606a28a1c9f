//! # autosel-obs — zero-dependency, sans-IO observability
//!
//! The workspace's instrumentation layer: a typed [`Event`] vocabulary for
//! the ICDCS'09 selection protocol (query spans with causal parents,
//! gossip-health gauges, membership changes), an [`Observer`] trait that
//! instrumented code calls through a nullable [`ObsHandle`], and three
//! sinks:
//!
//! * [`NullObserver`] — the default. A null [`ObsHandle`] holds `None`, so
//!   the instrumented hot path pays one branch and never constructs the
//!   event value ([`ObsHandle::emit`] takes a closure).
//! * [`JsonlSink`] — streams one flat-JSON line per event to any writer;
//!   [`jsonl::parse_trace`] reads a trace back for offline analysis.
//! * [`TraceTree`] — reconstructs each query's depth-first routing tree in
//!   memory and renders it as an annotated ASCII tree (`tracedump`).
//!
//! A [`Registry`] of counters and log2-bucketed histograms (deterministic,
//! sorted snapshots) is also an [`Observer`], aggregating the standard
//! gauges. Its readings are cumulative over the registry's lifetime. A
//! [`FlightRecorder`] ([`flight`]) builds on the same event stream: a ring
//! of the most recent K events, bounded memory, dumpable as trace JSONL on
//! invariant violation or demand.
//!
//! ## Design constraints
//!
//! * **Zero dependencies.** Every other crate in the workspace (core,
//!   gossip, sim, net, bench) depends on this one, so it must sit at the
//!   bottom of the graph; the container has no registry access anyway.
//!   Ids are raw integers ([`NodeRef`] = `u64`, [`QueryRef`] mirrors the
//!   core crate's `QueryId`) for the same reason.
//! * **Sans-IO.** Only [`JsonlSink`] touches I/O, and only through the
//!   `Write` trait handed to it. The simulator emits **virtual-time**
//!   timestamps, the network runtime **wall-clock** ones — same schema,
//!   same sinks.
//! * **Passive.** Observers never feed back into the protocol, consume
//!   protocol RNG, or affect scheduling; enabling one cannot change a
//!   run's deterministic fingerprints (`sweepbench` digests are
//!   byte-identical with observation on or off).
//! * **Leaf locks.** An observer is shared by every emitting thread, so
//!   [`Registry`], [`FlightRecorder`], [`TraceTree`] and [`JsonlSink`]
//!   each keep their state behind one plain `std::sync::Mutex`. None of
//!   them takes another of these locks or calls another observer while
//!   holding its own, so no two are ever held together. Only the JSONL
//!   sink calls out under its lock — into its writer, whose I/O that lock
//!   exists to serialise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod flight;
pub mod json;
pub mod jsonl;
pub mod observer;
pub mod registry;
pub mod trace;

pub use event::{Event, Layer, NodeRef, QueryRef};
pub use flight::FlightRecorder;
pub use jsonl::JsonlSink;
pub use observer::{Fanout, NullObserver, ObsHandle, Observer};
pub use registry::{Histogram, Registry, Snapshot};
pub use trace::{Hop, QueryTrace, TraceSummary, TraceTree};
