//! Dynamic analysis backstop for the resource-selection overlay: a
//! stateless DPOR model checker that drives the simulator through every
//! interesting message interleaving of a bounded scenario ([`explorer`]).
//!
//! It turns "the protocol is correct under reordering, duplication and
//! loss" from a review argument into an exhaustively checked property (for
//! bounded scenarios), so the repo's correctness story does not depend on
//! anyone *remembering* it. The repo's static rules — hot paths stay
//! deterministic, virtual time stays virtual, the live runtime stays
//! lock-free — are Clippy configuration, not code here (`clippy.toml`).
//!
//! Like the rest of the workspace, this crate has **zero external
//! dependencies**: the checker reuses the simulator's own invariant
//! machinery.
//!
//! See `docs/ANALYSIS.md` for scope, guarantees and limits.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod explorer;

pub use explorer::{replay, Action, Choice, Explorer, Report, Scenario, Violation};
