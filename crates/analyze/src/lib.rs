//! Static and dynamic analysis backstops for the resource-selection
//! overlay: a stateless DPOR model checker that drives the simulator
//! through every interesting message interleaving of a bounded scenario
//! ([`explorer`]), and a zero-dependency repo linter enforcing the
//! codebase's own invariants ([`lint`]) — among them that the live
//! runtime stays lock-free (`runtime-lock`).
//!
//! The two halves share a philosophy: the repo's correctness story should
//! not depend on anyone *remembering* the rules. The explorer turns
//! "the protocol is correct under reordering, duplication and loss" from
//! a review argument into an exhaustively checked property (for bounded
//! scenarios); the linter turns "hot paths stay deterministic, virtual
//! time stays virtual" from review lore into CI failures.
//!
//! Like the rest of the workspace, this crate has **zero external
//! dependencies** — the scanner is hand-rolled and the checker reuses the
//! simulator's own invariant machinery.
//!
//! See `docs/ANALYSIS.md` for scope, guarantees and limits.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod explorer;
pub mod lint;

pub use explorer::{replay, Action, Choice, Explorer, Report, Scenario, Violation};
pub use lint::{lint_repo, lint_source, Finding, Rule};
