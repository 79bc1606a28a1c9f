//! # attrspace — the d-dimensional attribute space of ICDCS'09 autonomous resource selection
//!
//! Every compute node is a point in a `d`-dimensional space `A = A0 × A1 × … × A(d-1)`,
//! one dimension per resource attribute (memory, bandwidth, CPU, …). This crate
//! implements the *geometry* of the paper:
//!
//! * [`Space`] — the space definition: `d` [`Dimension`]s, each with (possibly
//!   non-uniform) bucket boundaries, and a nesting depth `max(l)`;
//! * [`Point`] — a node's raw attribute values;
//! * [`CellCoord`] — the per-dimension bucket indices of a point, from which all
//!   nested-cell relations are pure bit arithmetic;
//! * [`Region`] — an axis-aligned box in bucket-index space; the key operation is
//!   [`CellCoord::neighboring_cell`], computing the paper's `N(l,k)` subcells;
//! * [`Query`] — a conjunction of per-attribute value ranges, i.e. the subspace
//!   `Q(q)` that a job demarcates.
//!
//! The crate is deliberately free of networking, randomness and I/O: the routing
//! protocol (`autosel-core`), the simulator and the network runtime all share it.
//!
//! ## Example
//!
//! ```
//! use attrspace::{Space, Query};
//!
//! // Five attributes, each split into 2^3 = 8 buckets over [0, 80).
//! let space = Space::builder()
//!     .uniform_dimension("cpu", 0, 80)
//!     .uniform_dimension("mem", 0, 80)
//!     .uniform_dimension("bw", 0, 80)
//!     .uniform_dimension("disk", 0, 80)
//!     .uniform_dimension("os", 0, 80)
//!     .max_level(3)
//!     .build()?;
//!
//! let node = space.point(&[12, 70, 33, 5, 64])?;
//! let query = Query::builder(&space)
//!     .range("mem", 40, 80)
//!     .min("bw", 30)
//!     .build()?;
//!
//! assert!(query.matches(&node));           // mem 70 ∈ [40,80] and bw 33 ≥ 30
//! # Ok::<(), attrspace::SpaceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod catalog;
mod cell;
mod dimension;
mod error;
mod point;
mod query;
mod region;
mod space;

pub use catalog::ValueCatalog;
pub use cell::{CellCoord, CellId, Level, Neighborhood};
pub use dimension::Dimension;
pub use error::SpaceError;
pub use point::Point;
pub use query::{Query, QueryBuilder, Range};
pub use region::Region;
pub use space::{Space, SpaceBuilder};

/// A raw attribute value. The paper assumes "attribute values can be uniquely
/// mapped to natural numbers"; we take that mapping as given and use `u64`.
pub type RawValue = u64;

/// Index of a bucket along one dimension, in `[0, 2^max_level)`.
pub type BucketIndex = u32;
