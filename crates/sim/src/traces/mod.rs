//! Synthetic volunteer-computing host traces.
//!
//! The paper's load-distribution comparison (Fig. 9b) uses node attributes
//! from the **XtremLab** BOINC traces — "node properties seen for more than
//! 10,000 hosts in BOINC projects", which "are highly skewed". Those traces
//! are no longer distributed, so this module synthesizes statistically
//! equivalent host populations:
//!
//! * 16 hardware/software attributes per host ([`Host`],
//!   [`ATTRIBUTE_NAMES`]) with heavily skewed marginals — log-normal sizes,
//!   Zipf-like categorical popularity (e.g. the overwhelming Windows share of
//!   2000s BOINC), power-of-two RAM ladders — and realistic correlations
//!   (more cores ⇒ more RAM ⇒ faster benchmark);
//! * a deterministic, seedable [`HostGenerator`];
//! * [`fit_space`] — builds an [`attrspace::Space`] whose per-dimension
//!   bucket boundaries are *quantiles* of an observed sample, exercising the
//!   paper's non-uniform cell boundaries (§4.1) exactly as a deployment
//!   facing skewed data would;
//! * [`sessions`] — per-host heavy-tailed availability sessions, which
//!   [`crate::scenario`] replays as churn.
//!
//! What matters for reproducing Fig. 9(b) is only the *skew* of the
//! marginals: SWORD-style DHT mappings concentrate popular attribute values
//! onto few registry nodes, producing the heavy-tailed load the paper plots,
//! while self-representation spreads load by construction. The synthetic
//! marginals preserve that property; see DESIGN.md §4.
//!
//! ```
//! use overlay_sim::traces::{fit_space, HostGenerator};
//!
//! let hosts: Vec<_> = HostGenerator::new(42).take(1000).collect();
//! let rows: Vec<Vec<u64>> = hosts.iter().map(|h| h.to_values()).collect();
//! let space = fit_space(&rows, 3).expect("valid sample");
//! assert_eq!(space.dims(), 16);
//! ```

mod boinc;
mod distributions;
pub mod sessions;
mod space;

pub use boinc::{Host, HostGenerator, ATTRIBUTE_NAMES};
pub use distributions::{lognormal, CategoricalU64, Zipf};
pub use space::fit_space;
