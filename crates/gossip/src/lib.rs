//! # epigossip — two-layer epidemic overlay maintenance
//!
//! The ICDCS'09 resource-selection overlay is kept alive by the two-layer
//! gossip stack of §5:
//!
//! 1. the **bottom layer** runs [CYCLON] — every node keeps `Kc` random links
//!    and periodically *shuffles* a few of them with its oldest neighbor,
//!    yielding a continuously refreshed random graph that is extremely robust
//!    to churn and partitions;
//! 2. the **top (semantic) layer** keeps `Kv` links chosen *by attribute
//!    proximity* rather than at random: each exchange pools the peers both
//!    nodes know about and a pluggable [`Selector`] retains the most useful
//!    ones (for resource selection: peers covering the node's neighboring
//!    cells `N(l,k)`). The CYCLON layer continuously feeds it fresh random
//!    candidates so the semantic views cannot get stuck in local optima.
//!
//! The whole crate is **sans-IO**: a [`GossipStack`] consumes
//! `(now, message)` pairs and produces `(destination, message)` pairs. The
//! discrete-event simulator and the network runtime drive the same code.
//!
//! [CYCLON]: https://doi.org/10.1007/s10922-005-4441-x
//!
//! ## Example: two nodes discover each other through a seed
//!
//! ```
//! use epigossip::{GossipConfig, GossipStack, RankSelector};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Profiles are just values; rank peers by |profile - mine|.
//! let selector = RankSelector::new(|mine: &u64, theirs: &u64| mine.abs_diff(*theirs));
//! let cfg = GossipConfig::default();
//! let mut rng = StdRng::seed_from_u64(7);
//!
//! let mut a = GossipStack::new(1, 10u64, cfg.clone(), selector.clone());
//! let mut b = GossipStack::new(2, 11u64, cfg, selector);
//! a.introduce(2, 11);            // bootstrap: A knows B
//!
//! // One A-initiated round: tick A, deliver to B, deliver B's replies to A.
//! for (dst, msg) in a.tick(10_000, &mut rng) {
//!     assert_eq!(dst, 2);
//!     for (back, reply) in b.handle(1, msg, &mut rng) {
//!         assert_eq!(back, 1);
//!         a.handle(2, reply, &mut rng);
//!     }
//! }
//! assert!(b.random_view().contains(1)); // B learned about A from the shuffle
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod config;
mod cyclon;
mod descriptor;
mod scratch;
mod selector;
mod stack;
mod vicinity;
mod view;

pub use config::GossipConfig;
pub use cyclon::Cyclon;
pub use descriptor::{Descriptor, NodeId};
pub use scratch::Scratch;
pub use selector::{sort_smallest, RankKey, RankSelector, Ranking, Selector};
pub use stack::{GossipHealth, GossipMessage, GossipStack, Layer};
pub use vicinity::Vicinity;
pub use view::View;
