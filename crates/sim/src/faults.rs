//! Seeded, composable fault injection for [`SimCluster`](crate::SimCluster).
//!
//! A [`FaultPlan`] is a declarative description of everything that can go
//! wrong on the simulated network: per-message faults (drop, delay,
//! duplication, reordering) scoped to links, nodes or protocol layers and
//! gated on virtual-time windows; network partitions that heal; and timed
//! node crashes with optional restarts. The plan is consulted by the
//! cluster at its single delivery boundary (the internal `send` of
//! [`SimCluster`](crate::SimCluster) — every message, protocol and gossip
//! alike, funnels through it), so faults
//! compose with the [`LatencyModel`](crate::LatencyModel) instead of
//! replacing it.
//!
//! All randomness is drawn from the cluster's own seeded RNG: the same
//! seed and the same plan replay the exact same fault schedule, which is
//! what makes failing runs reproducible (see `docs/TESTING.md`).
//!
//! # Example
//!
//! ```
//! use overlay_sim::faults::{FaultPlan, Window};
//!
//! let plan = FaultPlan::new()
//!     .drop_all(0.05)                        // 5% uniform loss, forever
//!     .delay_window(Window::new(2_000, 6_000), 1.0, 50, 200)
//!     .crash(4_000, 7)                       // node 7 dies at t=4s…
//!     .restart(9_000, 7);                    // …and rejoins at t=9s
//! assert!(!plan.is_quiet());
//! ```

use std::collections::BTreeSet;

use epigossip::NodeId;
use rand::Rng;

/// A half-open virtual-time interval `[from, until)` gating a fault rule or
/// partition. `until = u64::MAX` means "never heals".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First instant (inclusive) the fault is active.
    pub from: u64,
    /// First instant (exclusive) the fault is over.
    pub until: u64,
}

impl Window {
    /// The whole timeline.
    pub const ALWAYS: Window = Window {
        from: 0,
        until: u64::MAX,
    };

    /// A window `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics if `from > until`.
    pub fn new(from: u64, until: u64) -> Self {
        assert!(from <= until, "window ends before it starts");
        Window { from, until }
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: u64) -> bool {
        self.from <= t && t < self.until
    }
}

/// Which messages a [`FaultRule`] applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every message.
    All,
    /// Only messages on the directed link `from → to`.
    Link {
        /// Sender side of the faulty link.
        from: NodeId,
        /// Receiver side of the faulty link.
        to: NodeId,
    },
    /// Any message sent *or* received by this node (a flaky machine).
    Node(NodeId),
    /// QUERY/REPLY traffic only (gossip unaffected).
    Protocol,
    /// Membership gossip only (protocol unaffected).
    Gossip,
}

impl Scope {
    fn matches(&self, from: NodeId, to: NodeId, protocol: bool) -> bool {
        match *self {
            Scope::All => true,
            Scope::Link { from: f, to: t } => f == from && t == to,
            Scope::Node(n) => n == from || n == to,
            Scope::Protocol => protocol,
            Scope::Gossip => !protocol,
        }
    }
}

/// The effect a matching [`FaultRule`] applies to a message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Drop the message with probability `p`.
    Drop {
        /// Loss probability in `[0, 1]`.
        p: f64,
    },
    /// With probability `p`, add a uniform extra delay in `[lo, hi]` ms on
    /// top of the latency model's sample.
    Delay {
        /// Probability the delay applies.
        p: f64,
        /// Minimum extra delay (ms).
        lo: u64,
        /// Maximum extra delay (ms).
        hi: u64,
    },
    /// With probability `p`, deliver `copies` extra copies of the message —
    /// the direct violation of the paper's exactly-once claim, caught by
    /// [`InvariantChecker::strict`](crate::InvariantChecker::strict).
    Duplicate {
        /// Probability the duplication applies.
        p: f64,
        /// Extra deliveries beyond the original.
        copies: u32,
    },
    /// With probability `p`, jitter the message by an independent uniform
    /// delay in `[0, window]` ms, breaking FIFO ordering between messages
    /// on the same link.
    Reorder {
        /// Probability the jitter applies.
        p: f64,
        /// Maximum jitter (ms).
        window: u64,
    },
}

fn check_probability(p: f64) {
    assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
}

/// One scoped, windowed fault: *when* ([`Window`]) × *what traffic*
/// ([`Scope`]) × *what happens* ([`Action`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// When the rule is active.
    pub window: Window,
    /// Which messages it applies to.
    pub scope: Scope,
    /// What it does to them.
    pub action: Action,
}

/// A network partition: while `window` is active, messages crossing the
/// boundary between `island` and the rest of the network are dropped
/// (both directions). Messages within the island — and within the
/// remainder — flow normally. The partition heals when the window closes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// When the partition holds.
    pub window: Window,
    /// The nodes on one side of the split.
    pub island: BTreeSet<NodeId>,
}

impl Partition {
    fn severs(&self, t: u64, from: NodeId, to: NodeId) -> bool {
        self.window.contains(t) && (self.island.contains(&from) != self.island.contains(&to))
    }
}

/// What happens to a node at a [`NodeEvent`]'s firing time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeEventKind {
    /// The node dies abruptly: no goodbye messages, in-flight messages to
    /// it are dropped, its protocol state is lost.
    Crash,
    /// A previously crashed node rejoins under the *same identity* at its
    /// old attribute values, with empty protocol state (the paper's node
    /// recovery, as opposed to churn's fresh identities). No-op if the
    /// node is not currently crashed.
    Restart,
}

/// A timed crash or restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeEvent {
    /// Virtual time the event fires.
    pub at: u64,
    /// The affected node.
    pub node: NodeId,
    /// Crash or restart.
    pub kind: NodeEventKind,
}

/// A composable description of every fault to inject into a run.
///
/// Build one with the fluent constructors, then install it with
/// [`SimCluster::set_fault_plan`](crate::SimCluster::set_fault_plan)
/// *before* issuing queries. Rules apply in insertion order; each message
/// is tested against every active rule, so e.g. a drop rule and a delay
/// rule both scoped to the same link compose naturally.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    partitions: Vec<Partition>,
    node_events: Vec<NodeEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing at all.
    pub fn is_quiet(&self) -> bool {
        self.rules.is_empty() && self.partitions.is_empty() && self.node_events.is_empty()
    }

    /// Adds an arbitrary rule (escape hatch for combinations the fluent
    /// constructors don't cover).
    pub fn rule(mut self, rule: FaultRule) -> Self {
        let (Action::Drop { p }
        | Action::Delay { p, .. }
        | Action::Duplicate { p, .. }
        | Action::Reorder { p, .. }) = rule.action;
        check_probability(p);
        self.rules.push(rule);
        self
    }

    /// Uniform message loss with probability `p`, forever, all traffic.
    pub fn drop_all(self, p: f64) -> Self {
        self.rule(FaultRule {
            window: Window::ALWAYS,
            scope: Scope::All,
            action: Action::Drop { p },
        })
    }

    /// Message loss on the directed link `from → to`.
    pub fn drop_link(self, from: NodeId, to: NodeId, p: f64) -> Self {
        self.rule(FaultRule {
            window: Window::ALWAYS,
            scope: Scope::Link { from, to },
            action: Action::Drop { p },
        })
    }

    /// Message loss on everything sent or received by `node`.
    pub fn drop_node(self, node: NodeId, p: f64) -> Self {
        self.rule(FaultRule {
            window: Window::ALWAYS,
            scope: Scope::Node(node),
            action: Action::Drop { p },
        })
    }

    /// Message loss limited to a time window, all traffic.
    pub fn drop_window(self, window: Window, p: f64) -> Self {
        self.rule(FaultRule {
            window,
            scope: Scope::All,
            action: Action::Drop { p },
        })
    }

    /// Extra delay of `[lo, hi]` ms with probability `p`, forever.
    pub fn delay_all(self, p: f64, lo: u64, hi: u64) -> Self {
        self.delay_window(Window::ALWAYS, p, lo, hi)
    }

    /// Extra delay limited to a time window.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn delay_window(self, window: Window, p: f64, lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "delay range is inverted");
        self.rule(FaultRule {
            window,
            scope: Scope::All,
            action: Action::Delay { p, lo, hi },
        })
    }

    /// Duplicates protocol messages (`copies` extra deliveries) with
    /// probability `p` — the canonical exactly-once violation.
    pub fn duplicate_protocol(self, p: f64, copies: u32) -> Self {
        self.rule(FaultRule {
            window: Window::ALWAYS,
            scope: Scope::Protocol,
            action: Action::Duplicate { p, copies },
        })
    }

    /// FIFO-breaking jitter of up to `window_ms` with probability `p`.
    pub fn reorder_all(self, p: f64, window_ms: u64) -> Self {
        self.rule(FaultRule {
            window: Window::ALWAYS,
            scope: Scope::All,
            action: Action::Reorder {
                p,
                window: window_ms,
            },
        })
    }

    /// Splits `island` from the rest of the network for `window`.
    pub fn partition<I: IntoIterator<Item = NodeId>>(mut self, window: Window, island: I) -> Self {
        self.partitions.push(Partition {
            window,
            island: island.into_iter().collect(),
        });
        self
    }

    /// Crashes `node` at virtual time `at`.
    pub fn crash(mut self, at: u64, node: NodeId) -> Self {
        self.node_events.push(NodeEvent {
            at,
            node,
            kind: NodeEventKind::Crash,
        });
        self
    }

    /// Restarts `node` (previously crashed) at virtual time `at`.
    pub fn restart(mut self, at: u64, node: NodeId) -> Self {
        self.node_events.push(NodeEvent {
            at,
            node,
            kind: NodeEventKind::Restart,
        });
        self
    }

    /// The plan's timed crash/restart events (scheduled by the cluster
    /// when the plan is installed).
    pub fn node_events(&self) -> &[NodeEvent] {
        &self.node_events
    }

    /// Resolves one message against the plan: given the latency model's
    /// `base` delay, returns the relative delay of every copy to deliver.
    /// Empty means the message was dropped (or partitioned away); more
    /// than one entry means it was duplicated.
    #[cfg(test)]
    pub(crate) fn deliveries<R: Rng + ?Sized>(
        &self,
        now: u64,
        from: NodeId,
        to: NodeId,
        protocol: bool,
        base: u64,
        rng: &mut R,
    ) -> Vec<u64> {
        let mut out = Vec::new();
        self.deliveries_into(now, from, to, protocol, base, rng, &mut out);
        out
    }

    /// [`Self::deliveries`] writing into a caller-owned buffer, so the
    /// per-message hot path ([`crate::SimCluster`]'s `send`) reuses one
    /// allocation for the life of the run.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn deliveries_into<R: Rng + ?Sized>(
        &self,
        now: u64,
        from: NodeId,
        to: NodeId,
        protocol: bool,
        base: u64,
        rng: &mut R,
        out: &mut Vec<u64>,
    ) {
        out.clear();
        if self.partitions.iter().any(|p| p.severs(now, from, to)) {
            return;
        }
        out.push(base);
        for rule in &self.rules {
            if !rule.window.contains(now) || !rule.scope.matches(from, to, protocol) {
                continue;
            }
            match rule.action {
                Action::Drop { p } => {
                    if rng.gen_bool(p) {
                        out.clear();
                        return;
                    }
                }
                Action::Delay { p, lo, hi } => {
                    if rng.gen_bool(p) {
                        let extra = if lo == hi { lo } else { rng.gen_range(lo..=hi) };
                        for d in out.iter_mut() {
                            *d += extra;
                        }
                    }
                }
                Action::Duplicate { p, copies } => {
                    if rng.gen_bool(p) {
                        // Copies trail the original by distinct offsets so
                        // they arrive as separate deliveries.
                        out.extend((1..=u64::from(copies)).map(|c| base + c));
                    }
                }
                Action::Reorder { p, window } => {
                    for d in out.iter_mut() {
                        if rng.gen_bool(p) {
                            *d += rng.gen_range(0..=window);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn quiet_plan_passes_messages_through() {
        let plan = FaultPlan::new();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(plan.is_quiet());
        assert_eq!(plan.deliveries(0, 1, 2, true, 25, &mut rng), vec![25]);
    }

    #[test]
    fn drop_all_certain_loss_drops_everything() {
        let plan = FaultPlan::new().drop_all(1.0);
        let mut rng = StdRng::seed_from_u64(2);
        for t in 0..50 {
            assert!(plan.deliveries(t, 0, 1, true, 10, &mut rng).is_empty());
        }
    }

    #[test]
    fn windows_gate_rules() {
        let plan = FaultPlan::new().drop_window(Window::new(100, 200), 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(plan.deliveries(99, 0, 1, true, 5, &mut rng), vec![5]);
        assert!(plan.deliveries(100, 0, 1, true, 5, &mut rng).is_empty());
        assert!(plan.deliveries(199, 0, 1, true, 5, &mut rng).is_empty());
        assert_eq!(plan.deliveries(200, 0, 1, true, 5, &mut rng), vec![5]);
    }

    #[test]
    fn scopes_select_traffic() {
        let mut rng = StdRng::seed_from_u64(4);
        let link = FaultPlan::new().drop_link(3, 4, 1.0);
        assert!(link.deliveries(0, 3, 4, true, 1, &mut rng).is_empty());
        assert_eq!(
            link.deliveries(0, 4, 3, true, 1, &mut rng),
            vec![1],
            "directed"
        );
        assert_eq!(link.deliveries(0, 3, 5, true, 1, &mut rng), vec![1]);

        let node = FaultPlan::new().drop_node(7, 1.0);
        assert!(node.deliveries(0, 7, 1, true, 1, &mut rng).is_empty());
        assert!(node.deliveries(0, 1, 7, false, 1, &mut rng).is_empty());
        assert_eq!(node.deliveries(0, 1, 2, true, 1, &mut rng), vec![1]);

        let gossip_only = FaultPlan::new().rule(FaultRule {
            window: Window::ALWAYS,
            scope: Scope::Gossip,
            action: Action::Drop { p: 1.0 },
        });
        assert_eq!(gossip_only.deliveries(0, 1, 2, true, 1, &mut rng), vec![1]);
        assert!(gossip_only
            .deliveries(0, 1, 2, false, 1, &mut rng)
            .is_empty());
    }

    #[test]
    fn duplication_produces_extra_copies() {
        let plan = FaultPlan::new().duplicate_protocol(1.0, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let d = plan.deliveries(0, 0, 1, true, 10, &mut rng);
        assert_eq!(d, vec![10, 11, 12]);
        // Gossip is out of scope for duplicate_protocol.
        assert_eq!(plan.deliveries(0, 0, 1, false, 10, &mut rng), vec![10]);
    }

    #[test]
    fn delay_adds_within_bounds() {
        let plan = FaultPlan::new().delay_all(1.0, 50, 60);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..100 {
            let d = plan.deliveries(0, 0, 1, true, 10, &mut rng);
            assert_eq!(d.len(), 1);
            assert!((60..=70).contains(&d[0]), "delayed to {}", d[0]);
        }
    }

    #[test]
    fn partition_severs_across_but_not_within() {
        let plan = FaultPlan::new().partition(Window::new(0, 1_000), [1, 2, 3]);
        let mut rng = StdRng::seed_from_u64(7);
        assert!(plan.deliveries(500, 1, 9, true, 1, &mut rng).is_empty());
        assert!(plan.deliveries(500, 9, 2, true, 1, &mut rng).is_empty());
        assert_eq!(
            plan.deliveries(500, 1, 2, true, 1, &mut rng),
            vec![1],
            "within island"
        );
        assert_eq!(
            plan.deliveries(500, 8, 9, true, 1, &mut rng),
            vec![1],
            "within mainland"
        );
        assert_eq!(
            plan.deliveries(1_000, 1, 9, true, 1, &mut rng),
            vec![1],
            "healed"
        );
    }

    #[test]
    fn rules_compose_in_order() {
        // Delay then duplicate: copies trail the *base*, the original is
        // delayed — both effects visible at once.
        let plan = FaultPlan::new()
            .delay_all(1.0, 100, 100)
            .duplicate_protocol(1.0, 1);
        let mut rng = StdRng::seed_from_u64(8);
        let d = plan.deliveries(0, 0, 1, true, 10, &mut rng);
        assert_eq!(d, vec![110, 11]);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_probability_is_rejected() {
        let _ = FaultPlan::new().drop_all(1.5);
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let plan = FaultPlan::new()
            .drop_all(0.3)
            .delay_all(0.5, 10, 90)
            .reorder_all(0.2, 40);
        let run = |seed: u64| -> Vec<Vec<u64>> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..200u64)
                .map(|t| plan.deliveries(t, t % 7, t % 5, t % 2 == 0, 20, &mut rng))
                .collect()
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100), "different seeds diverge somewhere");
    }
}
