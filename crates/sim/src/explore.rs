//! Stateless model checking of the selection protocol over the simulator:
//! a DPOR explorer that drives a [`SimCluster`] through every interesting
//! message interleaving of a bounded scenario.
//!
//! It turns "the protocol is correct under reordering, duplication and
//! loss" from a review argument into an exhaustively checked property (for
//! bounded scenarios), so the repo's correctness story does not depend on
//! anyone *remembering* it. The checker reuses the simulator's own invariant
//! machinery. See `docs/ANALYSIS.md` for scope, guarantees and limits.
//!
//! The fault-matrix tests sample schedules; this module *enumerates* them.
//! A [`Scenario`] pins a bounded cluster (≤ 5 nodes, 1–2 queries, optional
//! duplicate / drop / timeout-race / crash-restart choice points) and the
//! [`Explorer`]
//! drives a fresh [`SimCluster`] through every inequivalent ordering of its
//! message deliveries, running the [`InvariantChecker`] after each step and
//! at quiescence of every schedule.
//!
//! ## How exploration works
//!
//! The simulator's `dispatch` advances virtual time with `now = max(now,
//! event.at)`, so dispatching queued events in *any* order is semantically
//! valid — an out-of-order dispatch just models an adversarially slow
//! network for the bypassed messages. A schedule is therefore a list of
//! [`Choice`]s: at each state where more than one delivery (or more than
//! one action on a delivery) is possible, pick one. The explorer is
//! *stateless* in the model-checking sense (CMC / MODIST / dBug lineage):
//! it never snapshots the cluster, it re-executes the scenario from scratch
//! for every prefix, which keeps it honest about determinism — any
//! re-execution divergence would surface as a missing [`EventKey`].
//!
//! Three reductions keep the schedule tree tractable:
//!
//! * **Sleep sets** (dynamic partial-order reduction): two queued events
//!   commute unless they target the same node ([`EventKey::target`]), so
//!   after exploring `a` before `b` for independent `a`, `b`, the `b`-first
//!   subtree skips re-exploring `a` at the same depth.
//! * **State-hash pruning**: [`SimCluster::state_hash`] digests everything
//!   that determines future behaviour *and* future invariant verdicts; a
//!   revisited (state, sleep-set) pair is cut off.
//! * **Timeout deferral**: in strict scenarios, `T(q)` poll events stay
//!   uninteresting while deliveries remain queued — the partial-synchrony
//!   assumption under which the paper's §6 exactness claims are stated.
//!   [`Scenario::race_timeouts`] lifts this and adds timeout polls to the
//!   choice set (with relaxed invariants: an early timeout legitimately
//!   abandons a live subtree).
//!
//! On a violation the explorer delta-debugs the failing choice list to a
//! locally minimal one ([`Violation::minimized`]) and [`replay`] re-executes
//! any recorded trace deterministically — the reproduction path a failing
//! test ships with.

use std::collections::BTreeSet;

use crate::{
    EventKey, FaultPlan, InvariantChecker, InvariantViolation, QueuedEvent, SimCluster, SimConfig,
};
use attrspace::{Query, Space};
use autosel_core::fasthash::{FastSet, Fnv64};
use autosel_core::QueryId;
use epigossip::NodeId;

/// What to do with the chosen event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Action {
    /// Dispatch it now (ahead of anything else queued).
    Dispatch,
    /// Enqueue a second copy, then dispatch the original — the message
    /// arrives twice. Bounded by [`Scenario::allow_duplicates`].
    Duplicate,
    /// Discard it — targeted message loss. Bounded by
    /// [`Scenario::allow_drops`].
    Drop,
}

/// One resolved choice point: which queued event, and what was done to it.
/// Keyed by the schedule-independent [`EventKey`], so a recorded trace
/// replays against a fresh execution of the same scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Choice {
    /// The chosen event's stable identity.
    pub key: EventKey,
    /// What was done with it.
    pub action: Action,
}

impl std::fmt::Display for Choice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verb = match self.action {
            Action::Dispatch => "dispatch",
            Action::Duplicate => "duplicate",
            Action::Drop => "drop",
        };
        write!(f, "{verb} {:?}", self.key)
    }
}

/// A bounded, fully deterministic protocol situation for the explorer: node
/// placements, queries, and which adversarial choice points (duplication,
/// loss, timeout races, an injected bug) the schedule tree may use.
///
/// Scenarios run on [`SimConfig::fast_static`] — no gossip, constant 1 ms
/// latency, no fault plan — so a run consumes *no* randomness after setup,
/// which is what makes re-execution exact and state-hash pruning sound.
#[derive(Debug, Clone)]
pub struct Scenario {
    space: Space,
    points: Vec<Vec<u64>>,
    queries: Vec<(NodeId, Query, Option<u32>)>,
    duplicates: usize,
    drops: usize,
    timeout_races: bool,
    churn: Vec<(NodeId, u64, u64)>,
    buggy: Vec<NodeId>,
}

/// The most nodes a scenario may hold: exhaustive exploration is for
/// protocol kernels, not populations.
pub const MAX_NODES: usize = 5;

impl Scenario {
    /// An empty scenario over `space`.
    pub fn new(space: Space) -> Self {
        Scenario {
            space,
            points: Vec::new(),
            queries: Vec::new(),
            duplicates: 0,
            drops: 0,
            timeout_races: false,
            churn: Vec::new(),
            buggy: Vec::new(),
        }
    }

    /// Adds a node at attribute values `vals`; returns its id (assigned
    /// 0, 1, … in call order).
    ///
    /// # Panics
    ///
    /// Panics past [`MAX_NODES`] or if `vals` lies outside the space.
    pub fn node(&mut self, vals: &[u64]) -> NodeId {
        assert!(
            self.points.len() < MAX_NODES,
            "scenarios are bounded to {MAX_NODES} nodes"
        );
        self.space
            .point(vals)
            .expect("scenario point inside the space");
        self.points.push(vals.to_vec());
        (self.points.len() - 1) as NodeId
    }

    /// Issues `query` from `origin` at time zero (σ-bounded if given).
    ///
    /// # Panics
    ///
    /// Panics on a third query (bounded scenarios carry 1–2).
    pub fn query(&mut self, origin: NodeId, query: Query, sigma: Option<u32>) {
        assert!(self.queries.len() < 2, "scenarios are bounded to 2 queries");
        self.queries.push((origin, query, sigma));
    }

    /// Lets schedules deliver up to `n` messages twice. Weakens the checker
    /// from strict to relaxed + exact-reporting (duplicates legitimately
    /// break the *zero duplicate receipts* claim, but attempt-tagged
    /// replies keep result accounting exactly-once).
    pub fn allow_duplicates(&mut self, n: usize) {
        self.duplicates = n;
    }

    /// Lets schedules silently discard up to `n` messages. Weakens the
    /// checker to plain relaxed (losses legitimately lose results).
    pub fn allow_drops(&mut self, n: usize) {
        self.drops = n;
    }

    /// Adds `T(q)` timeout polls to the choice set, letting them race ahead
    /// of queued deliveries. Weakens the checker to plain relaxed (an early
    /// timeout abandons a live subtree by design).
    pub fn race_timeouts(&mut self) {
        self.timeout_races = true;
    }

    /// Schedules `node` to crash at `crash_at_ms` and restart at
    /// `restart_at_ms`, and — the point — makes both fault events *choice
    /// points*: the explorer reorders them freely against queued
    /// deliveries, covering crash-just-before-receive, crash-mid-subtree,
    /// restart-overtaking-crash (a legitimate no-op: the restart of an
    /// alive node does nothing), and every other interleaving. Weakens the
    /// checker to plain relaxed — a crash legitimately loses pending
    /// protocol state, and a restarted node comes back with an empty dedup
    /// cache, so duplicate receipts become possible by design.
    ///
    /// # Panics
    ///
    /// Panics if `restart_at_ms < crash_at_ms` (the *scheduled* order is
    /// crash-then-restart; the explorer's reorderings come from dispatch
    /// order, not from nonsensical timestamps).
    pub fn crash_restart(&mut self, node: NodeId, crash_at_ms: u64, restart_at_ms: u64) {
        assert!(
            restart_at_ms >= crash_at_ms,
            "restart must not be scheduled before its crash"
        );
        self.churn.push((node, crash_at_ms, restart_at_ms));
    }

    /// Re-injects the historical dedup-reply bug (pre-reply-cache: *every*
    /// duplicate QUERY is answered with an empty REPLY, even mid-flight)
    /// into `node` — the mutation the smoke test proves the explorer
    /// catches. See `SelectionNode::inject_empty_dedup_reply_bug`.
    pub fn inject_empty_dedup_reply_bug(&mut self, node: NodeId) {
        self.buggy.push(node);
    }

    /// The invariant checker this scenario has earned: strict when no
    /// adversarial choice points are enabled, relaxed + exact-reporting
    /// when only duplication is, plain relaxed once losses, timeout
    /// races, or churn are possible.
    pub fn checker(&self) -> InvariantChecker {
        if self.drops > 0 || self.timeout_races || !self.churn.is_empty() {
            InvariantChecker::relaxed()
        } else if self.duplicates > 0 {
            InvariantChecker::relaxed().expect_exact_reporting()
        } else {
            InvariantChecker::strict()
        }
    }

    /// Builds the cluster fresh: oracle-wired nodes, bugs injected, queries
    /// issued at t = 0, nothing dispatched yet. Deterministic — every call
    /// yields an identical cluster (seed fixed, setup draws are replayed).
    pub fn build(&self) -> (SimCluster, Vec<QueryId>) {
        assert!(!self.queries.is_empty(), "scenario has no query");
        let mut sim = SimCluster::new(self.space.clone(), SimConfig::fast_static(), 0);
        for vals in &self.points {
            sim.add_node(self.space.point(vals).expect("validated in node()"));
        }
        sim.wire_oracle();
        for &id in &self.buggy {
            sim.selection_mut(id)
                .expect("buggy node exists")
                .inject_empty_dedup_reply_bug();
        }
        if !self.churn.is_empty() {
            let mut plan = FaultPlan::new();
            for &(node, crash_at, restart_at) in &self.churn {
                plan = plan.crash(crash_at, node).restart(restart_at, node);
            }
            sim.set_fault_plan(plan);
        }
        let qids = self
            .queries
            .iter()
            .map(|(origin, q, sigma)| sim.issue_query(*origin, q.clone(), *sigma))
            .collect();
        (sim, qids)
    }
}

/// Re-executes `scenario` step by step under explorer control: applies
/// recorded choices, auto-dispatches forced (non-branching) events, and
/// runs the scenario's invariant checker after every dispatch.
struct Executor<'a> {
    scenario: &'a Scenario,
    sim: SimCluster,
    checker: InvariantChecker,
    dups_used: usize,
    drops_used: usize,
    steps: u64,
}

impl<'a> Executor<'a> {
    fn new(scenario: &'a Scenario) -> Self {
        let (sim, _) = scenario.build();
        Executor {
            scenario,
            sim,
            checker: scenario.checker(),
            dups_used: 0,
            drops_used: 0,
            steps: 0,
        }
    }

    /// The *interesting* queued events — those the explorer may reorder —
    /// deduplicated by key (lowest `(at, seq)` copy kept), in deterministic
    /// `(at, seq)` order. Deliveries always; timeout polls only when the
    /// scenario races them; crash/restart fault events only when the
    /// scenario schedules churn.
    fn interesting(&self) -> Vec<QueuedEvent> {
        let mut seen: BTreeSet<EventKey> = BTreeSet::new();
        self.sim
            .queued_events()
            .into_iter()
            .filter(|e| {
                let relevant = e.key.is_deliver()
                    || (self.scenario.timeout_races
                        && matches!(e.key, EventKey::PollTimeouts { .. }))
                    || (!self.scenario.churn.is_empty()
                        && matches!(e.key, EventKey::NodeFault { .. }));
                relevant && seen.insert(e.key)
            })
            .collect()
    }

    /// The actions available on `key` right now (budget-gated).
    fn actions(&self, key: EventKey) -> Vec<Action> {
        let mut out = vec![Action::Dispatch];
        if key.is_deliver() {
            if self.dups_used < self.scenario.duplicates {
                out.push(Action::Duplicate);
            }
            if self.drops_used < self.scenario.drops {
                out.push(Action::Drop);
            }
        }
        out
    }

    /// Whether the current state is a genuine branch point (≥ 2 choices).
    fn is_branching(&self) -> bool {
        let interesting = self.interesting();
        interesting.len() >= 2
            || interesting
                .first()
                .is_some_and(|e| self.actions(e.key).len() >= 2)
    }

    fn dispatch(&mut self, seq: u64) -> Result<(), InvariantViolation> {
        assert!(self.sim.dispatch_queued(seq), "stale queue handle");
        self.steps += 1;
        self.checker.check_step(&self.sim)
    }

    /// Dispatches one forced event: the earliest interesting one if any
    /// (deliveries before deferred timeout polls), else the earliest queued
    /// event. Returns `false` when the queue is empty.
    fn forced_step(&mut self) -> Result<bool, InvariantViolation> {
        let seq = match self.interesting().first() {
            Some(e) => e.seq,
            None => match self.sim.queued_events().first() {
                Some(e) => e.seq,
                None => return Ok(false),
            },
        };
        self.dispatch(seq)?;
        Ok(true)
    }

    /// Auto-dispatches forced events until the state branches or the queue
    /// drains. Returns whether the run quiesced.
    fn advance(&mut self) -> Result<bool, InvariantViolation> {
        loop {
            if self.is_branching() {
                return Ok(false);
            }
            if !self.forced_step()? {
                return Ok(true);
            }
        }
    }

    /// Applies one recorded choice. Returns `false` (and does nothing) if
    /// the keyed event is not currently queued or the action's budget is
    /// spent — replay-with-skip is what makes delta-debugged subsets
    /// executable.
    fn apply(&mut self, choice: &Choice) -> Result<bool, InvariantViolation> {
        let Some(ev) = self
            .sim
            .queued_events()
            .into_iter()
            .find(|e| e.key == choice.key)
        else {
            return Ok(false);
        };
        match choice.action {
            Action::Dispatch => self.dispatch(ev.seq)?,
            Action::Duplicate => {
                if self.dups_used >= self.scenario.duplicates {
                    return Ok(false);
                }
                self.dups_used += 1;
                self.sim.duplicate_queued(ev.seq).expect("event is queued");
                self.dispatch(ev.seq)?;
            }
            Action::Drop => {
                if self.drops_used >= self.scenario.drops {
                    return Ok(false);
                }
                self.drops_used += 1;
                assert!(self.sim.drop_queued(ev.seq), "event is queued");
            }
        }
        Ok(true)
    }

    fn check_quiescent(&mut self) -> Result<(), InvariantViolation> {
        self.checker.check_quiescent(&self.sim)
    }
}

/// A schedule that broke an invariant, with its reproduction traces.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The first invariant the schedule broke.
    pub violation: InvariantViolation,
    /// The full failing choice list, as explored.
    pub schedule: Vec<Choice>,
    /// The delta-debugged (1-minimal) choice list: [`replay`] of this trace
    /// reproduces the same violation kind.
    pub minimized: Vec<Choice>,
}

/// What an exploration did and found.
#[derive(Debug, Clone)]
pub struct Report {
    /// Complete schedules executed to quiescence (or to a violation).
    pub schedules: u64,
    /// Total event dispatches across all re-executions.
    pub steps: u64,
    /// Subtrees cut by state-hash pruning.
    pub pruned: u64,
    /// Enabled events skipped because a sleep set proved the interleaving
    /// already covered.
    pub sleep_skipped: u64,
    /// Whether the full schedule space was covered within budget (always
    /// `false` when a violation stopped the search early).
    pub exhausted: bool,
    /// The first violating schedule found, if any.
    pub violation: Option<Violation>,
}

impl Report {
    /// No violation and the space was exhausted: the scenario is verified
    /// (for its bounds).
    pub fn verified(&self) -> bool {
        self.exhausted && self.violation.is_none()
    }
}

/// Budgeted exhaustive explorer. The defaults comfortably cover every
/// in-repo scenario; exceeding any budget flips
/// [`Report::exhausted`] to `false` instead of running away.
#[derive(Debug, Clone)]
pub struct Explorer {
    /// Maximum complete schedules to execute.
    pub max_schedules: u64,
    /// Maximum total dispatches (across re-executions).
    pub max_steps: u64,
    /// Maximum recorded choices per schedule.
    pub max_depth: usize,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            max_schedules: 100_000,
            max_steps: 5_000_000,
            max_depth: 64,
        }
    }
}

impl Explorer {
    /// Systematically explores `scenario`'s schedule space.
    pub fn explore(&self, scenario: &Scenario) -> Report {
        let mut dfs = Dfs {
            scenario,
            budget: self,
            report: Report {
                schedules: 0,
                steps: 0,
                pruned: 0,
                sleep_skipped: 0,
                exhausted: true,
                violation: None,
            },
            seen: FastSet::default(),
        };
        dfs.explore(&mut Vec::new(), &BTreeSet::new());
        if dfs.report.violation.is_some() {
            dfs.report.exhausted = false;
        }
        dfs.report
    }
}

struct Dfs<'a> {
    scenario: &'a Scenario,
    budget: &'a Explorer,
    report: Report,
    /// (state hash, sleep set) pairs already expanded.
    seen: FastSet<u64>,
}

impl Dfs<'_> {
    /// Whether the search must stop before taking on the *pending* work the
    /// caller is about to start. A budget stop with work still pending
    /// means coverage is incomplete, so it clears [`Report::exhausted`];
    /// a violation stop leaves it to [`Explorer::explore`] to clear.
    fn must_stop(&mut self) -> bool {
        if self.report.violation.is_some() {
            return true;
        }
        if self.report.schedules >= self.budget.max_schedules
            || self.report.steps >= self.budget.max_steps
        {
            self.report.exhausted = false;
            return true;
        }
        false
    }

    fn found(&mut self, violation: InvariantViolation, schedule: Vec<Choice>) {
        let minimized = minimize(self.scenario, &schedule, &violation);
        self.report.violation = Some(Violation {
            violation,
            schedule,
            minimized,
        });
    }

    fn explore(&mut self, prefix: &mut Vec<Choice>, sleep: &BTreeSet<EventKey>) {
        if self.must_stop() {
            return;
        }
        if prefix.len() >= self.budget.max_depth {
            self.report.exhausted = false;
            return;
        }
        // Stateless re-execution of the prefix from scratch.
        let mut exec = Executor::new(self.scenario);
        let outcome = (|| -> Result<bool, InvariantViolation> {
            for choice in prefix.iter() {
                let quiescent = exec.advance()?;
                assert!(!quiescent, "prefix choice past quiescence");
                let applied = exec.apply(choice)?;
                assert!(applied, "prefix replay diverged: {choice} not enabled");
            }
            exec.advance()
        })();
        self.report.steps += exec.steps;
        let quiescent = match outcome {
            Err(v) => {
                self.found(v, prefix.clone());
                return;
            }
            Ok(q) => q,
        };
        if quiescent {
            match exec.check_quiescent() {
                Err(v) => self.found(v, prefix.clone()),
                Ok(()) => self.report.schedules += 1,
            }
            return;
        }

        // Prune revisited (state, sleep) pairs. The sleep set is part of
        // the identity: the same state reached with a *smaller* sleep set
        // still has unexplored obligations.
        let mut h = Fnv64::new();
        h.word(exec.sim.state_hash());
        h.word(sleep.len() as u64);
        for key in sleep {
            use std::hash::{Hash, Hasher};
            let mut kh = autosel_core::fasthash::FastHasher::default();
            key.hash(&mut kh);
            h.word(kh.finish());
        }
        if !self.seen.insert(h.finish()) {
            self.report.pruned += 1;
            return;
        }

        let enabled = exec.interesting();
        let mut explored: Vec<EventKey> = Vec::new();
        for ev in &enabled {
            if sleep.contains(&ev.key) {
                self.report.sleep_skipped += 1;
                continue;
            }
            for action in exec.actions(ev.key) {
                // Gate each new child on the budget *before* starting it:
                // stopping here means a subtree goes unexplored, which
                // must_stop records as non-exhaustive coverage.
                if self.must_stop() {
                    return;
                }
                // Events targeting other nodes commute with this one: the
                // sibling orderings the sleep set carries down remain
                // covered. Same-target events are dependent — they leave
                // the child sleep set.
                let child_sleep: BTreeSet<EventKey> = sleep
                    .iter()
                    .chain(explored.iter())
                    .filter(|k| k.target() != ev.key.target())
                    .copied()
                    .collect();
                prefix.push(Choice {
                    key: ev.key,
                    action,
                });
                self.explore(prefix, &child_sleep);
                prefix.pop();
                if self.report.violation.is_some() {
                    return;
                }
            }
            explored.push(ev.key);
        }
    }
}

/// Deterministically re-executes `trace` against a fresh build of
/// `scenario`: each choice is applied as soon as its keyed event exists
/// (forced events are auto-dispatched in default order until it does;
/// inapplicable choices are skipped), then the remainder drains in default
/// order. Returns the first invariant violation, or `None` for a clean run.
///
/// This is both the failing-test reproduction API and the oracle the
/// delta-debugging minimizer shrinks against.
pub fn replay(scenario: &Scenario, trace: &[Choice]) -> Option<InvariantViolation> {
    let mut exec = Executor::new(scenario);
    for choice in trace {
        // Surface the keyed event if forced progress can produce it.
        loop {
            let queued = exec.sim.queued_events().iter().any(|e| e.key == choice.key);
            if queued {
                break;
            }
            match exec.forced_step() {
                Err(v) => return Some(v),
                Ok(false) => break, // quiescent: choice is skipped
                Ok(true) => {}
            }
        }
        if let Err(v) = exec.apply(choice) {
            return Some(v);
        }
    }
    loop {
        match exec.forced_step() {
            Err(v) => return Some(v),
            Ok(false) => break,
            Ok(true) => {}
        }
    }
    exec.check_quiescent().err()
}

/// Same failure class: delta debugging shrinks against the violation
/// *kind*, not its exact payload (a subset schedule may, say, strand a
/// different count behind the same race).
fn same_kind(a: &InvariantViolation, b: &InvariantViolation) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b)
}

/// Classic ddmin over the choice list: repeatedly try dropping chunks
/// (halving granularity) while [`replay`] still reproduces the violation
/// kind, down to a 1-minimal trace.
fn minimize(scenario: &Scenario, failing: &[Choice], expect: &InvariantViolation) -> Vec<Choice> {
    let mut trace: Vec<Choice> = failing.to_vec();
    let mut n = 2usize;
    while trace.len() >= 2 {
        let chunk = trace.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0;
        while start < trace.len() {
            let end = (start + chunk).min(trace.len());
            let candidate: Vec<Choice> = trace
                .iter()
                .enumerate()
                .filter(|(i, _)| *i < start || *i >= end)
                .map(|(_, c)| *c)
                .collect();
            if replay(scenario, &candidate).is_some_and(|v| same_kind(&v, expect)) {
                trace = candidate;
                n = n.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if n >= trace.len() {
                break;
            }
            n = (n * 2).min(trace.len());
        }
    }
    trace
}
