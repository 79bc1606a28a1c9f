//! A seeded, composable scenario DSL and long-horizon soak runner.
//!
//! The paper's robustness claim — selection quality is "insensitive to
//! churn" (§6, Fig. 13) — deserves more than short fault-matrix arcs. This
//! module turns adverse conditions into *components* that compose into one
//! [`ScenarioSpec`]:
//!
//! * **session churn** — per-host heavy-tailed on/off sessions from
//!   [`crate::traces::sessions`], replayed as same-identity crash/restart
//!   pairs;
//! * **flash crowds** — correlated mass joins of fresh identities over a
//!   short ramp (the D3-Tree "mass join" stressor);
//! * **diurnal load** — sinusoidal query-rate modulation around a base
//!   rate, integrated deterministically (no RNG) into issue instants;
//! * **correlated failure domains** — a whole rack/region partitioned away
//!   (healing) or crash-restarted together;
//! * **heterogeneous region latency** — a per-region-pair delay matrix
//!   compiled to [`LatencyModel::Regions`];
//! * **message-level faults** — windowed duplication / loss riding on the
//!   [`FaultPlan`] surface.
//!
//! [`ScenarioSpec::compile`] lowers the composition onto the existing
//! simulator surfaces: a time-sorted [`ArcEvent`] stream (membership +
//! query issues, applied by the runner), a [`FaultPlan`] (message faults
//! and partitions), and an optional latency override. Compilation
//! canonically *sorts* the component list first, so composition is
//! order-insensitive by construction: `a.b.c` and `c.a.b` compile to
//! byte-identical streams (the determinism proptests pin this).
//!
//! [`SoakRunner`] then drives a gossip-enabled [`SimCluster`] through the
//! compiled arc with the [`InvariantChecker`] armed — strict where the
//! scenario permits (see [`ScenarioSpec::strictness`]) — sampling health
//! gauges at fixed virtual-time intervals into [`SoakSample`]s. The
//! `soak` bench binary wraps this into a JSONL timeline with bounds
//! checking; `docs/TESTING.md` ("Scenarios & soaks") documents the grammar
//! and the per-family strictness table.

use attrspace::Space;
use autosel_core::fasthash::Fnv64;
use autosel_core::QueryId;
use epigossip::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::faults::{Action, FaultPlan, FaultRule, Scope, Window};
use crate::traces::sessions::{Schedule, SessionEvent};
use crate::traces::{Host, HostGenerator};
use crate::workload::best_case_query;
use crate::{
    InvariantChecker, InvariantViolation, LatencyModel, Placement, QueryStats, SimCluster,
    SimConfig,
};

/// One adverse condition layered onto a scenario. All parameters are
/// integers (probabilities in percent / permille) so components derive a
/// total order — the canonical sort behind order-insensitive composition.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Component {
    /// Per-host availability sessions
    /// ([`crate::traces::sessions::Schedule`]): leaves crash the node, joins
    /// restart it under the same identity.
    SessionChurn {
        /// Mean offline gap in seconds (log-normal around it).
        offline_mean_s: u64,
    },
    /// `joins` fresh identities arrive spread evenly over
    /// `[at_ms, at_ms + ramp_ms]` (relative to arc start).
    FlashCrowd {
        /// Ramp start, ms after the warmup ends.
        at_ms: u64,
        /// Number of joining nodes.
        joins: u32,
        /// Ramp length in ms (0 = all at once).
        ramp_ms: u64,
    },
    /// Sinusoidal query-rate modulation:
    /// `rate(t) = base · (1 + amplitude · sin(2πt/period))`.
    Diurnal {
        /// Base rate in queries per virtual hour.
        base_per_hour: u32,
        /// Peak-to-base swing in percent (100 = rate doubles at peak).
        amplitude_pct: u32,
        /// Modulation period in ms.
        period_ms: u64,
    },
    /// One failure domain (nodes with `id % regions == region` among the
    /// initial population) fails together for `[from_ms, until_ms)`.
    RegionOutage {
        /// Number of failure domains the population is striped across.
        regions: u32,
        /// Which domain fails.
        region: u32,
        /// Outage start, ms after the warmup ends.
        from_ms: u64,
        /// Outage end (exclusive), ms after the warmup ends.
        until_ms: u64,
        /// `true`: a healing partition (nodes stay up, cross-boundary
        /// messages drop). `false`: the region crashes and restarts.
        partition: bool,
    },
    /// Heterogeneous per-region delay matrix, compiled to
    /// [`LatencyModel::Regions`] (node → region by `id % regions`).
    RegionLatency {
        /// Number of regions.
        regions: u32,
        /// Flattened `regions × regions` rows of `(lo_ms, hi_ms)`.
        matrix: Vec<(u64, u64)>,
    },
    /// Protocol-message duplication over the whole arc.
    Duplication {
        /// Duplication probability in percent.
        p_pct: u32,
        /// Extra copies per duplicated message.
        copies: u32,
    },
    /// Uniform message loss over the whole arc.
    Loss {
        /// Loss probability in percent.
        p_pct: u32,
    },
    /// Fig. 13-style repeated decimation: every `interval_ms`, kill
    /// `permille`/1000 of the surviving population, `waves` times, no
    /// replacement.
    Decimation {
        /// Number of decimation waves.
        waves: u32,
        /// Wave spacing in ms.
        interval_ms: u64,
        /// Fraction killed per wave, in permille.
        permille: u32,
    },
}

/// How hard the [`InvariantChecker`] may press on a scenario family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Strictness {
    /// No faults, fixed membership: every §6 claim must hold
    /// ([`InvariantChecker::strict`]).
    Strict,
    /// Membership may grow (flash crowds) or messages may duplicate, but
    /// nothing is ever lost: issue-time truth bounds lapse, yet
    /// attempt-tagged replies keep result accounting exactly-once
    /// ([`InvariantChecker::relaxed`] + exact reporting).
    RelaxedExact,
    /// Crashes, partitions or losses can legitimately lose subtrees and
    /// re-deliver after restarts ([`InvariantChecker::relaxed`]).
    Relaxed,
}

/// The built-in scenario family names accepted by
/// [`ScenarioSpec::family`] (and the `soak` binary's `--family`).
pub const FAMILIES: &[&str] = &["churn", "flash", "diurnal", "outage", "composed"];

/// A composable, seedable description of a long-horizon adverse run.
///
/// Build with [`ScenarioSpec::new`] plus the fluent component methods,
/// then [`compile`](Self::compile) and hand to a [`SoakRunner`] — or use a
/// named [`family`](Self::family) preset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    n0: u32,
    horizon_ms: u64,
    warmup_ms: u64,
    probe_every_ms: u64,
    components: Vec<Component>,
}

impl ScenarioSpec {
    /// A bare scenario: `n0` initial nodes, an arc of `horizon_ms` virtual
    /// milliseconds after a [`WARMUP_MS`] gossip warmup, probe queries every
    /// [`PROBE_EVERY_MS`], no adverse components.
    pub fn new(n0: u32, horizon_ms: u64) -> Self {
        ScenarioSpec {
            n0,
            horizon_ms,
            warmup_ms: WARMUP_MS,
            probe_every_ms: PROBE_EVERY_MS,
            components: Vec::new(),
        }
    }

    /// A named preset over the same knobs — the per-family smoke surface.
    /// Returns `None` for unknown names; see [`FAMILIES`].
    pub fn family(name: &str, n0: u32, horizon_ms: u64) -> Option<Self> {
        let spec = ScenarioSpec::new(n0, horizon_ms);
        Some(match name {
            "churn" => spec.session_churn(1_800),
            "flash" => spec.flash_crowd(horizon_ms / 4, n0 / 2, 60_000),
            "diurnal" => spec.diurnal(240, 80, horizon_ms.max(2) / 2),
            "outage" => spec
                .region_latency(2, &[(5, 5), (40, 80), (40, 80), (5, 5)])
                .region_partition(4, 1, horizon_ms / 4, horizon_ms / 2),
            "composed" => spec
                .session_churn(1_800)
                .flash_crowd(horizon_ms / 3, n0 / 4, 60_000)
                .diurnal(240, 80, horizon_ms.max(2) / 2)
                .region_latency(2, &[(5, 5), (40, 80), (40, 80), (5, 5)])
                .region_partition(4, 1, horizon_ms / 4, horizon_ms / 2),
            _ => return None,
        })
    }

    /// Overrides the gossip warmup run before the arc starts.
    pub fn warmup_ms(mut self, ms: u64) -> Self {
        self.warmup_ms = ms;
        self
    }

    /// Overrides the baseline probe-query interval (0 disables probes;
    /// load then comes only from [`Component::Diurnal`]).
    pub fn probe_every_ms(mut self, ms: u64) -> Self {
        self.probe_every_ms = ms;
        self
    }

    /// Adds a raw [`Component`] (the fluent methods below are sugar).
    pub fn component(mut self, c: Component) -> Self {
        self.components.push(c);
        self
    }

    /// Adds [`Component::SessionChurn`].
    pub fn session_churn(self, offline_mean_s: u64) -> Self {
        self.component(Component::SessionChurn { offline_mean_s })
    }

    /// Adds [`Component::FlashCrowd`].
    pub fn flash_crowd(self, at_ms: u64, joins: u32, ramp_ms: u64) -> Self {
        self.component(Component::FlashCrowd {
            at_ms,
            joins,
            ramp_ms,
        })
    }

    /// Adds [`Component::Diurnal`].
    ///
    /// # Panics
    ///
    /// Panics if `period_ms` is zero.
    pub fn diurnal(self, base_per_hour: u32, amplitude_pct: u32, period_ms: u64) -> Self {
        assert!(period_ms > 0, "diurnal period must be positive");
        self.component(Component::Diurnal {
            base_per_hour,
            amplitude_pct,
            period_ms,
        })
    }

    /// Adds a healing-partition [`Component::RegionOutage`].
    pub fn region_partition(self, regions: u32, region: u32, from_ms: u64, until_ms: u64) -> Self {
        self.component(Component::RegionOutage {
            regions,
            region,
            from_ms,
            until_ms,
            partition: true,
        })
    }

    /// Adds a crash-and-restart [`Component::RegionOutage`].
    pub fn region_crash(self, regions: u32, region: u32, from_ms: u64, until_ms: u64) -> Self {
        self.component(Component::RegionOutage {
            regions,
            region,
            from_ms,
            until_ms,
            partition: false,
        })
    }

    /// Adds [`Component::RegionLatency`] from `regions × regions` row-major
    /// `(lo_ms, hi_ms)` cells.
    ///
    /// # Panics
    ///
    /// Panics unless `matrix.len() == regions²` with `regions ≥ 1`.
    pub fn region_latency(self, regions: u32, matrix: &[(u64, u64)]) -> Self {
        assert!(regions >= 1, "at least one region");
        assert_eq!(
            matrix.len(),
            (regions * regions) as usize,
            "matrix must be regions²"
        );
        self.component(Component::RegionLatency {
            regions,
            matrix: matrix.to_vec(),
        })
    }

    /// Adds [`Component::Duplication`].
    pub fn duplication(self, p_pct: u32, copies: u32) -> Self {
        self.component(Component::Duplication { p_pct, copies })
    }

    /// Adds [`Component::Loss`].
    pub fn loss(self, p_pct: u32) -> Self {
        self.component(Component::Loss { p_pct })
    }

    /// Adds [`Component::Decimation`].
    pub fn decimation(self, waves: u32, interval_ms: u64, permille: u32) -> Self {
        self.component(Component::Decimation {
            waves,
            interval_ms,
            permille,
        })
    }

    /// Initial population size.
    pub fn n0(&self) -> u32 {
        self.n0
    }

    /// Arc length in virtual ms (excluding warmup).
    pub fn horizon(&self) -> u64 {
        self.horizon_ms
    }

    /// The components, in insertion order (compilation sorts them).
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// The strongest checker this composition can honestly face:
    ///
    /// | family ingredients | strictness |
    /// |---|---|
    /// | diurnal load, region latency only | [`Strictness::Strict`] |
    /// | + flash crowds or duplication | [`Strictness::RelaxedExact`] |
    /// | + churn, outages, loss or decimation | [`Strictness::Relaxed`] |
    pub fn strictness(&self) -> Strictness {
        let mut s = Strictness::Strict;
        for c in &self.components {
            let c_level = match c {
                Component::Diurnal { .. } | Component::RegionLatency { .. } => Strictness::Strict,
                Component::FlashCrowd { .. } | Component::Duplication { .. } => {
                    Strictness::RelaxedExact
                }
                Component::SessionChurn { .. }
                | Component::RegionOutage { .. }
                | Component::Loss { .. }
                | Component::Decimation { .. } => Strictness::Relaxed,
            };
            s = s.max(c_level);
        }
        s
    }

    /// Compiles the composition down to the simulator's surfaces: a
    /// time-sorted [`ArcEvent`] stream, a [`FaultPlan`], and an optional
    /// latency override. Deterministic per `(spec, seed)`; components are
    /// canonically sorted first, so insertion order never matters.
    pub fn compile(&self, seed: u64) -> CompiledScenario {
        let mut comps = self.components.clone();
        comps.sort();
        let start = self.warmup_ms;
        let end = self.warmup_ms + self.horizon_ms;
        let mut events: Vec<(u64, ArcEvent)> = Vec::new();
        let mut plan = FaultPlan::new();
        let mut latency = None;

        if self.probe_every_ms > 0 {
            let mut t = start;
            while t < end {
                events.push((t, ArcEvent::Query));
                t += self.probe_every_ms;
            }
        }

        for c in &comps {
            match c {
                Component::SessionChurn { offline_mean_s } => {
                    let hosts: Vec<Host> =
                        HostGenerator::new(seed).take(self.n0 as usize).collect();
                    let sched =
                        Schedule::generate(&hosts, self.horizon_ms / 1000, *offline_mean_s, seed);
                    // Hosts that are offline at t = 0 start the arc crashed.
                    let mut online = vec![false; self.n0 as usize];
                    for &(t_s, ev) in sched.events() {
                        if t_s == 0 {
                            if let SessionEvent::Join { host } = ev {
                                online[host] = true;
                            }
                        }
                    }
                    for (host, up) in online.iter().enumerate() {
                        if !up {
                            events.push((
                                start,
                                ArcEvent::Crash {
                                    node: host as NodeId,
                                },
                            ));
                        }
                    }
                    for &(t_s, ev) in sched.events() {
                        if t_s == 0 {
                            continue; // initial state, handled above
                        }
                        let t = start + t_s * 1000;
                        if t >= end {
                            break;
                        }
                        events.push(match ev {
                            SessionEvent::Join { host } => (
                                t,
                                ArcEvent::Restart {
                                    node: host as NodeId,
                                },
                            ),
                            SessionEvent::Leave { host } => (
                                t,
                                ArcEvent::Crash {
                                    node: host as NodeId,
                                },
                            ),
                        });
                    }
                }
                Component::FlashCrowd {
                    at_ms,
                    joins,
                    ramp_ms,
                } => {
                    // Spread the joins over 1 s steps across the ramp,
                    // remainder front-loaded.
                    let steps = (ramp_ms / 1000).max(1);
                    let base = joins / steps as u32;
                    let extra = u64::from(*joins) % steps;
                    for s in 0..steps {
                        let count = base + u32::from(s < extra);
                        if count > 0 {
                            events.push((start + at_ms + s * 1000, ArcEvent::Join { count }));
                        }
                    }
                }
                Component::Diurnal {
                    base_per_hour,
                    amplitude_pct,
                    period_ms,
                } => {
                    // Deterministic rate integration at 1 s ticks: no RNG,
                    // so the issue instants are part of the compiled
                    // stream's byte identity.
                    let base_per_s = f64::from(*base_per_hour) / 3_600.0;
                    let amp = f64::from(*amplitude_pct) / 100.0;
                    let mut acc = 0.0f64;
                    let mut t = start;
                    while t < end {
                        let phase = ((t - start) % period_ms) as f64 / *period_ms as f64;
                        let rate = base_per_s
                            * (1.0 + amp * (std::f64::consts::TAU * phase).sin()).max(0.0);
                        acc += rate;
                        while acc >= 1.0 {
                            events.push((t, ArcEvent::Query));
                            acc -= 1.0;
                        }
                        t += 1000;
                    }
                }
                Component::RegionOutage {
                    regions,
                    region,
                    from_ms,
                    until_ms,
                    partition,
                } => {
                    let r = u64::from((*regions).max(1));
                    let members = (0..u64::from(self.n0))
                        .filter(|id| id % r == u64::from(*region))
                        .collect::<Vec<NodeId>>();
                    // Clamp both edges to the arc; a window starting at or
                    // past the horizon (or inverted) compiles to nothing
                    // rather than panicking on a degenerate `Window`.
                    let w_from = (start + from_ms).min(end);
                    let w_until = (start + until_ms).min(end);
                    if w_from >= w_until {
                        continue;
                    }
                    let window = Window::new(w_from, w_until);
                    if *partition {
                        plan = plan.partition(window, members);
                    } else {
                        for id in members {
                            events.push((window.from, ArcEvent::Crash { node: id }));
                            events.push((window.until, ArcEvent::Restart { node: id }));
                        }
                    }
                }
                Component::RegionLatency { regions, matrix } => {
                    latency = Some(LatencyModel::Regions {
                        regions: u64::from(*regions),
                        matrix: matrix.clone(),
                    });
                }
                Component::Duplication { p_pct, copies } => {
                    plan = plan.rule(FaultRule {
                        window: Window::new(start, end),
                        scope: Scope::Protocol,
                        action: Action::Duplicate {
                            p: f64::from((*p_pct).min(100)) / 100.0,
                            copies: *copies,
                        },
                    });
                }
                Component::Loss { p_pct } => {
                    plan = plan.rule(FaultRule {
                        window: Window::new(start, end),
                        scope: Scope::All,
                        action: Action::Drop {
                            p: f64::from((*p_pct).min(100)) / 100.0,
                        },
                    });
                }
                Component::Decimation {
                    waves,
                    interval_ms,
                    permille,
                } => {
                    for w in 0..u64::from(*waves) {
                        let t = start + w * interval_ms;
                        if t < end {
                            events.push((
                                t,
                                ArcEvent::KillPermille {
                                    permille: *permille,
                                },
                            ));
                        }
                    }
                }
            }
        }

        events.sort_unstable();
        CompiledScenario {
            n0: self.n0,
            warmup_ms: self.warmup_ms,
            horizon_ms: self.horizon_ms,
            strictness: self.strictness(),
            events,
            plan,
            latency,
        }
    }
}

/// One membership or workload event of a compiled arc, applied by the
/// [`SoakRunner`] at its absolute virtual-time stamp. Message-level faults
/// live in the [`FaultPlan`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ArcEvent {
    /// Crash `node` (identity remembered; a later [`ArcEvent::Restart`]
    /// brings it back).
    Crash {
        /// The affected node.
        node: NodeId,
    },
    /// Restart a previously crashed node (no-op if alive).
    Restart {
        /// The affected node.
        node: NodeId,
    },
    /// `count` fresh identities join at this instant.
    Join {
        /// Number of joining nodes.
        count: u32,
    },
    /// Kill `permille`/1000 of the surviving population, no replacement.
    KillPermille {
        /// Fraction killed, in permille.
        permille: u32,
    },
    /// Issue one probe query from a random alive origin.
    Query,
}

/// The lowered form of a [`ScenarioSpec`]: everything a runner (or a test)
/// needs, with a content [`digest`](Self::digest) for byte-identity checks.
#[derive(Debug, Clone)]
pub struct CompiledScenario {
    /// Initial population size.
    pub n0: u32,
    /// Gossip warmup before the arc (absolute arc times start here).
    pub warmup_ms: u64,
    /// Arc length in ms.
    pub horizon_ms: u64,
    /// The checker level the source spec earned.
    pub strictness: Strictness,
    /// Time-sorted `(absolute virtual ms, event)` stream.
    pub events: Vec<(u64, ArcEvent)>,
    /// Message-level faults and partitions.
    pub plan: FaultPlan,
    /// Latency override (`None`: [`SimConfig::dynamic`]'s).
    pub latency: Option<LatencyModel>,
}

impl CompiledScenario {
    /// FNV-1a digest over the full compiled content — two compilations are
    /// byte-identical iff their digests match (the determinism proptests'
    /// oracle, cheap enough for CI logs).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.word(u64::from(self.n0));
        h.word(self.warmup_ms);
        h.word(self.horizon_ms);
        h.word(self.strictness as u64);
        h.word(self.events.len() as u64);
        for (t, ev) in &self.events {
            h.word(*t);
            match *ev {
                ArcEvent::Crash { node } => {
                    h.word(1);
                    h.word(node);
                }
                ArcEvent::Restart { node } => {
                    h.word(2);
                    h.word(node);
                }
                ArcEvent::Join { count } => {
                    h.word(3);
                    h.word(u64::from(count));
                }
                ArcEvent::KillPermille { permille } => {
                    h.word(4);
                    h.word(u64::from(permille));
                }
                ArcEvent::Query => h.word(5),
            }
        }
        // The plan and latency have float fields; their derived Debug forms
        // are exact (no rounding), so hashing the rendering is faithful.
        for part in [format!("{:?}", self.plan), format!("{:?}", self.latency)] {
            for b in part.as_bytes() {
                h.word(u64::from(*b));
            }
        }
        h.finish()
    }

    /// The armed [`InvariantChecker`] matching the
    /// [`ScenarioSpec::strictness`] this compilation carries.
    pub fn checker(&self) -> InvariantChecker {
        match self.strictness {
            Strictness::Strict => InvariantChecker::strict(),
            Strictness::RelaxedExact => InvariantChecker::relaxed().expect_exact_reporting(),
            Strictness::Relaxed => InvariantChecker::relaxed(),
        }
    }
}

/// One fixed-interval timeline reading of a soak run. All integer (×1000
/// fixed-point where fractional) so timelines are byte-stable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoakSample {
    /// Virtual time of the reading, ms.
    pub t_ms: u64,
    /// Alive nodes.
    pub alive: u64,
    /// Crashed (restartable) nodes.
    pub crashed: u64,
    /// Simulator event-queue depth (backlog gauge).
    pub queued: u64,
    /// In-flight query records summed over alive nodes.
    pub pending: u64,
    /// Cumulative `T(q)` timeouts fired.
    pub timeouts: u64,
    /// Cumulative duplicate receipts over open queries.
    pub duplicates: u64,
    /// Random (CYCLON) layer: mean view size ×1000.
    pub rnd_view_x1000: u64,
    /// Random layer: mean descriptor age ×1000.
    pub rnd_age_x1000: u64,
    /// Semantic layer: mean view size ×1000.
    pub sem_view_x1000: u64,
    /// Semantic layer: mean descriptor age ×1000.
    pub sem_age_x1000: u64,
    /// Combined view turnover summed over alive nodes (a gauge, not a
    /// cumulative counter: crashes remove their node's contribution).
    pub turnover: u64,
    /// Queries issued so far.
    pub issued: u64,
    /// Queries harvested (measured 120 s after issue) so far.
    pub harvested: u64,
    /// Mean delivery ×1000 over queries harvested since the previous
    /// sample (0 when none were).
    pub delivery_x1000: u64,
}

impl SoakSample {
    /// Folds this sample into `h` (timeline byte-identity checks).
    pub fn digest_into(&self, h: &mut Fnv64) {
        for w in [
            self.t_ms,
            self.alive,
            self.crashed,
            self.queued,
            self.pending,
            self.timeouts,
            self.duplicates,
            self.rnd_view_x1000,
            self.rnd_age_x1000,
            self.sem_view_x1000,
            self.sem_age_x1000,
            self.turnover,
            self.issued,
            self.harvested,
            self.delivery_x1000,
        ] {
            h.word(w);
        }
    }
}

/// FNV-1a digest of a whole timeline (see [`SoakSample::digest_into`]).
pub fn timeline_digest(samples: &[SoakSample]) -> u64 {
    let mut h = Fnv64::new();
    h.word(samples.len() as u64);
    for s in samples {
        s.digest_into(&mut h);
    }
    h.finish()
}

/// The gossip warm-up before a dynamic run's arc starts (25 rounds at the
/// 10 s period of Figs. 11–13).
pub const WARMUP_MS: u64 = 250_000;

/// The probe-query cadence of Figs. 11–13.
pub const PROBE_EVERY_MS: u64 = 30_000;

/// Queries are harvested (stats read, delivery recorded, then forgotten)
/// this long after issue — the measurement lag of Figs. 11–13.
pub const HARVEST_AFTER_MS: u64 = 120_000;

/// Drives a gossip-enabled [`SimCluster`] through a compiled scenario with
/// the scenario's [`InvariantChecker`] armed, harvesting probe queries and
/// sampling health gauges at a fixed virtual-time interval.
///
/// Deterministic per `(spec, seed)`: same seed, same spec — byte-identical
/// timeline, probes and [`QueryStats`].
#[derive(Debug)]
pub struct SoakRunner {
    sim: SimCluster,
    compiled: CompiledScenario,
    checker: InvariantChecker,
    placement: Placement,
    qrng: StdRng,
    cursor: usize,
    open: Vec<(u64, QueryId)>,
    issued: u64,
    harvested: u64,
    probes: Vec<(u64, u64)>,
}

/// The query selectivity every probe targets (`f` of §6: an eighth of the
/// population matches in expectation).
const PROBE_SELECTIVITY: f64 = 0.125;

impl SoakRunner {
    /// Compiles `spec` and builds the cluster: Table 1 space,
    /// [`SimConfig::dynamic`] with the compiled latency model (if any) in
    /// place of its own, population placed uniformly, fault plan installed.
    /// Nothing has run yet.
    pub fn new(spec: &ScenarioSpec, seed: u64) -> Self {
        let compiled = spec.compile(seed);
        let space = Space::uniform(5, 80, 3).expect("Table 1 space");
        let mut cfg = SimConfig::dynamic();
        if let Some(latency) = &compiled.latency {
            cfg.latency = latency.clone();
        }
        let placement = Placement::Uniform { lo: 0, hi: 80 };
        let mut sim = SimCluster::new(space, cfg, seed);
        sim.populate(&placement, compiled.n0 as usize);
        sim.set_fault_plan(compiled.plan.clone());
        SoakRunner {
            sim,
            checker: compiled.checker(),
            compiled,
            placement,
            qrng: StdRng::seed_from_u64(seed ^ 0x50a4), // probe shapes only
            cursor: 0,
            open: Vec::new(),
            issued: 0,
            harvested: 0,
            probes: Vec::new(),
        }
    }

    /// The underlying cluster (read-only; the runner owns its schedule).
    pub fn sim(&self) -> &SimCluster {
        &self.sim
    }

    /// The compiled scenario this runner executes.
    pub fn compiled(&self) -> &CompiledScenario {
        &self.compiled
    }

    /// `(issue time ms, delivery ×1000)` for every harvested probe.
    pub fn probes(&self) -> &[(u64, u64)] {
        &self.probes
    }

    /// Runs the whole arc — warmup, events, drain — sampling every
    /// `sample_every_ms`, with a harvest hook: `on_harvest` sees every
    /// probe's final [`QueryStats`] (aggregation, CSV rows, `stats-json`).
    ///
    /// # Errors
    ///
    /// The first [`InvariantViolation`], with the cluster left at the
    /// violating instant.
    pub fn run_with(
        &mut self,
        sample_every_ms: u64,
        on_harvest: impl FnMut(&QueryStats),
    ) -> Result<Vec<SoakSample>, InvariantViolation> {
        self.run_hooks(sample_every_ms, on_harvest, |_| {})
    }

    /// Installs an observability sink on the cluster — e.g. an
    /// [`autosel_obs::Registry`] sampled by the `on_sample` hook of
    /// [`run_hooks`](Self::run_hooks).
    pub fn set_observer(&mut self, obs: autosel_obs::ObsHandle) {
        self.sim.set_observer(obs);
    }

    /// The full-control variant: `on_harvest` as in
    /// [`run_with`](Self::run_with); `on_sample` fires at every timeline
    /// sample *at that virtual instant* — the place to read an installed
    /// obs registry and emit a merged timeline record.
    ///
    /// The checker is armed across warmup, arc and drain; quiescence
    /// invariants (no leaked pending state) are asserted once the drain
    /// completes.
    ///
    /// # Errors
    ///
    /// The first [`InvariantViolation`] found.
    pub fn run_hooks(
        &mut self,
        sample_every_ms: u64,
        mut on_harvest: impl FnMut(&QueryStats),
        mut on_sample: impl FnMut(&SoakSample),
    ) -> Result<Vec<SoakSample>, InvariantViolation> {
        let sample_every = sample_every_ms.max(1_000);
        let end = self.compiled.warmup_ms + self.compiled.horizon_ms;
        let mut samples = Vec::new();
        let mut last_delivery_bucket: (u64, u64) = (0, 0); // (sum_x1000, n)
        let mut next_sample = self.compiled.warmup_ms;

        // 1 s ticks: every compiled event time is second-aligned, so each
        // event applies at exactly its stamp, between checked run slices.
        let mut t = 0u64;
        while t < end {
            t += 1_000;
            self.sim.run_until_checked(t, &mut self.checker)?;
            while self.cursor < self.compiled.events.len()
                && self.compiled.events[self.cursor].0 <= t
            {
                let (_, ev) = self.compiled.events[self.cursor];
                self.cursor += 1;
                self.apply(ev);
                self.checker.check_step(&self.sim)?;
            }
            let bucket = self.harvest(t, &mut on_harvest);
            last_delivery_bucket.0 += bucket.0;
            last_delivery_bucket.1 += bucket.1;
            if t >= next_sample {
                let s = self.sample(t, last_delivery_bucket);
                on_sample(&s);
                samples.push(s);
                last_delivery_bucket = (0, 0);
                next_sample = t + sample_every;
            }
        }

        // Drain: let every open probe reach its harvest lag, then give the
        // protocol a full T(q) backstop to clear pending state.
        let last_due = self.open.iter().map(|&(at, _)| at + HARVEST_AFTER_MS).max();
        let mut t = end;
        let drain_until = last_due.unwrap_or(end).max(end) + 60_000;
        while t < drain_until {
            t += 1_000;
            self.sim.run_until_checked(t, &mut self.checker)?;
            let bucket = self.harvest(t, &mut on_harvest);
            last_delivery_bucket.0 += bucket.0;
            last_delivery_bucket.1 += bucket.1;
        }
        let s = self.sample(t, last_delivery_bucket);
        on_sample(&s);
        samples.push(s);
        self.checker.check_quiescent(&self.sim)?;
        Ok(samples)
    }

    fn apply(&mut self, ev: ArcEvent) {
        match ev {
            ArcEvent::Crash { node } => self.sim.crash(node),
            ArcEvent::Restart { node } => {
                self.sim.restart(node);
            }
            ArcEvent::Join { count } => self.sim.populate(&self.placement, count as usize),
            ArcEvent::KillPermille { permille } => {
                self.sim
                    .kill_fraction(f64::from(permille.min(1000)) / 1000.0);
            }
            ArcEvent::Query => {
                if self.sim.is_empty() {
                    return; // everything is down; nothing to ask
                }
                let q = best_case_query(self.sim.space(), PROBE_SELECTIVITY, &mut self.qrng);
                let origin = self.sim.random_node();
                let qid = self.sim.issue_query(origin, q, None);
                self.open.push((self.sim.now(), qid));
                self.issued += 1;
            }
        }
    }

    /// Harvests probes `HARVEST_AFTER_MS` past issue; returns the
    /// `(delivery_x1000 sum, count)` bucket of this tick's harvests.
    fn harvest(&mut self, t: u64, on_harvest: &mut impl FnMut(&QueryStats)) -> (u64, u64) {
        let mut bucket = (0u64, 0u64);
        let mut i = 0;
        while i < self.open.len() {
            let (at, qid) = self.open[i];
            if t >= at + HARVEST_AFTER_MS {
                self.open.remove(i);
                let stats = self.sim.query_stats(qid).expect("tracked probe");
                let delivery = (stats.delivery() * 1000.0).round() as u64;
                on_harvest(stats);
                self.probes.push((at, delivery));
                self.sim.forget_query(qid);
                self.harvested += 1;
                bucket.0 += delivery;
                bucket.1 += 1;
            } else {
                i += 1;
            }
        }
        bucket
    }

    fn sample(&self, t: u64, bucket: (u64, u64)) -> SoakSample {
        let (random, semantic) = self.sim.gossip_health();
        SoakSample {
            t_ms: t,
            alive: self.sim.len() as u64,
            crashed: self.sim.crashed_ids().len() as u64,
            queued: self.sim.queued_len() as u64,
            pending: self.sim.pending_total() as u64,
            timeouts: self.sim.timeouts_fired_total(),
            duplicates: self.sim.total_duplicates(),
            rnd_view_x1000: random.mean_view_size_x1000(),
            rnd_age_x1000: random.mean_age_x1000(),
            sem_view_x1000: semantic.mean_view_size_x1000(),
            sem_age_x1000: semantic.mean_age_x1000(),
            turnover: random.turnover + semantic.turnover,
            issued: self.issued,
            harvested: self.harvested,
            delivery_x1000: bucket.0.checked_div(bucket.1).unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_sort_canonically() {
        let a = ScenarioSpec::new(50, 600_000)
            .session_churn(1_800)
            .diurnal(240, 80, 300_000)
            .flash_crowd(100_000, 20, 30_000);
        let b = ScenarioSpec::new(50, 600_000)
            .flash_crowd(100_000, 20, 30_000)
            .diurnal(240, 80, 300_000)
            .session_churn(1_800);
        assert_eq!(a.compile(7).digest(), b.compile(7).digest());
        assert_eq!(a.compile(7).events, b.compile(7).events);
    }

    #[test]
    fn strictness_table() {
        let base = ScenarioSpec::new(40, 300_000);
        assert_eq!(base.clone().strictness(), Strictness::Strict);
        assert_eq!(
            base.clone().diurnal(120, 50, 100_000).strictness(),
            Strictness::Strict
        );
        assert_eq!(
            base.clone().flash_crowd(0, 10, 0).strictness(),
            Strictness::RelaxedExact
        );
        assert_eq!(
            base.clone().duplication(5, 1).strictness(),
            Strictness::RelaxedExact
        );
        assert_eq!(
            base.clone().session_churn(600).strictness(),
            Strictness::Relaxed
        );
        assert_eq!(
            base.clone().duplication(5, 1).loss(2).strictness(),
            Strictness::Relaxed
        );
        assert_eq!(
            base.region_partition(4, 0, 0, 100_000).strictness(),
            Strictness::Relaxed
        );
    }

    #[test]
    fn families_resolve_and_unknown_is_none() {
        for name in FAMILIES {
            assert!(ScenarioSpec::family(name, 60, 600_000).is_some(), "{name}");
        }
        assert!(ScenarioSpec::family("nope", 60, 600_000).is_none());
    }

    #[test]
    fn compiled_events_are_time_sorted_and_windowed() {
        let spec = ScenarioSpec::new(60, 600_000)
            .session_churn(1_800)
            .flash_crowd(150_000, 12, 30_000)
            .decimation(3, 200_000, 100);
        let c = spec.compile(11);
        let mut last = 0;
        for &(t, _) in &c.events {
            assert!(t >= last, "events out of order");
            last = t;
            assert!(t >= c.warmup_ms && t <= c.warmup_ms + c.horizon_ms);
        }
        assert!(c
            .events
            .iter()
            .any(|(_, e)| matches!(e, ArcEvent::Join { .. })));
        assert!(c
            .events
            .iter()
            .any(|(_, e)| matches!(e, ArcEvent::KillPermille { .. })));
        assert!(c.events.iter().any(|(_, e)| matches!(e, ArcEvent::Query)));
    }

    #[test]
    fn diurnal_issue_count_tracks_base_rate() {
        // 1 virtual hour at 240/h, no probes: within integration rounding
        // of 240 issues.
        let spec = ScenarioSpec::new(10, 3_600_000)
            .probe_every_ms(0)
            .diurnal(240, 0, 1_800_000);
        let c = spec.compile(0);
        let queries = c
            .events
            .iter()
            .filter(|(_, e)| matches!(e, ArcEvent::Query))
            .count();
        assert!((239..=241).contains(&queries), "got {queries}");
    }

    #[test]
    fn short_strict_soak_passes_with_checker_armed() {
        let spec = ScenarioSpec::new(40, 240_000)
            .warmup_ms(60_000)
            .diurnal(120, 80, 120_000);
        let mut runner = SoakRunner::new(&spec, 42);
        let samples = runner.run_with(60_000, |_| {}).expect("strict soak clean");
        assert!(samples.len() >= 3);
        let last = samples.last().unwrap();
        assert_eq!(last.pending, 0, "drained");
        assert!(last.harvested > 0 && last.harvested == last.issued);
        assert!(runner.probes().iter().all(|&(_, d)| d <= 1000));
    }
}
