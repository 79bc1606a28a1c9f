//! `sim_churn_5k`: a gossiping 5 000-node `SimCluster` under continuous
//! churn (paper Fig. 11), probed with unbounded queries.

use std::collections::VecDeque;
use std::time::Instant;

use attrspace::{Query, Space};
use autosel_core::QueryId;
use autosel_obs::QueryRef;
use overlay_sim::workload::best_case_query;
use overlay_sim::{LatencyModel, Placement, SimCluster, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::probes::ProbeSet;
use crate::procfs;
use crate::report::{Digest, Report};
use crate::stats::{median, range_note};
use crate::trace::Tracing;
use crate::verify::{check_matches, Completeness};

const NODES: usize = 5_000;
/// Gossip warm-up before the measured window: 25 rounds of 10 virtual s.
const WARMUP_MS: u64 = 250_000;
/// One churn step per 10 virtual s, and a few probes from random origins
/// right after it. fig11 issues one; four cost ~1 % of a step and quarter
/// the variance of `delivery`, which a single lost subtree can halve.
const STEP_MS: u64 = 10_000;
const PROBES_PER_STEP: u64 = 4;
const CHURN_PER_STEP: f64 = 0.002;
/// A probe is read this long after it was issued.
const HARVEST_AFTER_MS: u64 = 120_000;
/// Probes whose fingerprints make the digest: the first 16 steps'. A 15 s
/// run reads about 30 steps' probes on the reference box; the count leaves
/// room for a box half as fast.
const COUNTED_PROBES: u64 = 16 * PROBES_PER_STEP;
const PLACEMENT: Placement = Placement::Uniform { lo: 0, hi: 80 };

fn space() -> Space {
    Space::uniform(5, 80, 3).expect("valid space")
}

/// The fig11 configuration of the repository's own experiments.
fn config() -> SimConfig {
    let mut cfg = SimConfig {
        latency: LatencyModel::Constant { ms: 5 },
        ..SimConfig::default()
    };
    cfg.gossip.period_ms = 10_000;
    cfg.protocol.query_timeout_ms = 30_000;
    cfg
}

fn warmed_up(seed: u64) -> (SimCluster, f64) {
    let t = Instant::now();
    let mut sim = SimCluster::new(space(), config(), seed);
    sim.populate(&PLACEMENT, NODES);
    sim.run_until(WARMUP_MS);
    (sim, t.elapsed().as_secs_f64())
}

#[derive(Default)]
struct Totals {
    steps: u64,
    churn_s: f64,
    run_until_s: f64,
    queue_depth_max: usize,
    probes: u64,
    messages: u64,
    reached: u64,
    truth: u64,
    overhead: u64,
}

struct Probe {
    id: QueryId,
    query: Query,
    issued_at: u64,
    wall: Instant,
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rep = Report::default();
    // One set-up per run: at ~8 s it is as long as the measured part, and
    // long enough to average the box's noise by itself.
    let (mut sim, setup_s) = warmed_up(seed);
    let space = space();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4_0121);

    let mut tracing = trace.then(Tracing::new);
    let mut t = Totals::default();
    let mut digest = Digest::new();
    let mut open: VecDeque<Probe> = VecDeque::new();
    // Every step simulates the same 10 virtual s, so the steps are the
    // slices: one virtual-s-per-host-s rate each. In a traced run the first
    // 30 % of the time is the untraced reference.
    let (mut rates, mut reference) = (Vec::new(), Vec::new());
    let mut observed_at = None;
    let mut rss_mib = None;

    let health0 = sim.gossip_health();
    let cpu0 = procfs::process_cpu();
    let start = Instant::now();
    let mut end = start;
    while end.duration_since(start).as_secs_f64() < seconds {
        if let (Some(tr), None) = (&tracing, observed_at) {
            if end.duration_since(start).as_secs_f64() >= seconds * 0.3 {
                sim.set_observer(tr.handle());
                tr.arm();
                observed_at = Some(end);
            }
        }
        let c0 = Instant::now();
        sim.churn_step(CHURN_PER_STEP, &PLACEMENT);
        let c1 = Instant::now();
        for _ in 0..PROBES_PER_STEP {
            let query = best_case_query(&space, crate::sim_static::SELECTIVITY, &mut rng);
            let origin = sim.random_node();
            let id = sim.issue_query(origin, query.clone(), None);
            open.push_back(Probe {
                id,
                query,
                issued_at: sim.now(),
                wall: c1,
            });
            rep.attempted += 1;
        }
        let c2 = Instant::now();
        sim.run_until(sim.now() + STEP_MS);
        let ran = Instant::now();
        t.steps += 1;
        t.churn_s += (c1 - c0).as_secs_f64();
        t.run_until_s += (ran - c2).as_secs_f64();
        t.queue_depth_max = t.queue_depth_max.max(sim.queued_len());

        while open
            .front()
            .is_some_and(|p| sim.now() >= p.issued_at + HARVEST_AFTER_MS)
        {
            let p = open.pop_front().expect("front checked");
            let stats = sim.query_stats(p.id).expect("stats of an issued probe");
            // Under churn a probe may reach only part of the matching set
            // (that is `delivery`); what it returns must still be right.
            let verdict = if !stats.completed {
                Err("not completed 120 virtual s after issue".to_string())
            } else {
                let matches = sim.query_result(p.id).unwrap_or(&[]);
                check_matches(
                    &p.query,
                    matches,
                    |id| sim.point_of(id),
                    stats.truth as usize,
                    Completeness::Subset,
                )
            };
            t.probes += 1;
            t.overhead += stats.overhead;
            t.messages += stats.messages;
            t.reached += stats.matched_reached.len() as u64;
            t.truth += u64::from(stats.truth);
            if digest.count < COUNTED_PROBES {
                digest.absorb(&stats.fingerprint());
            }
            if let Err(why) = verdict {
                rep.fail(format!("{}: {why}", p.id));
            }
            if let Some(tr) = tracing.as_mut() {
                let q = QueryRef::new(p.id.origin, p.id.seq);
                if tr.wants(q) {
                    // The probe's span runs from its issue to its harvest:
                    // 120 virtual seconds of simulated time.
                    tr.root(q, p.wall, ran);
                }
            }
            sim.forget_query(p.id);
            if digest.count == COUNTED_PROBES && rss_mib.is_none() {
                rss_mib = Some(procfs::vm_hwm_mib());
            }
        }
        end = Instant::now();
        let rate = STEP_MS as f64 / 1e3 / (end - c0).as_secs_f64();
        if tracing.is_some() && observed_at.is_none() {
            &mut reference
        } else {
            &mut rates
        }
        .push(rate);
    }
    // Probes still open were issued but never read: not attempted.
    rep.attempted -= open.len() as u64;
    let wall = end.duration_since(start).as_secs_f64();
    let cpu1 = procfs::process_cpu();
    let health1 = sim.gossip_health();

    if digest.count < COUNTED_PROBES {
        rep.notes.push(format!(
            "short run: the digest covers {} of {COUNTED_PROBES} probes",
            digest.count
        ));
    }
    rep.digest = Some(digest);
    let rss_mib = rss_mib.unwrap_or_else(procfs::vm_hwm_mib);
    let probes_per_virtual_s = PROBES_PER_STEP as f64 * 1e3 / STEP_MS as f64;
    let probes = t.probes.max(1) as f64;
    let steps = t.steps.max(1) as f64;

    match tracing {
        None => {
            let probe_rates: Vec<f64> = rates.iter().map(|r| r * probes_per_virtual_s).collect();
            rep.notes.push(range_note(&probe_rates));
            #[rustfmt::skip] // one reading a line
            let readings = [
                ("setup_s", setup_s, 1, "populate + 250 virtual s of gossip"),
                ("queries_per_s", median(&probe_rates), t.steps, "steps (4 probes per 10 virtual s)"),
                ("rss_mib", rss_mib, 1, "VmHWM after the counted probes"),
                ("msgs_per_query", t.messages as f64 / probes, t.probes, "probes"),
                ("delivery", t.reached as f64 / t.truth.max(1) as f64, t.probes, "probes"),
            ];
            rep.set_all(readings);
        }
        Some(tr) => {
            let (user_s, sys_s) = (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1);
            let cpu_s = user_s + sys_s;
            let issued = t.steps * PROBES_PER_STEP;
            let tree = tr.tree_stats();
            let events = tr.counts();
            let observed_wall = observed_at.map_or(wall, |o| end.duration_since(o).as_secs_f64());
            let (random, semantic) = health1;
            let nodes = random.nodes.max(1) as f64;
            let busy = t.churn_s + t.run_until_s;
            let overhead = 1.0 - median(&rates) / median(&reference).max(1e-9);
            let slices = (rates.len() + reference.len()) as u64;
            #[rustfmt::skip] // one reading a line
            let readings = [
                ("sim.churn_step_ms", t.churn_s * 1e3 / steps, t.steps, "steps"),
                ("sim.run_until_ms_per_virtual_s", t.run_until_s * 1e6 / (steps * STEP_MS as f64), t.steps, "steps"),
                ("sim.virtual_s_per_s", steps * STEP_MS as f64 / 1e3 / wall, t.steps, "steps"),
                ("sim.queue_depth_max", t.queue_depth_max as f64, t.steps, "steps sampled"),
                ("sim.bytes_per_node", rss_mib * 1_048_576.0 / NODES as f64, 1, "VmHWM after the counted probes / N"),
                ("core.overhead_per_query", t.overhead as f64 / probes, t.probes, "probes (QueryStats)"),
                ("core.hops_per_query", tree.hops, tree.queries, "sampled trees"),
                ("core.depth_per_query", tree.depth, tree.queries, "sampled trees"),
                ("core.duplicates_per_query", tree.duplicates, tree.queries, "sampled trees"),
                ("core.timeouts_fired", events.of("timeout_fired") as f64, 1, "traced part"),
                ("core.leaked", tree.leaked as f64, tree.queries, "sampled trees (hops lost to churn)"),
                ("gossip.rounds_per_s", events.of("gossip_round") as f64 / 2.0 / observed_wall, 1, "traced part"),
                ("gossip.links_random", random.links as f64 / nodes, random.nodes, "nodes"),
                ("gossip.links_semantic", semantic.links as f64 / nodes, semantic.nodes, "nodes"),
                ("proc.cpu_us_per_query", cpu_s * 1e6 / issued.max(1) as f64, issued, "probes issued (4 per step)"),
                ("proc.cores_busy", cpu_s / wall, 1, "run"),
                ("proc.sys_frac", sys_s / cpu_s.max(1e-9), 1, "run"),
                ("gen.busy_frac", 1.0 - busy / wall, 1, "run (generation + verification)"),
                ("obs.trace_overhead_frac", overhead, slices, "steps"),
            ];
            rep.set_all(readings);
            let events_per_probe = events.total() as f64 / events.of("query_issued").max(1) as f64;
            let traced = events.of("query_issued");
            rep.set(
                "obs.events_per_query",
                events_per_probe,
                traced,
                "traced probes",
            );
            let turnover =
                (random.turnover + semantic.turnover) - (health0.0.turnover + health0.1.turnover);
            rep.notes
                .push(format!("view turnover during the run: {turnover} entries"));
            let rounds = events.per_query("gossip_round") / 2.0;
            let probes = ProbeSet {
                oracle: false,
                gossip: true,
                wire: false,
            };
            crate::probes::run(seed, probes, &mut rep);
            let us = |probe: &str, count: f64| rep.metrics[probe].value * count / 1e3;
            let gossip_msgs = rounds * rep.metrics["gossip.msgs_per_round"].value;
            let protocol_msgs =
                events.per_query("query_received") + events.per_query("reply_merged");
            #[rustfmt::skip] // one row a line
            let rows = [
                ("gossip.tick_ns x rounds/probe", us("gossip.tick_ns", rounds)),
                ("gossip.handle_ns x gossip msgs/probe", us("gossip.handle_ns", gossip_msgs)),
                ("core.sync_from_view_ns x view changes/probe", us("core.sync_from_view_ns", events.per_query("view_change"))),
                ("core.handle_message_ns x protocol msgs/probe", us("core.handle_message_ns", protocol_msgs)),
                ("obs.registry_record_ns x events/probe (traced 70 %)", us("obs.registry_record_ns", events_per_probe * 0.7)),
            ];
            crate::trace::finish(crate::spec::SIM_CHURN, &mut rep, &tr, &rows);
        }
    }
    rep
}
