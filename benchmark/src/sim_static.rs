//! `sim_static_100k`: σ-bounded best-case queries on an oracle-wired
//! 100 000-node `SimCluster` (paper Table 1), gossip off.

use std::time::{Duration, Instant};

use attrspace::Space;
use autosel_obs::QueryRef;
use overlay_sim::workload::best_case_query;
use overlay_sim::{Placement, SimCluster, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::probes::ProbeSet;
use crate::procfs;
use crate::report::{Digest, Report};
use crate::stats::{median, range_note, slice_len, Slices};
use crate::trace::Tracing;
use crate::verify::{check_matches, delivered_share, Completeness};

pub const NODES: usize = 100_000;
pub const SELECTIVITY: f64 = 0.125;
pub const SIGMA: u32 = 50;
const WARMUP_QUERIES: usize = 500;
/// Queries (after warm-up) whose message counts and fingerprints are the
/// fixed-count part of the run: the same for a seed however fast the box is.
const COUNTED_QUERIES: u64 = 2_000;
const SETUPS: usize = 5;

pub fn space() -> Space {
    Space::uniform(5, 80, 3).expect("valid space")
}

const PLACEMENT: Placement = Placement::Uniform { lo: 0, hi: 80 };

fn build(seed: u64) -> (SimCluster, f64, f64) {
    let t = Instant::now();
    let mut sim = SimCluster::new(space(), SimConfig::fast_static(), seed);
    sim.populate(&PLACEMENT, NODES);
    let populate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    sim.wire_oracle();
    (sim, populate_s, t.elapsed().as_secs_f64())
}

/// Sums kept while the query loop runs.
#[derive(Default)]
struct Totals {
    queries: u64,
    issue_s: f64,
    run_s: f64,
    messages: u64,
    counted_messages: u64,
    counted_overhead: u64,
    counted_delivery: f64,
    counted: u64,
    /// `VmHWM` when the counted queries were done. Every node keeps its last
    /// 32 replies, so memory grows with the queries run; read at a fixed
    /// count it does not depend on how fast the box is.
    rss_mib: Option<f64>,
}

struct Loop<'a> {
    sim: SimCluster,
    space: Space,
    rng: StdRng,
    rep: &'a mut Report,
    digest: Digest,
    totals: Totals,
}

impl Loop<'_> {
    /// One query, issued, run to quiescence, verified and forgotten.
    /// Returns its id and the instants around the two public calls.
    fn one(&mut self, measured: bool) -> (QueryRef, [Instant; 3]) {
        let query = best_case_query(&self.space, SELECTIVITY, &mut self.rng);
        let origin = self.sim.random_node();
        let t0 = Instant::now();
        let qid = self.sim.issue_query(origin, query.clone(), Some(SIGMA));
        let t1 = Instant::now();
        self.sim.run_to_quiescence();
        let t2 = Instant::now();
        let qref = QueryRef::new(qid.origin, qid.seq);
        if !measured {
            self.sim.forget_query(qid);
            return (qref, [t0, t1, t2]);
        }

        let stats = self.sim.query_stats(qid).expect("stats of an issued query");
        let truth = stats.truth as usize;
        self.rep.attempted += 1;
        let matches = self.sim.query_result(qid).unwrap_or(&[]);
        let verdict = if !stats.completed {
            Err("did not complete".to_string())
        } else if stats.duplicates != 0 {
            Err(format!("{} duplicate deliveries", stats.duplicates))
        } else {
            check_matches(
                &query,
                matches,
                |id| self.sim.point_of(id),
                truth,
                Completeness::AtLeast(SIGMA),
            )
        };
        let t = &mut self.totals;
        t.queries += 1;
        t.issue_s += (t1 - t0).as_secs_f64();
        t.run_s += (t2 - t1).as_secs_f64();
        t.messages += stats.messages;
        if t.counted < COUNTED_QUERIES {
            t.counted += 1;
            t.counted_messages += stats.messages;
            t.counted_overhead += stats.overhead;
            t.counted_delivery += delivered_share(matches.len(), truth, Some(SIGMA));
            self.digest.absorb(&stats.fingerprint());
            if t.counted == COUNTED_QUERIES {
                t.rss_mib = Some(procfs::vm_hwm_mib());
            }
        }
        if let Err(why) = verdict {
            self.rep.fail(format!("{qid}: {why}"));
        }
        self.sim.forget_query(qid);
        (qref, [t0, t1, t2])
    }

    /// Runs queries for `dur`; returns the per-second rates of its slices.
    fn run_for(&mut self, dur: Duration, mut tracing: Option<&mut Tracing>) -> Vec<f64> {
        let mut slices = Slices::new(slice_len(dur.as_secs_f64()));
        let start = Instant::now();
        loop {
            let (q, [t0, t1, t2]) = self.one(true);
            slices.add(t2, 1.0);
            if let Some(tr) = tracing.as_deref_mut() {
                if tr.wants(q) {
                    tr.root(q, t0, t2);
                    tr.call(q, "sim.issue_query", t0, t1);
                    tr.call(q, "sim.run_to_quiescence", t1, t2);
                }
            }
            if t2.duration_since(start) >= dur {
                return slices.rates(t2);
            }
        }
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rep = Report::default();

    // Set-up, repeated so `setup_s` is a median. Every build uses the same
    // seed, so whichever is kept is the same cluster.
    let setups = if trace { 1 } else { SETUPS };
    let (mut populate, mut wire) = (Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..setups {
        drop(built.take());
        let (sim, p, w) = build(seed);
        populate.push(p);
        wire.push(w);
        built = Some(sim);
    }
    let sim = built.expect("at least one set-up");
    let setup: Vec<f64> = populate.iter().zip(&wire).map(|(p, w)| p + w).collect();

    let mut lp = Loop {
        sim,
        space: space(),
        rng: StdRng::seed_from_u64(seed ^ 0x51EE_BE7C),
        rep: &mut rep,
        digest: Digest::new(),
        totals: Totals::default(),
    };
    for _ in 0..WARMUP_QUERIES {
        lp.one(false);
    }

    let cpu0 = procfs::process_cpu();
    let wall0 = Instant::now();
    let mut tracing = trace.then(Tracing::new);
    let (rates, reference) = match tracing.as_mut() {
        None => (
            lp.run_for(Duration::from_secs_f64(seconds), None),
            Vec::new(),
        ),
        Some(tr) => {
            // Untraced reference first, then the same cluster observed.
            let reference = lp.run_for(Duration::from_secs_f64(seconds * 0.3), None);
            lp.sim.set_observer(tr.handle());
            tr.arm();
            (
                lp.run_for(Duration::from_secs_f64(seconds * 0.7), Some(tr)),
                reference,
            )
        }
    };
    let wall = wall0.elapsed().as_secs_f64();
    let cpu1 = procfs::process_cpu();

    let Loop {
        sim,
        digest,
        totals: t,
        ..
    } = lp;
    let leaked = sim.pending_total();
    if leaked != 0 {
        rep.fail(format!(
            "{leaked} pending query records leaked at quiescence"
        ));
    }
    if t.counted < COUNTED_QUERIES {
        rep.notes.push(format!(
            "short run: fixed-count metrics cover {} of {COUNTED_QUERIES} queries",
            t.counted
        ));
    }
    rep.digest = Some(digest);
    let queries = t.queries.max(1) as f64;
    let counted = t.counted.max(1) as f64;
    let rss_mib = t.rss_mib.unwrap_or_else(procfs::vm_hwm_mib);

    match tracing {
        None => {
            rep.notes.push(range_note(&rates));
            #[rustfmt::skip] // one reading a line
            let readings = [
                ("setup_s", median(&setup), setup.len() as u64, "populate+wire_oracle builds"),
                ("queries_per_s", median(&rates), rates.len() as u64, "slices"),
                ("rss_mib", rss_mib, 1, "VmHWM after the counted queries"),
                ("msgs_per_query", t.counted_messages as f64 / counted, t.counted, "queries"),
                ("delivery", t.counted_delivery / counted, t.counted, "queries"),
            ];
            rep.set_all(readings);
        }
        Some(tr) => {
            let (user_s, sys_s) = (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1);
            let cpu_s = user_s + sys_s;
            let tree = tr.tree_stats();
            let events = tr.counts();
            for p in tr.problems() {
                rep.fail(format!("trace: {p}"));
            }
            let overhead = 1.0 - median(&rates) / median(&reference).max(1e-9);
            let slices = (rates.len() + reference.len()) as u64;
            let traced = events.of("query_issued");
            let events_per_query = events.total() as f64 / traced.max(1) as f64;
            #[rustfmt::skip] // one reading a line
            let readings = [
                ("sim.populate_s", median(&populate), populate.len() as u64, "builds"),
                ("sim.wire_oracle_s", median(&wire), wire.len() as u64, "builds"),
                ("sim.issue_query_us", t.issue_s * 1e6 / queries, t.queries, "calls"),
                ("sim.run_to_quiescence_us", t.run_s * 1e6 / queries, t.queries, "calls"),
                ("sim.us_per_msg", t.run_s * 1e6 / t.messages.max(1) as f64, t.messages, "messages"),
                ("sim.bytes_per_node", rss_mib * 1_048_576.0 / NODES as f64, 1, "VmHWM after the counted queries / N"),
                ("core.overhead_per_query", t.counted_overhead as f64 / counted, t.counted, "queries (QueryStats)"),
                ("core.hops_per_query", tree.hops, tree.queries, "sampled trees"),
                ("core.depth_per_query", tree.depth, tree.queries, "sampled trees"),
                ("core.duplicates_per_query", tree.duplicates, tree.queries, "sampled trees"),
                ("core.timeouts_fired", sim.timeouts_fired_total() as f64, 1, "cluster total"),
                ("core.leaked", (leaked as u64 + tree.leaked) as f64, 1, "pending records + unreplied hops"),
                ("gossip.rounds_per_s", events.of("gossip_round") as f64 / 2.0 / wall, 1, "run"),
                ("proc.cpu_us_per_query", cpu_s * 1e6 / queries, t.queries, "queries"),
                ("proc.cores_busy", cpu_s / wall, 1, "run"),
                ("proc.sys_frac", sys_s / cpu_s.max(1e-9), 1, "run"),
                ("gen.busy_frac", 1.0 - (t.issue_s + t.run_s) / wall, 1, "run (generation + verification)"),
                ("obs.trace_overhead_frac", overhead, slices, "slices"),
                ("obs.events_per_query", events_per_query, traced, "traced queries"),
            ];
            rep.set_all(readings);
            let probes = ProbeSet {
                oracle: true,
                gossip: false,
                wire: false,
            };
            crate::probes::run(seed, probes, &mut rep);
            let us = |probe: &str, count: f64| rep.metrics[probe].value * count / 1e3;
            #[rustfmt::skip] // one row a line
            let rows = [
                ("sim truth scan: attrspace.query_matches_ns x N", us("attrspace.query_matches_ns", NODES as f64)),
                ("core.begin_query_ns x 1", us("core.begin_query_ns", 1.0)),
                ("core.handle_message_ns x msgs/query", us("core.handle_message_ns", t.messages as f64 / queries)),
                ("obs.registry_record_ns x events/query (traced 70 %)", us("obs.registry_record_ns", events_per_query * 0.7)),
            ];
            crate::trace::finish(crate::spec::SIM_STATIC, &mut rep, &tr, &rows);
        }
    }
    rep
}
