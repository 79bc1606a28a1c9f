//! `netload` — open-loop load generation against a live [`NetCluster`],
//! recorded in `BENCH_net.json`.
//!
//! The paper's deployments (DAS, PlanetLab) demonstrated *correctness*
//! under real threads and sockets; this harness measures the runtime under
//! sustained load, the missing half of ROADMAP item 2. Arrivals are
//! **open-loop Poisson** at a configured offered rate — inter-arrival gaps
//! drawn as `−ln(1−U)/λ` — so a cluster that falls behind accumulates
//! backlog instead of silently throttling the generator (the coordinated-
//! omission trap of closed-loop harnesses). Queries are issued through the
//! non-blocking [`NetCluster::begin_query`] ticket API; one issuing thread
//! sustains thousands of in-flight queries.
//!
//! `--transport mem|tcp` selects the data plane: `mem` is the DAS-style
//! in-process emulation (with injected latency), `tcp` runs the persistent
//! per-destination links over real loopback sockets (injected latency off —
//! the sockets provide their own). TCP runs read the link counters
//! (connections established and failed, batches, frames, queue-full and
//! oversize drops) from [`Transport::tcp_stats`] at the end of the run and
//! append them to the JSON row.
//!
//! `--sweep` replaces the single fixed-rate measure phase with a rate
//! sweep: offered qps steps ×1.6 per stage (each `MEASURE_MS` long) until
//! achieved/offered drops under 0.9 or the stage budget runs out. The
//! **knee** — the highest offered rate the cluster still kept up with — is
//! recorded as `knee_qps` alongside the per-stage `[offered, issued,
//! achieved]` triples. Stage accounting is approximate at saturation:
//! queries still in flight after a stage's bounded drain are counted as
//! that stage's timeouts.
//!
//! All latency figures come from the obs [`Registry`]: each completion is
//! recorded into its cumulative `net.query.latency_ms` histogram, and the
//! reported p50/p99/p999 are `Histogram::quantile` readings of it — the
//! same registry the cluster's observer fanout feeds.
//!
//! A [`FlightRecorder`] rides along in the observer fanout; with
//! `--kill <fraction>` the harness kills that fraction of nodes at the
//! measure midpoint and `--flight-out <path>` dumps the recorder's last K
//! events around the fault as parseable trace JSONL. (`--kill` is
//! incompatible with `--sweep`.)
//!
//! Environment (mirroring `sweepbench`): `AUTOSEL_NETLOAD_NODES` (60),
//! `AUTOSEL_NETLOAD_RATE` offered qps (25) — the *base* rate under
//! `--sweep`, `AUTOSEL_NETLOAD_WARMUP_MS` (3000),
//! `AUTOSEL_NETLOAD_MEASURE_MS` per phase/stage (5000),
//! `AUTOSEL_NETLOAD_TIMEOUT_MS` per-query deadline (15000),
//! `AUTOSEL_NETLOAD_SIGMA` (8), `AUTOSEL_NETLOAD_SEED` (42),
//! `AUTOSEL_NETLOAD_TAG` (current), `AUTOSEL_NETLOAD_OUT`
//! (BENCH_net.json).
//!
//! `--check` exits non-zero unless the artifact is well-formed, something
//! completed, no issue errors occurred, and the reported quantiles are
//! monotone (p50 ≤ p99 ≤ p999 ≤ max). Fixed-rate runs additionally gate
//! completion ≥ 50%; sweep runs gate ≥ 2 stages and a positive knee; TCP
//! runs gate the persistent-connection invariant (frames ≫ connects,
//! batches ≤ frames).
//!
//! ```text
//! AUTOSEL_NETLOAD_NODES=40 AUTOSEL_NETLOAD_RATE=10 \
//!   cargo run --release -p bench --bin netload -- --check --transport tcp
//! ```

#![allow(clippy::disallowed_methods)] // wall-clock, thread-sleep: live load runs and is paced on real time

use std::sync::Arc;
use std::time::{Duration, Instant};

use attrspace::{Query, Space};
use autosel_net::{NetCluster, NetConfig, QueryTicket, Transport};
use autosel_obs::{Fanout, FlightRecorder, ObsHandle, Registry};
use bench::artifact::{self, NetPhase, NetRun};
use bench::experiments::uniform_points;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SCHEMA: &str = "autosel/bench-net/v1";
/// Flight-recorder ring size: enough context around a fault without
/// unbounded growth.
const FLIGHT_CAPACITY: usize = 2_048;
/// `--check` fails below this completed/issued ratio (fixed-rate runs).
const MIN_COMPLETION: f64 = 0.5;
/// Offered-rate multiplier between sweep stages.
const SWEEP_FACTOR: f64 = 1.6;
/// Sweep stage budget — bounds the run even if the knee never appears.
const SWEEP_MAX_STAGES: usize = 8;
/// A stage "keeps up" while achieved/offered stays at or above this.
const KNEE_RATIO: f64 = 0.9;
/// Bounded between-stage drain; stragglers count as the stage's timeouts.
const STAGE_DRAIN_MS: u64 = 1_000;

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// One in-flight query: its ticket and issue instant.
struct Inflight {
    ticket: QueryTicket,
    issued: Instant,
}

/// Tallies accumulated by a measure phase (or summed across sweep stages).
#[derive(Default)]
struct Tally {
    issued: u64,
    completed: u64,
    timeouts: u64,
    errors: u64,
    delivery_sum: f64,
}

impl Tally {
    fn absorb(&mut self, other: &Tally) {
        self.issued += other.issued;
        self.completed += other.completed;
        self.timeouts += other.timeouts;
        self.errors += other.errors;
        self.delivery_sum += other.delivery_sum;
    }
}

/// One sweep stage's outcome: `[offered, issued, achieved]` qps.
struct StageResult {
    offered_qps: f64,
    issued_qps: f64,
    achieved_qps: f64,
}

/// Drains completed and timed-out tickets from `outstanding`, recording
/// completion latencies into the registry.
fn sweep_tickets(
    outstanding: &mut Vec<Inflight>,
    registry: &Registry,
    timeout: Duration,
    tally: &mut Tally,
) {
    outstanding.retain(|f| {
        if let Some(outcome) = f.ticket.try_outcome() {
            registry.record(
                "net.query.latency_ms",
                f.issued.elapsed().as_millis() as u64,
            );
            tally.completed += 1;
            tally.delivery_sum += outcome.delivery();
            return false;
        }
        if f.issued.elapsed() >= timeout {
            tally.timeouts += 1;
            return false;
        }
        true
    });
}

/// Shared state of one load run: the registry, the query and the
/// generator's RNG.
struct Harness {
    registry: Arc<Registry>,
    query: Query,
    rng: StdRng,
    timeout: Duration,
    sigma: u32,
}

impl Harness {
    /// One measure phase: open-loop Poisson arrivals at `rate` qps for
    /// `measure_dur`, then a bounded drain of `drain_dur`. Tickets still
    /// outstanding after the drain count as timeouts. A non-zero
    /// `kill_fraction` fires once at the phase midpoint (fixed-rate mode).
    fn run_stage(
        &mut self,
        cluster: &mut NetCluster,
        rate: f64,
        measure_dur: Duration,
        drain_dur: Duration,
        kill_fraction: f64,
        killed: &mut Vec<u64>,
    ) -> Tally {
        let measure_start = Instant::now();
        let mut next_arrival_s = 0.0f64;
        let mut outstanding: Vec<Inflight> = Vec::new();
        let mut tally = Tally::default();
        while measure_start.elapsed() < measure_dur {
            if kill_fraction > 0.0
                && killed.is_empty()
                && measure_start.elapsed() >= measure_dur / 2
            {
                *killed = cluster.kill_fraction(kill_fraction);
                eprintln!("[netload] injected fault: killed {} nodes", killed.len());
            }
            let now_s = measure_start.elapsed().as_secs_f64();
            if now_s >= next_arrival_s {
                let origin = cluster.random_node();
                tally.issued += 1;
                match cluster.begin_query(origin, self.query.clone(), Some(self.sigma)) {
                    Some(ticket) => {
                        outstanding.push(Inflight {
                            ticket,
                            issued: Instant::now(),
                        });
                    }
                    None => tally.errors += 1,
                }
                let u: f64 = self.rng.gen_range(0.0..1.0);
                next_arrival_s += -(1.0 - u).ln() / rate;
                continue; // catch up on bursts before sleeping
            }
            sweep_tickets(&mut outstanding, &self.registry, self.timeout, &mut tally);
            let gap = Duration::from_secs_f64((next_arrival_s - now_s).max(0.0));
            std::thread::sleep(gap.min(Duration::from_millis(5)));
        }

        // Bounded drain; anything left is a timeout from this stage's
        // point of view (approximate at saturation, exact below the knee).
        let drain_deadline = Instant::now() + drain_dur;
        while !outstanding.is_empty() && Instant::now() < drain_deadline {
            sweep_tickets(&mut outstanding, &self.registry, self.timeout, &mut tally);
            std::thread::sleep(Duration::from_millis(5));
        }
        tally.timeouts += outstanding.len() as u64;
        tally
    }
}

#[allow(clippy::too_many_lines)] // one linear harness: setup → load → report
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check_mode = args.iter().any(|a| a == "--check");
    let sweep_mode = args.iter().any(|a| a == "--sweep");
    let kill_fraction: f64 = arg_value(&args, "--kill")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0);
    let flight_out = arg_value(&args, "--flight-out");
    let transport_name = arg_value(&args, "--transport").unwrap_or_else(|| "mem".into());
    if transport_name != "mem" && transport_name != "tcp" {
        eprintln!("--transport must be mem or tcp, got {transport_name}");
        std::process::exit(2);
    }
    if sweep_mode && kill_fraction > 0.0 {
        eprintln!("--sweep and --kill are incompatible (the knee needs a stable cluster)");
        std::process::exit(2);
    }

    let nodes = env_u64("AUTOSEL_NETLOAD_NODES", 60) as usize;
    let rate = env_f64("AUTOSEL_NETLOAD_RATE", 25.0).max(0.1);
    let warmup_ms = env_u64("AUTOSEL_NETLOAD_WARMUP_MS", 3_000);
    let measure_ms = env_u64("AUTOSEL_NETLOAD_MEASURE_MS", 5_000);
    let timeout_ms = env_u64("AUTOSEL_NETLOAD_TIMEOUT_MS", 15_000);
    let sigma = env_u64("AUTOSEL_NETLOAD_SIGMA", 8) as u32;
    let seed = env_u64("AUTOSEL_NETLOAD_SEED", 42);
    let tag = std::env::var("AUTOSEL_NETLOAD_TAG").unwrap_or_else(|_| "current".into());
    let out_path = std::env::var("AUTOSEL_NETLOAD_OUT").unwrap_or_else(|_| "BENCH_net.json".into());

    let registry = Arc::new(Registry::new());
    let flight = Arc::new(FlightRecorder::new(FLIGHT_CAPACITY));
    let mut fan = Fanout::new();
    fan.push(Arc::clone(&registry) as Arc<dyn autosel_obs::Observer>);
    fan.push(Arc::clone(&flight) as Arc<dyn autosel_obs::Observer>);

    let space = Space::uniform(3, 80, 3).expect("space");
    let mut cfg = NetConfig::default();
    let transport = if transport_name == "tcp" {
        // Real sockets bring their own latency; injecting more on top
        // would double-count it.
        cfg.injected_latency_ms = None;
        Transport::tcp(space.clone())
    } else {
        Transport::mem(cfg.injected_latency_ms)
    };
    let t0 = Instant::now();
    let mut cluster = NetCluster::spawn_observed(
        space.clone(),
        uniform_points(&space, nodes, seed),
        cfg.clone(),
        transport.clone(),
        seed,
        ObsHandle::of(fan),
    )
    .expect("spawn cluster");

    // ---- warmup: let gossip route the overlay, bounded by the budget.
    eprintln!("[netload] warming up ({nodes} nodes, {transport_name}, ≤{warmup_ms} ms)…");
    let warmup_deadline = t0 + Duration::from_millis(warmup_ms);
    while Instant::now() < warmup_deadline {
        if cluster.mean_links() >= 1.0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // ---- measure: fixed-rate phase, or stepped sweep stages.
    let query = Query::builder(&space).min("a0", 40).build().expect("query");
    let mut harness = Harness {
        registry: Arc::clone(&registry),
        query,
        rng: StdRng::seed_from_u64(seed ^ 0x04E7_10AD),
        timeout: Duration::from_millis(timeout_ms),
        sigma,
    };
    let measure_dur = Duration::from_millis(measure_ms);
    let mut tally = Tally::default();
    let mut killed: Vec<u64> = Vec::new();
    let mut stages: Vec<StageResult> = Vec::new();
    if sweep_mode {
        let mut offered = rate;
        for stage in 0..SWEEP_MAX_STAGES {
            eprintln!(
                "[netload] sweep stage {stage}: offered {offered:.1} qps for {measure_ms} ms…"
            );
            let st = harness.run_stage(
                &mut cluster,
                offered,
                measure_dur,
                Duration::from_millis(STAGE_DRAIN_MS),
                0.0,
                &mut killed,
            );
            let measure_s = measure_ms as f64 / 1e3;
            let result = StageResult {
                offered_qps: offered,
                issued_qps: st.issued as f64 / measure_s,
                achieved_qps: st.completed as f64 / measure_s,
            };
            eprintln!(
                "[netload]   achieved {:.1}/{offered:.1} qps ({} issued, {} completed)",
                result.achieved_qps, st.issued, st.completed
            );
            tally.absorb(&st);
            let diverged = result.achieved_qps < KNEE_RATIO * result.offered_qps;
            stages.push(result);
            if diverged {
                break; // past the knee: achieved stopped tracking offered
            }
            offered *= SWEEP_FACTOR;
        }
    } else {
        eprintln!("[netload] measuring: offered {rate:.1} qps for {measure_ms} ms…");
        tally = harness.run_stage(
            &mut cluster,
            rate,
            measure_dur,
            harness.timeout,
            kill_fraction,
            &mut killed,
        );
    }

    // The knee: the highest offered rate the cluster still kept up with.
    let knee_qps = stages
        .iter()
        .filter(|s| s.achieved_qps >= KNEE_RATIO * s.offered_qps)
        .map(|s| s.offered_qps)
        .fold(0.0f64, f64::max);

    // ---- snapshot: quantiles from the registry.
    let latency = registry
        .histogram("net.query.latency_ms")
        .unwrap_or_default();
    let (p50, p99, p999) = (
        latency.quantile(0.50),
        latency.quantile(0.99),
        latency.quantile(0.999),
    );
    let measured_ms = if sweep_mode {
        stages.len() as u64 * measure_ms
    } else {
        measure_ms
    };
    let achieved_qps = tally.completed as f64 * 1e3 / measured_ms.max(1) as f64;
    let mean_delivery = if tally.completed == 0 {
        0.0
    } else {
        tally.delivery_sum / tally.completed as f64
    };
    let inbox_dropped: u64 = cluster.inbox_stats().values().map(|s| s.dropped).sum();
    let (gossip_random, gossip_semantic) = cluster.gossip_health();
    let tcp_stats = transport.tcp_stats();

    println!("{}", registry.snapshot().render());
    if sweep_mode {
        println!(
            "sweep: {} stages from {rate:.1} qps ×{SWEEP_FACTOR}, knee at {knee_qps:.1} qps",
            stages.len()
        );
    }
    println!(
        "offered {rate:.1} qps, achieved {achieved_qps:.1} qps ({} issued, {} completed, {} timeouts, {} errors)",
        tally.issued, tally.completed, tally.timeouts, tally.errors
    );
    println!(
        "reply latency: p50 {p50:.1} ms, p99 {p99:.1} ms, p999 {p999:.1} ms, max {} ms",
        latency.max()
    );
    if let Some(s) = &tcp_stats {
        println!(
            "tcp links: {} connects ({} failed), {} frames in {} batches, {} queue drops, {} oversize",
            s.conn_established, s.conn_failed, s.tx_frames, s.tx_batches,
            s.tx_queue_full_drops, s.tx_oversize_drops
        );
    }

    // ---- flight dump around the injected fault (or on demand).
    if let Some(path) = &flight_out {
        let mut f = std::fs::File::create(path).expect("create flight dump");
        let lines = flight.dump_jsonl(&mut f).expect("write flight dump");
        println!(
            "flight recorder: dumped last {lines} of {} events to {path} ({} dropped by ring)",
            flight.total_seen(),
            flight.dropped()
        );
    }

    cluster.shutdown();

    // ---- merge with existing entries and write. Rows are keyed by
    // (tag, kind, transport): a tcp sweep never clobbers a mem load row.
    let phase = if sweep_mode {
        NetPhase::Sweep {
            base_qps: rate,
            factor: SWEEP_FACTOR,
            knee_qps,
            stages: stages
                .iter()
                .map(|s| [s.offered_qps, s.issued_qps, s.achieved_qps])
                .collect(),
            stage_measure_ms: measure_ms,
        }
    } else {
        NetPhase::Load {
            offered_qps: rate,
            achieved_qps,
            measure_ms,
            killed: killed.len() as u64,
            gossip_links: [gossip_random.links, gossip_semantic.links],
        }
    };
    let run = NetRun {
        transport: transport_name,
        nodes: nodes as u64,
        phase,
        warmup_ms,
        sigma: u64::from(sigma),
        seed,
        tally: [tally.issued, tally.completed, tally.timeouts, tally.errors],
        quantiles_ms: [p50, p99, p999],
        max_ms: latency.max(),
        mean_delivery,
        inbox_dropped,
        tcp: tcp_stats,
    };
    let total =
        artifact::merge(&out_path, SCHEMA, vec![run.row(&tag)]).expect("write BENCH_net.json");
    println!("wrote {out_path} ({total} entries)");

    // ---- --check: validate the artifact and this run's gates.
    if check_mode {
        if let Err(why) = artifact::verify(&out_path, SCHEMA, total) {
            eprintln!("--check FAILED: {why}");
            std::process::exit(1);
        }
        if tally.completed == 0 {
            eprintln!("--check FAILED: no query completed");
            std::process::exit(1);
        }
        if tally.errors > 0 {
            eprintln!("--check FAILED: {} issue errors", tally.errors);
            std::process::exit(1);
        }
        let completion = tally.completed as f64 / tally.issued.max(1) as f64;
        // A fault-injection run legitimately times out the victims' trees,
        // and a sweep deliberately drives stages past the knee; only gate
        // completion on clean fixed-rate runs.
        if !sweep_mode && killed.is_empty() && completion < MIN_COMPLETION {
            eprintln!("--check FAILED: completion ratio {completion:.2} < {MIN_COMPLETION}");
            std::process::exit(1);
        }
        if !(p50 <= p99 && p99 <= p999 && p999 <= latency.max() as f64) {
            eprintln!("--check FAILED: quantiles not monotone: {p50} / {p99} / {p999}");
            std::process::exit(1);
        }
        if sweep_mode {
            if stages.len() < 2 {
                eprintln!(
                    "--check FAILED: sweep produced {} stage(s), need ≥ 2",
                    stages.len()
                );
                std::process::exit(1);
            }
            if knee_qps <= 0.0 {
                eprintln!("--check FAILED: cluster never kept up with the base rate");
                std::process::exit(1);
            }
        }
        if let Some(s) = &tcp_stats {
            // The tentpole invariant: connections are persistent, so the
            // run sends far more frames than it opens connections, and
            // batching coalesces (never splits) frames.
            let plane_ok = s.tx_frames > 0
                && s.conn_established >= 1
                && s.conn_established * 2 <= s.tx_frames
                && s.tx_batches >= 1
                && s.tx_batches <= s.tx_frames;
            if !plane_ok {
                eprintln!("--check FAILED: tcp data plane invariant violated: {s:?}");
                std::process::exit(1);
            }
        }
        println!("--check OK: well-formed, {completion:.2} completion, quantiles monotone");
    }
}
