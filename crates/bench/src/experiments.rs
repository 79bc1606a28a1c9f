//! Every figure of the paper's evaluation (§6), defined once.
//!
//! [`FIGURES`] is the list the `reproduce` binary walks. Each entry quotes
//! the paper's claim and owns the figure's one parameter set — population,
//! query count, horizon, seed — in its `run` function, which returns the
//! measured series as [`Table`]s plus the value for the paper-vs-measured
//! summary. The parametrised runners further down are the machinery those
//! definitions share.

use std::time::Duration;

use attrspace::{Point, Query, Space};
use autosel_net::{NetCluster, NetConfig, Transport};
use dht_baseline::{Ring, SwordIndex};
use epigossip::GossipConfig;

use crate::sweep::{run_parallel, threads};
use crate::table::Table;
use crate::RunContext;
use overlay_sim::ablation::{flood_search, greedy_coordinate_search};
use overlay_sim::workload::{best_case_query, random_query, worst_case_query};
use overlay_sim::{LatencyModel, Placement, SimCluster, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use synthtrace::scenario::{ScenarioSpec, SoakRunner};
use synthtrace::{fit_space, HostGenerator};

/// Which `reproduce` invocations run a figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// Simulator-side; part of the bare `reproduce` run.
    Default,
    /// Simulator-side; runs only when named.
    Named,
    /// Live threads and timers on the wall clock; runs only when named.
    Live,
}

/// What one run of a figure measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The figure's series, one table per CSV.
    pub tables: Vec<Table>,
    /// The measured side of the figure's [`Figure::headline`].
    pub measured: String,
}

/// One figure of the evaluation.
pub struct Figure {
    /// What `reproduce <id>` selects.
    pub id: &'static str,
    /// What the figure plots.
    pub title: &'static str,
    /// What the paper reports for it.
    pub claim: &'static str,
    /// The one number to compare, with the paper's value for it.
    pub headline: &'static str,
    /// When `reproduce` runs it.
    pub selection: Selection,
    /// Runs the experiment at the context's scale.
    pub run: fn(&RunContext) -> Outcome,
}

/// The evaluation, in the paper's order.
pub static FIGURES: &[Figure] = &[
    Figure {
        id: "fig06",
        title: "routing overhead vs. network size (f=0.125, σ=50)",
        claim: "overhead stays below ~3 messages per query, grows roughly logarithmically to \
                10 000 nodes, then decreases: σ = 50 is satisfied earlier in dense populations",
        headline: "peak overhead — paper: <3",
        selection: Selection::Default,
        run: run_fig06,
    },
    Figure {
        id: "fig07",
        title: "routing overhead vs. selectivity, best- and worst-case query shapes",
        claim: "best-case stays negligible; worst-case peaks in the hundreds around f = 0.125 \
                with σ = ∞ and falls as f grows; σ = 50 keeps it low everywhere; the curve is \
                nearly identical at 100 000 and 1 000 nodes (topology-, not size-dependent)",
        headline: "worst case at f=.125, σ=∞ (PeerSim / DAS) — paper: ~257",
        selection: Selection::Default,
        run: run_fig07,
    },
    Figure {
        id: "fig08",
        title: "routing overhead vs. number of dimensions (f=0.125, σ=50)",
        claim: "overhead stays below ~5 messages for 2–20 dimensions in both the PeerSim and \
                DAS setups",
        headline: "overhead at d=20 — paper: <5",
        selection: Selection::Default,
        run: run_fig08,
    },
    Figure {
        id: "fig09",
        title: "query-load distribution across nodes",
        claim: "(a) no node is significantly more loaded than the rest under uniform or hotspot \
                placement; (b) on skewed 16-attribute BOINC hosts a SWORD-style DHT shows a heavy \
                tail (few registry nodes serve most queries, many none), ours stays balanced",
        headline: "max/mean load, ours vs. DHT — paper: heavy DHT tail",
        selection: Selection::Default,
        run: run_fig09,
    },
    Figure {
        id: "fig10",
        title: "links maintained per node",
        claim: "(a) mean links virtually constant in the number of dimensions; (b) every node \
                under ~20–30 links, the hotspot placement costing slightly more",
        headline: "mean links at d=20 — paper: ~constant",
        selection: Selection::Default,
        run: run_fig10,
    },
    Figure {
        id: "fig11",
        title: "delivery under continuous churn (0.1% and 0.2% replaced per 10 s)",
        claim: "0.1% barely dents delivery; 0.2% (Gnutella-grade) keeps it high, with no repair \
                beyond the standing gossip",
        headline: "mean delivery at 0.2% churn — paper: ~0.8-0.95",
        selection: Selection::Default,
        run: run_fig11,
    },
    Figure {
        id: "fig12",
        title: "delivery around a massive simultaneous failure (50% and 90% of all nodes)",
        claim: "after 50% the system recovers fully in ~15 minutes of gossip; after 90% the \
                overlay partitions and full delivery is never restored",
        headline: "delivery tail after 50% / 90% — paper: ~1.0 / <1 (partition)",
        selection: Selection::Default,
        run: run_fig12,
    },
    Figure {
        id: "fig13",
        title: "repeated 10% decimation without replacement, simulator rendition",
        claim: "each kill dips delivery; gossip restores near-optimal delivery before the next \
                wave, on a shrinking network",
        headline: "final-wave delivery — paper: near-1",
        selection: Selection::Default,
        run: run_fig13,
    },
    Figure {
        id: "fig13_live",
        title: "repeated 10% decimation on live threaded peers (in-memory transport)",
        claim: "as fig13, on the paper's PlanetLab population with real threads and timers",
        headline: "final-wave delivery — paper: near-1",
        selection: Selection::Live,
        run: |_| fig13_live("fig13_live", 302, false),
    },
    Figure {
        id: "fig13_live_tcp",
        title: "repeated 10% decimation on live peers over TCP loopback",
        claim: "as fig13, over real sockets with a reduced population",
        headline: "final-wave delivery — paper: near-1",
        selection: Selection::Live,
        run: |_| fig13_live("fig13_live_tcp", 48, true),
    },
    Figure {
        id: "ablation",
        title: "nested cells vs. greedy coordinate routing vs. flooding (f=0.125, σ=∞)",
        claim: "§4.1 rejects per-dimension greedy neighbours (they miss matches) and §2 \
                Zorilla-style flooding (it pays an order of magnitude more messages)",
        headline: "delivery @ messages/query, ours / greedy / flooding — paper: only ours complete and cheap",
        selection: Selection::Named,
        run: run_ablation,
    },
];

const DIMS: [usize; 10] = [2, 4, 6, 8, 10, 12, 14, 16, 18, 20];

fn uniform() -> Placement {
    Placement::Uniform { lo: 0, hi: 80 }
}

fn hotspot() -> Placement {
    Placement::Normal {
        center: 60.0,
        stddev: 10.0,
        max: 80,
    }
}

fn decile_label(i: usize) -> String {
    format!("{}-{}%", i * 10 + 1, (i + 1) * 10)
}

fn xy_table<X: ToString>(
    name: &'static str,
    title: impl Into<String>,
    columns: &'static [&'static str],
    rows: &[(X, f64)],
    decimals: usize,
) -> Table {
    Table::new(
        name,
        title,
        columns,
        rows.iter()
            .map(|(x, y)| vec![x.to_string(), format!("{y:.decimals$}")]),
    )
}

fn delivery_table(name: &'static str, title: impl Into<String>, rows: &[(u64, f64)]) -> Table {
    xy_table(name, title, &["t_s", "delivery"], rows, 4)
}

fn run_fig06(ctx: &RunContext) -> Outcome {
    let sizes = [100, 1_000, ctx.scaled(10_000), ctx.scaled(100_000)];
    let rows = fig06(&sizes, 40, 6);
    let peak = rows.iter().map(|&(_, o)| o).fold(0.0f64, f64::max);
    Outcome {
        tables: vec![xy_table(
            "fig06",
            "overhead vs. network size",
            &["n", "overhead"],
            &rows,
            3,
        )],
        measured: format!("{peak:.2}"),
    }
}

fn run_fig07(ctx: &RunContext) -> Outcome {
    const FS: [f64; 8] = [0.015625, 0.03125, 0.0625, 0.125, 0.25, 0.5, 0.75, 1.0];
    let configs = [
        ("fig07_peersim", "PeerSim", ctx.scaled(100_000), 10),
        ("fig07_das", "DAS", 1_000, 15),
    ];
    let series = run_parallel(
        configs
            .iter()
            .map(|&(_, _, n, q)| move || fig07(n, &FS, q, 7))
            .collect(),
        threads(),
    );
    let at_default_f = |rows: &[Fig07Row]| {
        rows.iter()
            .find(|r| r.f == DEFAULT_F)
            .map_or(0.0, |r| r.worst_unbounded)
    };
    Outcome {
        measured: format!(
            "{:.0} / {:.0}",
            at_default_f(&series[0]),
            at_default_f(&series[1])
        ),
        tables: configs
            .iter()
            .zip(&series)
            .map(|(&(name, label, n, _), rows)| {
                Table::new(
                    name,
                    format!("overhead vs. selectivity ({label}, N={n})"),
                    &["f", "best_inf", "worst_inf", "worst_s50"],
                    rows.iter().map(|r| {
                        vec![
                            r.f.to_string(),
                            format!("{:.2}", r.best_unbounded),
                            format!("{:.2}", r.worst_unbounded),
                            format!("{:.2}", r.worst_sigma50),
                        ]
                    }),
                )
            })
            .collect(),
    }
}

fn run_fig08(ctx: &RunContext) -> Outcome {
    let (n, n_das) = (ctx.scaled(100_000), 1_000);
    let peersim = fig08(n, &DIMS, 25, 8);
    let das = fig08(n_das, &DIMS, 40, 8);
    Outcome {
        measured: format!("{:.2}", peersim.last().map_or(0.0, |&(_, o)| o)),
        tables: vec![
            xy_table(
                "fig08",
                format!("overhead vs. dimensions (PeerSim, N={n})"),
                &["d", "overhead"],
                &peersim,
                3,
            ),
            xy_table(
                "fig08_das",
                format!("overhead vs. dimensions (DAS, N={n_das})"),
                &["d", "overhead"],
                &das,
                3,
            ),
        ],
    }
}

fn run_fig09(ctx: &RunContext) -> Outcome {
    let n = ctx.scaled(10_000);
    let (queries_a, queries_b) = (1_500, 50);
    let mut a = run_parallel(
        [(uniform(), 9u64), (hotspot(), 10)]
            .into_iter()
            .map(|(placement, seed)| move || fig09a_series(n, &placement, queries_a, seed))
            .collect(),
        threads(),
    );
    let (nor, nor_max) = a.pop().expect("normal series");
    let (uni, uni_max) = a.pop().expect("uniform series");
    let b = fig09b(n, queries_b, 11);
    let pct = |v: f64| format!("{v:.2}");
    Outcome {
        measured: format!("{:.1}x vs {:.1}x", b.ours_imbalance, b.dht_imbalance),
        tables: vec![
            Table::new(
                "fig09a",
                format!("% of nodes per message-load decile (N={n}, {queries_a} queries)"),
                &["decile", "uniform_pct", "normal_pct"],
                (0..10).map(|i| vec![decile_label(i), pct(uni[i]), pct(nor[i])]),
            ),
            Table::new(
                "fig09a_max",
                "messages dispatched by the most loaded node",
                &["placement", "max_msgs_per_node"],
                [
                    vec!["uniform".into(), uni_max.to_string()],
                    vec!["normal".into(), nor_max.to_string()],
                ],
            ),
            Table::new(
                "fig09b",
                format!(
                    "ours vs. SWORD/DHT, d=16 BOINC attributes, {n} hosts, {queries_b} queries"
                ),
                &["decile", "ours_pct", "dht_pct"],
                std::iter::once(vec!["idle".into(), pct(b.ours_idle), pct(b.dht_idle)])
                    .chain((0..10).map(|i| vec![decile_label(i), pct(b.ours[i]), pct(b.dht[i])])),
            ),
        ],
    }
}

fn run_fig10(ctx: &RunContext) -> Outcome {
    let n = ctx.scaled(100_000);
    let a = fig10a(n, &DIMS, 12);
    let (labels, uni, nor) = fig10b(n, 13);
    Outcome {
        measured: format!("{:.1}", a.last().map_or(0.0, |&(_, l)| l)),
        tables: vec![
            xy_table(
                "fig10a",
                format!("mean links per node vs. dimensions (N={n})"),
                &["d", "links_per_node"],
                &a,
                3,
            ),
            Table::new(
                "fig10b",
                format!("distribution of links per node (N={n})"),
                &["links", "uniform_pct", "normal_pct"],
                (0..labels.len()).map(|i| {
                    vec![
                        labels[i].clone(),
                        format!("{:.2}", uni[i]),
                        format!("{:.2}", nor[i]),
                    ]
                }),
            ),
        ],
    }
}

fn run_fig11(ctx: &RunContext) -> Outcome {
    let n = ctx.scaled(20_000);
    let configs = [("fig11a", 0.001f64, 21u64), ("fig11b", 0.002, 22)];
    let series = run_parallel(
        configs
            .iter()
            .map(|&(_, rate, seed)| move || fig11(n, rate, 1_200, seed))
            .collect(),
        threads(),
    );
    let mean_b = series[1].iter().map(|&(_, d)| d).sum::<f64>() / series[1].len().max(1) as f64;
    Outcome {
        measured: format!("{mean_b:.3}"),
        tables: configs
            .iter()
            .zip(&series)
            .map(|(&(name, rate, _), rows)| {
                let title = format!(
                    "delivery vs. time, churn {}% per 10 s (N={n})",
                    rate * 100.0
                );
                delivery_table(name, title, rows)
            })
            .collect(),
    }
}

fn run_fig12(ctx: &RunContext) -> Outcome {
    let n = ctx.scaled(20_000);
    let fail_at_s = 300;
    let configs = [("fig12a", 0.5f64, 33u64), ("fig12b", 0.9, 34)];
    let series = run_parallel(
        configs
            .iter()
            .map(|&(_, fraction, seed)| move || fig12(n, fraction, fail_at_s, 2_400, seed))
            .collect(),
        threads(),
    );
    // Mean of the last five probes.
    let tail = |rows: &[(u64, f64)]| {
        let k = rows.len().saturating_sub(5);
        rows[k..].iter().map(|&(_, d)| d).sum::<f64>() / rows.len().clamp(1, 5) as f64
    };
    Outcome {
        measured: format!("{:.3} / {:.3}", tail(&series[0]), tail(&series[1])),
        tables: configs
            .iter()
            .zip(&series)
            .map(|(&(name, fraction, _), rows)| {
                let failed = fraction * 100.0;
                let title =
                    format!("delivery vs. time, {failed:.0}% fail at t={fail_at_s} s (N={n})");
                delivery_table(name, title, rows)
            })
            .collect(),
    }
}

fn run_fig13(_: &RunContext) -> Outcome {
    let (n, waves, interval_s) = (302, 4, 600);
    let rows = fig13_sim(n, waves, interval_s, 44);
    let title = format!("delivery vs. time, {waves} waves {interval_s} s apart (N={n})");
    Outcome {
        measured: format!("{:.3}", rows.last().map_or(0.0, |&(_, d)| d)),
        tables: vec![delivery_table("fig13_sim", title, &rows)],
    }
}

/// Uniformly placed points in `[0, 80)^d` — the live experiments' population.
pub fn uniform_points(space: &Space, n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let vals: Vec<u64> = (0..space.dims()).map(|_| rng.gen_range(0..80)).collect();
            space.point(&vals).expect("valid point")
        })
        .collect()
}

/// **Figure 13, live** — `n` live peers gossiping every 50 ms; five
/// probes (σ = ∞), 10% of the peers killed before each but the first, 2 s of
/// gossip (~40 rounds) between a kill and its probe. The in-memory transport
/// injects 1–5 ms latency; `tcp` uses loopback sockets, which bring their own.
fn fig13_live(name: &'static str, n: usize, tcp: bool) -> Outcome {
    let space = Space::uniform(5, 80, 3).expect("space");
    let cfg = NetConfig {
        gossip: GossipConfig {
            period_ms: 50,
            ..GossipConfig::default()
        },
        injected_latency_ms: if tcp { None } else { Some((1, 5)) },
        ..NetConfig::default()
    };
    let transport = if tcp {
        Transport::tcp(space.clone())
    } else {
        Transport::mem(cfg.injected_latency_ms)
    };
    let mut cluster = NetCluster::spawn(
        space.clone(),
        uniform_points(&space, n, 3),
        cfg,
        transport,
        13,
    )
    .expect("spawn live cluster");
    // Convergence: ~60 gossip rounds.
    #[allow(clippy::disallowed_methods)] // thread-sleep: waits on real gossip rounds
    std::thread::sleep(Duration::from_secs(3));

    let query = Query::builder(&space).min("a0", 20).build().expect("query");
    let mut rows = Vec::new();
    let mut last = 0.0;
    for wave in 0..5 {
        if wave > 0 {
            cluster.kill_fraction(0.10);
            #[allow(clippy::disallowed_methods)] // thread-sleep: real-time repair between waves
            std::thread::sleep(Duration::from_secs(2));
        }
        let origin = cluster.random_node();
        let outcome = cluster
            .query(origin, query.clone(), None, Duration::from_secs(60))
            .expect("probe completes");
        last = outcome.delivery();
        rows.push(vec![
            wave.to_string(),
            cluster.len().to_string(),
            format!("{last:.3}"),
        ]);
    }
    cluster.shutdown();
    Outcome {
        measured: format!("{last:.3}"),
        tables: vec![Table::new(
            name,
            format!("delivery per decimation wave, {n} live peers"),
            &["wave", "alive", "delivery"],
            rows,
        )],
    }
}

/// **Ablation** (DESIGN.md §6) — nested-cell depth-first routing vs. the
/// per-dimension greedy neighbour design §4.1 rejects and Zorilla-style
/// flooding (§2): 20 random-shape queries, σ = ∞, on one static overlay.
fn run_ablation(ctx: &RunContext) -> Outcome {
    let n = ctx.scaled(10_000);
    let queries = 20;
    let space = Space::uniform(5, 80, 3).expect("space");
    let mut rng = StdRng::seed_from_u64(77);
    let mut sim = static_cluster(&space, &uniform(), n, 5);
    let points: Vec<Point> = sim
        .node_ids()
        .iter()
        .map(|&id| sim.point_of(id).expect("alive").clone())
        .collect();

    // Per approach: [messages, overhead, delivery], summed over the queries.
    let mut sums = [[0.0f64; 3]; 3];
    let mut add = |approach: usize, messages: u64, overhead: u64, delivery: f64| {
        for (sum, v) in sums[approach]
            .iter_mut()
            .zip([messages as f64, overhead as f64, delivery])
        {
            *sum += v;
        }
    };
    for i in 0..queries {
        let q = random_query(&space, DEFAULT_F, &mut rng);
        let origin = sim.random_node();
        let qid = sim.issue_query(origin, q.clone(), None);
        sim.run_to_quiescence();
        let st = sim.query_stats(qid).expect("stats");
        crate::stats_json::record(st);
        add(0, st.messages, st.overhead, st.delivery());
        sim.forget_query(qid);
        let g = greedy_coordinate_search(&space, &points, &q, (i * 97) % n);
        add(1, g.messages, g.overhead, g.delivery());
        let f = flood_search(&points, &q, 6, (i * 131) % n, 1000 + i as u64);
        add(2, f.messages, f.overhead, f.delivery());
    }
    let mean = |approach: usize, field: usize| sums[approach][field] / queries as f64;
    Outcome {
        measured: [0, 1, 2]
            .map(|a| format!("{:.3} @ {:.0}", mean(a, 2), mean(a, 0)))
            .join(" / "),
        tables: vec![Table::new(
            "ablation",
            format!("{n} nodes, {queries} queries"),
            &["approach", "msgs_per_query", "overhead", "delivery"],
            [
                "nested cells (ours)",
                "greedy coordinates",
                "flooding (Zorilla)",
            ]
            .iter()
            .enumerate()
            .map(|(a, label)| {
                vec![
                    (*label).to_string(),
                    format!("{:.0}", mean(a, 0)),
                    format!("{:.0}", mean(a, 1)),
                    format!("{:.3}", mean(a, 2)),
                ]
            }),
        )],
    }
}

/// Default query selectivity (Table 1).
pub const DEFAULT_F: f64 = 0.125;
/// Default σ (Table 1).
pub const DEFAULT_SIGMA: u32 = 50;

fn static_cluster(space: &Space, placement: &Placement, n: usize, seed: u64) -> SimCluster {
    let mut sim = SimCluster::new(space.clone(), SimConfig::fast_static(), seed);
    sim.populate(placement, n);
    sim.wire_oracle();
    sim
}

/// Mean routing overhead of `queries` random-shape queries (selectivity `f`,
/// threshold `sigma`) issued from random origins of `sim`.
pub fn mean_overhead(
    sim: &mut SimCluster,
    f: f64,
    sigma: Option<u32>,
    queries: usize,
    rng: &mut StdRng,
    shape: QueryShape,
) -> f64 {
    let space = sim.space().clone();
    let mut total = 0u64;
    for _ in 0..queries {
        let q = match shape {
            QueryShape::Best => best_case_query(&space, f, rng),
            QueryShape::Worst => worst_case_query(&space, f),
        };
        let origin = sim.random_node();
        let qid = sim.issue_query(origin, q, sigma);
        sim.run_to_quiescence();
        let st = sim.query_stats(qid).expect("stats");
        crate::stats_json::record(st);
        assert_eq!(st.duplicates, 0, "§6: never a duplicate receipt");
        assert!(
            sigma.is_some() || st.delivery() == 1.0,
            "§6: 100% delivery without churn"
        );
        total += st.overhead;
        sim.forget_query(qid);
    }
    total as f64 / queries as f64
}

/// Query shapes of §6.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryShape {
    /// Best case: a cell-aligned dyadic box — the paper's default query
    /// generator (footnote 2: queries are forced to respect cell boundaries,
    /// which is the only way Fig. 6's sub-3-message overheads are reachable).
    Best,
    /// Worst case: straddles every top-level boundary.
    Worst,
}

/// **Figure 6** — routing overhead vs. network size (σ = 50, f = 0.125).
///
/// Every size is an independent (config × seed) job — the cluster seed *and*
/// the query stream derive from `(seed, n)`, so the points carry no shared
/// RNG and the sweep fans across the [`crate::sweep`] runner (results merge
/// back in size order regardless of thread count).
pub fn fig06(sizes: &[usize], queries_per_size: usize, seed: u64) -> Vec<(usize, f64)> {
    let space = Space::uniform(5, 80, 3).expect("space");
    let placement = uniform();
    let jobs: Vec<_> = sizes
        .iter()
        .map(|&n| {
            let space = space.clone();
            let placement = placement.clone();
            move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (n as u64).rotate_left(17));
                let mut sim = static_cluster(&space, &placement, n, seed ^ n as u64);
                let oh = mean_overhead(
                    &mut sim,
                    DEFAULT_F,
                    Some(DEFAULT_SIGMA),
                    queries_per_size,
                    &mut rng,
                    QueryShape::Best,
                );
                (n, oh)
            }
        })
        .collect();
    run_parallel(jobs, threads())
}

/// One row of **Figure 7** — overhead vs. selectivity.
#[derive(Debug, Clone)]
pub struct Fig07Row {
    /// Query selectivity `f`.
    pub f: f64,
    /// Best-case queries, σ = ∞.
    pub best_unbounded: f64,
    /// Worst-case queries, σ = ∞.
    pub worst_unbounded: f64,
    /// Worst-case queries, σ = 50.
    pub worst_sigma50: f64,
}

/// **Figure 7** — routing overhead vs. selectivity for best-case and
/// worst-case query shapes (one call per population size: PeerSim / DAS).
///
/// Each selectivity point builds its own cluster from `(seed, index)` and is
/// an independent sweep job. That duplicates the (cheap, oracle-wired) setup
/// per point, but makes the expensive part — the σ = ∞ worst-case query
/// batches — embarrassingly parallel.
pub fn fig07(n: usize, fs: &[f64], queries_per_point: usize, seed: u64) -> Vec<Fig07Row> {
    let space = Space::uniform(5, 80, 3).expect("space");
    let placement = uniform();
    let jobs: Vec<_> = fs
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            let space = space.clone();
            let placement = placement.clone();
            move || {
                let mut sim = static_cluster(&space, &placement, n, seed ^ ((i as u64 + 1) << 8));
                let mut rng = StdRng::seed_from_u64(seed ^ f.to_bits());
                Fig07Row {
                    f,
                    best_unbounded: mean_overhead(
                        &mut sim,
                        f,
                        None,
                        queries_per_point,
                        &mut rng,
                        QueryShape::Best,
                    ),
                    worst_unbounded: mean_overhead(
                        &mut sim,
                        f,
                        None,
                        queries_per_point,
                        &mut rng,
                        QueryShape::Worst,
                    ),
                    worst_sigma50: mean_overhead(
                        &mut sim,
                        f,
                        Some(DEFAULT_SIGMA),
                        queries_per_point,
                        &mut rng,
                        QueryShape::Worst,
                    ),
                }
            }
        })
        .collect();
    run_parallel(jobs, threads())
}

/// **Figure 8** — routing overhead vs. number of dimensions (σ = 50).
///
/// Per-dimension points are independent sweep jobs (query stream derived
/// from `(seed, d)`), merged back in dimension order.
pub fn fig08(n: usize, dims: &[usize], queries_per_point: usize, seed: u64) -> Vec<(usize, f64)> {
    let placement = uniform();
    let jobs: Vec<_> = dims
        .iter()
        .map(|&d| {
            let placement = placement.clone();
            move || {
                let space = Space::uniform(d, 80, 3).expect("space");
                let mut rng = StdRng::seed_from_u64(seed ^ (d as u64).rotate_left(33));
                let mut sim = static_cluster(&space, &placement, n, seed ^ d as u64);
                let oh = mean_overhead(
                    &mut sim,
                    DEFAULT_F,
                    Some(DEFAULT_SIGMA),
                    queries_per_point,
                    &mut rng,
                    QueryShape::Best,
                );
                (d, oh)
            }
        })
        .collect();
    run_parallel(jobs, threads())
}

/// Load distribution (messages dispatched per node) after `queries` σ=50
/// queries under a placement — one series of **Figure 9(a)**.
///
/// Returns `(deciles of percent-of-max, max load)`: deciles\[i\] = % of nodes
/// whose message count falls in ((i·10)%, (i+1)·10%] of the maximum.
pub fn fig09a_series(
    n: usize,
    placement: &Placement,
    queries: usize,
    seed: u64,
) -> (Vec<f64>, u64) {
    let space = Space::uniform(5, 80, 3).expect("space");
    let mut sim = static_cluster(&space, placement, n, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    sim.reset_load();
    for _ in 0..queries {
        let q = best_case_query(&space, DEFAULT_F, &mut rng);
        let origin = sim.random_node();
        let qid = sim.issue_query(origin, q, Some(DEFAULT_SIGMA));
        sim.run_to_quiescence();
        crate::stats_json::record(sim.query_stats(qid).expect("stats"));
        sim.forget_query(qid);
    }
    let hist = sim.load_histogram();
    (hist.percent_of_max_deciles(), hist.max())
}

/// Result of the **Figure 9(b)** comparison on skewed BOINC attributes.
#[derive(Debug, Clone)]
pub struct Fig09bResult {
    /// % of nodes per percent-of-max decile, our protocol.
    pub ours: Vec<f64>,
    /// Same for the SWORD/DHT baseline.
    pub dht: Vec<f64>,
    /// % of DHT nodes that served zero messages.
    pub dht_idle: f64,
    /// % of our nodes that dispatched zero messages.
    pub ours_idle: f64,
    /// Max/mean load ratio, ours.
    pub ours_imbalance: f64,
    /// Max/mean load ratio, DHT.
    pub dht_imbalance: f64,
}

/// **Figure 9(b)** — load: our protocol vs. a SWORD-style DHT, 16-d BOINC
/// attributes, 50 queries with f = 0.125 and σ = 50 (§6.4).
pub fn fig09b(hosts: usize, queries: usize, seed: u64) -> Fig09bResult {
    let rows: Vec<Vec<u64>> = HostGenerator::new(seed)
        .take(hosts)
        .map(|h| h.to_values())
        .collect();
    let space = fit_space(&rows, 3).expect("fit space");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF19B);

    // Generate the 50 query predicates once, shared by both systems.
    let queries_set: Vec<Query> = (0..queries)
        .map(|_| best_case_query(&space, DEFAULT_F, &mut rng))
        .collect();

    // Ours.
    let mut sim = static_cluster(&space, &Placement::Trace(rows.clone()), rows.len(), seed);
    sim.reset_load();
    for q in &queries_set {
        let origin = sim.random_node();
        let qid = sim.issue_query(origin, q.clone(), Some(DEFAULT_SIGMA));
        sim.run_to_quiescence();
        crate::stats_json::record(sim.query_stats(qid).expect("stats"));
        sim.forget_query(qid);
    }
    let ours_hist = sim.load_histogram();

    // DHT baseline: same resources, same predicates. Each query walks the
    // most selective attribute's key range, filtering on the rest.
    let ring = Ring::new(
        (0..rows.len() as u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect(),
    );
    let attr_max: Vec<u64> = (0..16)
        .map(|k| rows.iter().map(|r| r[k]).max().unwrap_or(1).max(1))
        .collect();
    let mut index = SwordIndex::build(ring, &rows, &attr_max);
    let starts: Vec<u64> = index.ring().nodes().to_vec();
    for (i, q) in queries_set.iter().enumerate() {
        let filters: Vec<(u64, u64)> = q.ranges().iter().map(|r| (r.lo, r.hi)).collect();
        // Most selective attribute: smallest bucket extent.
        let dim = q
            .region()
            .intervals()
            .iter()
            .enumerate()
            .min_by_key(|(_, &(lo, hi))| hi - lo)
            .map(|(k, _)| k)
            .expect("16 dims");
        let range = filters[dim];
        let start = starts[(i * 31) % starts.len()];
        let _ = index.range_query(start, dim, range, &filters, Some(DEFAULT_SIGMA));
    }
    let dht_hist = overlay_sim::LoadHistogram::new(index.load_per_node());

    let idle = |h: &overlay_sim::LoadHistogram| {
        100.0 * h.values().iter().filter(|&&v| v == 0).count() as f64 / h.len().max(1) as f64
    };
    Fig09bResult {
        ours: ours_hist.percent_of_max_deciles(),
        dht: dht_hist.percent_of_max_deciles(),
        ours_idle: idle(&ours_hist),
        dht_idle: idle(&dht_hist),
        ours_imbalance: ours_hist.max() as f64 / ours_hist.mean().max(1e-9),
        dht_imbalance: dht_hist.max() as f64 / dht_hist.mean().max(1e-9),
    }
}

/// **Figure 10(a)** — mean links per node vs. dimensions (oracle-converged,
/// i.e. the gossip fixed point).
pub fn fig10a(n: usize, dims: &[usize], seed: u64) -> Vec<(usize, f64)> {
    let placement = uniform();
    let jobs: Vec<_> = dims
        .iter()
        .map(|&d| {
            let placement = placement.clone();
            move || {
                let space = Space::uniform(d, 80, 3).expect("space");
                let sim = static_cluster(&space, &placement, n, seed ^ (d as u64) << 8);
                (d, sim.link_histogram_cache_bounded(20).mean())
            }
        })
        .collect();
    run_parallel(jobs, threads())
}

/// **Figure 10(b)** — distribution of per-node link counts, uniform vs.
/// normal placement. Returns `(bin labels, % uniform, % normal)` with
/// 3-link-wide bins as in the paper.
pub fn fig10b(n: usize, seed: u64) -> (Vec<String>, Vec<f64>, Vec<f64>) {
    let space = Space::uniform(5, 80, 3).expect("space");
    let bins = 10usize;
    let width = 3u64;
    let configs = [(uniform(), seed), (hotspot(), seed ^ 1)];
    let jobs: Vec<_> = configs
        .into_iter()
        .map(|(placement, s)| {
            let space = space.clone();
            move || {
                static_cluster(&space, &placement, n, s)
                    .link_histogram_cache_bounded(20)
                    .percent_per_bin(bins, width)
            }
        })
        .collect();
    let mut series = run_parallel(jobs, threads());
    let nor = series.pop().expect("normal series");
    let uni = series.pop().expect("uniform series");
    let labels = (0..bins)
        .map(|i| {
            if i + 1 == bins {
                format!("{}+", i as u64 * width)
            } else {
                format!("{}-{}", i as u64 * width, (i as u64 + 1) * width - 1)
            }
        })
        .collect();
    (labels, uni, nor)
}

/// Dynamic-experiment configuration shared by Figs. 11–13.
fn dynamic_config() -> SimConfig {
    let mut cfg = SimConfig {
        latency: LatencyModel::Constant { ms: 5 },
        ..SimConfig::default()
    };
    cfg.gossip.period_ms = 10_000;
    // §6.6: "if a query cannot be propagated due to a broken link, the
    // message is dropped". On a real transport a dead endpoint fails fast,
    // so the sender *skips* the broken branch and continues (the simulator
    // bounces a send to a dead node back as a failed link, DESIGN.md §6);
    // the lost subtree is never retried.
    // T(q) stays as a long backstop for the rare peer that dies *after*
    // accepting the query.
    cfg.protocol.query_timeout_ms = 30_000;
    cfg
}

/// Delivery over `horizon_s` on a gossip-built overlay of `n` nodes: 25
/// warm-up rounds, then every 10 s `disturb(sim, t_ms)` runs, every 30 s a
/// probe query (σ = ∞) is issued, and each probe is measured 120 s after
/// issue. Returns `(issue time s, delivery)` rows.
fn delivery_probes(
    n: usize,
    horizon_s: u64,
    seed: u64,
    mut disturb: impl FnMut(&mut SimCluster, u64),
) -> Vec<(u64, f64)> {
    let space = Space::uniform(5, 80, 3).expect("space");
    let mut sim = SimCluster::new(space.clone(), dynamic_config(), seed);
    sim.populate(&uniform(), n);
    sim.run_until(250_000);
    let t0 = sim.now();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut measure = |sim: &mut SimCluster, issued: u64, qid| {
        let st = sim.query_stats(qid).expect("stats");
        crate::stats_json::record(st);
        out.push((issued / 1000, st.delivery()));
        sim.forget_query(qid);
    };
    let mut open: Vec<(u64, autosel_core::QueryId)> = Vec::new();
    let mut t = 0u64;
    while t < horizon_s * 1000 {
        disturb(&mut sim, t);
        if t.is_multiple_of(30_000) {
            let q = best_case_query(&space, DEFAULT_F, &mut rng);
            let origin = sim.random_node();
            open.push((t, sim.issue_query(origin, q, None)));
        }
        open.retain(|&(issued, qid)| {
            let due = t >= issued + 120_000;
            if due {
                measure(&mut sim, issued, qid);
            }
            !due
        });
        t += 10_000;
        sim.run_until(t0 + t);
    }
    for (issued, qid) in open {
        measure(&mut sim, issued, qid);
    }
    out.sort_unstable_by_key(|&(t, _)| t);
    out
}

/// **Figure 11** — delivery over time under churn of `rate` (fraction
/// replaced per 10 s, fresh identities).
pub fn fig11(n: usize, rate: f64, horizon_s: u64, seed: u64) -> Vec<(u64, f64)> {
    let placement = uniform();
    delivery_probes(n, horizon_s, seed, |sim, _| {
        sim.churn_step(rate, &placement)
    })
}

/// **Figure 12** — delivery over time around a massive simultaneous failure
/// of `fraction` at `fail_at_s`, a multiple of 10 s (no special recovery
/// measures, exactly §6.7).
pub fn fig12(
    n: usize,
    fraction: f64,
    fail_at_s: u64,
    horizon_s: u64,
    seed: u64,
) -> Vec<(u64, f64)> {
    delivery_probes(n, horizon_s, seed, |sim, t| {
        if t == fail_at_s * 1000 {
            sim.kill_fraction(fraction);
        }
    })
}

/// **Figure 13** — PlanetLab-style repeated decimation *in the simulator*:
/// 10% of the network is killed every `wave_interval_s` without replacement.
/// Returns `(time s, delivery)` probes. (The live threaded rendition is
/// `fig13_live`, which drives `autosel-net`.)
pub fn fig13_sim(n: usize, waves: usize, wave_interval_s: u64, seed: u64) -> Vec<(u64, f64)> {
    // Expressed on the scenario DSL: repeated 10% decimation waves with
    // one probe per 120 s, measured 120 s after issue, invariant checker
    // armed for the whole arc (relaxed: kills legitimately orphan state).
    let horizon_ms = waves as u64 * wave_interval_s * 1000;
    let spec = ScenarioSpec::new(n as u32, horizon_ms)
        .probe_every_ms(120_000)
        .decimation(waves as u32, wave_interval_s * 1000, 100);
    let mut runner = SoakRunner::new(&spec, seed);
    let warmup = runner.compiled().warmup_ms;
    runner
        .run_with(horizon_ms, crate::stats_json::record)
        .expect("fig13 scenario violated an invariant");
    runner
        .probes()
        .iter()
        .map(|&(at_ms, delivery_x1000)| ((at_ms - warmup) / 1000, delivery_x1000 as f64 / 1000.0))
        .collect()
}
