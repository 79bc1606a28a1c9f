//! Live-runtime integration: real peers on worker shards gossip an overlay
//! into existence, answer multi-attribute queries, and survive ungraceful
//! kills — the behaviours the paper demonstrated on DAS and PlanetLab.

use std::sync::Arc;
use std::time::Duration;

use attrspace::{Point, Query, Space};
use autosel_core::QueryRequest;
use autosel_net::{NetCluster, NetConfig, Transport};
use autosel_obs::{FlightRecorder, ObsHandle, Registry, TraceTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Polls `pred` every 50 ms until it holds or `deadline` elapses; returns
/// whether it ever held. Replaces the fixed warm-up sleeps that guessed at
/// convergence speed and flaked on loaded single-CPU boxes: the condition is
/// on observable cluster state, the deadline only bounds a hang.
fn wait_until(mut pred: impl FnMut() -> bool, deadline: Duration) -> bool {
    let start = std::time::Instant::now();
    loop {
        if pred() {
            return true;
        }
        if start.elapsed() >= deadline {
            return false;
        }
        // This IS the polling helper the rule points everyone at.
        #[allow(clippy::disallowed_methods)] // thread-sleep: bounded by the caller's deadline
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Polls the cluster with `query` until delivery crosses `bar` or `tries`
/// rounds elapse — debug builds on loaded CI boxes converge slowly, so the
/// tests adapt instead of guessing a fixed warm-up sleep. Between rounds it
/// waits (bounded) for the overlay's mean link count to grow rather than
/// sleeping blind: on a fast box the next attempt fires as soon as routing
/// actually changed.
fn wait_for_delivery(cluster: &mut NetCluster, query: &Query, bar: f64, tries: u32) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..tries {
        let links_before = cluster.mean_links();
        let _ = wait_until(
            || cluster.mean_links() > links_before,
            Duration::from_millis(700),
        );
        let origin = cluster.random_node();
        if let Some(outcome) = cluster.query(origin, query.clone(), None, Duration::from_secs(30)) {
            best = best.max(outcome.delivery());
            // Strictly above, as every caller asserts: returning at an
            // exact `bar` failed them whenever early delivery hit it.
            if best > bar {
                return best;
            }
        }
    }
    best
}

fn points(space: &Space, n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let vals: Vec<u64> = (0..space.dims()).map(|_| rng.gen_range(0..80)).collect();
            space.point(&vals).unwrap()
        })
        .collect()
}

fn fast_config() -> NetConfig {
    NetConfig {
        gossip: epigossip::GossipConfig {
            period_ms: 30,
            ..Default::default()
        },
        // The per-neighbor timeout must cover a whole depth-first *subtree*
        // (many sequential hops), not one RTT — too tight a value amputates
        // subtrees and silently loses matches.
        protocol: autosel_core::ProtocolConfig {
            query_timeout_ms: 10_000,
        },
        injected_latency_ms: Some((1, 3)),
    }
}

#[test]
fn mem_cluster_converges_and_answers_queries() {
    let space = Space::uniform(3, 80, 3).unwrap();
    let cfg = fast_config();
    let pts = points(&space, 80, 1);
    let mut cluster = NetCluster::spawn(
        space.clone(),
        pts,
        cfg.clone(),
        Transport::mem(cfg.injected_latency_ms),
        7,
    )
    .unwrap();

    let query = Query::builder(&space).min("a0", 40).build().unwrap();
    let best = wait_for_delivery(&mut cluster, &query, 0.9, 15);
    assert!(best > 0.9, "live overlay reached only {best:.2}");
    cluster.shutdown();
}

#[test]
fn sigma_queries_return_promptly_on_live_cluster() {
    let space = Space::uniform(3, 80, 3).unwrap();
    let cfg = fast_config();
    let pts = points(&space, 60, 2);
    let mut cluster = NetCluster::spawn(
        space.clone(),
        pts,
        cfg.clone(),
        Transport::mem(cfg.injected_latency_ms),
        3,
    )
    .unwrap();
    assert!(
        wait_until(|| cluster.mean_links() >= 1.0, Duration::from_secs(30)),
        "overlay never formed routing links"
    );

    // The overlay keeps converging while we poll: retry until a σ=5 query
    // actually finds 5 matches (bounded), instead of guessing a warm-up.
    let query = Query::builder(&space).min("a0", 10).build().unwrap();
    let mut outcome = None;
    for _ in 0..15 {
        let origin = cluster.random_node();
        if let Some(o) = cluster.query(origin, query.clone(), Some(5), Duration::from_secs(20)) {
            let enough = o.matches.len() >= 5;
            outcome = Some(o);
            if enough {
                break;
            }
        }
        // Live-runtime retry loop: the cluster runs on real sockets,
        // so backing off between σ retries needs real time.
        #[allow(clippy::disallowed_methods)] // thread-sleep: bounded by the tries counter
        std::thread::sleep(Duration::from_millis(100));
    }
    let outcome = outcome.expect("σ query completes");
    assert!(outcome.matches.len() >= 5);
    assert!(outcome.matches.iter().all(|m| query.matches(&m.values)));
    cluster.shutdown();
}

#[test]
fn overlay_survives_partial_kill_and_recovers() {
    let space = Space::uniform(2, 80, 3).unwrap();
    let cfg = fast_config();
    let pts = points(&space, 80, 3);
    let mut cluster = NetCluster::spawn(
        space.clone(),
        pts,
        cfg.clone(),
        Transport::mem(cfg.injected_latency_ms),
        11,
    )
    .unwrap();
    // Converge before the kill so the survivors have links to recover
    // through; bounded wait on the link gauge, not a guessed sleep.
    assert!(
        wait_until(|| cluster.mean_links() >= 1.0, Duration::from_secs(30)),
        "overlay never formed routing links"
    );

    let victims = cluster.kill_fraction(0.3);
    assert!(!victims.is_empty());

    // Recovery: gossip evicts the dead and re-links.
    let query = Query::builder(&space).build().unwrap(); // match everyone alive
    let best = wait_for_delivery(&mut cluster, &query, 0.85, 15);
    assert!(best > 0.85, "after 30% kill, best delivery {best:.2}");
    cluster.shutdown();
}

#[test]
fn tcp_cluster_end_to_end() {
    let space = Space::uniform(2, 80, 2).unwrap();
    let cfg = NetConfig {
        gossip: epigossip::GossipConfig {
            period_ms: 40,
            ..Default::default()
        },
        injected_latency_ms: None,
        ..fast_config()
    };
    let pts = points(&space, 16, 4);
    let mut cluster =
        NetCluster::spawn(space.clone(), pts, cfg, Transport::tcp(space.clone()), 5).unwrap();
    let query = Query::builder(&space).min("a0", 20).build().unwrap();
    let best = wait_for_delivery(&mut cluster, &query, 0.75, 12);
    assert!(best > 0.75, "tcp delivery {best:.2}");
    let traffic = cluster.traffic();
    assert!(
        traffic.values().all(|&(s, r)| s > 0 || r > 0),
        "all peers active"
    );
    cluster.shutdown();
}

/// The full cluster arc — spawn, converge, query, kill a node, recover —
/// over real TCP sockets, the transport the paper's PlanetLab deployment
/// ran on. Also pins the persistent data plane's shape: many frames ride
/// few connections (no connect-per-message), and nothing overflowed the
/// bounded link queues at this load.
#[test]
fn tcp_cluster_survives_kill_and_recovers() {
    let space = Space::uniform(2, 80, 2).unwrap();
    let cfg = NetConfig {
        gossip: epigossip::GossipConfig {
            period_ms: 40,
            ..Default::default()
        },
        injected_latency_ms: None,
        ..fast_config()
    };
    let pts = points(&space, 12, 19);
    let mut cluster =
        NetCluster::spawn(space.clone(), pts, cfg, Transport::tcp(space.clone()), 23).unwrap();
    assert!(
        wait_until(|| cluster.mean_links() >= 1.0, Duration::from_secs(30)),
        "tcp overlay never formed routing links"
    );

    let query = Query::builder(&space).build().unwrap(); // match everyone alive
    let best = wait_for_delivery(&mut cluster, &query, 0.8, 12);
    assert!(best > 0.8, "tcp delivery before kill {best:.2}");

    let victims = cluster.kill_fraction(0.2);
    assert!(!victims.is_empty());

    // Recovery: fail-fast `Failed` events + gossip eviction re-route
    // around the dead sockets, exactly as on the mem transport.
    let best = wait_for_delivery(&mut cluster, &query, 0.8, 12);
    assert!(best > 0.8, "tcp delivery after kill {best:.2}");

    let stats = cluster.transport().tcp_stats().expect("tcp transport");
    assert!(stats.tx_frames > 0, "no frames sent: {stats:?}");
    assert!(stats.conn_established >= 1, "no connections: {stats:?}");
    // The tentpole invariant at cluster scale: connections are persistent,
    // so the whole run establishes far fewer connections than it sends
    // frames (the old transport had conn_established == tx_frames).
    assert!(
        stats.conn_established * 2 <= stats.tx_frames,
        "connect-per-message regression: {stats:?}"
    );
    cluster.shutdown();
}

/// Wall-clock tracing on the live runtime: the same observer that watches
/// the simulator reconstructs a live cluster's queries into rooted trees,
/// and the gossip gauges tick with real rounds.
#[test]
fn observed_cluster_traces_queries_and_gossip() {
    let space = Space::uniform(3, 80, 3).unwrap();
    let cfg = fast_config();
    let pts = points(&space, 40, 8);
    let tree = Arc::new(TraceTree::new());
    let reg = Arc::new(Registry::new());
    let mut fan = autosel_obs::Fanout::new();
    fan.push(tree.clone());
    fan.push(reg.clone());
    let mut cluster = NetCluster::spawn_observed(
        space.clone(),
        pts,
        cfg.clone(),
        Transport::mem(cfg.injected_latency_ms),
        13,
        ObsHandle::of(fan),
    )
    .unwrap();

    let query = Query::builder(&space).min("a0", 40).build().unwrap();
    let best = wait_for_delivery(&mut cluster, &query, 0.9, 15);
    assert!(best > 0.5, "observed overlay reached only {best:.2}");
    cluster.shutdown();

    assert!(
        reg.counter("event.gossip_round") > 0,
        "live gossip rounds unobserved"
    );
    assert!(
        reg.counter("event.query_issued") > 0,
        "live queries unobserved"
    );
    let queries = tree.queries();
    assert!(!queries.is_empty(), "no query traces recorded");
    for q in &queries {
        let qt = tree.query(*q).expect("trace recorded");
        assert_eq!(
            qt.root, q.origin,
            "each live query has one rooted tree at its origin"
        );
    }
    // Threads interleave freely, yet causality must still resolve: every
    // recorded hop hangs off a recorded parent.
    assert_eq!(tree.problems(), Vec::<String>::new());
}

/// Soak-style health bounds on a *live* cluster: the per-peer gossip gauges
/// aggregate into the same layer reading the simulator's `gossip_health()`
/// produces, so the same bounds apply — every peer gossips into a non-empty
/// view, descriptor ages stay bounded by a few periods, and the bounded
/// inboxes never drop under idle-plus-query load.
#[test]
fn live_gossip_health_within_soak_bounds() {
    let space = Space::uniform(2, 80, 3).unwrap();
    let cfg = fast_config();
    let pts = points(&space, 40, 21);
    let cluster = NetCluster::spawn(
        space.clone(),
        pts,
        cfg.clone(),
        Transport::mem(cfg.injected_latency_ms),
        17,
    )
    .unwrap();

    // Converged = every peer's random view is non-empty (mean ≥ 1 link per
    // layer would still pass with stragglers; require links ≥ nodes).
    assert!(
        wait_until(
            || {
                let (random, semantic) = cluster.gossip_health();
                random.links >= random.nodes && semantic.links >= semantic.nodes
            },
            Duration::from_secs(30),
        ),
        "gossip views never populated: {:?}",
        cluster.gossip_health()
    );

    let (random, semantic) = cluster.gossip_health();
    assert_eq!(random.nodes, 40);
    assert_eq!(semantic.nodes, 40);
    assert!(random.turnover > 0, "random layer admitted no descriptors");
    // Freshness: mean descriptor age stays within a handful of gossip
    // rounds once the overlay is warm (ages are in rounds ×1000; the bound
    // is deliberately loose for loaded single-CPU CI boxes).
    assert!(
        random.mean_age_x1000() < 64_000,
        "stale random views: {:?}",
        random
    );

    // The bounded inboxes held: nothing dropped at idle+query load.
    let stats = cluster.inbox_stats();
    let dropped: u64 = stats.values().map(|s| s.dropped).sum();
    assert_eq!(dropped, 0, "bounded inboxes dropped under light load");
    cluster.shutdown();
}

/// Opt-in bounded stress loop over the arc's liveness on both transports.
/// Each iteration runs the full cluster arc — spawn, converge, query, kill
/// a fraction, recover, shutdown — over mem and TCP with a fresh seed, so
/// a stalled shard or data plane shows as a query that never delivers. On
/// any failure the flight recorder's last events are dumped to a JSONL file
/// whose path is printed, ready for `tracedump --check`.
///
/// ```text
/// AUTOSEL_STRESS_ITERS=25 cargo test -p autosel-net --test cluster_live -- --ignored stress_cluster_arcs
/// ```
#[test]
#[ignore = "bounded stress loop; opt-in via --ignored (AUTOSEL_STRESS_ITERS, default 6)"]
fn stress_cluster_arcs() {
    let iters: u64 = std::env::var("AUTOSEL_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6);

    // One arc: converge, query, kill, recover. The delivery bars are the
    // liveness floor (a stalled data plane scores 0.0), not a performance
    // claim — the interesting failures are hangs and queries that never
    // complete.
    fn arc_once(seed: u64, tcp: bool, flight: &Arc<FlightRecorder>) {
        let space = Space::uniform(2, 80, 3).unwrap();
        let mut cfg = fast_config();
        let transport = if tcp {
            cfg.injected_latency_ms = None;
            cfg.gossip.period_ms = 40;
            Transport::tcp(space.clone())
        } else {
            Transport::mem(cfg.injected_latency_ms)
        };
        let n = if tcp { 12 } else { 30 };
        let mut cluster = NetCluster::spawn_observed(
            space.clone(),
            points(&space, n, seed),
            cfg,
            transport,
            seed,
            ObsHandle::new(Arc::clone(flight) as Arc<dyn autosel_obs::Observer>),
        )
        .unwrap();
        assert!(
            wait_until(|| cluster.mean_links() >= 1.0, Duration::from_secs(30)),
            "overlay never formed routing links (seed {seed}, tcp {tcp})"
        );
        let query = Query::builder(&space).build().unwrap();
        let best = wait_for_delivery(&mut cluster, &query, 0.5, 8);
        assert!(
            best > 0.0,
            "no query ever delivered (seed {seed}, tcp {tcp})"
        );
        let victims = cluster.kill_fraction(0.25);
        assert!(!victims.is_empty());
        let best = wait_for_delivery(&mut cluster, &query, 0.5, 8);
        assert!(
            best > 0.0,
            "post-kill data plane stalled (seed {seed}, tcp {tcp})"
        );
        cluster.shutdown();
    }

    for i in 0..iters {
        let flight = Arc::new(FlightRecorder::new(4096));
        let seed = 0xC0FF_EE00 + i;
        for tcp in [false, true] {
            let f = Arc::clone(&flight);
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                arc_once(seed, tcp, &f);
            }));
            if let Err(panic) = run {
                let path = std::env::temp_dir().join(format!(
                    "cluster_live_stress_{seed:x}_{}.jsonl",
                    if tcp { "tcp" } else { "mem" }
                ));
                if let Ok(mut out) = std::fs::File::create(&path) {
                    let _ = flight.dump_jsonl(&mut out);
                }
                eprintln!(
                    "stress iteration {i} ({}) failed; flight recorder dumped to {}",
                    if tcp { "tcp" } else { "mem" },
                    path.display()
                );
                std::panic::resume_unwind(panic);
            }
        }
        eprintln!("stress iteration {}/{iters} clean", i + 1);
    }
}

#[test]
fn count_queries_on_live_cluster() {
    let space = Space::uniform(3, 80, 3).unwrap();
    let cfg = fast_config();
    let pts = points(&space, 60, 6);
    let truth = pts.iter().filter(|p| p.values()[0] >= 40).count() as u64;
    let mut cluster = NetCluster::spawn(
        space.clone(),
        pts,
        cfg.clone(),
        Transport::mem(cfg.injected_latency_ms),
        9,
    )
    .unwrap();
    let query = Query::builder(&space).min("a0", 40).build().unwrap();
    // Converge first (reuse the adaptive helper), then count.
    let _ = wait_for_delivery(&mut cluster, &query, 0.95, 15);
    let origin = cluster.random_node();
    let count = cluster
        .begin(origin, QueryRequest::count(query))
        .and_then(|ticket| ticket.wait(Duration::from_secs(30)))
        .expect("count completes")
        .count;
    assert!(
        count >= truth * 9 / 10 && count <= truth,
        "count {count} vs truth {truth}"
    );
    cluster.shutdown();
}
