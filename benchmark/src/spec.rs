//! The names this benchmark speaks: workloads and metrics, exactly as
//! `BENCHMARK.json` declares them (a test holds the two together).

/// One declared metric. For per-layer metrics `moves` names the end-to-end
/// metric and workload the layer metric is expected to move (`→ metric @
/// workload`), written down before anything was measured.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end: the regression bound (share of the parent's median).
    pub bound: f64,
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        moves,
    }
}

pub const SIM_STATIC: &str = "sim_static_100k";
pub const SIM_CHURN: &str = "sim_churn_5k";
pub const LIVE_TCP: &str = "live_tcp_60";
pub const LIVE_MEM: &str = "live_mem_60";

/// `(name, why)` of every workload.
pub const WORKLOADS: [(&str, &str); 4] = [
    (SIM_STATIC, "core routing + sim event loop + attrspace matching at the paper's N=100000, sigma=50; gossip, threads and sockets bypassed; memory-bound, so per-node state shows"),
    (SIM_CHURN, "same sim layer driven by timers, gossip tick/handle and sync_from_view under 0.2%/10s churn, N=5000; the query path is minor, so it splits calendar/gossip changes from routing changes"),
    (LIVE_TCP, "whole live data plane on 60 nodes, closed loop of 32: wire codec, link queues and writer batching, loopback sockets, reader threads, bounded inbox, peer loop"),
    (LIVE_MEM, "identical load on the in-memory transport: wire, links and sockets bypassed, leaving cluster handle, inbox, peer thread and core; a codec or transport change must not move it"),
];

pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("queries_per_s", "1/s", "higher", 0.25),
    e2e("rss_mib", "MiB", "lower", 0.20),
    e2e("msgs_per_query", "count", "lower", 0.15),
    e2e("delivery", "ratio", "higher", 0.10),
];

#[rustfmt::skip] // one metric a line: the list is read as a table
pub const PER_LAYER: [Metric; 71] = [
    // attrspace (probe)
    layer("attrspace.cell_coord_ns", "ns", "lower", "setup_s @ sim_static_100k"),
    layer("attrspace.neighboring_cell_ns", "ns", "lower", "setup_s @ sim_static_100k"),
    layer("attrspace.classify_ns", "ns", "lower", "queries_per_s @ sim_churn_5k"),
    layer("attrspace.query_matches_ns", "ns", "lower", "queries_per_s @ sim_static_100k"),
    // core (probe over 1000 wire_perfect nodes)
    layer("core.handle_message_ns", "ns", "lower", "queries_per_s @ sim_static_100k, live_mem_60"),
    layer("core.begin_query_ns", "ns", "lower", "queries_per_s @ sim_static_100k, live_mem_60"),
    layer("core.poll_timeouts_ns", "ns", "lower", "queries_per_s @ live_mem_60, live_tcp_60"),
    layer("core.sync_from_view_ns", "ns", "lower", "queries_per_s @ sim_churn_5k, live_*"),
    layer("core.oracle_new_ms", "ms", "lower", "setup_s @ sim_static_100k"),
    layer("core.wire_table_ns", "ns", "lower", "setup_s @ sim_static_100k"),
    // core (traced run)
    layer("core.hops_per_query", "count", "lower", "msgs_per_query @ all; queries_per_s @ live_*"),
    layer("core.depth_per_query", "count", "lower", "queries_per_s @ live_* (sequential hops)"),
    layer("core.overhead_per_query", "count", "lower", "msgs_per_query @ all (paper Fig. 6)"),
    layer("core.duplicates_per_query", "count", "lower", "msgs_per_query @ all"),
    layer("core.timeouts_fired", "count", "lower", "delivery @ sim_churn_5k; queries_per_s @ live_*"),
    layer("core.leaked", "count", "lower", "rss_mib @ all (must be 0)"),
    // gossip
    layer("gossip.tick_ns", "ns", "lower", "queries_per_s @ sim_churn_5k"),
    layer("gossip.handle_ns", "ns", "lower", "queries_per_s @ sim_churn_5k"),
    layer("gossip.msgs_per_round", "count", "lower", "queries_per_s @ sim_churn_5k"),
    layer("gossip.rounds_per_s", "1/s", "higher", "queries_per_s @ sim_churn_5k; 0 on sim_static_100k"),
    layer("gossip.links_random", "count", "higher", "delivery @ sim_churn_5k; setup_s @ live_*"),
    layer("gossip.links_semantic", "count", "higher", "delivery @ sim_churn_5k; setup_s @ live_*"),
    // sim (timed around the public calls)
    layer("sim.populate_s", "s", "lower", "setup_s @ sim_static_100k"),
    layer("sim.wire_oracle_s", "s", "lower", "setup_s @ sim_static_100k"),
    layer("sim.issue_query_us", "us", "lower", "queries_per_s @ sim_static_100k"),
    layer("sim.run_to_quiescence_us", "us", "lower", "queries_per_s @ sim_static_100k"),
    layer("sim.us_per_msg", "us", "lower", "queries_per_s @ sim_static_100k"),
    layer("sim.churn_step_ms", "ms", "lower", "queries_per_s @ sim_churn_5k"),
    layer("sim.run_until_ms_per_virtual_s", "ms", "lower", "queries_per_s @ sim_churn_5k"),
    layer("sim.virtual_s_per_s", "1/s", "higher", "queries_per_s @ sim_churn_5k (= 2.5x it)"),
    layer("sim.queue_depth_max", "count", "lower", "queries_per_s, rss_mib @ sim_churn_5k"),
    layer("sim.bytes_per_node", "B", "lower", "rss_mib @ sim_*"),
    // net.wire (probe on harvested messages)
    layer("net.wire.encode_query_ns", "ns", "lower", "queries_per_s @ live_tcp_60; none @ live_mem_60"),
    layer("net.wire.decode_query_ns", "ns", "lower", "queries_per_s @ live_tcp_60; none @ live_mem_60"),
    layer("net.wire.encode_reply8_ns", "ns", "lower", "queries_per_s @ live_tcp_60; none @ live_mem_60"),
    layer("net.wire.decode_reply8_ns", "ns", "lower", "queries_per_s @ live_tcp_60; none @ live_mem_60"),
    layer("net.wire.encode_reply30_ns", "ns", "lower", "queries_per_s @ live_tcp_60; none @ live_mem_60"),
    layer("net.wire.decode_reply30_ns", "ns", "lower", "queries_per_s @ live_tcp_60; none @ live_mem_60"),
    layer("net.wire.encode_gossip_ns", "ns", "lower", "queries_per_s @ live_tcp_60; none @ live_mem_60"),
    layer("net.wire.decode_gossip_ns", "ns", "lower", "queries_per_s @ live_tcp_60; none @ live_mem_60"),
    layer("net.wire.query_bytes", "B", "lower", "queries_per_s @ live_tcp_60"),
    layer("net.wire.reply8_bytes", "B", "lower", "queries_per_s @ live_tcp_60"),
    layer("net.wire.reply30_bytes", "B", "lower", "queries_per_s @ live_tcp_60"),
    layer("net.wire.gossip_bytes", "B", "lower", "queries_per_s @ live_tcp_60"),
    // net.transport (tcp_stats deltas over the traced run)
    layer("net.tcp.frames_per_query", "count", "lower", "queries_per_s @ live_tcp_60"),
    layer("net.tcp.frames_per_batch", "count", "higher", "queries_per_s @ live_tcp_60"),
    layer("net.tcp.queue_full_drops", "count", "lower", "delivery, queries_per_s @ live_tcp_60"),
    layer("net.tcp.oversize_drops", "count", "lower", "delivery @ live_tcp_60"),
    layer("net.tcp.conn_established", "count", "lower", "setup_s @ live_tcp_60"),
    layer("net.tcp.conn_failed", "count", "lower", "delivery, setup_s @ live_tcp_60"),
    // net.peer / net.cluster
    layer("net.peer.msgs_per_query", "count", "lower", "msgs_per_query, queries_per_s @ live_*"),
    layer("net.peer.inbox_depth_max", "count", "lower", "queries_per_s @ live_* (queueing)"),
    layer("net.peer.inbox_dropped", "count", "lower", "delivery @ live_*"),
    layer("net.cluster.begin_query_us", "us", "lower", "queries_per_s @ live_*"),
    layer("net.cluster.spawn_s", "s", "lower", "setup_s @ live_*"),
    layer("net.cluster.shutdown_s", "s", "lower", "setup_s @ live_* (repeated set-up)"),
    layer("net.threads", "count", "lower", "queries_per_s, rss_mib @ live_*"),
    layer("net.ctx_switches_per_query", "count", "lower", "queries_per_s @ live_*"),
    // proc
    layer("proc.cpu_us_per_query", "us", "lower", "queries_per_s @ all"),
    layer("proc.cores_busy", "count", "lower", "queries_per_s @ live_*"),
    layer("proc.sys_frac", "ratio", "lower", "queries_per_s @ live_tcp_60 (socket cost)"),
    // obs
    layer("obs.trace_overhead_frac", "ratio", "lower", "queries_per_s @ all, observer installed"),
    layer("obs.events_per_query", "count", "lower", "queries_per_s @ all, observer installed"),
    layer("obs.registry_record_ns", "ns", "lower", "queries_per_s @ all, observer installed"),
    // gen (the benchmark's own load generator; reported, never gated)
    layer("gen.busy_frac", "ratio", "lower", "queries_per_s @ live_* (generator_bound above 0.5)"),
    layer("gen.open_p50_ms", "ms", "lower", "reported only"),
    layer("gen.open_p99_ms", "ms", "lower", "reported only"),
    layer("gen.open_late_p99_ms", "ms", "lower", "reported only"),
    layer("gen.bounded_p50_ms", "ms", "lower", "reported only"),
    layer("gen.unbounded_p50_ms", "ms", "lower", "reported only"),
    layer("gen.p99_ms", "ms", "lower", "reported only"),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

/// The metrics a run with this `--trace` value must report.
pub fn declared(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}
