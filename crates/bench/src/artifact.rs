//! The one writer (and reader) of the committed measurement artifacts,
//! `BENCH_sim.json` (`sweepbench`) and `BENCH_net.json` (`netload`).
//!
//! Both files are `{schema, entries[]}` with one flat JSON object per line
//! under `"entries"`. A row is identified by its `tag` + `kind` (+
//! `transport`, in the live artifact): [`merge`] replaces the rows whose
//! identity a new row repeats and keeps every other line byte-for-byte, so
//! the files accumulate a trajectory of tagged measurements.

use std::fmt::Write as _;

use autosel_net::TcpStatsSnapshot;
use autosel_obs::json::ObjectWriter;

/// Builder of one entry row; field order is call order.
pub struct Row(ObjectWriter);

impl Row {
    /// Starts a row with its identity fields.
    pub fn new(tag: &str, kind: &str, transport: Option<&str>) -> Row {
        let mut w = ObjectWriter::new();
        w.str_field("tag", tag);
        w.str_field("kind", kind);
        if let Some(t) = transport {
            w.str_field("transport", t);
        }
        Row(w)
    }

    /// Appends an unsigned integer field.
    pub fn int(mut self, name: &str, value: u64) -> Row {
        self.0.u64_field(name, value);
        self
    }

    /// Appends a float field printed with exactly `decimals` fraction digits.
    pub fn float(mut self, name: &str, value: f64, decimals: usize) -> Row {
        self.0.raw_field(name, &format!("{value:.decimals$}"));
        self
    }

    /// Appends a boolean field.
    pub fn bool(mut self, name: &str, value: bool) -> Row {
        self.0.bool_field(name, value);
        self
    }

    /// Appends a string field (escaped).
    pub fn str(mut self, name: &str, value: &str) -> Row {
        self.0.str_field(name, value);
        self
    }

    /// Appends an array of `[a, b, c]` float triples at two decimals.
    pub fn triples(mut self, name: &str, values: &[[f64; 3]]) -> Row {
        let mut json = String::from("[");
        for (i, [a, b, c]) in values.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(json, "{sep}[{a:.2},{b:.2},{c:.2}]");
        }
        json.push(']');
        self.0.raw_field(name, &json);
        self
    }

    /// Closes the row.
    pub fn finish(self) -> String {
        self.0.finish()
    }
}

/// One `sweepbench` single-run tier (`kind: single`).
#[derive(Debug, Clone, PartialEq)]
pub struct SimSingle {
    /// Population of the tier.
    pub n: usize,
    /// Queries run to quiescence.
    pub queries: usize,
    /// Cluster seed.
    pub seed: u64,
    /// Populate + oracle-wire wall clock.
    pub setup_ms: f64,
    /// Query-batch wall clock.
    pub query_ms: f64,
    /// Digest of the per-query fingerprints.
    pub digest: u64,
    /// Whether the same-seed rerun produced the same digest.
    pub deterministic: bool,
    /// Peak resident set of the tier's process.
    pub rss_mib: f64,
}

impl SimSingle {
    /// The `BENCH_sim.json` row.
    pub fn row(&self, tag: &str) -> String {
        Row::new(tag, "single", None)
            .int("n", self.n as u64)
            .int("queries", self.queries as u64)
            .int("seed", self.seed)
            .float("setup_ms", self.setup_ms, 2)
            .float("query_ms", self.query_ms, 2)
            .float("wall_ms", self.setup_ms + self.query_ms, 2)
            .str("digest", &format!("{:016x}", self.digest))
            .bool("deterministic", self.deterministic)
            .float("rss_mib", self.rss_mib, 1)
            .finish()
    }
}

/// The `sweepbench` serial-vs-parallel grid (`kind: sweep`).
#[derive(Debug, Clone, PartialEq)]
pub struct SimSweep {
    /// Jobs in the grid.
    pub jobs: usize,
    /// Worker threads of the parallel pass.
    pub threads: usize,
    /// Wall clock on one thread.
    pub serial_ms: f64,
    /// Wall clock on `threads` threads.
    pub parallel_ms: f64,
    /// Whether both passes produced the same digests.
    pub digests_match: bool,
}

impl SimSweep {
    /// Serial over parallel wall clock.
    pub fn speedup(&self) -> f64 {
        self.serial_ms / self.parallel_ms.max(1e-9)
    }

    /// The `BENCH_sim.json` row.
    pub fn row(&self, tag: &str) -> String {
        Row::new(tag, "sweep", None)
            .int("jobs", self.jobs as u64)
            .int("threads", self.threads as u64)
            .float("serial_wall_ms", self.serial_ms, 2)
            .float("parallel_wall_ms", self.parallel_ms, 2)
            .float("speedup", self.speedup(), 3)
            .bool("digests_match", self.digests_match)
            .finish()
    }
}

/// What distinguishes `netload`'s two row kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum NetPhase {
    /// One fixed-rate measure phase (`kind: load`).
    Load {
        /// Offered arrival rate.
        offered_qps: f64,
        /// Completions per second of measure time.
        achieved_qps: f64,
        /// Measure-phase length.
        measure_ms: u64,
        /// Nodes killed by `--kill`.
        killed: u64,
        /// `[random, semantic]` gossip links at the end of the run.
        gossip_links: [u64; 2],
    },
    /// A stepped rate sweep (`kind: sweep`).
    Sweep {
        /// Offered rate of the first stage.
        base_qps: f64,
        /// Offered-rate multiplier between stages.
        factor: f64,
        /// Highest offered rate the cluster kept up with.
        knee_qps: f64,
        /// Per-stage `[offered, issued, achieved]` qps.
        stages: Vec<[f64; 3]>,
        /// Length of each stage.
        stage_measure_ms: u64,
    },
}

/// One `netload` run.
#[derive(Debug, Clone, PartialEq)]
pub struct NetRun {
    /// `mem` or `tcp`.
    pub transport: String,
    /// Cluster size.
    pub nodes: u64,
    /// The run's kind and its kind-specific fields.
    pub phase: NetPhase,
    /// Warm-up budget.
    pub warmup_ms: u64,
    /// Query threshold σ.
    pub sigma: u64,
    /// Cluster and generator seed.
    pub seed: u64,
    /// `[issued, completed, timeouts, errors]`.
    pub tally: [u64; 4],
    /// `[p50, p99, p999]` reply latency off the registry's histogram.
    pub quantiles_ms: [f64; 3],
    /// Largest reply latency.
    pub max_ms: u64,
    /// Mean delivery of the completed queries.
    pub mean_delivery: f64,
    /// Messages dropped by full inboxes.
    pub inbox_dropped: u64,
    /// The link counters — TCP runs only.
    pub tcp: Option<TcpStatsSnapshot>,
}

impl NetRun {
    /// The `BENCH_net.json` row.
    pub fn row(&self, tag: &str) -> String {
        let [issued, completed, timeouts, errors] = self.tally;
        let [p50, p99, p999] = self.quantiles_ms;
        // The two kinds share these runs of fields, at different offsets.
        let counts = |row: Row| {
            row.int("sigma", self.sigma)
                .int("seed", self.seed)
                .int("issued", issued)
                .int("completed", completed)
                .int("timeouts", timeouts)
                .int("errors", errors)
        };
        let latency = |row: Row| {
            row.float("p50_ms", p50, 2)
                .float("p99_ms", p99, 2)
                .float("p999_ms", p999, 2)
                .int("max_ms", self.max_ms)
                .float("mean_delivery", self.mean_delivery, 4)
                .int("inbox_dropped", self.inbox_dropped)
        };
        let head = |kind| Row::new(tag, kind, Some(&self.transport)).int("nodes", self.nodes);
        let mut row = match &self.phase {
            NetPhase::Load {
                offered_qps,
                achieved_qps,
                measure_ms,
                killed,
                gossip_links: [random, semantic],
            } => {
                let row = head("load")
                    .float("offered_qps", *offered_qps, 2)
                    .float("achieved_qps", *achieved_qps, 2)
                    .int("warmup_ms", self.warmup_ms)
                    .int("measure_ms", *measure_ms);
                latency(counts(row).int("killed", *killed))
                    .int("gossip_links_random", *random)
                    .int("gossip_links_semantic", *semantic)
            }
            NetPhase::Sweep {
                base_qps,
                factor,
                knee_qps,
                stages,
                stage_measure_ms,
            } => {
                let row = head("sweep")
                    .float("base_qps", *base_qps, 2)
                    .float("factor", *factor, 2)
                    .float("knee_qps", *knee_qps, 2)
                    .triples("stages", stages)
                    .int("stage_measure_ms", *stage_measure_ms)
                    .int("warmup_ms", self.warmup_ms);
                latency(counts(row))
            }
        };
        if let Some(tcp) = self.tcp {
            row = row
                .int("tcp_conn_established", tcp.conn_established)
                .int("tcp_conn_failed", tcp.conn_failed)
                .int("tcp_tx_batches", tcp.tx_batches)
                .int("tcp_tx_frames", tcp.tx_frames)
                .int("tcp_tx_queue_full_drops", tcp.tx_queue_full_drops)
                .int("tcp_tx_oversize_drops", tcp.tx_oversize_drops);
        }
        row.finish()
    }
}

/// The raw JSON text of scalar field `name` in one entry line: a string
/// with its quotes and escapes, or a number / bool as written.
fn raw_value<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let pat = format!("\"{name}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = if let Some(body) = rest.strip_prefix('"') {
        let mut escaped = false;
        let close = body.find(|c: char| {
            let closing = c == '"' && !escaped;
            escaped = c == '\\' && !escaped;
            closing
        })?;
        close + 2
    } else {
        rest.find([',', '}', ']']).unwrap_or(rest.len())
    };
    Some(&rest[..end])
}

/// A numeric field of one entry line.
pub fn num(line: &str, name: &str) -> Option<f64> {
    raw_value(line, name)?.parse().ok()
}

/// Whether two entry lines carry the same `tag` + `kind` + `transport`.
pub fn same_key(a: &str, b: &str) -> bool {
    ["tag", "kind", "transport"]
        .iter()
        .all(|k| raw_value(a, k) == raw_value(b, k))
}

/// The entry lines of an artifact body, without their separating commas.
pub fn entries(body: &str) -> impl Iterator<Item = &str> {
    body.lines()
        .map(|l| l.trim().trim_end_matches(','))
        .filter(|l| l.starts_with("{\"tag\":"))
}

/// The artifact file holding exactly `entries`.
fn render(schema: &str, entries: &[&str]) -> String {
    format!(
        "{{\n\"schema\": \"{schema}\",\n\"entries\": [\n{}\n]\n}}\n",
        entries.join(",\n")
    )
}

/// Writes `rows` into the artifact at `path`: existing entries survive
/// unless a new row has the same key ([`same_key`]). A missing or foreign
/// file is started afresh. Returns the number of entries now in the file.
///
/// # Errors
///
/// I/O errors writing `path`.
pub fn merge(path: &str, schema: &str, rows: Vec<String>) -> std::io::Result<usize> {
    let prev = std::fs::read_to_string(path).unwrap_or_default();
    let mut all: Vec<&str> = entries(&prev)
        .filter(|old| !rows.iter().any(|new| same_key(old, new)))
        .collect();
    all.extend(rows.iter().map(String::as_str));
    std::fs::write(path, render(schema, &all))?;
    Ok(all.len())
}

/// Re-reads the artifact at `path` and checks it is byte-for-byte what
/// [`merge`] writes for `expected` one-line entry objects under `schema`.
///
/// # Errors
///
/// A message naming the file and what was expected of it.
pub fn verify(path: &str, schema: &str, expected: usize) -> Result<(), String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let found: Vec<&str> = entries(&body).collect();
    let objects = found.len() == expected && found.iter().all(|e| e.ends_with('}'));
    if objects && body == render(schema, &found) {
        Ok(())
    } else {
        Err(format!(
            "{path}: not a well-formed {schema} artifact of {expected} entries"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single() -> SimSingle {
        SimSingle {
            n: 10_000,
            queries: 40,
            seed: 42,
            setup_ms: 27.704,
            query_ms: 15.736,
            digest: 0x363a_a1ad_8245_27e5,
            deterministic: true,
            rss_mib: 22.64,
        }
    }

    fn tcp(v: [u64; 6]) -> Option<TcpStatsSnapshot> {
        Some(TcpStatsSnapshot {
            conn_established: v[0],
            conn_failed: v[1],
            tx_batches: v[2],
            tx_frames: v[3],
            tx_queue_full_drops: v[4],
            tx_oversize_drops: v[5],
            rx_dropped: 0,
        })
    }

    fn net(phase: NetPhase, transport: &str, tcp: Option<TcpStatsSnapshot>) -> NetRun {
        NetRun {
            transport: transport.into(),
            nodes: 60,
            phase,
            warmup_ms: 3000,
            sigma: 8,
            seed: 42,
            tally: [118, 117, 1, 0],
            quantiles_ms: [58.4375, 97.0, 97.0],
            max_ms: 97,
            mean_delivery: 0.41864,
            inbox_dropped: 0,
            tcp,
        }
    }

    fn load() -> NetPhase {
        NetPhase::Load {
            offered_qps: 25.0,
            achieved_qps: 23.6,
            measure_ms: 5000,
            killed: 0,
            gossip_links: [1140, 172],
        }
    }

    /// The pinned bytes of every row kind for these values.
    #[test]
    fn rows_match_the_bytes_the_bins_wrote_before() {
        assert_eq!(
            single().row("current"),
            r#"{"tag":"current","kind":"single","n":10000,"queries":40,"seed":42,"setup_ms":27.70,"query_ms":15.74,"wall_ms":43.44,"digest":"363aa1ad824527e5","deterministic":true,"rss_mib":22.6}"#
        );
        let sweep = SimSweep {
            jobs: 4,
            threads: 1,
            serial_ms: 53.07,
            parallel_ms: 41.33,
            digests_match: true,
        };
        assert_eq!(
            sweep.row("current"),
            r#"{"tag":"current","kind":"sweep","jobs":4,"threads":1,"serial_wall_ms":53.07,"parallel_wall_ms":41.33,"speedup":1.284,"digests_match":true}"#
        );
        assert_eq!(
            net(load(), "mem", None).row("current"),
            r#"{"tag":"current","kind":"load","transport":"mem","nodes":60,"offered_qps":25.00,"achieved_qps":23.60,"warmup_ms":3000,"measure_ms":5000,"sigma":8,"seed":42,"issued":118,"completed":117,"timeouts":1,"errors":0,"killed":0,"p50_ms":58.44,"p99_ms":97.00,"p999_ms":97.00,"max_ms":97,"mean_delivery":0.4186,"inbox_dropped":0,"gossip_links_random":1140,"gossip_links_semantic":172}"#
        );
        assert_eq!(
            net(load(), "tcp", tcp([354, 0, 2900, 3100, 0, 0])).row("current"),
            r#"{"tag":"current","kind":"load","transport":"tcp","nodes":60,"offered_qps":25.00,"achieved_qps":23.60,"warmup_ms":3000,"measure_ms":5000,"sigma":8,"seed":42,"issued":118,"completed":117,"timeouts":1,"errors":0,"killed":0,"p50_ms":58.44,"p99_ms":97.00,"p999_ms":97.00,"max_ms":97,"mean_delivery":0.4186,"inbox_dropped":0,"gossip_links_random":1140,"gossip_links_semantic":172,"tcp_conn_established":354,"tcp_conn_failed":0,"tcp_tx_batches":2900,"tcp_tx_frames":3100,"tcp_tx_queue_full_drops":0,"tcp_tx_oversize_drops":0}"#
        );
        let stepped = NetPhase::Sweep {
            base_qps: 320.0,
            factor: 1.6,
            knee_qps: 512.0,
            stages: vec![
                [320.0, 325.8, 325.8],
                [512.0, 511.2, 511.2],
                [819.2, 822.6, 700.0],
            ],
            stage_measure_ms: 5000,
        };
        assert_eq!(
            net(stepped.clone(), "mem", None).row("current"),
            r#"{"tag":"current","kind":"sweep","transport":"mem","nodes":60,"base_qps":320.00,"factor":1.60,"knee_qps":512.00,"stages":[[320.00,325.80,325.80],[512.00,511.20,511.20],[819.20,822.60,700.00]],"stage_measure_ms":5000,"warmup_ms":3000,"sigma":8,"seed":42,"issued":118,"completed":117,"timeouts":1,"errors":0,"p50_ms":58.44,"p99_ms":97.00,"p999_ms":97.00,"max_ms":97,"mean_delivery":0.4186,"inbox_dropped":0}"#
        );
        assert!(net(stepped, "tcp", tcp([9, 8, 7, 6, 5, 4])).row("current").ends_with(
            r#""inbox_dropped":0,"tcp_conn_established":9,"tcp_conn_failed":8,"tcp_tx_batches":7,"tcp_tx_frames":6,"tcp_tx_queue_full_drops":5,"tcp_tx_oversize_drops":4}"#
        ));
    }

    #[test]
    fn merge_replaces_by_key_and_keeps_the_rest() {
        let path =
            std::env::temp_dir().join(format!("autosel_artifact_{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        let _ = std::fs::remove_file(path);
        let odd_tag = "we\"ird\\tag";
        let first = vec![
            net(load(), "mem", None).row("current"),
            net(load(), "tcp", None).row("current"),
            net(load(), "mem", None).row(odd_tag),
            Row::new("current", "sweep", Some("mem"))
                .int("nodes", 1)
                .finish(),
        ];
        assert_eq!(merge(path, "s/v1", first.clone()).unwrap(), 4);
        verify(path, "s/v1", 4).unwrap();

        // Same (tag, kind, transport) replaces; every other line survives
        // byte-for-byte and in place.
        let newer = Row::new("current", "load", Some("mem"))
            .int("nodes", 7)
            .finish();
        assert_eq!(merge(path, "s/v1", vec![newer.clone()]).unwrap(), 4);
        verify(path, "s/v1", 4).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        let lines: Vec<&str> = entries(&body).collect();
        assert_eq!(lines, [&first[1], &first[2], &first[3], &newer]);

        // The escaped tag reads back as its own key, and replaces only itself.
        assert!(first[2].starts_with(r#"{"tag":"we\"ird\\tag","kind":"load""#));
        let again = Row::new(odd_tag, "load", Some("mem"))
            .int("nodes", 9)
            .finish();
        assert_eq!(merge(path, "s/v1", vec![again]).unwrap(), 4);
        let body = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            entries(&body)
                .filter_map(|l| num(l, "nodes"))
                .collect::<Vec<_>>(),
            [60.0, 1.0, 7.0, 9.0]
        );

        assert!(verify(path, "other/v1", 4).is_err());
        assert!(verify(path, "s/v1", 3).is_err());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn committed_artifacts_read_back() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
        for (file, schema) in [
            ("BENCH_sim.json", "autosel/bench-sim/v1"),
            ("BENCH_net.json", "autosel/bench-net/v1"),
        ] {
            let path = format!("{root}{file}");
            let body = std::fs::read_to_string(&path).unwrap();
            verify(&path, schema, entries(&body).count()).unwrap();
        }
        let pinned = single().row("current");
        let sim = std::fs::read_to_string(format!("{root}BENCH_sim.json")).unwrap();
        let rss: Vec<f64> = entries(&sim)
            .filter(|l| same_key(l, &pinned))
            .filter_map(|l| num(l, "rss_mib"))
            .collect();
        assert!(rss.len() >= 3 && rss.iter().all(|&r| r > 0.0), "{rss:?}");
    }

    /// The field names of one flat entry line, in order: the text before
    /// each `":`, back to its opening quote (no string value in these rows
    /// holds a `":`).
    fn keys(line: &str) -> Vec<&str> {
        let mut parts: Vec<&str> = line.split("\":").collect();
        parts.pop();
        parts.iter().filter_map(|p| p.rsplit('"').next()).collect()
    }

    /// Every committed `BENCH_net.json` row has exactly the fields
    /// [`NetRun::row`] writes for its kind and transport, so a row of a
    /// retired schema cannot stay committed.
    #[test]
    fn committed_net_rows_have_the_schema_netload_writes() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json");
        let body = std::fs::read_to_string(path).unwrap();
        verify(path, "autosel/bench-net/v1", entries(&body).count()).unwrap();
        for line in entries(&body) {
            let transport = raw_value(line, "transport").expect("net rows name a transport");
            let link = if transport == "\"tcp\"" {
                tcp([0; 6])
            } else {
                None
            };
            let phase = match raw_value(line, "kind") {
                Some("\"load\"") => load(),
                Some("\"sweep\"") => NetPhase::Sweep {
                    base_qps: 0.0,
                    factor: 0.0,
                    knee_qps: 0.0,
                    stages: vec![[0.0; 3]],
                    stage_measure_ms: 0,
                },
                other => panic!("unknown net row kind {other:?}: {line}"),
            };
            let written = net(phase, transport.trim_matches('"'), link).row("current");
            assert_eq!(keys(line), keys(&written), "stale row schema: {line}");
        }
    }
}
