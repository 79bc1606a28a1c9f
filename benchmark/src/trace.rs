//! The traced run's instruments: benchmark-side spans kept in memory, an
//! observer that turns the program's own events into per-hop spans for a
//! bounded sample of queries, the span file written when the run ends, and
//! the per-layer share table.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use autosel_obs::{Event, Fanout, NodeRef, ObsHandle, Observer, QueryRef, Registry, TraceTree};

use crate::json;
use crate::report::Report;

/// Queries whose full routing tree is kept (spans + `TraceTree`). The
/// registry still counts every event; the bound keeps a 100 000-node run's
/// trace in tens of MiB instead of gigabytes.
pub const SAMPLED_QUERIES: usize = 300;

/// One closed span. `trace` is the query id every span of one query shares;
/// times are nanoseconds since the run's span clock started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub trace: QueryRef,
    pub id: String,
    pub parent: Option<String>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Id of the benchmark's root span for a query.
fn root_id(q: QueryRef) -> String {
    format!("{q}")
}

/// Id of the span of `node` handling `q` (unique: a query visits a node at
/// most once).
fn hop_id(q: QueryRef, node: NodeRef) -> String {
    format!("{q}@{node}")
}

#[derive(Default)]
struct Sampled {
    accepted: HashSet<QueryRef>,
    /// `(query, node)` → (parent span id, start, end).
    hops: HashMap<(QueryRef, NodeRef), (String, u64, Option<u64>)>,
}

/// Observer that, once armed, follows the next [`SAMPLED_QUERIES`] queries
/// issued: feeds their events to a [`TraceTree`] and records a `core.hop`
/// span per `(query, node)` from `QueryReceived` (or the issue, at the
/// origin) to `ReplySent` (or completion), stamped with the host clock at
/// the moment the event was emitted.
struct Sampler {
    clock: Instant,
    armed: AtomicBool,
    tree: TraceTree,
    // Taken once per protocol event of the traced run; part of the tracing
    // overhead the run reports.
    state: Mutex<Sampled>,
}

impl Observer for Sampler {
    fn on_event(&self, ev: &Event) {
        let Some(q) = ev.query() else { return };
        let now = self.clock.elapsed().as_nanos() as u64;
        let mut st = self.state.lock().expect("sampler lock");
        if let Event::QueryIssued { .. } = ev {
            if self.armed.load(Ordering::Relaxed) && st.accepted.len() < SAMPLED_QUERIES {
                st.accepted.insert(q);
            }
        }
        if !st.accepted.contains(&q) {
            return;
        }
        self.tree.apply(ev);
        match *ev {
            Event::QueryIssued { node, .. } => {
                st.hops.insert((q, node), (root_id(q), now, None));
            }
            Event::QueryReceived {
                node,
                parent,
                duplicate: false,
                ..
            } => {
                st.hops.insert((q, node), (hop_id(q, parent), now, None));
            }
            Event::ReplySent { node, .. } | Event::QueryCompleted { node, .. } => {
                if let Some(hop) = st.hops.get_mut(&(q, node)) {
                    hop.2 = Some(now);
                }
            }
            _ => {}
        }
    }
}

/// Averages over the sampled queries' routing trees.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct TreeStats {
    pub queries: u64,
    pub hops: f64,
    pub depth: f64,
    pub overhead: f64,
    pub duplicates: f64,
    pub timeouts: u64,
    pub leaked: u64,
}

/// Per-kind event counts read from the registry at one moment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts(BTreeMap<String, u64>);

impl Counts {
    /// Events of `kind` (`query_issued`, `gossip_round`, …).
    pub fn of(&self, kind: &str) -> u64 {
        self.0.get(kind).copied().unwrap_or(0)
    }

    pub fn total(&self) -> u64 {
        self.0.values().sum()
    }

    /// `of(kind)` per issued query.
    pub fn per_query(&self, kind: &str) -> f64 {
        self.of(kind) as f64 / self.of("query_issued").max(1) as f64
    }

    /// The events counted since `earlier` was read.
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.of(k)))
                .collect(),
        )
    }
}

/// Everything installed for a traced run.
pub struct Tracing {
    registry: Arc<Registry>,
    sampler: Arc<Sampler>,
    clock: Instant,
    spans: Vec<Span>,
}

impl Tracing {
    pub fn new() -> Self {
        let clock = Instant::now();
        let sampler = Sampler {
            clock,
            armed: AtomicBool::new(false),
            tree: TraceTree::new(),
            state: Mutex::default(),
        };
        Tracing {
            registry: Arc::new(Registry::new()),
            sampler: Arc::new(sampler),
            clock,
            spans: Vec::new(),
        }
    }

    /// The handle to install: `Fanout(Registry, Sampler)`.
    pub fn handle(&self) -> ObsHandle {
        let mut fan = Fanout::new();
        fan.push(Arc::clone(&self.registry) as Arc<dyn Observer>);
        fan.push(Arc::clone(&self.sampler) as Arc<dyn Observer>);
        ObsHandle::of(fan)
    }

    /// Starts sampling: queries issued from now on are followed (set-up and
    /// warm-up queries before this are counted by the registry only).
    pub fn arm(&self) {
        self.sampler.armed.store(true, Ordering::Relaxed);
    }

    /// Whether the benchmark should record its own spans for `q`.
    pub fn wants(&self, q: QueryRef) -> bool {
        self.sampler
            .state
            .lock()
            .expect("sampler lock")
            .accepted
            .contains(&q)
    }

    fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.clock).as_nanos() as u64
    }

    /// Records the benchmark's root span of `q`.
    pub fn root(&mut self, q: QueryRef, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.spans.push(Span {
            trace: q,
            id: root_id(q),
            parent: None,
            name: "query",
            start_ns,
            end_ns,
        });
    }

    /// Records a span around one call into a layer, as a child of `q`'s
    /// root span.
    pub fn call(&mut self, q: QueryRef, name: &'static str, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.spans.push(Span {
            trace: q,
            id: format!("{q}/{name}"),
            parent: Some(root_id(q)),
            name,
            start_ns,
            end_ns,
        });
    }

    /// The registry's per-kind event counters, now.
    pub fn counts(&self) -> Counts {
        Counts(
            self.registry
                .snapshot()
                .counters
                .into_iter()
                .filter_map(|(k, v)| Some((k.strip_prefix("event.")?.to_string(), v)))
                .collect(),
        )
    }

    /// Tree statistics over the sampled queries that completed.
    pub fn tree_stats(&self) -> TreeStats {
        let tree = &self.sampler.tree;
        let mut s = TreeStats::default();
        for q in tree.queries() {
            let (Some(sum), Some(qt)) = (tree.summary(q), tree.query(q)) else {
                continue;
            };
            if qt.completed.is_none() {
                continue;
            }
            s.queries += 1;
            s.hops += sum.hops as f64;
            s.depth += sum.depth as f64;
            s.overhead += (sum.hops - sum.matched) as f64;
            s.duplicates += sum.duplicates as f64;
            s.timeouts += sum.timeouts;
            s.leaked += sum.leaked;
        }
        let n = s.queries.max(1) as f64;
        s.hops /= n;
        s.depth /= n;
        s.overhead /= n;
        s.duplicates /= n;
        s
    }

    /// Structural problems the `TraceTree` found (must stay empty).
    pub fn problems(&self) -> Vec<String> {
        self.sampler.tree.problems()
    }

    /// Benchmark spans plus the closed hop spans, ordered by start.
    pub fn all_spans(&self) -> Vec<Span> {
        let mut spans = self.spans.clone();
        let st = self.sampler.state.lock().expect("sampler lock");
        for (&(q, node), (parent, start, end)) in &st.hops {
            if let Some(end) = *end {
                spans.push(Span {
                    trace: q,
                    id: hop_id(q, node),
                    parent: Some(parent.clone()),
                    name: "core.hop",
                    start_ns: *start,
                    end_ns: end,
                });
            }
        }
        spans.sort_by(|a, b| (a.start_ns, &a.id).cmp(&(b.start_ns, &b.id)));
        spans
    }
}

/// Where the benchmark writes: `out/` beside its own manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn span_json(s: &Span) -> String {
    format!(
        "{{\"trace\": {}, \"span\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
        json::quote(&format!("{}", s.trace)),
        json::quote(&s.id),
        s.parent.as_deref().map_or("null".into(), json::quote),
        json::quote(s.name),
        s.start_ns,
        s.end_ns
    )
}

/// Writes the spans as JSON lines to `out/trace-<workload>.jsonl`.
fn write_spans(workload: &str, spans: &[Span]) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.jsonl"));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        writeln!(w, "{}", span_json(s))?;
    }
    w.flush()?;
    Ok(path)
}

/// Per span name: how many spans, and their mean self time in nanoseconds.
/// A span's self time is its duration minus the part of it its child spans
/// cover (children may overlap; what counts is their union).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64)> {
    let mut kids: HashMap<&str, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent.as_deref() {
            kids.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(k) = kids.get_mut(s.id.as_str()) {
            k.sort_unstable();
            let mut upto = s.start_ns;
            for &(a, b) in k.iter() {
                let (a, b) = (a.max(upto), b.min(s.end_ns));
                if a < b {
                    covered += b - a;
                    upto = b;
                }
            }
        }
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += ((s.end_ns - s.start_ns) - covered) as f64;
    }
    for v in out.values_mut() {
        v.1 /= v.0 as f64;
    }
    out
}

/// One line of the share table: a layer's label and its cost per query in
/// the traced run, in microseconds (its probe cost times how often the run
/// made that call per query).
pub type Row = (&'static str, f64);

/// Ends a traced run: writes the span file and prints the span self times
/// and each layer's share of `proc.cpu_us_per_query` (both already in
/// `rep`, as are the probe metrics the rows were computed from). Kernel time
/// is measured (`proc.sys_frac`), so it gets a row of its own; what is left
/// is user time no probe accounts for.
pub fn finish(workload: &str, rep: &mut Report, tracing: &Tracing, rows: &[Row]) {
    let spans = tracing.all_spans();
    match write_spans(workload, &spans) {
        Ok(path) => println!(
            "{workload:<16} trace: {} spans -> {}",
            spans.len(),
            path.display()
        ),
        Err(e) => rep.notes.push(format!("span file not written: {e}")),
    }
    for (name, (n, mean_ns)) in self_times(&spans) {
        println!(
            "{workload:<16} span {name:<28} n={n:<8} mean self time {:>12.2} us",
            mean_ns / 1e3
        );
    }
    let per_query = rep.metrics["proc.cpu_us_per_query"].value;
    let kernel = (
        "kernel (proc.sys_frac)",
        rep.metrics["proc.sys_frac"].value * per_query,
    );
    let attributed: f64 = rows.iter().chain([&kernel]).map(|r| r.1).sum();
    let rest = ("unattributed", per_query - attributed);
    println!("{workload:<16} share of proc.cpu_us_per_query = {per_query:.2} us (probe cost x measured count per query)");
    for (label, us) in rows.iter().chain([&kernel, &rest]) {
        println!(
            "{workload:<16}   {:<58} {:>12.2} us {:>6.1} %",
            label,
            us,
            us * 100.0 / per_query.max(1e-9)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> QueryRef {
        QueryRef::new(7, 0)
    }

    #[test]
    fn sampler_builds_hop_spans_with_causal_parents() {
        let t = Tracing::new();
        let obs = t.handle();
        t.arm();
        let q = q();
        obs.emit(|| Event::QueryIssued {
            at: 0,
            query: q,
            node: 7,
            sigma: None,
            count_only: false,
            matched: false,
        });
        obs.emit(|| Event::QueryForwarded {
            at: 0,
            query: q,
            from: 7,
            to: 9,
            level: 2,
            attempt: 1,
        });
        obs.emit(|| Event::QueryReceived {
            at: 1,
            query: q,
            node: 9,
            parent: 7,
            level: 2,
            matched: true,
            duplicate: false,
        });
        obs.emit(|| Event::ReplySent {
            at: 2,
            query: q,
            node: 9,
            to: 7,
            count: 1,
            attempt: 1,
        });
        obs.emit(|| Event::ReplyMerged {
            at: 3,
            query: q,
            node: 7,
            from: 9,
            count: 1,
            fresh: true,
            attempt: 1,
        });
        obs.emit(|| Event::QueryCompleted {
            at: 3,
            query: q,
            node: 7,
            count: 1,
        });
        assert!(t.wants(q));
        let counts = t.counts();
        assert_eq!(
            (
                counts.total(),
                counts.of("reply_sent"),
                counts.per_query("reply_sent")
            ),
            (6, 1, 1.0)
        );
        let spans = t.all_spans();
        let origin = spans.iter().find(|s| s.id == hop_id(q, 7)).unwrap();
        let child = spans.iter().find(|s| s.id == hop_id(q, 9)).unwrap();
        assert_eq!(origin.parent.as_deref(), Some(root_id(q).as_str()));
        assert_eq!(child.parent.as_deref(), Some(origin.id.as_str()));
        assert!(origin.start_ns <= child.start_ns && child.end_ns <= origin.end_ns);
        let stats = t.tree_stats();
        assert_eq!(
            (stats.queries, stats.hops, stats.depth, stats.overhead),
            (1, 2.0, 2.0, 1.0)
        );
        assert_eq!((stats.timeouts, stats.leaked), (0, 0));
        assert!(t.problems().is_empty());
    }

    #[test]
    fn sampler_waits_to_be_armed_and_stops_at_the_bound() {
        let t = Tracing::new();
        let obs = t.handle();
        let issue = |origin, seq| {
            let query = QueryRef::new(origin, seq);
            obs.emit(|| Event::QueryIssued {
                at: 0,
                query,
                node: origin,
                sigma: None,
                count_only: false,
                matched: true,
            });
        };
        issue(9, 0);
        assert!(!t.wants(QueryRef::new(9, 0)), "not armed yet");
        let before = t.counts();
        t.arm();
        for seq in 0..=SAMPLED_QUERIES as u32 {
            issue(1, seq);
        }
        assert!(t.wants(QueryRef::new(1, SAMPLED_QUERIES as u32 - 1)));
        assert!(!t.wants(QueryRef::new(1, SAMPLED_QUERIES as u32)));
        assert_eq!(
            t.counts().of("query_issued"),
            SAMPLED_QUERIES as u64 + 2,
            "registry counts all"
        );
        assert_eq!(
            t.counts().since(&before).of("query_issued"),
            SAMPLED_QUERIES as u64 + 1
        );
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let s = |id: &str, parent: Option<&str>, name, a, b| Span {
            trace: q(),
            id: id.into(),
            parent: parent.map(Into::into),
            name,
            start_ns: a,
            end_ns: b,
        };
        let all = vec![
            s("root", None, "query", 0, 100),
            s("a", Some("root"), "hop", 10, 40),
            s("b", Some("root"), "hop", 30, 60),
            s("c", Some("root"), "hop", 90, 120),
        ];
        let t = self_times(&all);
        assert_eq!(t["query"], (1, 100.0 - 50.0 - 10.0));
        assert_eq!(t["hop"], (3, 30.0));
    }

    #[test]
    fn span_lines_parse_as_json() {
        let span = Span {
            trace: q(),
            id: hop_id(q(), 9),
            parent: Some(root_id(q())),
            name: "core.hop",
            start_ns: 5,
            end_ns: 9,
        };
        let v = json::parse(&span_json(&span)).unwrap();
        assert_eq!(v.get("trace"), Some(&json::Value::Str("q7#0".into())));
        assert_eq!(v.get("span"), Some(&json::Value::Str("q7#0@9".into())));
        assert_eq!(v.get("end_ns").unwrap().as_f64(), Some(9.0));
    }
}
