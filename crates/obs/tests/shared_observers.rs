//! Observers shared by several emitting threads — the way the live runtime
//! uses them, with every shard emitting into one fanout. Four emitters and
//! one reader run against the same registry, flight recorder, trace tree
//! and JSONL sink; afterwards every sink must account for every event, and
//! each emitter's events must come out in the order it emitted them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use autosel_obs::jsonl::parse_trace;
use autosel_obs::{
    Event, Fanout, FlightRecorder, JsonlSink, Layer, ObsHandle, Observer, QueryRef, Registry,
    TraceTree,
};

const EMITTERS: u64 = 4;
const QUERIES: u32 = 150;
const FLIGHT_CAPACITY: usize = 512;

/// Emitter `e`'s fixed script: per query an issue, one forwarded hop that
/// replies and is merged, completion, and a gossip round; every tenth
/// query also a view change.
fn script(e: u64) -> Vec<Event> {
    let child = 100 + e;
    let mut out = Vec::new();
    for seq in 0..QUERIES {
        let (at, query) = (u64::from(seq), QueryRef::new(e, seq));
        out.extend([
            Event::QueryIssued {
                at,
                query,
                node: e,
                sigma: None,
                count_only: false,
                matched: true,
            },
            Event::QueryForwarded {
                at,
                query,
                from: e,
                to: child,
                level: 0,
                attempt: 1,
            },
            Event::QueryReceived {
                at,
                query,
                node: child,
                parent: e,
                level: 0,
                matched: true,
                duplicate: false,
            },
            Event::ReplySent {
                at,
                query,
                node: child,
                to: e,
                count: 1,
                attempt: 1,
            },
            Event::ReplyMerged {
                at,
                query,
                node: e,
                from: child,
                count: 1,
                fresh: true,
                attempt: 1,
            },
            Event::QueryCompleted {
                at,
                query,
                node: e,
                count: 2,
            },
            Event::GossipRound {
                at,
                node: e,
                layer: if seq % 2 == 0 {
                    Layer::Random
                } else {
                    Layer::Semantic
                },
                view_size: 8,
                mean_age_x1000: 1_500,
                replaced: 1,
            },
        ]);
        if seq % 10 == 0 {
            out.push(Event::ViewChange {
                at,
                node: e,
                links: 6,
                zero: 1,
                changed: 2,
            });
        }
    }
    out
}

/// The emitter an event came from: every scripted event names it either
/// as its query's origin or as its node.
fn emitter_of(ev: &Event) -> u64 {
    match *ev {
        Event::GossipRound { node, .. } | Event::ViewChange { node, .. } => node,
        _ => {
            ev.query()
                .expect("scripted protocol events carry a query")
                .origin
        }
    }
}

#[test]
fn shared_observers_account_for_every_event_from_every_thread() {
    let scripts: Vec<Vec<Event>> = (0..EMITTERS).map(script).collect();
    let total: usize = scripts.iter().map(Vec::len).sum();
    let mut expected: BTreeMap<&str, u64> = BTreeMap::new();
    for ev in scripts.iter().flatten() {
        *expected.entry(ev.counter_name()).or_default() += 1;
    }

    let registry = Arc::new(Registry::new());
    let flight = Arc::new(FlightRecorder::new(FLIGHT_CAPACITY));
    let trace = Arc::new(TraceTree::new());
    let (sink, buf) = JsonlSink::shared_buffer();
    let sink = Arc::new(sink);
    let mut fan = Fanout::new();
    fan.push(Arc::clone(&registry) as Arc<dyn Observer>);
    fan.push(Arc::clone(&flight) as Arc<dyn Observer>);
    fan.push(Arc::clone(&trace) as Arc<dyn Observer>);
    fan.push(Arc::clone(&sink) as Arc<dyn Observer>);
    let obs = ObsHandle::of(fan);

    let start = Arc::new(Barrier::new(EMITTERS as usize + 1));
    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let (registry, flight, start, done) = (
            Arc::clone(&registry),
            Arc::clone(&flight),
            Arc::clone(&start),
            Arc::clone(&done),
        );
        thread::spawn(move || {
            start.wait();
            let mut last_seen = 0;
            let mut rounds = 0u64;
            loop {
                // Read the flag first, so one full round follows the last emit.
                let finished = done.load(Ordering::Acquire);
                let snap = registry.snapshot();
                let get = |name: &str| {
                    snap.counters
                        .iter()
                        .find(|(n, _)| n == name)
                        .map_or(0, |&(_, v)| v)
                };
                // Each emitter completes a query only after issuing it, and
                // a snapshot is taken under the registry's one lock.
                assert!(get("event.query_completed") <= get("event.query_issued"));
                assert!(snap.counters.iter().all(|&(_, v)| v <= total as u64));
                let seen = flight.total_seen();
                assert!(seen >= last_seen, "total_seen went backwards");
                last_seen = seen;
                assert!(flight.recent().len() <= FLIGHT_CAPACITY);
                let mut dump = Vec::new();
                let lines = flight.dump_jsonl(&mut dump).expect("in-memory write");
                let parsed = parse_trace(std::str::from_utf8(&dump).expect("utf8"))
                    .expect("a dump taken mid-run parses");
                assert_eq!(parsed.len() as u64, lines);
                rounds += 1;
                if finished {
                    return rounds;
                }
            }
        })
    };
    let emitters: Vec<_> = scripts
        .iter()
        .cloned()
        .map(|events| {
            let (obs, start) = (obs.clone(), Arc::clone(&start));
            thread::spawn(move || {
                start.wait();
                for ev in events {
                    obs.emit(|| ev);
                }
            })
        })
        .collect();
    for h in emitters {
        h.join().expect("emitter thread");
    }
    done.store(true, Ordering::Release);
    assert!(reader.join().expect("reader thread") >= 1);

    // Registry: every per-kind counter matches what was emitted.
    for (&name, &n) in &expected {
        assert_eq!(registry.counter(name), n, "{name}");
    }
    let kinds = registry
        .snapshot()
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("event."))
        .count();
    assert_eq!(
        kinds,
        expected.len(),
        "no counter for a kind that was never emitted"
    );

    // Flight recorder: saw everything, holds the newest K, and each
    // emitter's share of those is the tail of its script.
    assert_eq!(flight.total_seen(), total as u64);
    let recent = flight.recent();
    assert_eq!(recent.len(), FLIGHT_CAPACITY);
    for (e, script) in scripts.iter().enumerate() {
        let held: Vec<&Event> = recent
            .iter()
            .filter(|ev| emitter_of(ev) == e as u64)
            .collect();
        let tail: Vec<&Event> = script[script.len() - held.len()..].iter().collect();
        assert_eq!(held, tail, "emitter {e}'s events in the ring");
    }

    // JSONL: one whole line per event, each emitter's lines in its order.
    sink.flush().expect("in-memory flush");
    assert_eq!(sink.io_errors(), 0);
    let text = String::from_utf8(buf.lock().expect("shared buffer lock").clone()).expect("utf8");
    assert_eq!(text.lines().count(), total);
    let parsed = parse_trace(&text).expect("interleaved lines stay whole");
    for (e, script) in scripts.iter().enumerate() {
        let mine: Vec<&Event> = parsed
            .iter()
            .filter(|ev| emitter_of(ev) == e as u64)
            .collect();
        assert_eq!(
            mine,
            script.iter().collect::<Vec<_>>(),
            "emitter {e}'s lines"
        );
    }

    // Trace tree: every issued query, each a clean two-hop tree.
    assert_eq!(trace.queries().len(), EMITTERS as usize * QUERIES as usize);
    assert!(trace.problems().is_empty(), "{:?}", trace.problems());
    for q in trace.queries() {
        let qt = trace.query(q).expect("listed query");
        assert_eq!(
            (qt.hops.len(), qt.completed.map(|(_, n)| n)),
            (2, Some(2)),
            "{q}"
        );
    }
}
