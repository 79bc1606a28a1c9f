//! Golden determinism pins: byte-identical [`QueryStats`] fingerprints for
//! fixed seeds, captured before the hot-path refactor (shared `Arc` state,
//! zero-copy delivery, cached cell resolution) and asserted after it. Any
//! change to RNG consumption order, event ordering, or stats accounting
//! shows up here as a diff against the pinned strings.
//!
//! The same scenarios also run through the parallel sweep runner
//! ([`bench::sweep::run_parallel`]) — the merged results must equal the
//! serial goldens for every thread count.
//!
//! To re-capture after an *intentional* protocol change:
//! `cargo test -p bench --test golden_determinism -- --ignored --nocapture`
//! and paste the printed strings over the constants below.
//!
//! One such recapture has happened: deduplicating per-delivery
//! `PollTimeouts` events (one covering poll per node instead of one per
//! message) removed redundant trailing polls, so the clock at quiescence —
//! and with it the *next* query's `issued`/`done_at` stamps — moved two
//! ticks earlier in the seed-42 static scenario. Matched sets, receiver
//! sets, message counts, overhead and per-query latencies are unchanged
//! everywhere.

use attrspace::{Query, Space};
use autosel_core::fasthash::Fnv64;
use bench::sweep::run_parallel;
use overlay_sim::{LatencyModel, Placement, SimCluster, SimConfig};

/// Static oracle-wired cluster: an unbounded query, a σ-bounded query and a
/// count-only query, each run to quiescence.
fn static_scenario(seed: u64) -> String {
    let space = Space::uniform(3, 80, 3).unwrap();
    let mut sim = SimCluster::new(space.clone(), SimConfig::fast_static(), seed);
    sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, 60);
    sim.wire_oracle();
    let mut lines = Vec::new();

    let q1 = Query::builder(&space).min("a0", 40).build().unwrap();
    let o1 = sim.random_node();
    let id1 = sim.issue_query(o1, q1, None);
    sim.run_to_quiescence();
    lines.push(sim.query_stats(id1).unwrap().fingerprint());

    let q2 = Query::builder(&space)
        .range("a0", 20, 59)
        .range("a1", 0, 39)
        .build()
        .unwrap();
    let o2 = sim.random_node();
    let id2 = sim.issue_query(o2, q2, Some(10));
    sim.run_to_quiescence();
    lines.push(sim.query_stats(id2).unwrap().fingerprint());

    let q3 = Query::builder(&space).min("a2", 30).build().unwrap();
    let o3 = sim.random_node();
    let id3 = sim.issue_count_query(o3, q3);
    sim.run_to_quiescence();
    lines.push(sim.query_stats(id3).unwrap().fingerprint());

    lines.join("\n")
}

/// Gossip-built routing under churn, with non-constant latency: the query
/// runs against whatever tables 18 virtual seconds of gossip produced.
fn churn_scenario(seed: u64) -> String {
    let space = Space::uniform(4, 80, 3).unwrap();
    let mut cfg = SimConfig {
        latency: LatencyModel::Uniform {
            lo_ms: 5,
            hi_ms: 50,
        },
        ..SimConfig::default()
    };
    cfg.gossip.period_ms = 1_000;
    let placement = Placement::Uniform { lo: 0, hi: 80 };
    let mut sim = SimCluster::new(space.clone(), cfg, seed);
    sim.populate(&placement, 50);
    sim.run_until(12_000);
    sim.churn_step(0.1, &placement);
    sim.run_until(18_000);
    let query = Query::builder(&space).min("a1", 30).build().unwrap();
    let origin = sim.random_node();
    let qid = sim.issue_query(origin, query, None);
    sim.run_until(60_000);
    sim.query_stats(qid).unwrap().fingerprint()
}

/// Every node's gossip-built state after 60 rounds and two churn steps:
/// the semantic view's `(id, age)` list *in view order*, the filled routing
/// slots and the `C0` ids, folded into one FNV-1a word (plus totals a human
/// can read). The query fingerprints above see gossip only through one
/// query's reach; this one moves if any view entry, its position, any slot
/// choice (i.e. any `rebuild` RNG draw) or any zero set differs.
fn gossip_state_scenario(seed: u64) -> String {
    // The paper's hotspot (§6.4): dense cells, so `C0` sets are non-empty
    // and slots have several candidates to draw from.
    gossip_state_in(
        Space::uniform(5, 80, 3).unwrap(),
        &Placement::Normal {
            center: 60.0,
            stddev: 10.0,
            max: 80,
        },
        seed,
    )
}

/// [`gossip_state_scenario`] in a space of 22 dimensions × 3 levels: 66
/// interleaved code bits, two more than a 64-bit cell code holds, so pairs
/// that agree everywhere but the last level's last two dimensions — and
/// every `C0` pair — are classified by the coordinate fallback. The
/// hotspot is tight (most attributes land in bucket 6) so such pairs are
/// common rather than astronomically rare.
fn wide_gossip_state_scenario(seed: u64) -> String {
    gossip_state_in(
        Space::uniform(22, 80, 3).unwrap(),
        &Placement::Normal {
            center: 65.0,
            stddev: 3.0,
            max: 80,
        },
        seed,
    )
}

fn gossip_state_in(space: Space, placement: &Placement, seed: u64) -> String {
    let mut cfg = SimConfig {
        latency: LatencyModel::Uniform {
            lo_ms: 5,
            hi_ms: 50,
        },
        ..SimConfig::default()
    };
    cfg.gossip.period_ms = 1_000;
    let mut sim = SimCluster::new(space, cfg, seed);
    sim.populate(placement, 300);
    sim.run_until(25_000);
    sim.churn_step(0.05, placement);
    sim.run_until(45_000);
    sim.churn_step(0.05, placement);
    sim.run_until(60_000);

    let mut h = Fnv64::new();
    let (mut entries, mut slots, mut zeros) = (0u64, 0u64, 0u64);
    for &id in sim.node_ids() {
        h.word(id);
        let view = sim.semantic_view_of(id).expect("gossip enabled");
        h.word(view.len() as u64);
        for d in view.iter() {
            h.word(d.id);
            h.word(u64::from(d.age));
        }
        entries += view.len() as u64;
        let table = sim.routing_of(id).expect("alive");
        for (level, dim, peer) in table.filled_slots() {
            h.word(u64::from(level));
            h.word(dim as u64);
            h.word(peer);
            slots += 1;
        }
        h.word(table.zero_count() as u64);
        for (peer, _) in table.zero_neighbors() {
            h.word(peer);
            zeros += 1;
        }
    }
    format!(
        "nodes={};view_entries={entries};slots={slots};zeros={zeros};fnv={:016x}",
        sim.len(),
        h.finish()
    )
}

const GOLDEN_STATIC_42: &str = "issued=0;truth=23;sigma=None;matched=[3, 4, 6, 7, 10, 19, 22, 24, 25, 26, 34, 35, 39, 43, 45, 50, 51, 52, 53, 55, 56, 58, 59];overhead=0;dups=0;msgs=46;done=true;done_at=Some(46);reported=23;recv=[3, 4, 6, 7, 10, 19, 22, 24, 25, 26, 34, 35, 39, 41, 43, 45, 50, 51, 52, 53, 55, 56, 58, 59]\n\
issued=60040;truth=18;sigma=Some(10);matched=[1, 2, 11, 17, 25, 26, 28, 30, 43, 44, 46, 49, 51, 56, 57, 58, 59];overhead=3;dups=0;msgs=40;done=true;done_at=Some(60080);reported=17;recv=[1, 2, 4, 11, 17, 24, 25, 26, 28, 30, 35, 43, 44, 46, 48, 49, 51, 56, 57, 58, 59]\n\
issued=120076;truth=43;sigma=None;matched=[0, 2, 3, 5, 7, 11, 12, 13, 14, 15, 16, 17, 19, 20, 21, 23, 24, 25, 26, 27, 28, 29, 31, 32, 33, 34, 37, 38, 39, 40, 42, 43, 44, 45, 48, 49, 50, 51, 52, 56, 57, 58, 59];overhead=9;dups=0;msgs=102;done=true;done_at=Some(120178);reported=43;recv=[0, 1, 2, 3, 5, 6, 7, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 37, 38, 39, 40, 41, 42, 43, 44, 45, 48, 49, 50, 51, 52, 53, 55, 56, 57, 58, 59]";
const GOLDEN_STATIC_1337: &str = "issued=0;truth=29;sigma=None;matched=[1, 5, 8, 10, 11, 12, 13, 15, 19, 20, 21, 23, 26, 27, 28, 31, 32, 38, 40, 41, 42, 45, 46, 47, 48, 49, 50, 58, 59];overhead=0;dups=0;msgs=56;done=true;done_at=Some(56);reported=29;recv=[1, 5, 8, 10, 11, 12, 13, 15, 19, 20, 21, 23, 26, 27, 28, 31, 32, 38, 40, 41, 42, 45, 46, 47, 48, 49, 50, 58, 59]\n\
issued=60052;truth=12;sigma=Some(10);matched=[0, 4, 6, 9, 19, 29, 33, 46, 52, 53, 54, 59];overhead=5;dups=0;msgs=34;done=true;done_at=Some(60086);reported=12;recv=[0, 1, 4, 6, 9, 10, 16, 19, 29, 32, 33, 46, 51, 52, 53, 54, 55, 59]\n\
issued=120082;truth=36;sigma=None;matched=[0, 1, 5, 7, 8, 14, 15, 16, 18, 20, 21, 22, 23, 27, 28, 29, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 45, 46, 47, 48, 50, 52, 53, 54, 55, 58];overhead=19;dups=0;msgs=108;done=true;done_at=Some(120190);reported=36;recv=[0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 52, 53, 54, 55, 58, 59]";
const GOLDEN_CHURN_42: &str = "issued=18000;truth=35;sigma=None;matched=[0, 1, 2, 3, 5, 8, 9, 10, 11, 15, 17, 18, 20, 21, 22, 23, 24, 27, 28, 30, 31, 32, 33, 34, 36, 37, 40, 42, 43, 44, 46, 49, 50, 52, 54];overhead=9;dups=0;msgs=89;done=true;done_at=Some(20304);reported=35;recv=[0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 14, 15, 17, 18, 19, 20, 21, 22, 23, 24, 27, 28, 30, 31, 32, 33, 34, 35, 36, 37, 38, 40, 42, 43, 44, 45, 46, 47, 48, 49, 50, 52, 54]";
const GOLDEN_CHURN_1337: &str = "issued=18000;truth=32;sigma=None;matched=[2, 4, 6, 10, 11, 12, 13, 14, 15, 16, 17, 19, 24, 25, 26, 27, 30, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 43, 45, 47, 52, 53];overhead=10;dups=0;msgs=82;done=true;done_at=Some(20126);reported=32;recv=[0, 2, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 16, 17, 19, 21, 23, 24, 25, 26, 27, 28, 30, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 43, 44, 45, 46, 47, 48, 52, 53]";

const GOLDEN_GOSSIP_STATE_42: &str =
    "nodes=300;view_entries=6000;slots=3795;zeros=126;fnv=906a0562f901fc66";
const GOLDEN_GOSSIP_STATE_1337: &str =
    "nodes=300;view_entries=6000;slots=3732;zeros=132;fnv=a1021c2a0a07fd89";
const GOLDEN_WIDE_GOSSIP_STATE_42: &str =
    "nodes=300;view_entries=6000;slots=4632;zeros=379;fnv=840720e828305052";
const GOLDEN_WIDE_GOSSIP_STATE_1337: &str =
    "nodes=300;view_entries=6000;slots=4629;zeros=350;fnv=642877c82b3269e5";

#[test]
#[ignore = "capture helper: prints the golden strings for pinning"]
fn print_goldens() {
    println!(
        "GOLDEN_WIDE_GOSSIP_STATE_42:\n{}\n",
        wide_gossip_state_scenario(42)
    );
    println!(
        "GOLDEN_WIDE_GOSSIP_STATE_1337:\n{}\n",
        wide_gossip_state_scenario(1337)
    );
    println!("GOLDEN_GOSSIP_STATE_42:\n{}\n", gossip_state_scenario(42));
    println!(
        "GOLDEN_GOSSIP_STATE_1337:\n{}\n",
        gossip_state_scenario(1337)
    );
    println!("GOLDEN_STATIC_42:\n{}\n", static_scenario(42));
    println!("GOLDEN_STATIC_1337:\n{}\n", static_scenario(1337));
    println!("GOLDEN_CHURN_42:\n{}\n", churn_scenario(42));
    println!("GOLDEN_CHURN_1337:\n{}\n", churn_scenario(1337));
}

#[test]
fn static_scenarios_match_pinned_goldens() {
    assert_eq!(
        static_scenario(42),
        GOLDEN_STATIC_42,
        "seed 42 diverged from golden"
    );
    assert_eq!(
        static_scenario(1337),
        GOLDEN_STATIC_1337,
        "seed 1337 diverged from golden"
    );
}

#[test]
fn churn_scenarios_match_pinned_goldens() {
    assert_eq!(
        churn_scenario(42),
        GOLDEN_CHURN_42,
        "seed 42 diverged from golden"
    );
    assert_eq!(
        churn_scenario(1337),
        GOLDEN_CHURN_1337,
        "seed 1337 diverged from golden"
    );
}

/// Captured at the parent of the allocation-free gossip round (PR 16),
/// before any hot-path edit, and asserted after it.
#[test]
fn gossip_state_matches_pinned_goldens() {
    assert_eq!(
        gossip_state_scenario(42),
        GOLDEN_GOSSIP_STATE_42,
        "seed 42 diverged from golden"
    );
    assert_eq!(
        gossip_state_scenario(1337),
        GOLDEN_GOSSIP_STATE_1337,
        "seed 1337 diverged from golden"
    );
}

/// Captured at the parent of the heap-free semantic ranking (inline cell
/// codes), before any hot-path edit, and asserted after it: the space is
/// wider than a 64-bit code, so this pins the coordinate fallback.
#[test]
fn wide_gossip_state_matches_pinned_goldens() {
    assert_eq!(
        wide_gossip_state_scenario(42),
        GOLDEN_WIDE_GOSSIP_STATE_42,
        "seed 42 diverged from golden"
    );
    assert_eq!(
        wide_gossip_state_scenario(1337),
        GOLDEN_WIDE_GOSSIP_STATE_1337,
        "seed 1337 diverged from golden"
    );
}

/// The parallel runner must reproduce the serial goldens bit-for-bit at any
/// thread count — job isolation plus stable merge order is the whole
/// determinism contract.
#[test]
fn goldens_hold_under_parallel_runner() {
    for threads in [1, 2, 4] {
        let jobs: Vec<Box<dyn FnOnce() -> String + Send>> = vec![
            Box::new(|| static_scenario(42)),
            Box::new(|| static_scenario(1337)),
            Box::new(|| churn_scenario(42)),
            Box::new(|| churn_scenario(1337)),
        ];
        let out = run_parallel(jobs, threads);
        assert_eq!(out[0], GOLDEN_STATIC_42, "threads={threads}");
        assert_eq!(out[1], GOLDEN_STATIC_1337, "threads={threads}");
        assert_eq!(out[2], GOLDEN_CHURN_42, "threads={threads}");
        assert_eq!(out[3], GOLDEN_CHURN_1337, "threads={threads}");
    }
}
