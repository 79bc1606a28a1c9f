//! Digest parity between the simulator and the pinned benchmark
//! trajectory.
//!
//! `BENCH_sim.json` pins a per-N digest of 40 best-case queries against an
//! oracle-wired static cluster (see `sweepbench`). This test replays the
//! N=1000 point in-process and asserts the exact pinned value. Any
//! hot-path data structure that perturbs event order, RNG draw order or
//! iteration order moves this digest — failing here, not silently in the
//! bench file.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use attrspace::Space;
use overlay_sim::workload::best_case_query;
use overlay_sim::{Placement, SimCluster, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The `current`-tag N=1000 digest in `BENCH_sim.json`. Re-pin together
/// with the bench file (and state why) if a change intentionally alters
/// execution order.
const PINNED_N1000_DIGEST: u64 = 0x022c_8805_bf06_2b8c;

/// Mirrors `sweepbench::single_run(1000, 42)`: same space, placement,
/// workload constants (f = 0.125, σ = 50 — `bench::experiments` defaults,
/// inlined because sim does not depend on bench) and hashing scheme.
#[test]
fn full_run_digest_matches_pinned_bench_entry() {
    let space = Space::uniform(5, 80, 3).expect("space");
    let placement = Placement::Uniform { lo: 0, hi: 80 };
    let mut sim = SimCluster::new(space.clone(), SimConfig::fast_static(), 42);
    sim.populate(&placement, 1000);
    sim.wire_oracle();

    let mut rng = StdRng::seed_from_u64(42 ^ 0x51EE_BE7C);
    let mut hasher = DefaultHasher::new();
    for _ in 0..40 {
        let q = best_case_query(&space, 0.125, &mut rng);
        let origin = sim.random_node();
        let qid = sim.issue_query(origin, q, Some(50));
        sim.run_to_quiescence();
        sim.query_stats(qid)
            .expect("stats")
            .fingerprint()
            .hash(&mut hasher);
        sim.forget_query(qid);
    }
    assert_eq!(
        hasher.finish(),
        PINNED_N1000_DIGEST,
        "simulation digest diverged from the pinned BENCH_sim.json N=1000 entry; \
         if intentional, re-pin the bench file and this constant together"
    );
}
