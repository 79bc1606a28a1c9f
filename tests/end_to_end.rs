//! Cross-crate integration: synthetic traces feed a fitted space, the
//! simulator answers queries over it, and the DHT baseline shows the load
//! imbalance the paper contrasts against (Fig. 9b in miniature).

use autosel::dht::{Ring, SwordIndex};
use autosel::prelude::*;
use autosel::sim::LoadHistogram;

#[test]
fn boinc_traces_through_fitted_space_and_simulator() {
    let hosts: Vec<_> = HostGenerator::new(77).take(1_500).collect();
    let rows: Vec<Vec<u64>> = hosts.iter().map(|h| h.to_values()).collect();
    let space = fit_space(&rows, 3).expect("fit space");

    let mut cluster = SimCluster::new(space.clone(), SimConfig::fast_static(), 3);
    cluster.populate(&Placement::Trace(rows.clone()), rows.len());
    cluster.wire_oracle();

    // Multi-core, RAM-rich machines.
    let query = Query::builder(&space)
        .min("cpu_cores", 4)
        .min("ram_mb", 2_048)
        .build()
        .expect("valid query");
    let truth = rows.iter().filter(|r| r[0] >= 4 && r[2] >= 2_048).count();

    let origin = cluster.random_node();
    let qid = cluster.issue_query(origin, query, None);
    cluster.run_to_quiescence();
    let stats = cluster.query_stats(qid).expect("stats");
    assert_eq!(stats.truth as usize, truth);
    assert_eq!(stats.delivery(), 1.0, "all {truth} candidates reached");
    assert_eq!(stats.duplicates, 0);
    assert_eq!(
        cluster.query_result(qid).expect("completed").len(),
        truth,
        "all candidates reported"
    );
}

#[test]
fn load_balance_beats_dht_baseline_on_skewed_traces() {
    // The headline of §6.4: on skewed attributes, delegation (SWORD on a
    // DHT) concentrates query traffic on few registry nodes; autonomous
    // selection spreads it.
    let hosts: Vec<_> = HostGenerator::new(42).take(800).collect();
    let rows: Vec<Vec<u64>> = hosts.iter().map(|h| h.to_values()).collect();
    let space = fit_space(&rows, 3).expect("fit space");

    // Our system: issue 50 σ-bounded queries from random nodes.
    let mut cluster = SimCluster::new(space.clone(), SimConfig::fast_static(), 9);
    cluster.populate(&Placement::Trace(rows.clone()), rows.len());
    cluster.wire_oracle();
    cluster.reset_load();
    for i in 0..50 {
        let query = Query::builder(&space)
            .min("ram_mb", if i % 2 == 0 { 512 } else { 1_024 })
            .exact("os_family", 0) // the 87%-popular value: worst skew
            .build()
            .expect("valid query");
        let origin = cluster.random_node();
        let qid = cluster.issue_query(origin, query, Some(50));
        cluster.run_to_quiescence();
        cluster.forget_query(qid);
    }
    let ours = cluster.load_histogram();

    // DHT baseline: same resources, same 50 queries.
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
    for i in 0..50usize {
        let ram_lo = if i % 2 == 0 { 512 } else { 1_024 };
        let mut filters = vec![(0u64, u64::MAX); 16];
        filters[2] = (ram_lo, u64::MAX);
        filters[8] = (0, 0);
        // SWORD searches the os_family range (the skewed attribute).
        let _ = index.range_query(starts[i * 7 % starts.len()], 8, (0, 0), &filters, Some(50));
    }
    let dht = LoadHistogram::new(index.load_per_node());

    // Compare imbalance: max/mean ratio.
    let ours_ratio = ours.max() as f64 / ours.mean().max(1e-9);
    let dht_ratio = dht.max() as f64 / dht.mean().max(1e-9);
    assert!(
        dht_ratio > 3.0 * ours_ratio,
        "DHT should be far more imbalanced: ours {ours_ratio:.1}, dht {dht_ratio:.1}"
    );
}

#[test]
fn best_and_worst_case_queries_bracket_overhead() {
    use autosel::sim::workload::{best_case_query, worst_case_query};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let space = Space::uniform(5, 80, 3).expect("space");
    let mut cluster = SimCluster::new(space.clone(), SimConfig::fast_static(), 21);
    cluster.populate(&Placement::Uniform { lo: 0, hi: 80 }, 3_000);
    cluster.wire_oracle();

    let mut rng = StdRng::seed_from_u64(4);
    let f = 0.125;
    let mut best_overhead = 0u64;
    let mut worst_overhead = 0u64;
    for _ in 0..5 {
        let bq = best_case_query(&space, f, &mut rng);
        let origin = cluster.random_node();
        let qid = cluster.issue_query(origin, bq, None);
        cluster.run_to_quiescence();
        best_overhead += cluster.query_stats(qid).expect("stats").overhead;
        cluster.forget_query(qid);

        let wq = worst_case_query(&space, f);
        let origin = cluster.random_node();
        let qid = cluster.issue_query(origin, wq, None);
        cluster.run_to_quiescence();
        worst_overhead += cluster.query_stats(qid).expect("stats").overhead;
        cluster.forget_query(qid);
    }
    assert!(
        worst_overhead > 3 * best_overhead.max(1),
        "worst-case routing must cost much more: best {best_overhead}, worst {worst_overhead}"
    );
}
