//! Watch the overlay absorb continuous churn: nodes leave ungracefully and
//! rejoin under fresh identities every 10 virtual seconds while queries keep
//! flowing — a compact rendition of the paper's §6.6 (Fig. 11).
//!
//! Run with: `cargo run --release --example churn_survival`

use autosel::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let space = Space::uniform(5, 80, 3)?;
    let mut cfg = SimConfig {
        latency: LatencyModel::Constant { ms: 5 },
        ..SimConfig::default()
    };
    cfg.gossip.period_ms = 10_000; // the paper's 10 s period, virtual time

    let placement = Placement::Uniform { lo: 0, hi: 80 };
    let mut cluster = SimCluster::new(space.clone(), cfg, 1234);
    cluster.populate(&placement, 1_000);

    // Let gossip build the routing tables from nothing (~25 rounds).
    println!("building overlay by gossip…");
    cluster.run_until(250_000);

    println!("probe  churned-so-far  delivery");
    let mut churned = 0usize;
    for probe in 0..12 {
        // One probe query (unbounded σ, exactly like the paper's delivery
        // measurements), racing against ongoing churn.
        let query = Query::builder(&space).min("a0", 40).min("a3", 20).build()?;
        let origin = cluster.random_node();
        let qid = cluster.issue_query(origin, query, None);

        // 0.2% of the population churns every 10 s — the Gnutella-grade
        // churn rate of §6.6 — while the query is in flight.
        for _ in 0..6 {
            cluster.churn_step(0.002, &placement);
            churned += 2;
            let t = cluster.now() + 10_000;
            cluster.run_until(t);
        }

        let stats = cluster.query_stats(qid).expect("stats");
        println!("{:>5}  {:>14}  {:.3}", probe, churned, stats.delivery());
        cluster.forget_query(qid);
    }
    println!(
        "\ndelivery stays near 1.0 while the population is continuously\n\
              replaced — no repair protocol beyond plain gossip (§6.6)."
    );
    Ok(())
}
