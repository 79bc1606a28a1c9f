//! A miniature PlanetLab run over *real TCP sockets*: 40 live peers on
//! loopback, gossip maintaining the overlay, a kill of 10% of the network,
//! and queries before and after showing recovery — §6.7 / Fig. 13 in small.
//!
//! Run with: `cargo run --release --example planetlab_emulation`

use std::time::Duration;

use autosel::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let space = Space::uniform(3, 80, 3)?;
    let mut rng = StdRng::seed_from_u64(55);
    let points: Vec<Point> = (0..40)
        .map(|_| {
            let vals: Vec<u64> = (0..3).map(|_| rng.gen_range(0..80)).collect();
            space.point(&vals).expect("valid point")
        })
        .collect();

    let cfg = NetConfig {
        gossip: GossipConfig { period_ms: 40, ..GossipConfig::default() },
        injected_latency_ms: None, // real socket latency only
        ..NetConfig::default()
    };
    println!("spawning 40 peers, each with its own TCP listener on loopback…");
    let mut cluster = NetCluster::spawn(
        space.clone(),
        points,
        cfg,
        Transport::tcp(space.clone()),
        8,
    )
    ?;

    // Convergence: ~50 gossip rounds of 40 ms.
    std::thread::sleep(Duration::from_secs(2));

    let query = Query::builder(&space).min("a0", 20).build()?;
    let origin = cluster.random_node();
    let before = cluster
        .query(origin, query.clone(), None, Duration::from_secs(30))
        
        .expect("pre-failure query");
    println!(
        "before failure: {}/{} matching peers reported (delivery {:.2})",
        before.matches.len(),
        before.truth,
        before.delivery()
    );

    let victims = cluster.kill_fraction(0.10);
    println!("killed {} peers ungracefully (no goodbye messages)", victims.len());

    // Give gossip a recovery window, then measure again.
    std::thread::sleep(Duration::from_secs(2));
    let origin = cluster.random_node();
    let after = cluster
        .query(origin, query, None, Duration::from_secs(30))
        
        .expect("post-failure query");
    println!(
        "after recovery: {}/{} matching peers reported (delivery {:.2})",
        after.matches.len(),
        after.truth,
        after.delivery()
    );

    let traffic = cluster.traffic();
    let total_sent: u64 = traffic.values().map(|&(s, _)| s).sum();
    println!(
        "{} live peers exchanged {} real TCP messages during the run",
        traffic.len(),
        total_sent
    );
    cluster.shutdown();
    Ok(())
}
