//! Decentralized job scheduling on top of autonomous resource selection —
//! the paper's "future work" layer: placement queries carry a `free_slots`
//! dynamic attribute, so machines at capacity exclude themselves with no
//! central allocator anywhere.
//!
//! Run with: `cargo run --release --example job_scheduling`

use autosel::prelude::*;
use autosel::scheduler::{JobSpec, Scheduler};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let space = Space::uniform(4, 80, 3)?;
    let mut cluster = SimCluster::new(space.clone(), SimConfig::fast_static(), 2026);
    cluster.populate(&Placement::Uniform { lo: 0, hi: 80 }, 1_500);
    cluster.wire_oracle();

    // Every machine has 2 job slots, self-advertised as a dynamic attribute.
    let mut sched = Scheduler::new(cluster, 2);

    let batch = JobSpec {
        name: "nightly-batch".into(),
        query: Query::builder(&space).min("a0", 30).build()?,
        dynamic: Vec::new(),
        replicas: 64,
    };
    let latency_sensitive = JobSpec {
        name: "edge-service".into(),
        query: Query::builder(&space).min("a1", 60).min("a2", 60).build()?,
        dynamic: Vec::new(),
        replicas: 12,
    };

    println!("{:<16} {:>9} {:>12}", "job", "machines", "utilization");
    let mut tickets = Vec::new();
    for round in 0..6 {
        let spec = if round % 2 == 0 {
            &batch
        } else {
            &latency_sensitive
        };
        match sched.submit(spec) {
            Ok(alloc) => {
                println!(
                    "{:<16} {:>9} {:>11.1}%",
                    spec.name,
                    alloc.nodes.len(),
                    100.0 * sched.utilization()
                );
                tickets.push(alloc.job);
            }
            Err(e) => println!("{:<16} placement failed: {e}", spec.name),
        }
    }

    // Finish half the jobs: capacity flows back with no registry to update.
    for t in tickets.drain(..).step_by(2) {
        sched.release(t);
    }
    println!(
        "after releases: utilization {:.1}%",
        100.0 * sched.utilization()
    );

    // The freed capacity is immediately visible to the next query.
    let refill = sched.submit(&batch)?;
    println!("refill placed on {} machines", refill.nodes.len());
    Ok(())
}
