//! Matchmaking jobs onto a volunteer-computing population — the paper's
//! motivating scenario: heterogeneous resources (synthetic BOINC hosts, 16
//! attributes), jobs with very different requirement profiles, and a
//! selection service with no registry anywhere.
//!
//! Run with: `cargo run --example datacenter_matchmaking`

use autosel::prelude::*;
use autosel::protocol::DynamicConstraint;
use autosel::sim::traces::ATTRIBUTE_NAMES;

struct JobProfile {
    name: &'static str,
    sigma: u32,
    build: fn(&Space) -> Query,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Synthesize a 5 000-host BOINC-like population and fit the attribute
    // space to its skew: bucket boundaries are sample quantiles, so popular
    // values (e.g. 1-core Windows boxes) don't crowd one cell chain.
    let hosts: Vec<_> = HostGenerator::new(2026).take(5_000).collect();
    let rows: Vec<Vec<u64>> = hosts.iter().map(|h| h.to_values()).collect();
    let space = fit_space(&rows, 3)?;
    println!(
        "fitted a {}-dimensional space over {} hosts",
        space.dims(),
        rows.len()
    );

    let mut cluster = SimCluster::new(space.clone(), SimConfig::fast_static(), 99);
    cluster.populate(&Placement::Trace(rows), 5_000);
    cluster.wire_oracle();

    let jobs = [
        JobProfile {
            name: "render farm (parallel, CPU-bound)",
            sigma: 64,
            build: |s| {
                Query::builder(s)
                    .min("cpu_cores", 4)
                    .min("cpu_mhz", 2_000)
                    .min("availability_pct", 50)
                    .build()
                    .expect("valid query")
            },
        },
        JobProfile {
            name: "in-memory analytics (RAM-heavy)",
            sigma: 16,
            build: |s| {
                Query::builder(s)
                    .min("ram_mb", 4_096)
                    .min("mem_bw_mbps", 5_000)
                    .build()
                    .expect("valid query")
            },
        },
        JobProfile {
            name: "data staging (disk + bandwidth)",
            sigma: 8,
            build: |s| {
                Query::builder(s)
                    .min("disk_free_gb", 100)
                    .min("bandwidth_down_kbps", 10_000)
                    .min("bandwidth_up_kbps", 2_000)
                    .build()
                    .expect("valid query")
            },
        },
        JobProfile {
            name: "linux-only CI runners",
            sigma: 32,
            build: |s| {
                Query::builder(s)
                    .exact("os_family", 1)
                    .min("cpu_cores", 2)
                    .build()
                    .expect("valid query")
            },
        },
    ];

    // Dynamic attributes (footnote 1 of the paper): current load changes too
    // fast to gossip, so queries check it *locally* on each candidate.
    // Mark every third host as currently overloaded.
    const CURRENT_LOAD: u32 = 0;
    for (i, id) in cluster.node_ids().to_vec().into_iter().enumerate() {
        cluster.set_dynamic(id, CURRENT_LOAD, if i % 3 == 0 { 95 } else { 10 });
    }

    for job in &jobs {
        let query = (job.build)(&space);
        let origin = cluster.random_node();
        let qid = cluster.issue_query(origin, query, Some(job.sigma));
        cluster.run_to_quiescence();
        let matches = cluster.query_result(qid).expect("completed");
        let stats = cluster.query_stats(qid).expect("stats");
        println!(
            "\n{}\n  requested σ = {:>3}  candidates = {:>5}  selected = {:>3}  \
             messages = {:>4}  overhead hops = {:>3}",
            job.name,
            job.sigma,
            stats.truth,
            matches.len(),
            stats.messages,
            stats.overhead,
        );
        if let Some(m) = matches.first() {
            let vals = m.values.values();
            print!("  e.g. node {}:", m.node);
            for (k, name) in ATTRIBUTE_NAMES.iter().enumerate().take(5) {
                print!(" {name}={}", vals[k]);
            }
            println!(" …");
        }
        cluster.forget_query(qid);
    }

    // Same render-farm job, now requiring load < 50 *right now*: the
    // routing is identical, but overloaded hosts exclude themselves locally.
    let query = (jobs[0].build)(&space);
    let dynamic = vec![DynamicConstraint {
        key: CURRENT_LOAD,
        range: Range { lo: 0, hi: 49 },
    }];
    let origin = cluster.random_node();
    let qid = cluster.issue(
        origin,
        QueryRequest {
            dynamic,
            ..QueryRequest::matches(query, Some(64))
        },
    );
    cluster.run_to_quiescence();
    let matches = cluster.query_result(qid).expect("completed");
    println!(
        "\n{} + dynamic load < 50\n  selected = {:>3} (overloaded hosts filtered themselves out)",
        jobs[0].name,
        matches.len(),
    );
    Ok(())
}
