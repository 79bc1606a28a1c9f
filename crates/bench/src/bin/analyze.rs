//! CI front-end for the simulator's interleaving explorer
//! (`overlay_sim::explore`).
//!
//! ```text
//! analyze explore [--nodes 3|4|5] [--queries 1|2] [--duplicates N] [--drops N]
//!                 [--race-timeouts] [--inject-dedup-bug] [--max-schedules N]
//! ```
//!
//! `explore` builds a bounded scenario and exhaustively model-checks its
//! message interleavings, printing the coverage report; exit status 1 on
//! an invariant violation *or* incomplete coverage (a budget-truncated
//! search proves nothing). The violating schedule — full and delta-debugged
//! minimal — is printed choice by choice so a CI failure is reproducible
//! locally with `replay`. This is the CI `explore-smoke` gate.
//! `--inject-dedup-bug` re-injects the historical dedup-reply bug and
//! *expects* detection (exit 1 if the explorer misses it) — a mutation
//! check that the checker can actually fail.

use std::process::ExitCode;

use attrspace::{Query, Space};
use overlay_sim::explore::{Explorer, Scenario};

fn usage() -> ! {
    eprintln!(
        "usage: analyze explore [--nodes 3|4|5] [--queries 1|2] [--duplicates N]\n\
         \x20                      [--drops N] [--race-timeouts] [--inject-dedup-bug]\n\
         \x20                      [--max-schedules N]"
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("explore") => explore_cmd(&args[1..]),
        _ => usage(),
    }
}

fn explore_cmd(args: &[String]) -> ExitCode {
    let mut nodes = 3usize;
    let mut queries = 1usize;
    let mut duplicates = 0usize;
    let mut drops = 0usize;
    let mut race_timeouts = false;
    let mut inject_bug = false;
    let mut explorer = Explorer::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let num = |it: &mut std::slice::Iter<String>| -> usize {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        };
        match a.as_str() {
            "--nodes" => nodes = num(&mut it),
            "--queries" => queries = num(&mut it),
            "--duplicates" => duplicates = num(&mut it),
            "--drops" => drops = num(&mut it),
            "--race-timeouts" => race_timeouts = true,
            "--inject-dedup-bug" => inject_bug = true,
            "--max-schedules" => explorer.max_schedules = num(&mut it) as u64,
            _ => usage(),
        }
    }
    if !(3..=5).contains(&nodes) || !(1..=2).contains(&queries) {
        usage();
    }

    // Node placements: origin in the low corner, matches spread over the
    // other quadrants of the 2-d demo space.
    let space = Space::uniform(2, 80, 3).expect("valid 2-d space geometry");
    let placements: [[u64; 2]; 5] = [[5, 5], [70, 5], [70, 70], [5, 70], [40, 40]];
    let mut sc = Scenario::new(space.clone());
    for vals in placements.iter().take(nodes) {
        sc.node(vals);
    }
    let q1 = Query::builder(&space)
        .min("a0", 60)
        .build()
        .expect("well-formed query");
    sc.query(0, q1, None);
    if queries == 2 {
        let q2 = Query::builder(&space)
            .min("a1", 60)
            .build()
            .expect("well-formed query");
        sc.query(2, q2, None);
    }
    sc.allow_duplicates(duplicates);
    sc.allow_drops(drops);
    if race_timeouts {
        sc.race_timeouts();
    }
    if inject_bug {
        // Node 1 relays the a0-half query down-tree; with duplication
        // enabled the bug is reachable.
        sc.inject_empty_dedup_reply_bug(1);
        if duplicates == 0 {
            sc.allow_duplicates(1);
        }
    }

    let report = explorer.explore(&sc);
    println!(
        "analyze explore: {} node(s), {} query(ies), dup={duplicates} drop={drops} \
         timeout-races={race_timeouts}",
        nodes, queries
    );
    println!(
        "  schedules={} steps={} pruned={} sleep_skipped={} exhausted={}",
        report.schedules, report.steps, report.pruned, report.sleep_skipped, report.exhausted
    );

    if let Some(v) = &report.violation {
        println!("  VIOLATION: {:?}", v.violation);
        println!("  schedule ({} choices):", v.schedule.len());
        for c in &v.schedule {
            println!("    {c}");
        }
        println!("  minimized ({} choices):", v.minimized.len());
        for c in &v.minimized {
            println!("    {c}");
        }
        if inject_bug {
            println!("  mutation check passed: injected bug detected and minimized");
            return ExitCode::SUCCESS;
        }
        return ExitCode::FAILURE;
    }
    if inject_bug {
        println!("  mutation check FAILED: injected bug went undetected");
        return ExitCode::FAILURE;
    }
    if !report.exhausted {
        println!("  schedule space NOT exhausted: raise budgets or shrink the scenario");
        return ExitCode::FAILURE;
    }
    println!("  verified: every interleaving passes the scenario's invariants");
    ExitCode::SUCCESS
}
