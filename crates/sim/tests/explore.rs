//! End-to-end explorer tests: exhaustive verification of bounded clean
//! scenarios, and the mutation smoke test — re-inject the historical
//! dedup-reply bug and prove the explorer finds it, minimizes it, and the
//! minimized trace replays to the same violation.

use attrspace::{Query, Space};
use overlay_sim::explore::{replay, Explorer, Scenario};
use overlay_sim::InvariantViolation;

/// Three nodes in the 2-d demo space: the origin in the low corner and two
/// matches in the `a0 >= 60` half, so the query fans out and replies race.
fn three_node_scenario() -> Scenario {
    let space = Space::uniform(2, 80, 3).expect("valid 2-d space geometry");
    let mut sc = Scenario::new(space.clone());
    let origin = sc.node(&[5, 5]);
    sc.node(&[70, 5]);
    sc.node(&[70, 70]);
    let q = Query::builder(&space)
        .min("a0", 60)
        .build()
        .expect("well-formed query");
    sc.query(origin, q, None);
    sc
}

/// A two-query scenario: the protocol keeps exactly one message in flight
/// per query (iterative deepening), so genuine schedule branching needs a
/// second concurrent query, duplication, or timeout races.
fn two_query_scenario() -> Scenario {
    let space = Space::uniform(2, 80, 3).expect("valid 2-d space geometry");
    let mut sc = Scenario::new(space.clone());
    let a = sc.node(&[5, 5]);
    sc.node(&[70, 5]);
    let c = sc.node(&[70, 70]);
    let q1 = Query::builder(&space)
        .min("a0", 60)
        .build()
        .expect("well-formed query");
    let q2 = Query::builder(&space)
        .min("a1", 60)
        .build()
        .expect("well-formed query");
    sc.query(a, q1, None);
    sc.query(c, q2, None);
    sc
}

#[test]
fn strict_three_node_one_query_is_exhaustively_verified() {
    let report = Explorer::default().explore(&three_node_scenario());
    assert!(
        report.verified(),
        "strict scenario must verify: exhausted={}, violation={:?}",
        report.exhausted,
        report.violation
    );
    // A verified *finding*, not a shortcut: the protocol walks the overlay
    // with one in-flight message per query, so a lone query admits exactly
    // one delivery order.
    assert_eq!(
        report.schedules, 1,
        "single-query runs are sequential by design"
    );
}

#[test]
fn dpor_reductions_do_real_work() {
    let report = Explorer::default().explore(&two_query_scenario());
    assert!(report.verified());
    assert!(report.schedules >= 2, "two concurrent queries must branch");
    assert!(
        report.pruned + report.sleep_skipped > 0,
        "a branching scenario should exercise at least one reduction \
         (pruned={}, sleep_skipped={})",
        report.pruned,
        report.sleep_skipped
    );
}

#[test]
fn duplicates_without_the_bug_stay_exactly_once() {
    let mut sc = three_node_scenario();
    sc.allow_duplicates(1);
    let report = Explorer::default().explore(&sc);
    assert!(
        report.verified(),
        "attempt-tagged replies must keep accounting exact under duplication: {:?}",
        report.violation
    );
}

#[test]
fn drops_are_survived_under_relaxed_invariants() {
    let mut sc = three_node_scenario();
    sc.allow_drops(1);
    let report = Explorer::default().explore(&sc);
    assert!(
        report.verified(),
        "message loss must degrade results, not correctness: {:?}",
        report.violation
    );
}

#[test]
fn timeout_races_are_survived_under_relaxed_invariants() {
    let mut sc = three_node_scenario();
    sc.race_timeouts();
    let report = Explorer::default().explore(&sc);
    assert!(
        report.verified(),
        "an early timeout abandons a subtree but must not corrupt state: {:?}",
        report.violation
    );
}

#[test]
fn clean_replay_of_empty_trace_is_quiet() {
    assert_eq!(replay(&three_node_scenario(), &[]), None);
}

/// The mutation smoke test. PR 4 fixed a dedup bug where a node answered
/// every duplicate QUERY with an immediate empty REPLY, even while its own
/// subtree was still in flight — the upstream merged the empty reply as
/// fresh and closed the branch early, silently losing results. The
/// scenario re-injects that bug into the mid-tree node and asserts the
/// explorer (a) finds the violation, (b) delta-debugs the schedule, and
/// (c) ships a minimized trace that replays to the same violation kind.
#[test]
fn explorer_catches_reinjected_dedup_reply_bug() {
    let mut sc = three_node_scenario();
    sc.allow_duplicates(1);
    sc.inject_empty_dedup_reply_bug(1); // node 1 relays the query down-tree
    let report = Explorer::default().explore(&sc);

    let violation = report
        .violation
        .expect("explorer must find the re-injected bug");
    assert!(
        matches!(
            violation.violation,
            InvariantViolation::ReportedInexact { .. }
        ),
        "the bug loses results, so exact-reporting must flag it, got {:?}",
        violation.violation
    );

    assert!(
        !violation.minimized.is_empty(),
        "a non-trivial schedule cannot minimize to nothing"
    );
    assert!(
        violation.minimized.len() <= violation.schedule.len(),
        "minimization must not grow the trace"
    );

    let replayed = replay(&sc, &violation.minimized)
        .expect("minimized trace must still reproduce a violation");
    assert_eq!(
        std::mem::discriminant(&replayed),
        std::mem::discriminant(&violation.violation),
        "minimized trace must reproduce the same violation kind, got {replayed:?}"
    );

    // And the same scenario without the bug is clean: the detection is the
    // mutation's doing, not the harness's.
    let mut clean = three_node_scenario();
    clean.allow_duplicates(1);
    assert!(Explorer::default().explore(&clean).verified());
}

/// Exhaustiveness is honest: an absurdly small budget must report
/// `exhausted == false`, never a false "verified".
#[test]
fn budget_exhaustion_is_reported_not_hidden() {
    let explorer = Explorer {
        max_schedules: 1,
        max_steps: 10,
        max_depth: 64,
    };
    let report = explorer.explore(&two_query_scenario());
    assert!(!report.exhausted);
    assert!(!report.verified());
}

/// Two concurrent queries from different origins: the interleaving-richest
/// in-repo scenario, still exhaustively coverable within the default budget.
#[test]
fn two_queries_from_two_origins_verify() {
    let report = Explorer::default().explore(&two_query_scenario());
    assert!(
        report.verified(),
        "two-query scenario must verify: {:?}",
        report.violation
    );
    assert!(report.schedules >= 2);
}
