//! Exhaustive small-instance exploration, one test per scenario family of
//! the `synthtrace::scenario` DSL. The soak harness runs each family at
//! population scale with sampled schedules; these tests shrink each family
//! to its protocol kernel (≤ 4 nodes) and enumerate *every* inequivalent
//! schedule, so the family's invariant-strictness contract is verified
//! rather than spot-checked:
//!
//! | family   | kernel choice points            | checker          |
//! |----------|---------------------------------|------------------|
//! | churn    | crash/restart vs. deliveries    | relaxed          |
//! | flash    | concurrent demand + duplication | relaxed + exact  |
//! | diurnal  | timeout polls racing deliveries | relaxed          |
//! | outage   | message loss + crash/restart    | relaxed          |
//! | composed | all of the above                | relaxed          |
//!
//! Plus the mutation-style negative control: re-inject a historical bug
//! into the flash kernel and prove a violated invariant is *caught*,
//! delta-debugged to a minimal schedule, and that the minimized schedule
//! replays to the same violation kind.

use attrspace::{Query, Space};
use autosel_analyze::{replay, Explorer, Scenario};

/// Four nodes in the 2-d demo space: origin low, three matches in the
/// `a0 >= 60` half so the query fans out mid-tree and replies race.
fn four_node_kernel() -> Scenario {
    let space = Space::uniform(2, 80, 3).expect("valid 2-d space geometry");
    let mut sc = Scenario::new(space.clone());
    let origin = sc.node(&[5, 5]);
    sc.node(&[70, 5]);
    sc.node(&[70, 40]);
    sc.node(&[70, 70]);
    let q = Query::builder(&space)
        .min("a0", 60)
        .build()
        .expect("well-formed query");
    sc.query(origin, q, None);
    sc
}

#[test]
fn churn_family_kernel_is_exhaustively_verified() {
    let mut sc = four_node_kernel();
    // Node 1 relays the query down-tree; crash it mid-arc and bring it
    // back. The explorer reorders both fault events against every queued
    // delivery (crash-before-receive, crash-mid-subtree, restart-first…).
    sc.crash_restart(1, 5, 20);
    let report = Explorer::default().explore(&sc);
    assert!(
        report.verified(),
        "churn kernel must verify under relaxed invariants: exhausted={}, violation={:?}",
        report.exhausted,
        report.violation
    );
    assert!(
        report.schedules >= 2,
        "churn choice points must branch the schedule tree, got {}",
        report.schedules
    );
}

#[test]
fn flash_family_kernel_is_exhaustively_verified() {
    // Flash crowd at kernel scale: a burst of concurrent demand (the DSL's
    // join ramp becomes a second racing query) plus a duplicated message —
    // the family's RelaxedExact contract: duplicates may arrive, but
    // result accounting stays exactly-once.
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
    sc.allow_duplicates(1);
    let report = Explorer::default().explore(&sc);
    assert!(
        report.verified(),
        "flash kernel must keep accounting exact under duplication: exhausted={}, violation={:?}",
        report.exhausted,
        report.violation
    );
    assert!(report.schedules >= 2, "concurrent demand must branch");
}

#[test]
fn diurnal_family_kernel_is_exhaustively_verified() {
    // Diurnal modulation at kernel scale: the load trough is where `T(q)`
    // timers catch up with in-flight work, so the family's kernel races
    // timeout polls against deliveries.
    let mut sc = four_node_kernel();
    sc.race_timeouts();
    let report = Explorer::default().explore(&sc);
    assert!(
        report.verified(),
        "diurnal kernel must survive timeout races: exhausted={}, violation={:?}",
        report.exhausted,
        report.violation
    );
}

#[test]
fn outage_family_kernel_is_exhaustively_verified() {
    // Region outage at kernel scale: correlated failure = a lost message
    // plus a node down for a window, then healed.
    let mut sc = four_node_kernel();
    sc.allow_drops(1);
    sc.crash_restart(3, 5, 20);
    let report = Explorer::default().explore(&sc);
    assert!(
        report.verified(),
        "outage kernel must degrade results, not correctness: exhausted={}, violation={:?}",
        report.exhausted,
        report.violation
    );
}

#[test]
fn composed_family_kernel_is_exhaustively_verified() {
    // Everything at once, still exhaustive: churn, duplication, loss, and
    // timeout races over the four-node kernel.
    let mut sc = four_node_kernel();
    sc.crash_restart(1, 5, 20);
    sc.allow_duplicates(1);
    sc.allow_drops(1);
    sc.race_timeouts();
    let report = Explorer::default().explore(&sc);
    assert!(
        report.verified(),
        "composed kernel must verify: exhausted={}, violation={:?}",
        report.exhausted,
        report.violation
    );
    assert!(
        report.schedules >= 4,
        "the composed kernel should branch more than any single family, got {}",
        report.schedules
    );
}

/// The mutation-style negative control for the family suite: re-inject the
/// historical dedup-reply bug (every duplicate QUERY answered with an
/// immediate empty REPLY, even mid-flight) into the flash kernel, whose
/// relaxed + exact-reporting checker is exactly the contract the bug
/// breaks. Proves the harness *can* fail: the explorer finds a violating
/// schedule, delta-debugs it, and the minimized trace replays to the same
/// violation kind.
#[test]
fn mutated_flash_kernel_is_caught_and_minimized() {
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
    sc.allow_duplicates(1);
    sc.inject_empty_dedup_reply_bug(1);
    let report = Explorer::default().explore(&sc);
    let violation = report.violation.expect("the re-injected bug must be found");
    assert!(
        violation.minimized.len() <= violation.schedule.len(),
        "minimization must not grow the trace"
    );
    assert!(
        !violation.minimized.is_empty(),
        "the bug needs at least the duplication choice"
    );
    let replayed = replay(&sc, &violation.minimized)
        .expect("the minimized trace must still reproduce a violation");
    assert_eq!(
        std::mem::discriminant(&replayed),
        std::mem::discriminant(&violation.violation),
        "replay must reproduce the same violation kind: got {replayed:?}, want {:?}",
        violation.violation
    );
}
