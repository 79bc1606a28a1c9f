//! Fault-plan × seed sweep: delivery and overhead envelopes of the
//! selection protocol under adverse networks, partitions, massive failures
//! (§6.7 / Fig. 12) and churn (§6.6 / Fig. 11), with the invariant checker
//! auditing every single event.
//!
//! Every scenario runs under at least three seeds. Failures print the seed
//! and plan; to reproduce, re-run the one scenario with that seed (the
//! simulator replays identically — see `docs/TESTING.md`).

use attrspace::{Query, Space};
use overlay_sim::faults::{Action, FaultPlan, FaultRule, Scope, Window};
use overlay_sim::invariants::InvariantViolation;
use overlay_sim::{InvariantChecker, LatencyModel, Placement, QueryStats, SimCluster, SimConfig};

const SEEDS: [u64; 3] = [11, 42, 97];

/// Static-mode config with a `T(q)` short enough that loss-induced timeout
/// recovery resolves in bounded virtual time, yet comfortably above the
/// worst accumulated jitter of the delay/reorder plans (depth × ~100 ms),
/// so delay alone never trips a spurious timeout.
fn fault_config() -> SimConfig {
    let mut cfg = SimConfig::fast_static();
    cfg.protocol.query_timeout_ms = 8_000;
    cfg.latency = LatencyModel::Constant { ms: 5 };
    cfg
}

fn build(seed: u64, n: usize) -> (SimCluster, Space) {
    let space = Space::uniform(3, 80, 3).unwrap();
    let mut sim = SimCluster::new(space.clone(), fault_config(), seed);
    sim.populate(&Placement::Uniform { lo: 0, hi: 80 }, n);
    sim.wire_oracle();
    (sim, space)
}

fn half_space_query(space: &Space) -> Query {
    Query::builder(space).min("a0", 40).build().unwrap()
}

/// Runs `queries` sequential queries under `plan`, checking invariants
/// after every event, and returns the per-query stats. `exact` arms the
/// exact-reporting check on a relaxed checker (strict always implies it) —
/// right for plans that duplicate/reorder but never lose messages.
fn run_plan(
    seed: u64,
    plan: &FaultPlan,
    strict: bool,
    exact: bool,
    queries: usize,
) -> Vec<QueryStats> {
    let (mut sim, space) = build(seed, 200);
    sim.set_fault_plan(plan.clone());
    let mut checker = if strict {
        InvariantChecker::strict()
    } else if exact {
        InvariantChecker::relaxed().expect_exact_reporting()
    } else {
        InvariantChecker::relaxed()
    };
    let mut out = Vec::new();
    for _ in 0..queries {
        let origin = sim.random_node();
        let qid = sim.issue_query(origin, half_space_query(&space), None);
        sim.run_to_quiescence_checked(&mut checker)
            .unwrap_or_else(|v| panic!("invariant violated under seed {seed}: {v}"));
        out.push(sim.query_stats(qid).expect("tracked").clone());
        sim.forget_query(qid);
    }
    out
}

fn mean_delivery(stats: &[QueryStats]) -> f64 {
    stats.iter().map(QueryStats::delivery).sum::<f64>() / stats.len() as f64
}

/// The matrix proper: ≥8 distinct per-message fault plans × ≥3 seeds, with
/// per-plan delivery envelopes. Timeouts guarantee liveness, so *every*
/// query must complete no matter the plan.
#[test]
fn fault_matrix_delivery_envelopes() {
    // (name, plan, strict checker, exact reporting, per-seed minimum mean
    // delivery). Duplication/reorder plans never lose messages, so they run
    // with the exact-reporting invariant armed: `reported` must equal
    // `matched_reached` for every completed query (strict implies it).
    let plans: Vec<(&str, FaultPlan, bool, bool, f64)> = vec![
        ("quiet", FaultPlan::new(), true, true, 1.0),
        (
            "light-loss",
            FaultPlan::new().drop_all(0.02),
            false,
            false,
            0.70,
        ),
        (
            "heavy-loss",
            FaultPlan::new().drop_all(0.15),
            false,
            false,
            0.20,
        ),
        (
            "jitter",
            FaultPlan::new().delay_all(0.5, 10, 100),
            true,
            true,
            1.0,
        ),
        (
            "reorder",
            FaultPlan::new().reorder_all(0.5, 100),
            true,
            true,
            1.0,
        ),
        (
            "duplication",
            FaultPlan::new().duplicate_protocol(0.25, 1),
            false,
            true,
            1.0,
        ),
        (
            "dup-reorder",
            FaultPlan::new()
                .duplicate_protocol(0.5, 1)
                .reorder_all(0.5, 100),
            false,
            true,
            1.0,
        ),
        (
            "flaky-node",
            FaultPlan::new().drop_node(7, 0.5),
            false,
            false,
            0.55,
        ),
        (
            "late-loss",
            FaultPlan::new().drop_window(Window::new(40, u64::MAX), 0.05),
            false,
            false,
            0.55,
        ),
        (
            "combo",
            FaultPlan::new()
                .drop_all(0.05)
                .delay_all(0.3, 20, 100)
                .duplicate_protocol(0.1, 1),
            false,
            false,
            0.40,
        ),
    ];
    assert!(
        plans.len() >= 8,
        "the issue demands at least 8 distinct plans"
    );

    let mut mean_by_plan: Vec<(&str, f64)> = Vec::new();
    for (name, plan, strict, exact, min_delivery) in &plans {
        let mut total = 0.0;
        for &seed in &SEEDS {
            let stats = run_plan(seed, plan, *strict, *exact, 4);
            let mean = mean_delivery(&stats);
            total += mean;
            assert!(
                mean >= *min_delivery,
                "plan {name} seed {seed}: mean delivery {mean:.3} under envelope {min_delivery}"
            );
            for st in &stats {
                assert!(
                    st.completed,
                    "plan {name} seed {seed}: a query never completed"
                );
                assert!(
                    st.overhead <= st.messages,
                    "plan {name}: overhead {} exceeds total messages {}",
                    st.overhead,
                    st.messages
                );
                if *strict {
                    assert_eq!(st.duplicates, 0, "plan {name}: strict run saw duplicates");
                    assert_eq!(
                        st.delivery(),
                        1.0,
                        "plan {name}: strict run under-delivered"
                    );
                }
                if *exact {
                    assert_eq!(
                        st.reported,
                        st.matched_reached.len() as u32,
                        "plan {name} seed {seed}: reported drifted from matched_reached"
                    );
                }
            }
            if name.starts_with("dup") {
                assert!(
                    stats.iter().any(|s| s.duplicates > 0),
                    "plan {name} seed {seed}: duplication fault produced no duplicate receipts"
                );
            }
        }
        mean_by_plan.push((name, total / SEEDS.len() as f64));
    }

    // Degradation is monotone in loss rate (averaged over all seeds).
    let get = |n: &str| mean_by_plan.iter().find(|(p, _)| *p == n).unwrap().1;
    assert!(
        get("heavy-loss") <= get("light-loss") + 0.05,
        "heavier loss should not deliver better: heavy {:.3} vs light {:.3}",
        get("heavy-loss"),
        get("light-loss")
    );
    assert!(get("quiet") == 1.0);
}

/// Message loss is repaired by `T(q)` timeouts — the new timeout counter
/// must actually tick under loss and stay silent on clean runs.
#[test]
fn timeouts_fire_under_loss_only() {
    for &seed in &SEEDS {
        let (mut sim, space) = build(seed, 150);
        let origin = sim.random_node();
        sim.issue_query(origin, half_space_query(&space), None);
        sim.run_to_quiescence();
        assert_eq!(sim.timeouts_fired_total(), 0, "clean run fired timeouts");
        assert_eq!(sim.pending_total(), 0);

        sim.set_fault_plan(FaultPlan::new().drop_all(0.25));
        let origin = sim.random_node();
        sim.issue_query(origin, half_space_query(&space), None);
        sim.run_to_quiescence();
        assert!(
            sim.timeouts_fired_total() > 0,
            "seed {seed}: 25% loss should force timeout recovery"
        );
        assert_eq!(
            sim.pending_total(),
            0,
            "timeout recovery must not leak state"
        );
    }
}

/// A partition makes the far side unreachable; once it heals, delivery
/// returns to 100%.
#[test]
fn partition_severs_then_heals() {
    for &seed in &SEEDS {
        let (mut sim, space) = build(seed, 210);
        let ids = sim.node_ids().to_vec();
        let island: Vec<u64> = ids.iter().copied().take(70).collect();
        // The window must outlast the first query's timeout recovery (serial
        // 8 s waits): make it enormous and assert below that the query in
        // fact quiesced inside it.
        const HEAL_AT: u64 = 1_000_000;
        sim.set_fault_plan(
            FaultPlan::new().partition(Window::new(0, HEAL_AT), island.iter().copied()),
        );
        let mut checker = InvariantChecker::relaxed();

        // Mainland origin: the island's matching nodes are unreachable.
        let origin = *ids.last().unwrap();
        let qid = sim.issue_query(origin, half_space_query(&space), None);
        sim.run_to_quiescence_checked(&mut checker)
            .expect("invariants under partition");
        let st = sim.query_stats(qid).unwrap().clone();
        assert!(
            st.completed,
            "seed {seed}: partitioned query must still terminate"
        );
        assert!(
            sim.now() < HEAL_AT,
            "recovery outlived the partition window"
        );
        assert!(st.delivery() < 1.0, "seed {seed}: partition cost nothing?");
        assert!(
            st.matched_reached.iter().all(|id| !island.contains(id)),
            "seed {seed}: reached across an active partition"
        );

        // After the heal: timed-out island links were evicted from mainland
        // routing tables during the partition, so re-wire the (static-mode)
        // oracle — the stand-in for the membership layer repairing the
        // overlay — and delivery returns to 100%.
        sim.run_until(HEAL_AT + 1);
        sim.wire_oracle();
        let origin = *ids.last().unwrap();
        let qid = sim.issue_query(origin, half_space_query(&space), None);
        sim.run_to_quiescence_checked(&mut checker)
            .expect("invariants after heal");
        let st = sim.query_stats(qid).unwrap();
        assert!(st.completed);
        assert_eq!(st.delivery(), 1.0, "seed {seed}: delivery after heal");
    }
}

/// §6.7 / Fig. 12 massive failure: a timed crash of ~30% of the
/// population. With one chosen neighbor per `N(l,k)`, each dead neighbor
/// costs its whole subtree until the overlay is repaired, so un-repaired
/// delivery among survivors degrades sharply (and varies wildly with which
/// neighbors died — anywhere from ~0.1 to ~0.6 across seeds). The paper's
/// resilience claim is about the repaired overlay: every query still
/// *completes* with invariants intact, and a single repair round (oracle
/// re-wire, the membership layer's job) restores delivery to 100%.
#[test]
fn massive_failure_degrades_then_repair_restores_delivery() {
    for &seed in &SEEDS {
        let (mut sim, space) = build(seed, 200);
        let victims: Vec<u64> = sim
            .node_ids()
            .iter()
            .copied()
            .filter(|id| id % 3 == 0)
            .collect();
        let mut plan = FaultPlan::new();
        for &v in &victims {
            plan = plan.crash(1_000, v);
        }
        sim.set_fault_plan(plan);
        sim.run_until(2_000);
        assert_eq!(sim.len(), 200 - victims.len());
        assert_eq!(sim.crashed_ids(), victims);

        let mut checker = InvariantChecker::relaxed();
        let mut deliveries = Vec::new();
        for _ in 0..4 {
            let origin = sim.random_node();
            let qid = sim.issue_query(origin, half_space_query(&space), None);
            sim.run_to_quiescence_checked(&mut checker)
                .expect("invariants after mass crash");
            let st = sim.query_stats(qid).unwrap();
            assert!(st.completed);
            deliveries.push(st.delivery());
            sim.forget_query(qid);
        }
        let mean = deliveries.iter().sum::<f64>() / deliveries.len() as f64;
        assert!(
            mean > 0.02,
            "seed {seed}: survivors reached {mean:.3} of each other — queries went nowhere"
        );
        assert!(
            mean < 1.0,
            "seed {seed}: losing 33% of the overlay cost nothing?"
        );
        assert_eq!(sim.pending_total(), 0);

        // One repair round brings delivery among survivors back to 100%.
        sim.wire_oracle();
        let origin = sim.random_node();
        let qid = sim.issue_query(origin, half_space_query(&space), None);
        sim.run_to_quiescence_checked(&mut checker)
            .expect("invariants after repair");
        let st = sim.query_stats(qid).unwrap();
        assert_eq!(
            st.delivery(),
            1.0,
            "seed {seed}: repair did not restore delivery"
        );
    }
}

/// Crash + restart under the same identity: while down the node is routed
/// around; once restarted it is reachable again (with empty tables — it
/// answers, it does not forward far).
#[test]
fn crash_restart_rejoins_under_same_identity() {
    for &seed in &SEEDS {
        let (mut sim, space) = build(seed, 150);
        let victim = sim.node_ids()[10];
        sim.set_fault_plan(FaultPlan::new().crash(500, victim).restart(4_000, victim));
        let mut checker = InvariantChecker::relaxed();

        // While the victim is down: queries complete without it.
        sim.run_until(1_000);
        assert!(sim.point_of(victim).is_none(), "victim should be down");
        assert_eq!(sim.crashed_ids(), vec![victim]);
        let origin = sim.random_node();
        let qid = sim.issue_query(origin, half_space_query(&space), None);
        sim.run_to_quiescence_checked(&mut checker)
            .expect("invariants while down");
        assert!(sim.query_stats(qid).unwrap().completed);

        // After the restart: same id, same point. Fail-fast feedback made
        // peers evict the victim while it was down (and it came back with
        // empty tables), so re-wire the oracle — the membership layer's
        // repair — before measuring reachability.
        sim.run_until(5_000);
        assert!(sim.point_of(victim).is_some(), "victim should be back");
        assert!(sim.crashed_ids().is_empty());
        assert_eq!(sim.len(), 150);
        sim.wire_oracle();

        let all = Query::builder(&space).build().unwrap();
        let origin = sim.random_node();
        let qid = sim.issue_query(origin, all, None);
        sim.run_to_quiescence_checked(&mut checker)
            .expect("invariants after restart");
        let st = sim.query_stats(qid).unwrap();
        assert!(st.completed);
        if origin != victim {
            assert!(
                st.matched_reached.contains(&victim),
                "seed {seed}: restarted node never reached"
            );
        }
        assert!(
            st.delivery() > 0.8,
            "seed {seed}: delivery {:.3}",
            st.delivery()
        );
    }
}

/// Fig. 11's shape: gossip-maintained overlay under continuous churn *and*
/// background message loss, with relaxed invariants audited throughout.
#[test]
fn churn_with_loss_keeps_routing_alive() {
    for &seed in &SEEDS {
        let space = Space::uniform(3, 80, 3).unwrap();
        let mut cfg = SimConfig {
            latency: LatencyModel::Constant { ms: 20 },
            ..SimConfig::default()
        };
        cfg.gossip.period_ms = 1_000;
        cfg.protocol.query_timeout_ms = 3_000;
        let mut sim = SimCluster::new(space.clone(), cfg, seed);
        let placement = Placement::Uniform { lo: 0, hi: 80 };
        sim.populate(&placement, 80);
        sim.set_fault_plan(FaultPlan::new().drop_all(0.02));
        let mut checker = InvariantChecker::relaxed();

        sim.run_until_checked(30_000, &mut checker)
            .expect("invariants during warmup");
        sim.churn_step(0.05, &placement);
        sim.run_until_checked(40_000, &mut checker)
            .expect("invariants during churn");

        let origin = sim.random_node();
        let qid = sim.issue_query(origin, half_space_query(&space), None);
        sim.run_until_checked(90_000, &mut checker)
            .expect("invariants during query");
        let st = sim.query_stats(qid).unwrap();
        assert!(st.completed, "seed {seed}: churned query never completed");
        assert!(
            st.delivery() > 0.5,
            "seed {seed}: churn+loss delivery {:.3}",
            st.delivery()
        );
    }
}

/// Negative control: the strict checker must catch the injected
/// exactly-once violation (duplicated protocol messages), and report it as
/// such rather than as some downstream symptom.
#[test]
fn strict_checker_flags_injected_duplicates() {
    let (mut sim, space) = build(7, 200);
    sim.set_fault_plan(FaultPlan::new().duplicate_protocol(1.0, 1));
    let origin = sim.random_node();
    sim.issue_query(origin, half_space_query(&space), None);
    let err = sim
        .run_to_quiescence_checked(&mut InvariantChecker::strict())
        .expect_err("duplicated messages must violate exactly-once");
    assert!(
        matches!(err, InvariantViolation::DuplicateDelivery { .. }),
        "wrong violation reported: {err}"
    );
}

/// The same injected bug, surfaced the `#[should_panic]` way — what a
/// driver that simply `expect`s the checked run looks like when the
/// protocol breaks.
#[test]
#[should_panic(expected = "DuplicateDelivery")]
fn injected_duplicates_panic_a_strict_harness() {
    let (mut sim, space) = build(7, 200);
    sim.set_fault_plan(FaultPlan::new().duplicate_protocol(1.0, 1));
    let origin = sim.random_node();
    sim.issue_query(origin, half_space_query(&space), None);
    sim.run_to_quiescence_checked(&mut InvariantChecker::strict())
        .expect("exactly-once should hold");
}

/// The protocol itself shrugs duplicates off: a duplicated QUERY while the
/// subtree is in flight is suppressed (the eventual real REPLY answers it),
/// and one arriving after conclusion is answered by retransmitting the
/// cached final REPLY. Under a relaxed checker with exact reporting armed,
/// the same fault plan yields 100% delivery and a result set that contains
/// every matching node exactly once — no phantoms, no double counts, no
/// under-count.
#[test]
fn duplicates_do_not_corrupt_results() {
    for &seed in &SEEDS {
        let (mut sim, space) = build(seed, 200);
        sim.set_fault_plan(FaultPlan::new().duplicate_protocol(1.0, 1));
        let mut checker = InvariantChecker::relaxed().expect_exact_reporting();
        let origin = sim.random_node();
        let query = half_space_query(&space);
        let qid = sim.issue_query(origin, query.clone(), None);
        sim.run_to_quiescence_checked(&mut checker)
            .expect("relaxed run");
        let st = sim.query_stats(qid).unwrap();
        assert!(st.completed);
        assert_eq!(st.delivery(), 1.0, "seed {seed}");
        assert_eq!(
            st.reported, st.truth,
            "duplicates must not change the answer"
        );
        assert!(
            st.duplicates > 0,
            "every message was doubled; dedup must have fired"
        );
        let matches = sim.query_result(qid).expect("enumeration completed");
        let mut ids: Vec<_> = matches.iter().map(|m| m.node).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), matches.len(), "a node was reported twice");
        assert!(
            matches.iter().all(|m| query.matches(&m.values)),
            "phantom match reported"
        );
        assert_eq!(sim.pending_total(), 0);
    }
}

/// Exactly-once accounting under worst-case duplication (every protocol
/// message doubled): attempt-tagged replies let the upstream merge each
/// forward's subtree exactly once, duplicates arriving while the subtree is
/// in flight are suppressed rather than answered early, and duplicates
/// arriving after conclusion are answered from the bounded reply cache. Per
/// query, across the same pinned seeds that used to reproduce the
/// under-count: `reported == matched_reached == truth` and delivery is
/// 1.0 — with the exact-reporting invariant auditing every event on top.
#[test]
fn duplication_reports_exactly() {
    for &seed in &SEEDS {
        let (mut sim, space) = build(seed, 200);
        sim.set_fault_plan(FaultPlan::new().duplicate_protocol(1.0, 1));
        let mut checker = InvariantChecker::relaxed().expect_exact_reporting();
        for _ in 0..4 {
            let origin = sim.random_node();
            let qid = sim.issue_query(origin, half_space_query(&space), None);
            sim.run_to_quiescence_checked(&mut checker)
                .unwrap_or_else(|v| panic!("invariant violated under seed {seed}: {v}"));
            let st = sim.query_stats(qid).unwrap();
            assert!(st.completed, "seed {seed}: query never completed");
            assert!(
                st.duplicates > 0,
                "seed {seed}: plan injected no duplicates"
            );
            // Delivery side: every matching node was reached.
            assert_eq!(
                st.delivery(),
                1.0,
                "seed {seed}: duplication dented delivery"
            );
            assert_eq!(
                st.matched_reached.len() as u32,
                st.truth,
                "seed {seed}: matched_reached must equal ground truth"
            );
            // Reporting side: exactly what was reached — no more, no less.
            assert_eq!(
                st.reported,
                st.matched_reached.len() as u32,
                "seed {seed}: reported {} != matched_reached {}",
                st.reported,
                st.matched_reached.len()
            );
            sim.forget_query(qid);
        }
    }
}

/// Count-mode totals must survive duplicated REPLY deliveries. A count
/// carries no node identities, so the upstream cannot dedup it the way
/// enumerate mode dedups matches — the waiting set is the only witness
/// that a subtree was already merged. Regression test: every reply link
/// into the origin is duplicated, and the reported total must still equal
/// the ground truth (it used to be added once per delivered copy).
#[test]
fn count_queries_stay_exact_under_reply_duplication() {
    for &seed in &SEEDS {
        let (mut sim, space) = build(seed, 200);
        let origin = sim.random_node();
        let mut plan = FaultPlan::new();
        for id in sim.node_ids().to_vec() {
            if id != origin {
                // Traffic on `id → origin` is exclusively REPLY messages:
                // the origin issues the query, so QUERY copies only ever
                // leave it (a forward back *to* the origin is answered
                // empty by its seen-set, which is also reply traffic).
                plan = plan.rule(FaultRule {
                    window: Window::ALWAYS,
                    scope: Scope::Link {
                        from: id,
                        to: origin,
                    },
                    action: Action::Duplicate { p: 1.0, copies: 1 },
                });
            }
        }
        sim.set_fault_plan(plan);
        let mut checker = InvariantChecker::relaxed();
        let qid = sim.issue_count_query(origin, half_space_query(&space));
        sim.run_to_quiescence_checked(&mut checker)
            .unwrap_or_else(|v| panic!("invariant violated under seed {seed}: {v}"));
        let st = sim.query_stats(qid).unwrap();
        assert!(st.completed, "seed {seed}: count query never completed");
        // `st.duplicates` only counts duplicate QUERY receipts; duplicated
        // replies are invisible to it. The origin having forwarded at all
        // (messages > 0) guarantees it received every reply twice.
        assert!(st.messages > 0, "seed {seed}: query never left the origin");
        assert!(
            st.truth > 1,
            "seed {seed}: trivial ground truth proves nothing"
        );
        assert_eq!(
            st.reported, st.truth,
            "seed {seed}: duplicated replies were double-counted"
        );
    }
}
