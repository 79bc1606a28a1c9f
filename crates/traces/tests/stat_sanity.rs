//! Statistical sanity of the synthetic workload generators under pinned
//! seeds: the session schedule really is heavy-tailed, offline gaps track
//! their configured mean, the base distributions have the shapes their
//! names promise, and the scenario DSL's diurnal modulation actually
//! modulates at its configured amplitude. All bounds are generous — these
//! are shape checks, not golden values — but every run is deterministic,
//! so a regression that flattens a tail or mis-scales a rate fails
//! reliably instead of flaking.

use rand::rngs::StdRng;
use rand::SeedableRng;
use synthtrace::scenario::{ArcEvent, ScenarioSpec};
use synthtrace::sessions::{Schedule, SessionEvent};
use synthtrace::{lognormal, HostGenerator, Zipf};

fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Per-host durations between each Join and its matching Leave (open
/// sessions at the horizon are discarded — they are right-censored).
fn online_session_lengths(schedule: &Schedule) -> Vec<u64> {
    let mut open: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
    let mut lengths = Vec::new();
    for &(t, ev) in schedule.events() {
        match ev {
            SessionEvent::Join { host } => {
                open.insert(host, t);
            }
            SessionEvent::Leave { host } => {
                if let Some(start) = open.remove(&host) {
                    lengths.push(t - start);
                }
            }
        }
    }
    lengths
}

#[test]
fn session_lengths_are_heavy_tailed() {
    let hosts: Vec<_> = HostGenerator::new(42).take(400).collect();
    // A week-long horizon so even long sessions close and enter the sample.
    let schedule = Schedule::generate(&hosts, 7 * 86_400, 3_600, 42);
    let mut lengths = online_session_lengths(&schedule);
    assert!(
        lengths.len() > 500,
        "expected a big sample, got {}",
        lengths.len()
    );
    lengths.sort_unstable();
    let p50 = percentile(&lengths, 0.50);
    let p90 = percentile(&lengths, 0.90);
    let p99 = percentile(&lengths, 0.99);
    // Log-normal sessions (σ = 0.7) over a population whose per-host means
    // themselves spread over orders of magnitude: the aggregate tail is
    // much heavier than any exponential — p99 sits far above the median.
    assert!(p90 >= 2 * p50, "tail too light: p50={p50}s p90={p90}s");
    assert!(p99 >= 5 * p50, "tail too light: p50={p50}s p99={p99}s");
    // And the body is sane: typical sessions are hours, not seconds/weeks.
    assert!(
        (600..=86_400).contains(&p50),
        "implausible median session: {p50}s"
    );
}

#[test]
fn offline_gaps_track_the_configured_mean() {
    let hosts: Vec<_> = HostGenerator::new(7).take(300).collect();
    let offline_mean_s = 1_800;
    let schedule = Schedule::generate(&hosts, 7 * 86_400, offline_mean_s, 7);
    // Leave → next Join of the same host = one offline gap.
    let mut last_leave: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
    let mut gaps = Vec::new();
    for &(t, ev) in schedule.events() {
        match ev {
            SessionEvent::Leave { host } => {
                last_leave.insert(host, t);
            }
            SessionEvent::Join { host } => {
                if let Some(start) = last_leave.remove(&host) {
                    gaps.push(t - start);
                }
            }
        }
    }
    assert!(gaps.len() > 500, "expected many gaps, got {}", gaps.len());
    gaps.sort_unstable();
    // The gap distribution is log-normal with median e^µ = offline_mean
    // (clamped below at 60 s); the sample median must sit near it.
    let p50 = percentile(&gaps, 0.50);
    assert!(
        (offline_mean_s / 2..=offline_mean_s * 2).contains(&p50),
        "offline gap median {p50}s drifted from configured mean {offline_mean_s}s"
    );
}

#[test]
fn lognormal_median_is_exp_mu() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut xs: Vec<u64> = (0..20_000)
        .map(|_| lognormal(&mut rng, 1000f64.ln(), 0.7) as u64)
        .collect();
    xs.sort_unstable();
    let p50 = percentile(&xs, 0.50);
    assert!(
        (800..=1_250).contains(&p50),
        "log-normal median drifted: {p50}"
    );
    // σ = 0.7 ⇒ p90/p50 = e^{1.28·0.7} ≈ 2.45.
    let p90 = percentile(&xs, 0.90);
    assert!(
        (2 * p50..=3 * p50).contains(&p90),
        "log-normal spread drifted: p50={p50} p90={p90}"
    );
}

#[test]
fn zipf_concentrates_mass_on_the_head() {
    let mut rng = StdRng::seed_from_u64(2);
    let zipf = Zipf::new(1_000, 1.0);
    let n = 20_000;
    let mut counts = vec![0u64; 1_000];
    for _ in 0..n {
        counts[zipf.sample(&mut rng)] += 1;
    }
    // Under uniform sampling each rank gets 0.1%; Zipf(s=1) gives the top
    // rank ~13% and the top ten ~39%.
    assert!(
        counts[0] > n / 20,
        "head too light: rank 0 drew {}/{n}",
        counts[0]
    );
    let top10: u64 = counts[..10].iter().sum();
    assert!(top10 > n / 4, "top-10 mass too light: {top10}/{n}");
    assert!(
        counts[500] < counts[0] / 10,
        "tail rank as popular as the head"
    );
}

/// Counts the diurnal Query events of a probe-free compiled arc, bucketed
/// into `buckets` equal time slices.
fn diurnal_buckets(base_per_hour: u32, amplitude_pct: u32, buckets: usize) -> Vec<u64> {
    let period = 3_600_000;
    let spec = ScenarioSpec::new(50, period).probe_every_ms(0).diurnal(
        base_per_hour,
        amplitude_pct,
        period,
    );
    let compiled = spec.compile(3);
    let start = compiled.warmup_ms;
    let mut counts = vec![0u64; buckets];
    for &(t, ref ev) in &compiled.events {
        if matches!(ev, ArcEvent::Query) {
            let idx = ((t - start) as usize * buckets / period as usize).min(buckets - 1);
            counts[idx] += 1;
        }
    }
    counts
}

#[test]
fn diurnal_amplitude_shapes_the_rate() {
    // One full period split into quarters: the sine peaks in the first
    // quarter (phase 0..π/2..π) and troughs in the third.
    let counts = diurnal_buckets(720, 80, 4);
    let total: u64 = counts.iter().sum();
    assert!(
        (715..=725).contains(&total),
        "base rate drifted: {total} events/hour"
    );
    let peak = counts[0].max(counts[1]);
    let trough = counts[2].min(counts[3]);
    // amplitude 80% ⇒ quarter-integrated peak/trough ratio ≈ (1+0.51)/(1-0.51).
    assert!(
        peak as f64 >= 2.0 * trough as f64,
        "amplitude 80% barely modulates: peak {peak} vs trough {trough}"
    );

    // Zero amplitude ⇒ flat rate: every quarter within a few events.
    let flat = diurnal_buckets(720, 0, 4);
    let (lo, hi) = (flat.iter().min().unwrap(), flat.iter().max().unwrap());
    assert!(hi - lo <= 2, "amplitude 0 must be flat, got {flat:?}");
}

#[test]
fn flash_crowd_join_totals_are_exact() {
    for joins in [1u32, 7, 30, 121] {
        let spec = ScenarioSpec::new(50, 600_000)
            .probe_every_ms(0)
            .flash_crowd(100_000, joins, 45_000);
        let compiled = spec.compile(5);
        let total: u64 = compiled
            .events
            .iter()
            .filter_map(|(_, ev)| match ev {
                ArcEvent::Join { count } => Some(u64::from(*count)),
                _ => None,
            })
            .sum();
        assert_eq!(total, u64::from(joins), "ramp lost or invented joins");
    }
}
