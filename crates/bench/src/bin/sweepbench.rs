//! `sweepbench` — the simulator's perf trajectory, recorded in
//! `BENCH_sim.json`.
//!
//! Two measurements (see `docs/PERFORMANCE.md` for how to read the output):
//!
//! 1. **Single-run wall clock + peak RSS** — one oracle-wired static
//!    cluster of N ∈ `AUTOSEL_BENCH_N` (default
//!    `1000,5000,10000,100000,1000000`), 40 σ=50 best-case queries run to
//!    quiescence. Each tier runs in a **child process** (re-exec of this
//!    binary with `--one-shot N SEED`) so that `VmHWM` from
//!    `/proc/self/status` is that tier's own peak resident set, not the
//!    high-water mark of whatever larger tier ran earlier in the same
//!    process. Each point runs twice with the same seed and the per-query
//!    [`QueryStats`](overlay_sim::QueryStats) fingerprints must match, so
//!    every benchmark run is also a determinism check.
//! 2. **Sweep scaling** — a fig06-style (size × seed) grid executed by the
//!    deterministic parallel runner ([`bench::sweep`]) once on 1 thread and
//!    once on `AUTOSEL_THREADS` (default: available cores, capped) threads.
//!    Result digests must be identical; the entry records the speedup.
//!
//! The output file keeps one JSON entry object per line under `"entries"`;
//! re-running with the same `AUTOSEL_BENCH_TAG` replaces that tag's entries
//! and keeps everything else, so the file accumulates a trajectory of
//! tagged measurements (`pre-hotpath` is the frozen pre-optimization
//! baseline — do not overwrite it).
//!
//! `--check` exits non-zero unless the file was written, is well-formed,
//! every determinism digest matched, **and** no tier's `rss_mib` exceeds
//! the pinned same-N `current` entry in `AUTOSEL_BENCH_BASELINE` (default
//! `BENCH_sim.json`, read before anything is written) by more than 15% —
//! CI's `bench-smoke` gate pins memory regressions like speed ones.
//!
//! ```text
//! AUTOSEL_BENCH_N=200 AUTOSEL_BENCH_SEEDS=2 \
//!   cargo run --release -p bench --bin sweepbench -- --check
//! ```

#![allow(clippy::disallowed_methods)] // wall-clock: this benchmark measures real elapsed time

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::Write as _;
use std::time::Instant;

use attrspace::Space;
use bench::artifact::{self, SimSingle, SimSweep};
use bench::experiments::{DEFAULT_F, DEFAULT_SIGMA};
use bench::sweep::{run_parallel, threads};
use overlay_sim::workload::best_case_query;
use overlay_sim::{Placement, SimCluster, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SCHEMA: &str = "autosel/bench-sim/v1";
const QUERIES_PER_RUN: usize = 40;
/// A tier's peak RSS may exceed its pinned baseline by at most this factor
/// before `--check` fails.
const RSS_TOLERANCE: f64 = 1.15;

fn env_usize_list(key: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(key)
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&n: &usize| n > 0)
                .collect::<Vec<_>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Peak resident set of *this* process in MiB, from `VmHWM` in
/// `/proc/self/status` (kernel-maintained high-water mark; no deps, no
/// sampling thread). 0.0 if the proc file is unavailable (non-Linux).
fn vm_hwm_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// One timed single-run point: builds the cluster, runs the query batch,
/// returns (setup_ms, query_ms, digest-of-fingerprints).
fn single_run(n: usize, seed: u64) -> (f64, f64, u64) {
    let space = Space::uniform(5, 80, 3).expect("space");
    let placement = Placement::Uniform { lo: 0, hi: 80 };

    let t0 = Instant::now();
    let mut sim = SimCluster::new(space.clone(), SimConfig::fast_static(), seed);
    sim.populate(&placement, n);
    sim.wire_oracle();
    let setup_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut rng = StdRng::seed_from_u64(seed ^ 0x51EE_BE7C);
    let mut hasher = DefaultHasher::new();
    let t1 = Instant::now();
    for _ in 0..QUERIES_PER_RUN {
        let q = best_case_query(&space, DEFAULT_F, &mut rng);
        let origin = sim.random_node();
        let qid = sim.issue_query(origin, q, Some(DEFAULT_SIGMA));
        sim.run_to_quiescence();
        sim.query_stats(qid)
            .expect("stats")
            .fingerprint()
            .hash(&mut hasher);
        sim.forget_query(qid);
    }
    let query_ms = t1.elapsed().as_secs_f64() * 1e3;
    (setup_ms, query_ms, hasher.finish())
}

/// Runs a tier in the current process: double single-run (determinism
/// check) plus this process's `VmHWM`. In the child this is the whole
/// program; as the parent's fallback the RSS is an over-estimate (the
/// process high-water mark is monotone across tiers).
fn measure_tier(n: usize, seed: u64) -> SimSingle {
    let (setup_a, query_a, digest_a) = single_run(n, seed);
    let (_, _, digest_b) = single_run(n, seed);
    SimSingle {
        n,
        queries: QUERIES_PER_RUN,
        seed,
        setup_ms: setup_a,
        query_ms: query_a,
        digest: digest_a,
        deterministic: digest_a == digest_b,
        rss_mib: vm_hwm_mib(),
    }
}

/// `--one-shot N SEED` child entry point: measure one tier, print one
/// machine-readable line on stdout, exit.
fn one_shot_main(n: usize, seed: u64) -> ! {
    let r = measure_tier(n, seed);
    println!(
        "ONESHOT n={n} setup_ms={:.2} query_ms={:.2} digest={:016x} deterministic={} rss_mib={:.1}",
        r.setup_ms, r.query_ms, r.digest, r.deterministic, r.rss_mib
    );
    std::process::exit(0);
}

/// Parses the child's `ONESHOT k=v ...` line for tier `(n, seed)`.
fn parse_one_shot(stdout: &str, n: usize, seed: u64) -> Option<SimSingle> {
    let line = stdout.lines().find(|l| l.starts_with("ONESHOT "))?;
    let field = |key: &str| -> Option<&str> {
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
    };
    Some(SimSingle {
        n,
        queries: QUERIES_PER_RUN,
        seed,
        setup_ms: field("setup_ms")?.parse().ok()?,
        query_ms: field("query_ms")?.parse().ok()?,
        digest: u64::from_str_radix(field("digest")?, 16).ok()?,
        deterministic: field("deterministic")? == "true",
        rss_mib: field("rss_mib")?.parse().ok()?,
    })
}

/// Measures a tier in a child process (per-tier `VmHWM`); falls back to
/// in-process measurement if the re-exec fails for any reason.
fn run_tier(n: usize, seed: u64) -> SimSingle {
    let child = std::env::current_exe().ok().and_then(|exe| {
        std::process::Command::new(exe)
            .args(["--one-shot", &n.to_string(), &seed.to_string()])
            .output()
            .ok()
    });
    if let Some(out) = child {
        std::io::stderr().write_all(&out.stderr).ok();
        if let Some(r) = parse_one_shot(&String::from_utf8_lossy(&out.stdout), n, seed) {
            return r;
        }
        eprintln!("[sweepbench] child run for N={n} unparseable; re-measuring in-process");
    } else {
        eprintln!("[sweepbench] could not re-exec for N={n}; measuring in-process");
    }
    measure_tier(n, seed)
}

/// The fig06-style sweep grid: every (size, seed) point as an independent
/// job returning a digest of its per-query stats.
fn sweep_jobs(sizes: &[usize], seeds: usize) -> Vec<impl FnOnce() -> u64 + Send + use<>> {
    let mut jobs = Vec::new();
    for &n in sizes {
        for s in 0..seeds as u64 {
            jobs.push(move || single_run(n, 0xF16_0600 ^ s ^ ((n as u64) << 20)).2);
        }
    }
    jobs
}

/// Pinned `(n, rss_mib)` pairs from the baseline file's `current`-tag
/// single entries — the reference points for the `--check` RSS gate.
fn baseline_rss(path: &str) -> Vec<(usize, f64)> {
    let body = std::fs::read_to_string(path).unwrap_or_default();
    let pinned = artifact::Row::new("current", "single", None).finish();
    artifact::entries(&body)
        .filter(|l| artifact::same_key(l, &pinned))
        .filter_map(|l| {
            let n = artifact::num(l, "n")? as usize;
            let rss = artifact::num(l, "rss_mib")?;
            (rss > 0.0).then_some((n, rss))
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--one-shot") {
        let n: usize = args
            .get(2)
            .and_then(|s| s.parse().ok())
            .expect("--one-shot N SEED");
        let seed: u64 = args
            .get(3)
            .and_then(|s| s.parse().ok())
            .expect("--one-shot N SEED");
        one_shot_main(n, seed);
    }
    let check_mode = args.iter().any(|a| a == "--check");
    let sizes = env_usize_list(
        "AUTOSEL_BENCH_N",
        &[1_000, 5_000, 10_000, 100_000, 1_000_000],
    );
    let seeds = env_usize("AUTOSEL_BENCH_SEEDS", 2).max(1);
    let tag = std::env::var("AUTOSEL_BENCH_TAG").unwrap_or_else(|_| "current".to_string());
    let out_path =
        std::env::var("AUTOSEL_BENCH_OUT").unwrap_or_else(|_| "BENCH_sim.json".to_string());
    let baseline_path =
        std::env::var("AUTOSEL_BENCH_BASELINE").unwrap_or_else(|_| "BENCH_sim.json".to_string());
    // Read the RSS baseline before anything is written: out and baseline
    // may be the same file.
    let pinned_rss = baseline_rss(&baseline_path);
    let t = threads();

    let mut entries: Vec<String> = Vec::new();
    let mut measured_rss: Vec<(usize, f64)> = Vec::new();
    let mut determinism_ok = true;

    // ---- single-run wall clock + peak RSS, one child process per tier
    // (each point doubles as a determinism check)
    for &n in &sizes {
        eprintln!("[sweepbench] single run, N={n}…");
        let r = run_tier(n, 42);
        determinism_ok &= r.deterministic;
        println!(
            "single N={n}: setup {:.1} ms, {QUERIES_PER_RUN} queries {:.1} ms, total {:.1} ms, rss {:.1} MiB, deterministic={}",
            r.setup_ms, r.query_ms, r.setup_ms + r.query_ms, r.rss_mib, r.deterministic
        );
        measured_rss.push((n, r.rss_mib));
        entries.push(r.row(&tag));
    }

    // ---- sweep scaling: serial vs parallel over the (size × seed) grid
    let mut grid_sizes: Vec<usize> = sizes.iter().map(|&n| n.min(2_000)).collect();
    grid_sizes.dedup();
    let jobs_n = grid_sizes.len() * seeds;
    eprintln!("[sweepbench] sweep grid: {jobs_n} jobs, serial…");
    let t0 = Instant::now();
    let serial = run_parallel(sweep_jobs(&grid_sizes, seeds), 1);
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!("[sweepbench] sweep grid: {jobs_n} jobs, {t} threads…");
    let t1 = Instant::now();
    let parallel = run_parallel(sweep_jobs(&grid_sizes, seeds), t);
    let parallel_ms = t1.elapsed().as_secs_f64() * 1e3;
    let sweep = SimSweep {
        jobs: jobs_n,
        threads: t,
        serial_ms,
        parallel_ms,
        digests_match: serial == parallel,
    };
    determinism_ok &= sweep.digests_match;
    println!(
        "sweep {jobs_n} jobs: serial {serial_ms:.1} ms, {t} threads {parallel_ms:.1} ms, speedup {:.2}x, digests_match={}",
        sweep.speedup(),
        sweep.digests_match
    );
    entries.push(sweep.row(&tag));

    // ---- merge with the file's other (tag, kind) rows and write
    let total = artifact::merge(&out_path, SCHEMA, entries).expect("write BENCH_sim.json");
    println!("wrote {out_path} ({total} entries)");

    // ---- --check: validate the artifact, determinism digests, RSS gate
    if check_mode {
        if let Err(why) = artifact::verify(&out_path, SCHEMA, total) {
            eprintln!("--check FAILED: {why}");
            std::process::exit(1);
        }
        if !determinism_ok {
            eprintln!("--check FAILED: determinism digest mismatch");
            std::process::exit(1);
        }
        let mut rss_ok = true;
        for &(n, rss) in &measured_rss {
            let Some(&(_, pinned)) = pinned_rss.iter().find(|&&(pn, _)| pn == n) else {
                continue; // no pinned same-N entry: nothing to gate against
            };
            let limit = pinned * RSS_TOLERANCE;
            if rss > limit {
                eprintln!(
                    "--check FAILED: N={n} peak RSS {rss:.1} MiB exceeds pinned {pinned:.1} MiB by >15% (limit {limit:.1})"
                );
                rss_ok = false;
            } else {
                println!("rss gate N={n}: {rss:.1} MiB vs pinned {pinned:.1} MiB — ok");
            }
        }
        if !rss_ok {
            std::process::exit(1);
        }
        println!("--check OK: well-formed, deterministic, rss within bounds");
    }
}
