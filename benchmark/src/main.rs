//! The one benchmark for autosel. See `README.md` beside the manifest for
//! what every workload and metric means.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, in this process
//! benchmark all [--seed n] [--seconds s | --smoke] [--trace] [--out f] every workload, a child process each
//! benchmark compare A.json B.json                                      gate B against A
//! benchmark spec                                                       print BENCHMARK.json
//! ```

mod json;
mod live;
mod probes;
mod procfs;
mod report;
mod sim_churn;
mod sim_static;
mod spec;
mod stats;
mod trace;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Value;
use report::{stored_values, STORED_PREFIX};
use spec::{Metric, END_TO_END, PER_LAYER, WORKLOADS};

/// Seconds one run measures unless told otherwise; `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 2.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("spec") => {
            print!("{}", benchmark_json());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => one(&args),
        _ => Err("usage: benchmark (--workload W --seed N --seconds S --trace 0|1 | all [--seed N] [--seconds S | --smoke] [--trace] [--out FILE] | compare A.json B.json | spec)".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

/// The value following `flag`, parsed; `None` when the flag is absent.
fn flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a valid value")),
    }
}

/// Driver mode: one workload in this process, result line last.
fn one(args: &[String]) -> Result<bool, String> {
    let workload: String = flag(args, "--workload")?.ok_or("--workload is required")?;
    let seed: u64 = flag(args, "--seed")?.ok_or("--seed is required")?;
    let seconds: f64 = flag(args, "--seconds")?.ok_or("--seconds is required")?;
    let trace = match flag::<u8>(args, "--trace")?.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    if !spec::is_workload(&workload) {
        return Err(format!("unknown workload {workload}"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let mut rep = match workload.as_str() {
        spec::SIM_STATIC => sim_static::run(seed, seconds, trace),
        spec::SIM_CHURN => sim_churn::run(seed, seconds, trace),
        spec::LIVE_TCP => live::run(true, seed, seconds, trace),
        _ => live::run(false, seed, seconds, trace),
    };
    let declared = spec::declared(trace);
    rep.conform(declared, trace)?;
    print!("{}", rep.human(&workload, declared));
    println!("{STORED_PREFIX}{}", rep.stored(declared));
    println!("{}", rep.result_line(declared));
    Ok(true)
}

/// Re-executes this binary for one workload run and returns its stored
/// result object, as printed and parsed.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<(String, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child for {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut stored = None;
    let mut lines = stdout.lines().peekable();
    while let Some(line) = lines.next() {
        match line.strip_prefix(STORED_PREFIX) {
            Some(s) => stored = Some(s.to_string()),
            // The result line is for the driver; `all` prints the rest.
            None if lines.peek().is_some() => println!("{line}"),
            None => {}
        }
    }
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            u8::from(trace),
            out.status
        ));
    }
    let stored = stored.ok_or_else(|| format!("{workload} printed no result"))?;
    let parsed = json::parse(&stored)?;
    Ok((stored, parsed))
}

/// Every workload, one child process each; prints every metric and writes
/// the result file `compare` reads.
fn all(args: &[String]) -> Result<bool, String> {
    let seed: u64 = flag(args, "--seed")?.unwrap_or(42);
    let trace = args.iter().any(|a| a == "--trace");
    let smoke = args.iter().any(|a| a == "--smoke");
    let seconds: f64 = flag(args, "--seconds")?.unwrap_or(if smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let out: PathBuf = flag::<String>(args, "--out")?.map_or_else(
        || trace::out_dir().join(format!("results-seed{seed}.json")),
        PathBuf::from,
    );

    let mut ok = true;
    let mut entries = Vec::new();
    let mut rates = Vec::new();
    for (workload, _) in WORKLOADS {
        let (end_to_end, parsed) = child(workload, seed, seconds, false)?;
        ok &= parsed.get("correct").and_then(Value::as_bool) == Some(true);
        let rate = stored_values(&parsed).get("queries_per_s").copied();
        rates.push((workload, rate.unwrap_or(0.0)));
        let per_layer = if trace {
            let (per_layer, parsed) = child(workload, seed, seconds, true)?;
            ok &= parsed.get("correct").and_then(Value::as_bool) == Some(true);
            per_layer
        } else {
            "null".into()
        };
        entries.push(format!(
            "{}: {{\"end_to_end\": {end_to_end}, \"per_layer\": {per_layer}}}",
            json::quote(workload)
        ));
    }
    let doc = format!(
        "{{\"seed\": {seed}, \"seconds\": {}, \"workloads\": {{\n{}\n}}}}\n",
        json::num(seconds),
        entries.join(",\n")
    );
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, doc).map_err(|e| format!("{}: {e}", out.display()))?;
    for (workload, rate) in rates {
        println!("{workload:<16} queries_per_s {rate:>12.1} 1/s");
    }
    println!(
        "results: {} ({})",
        out.display(),
        if ok {
            "every output verified"
        } else {
            "FAILURES"
        }
    );
    Ok(ok)
}

/// By how much `b` is worse than `a`, as a share of `a` (negative: better).
fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    let delta = if m.better == "lower" { b - a } else { a - b };
    if a == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.abs()
    }
}

/// What `compare` found wrong between two result files' workloads.
fn regressions(a: &Value, b: &Value) -> Vec<String> {
    let same_seed = a.get("seed").and_then(Value::as_f64) == b.get("seed").and_then(Value::as_f64);
    let mut found = Vec::new();
    for (workload, _) in WORKLOADS {
        let run = |doc: &Value| {
            doc.get("workloads")?
                .get(workload)?
                .get("end_to_end")
                .cloned()
        };
        let (Some(ra), Some(rb)) = (run(a), run(b)) else {
            found.push(format!("{workload}: missing from one of the files"));
            continue;
        };
        let (va, vb) = (stored_values(&ra), stored_values(&rb));
        for m in &END_TO_END {
            let (Some(&x), Some(&y)) = (va.get(m.name), vb.get(m.name)) else {
                found.push(format!("{workload}: {} missing", m.name));
                continue;
            };
            let w = worsening(m, x, y);
            let verdict = if w > m.bound { "WORSE" } else { "ok" };
            println!(
                "{workload:<16} {:<16} {x:>14.4} -> {y:>14.4} {:<6} {:>+7.2} % (bound {:.0} %) {verdict}",
                m.name, m.unit, w * 100.0, m.bound * 100.0
            );
            if w > m.bound {
                found.push(format!(
                    "{workload}: {} worse by {:.1} %, bound {:.0} %",
                    m.name,
                    w * 100.0,
                    m.bound * 100.0
                ));
            }
        }
        let frac = |r: &Value| {
            let n = |k| r.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            n("failed") / n("attempted").max(1.0)
        };
        if frac(&rb) > frac(&ra) {
            found.push(format!(
                "{workload}: failed_frac rose from {} to {}",
                frac(&ra),
                frac(&rb)
            ));
        }
        // Equal seeds replay the simulator exactly: its fixed-count
        // fingerprints must not differ at all.
        if same_seed && ra.get("digest") != rb.get("digest") {
            found.push(format!("{workload}: digests differ for equal seeds"));
        }
    }
    found
}

/// `compare A.json B.json`: true when B is no worse than A.
fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two result files".into());
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let found = regressions(&read(a)?, &read(b)?);
    for f in &found {
        println!("REGRESSION {f}");
    }
    Ok(found.is_empty())
}

/// `BENCHMARK.json`, rendered from the declarations in `spec`.
fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::quote(n),
                json::quote(why)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(m.better),
                json::num(m.bound)
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        DEFAULT_SECONDS,
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names the harness emits are exactly those `BENCHMARK.json`
    /// declares: the committed file is the rendering of `spec`.
    #[test]
    fn benchmark_json_is_the_rendering_of_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(
            json::parse(&committed) == json::parse(&benchmark_json()),
            "BENCHMARK.json is stale: regenerate it with `benchmark spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn declarations_stay_within_the_contract_limits() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = std::collections::HashSet::new();
        for (w, why) in WORKLOADS {
            assert!(name_ok(w) && names.insert(w), "{w}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{w}: why is {} chars",
                why.len()
            );
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: unit {}", m.name, m.unit);
            assert!(["lower", "higher"].contains(&m.better), "{}", m.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(PER_LAYER.len() <= 128 && benchmark_json().len() < 64 * 1024);
    }

    fn results(seed: u64, qps: f64, failed: u64, digest: &str) -> Value {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                let v = if m.name == "queries_per_s" { qps } else { 10.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\", \"n\": 1, \"of\": \"x\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        let run = format!(
            "{{\"correct\": true, \"attempted\": 100, \"failed\": {failed}, \"digest\": {{\"hash\": \"{digest}\", \"count\": 5}}, \"notes\": [], \"metrics\": {{{}}}}}",
            metrics.join(", ")
        );
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|(w, _)| format!("\"{w}\": {{\"end_to_end\": {run}, \"per_layer\": null}}"))
            .collect();
        json::parse(&format!(
            "{{\"seed\": {seed}, \"seconds\": 15, \"workloads\": {{{}}}}}",
            workloads.join(", ")
        ))
        .unwrap()
    }

    #[test]
    fn compare_passes_equal_and_better_results() {
        let a = results(42, 1000.0, 0, "aa");
        assert!(regressions(&a, &a).is_empty());
        assert!(
            regressions(&a, &results(42, 1400.0, 0, "aa")).is_empty(),
            "faster is not a regression"
        );
        assert!(
            regressions(&a, &results(42, 900.0, 0, "aa")).is_empty(),
            "within the 25 % bound"
        );
        assert!(
            regressions(&a, &results(7, 1000.0, 0, "bb")).is_empty(),
            "other seed, other digest"
        );
    }

    #[test]
    fn compare_flags_worse_metrics_failures_and_digests() {
        let a = results(42, 1000.0, 0, "aa");
        let slow = regressions(&a, &results(42, 700.0, 0, "aa"));
        assert_eq!(slow.len(), WORKLOADS.len());
        assert!(
            slow[0].contains("queries_per_s worse by 30.0 %"),
            "{slow:?}"
        );
        assert!(regressions(&a, &results(42, 1000.0, 1, "aa"))[0].contains("failed_frac rose"));
        assert!(regressions(&a, &results(42, 1000.0, 0, "ab"))[0].contains("digests differ"));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = &END_TO_END[0];
        let higher = &END_TO_END[1];
        assert_eq!((lower.better, higher.better), ("lower", "higher"));
        assert!((worsening(lower, 2.0, 2.5) - 0.25).abs() < 1e-12);
        assert!((worsening(higher, 2.0, 2.5) + 0.25).abs() < 1e-12);
        assert_eq!(worsening(lower, 0.0, 0.0), 0.0);
    }
}
