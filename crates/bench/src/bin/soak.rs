//! Long-horizon virtual-time soak harness over the scenario DSL.
//!
//! ```text
//! soak run [--family churn|flash|diurnal|outage|composed] [--n N]
//!          [--vhours H | --horizon-ms MS] [--seed S] [--sample-ms MS]
//!          [--out FILE] [--min-view-pct P] [--max-age-factor-x10 F]
//! soak check FILE [--min-view-pct P] [--max-age-factor-x10 F]
//! ```
//!
//! `run` compiles the named [`ScenarioSpec::family`], drives a
//! [`SoakRunner`] through the whole arc with the scenario's
//! [`InvariantChecker`](overlay_sim::InvariantChecker) armed, and writes a
//! JSONL timeline: one header record, one record per fixed virtual-time
//! sample (`gossip_health()` gauges merged with obs-registry counters
//! read at the same instant), one footer. Exit 1 on an invariant
//! violation or a gossip-health bound breach.
//!
//! `check` re-reads a timeline and independently verifies it: closed key
//! sets, strictly increasing sample times, monotone cumulative counters,
//! zero pending state at the end, a clean footer, a matching recomputed
//! timeline digest, and the same gossip-health recovery bounds — the
//! reproducibility gate CI runs against the artifact `run` just wrote.
//!
//! Health bounds (both modes): with the first sample (taken at warmup
//! end, before any adversity) as the baseline, the *final* sample's
//! per-layer mean view size must stay ≥ `--min-view-pct`% (default 50)
//! of baseline and its mean descriptor age ≤ `--max-age-factor-x10`/10×
//! (default 3.0×) baseline — i.e. the overlay must have *recovered* from
//! whatever the arc did, not merely survived it.

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

use autosel_obs::json::{parse_object, ObjectWriter};
use autosel_obs::{ObsHandle, Registry};
use synthtrace::scenario::{timeline_digest, ScenarioSpec, SoakRunner, SoakSample, FAMILIES};

fn usage() -> ! {
    eprintln!(
        "usage: soak run [--family {}] [--n N] [--vhours H | --horizon-ms MS]\n\
         \x20               [--seed S] [--sample-ms MS] [--out FILE]\n\
         \x20               [--min-view-pct P] [--max-age-factor-x10 F]\n\
         \x20      soak check FILE [--min-view-pct P] [--max-age-factor-x10 F]",
        FAMILIES.join("|")
    );
    std::process::exit(2)
}

/// The closed key set of a sample record (`check` rejects drift).
const SAMPLE_KEYS: &[&str] = &[
    "kind",
    "t_ms",
    "alive",
    "crashed",
    "queued",
    "pending",
    "timeouts",
    "duplicates",
    "rnd_view_x1000",
    "rnd_age_x1000",
    "sem_view_x1000",
    "sem_age_x1000",
    "turnover",
    "issued",
    "harvested",
    "delivery_x1000",
    "reg_gossip_rounds",
    "reg_query_received",
    "reg_reply_sent",
    "reg_duplicates",
];

struct Bounds {
    min_view_pct: u64,
    max_age_factor_x10: u64,
}

impl Bounds {
    /// Final-vs-baseline recovery check over `(view_x1000, age_x1000)`
    /// readings of one gossip layer. Returns an error description.
    fn check_layer(
        &self,
        layer: &str,
        baseline: (u64, u64),
        fin: (u64, u64),
    ) -> Result<(), String> {
        if fin.0 * 100 < baseline.0 * self.min_view_pct {
            return Err(format!(
                "{layer} view degraded: final {} < {}% of baseline {}",
                fin.0, self.min_view_pct, baseline.0
            ));
        }
        if baseline.1 > 0 && fin.1 * 10 > baseline.1 * self.max_age_factor_x10 {
            return Err(format!(
                "{layer} age degraded: final {} > {}/10 x baseline {}",
                fin.1, self.max_age_factor_x10, baseline.1
            ));
        }
        Ok(())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("check") => check_cmd(&args[1..]),
        _ => usage(),
    }
}

fn num(it: &mut std::slice::Iter<String>) -> u64 {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage())
}

fn run_cmd(args: &[String]) -> ExitCode {
    let mut family = "composed".to_string();
    let mut n: u32 = 250;
    let mut horizon_ms: u64 = 3_600_000;
    let mut seed: u64 = 42;
    let mut sample_ms: u64 = 300_000;
    let mut out: Option<String> = None;
    let mut bounds = Bounds {
        min_view_pct: 50,
        max_age_factor_x10: 30,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--family" => family = it.next().unwrap_or_else(|| usage()).clone(),
            "--n" => n = num(&mut it) as u32,
            "--vhours" => horizon_ms = num(&mut it) * 3_600_000,
            "--horizon-ms" => horizon_ms = num(&mut it),
            "--seed" => seed = num(&mut it),
            "--sample-ms" => sample_ms = num(&mut it),
            "--out" => out = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--min-view-pct" => bounds.min_view_pct = num(&mut it),
            "--max-age-factor-x10" => bounds.max_age_factor_x10 = num(&mut it),
            _ => usage(),
        }
    }
    let Some(spec) = ScenarioSpec::family(&family, n, horizon_ms) else {
        eprintln!(
            "soak: unknown family {family:?} (known: {})",
            FAMILIES.join(", ")
        );
        return ExitCode::from(2);
    };

    let mut sink: Box<dyn Write> = match &out {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Box::new(std::io::BufWriter::new(f)),
            Err(e) => {
                eprintln!("soak: cannot create {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => Box::new(std::io::stdout()),
    };

    let mut runner = SoakRunner::new(&spec, seed);
    let registry = Arc::new(Registry::new());
    runner.set_observer(ObsHandle::new(registry.clone()));
    let compiled_digest = runner.compiled().digest();

    let mut header = ObjectWriter::new();
    header.str_field("kind", "soak_header");
    header.str_field("family", &family);
    header.u64_field("n0", u64::from(n));
    header.u64_field("seed", seed);
    header.u64_field("horizon_ms", horizon_ms);
    header.u64_field("warmup_ms", runner.compiled().warmup_ms);
    header.u64_field("sample_ms", sample_ms);
    header.str_field("strictness", &format!("{:?}", runner.compiled().strictness));
    header.str_field("compile_digest", &format!("{compiled_digest:016x}"));
    let _ = writeln!(sink, "{}", header.finish());

    let mut lines = Vec::new();
    let result = runner.run_hooks(
        sample_ms,
        |_| {},
        |s: &SoakSample| {
            let mut w = ObjectWriter::new();
            w.str_field("kind", "soak_sample");
            w.u64_field("t_ms", s.t_ms);
            w.u64_field("alive", s.alive);
            w.u64_field("crashed", s.crashed);
            w.u64_field("queued", s.queued);
            w.u64_field("pending", s.pending);
            w.u64_field("timeouts", s.timeouts);
            w.u64_field("duplicates", s.duplicates);
            w.u64_field("rnd_view_x1000", s.rnd_view_x1000);
            w.u64_field("rnd_age_x1000", s.rnd_age_x1000);
            w.u64_field("sem_view_x1000", s.sem_view_x1000);
            w.u64_field("sem_age_x1000", s.sem_age_x1000);
            w.u64_field("turnover", s.turnover);
            w.u64_field("issued", s.issued);
            w.u64_field("harvested", s.harvested);
            w.u64_field("delivery_x1000", s.delivery_x1000);
            w.u64_field("reg_gossip_rounds", registry.counter("event.gossip_round"));
            w.u64_field(
                "reg_query_received",
                registry.counter("event.query_received"),
            );
            w.u64_field("reg_reply_sent", registry.counter("event.reply_sent"));
            w.u64_field("reg_duplicates", registry.counter("query.duplicates"));
            lines.push(w.finish());
        },
    );

    for line in &lines {
        let _ = writeln!(sink, "{line}");
    }
    let (samples, violation) = match result {
        Ok(s) => (s, None),
        Err(v) => (Vec::new(), Some(v)),
    };
    let mut footer = ObjectWriter::new();
    footer.str_field("kind", "soak_footer");
    footer.u64_field("samples", lines.len() as u64);
    match &violation {
        None => footer.str_field("violation", "none"),
        Some(v) => footer.str_field("violation", &v.to_string()),
    }
    footer.str_field(
        "timeline_digest",
        &format!("{:016x}", timeline_digest(&samples)),
    );
    let _ = writeln!(sink, "{}", footer.finish());
    let _ = sink.flush();

    if let Some(v) = violation {
        eprintln!(
            "soak run: INVARIANT VIOLATION at t={} ms: {v}",
            runner.sim().now()
        );
        eprintln!("soak run: reproduce with --family {family} --n {n} --seed {seed}");
        return ExitCode::FAILURE;
    }
    let first = samples.first().expect("at least one sample");
    let last = samples.last().expect("at least one sample");
    for (layer, base, fin) in [
        (
            "random",
            (first.rnd_view_x1000, first.rnd_age_x1000),
            (last.rnd_view_x1000, last.rnd_age_x1000),
        ),
        (
            "semantic",
            (first.sem_view_x1000, first.sem_age_x1000),
            (last.sem_view_x1000, last.sem_age_x1000),
        ),
    ] {
        if let Err(e) = bounds.check_layer(layer, base, fin) {
            eprintln!("soak run: gossip-health bound breached: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "soak run: {family} n={n} seed={seed}: {} samples, {} queries harvested, \
         final delivery {}/1000, zero violations",
        samples.len(),
        last.harvested,
        last.delivery_x1000,
    );
    ExitCode::SUCCESS
}

fn check_cmd(args: &[String]) -> ExitCode {
    let mut path: Option<&String> = None;
    let mut bounds = Bounds {
        min_view_pct: 50,
        max_age_factor_x10: 30,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--min-view-pct" => bounds.min_view_pct = num(&mut it),
            "--max-age-factor-x10" => bounds.max_age_factor_x10 = num(&mut it),
            _ if path.is_none() && !a.starts_with("--") => path = Some(a),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("soak check: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match check_timeline(&text, &bounds) {
        Ok(n) => {
            println!("soak check: {path}: {n} samples, all invariants hold");
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("soak check: {path}: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Validates one timeline text; returns the sample count.
fn check_timeline(text: &str, bounds: &Bounds) -> Result<usize, String> {
    let mut samples: Vec<SoakSample> = Vec::new();
    let mut saw_header = false;
    let mut footer: Option<(u64, String, String)> = None;
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let obj = parse_object(line).map_err(|e| format!("line {}: {e}", no + 1))?;
        let kind = obj
            .str("kind")
            .map_err(|e| format!("line {}: {e}", no + 1))?;
        match kind {
            "soak_header" => {
                if saw_header {
                    return Err(format!("line {}: duplicate header", no + 1));
                }
                saw_header = true;
                obj.expect_only(&[
                    "kind",
                    "family",
                    "n0",
                    "seed",
                    "horizon_ms",
                    "warmup_ms",
                    "sample_ms",
                    "strictness",
                    "compile_digest",
                ])
                .map_err(|e| format!("line {}: {e}", no + 1))?;
            }
            "soak_sample" => {
                if footer.is_some() {
                    return Err(format!("line {}: sample after footer", no + 1));
                }
                obj.expect_only(SAMPLE_KEYS)
                    .map_err(|e| format!("line {}: {e}", no + 1))?;
                let f = |name: &str| -> Result<u64, String> {
                    obj.u64(name).map_err(|e| format!("line {}: {e}", no + 1))
                };
                samples.push(SoakSample {
                    t_ms: f("t_ms")?,
                    alive: f("alive")?,
                    crashed: f("crashed")?,
                    queued: f("queued")?,
                    pending: f("pending")?,
                    timeouts: f("timeouts")?,
                    duplicates: f("duplicates")?,
                    rnd_view_x1000: f("rnd_view_x1000")?,
                    rnd_age_x1000: f("rnd_age_x1000")?,
                    sem_view_x1000: f("sem_view_x1000")?,
                    sem_age_x1000: f("sem_age_x1000")?,
                    turnover: f("turnover")?,
                    issued: f("issued")?,
                    harvested: f("harvested")?,
                    delivery_x1000: f("delivery_x1000")?,
                });
            }
            "soak_footer" => {
                if footer.is_some() {
                    return Err(format!("line {}: duplicate footer", no + 1));
                }
                obj.expect_only(&["kind", "samples", "violation", "timeline_digest"])
                    .map_err(|e| format!("line {}: {e}", no + 1))?;
                footer = Some((
                    obj.u64("samples")
                        .map_err(|e| format!("line {}: {e}", no + 1))?,
                    obj.str("violation")
                        .map_err(|e| format!("line {}: {e}", no + 1))?
                        .to_string(),
                    obj.str("timeline_digest")
                        .map_err(|e| format!("line {}: {e}", no + 1))?
                        .to_string(),
                ));
            }
            other => return Err(format!("line {}: unknown kind {other:?}", no + 1)),
        }
    }
    if !saw_header {
        return Err("missing header".into());
    }
    let (count, violation, digest_hex) = footer.ok_or("missing footer")?;
    if violation != "none" {
        return Err(format!("run recorded a violation: {violation}"));
    }
    if count != samples.len() as u64 {
        return Err(format!(
            "footer says {count} samples, file has {}",
            samples.len()
        ));
    }
    if samples.is_empty() {
        return Err("timeline has no samples".into());
    }
    let digest =
        u64::from_str_radix(&digest_hex, 16).map_err(|e| format!("bad timeline_digest: {e}"))?;
    if digest != timeline_digest(&samples) {
        return Err("timeline digest mismatch: samples were altered or truncated".into());
    }
    let mut prev: Option<&SoakSample> = None;
    for s in &samples {
        if let Some(p) = prev {
            if s.t_ms <= p.t_ms {
                return Err(format!("sample times not increasing at t={}", s.t_ms));
            }
            // Only runner-owned counters are truly cumulative; the
            // per-node sums (timeouts, turnover, duplicates) are gauges —
            // a crash removes that node's contribution.
            for (name, a, b) in [
                ("issued", p.issued, s.issued),
                ("harvested", p.harvested, s.harvested),
            ] {
                if b < a {
                    return Err(format!(
                        "cumulative counter {name} decreased at t={}",
                        s.t_ms
                    ));
                }
            }
        }
        if s.harvested > s.issued {
            return Err(format!("harvested > issued at t={}", s.t_ms));
        }
        prev = Some(s);
    }
    let last = samples.last().expect("non-empty");
    if last.pending != 0 {
        return Err(format!(
            "final sample leaks {} pending record(s)",
            last.pending
        ));
    }
    if last.harvested != last.issued {
        return Err(format!(
            "drain incomplete: {} issued, {} harvested",
            last.issued, last.harvested
        ));
    }
    let first = samples.first().expect("non-empty");
    for (layer, base, fin) in [
        (
            "random",
            (first.rnd_view_x1000, first.rnd_age_x1000),
            (last.rnd_view_x1000, last.rnd_age_x1000),
        ),
        (
            "semantic",
            (first.sem_view_x1000, first.sem_age_x1000),
            (last.sem_view_x1000, last.sem_age_x1000),
        ),
    ] {
        bounds.check_layer(layer, base, fin)?;
    }
    Ok(samples.len())
}
