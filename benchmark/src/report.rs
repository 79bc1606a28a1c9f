//! What one workload run reports, and the two forms it is printed in: a
//! line per metric for people, and the one-line JSON result the driver
//! reads last.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::spec::Metric;

/// One measured metric: its value, how many samples stand behind it, and
/// what a sample is.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub n: u64,
    pub of: &'static str,
}

/// FNV-1a over the fixed-count `QueryStats` fingerprints of a sim workload:
/// equal seeds must give equal digests, on any commit that keeps behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub hash: u64,
    pub count: u64,
}

impl Digest {
    pub fn new() -> Self {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            count: 0,
        }
    }

    pub fn absorb(&mut self, fingerprint: &str) {
        for b in fingerprint.bytes().chain([b'\n']) {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.count += 1;
    }
}

#[derive(Debug, Default)]
pub struct Report {
    /// Operations started (queries or probes, warm-up excluded).
    pub attempted: u64,
    /// Operations that timed out, were refused, or returned a wrong result.
    pub failed: u64,
    /// The first few failure reasons, for the human output.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, Reading>,
    pub digest: Option<Digest>,
    /// Free-form flags (`generator_bound`, short digests, …).
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, n: u64, of: &'static str) {
        self.metrics.insert(name, Reading { value, n, of });
    }

    /// Several readings at once: `(name, value, samples, what a sample is)`.
    pub fn set_all<const N: usize>(
        &mut self,
        readings: [(&'static str, f64, u64, &'static str); N],
    ) {
        for (name, value, n, of) in readings {
            self.set(name, value, n, of);
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Checks the readings against the declared set: every declared metric
    /// present, nothing undeclared. Per-layer metrics of layers a workload
    /// bypasses read 0 with no samples.
    pub fn conform(&mut self, declared: &[Metric], fill_missing: bool) -> Result<(), String> {
        for m in declared {
            if !self.metrics.contains_key(m.name) {
                if fill_missing {
                    self.set(m.name, 0.0, 0, "bypassed");
                } else {
                    return Err(format!("metric {} was not measured", m.name));
                }
            }
        }
        match self
            .metrics
            .keys()
            .find(|k| !declared.iter().any(|m| m.name == **k))
        {
            Some(extra) => Err(format!("metric {extra} is not declared in BENCHMARK.json")),
            None => Ok(()),
        }
    }

    /// One line per metric, then digest, notes and failures.
    pub fn human(&self, workload: &str, declared: &[Metric]) -> String {
        let mut out = String::new();
        for m in declared {
            let r = &self.metrics[m.name];
            out.push_str(&format!(
                "{workload:<16} {:<34} {:>14.4} {:<6} n={} {}",
                m.name, r.value, m.unit, r.n, r.of
            ));
            if !m.moves.is_empty() {
                out.push_str(&format!("  -> {}", m.moves));
            }
            out.push('\n');
        }
        if let Some(d) = self.digest {
            out.push_str(&format!(
                "{workload:<16} digest {:016x} over {} fingerprints\n",
                d.hash, d.count
            ));
        }
        for n in &self.notes {
            out.push_str(&format!("{workload:<16} note: {n}\n"));
        }
        out.push_str(&format!(
            "{workload:<16} attempted={} failed={} failed_frac={:.6}\n",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        ));
        for f in &self.failures {
            out.push_str(&format!("{workload:<16} failure: {f}\n"));
        }
        out
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, each metric exactly `value` and `unit`.
    pub fn result_line(&self, declared: &[Metric]) -> String {
        self.json(declared, false)
    }

    /// The richer object `all` stores per workload and `compare` reads:
    /// the result line's fields plus sample counts, digest and notes.
    pub fn stored(&self, declared: &[Metric]) -> String {
        self.json(declared, true)
    }

    fn json(&self, declared: &[Metric], rich: bool) -> String {
        let metrics: Vec<String> = declared
            .iter()
            .map(|m| {
                let r = &self.metrics[m.name];
                let samples = if rich {
                    format!(", \"n\": {}, \"of\": {}", r.n, json::quote(r.of))
                } else {
                    String::new()
                };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
                    json::quote(m.name),
                    json::num(r.value),
                    json::quote(m.unit)
                )
            })
            .collect();
        let extras = if rich {
            let digest = match self.digest {
                Some(d) => format!("{{\"hash\": \"{:016x}\", \"count\": {}}}", d.hash, d.count),
                None => "null".into(),
            };
            let notes: Vec<String> = self.notes.iter().map(|n| json::quote(n)).collect();
            format!(" \"digest\": {digest}, \"notes\": [{}],", notes.join(", "))
        } else {
            String::new()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {},{extras} \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The marker before the stored form on a child's standard output; `all`
/// picks the line up by it.
pub const STORED_PREFIX: &str = "STORED ";

/// Reads a stored workload object's metric values.
pub fn stored_values(stored: &Value) -> BTreeMap<String, f64> {
    stored
        .get("metrics")
        .and_then(Value::as_obj)
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{END_TO_END, PER_LAYER};

    fn full_report() -> Report {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        for m in &END_TO_END {
            r.set(m.name, 1.5, 3, "slices");
        }
        r
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = full_report();
        let v = json::parse(&r.result_line(&END_TO_END)).unwrap();
        let keys: Vec<&String> = v.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for m in &END_TO_END {
            let entry = metrics[m.name].as_obj().unwrap();
            assert_eq!(entry.keys().collect::<Vec<_>>(), ["unit", "value"]);
            assert_eq!(entry["unit"], Value::Str(m.unit.into()));
        }
    }

    #[test]
    fn conform_rejects_missing_and_undeclared_metrics() {
        let mut r = full_report();
        assert!(r.conform(&END_TO_END, false).is_ok());
        r.set("made_up", 1.0, 1, "x");
        assert!(r
            .conform(&END_TO_END, false)
            .unwrap_err()
            .contains("made_up"));
        let mut r = Report::default();
        assert!(r
            .conform(&END_TO_END, false)
            .unwrap_err()
            .contains("setup_s"));
        assert!(r.conform(&PER_LAYER, true).is_ok());
        assert_eq!(r.metrics.len(), PER_LAYER.len());
    }

    #[test]
    fn stored_form_round_trips_values_and_digest() {
        let mut r = full_report();
        let mut d = Digest::new();
        d.absorb("a");
        d.absorb("b");
        r.digest = Some(d);
        r.fail("one wrong".into());
        let v = json::parse(&r.stored(&END_TO_END)).unwrap();
        assert_eq!(stored_values(&v)["queries_per_s"], 1.5);
        assert_eq!(v.get("failed").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(
            v.get("digest").unwrap().get("count").unwrap().as_f64(),
            Some(2.0)
        );
        let mut other = Digest::new();
        other.absorb("ab");
        assert_ne!(d.hash, other.hash, "fingerprints are delimited");
    }
}
