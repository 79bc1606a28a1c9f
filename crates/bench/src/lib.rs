//! Experiment harness behind the six `bench` binaries.
//!
//! [`experiments::FIGURES`] defines every figure of the paper's evaluation
//! (§6) exactly once — id, the paper's claim, parameters, runner — and the
//! `reproduce` binary walks that list, rendering each [`table::Table`] as
//! text and as `results/<name>.csv`. [`artifact`] is the one writer of the
//! `BENCH_sim.json` / `BENCH_net.json` rows (`sweepbench`, `netload`).
//!
//! Populations default to a tractable 20 % of the paper's; set
//! `AUTOSEL_SCALE=1.0` (or pass `reproduce --full`) for the full 100 000
//! simulated nodes — results keep their shape at every scale because
//! overhead depends on the space topology, not the population (§6.2: "the
//! number of nodes to contact … does not depend on the size of the
//! network").

pub mod artifact;
pub mod experiments;
pub mod stats_json;
pub mod sweep;
pub mod table;

/// What a figure runner is handed: the population scale of this run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunContext {
    /// Fraction of the paper's populations to simulate, in (0, 1].
    pub scale: f64,
}

impl RunContext {
    /// Applies the scale factor to a paper-sized population (min 100).
    pub fn scaled(&self, n: usize) -> usize {
        ((n as f64) * self.scale).round().max(100.0) as usize
    }

    /// Prints the Table-1 default-parameter banner, annotated with the
    /// effective scale.
    pub fn print_table1(&self) {
        println!("# Table 1 — default parameters (ICDCS'09)");
        println!(
            "#   network size N        : 100,000 (PeerSim) / 1,000 (DAS); this run: {}",
            self.scaled(100_000)
        );
        println!("#   query selectivity f   : 0.125");
        println!("#   max requested nodes σ : 50");
        println!("#   dimensions d          : 5");
        println!("#   nesting depth max(l)  : 3");
        println!("#   gossip period         : 10 s");
        println!("#   gossip cache size     : 20");
        println!(
            "#   scale factor          : {} (set AUTOSEL_SCALE=1.0 for paper scale)",
            self.scale
        );
    }
}

/// Interprets an `AUTOSEL_SCALE` value: unset means the default `0.2`.
///
/// # Errors
///
/// A message naming the offending value when it is not a number in (0, 1].
pub fn parse_scale(raw: Option<&str>) -> Result<f64, String> {
    let Some(raw) = raw else { return Ok(0.2) };
    match raw.trim().parse::<f64>() {
        Ok(f) if f > 0.0 && f <= 1.0 => Ok(f),
        _ => Err(format!(
            "AUTOSEL_SCALE must be a number in (0, 1], got {raw:?}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_and_rejects_out_of_range() {
        assert_eq!(parse_scale(None), Ok(0.2));
        assert_eq!(parse_scale(Some("1.0")), Ok(1.0));
        assert_eq!(parse_scale(Some("0.02")), Ok(0.02));
        for bad in ["2", "0", "-0.5", "full", "", "NaN"] {
            assert!(
                parse_scale(Some(bad)).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn scaled_clamps_to_the_minimum_population() {
        assert_eq!(RunContext { scale: 0.2 }.scaled(100_000), 20_000);
        assert_eq!(RunContext { scale: 0.001 }.scaled(10_000), 100);
    }
}
