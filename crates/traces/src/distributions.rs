//! Small, dependency-free samplers for the skewed marginals of
//! volunteer-computing host populations.

use rand::Rng;

/// A standard-normal sample via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A log-normal sample: `exp(mu + sigma * N(0,1))`.
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * standard_normal(rng)).exp()
}

/// Zipf distribution over ranks `0..n` with exponent `s`, sampled by inverse
/// CDF over a precomputed table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the table for `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(s >= 0.0, "zipf exponent must be non-negative");
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .into_iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Samples a rank in `0..n` (0 is the most popular).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A categorical distribution over `u64` values with explicit weights —
/// for OS families, CPU vendors and similar enumerations.
#[derive(Debug, Clone)]
pub struct CategoricalU64 {
    values: Vec<u64>,
    cdf: Vec<f64>,
}

impl CategoricalU64 {
    /// Builds the distribution from `(value, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty or total weight is not positive.
    pub fn new(pairs: &[(u64, f64)]) -> Self {
        assert!(!pairs.is_empty(), "empty categorical");
        let total: f64 = pairs.iter().map(|(_, w)| w).sum();
        assert!(total > 0.0, "total weight must be positive");
        let mut acc = 0.0;
        let mut values = Vec::with_capacity(pairs.len());
        let mut cdf = Vec::with_capacity(pairs.len());
        for (v, w) in pairs {
            acc += w / total;
            values.push(*v);
            cdf.push(acc);
        }
        CategoricalU64 { values, cdf }
    }

    /// Samples one value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        let i = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.values.len() - 1);
        self.values[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_rank0_dominates() {
        let z = Zipf::new(10, 1.2);
        let mut rng = StdRng::seed_from_u64(0);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[5]);
        assert!(counts[0] > 2_500, "rank 0 got {}", counts[0]);
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let z = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 4];
        for _ in 0..8_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for c in counts {
            assert!((1_700..2_300).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn categorical_respects_weights() {
        let c = CategoricalU64::new(&[(7, 0.9), (13, 0.1)]);
        let mut rng = StdRng::seed_from_u64(2);
        let sevens = (0..5_000).filter(|_| c.sample(&mut rng) == 7).count();
        assert!((4_300..4_700).contains(&sevens), "{sevens}");
    }

    #[test]
    fn lognormal_is_skewed_right() {
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..20_000).map(|_| lognormal(&mut rng, 0.0, 1.0)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[samples.len() / 2];
        assert!(mean > median, "right skew: mean {mean} median {median}");
        // E[lognormal(0,1)] = e^0.5 ≈ 1.65.
        assert!((mean - 1.65).abs() < 0.15, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_zero_ranks_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}
