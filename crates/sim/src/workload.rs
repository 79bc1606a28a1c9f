//! Node placements and query generators reproducing the paper's workloads.

use attrspace::{BucketIndex, Point, Query, Region, Space};
use rand::Rng;

/// How node attribute values are drawn when populating a cluster.
#[derive(Debug, Clone)]
pub enum Placement {
    /// Every attribute uniformly random in `[lo, hi)` — the paper's default
    /// (`[0, 80]`, §6.4).
    Uniform {
        /// Inclusive lower bound.
        lo: u64,
        /// Exclusive upper bound.
        hi: u64,
    },
    /// A hotspot: every attribute normally distributed around `center` with
    /// `stddev`, clamped to `[0, max)` — the paper's skewed configuration
    /// ("hotspot around coordinate (60, 60, …, 60) … standard deviation of
    /// 10", §6.4).
    Normal {
        /// The hotspot coordinate, per attribute.
        center: f64,
        /// Standard deviation.
        stddev: f64,
        /// Exclusive upper clamp.
        max: u64,
    },
    /// Externally supplied attribute vectors (e.g. synthesized BOINC traces),
    /// consumed round-robin.
    Trace(
        /// One value vector per node.
        Vec<Vec<u64>>,
    ),
}

impl Placement {
    /// Draws the attribute vector for the `i`-th node.
    ///
    /// # Panics
    ///
    /// Panics if a trace vector has the wrong arity or the trace is empty.
    pub fn draw<R: Rng + ?Sized>(&self, space: &Space, i: usize, rng: &mut R) -> Point {
        let vals: Vec<u64> = match self {
            Placement::Uniform { lo, hi } => {
                (0..space.dims()).map(|_| rng.gen_range(*lo..*hi)).collect()
            }
            Placement::Normal { center, stddev, max } => (0..space.dims())
                .map(|_| {
                    let v = center + stddev * standard_normal(rng);
                    (v.round().max(0.0) as u64).min(max.saturating_sub(1))
                })
                .collect(),
            Placement::Trace(rows) => {
                assert!(!rows.is_empty(), "empty trace");
                rows[i % rows.len()].clone()
            }
        };
        space.point(&vals).expect("placement arity matches space")
    }
}

/// A standard-normal sample via the Box–Muller transform (keeps `rand` the
/// only randomness dependency).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Splits a target selectivity `f` into per-dimension bucket counts whose
/// product of fractions approximates `f` under uniform placement.
fn per_dim_extents(space: &Space, f: f64) -> Vec<BucketIndex> {
    let b = space.buckets_per_dim();
    let d = space.dims();
    let per = f.max(1e-9).powf(1.0 / d as f64);
    let mut extents: Vec<BucketIndex> = vec![((per * b as f64).round() as BucketIndex).clamp(1, b); d];
    // Greedy correction toward the target.
    let frac = |ext: &[BucketIndex]| -> f64 {
        ext.iter().map(|&e| e as f64 / b as f64).product()
    };
    for _ in 0..4 * d {
        let cur = frac(&extents);
        if cur < f {
            if let Some(e) = extents.iter_mut().find(|e| **e < b) {
                *e += 1;
                continue;
            }
        } else if cur > f {
            // Only shrink if it brings us closer.
            let mut best: Option<(usize, f64)> = None;
            for i in 0..d {
                if extents[i] > 1 {
                    let mut t = extents.clone();
                    t[i] -= 1;
                    let nf = frac(&t);
                    if (nf - f).abs() < (cur - f).abs() {
                        best = Some((i, nf));
                        break;
                    }
                }
            }
            match best {
                Some((i, _)) => {
                    extents[i] -= 1;
                    continue;
                }
                None => break,
            }
        }
        break;
    }
    extents
}

/// The paper's **best-case** query (§6.2): a bucket-aligned box whose extent
/// per dimension is a power of two aligned at a multiple of itself, so the
/// whole query footprint is one dyadic block — satisfiable by a single cell
/// subtree of the traversal.
pub fn best_case_query<R: Rng + ?Sized>(space: &Space, f: f64, rng: &mut R) -> Query {
    let b = space.buckets_per_dim();
    let d = space.dims() as u32;
    let max_bits = d * u32::from(space.max_level());
    // Choose per-dimension dyadic exponents whose product of fractions is the
    // nearest power of two to `f`: total bits = round(log2(f · 2^(d·L))).
    let total_bits = ((f.max(f64::MIN_POSITIVE).log2() + f64::from(max_bits)).round())
        .clamp(0.0, f64::from(max_bits)) as u32;
    let base = total_bits / d;
    let extra = total_bits % d;
    let intervals: Vec<(BucketIndex, BucketIndex)> = (0..d)
        .map(|i| {
            // Tighter constraints go on the *earliest* dimensions: the
            // depth-first scan follows the subcell construction order
            // (dimension #0 first), so constraints on early dimensions are
            // pinned within the first hops and the rest of the traversal
            // stays inside Q — this ordering is what keeps the paper's
            // Fig. 6/8 overheads in single digits. (`reproduce ablation`
            // quantifies the difference.)
            let e: BucketIndex = 1 << (base + u32::from(i >= d - extra));
            let slots = b / e;
            let start = rng.gen_range(0..slots) * e;
            (start, start + e - 1)
        })
        .collect();
    Query::from_bucket_region(space, &Region::new(intervals))
}

/// The paper's **worst-case** query (§6.2): a box straddling the top-level
/// split boundary in *every* dimension, so "every dimension and cell level
/// is represented" and the traversal must split maximally.
pub fn worst_case_query(space: &Space, f: f64) -> Query {
    let b = space.buckets_per_dim();
    let mid = b / 2;
    let intervals: Vec<(BucketIndex, BucketIndex)> = per_dim_extents(space, f)
        .into_iter()
        .map(|e| {
            // Center the extent on the top-level boundary (mid-1 | mid).
            let lo = mid.saturating_sub(e / 2 + e % 2);
            let hi = (lo + e - 1).min(b - 1);
            let lo = hi + 1 - e; // re-anchor if clamped
            (lo, hi)
        })
        .collect();
    Query::from_bucket_region(space, &Region::new(intervals))
}

/// A uniformly random bucket-aligned query with approximate selectivity `f`
/// (neither best- nor worst-case aligned) — used for the network-size and
/// dimension sweeps where the paper does not pin the query shape.
pub fn random_query<R: Rng + ?Sized>(space: &Space, f: f64, rng: &mut R) -> Query {
    let b = space.buckets_per_dim();
    let intervals: Vec<(BucketIndex, BucketIndex)> = per_dim_extents(space, f)
        .into_iter()
        .map(|e| {
            let start = rng.gen_range(0..=(b - e));
            (start, start + e - 1)
        })
        .collect();
    Query::from_bucket_region(space, &Region::new(intervals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> Space {
        Space::uniform(5, 80, 3).unwrap()
    }

    #[test]
    fn uniform_placement_in_bounds() {
        let s = space();
        let p = Placement::Uniform { lo: 0, hi: 80 };
        let mut rng = StdRng::seed_from_u64(0);
        for i in 0..100 {
            let pt = p.draw(&s, i, &mut rng);
            assert!(pt.values().iter().all(|&v| v < 80));
        }
    }

    #[test]
    fn normal_placement_clusters_near_center() {
        let s = space();
        let p = Placement::Normal { center: 60.0, stddev: 10.0, max: 80 };
        let mut rng = StdRng::seed_from_u64(1);
        let mut sum = 0.0;
        let n = 2000;
        for i in 0..n {
            let pt = p.draw(&s, i, &mut rng);
            sum += pt.values()[0] as f64;
        }
        let mean = sum / n as f64;
        assert!((mean - 60.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn trace_placement_round_robins() {
        let s = Space::uniform(2, 80, 3).unwrap();
        let p = Placement::Trace(vec![vec![1, 2], vec![3, 4]]);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(p.draw(&s, 0, &mut rng).values(), &[1, 2]);
        assert_eq!(p.draw(&s, 3, &mut rng).values(), &[3, 4]);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn selectivity_targets_are_approximated() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(3);
        for &f in &[0.015625, 0.125, 0.5, 1.0] {
            for q in [
                best_case_query(&s, f, &mut rng),
                worst_case_query(&s, f),
                random_query(&s, f, &mut rng),
            ] {
                let vol = q.region().volume() as f64;
                let total = (s.buckets_per_dim() as f64).powi(s.dims() as i32);
                let got = vol / total;
                assert!(
                    got >= f / 4.0 && got <= (f * 4.0).min(1.0),
                    "target {f} got {got} for {q}"
                );
            }
        }
    }

    #[test]
    fn best_case_is_dyadic() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let q = best_case_query(&s, 0.125, &mut rng);
            for &(lo, hi) in q.region().intervals() {
                let e = hi - lo + 1;
                assert!(e.is_power_of_two());
                assert_eq!(lo % e, 0, "aligned at multiple of extent");
            }
        }
    }

    #[test]
    fn worst_case_straddles_every_mid_boundary() {
        let s = space();
        for &f in &[0.125, 0.5] {
            let q = worst_case_query(&s, f);
            for &(lo, hi) in q.region().intervals() {
                assert!(lo < 4 && hi >= 4, "[{lo},{hi}] must straddle 3|4");
            }
        }
    }
}
