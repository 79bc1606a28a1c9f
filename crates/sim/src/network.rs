use epigossip::NodeId;
use rand::Rng;

/// Per-message network behaviour.
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly `ms` milliseconds.
    Constant {
        /// The fixed delay.
        ms: u64,
    },
    /// Uniformly random delay in `[lo_ms, hi_ms]`.
    Uniform {
        /// Minimum delay.
        lo_ms: u64,
        /// Maximum delay (inclusive).
        hi_ms: u64,
    },
    /// Uniform delay plus i.i.d. message loss — for stress tests beyond the
    /// paper's drop-on-broken-link model.
    Lossy {
        /// Minimum delay.
        lo_ms: u64,
        /// Maximum delay (inclusive).
        hi_ms: u64,
        /// Probability in `[0,1]` that a message is silently dropped.
        loss: f64,
    },
    /// Heterogeneous per-region latency: node → region by `id % regions`,
    /// delay uniform in the `(lo, hi)` range at `matrix[from_region *
    /// regions + to_region]`. Models rack/region topology (the scenario
    /// engine's latency-matrix combinator compiles to this). Delays are
    /// sampled per *link* via [`Self::sample_link`]; the link-blind
    /// [`Self::sample`] falls back to the `(0, 0)` intra-region range.
    Regions {
        /// Number of regions (≥ 1).
        regions: u64,
        /// Flattened `regions × regions` rows of `(lo_ms, hi_ms)`.
        matrix: Vec<(u64, u64)>,
    },
}

impl LatencyModel {
    /// Samples a delivery delay, or `None` if the message is lost.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<u64> {
        match *self {
            LatencyModel::Constant { ms } => Some(ms),
            LatencyModel::Uniform { lo_ms, hi_ms } => Some(rng.gen_range(lo_ms..=hi_ms)),
            LatencyModel::Lossy { lo_ms, hi_ms, loss } => {
                if rng.gen_bool(loss.clamp(0.0, 1.0)) {
                    None
                } else {
                    Some(rng.gen_range(lo_ms..=hi_ms))
                }
            }
            LatencyModel::Regions { ref matrix, .. } => {
                let (lo, hi) = matrix[0];
                Some(if lo == hi { lo } else { rng.gen_range(lo..=hi) })
            }
        }
    }

    /// Samples the delay for one directed link. For every link-blind model
    /// this is *exactly* [`Self::sample`] — same RNG draws, so installing
    /// the link-aware delivery path changed no pinned digest. Only
    /// [`LatencyModel::Regions`] reads the endpoints.
    pub fn sample_link<R: Rng + ?Sized>(
        &self,
        from: NodeId,
        to: NodeId,
        rng: &mut R,
    ) -> Option<u64> {
        match *self {
            LatencyModel::Regions {
                regions,
                ref matrix,
            } => {
                let r = regions.max(1);
                let cell = ((from % r) * r + (to % r)) as usize;
                let (lo, hi) = matrix.get(cell).copied().unwrap_or((0, 0));
                Some(if lo == hi { lo } else { rng.gen_range(lo..=hi) })
            }
            _ => self.sample(rng),
        }
    }

    /// The delay when the model is deterministic.
    ///
    /// # Panics
    ///
    /// Panics for non-constant models.
    pub fn sample_fixed(&self) -> u64 {
        match *self {
            LatencyModel::Constant { ms } => ms,
            _ => panic!("latency model is not deterministic"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_stays_in_bounds() {
        let m = LatencyModel::Uniform { lo_ms: 5, hi_ms: 9 };
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..200 {
            let d = m.sample(&mut rng).unwrap();
            assert!((5..=9).contains(&d));
        }
    }

    #[test]
    fn lossy_drops_roughly_at_rate() {
        let m = LatencyModel::Lossy {
            lo_ms: 1,
            hi_ms: 1,
            loss: 0.5,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let lost = (0..2000).filter(|_| m.sample(&mut rng).is_none()).count();
        assert!((800..1200).contains(&lost), "lost {lost}/2000");
    }

    #[test]
    fn constant_is_fixed() {
        assert_eq!(LatencyModel::Constant { ms: 7 }.sample_fixed(), 7);
    }

    #[test]
    fn sample_link_matches_sample_for_link_blind_models() {
        // Same seed, same draws: the link-aware path must not perturb the
        // RNG stream of any pre-existing model (pinned digests rely on it).
        for model in [
            LatencyModel::Constant { ms: 3 },
            LatencyModel::Uniform {
                lo_ms: 2,
                hi_ms: 40,
            },
            LatencyModel::Lossy {
                lo_ms: 2,
                hi_ms: 40,
                loss: 0.3,
            },
        ] {
            let mut a = StdRng::seed_from_u64(9);
            let mut b = StdRng::seed_from_u64(9);
            for i in 0..200u64 {
                assert_eq!(model.sample(&mut a), model.sample_link(i, i + 1, &mut b));
            }
        }
    }

    #[test]
    fn regions_reads_the_directed_matrix_cell() {
        // 2 regions: intra fast and fixed, inter slow and jittered.
        let m = LatencyModel::Regions {
            regions: 2,
            matrix: vec![(1, 1), (80, 120), (80, 120), (2, 2)],
        };
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(m.sample_link(0, 2, &mut rng), Some(1), "region 0 → 0");
        assert_eq!(m.sample_link(1, 3, &mut rng), Some(2), "region 1 → 1");
        for _ in 0..100 {
            let d = m.sample_link(0, 1, &mut rng).unwrap();
            assert!((80..=120).contains(&d), "inter-region delay {d}");
        }
        // Link-blind fallback uses the (0,0) cell.
        assert_eq!(m.sample(&mut rng), Some(1));
    }
}
