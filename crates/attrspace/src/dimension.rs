use crate::{BucketIndex, RawValue, SpaceError};

/// One attribute axis of the space: a name plus the boundaries that partition
/// its raw value range into `2^max_level` buckets.
///
/// Boundaries need not be regular — the paper (§4.1) explicitly allows one
/// cell to span 0–128 MB of memory and another 4–8 GB, to absorb skewed
/// attribute distributions. Likewise no upper bound is imposed on values: any
/// value at or above the last boundary lands in the last bucket.
///
/// With `B` buckets the dimension stores `B - 1` boundaries `b0 < b1 < …`;
/// bucket `i` covers `[b(i-1), b(i))` with `b(-1) = 0` implicit and the last
/// bucket open-ended.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Dimension {
    name: String,
    boundaries: Vec<RawValue>,
    /// Cached bucket-resolution strategy, derived from `boundaries` at
    /// construction (deterministic, so the derived `Eq`/`Hash` stay
    /// consistent).
    resolver: Resolver,
}

/// How [`Dimension::bucket`] maps a value to its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Resolver {
    /// Evenly spaced boundaries `first + i * step`: one subtraction and one
    /// division instead of a binary search. Every [`Dimension::uniform`]
    /// dimension (the paper's whole evaluation) takes this path.
    Uniform { first: RawValue, step: RawValue },
    /// Irregular boundaries: binary search (`bucket_reference`).
    General,
}

impl Resolver {
    fn derive(boundaries: &[RawValue]) -> Self {
        match boundaries {
            [] => Resolver::Uniform {
                first: RawValue::MAX,
                step: 1,
            },
            [first] => Resolver::Uniform {
                first: *first,
                step: 1,
            },
            [first, rest @ ..] => {
                let step = rest[0] - first;
                let even = boundaries.windows(2).all(|w| w[1] - w[0] == step);
                if even {
                    Resolver::Uniform {
                        first: *first,
                        step,
                    }
                } else {
                    Resolver::General
                }
            }
        }
    }
}

impl Dimension {
    /// Creates a dimension with explicit bucket boundaries.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::UnsortedBoundaries`] if `boundaries` is not
    /// strictly increasing. The boundary *count* is validated later, against
    /// the space's nesting depth, by [`SpaceBuilder::build`](crate::SpaceBuilder::build).
    pub fn with_boundaries(
        name: impl Into<String>,
        boundaries: Vec<RawValue>,
    ) -> Result<Self, SpaceError> {
        let name = name.into();
        if boundaries.windows(2).any(|w| w[0] >= w[1]) {
            return Err(SpaceError::UnsortedBoundaries { dimension: name });
        }
        let resolver = Resolver::derive(&boundaries);
        Ok(Dimension {
            name,
            boundaries,
            resolver,
        })
    }

    /// Creates a dimension whose `buckets` buckets evenly split `[lo, hi)`.
    ///
    /// Values below `lo` fall in the first bucket and values at or above `hi`
    /// in the last, mirroring the paper's unbounded top row.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0` or `hi - lo < buckets as u64` (the range is
    /// too narrow to cut into that many non-empty buckets).
    pub fn uniform(name: impl Into<String>, lo: RawValue, hi: RawValue, buckets: u32) -> Self {
        assert!(buckets > 0, "buckets must be positive");
        assert!(
            hi > lo && hi - lo >= u64::from(buckets),
            "range [{lo}, {hi}) too narrow for {buckets} buckets"
        );
        let width = (hi - lo) / u64::from(buckets);
        let boundaries: Vec<RawValue> = (1..buckets).map(|i| lo + u64::from(i) * width).collect();
        let resolver = Resolver::derive(&boundaries);
        Dimension {
            name: name.into(),
            boundaries,
            resolver,
        }
    }

    /// The attribute name, e.g. `"mem"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of buckets this dimension currently defines (`boundaries + 1`).
    pub fn buckets(&self) -> u32 {
        self.boundaries.len() as u32 + 1
    }

    /// The raw boundary values.
    pub fn boundaries(&self) -> &[RawValue] {
        &self.boundaries
    }

    /// Maps a raw value to its bucket index. Evenly spaced boundaries (the
    /// common case, detected at construction) resolve with one division;
    /// irregular ones fall back to the binary search of
    /// [`bucket_reference`](Self::bucket_reference).
    pub fn bucket(&self, value: RawValue) -> BucketIndex {
        match self.resolver {
            Resolver::Uniform { first, step } => {
                if value < first {
                    0
                } else {
                    let past = ((value - first) / step).saturating_add(1);
                    past.min(self.boundaries.len() as u64) as BucketIndex
                }
            }
            Resolver::General => self.bucket_reference(value),
        }
    }

    /// The unaccelerated bucket lookup (binary search, `O(log B)`) — the
    /// oracle [`bucket`](Self::bucket)'s fast path is property-tested
    /// against.
    pub fn bucket_reference(&self, value: RawValue) -> BucketIndex {
        self.boundaries.partition_point(|&b| b <= value) as BucketIndex
    }

    /// The raw-value interval `[lo, hi]` (inclusive) covered by bucket `idx`.
    /// The last bucket's `hi` is `u64::MAX` (the paper's open top end).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.buckets()`.
    pub fn bucket_bounds(&self, idx: BucketIndex) -> (RawValue, RawValue) {
        let idx = idx as usize;
        assert!(idx <= self.boundaries.len(), "bucket index out of range");
        let lo = if idx == 0 {
            0
        } else {
            self.boundaries[idx - 1]
        };
        let hi = if idx == self.boundaries.len() {
            RawValue::MAX
        } else {
            self.boundaries[idx] - 1
        };
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_boundaries_are_even() {
        let d = Dimension::uniform("mem", 0, 80, 8);
        assert_eq!(d.boundaries(), &[10, 20, 30, 40, 50, 60, 70]);
        assert_eq!(d.buckets(), 8);
    }

    #[test]
    fn bucket_lookup_matches_boundaries() {
        let d = Dimension::uniform("mem", 0, 80, 8);
        assert_eq!(d.bucket(0), 0);
        assert_eq!(d.bucket(9), 0);
        assert_eq!(d.bucket(10), 1);
        assert_eq!(d.bucket(79), 7);
        // No upper bound: huge values land in the last bucket.
        assert_eq!(d.bucket(u64::MAX), 7);
    }

    #[test]
    fn non_uniform_boundaries_handle_skew() {
        // 0–128 MB, 128 MB–4 GB, 4–8 GB, 8 GB+ (paper §4.1 example).
        let d = Dimension::with_boundaries("mem_mb", vec![128, 4096, 8192]).unwrap();
        assert_eq!(d.bucket(64), 0);
        assert_eq!(d.bucket(2048), 1);
        assert_eq!(d.bucket(4096), 2);
        assert_eq!(d.bucket(1 << 20), 3);
    }

    #[test]
    fn unsorted_boundaries_rejected() {
        let err = Dimension::with_boundaries("x", vec![5, 5]).unwrap_err();
        assert_eq!(
            err,
            SpaceError::UnsortedBoundaries {
                dimension: "x".into()
            }
        );
    }

    #[test]
    fn bucket_bounds_roundtrip() {
        let d = Dimension::uniform("bw", 0, 800, 8);
        for idx in 0..8 {
            let (lo, hi) = d.bucket_bounds(idx);
            assert_eq!(d.bucket(lo), idx);
            assert_eq!(d.bucket(hi), idx);
            if lo > 0 {
                assert_eq!(d.bucket(lo - 1), idx - 1);
            }
        }
    }

    #[test]
    fn last_bucket_is_open_ended() {
        let d = Dimension::uniform("bw", 0, 800, 8);
        assert_eq!(d.bucket_bounds(7).1, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "too narrow")]
    fn uniform_narrow_range_panics() {
        let _ = Dimension::uniform("x", 0, 4, 8);
    }
}
