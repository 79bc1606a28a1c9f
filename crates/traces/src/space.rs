use attrspace::{Dimension, Space, SpaceError};

use crate::ATTRIBUTE_NAMES;

/// Builds a [`Space`] over the 16 host attributes whose bucket boundaries
/// are *quantiles* of the supplied sample — the paper's non-uniform cell
/// ranges for skewed value distributions (§4.1: "One cell may range over
/// memory between 0 and 128 MB, and another one between 4 GB and 8 GB").
///
/// Each dimension gets `2^max_level` buckets holding roughly equal node
/// counts; where a value is so popular that quantiles collide (e.g. 87%
/// Windows), boundaries are nudged upward to stay strictly increasing, so
/// popular values concentrate in one bucket exactly as real skew demands.
///
/// # Errors
///
/// Returns an error if the sample is empty, rows have the wrong arity, or a
/// dimension's values are so degenerate that no strictly increasing boundary
/// set exists.
pub fn fit_space(rows: &[Vec<u64>], max_level: u8) -> Result<Space, SpaceError> {
    let d = ATTRIBUTE_NAMES.len();
    if rows.is_empty() || rows.iter().any(|r| r.len() != d) {
        return Err(SpaceError::WrongArity {
            got: rows.first().map_or(0, |r| r.len()),
            expected: d,
        });
    }
    let buckets = 1usize << max_level;
    let mut builder = Space::builder().max_level(max_level);
    for (k, name) in ATTRIBUTE_NAMES.iter().enumerate() {
        let mut col: Vec<u64> = rows.iter().map(|r| r[k]).collect();
        col.sort_unstable();
        let mut boundaries = Vec::with_capacity(buckets - 1);
        // Boundaries must be ≥ 1 (a 0 boundary would make bucket 0
        // unreachable) and strictly increasing even on degenerate columns.
        let mut last: u64 = 0;
        for q in 1..buckets {
            let idx = q * col.len() / buckets;
            let b = col[idx.min(col.len() - 1)].max(last + 1);
            boundaries.push(b);
            last = b;
        }
        builder = builder.dimension(Dimension::with_boundaries(*name, boundaries)?);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HostGenerator;

    #[test]
    fn quantile_buckets_are_roughly_balanced() {
        let rows: Vec<Vec<u64>> = HostGenerator::new(5)
            .take(4000)
            .map(|h| h.to_values())
            .collect();
        let space = fit_space(&rows, 3).unwrap();
        assert_eq!(space.dims(), 16);
        // For a continuous attribute (disk_gb, index 4) buckets should hold
        // roughly n/8 hosts each.
        let dim = &space.dimensions()[4];
        let mut counts = [0usize; 8];
        for r in &rows {
            counts[dim.bucket(r[4]) as usize] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(
                (rows.len() / 16..rows.len() / 4).contains(c),
                "bucket {i} holds {c} of {}",
                rows.len()
            );
        }
    }

    #[test]
    fn degenerate_columns_still_build() {
        // os_family: 87% zeros — quantile boundaries collide and must be
        // nudged; the space must still build and classify.
        let rows: Vec<Vec<u64>> = HostGenerator::new(6)
            .take(2000)
            .map(|h| h.to_values())
            .collect();
        let space = fit_space(&rows, 3).unwrap();
        let os = &space.dimensions()[8];
        assert_eq!(os.bucket(0), 0, "windows lands in bucket 0");
        assert!(os.boundaries().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(fit_space(&[], 3).is_err());
        assert!(fit_space(&[vec![1, 2]], 3).is_err());
    }

    #[test]
    fn all_rows_are_valid_points() {
        let rows: Vec<Vec<u64>> = HostGenerator::new(7)
            .take(500)
            .map(|h| h.to_values())
            .collect();
        let space = fit_space(&rows, 2).unwrap();
        for r in &rows {
            let p = space.point(r).unwrap();
            let c = space.cell_coord(&p);
            assert!(c.indices().iter().all(|&i| i < 4));
        }
    }
}
