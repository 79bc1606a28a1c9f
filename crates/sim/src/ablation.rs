//! Baselines for the §4.1 design ablations: the *naive greedy* routing the
//! paper rejects ("dramatic latency and traffic overheads") and Zorilla-style
//! *flooding* over an unstructured overlay (§2).
//!
//! These operate on plain point sets — no protocol machinery — and report the
//! same overhead/delivery metrics as [`QueryStats`](crate::QueryStats), so a
//! bench can put all three approaches side by side.

use std::collections::VecDeque;

use autosel_core::fasthash::FastSet;

use attrspace::{CellCoord, Point, Query, Space};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Metrics of one baseline search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AblationStats {
    /// Total messages transmitted.
    pub messages: u64,
    /// Query deliveries to non-matching nodes (comparable to the paper's
    /// routing overhead).
    pub overhead: u64,
    /// Matching nodes reached.
    pub reached: usize,
    /// Matching nodes in the population.
    pub truth: usize,
}

impl AblationStats {
    /// Fraction of matching nodes reached.
    pub fn delivery(&self) -> f64 {
        if self.truth == 0 {
            1.0
        } else {
            self.reached as f64 / self.truth as f64
        }
    }
}

/// Zorilla-style flooding: each node keeps `fanout` random links; the query
/// floods the entire overlay (unstructured overlays cannot target a region).
pub fn flood_search(
    points: &[Point],
    query: &Query,
    fanout: usize,
    origin: usize,
    seed: u64,
) -> AblationStats {
    assert!(origin < points.len(), "origin out of range");
    let n = points.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let links: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            let mut out = FastSet::default();
            while out.len() < fanout.min(n.saturating_sub(1)) {
                let j = rng.gen_range(0..n);
                if j != i {
                    out.insert(j);
                }
            }
            out.into_iter().collect()
        })
        .collect();

    let matches: Vec<bool> = points.iter().map(|p| query.matches(p)).collect();
    let truth = matches.iter().filter(|&&m| m).count();

    let mut seen = vec![false; n];
    let mut messages = 0u64;
    let mut overhead = 0u64;
    let mut reached = 0usize;
    let mut queue = VecDeque::from([origin]);
    seen[origin] = true;
    if matches[origin] {
        reached += 1;
    }
    while let Some(u) = queue.pop_front() {
        for &v in &links[u] {
            messages += 1;
            if seen[v] {
                continue; // duplicate receipt: pure waste
            }
            seen[v] = true;
            if matches[v] {
                reached += 1;
            } else {
                overhead += 1;
            }
            queue.push_back(v);
        }
    }
    AblationStats {
        messages,
        overhead,
        reached,
        truth,
    }
}

/// The naive design of §4.1: every node links only to its most immediate
/// neighbor *per dimension* (predecessor and successor in attribute order).
/// A query is routed greedily toward the region, then spread along in-region
/// links. Without the hierarchical `N(l,k)` links the approach pays long
/// greedy walks and still cannot enumerate the region reliably.
pub fn greedy_coordinate_search(
    space: &Space,
    points: &[Point],
    query: &Query,
    origin: usize,
) -> AblationStats {
    let n = points.len();
    assert!(origin < n, "origin out of range");
    let coords: Vec<CellCoord> = points.iter().map(|p| space.cell_coord(p)).collect();
    let matches: Vec<bool> = points.iter().map(|p| query.matches(p)).collect();
    let truth = matches.iter().filter(|&&m| m).count();

    // Per-dimension value order: predecessor/successor links.
    let d = space.dims();
    let mut links: Vec<FastSet<usize>> = vec![FastSet::default(); n];
    for dim in 0..d {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (points[i].values()[dim], i));
        for w in order.windows(2) {
            links[w[0]].insert(w[1]);
            links[w[1]].insert(w[0]);
        }
    }

    let region = query.region();
    let dist = |i: usize| -> u64 {
        coords[i]
            .indices()
            .iter()
            .zip(region.intervals())
            .map(|(&c, &(lo, hi))| {
                if c < lo {
                    u64::from(lo - c)
                } else if c > hi {
                    u64::from(c - hi)
                } else {
                    0
                }
            })
            .sum()
    };

    let mut messages = 0u64;
    let mut overhead = 0u64;
    let mut reached = 0usize;
    let mut seen = vec![false; n];
    seen[origin] = true;
    if matches[origin] {
        reached += 1;
    } else if dist(origin) > 0 {
        // origin outside region, not counted as overhead (it issued it)
    }

    // Phase 1: greedy descent to the region.
    let mut cur = origin;
    while dist(cur) > 0 {
        let next = links[cur]
            .iter()
            .copied()
            .min_by_key(|&v| (dist(v), v))
            .filter(|&v| dist(v) < dist(cur));
        let Some(v) = next else {
            // Stuck in a local minimum: the search fails before reaching Q.
            return AblationStats {
                messages,
                overhead,
                reached,
                truth,
            };
        };
        messages += 1;
        if !seen[v] {
            seen[v] = true;
            if matches[v] {
                reached += 1;
            } else {
                overhead += 1;
            }
        }
        cur = v;
    }

    // Phase 2: spread along links whose endpoints stay in the region.
    let mut queue = VecDeque::from([cur]);
    while let Some(u) = queue.pop_front() {
        for &v in &links[u] {
            if dist(v) > 0 {
                continue;
            }
            messages += 1;
            if seen[v] {
                continue;
            }
            seen[v] = true;
            if matches[v] {
                reached += 1;
            } else {
                overhead += 1;
            }
            queue.push_back(v);
        }
    }
    AblationStats {
        messages,
        overhead,
        reached,
        truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Placement;

    fn setup(n: usize, seed: u64) -> (Space, Vec<Point>) {
        let space = Space::uniform(3, 80, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let placement = Placement::Uniform { lo: 0, hi: 80 };
        let points = (0..n)
            .map(|i| placement.draw(&space, i, &mut rng))
            .collect();
        (space, points)
    }

    #[test]
    fn flood_reaches_everything_at_high_cost() {
        let (space, points) = setup(300, 1);
        let query = Query::builder(&space).min("a0", 40).build().unwrap();
        let s = flood_search(&points, &query, 6, 0, 9);
        assert!(
            s.delivery() > 0.99,
            "flooding reaches all: {}",
            s.delivery()
        );
        // Flooding touches (nearly) every node regardless of selectivity.
        assert!(s.messages as usize >= points.len(), "{} msgs", s.messages);
        assert!(s.overhead as usize > points.len() / 4);
    }

    #[test]
    fn greedy_walk_pays_long_paths() {
        let (space, points) = setup(400, 2);
        // A narrow query far from most nodes.
        let query = Query::builder(&space)
            .min("a0", 60)
            .min("a1", 60)
            .min("a2", 60)
            .build()
            .unwrap();
        let s = greedy_coordinate_search(&space, &points, &query, 0);
        assert!(s.truth > 0);
        // Either it fails to reach the region or pays a long walk.
        assert!(
            s.delivery() < 1.0 || s.overhead > 3,
            "delivery {} overhead {}",
            s.delivery(),
            s.overhead
        );
    }

    #[test]
    fn stats_delivery_vacuous() {
        let s = AblationStats {
            messages: 0,
            overhead: 0,
            reached: 0,
            truth: 0,
        };
        assert_eq!(s.delivery(), 1.0);
    }
}
