//! Output verification: what a returned match list must satisfy before a
//! query counts as served.

use std::collections::HashSet;

use attrspace::{Point, Query};
use autosel_core::Match;
use epigossip::NodeId;

/// How complete an answer has to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completeness {
    /// σ-bounded: at least `min(σ, truth)` matches.
    AtLeast(u32),
    /// Unbounded on a static population: exactly the ground truth.
    Exactly,
    /// Unbounded under churn: any subset of the matching nodes (how large a
    /// subset is what `delivery` measures).
    Subset,
}

/// Checks one answer: every match satisfies `query` and carries the
/// values the population really has for that node (`point_of`; nodes that
/// have since left are skipped), no node appears twice, and the list is as
/// complete as `need` demands against `truth` matching nodes.
pub fn check_matches<'a>(
    query: &Query,
    matches: &[Match],
    point_of: impl Fn(NodeId) -> Option<&'a Point>,
    truth: usize,
    need: Completeness,
) -> Result<(), String> {
    let mut seen = HashSet::with_capacity(matches.len());
    for m in matches {
        if !query.matches(&m.values) {
            return Err(format!("node {} does not satisfy the query", m.node));
        }
        if point_of(m.node).is_some_and(|p| *p != m.values) {
            return Err(format!(
                "node {} reported with values it does not have",
                m.node
            ));
        }
        if !seen.insert(m.node) {
            return Err(format!("node {} reported twice", m.node));
        }
    }
    let got = matches.len();
    match need {
        Completeness::AtLeast(sigma) if got < truth.min(sigma as usize) => Err(format!(
            "{got} matches, needed min(sigma={sigma}, truth={truth})"
        )),
        Completeness::Exactly if got != truth => {
            Err(format!("{got} matches, ground truth is {truth}"))
        }
        _ => Ok(()),
    }
}

/// The share of what was asked for that was delivered: `got` over
/// `min(σ, truth)` (over `truth` when unbounded), capped at 1; 1 when
/// nothing matched.
pub fn delivered_share(got: usize, truth: usize, sigma: Option<u32>) -> f64 {
    let wanted = sigma.map_or(truth, |s| truth.min(s as usize));
    if wanted == 0 {
        1.0
    } else {
        (got.min(wanted)) as f64 / wanted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrspace::Space;

    fn fixture() -> (Space, Query, Vec<Point>) {
        let s = Space::uniform(2, 80, 3).unwrap();
        let q = Query::builder(&s).min("a0", 40).build().unwrap();
        let pts = [[50, 1], [60, 2], [10, 3]]
            .iter()
            .map(|v| s.point(v).unwrap())
            .collect();
        (s, q, pts)
    }

    fn m(node: NodeId, p: &Point) -> Match {
        Match {
            node,
            values: p.clone(),
        }
    }

    #[test]
    fn accepts_correct_answers() {
        let (_, q, pts) = fixture();
        let of = |id: NodeId| pts.get(id as usize);
        let both = [m(0, &pts[0]), m(1, &pts[1])];
        assert!(check_matches(&q, &both, of, 2, Completeness::Exactly).is_ok());
        assert!(check_matches(&q, &both[..1], of, 2, Completeness::AtLeast(1)).is_ok());
        assert!(check_matches(&q, &both[..1], of, 2, Completeness::Subset).is_ok());
        assert!(check_matches(&q, &both, of, 2, Completeness::AtLeast(50)).is_ok());
    }

    #[test]
    fn rejects_wrong_answers() {
        let (_, q, pts) = fixture();
        let of = |id: NodeId| pts.get(id as usize);
        let non_matching = [m(2, &pts[2])];
        assert!(check_matches(&q, &non_matching, of, 2, Completeness::Subset).is_err());
        let forged = [m(0, &pts[1])];
        assert!(check_matches(&q, &forged, of, 2, Completeness::Subset).is_err());
        let twice = [m(0, &pts[0]), m(0, &pts[0])];
        assert!(check_matches(&q, &twice, of, 2, Completeness::Subset).is_err());
        let short = [m(0, &pts[0])];
        assert!(check_matches(&q, &short, of, 2, Completeness::Exactly).is_err());
        assert!(check_matches(&q, &short, of, 2, Completeness::AtLeast(8)).is_err());
    }

    #[test]
    fn delivered_share_is_relative_to_what_was_asked() {
        assert_eq!(delivered_share(8, 30, Some(8)), 1.0);
        assert_eq!(delivered_share(12, 30, Some(8)), 1.0);
        assert_eq!(delivered_share(4, 30, Some(8)), 0.5);
        assert_eq!(delivered_share(15, 30, None), 0.5);
        assert_eq!(delivered_share(0, 0, None), 1.0);
    }
}
