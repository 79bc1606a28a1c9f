use std::sync::Arc;

use attrspace::{CellCoord, Point, Space};

/// The gossip profile of a resource-selection node: its raw attribute values
/// plus the derived bucket coordinate.
///
/// This is what nodes advertise about themselves through the gossip layers —
/// the paper's "links are associated with the attribute values of the node
/// they represent" (§5). The coordinate is carried redundantly so receivers
/// can classify peers without re-deriving buckets.
///
/// Both live behind one [`Arc`]: every view entry, gossip batch and pooled
/// candidate holds a profile, so a clone or drop is a single reference-count
/// update, and all descriptors of a node that stem from one advertisement
/// share one allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeProfile(Arc<Advertised>);

#[derive(Debug, PartialEq, Eq)]
struct Advertised {
    point: Point,
    coord: CellCoord,
}

impl NodeProfile {
    /// Builds the profile of a node at `point` in `space`.
    pub fn new(space: &Space, point: Point) -> Self {
        let coord = space.cell_coord(&point);
        NodeProfile(Arc::new(Advertised { point, coord }))
    }

    /// The raw attribute values.
    pub fn point(&self) -> &Point {
        &self.0.point
    }

    /// The bucket coordinate.
    pub fn coord(&self) -> &CellCoord {
        &self.0.coord
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrspace::Space;

    #[test]
    fn profile_derives_coord() {
        let space = Space::uniform(3, 80, 3).unwrap();
        let p = space.point(&[5, 45, 79]).unwrap();
        let profile = NodeProfile::new(&space, p.clone());
        assert_eq!(profile.point(), &p);
        assert_eq!(profile.coord().indices(), &[0, 4, 7]);
    }
}
