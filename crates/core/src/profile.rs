use std::sync::Arc;

use attrspace::{CellCoord, Neighborhood, Point, Space};

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
/// share one allocation. The coordinate's interleaved
/// [`code`](CellCoord::code) sits inline next to the `Arc`, so ranking a
/// descriptor ([`classify`](Self::classify)) reads the descriptor and never
/// the profile it points to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeProfile {
    advertised: Arc<Advertised>,
    code: u64,
}

#[derive(Debug, PartialEq, Eq)]
struct Advertised {
    point: Point,
    coord: CellCoord,
}

impl NodeProfile {
    /// Builds the profile of a node at `point` in `space`.
    pub fn new(space: &Space, point: Point) -> Self {
        let coord = space.cell_coord(&point);
        let code = coord.code();
        NodeProfile {
            advertised: Arc::new(Advertised { point, coord }),
            code,
        }
    }

    /// The raw attribute values.
    pub fn point(&self) -> &Point {
        &self.advertised.point
    }

    /// The bucket coordinate.
    pub fn coord(&self) -> &CellCoord {
        &self.advertised.coord
    }

    /// The coordinate's interleaved code, [`CellCoord::code`].
    pub fn code(&self) -> u64 {
        self.code
    }

    /// Where `other` sits relative to this profile's nested cells —
    /// [`CellCoord::classify`] from the two inline codes.
    #[inline]
    pub fn classify(&self, other: &NodeProfile) -> Neighborhood {
        self.coord()
            .classify_coded(self.code, other.coord(), other.code)
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
        assert_eq!(profile.code(), profile.coord().code());
        let other = NodeProfile::new(&space, space.point(&[75, 45, 79]).unwrap());
        assert_eq!(
            profile.classify(&other),
            profile.coord().classify(other.coord())
        );
    }
}
