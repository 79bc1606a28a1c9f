use std::fmt;

/// Globally unique node identifier.
///
/// Deployments map this to a transport address; the simulator uses it as an
/// array index. Churned nodes re-enter under a *fresh* id, exactly as in the
/// paper's churn experiments (§6.6).
pub type NodeId = u64;

/// A gossip view entry: a peer's identity, its *profile* (for resource
/// selection: the peer's attribute values / cell coordinate), and an age in
/// gossip rounds used by CYCLON to prefer shuffling with — and eventually
/// evicting — the stalest entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Descriptor<P> {
    /// The peer's identifier.
    pub id: NodeId,
    /// Application payload describing the peer.
    pub profile: P,
    /// Rounds since this descriptor was created by its subject.
    pub age: u32,
}

impl<P> Descriptor<P> {
    /// Creates a fresh (age 0) descriptor.
    pub fn new(id: NodeId, profile: P) -> Self {
        Descriptor {
            id,
            profile,
            age: 0,
        }
    }

    /// A copy with age reset to zero (used when a node advertises itself).
    pub fn refreshed(&self) -> Self
    where
        P: Clone,
    {
        Descriptor {
            id: self.id,
            profile: self.profile.clone(),
            age: 0,
        }
    }
}

/// Lets view operations accept owned and borrowed descriptors through one
/// signature, cloning a borrowed one only where it is kept.
impl<P: Clone> From<&Descriptor<P>> for Descriptor<P> {
    fn from(d: &Descriptor<P>) -> Self {
        d.clone()
    }
}

impl<P: fmt::Debug> fmt::Display for Descriptor<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}(age {}, {:?})", self.id, self.age, self.profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refreshed_resets_age_only() {
        let mut d = Descriptor::new(7, "x");
        d.age = 12;
        let r = d.refreshed();
        assert_eq!(r.id, 7);
        assert_eq!(r.profile, "x");
        assert_eq!(r.age, 0);
        assert_eq!(d.age, 12);
    }

    #[test]
    fn display_mentions_id_and_age() {
        let d = Descriptor {
            id: 3,
            profile: 9u32,
            age: 2,
        };
        assert_eq!(d.to_string(), "#3(age 2, 9)");
    }
}
