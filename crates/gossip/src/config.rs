/// Tuning knobs for the two gossip layers.
///
/// Defaults follow Table 1 of the paper: a 10-second gossip period and a
/// cache (view) size of 20 for both layers. Times are in milliseconds of
/// whatever clock drives [`GossipStack::tick`](crate::GossipStack::tick) —
/// virtual milliseconds in the simulator, wall-clock in deployments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GossipConfig {
    /// CYCLON view size `Kc`.
    pub cyclon_view: usize,
    /// Number of descriptors exchanged per CYCLON shuffle (`g`).
    pub cyclon_shuffle: usize,
    /// Semantic-layer view size `Kv`.
    pub semantic_view: usize,
    /// Number of descriptors exchanged per semantic gossip.
    pub semantic_shuffle: usize,
    /// Period between gossip initiations, per layer, in clock units (ms).
    pub period_ms: u64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            cyclon_view: 20,
            cyclon_shuffle: 5,
            semantic_view: 20,
            semantic_shuffle: 10,
            period_ms: 10_000,
        }
    }
}

impl GossipConfig {
    /// Validates the configuration, panicking on nonsensical values.
    ///
    /// # Panics
    ///
    /// Panics if any view or shuffle size is zero, a shuffle exceeds its view,
    /// or the period is zero.
    pub fn validate(&self) {
        assert!(self.cyclon_view > 0, "cyclon view size must be positive");
        assert!(
            self.semantic_view > 0,
            "semantic view size must be positive"
        );
        assert!(
            self.cyclon_shuffle > 0 && self.cyclon_shuffle <= self.cyclon_view,
            "cyclon shuffle length must be in [1, view size]"
        );
        assert!(
            self.semantic_shuffle > 0 && self.semantic_shuffle <= self.semantic_view,
            "semantic shuffle length must be in [1, view size]"
        );
        assert!(self.period_ms > 0, "gossip period must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_table_1() {
        let c = GossipConfig::default();
        assert_eq!(c.period_ms, 10_000);
        assert_eq!(c.cyclon_view, 20);
        assert_eq!(c.semantic_view, 20);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "shuffle length")]
    fn oversized_shuffle_rejected() {
        GossipConfig {
            cyclon_shuffle: 21,
            ..GossipConfig::default()
        }
        .validate();
    }
}
