use autosel_core::ProtocolConfig;
use epigossip::GossipConfig;

/// Runtime configuration. Periods are *real* milliseconds; experiments scale
/// the paper's 10-second gossip period down uniformly (see crate docs).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Gossip tuning (the `period_ms` here is real time).
    pub gossip: GossipConfig,
    /// Protocol timeouts (real time).
    pub protocol: ProtocolConfig,
    /// How often each peer polls its protocol timeouts.
    pub poll_interval_ms: u64,
    /// Artificial latency range injected by the in-memory transport
    /// (`None` = deliver immediately). TCP runs rely on real socket latency.
    pub injected_latency_ms: Option<(u64, u64)>,
    /// How many random existing peers a new node is introduced to.
    pub bootstrap_degree: usize,
    /// Bound on each peer's event inbox, counted per peer however many
    /// peers share a shard's queues. Peer traffic beyond it is dropped (and
    /// counted), like network loss — the load-survival invariant that keeps
    /// a saturated node's memory flat instead of queueing unboundedly.
    pub inbox_capacity: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        // 1 virtual second ≈ 5 real ms: the paper's 10 s gossip period
        // becomes 50 ms. The query timeout is deliberately NOT scaled down
        // as aggressively: it must cover a whole depth-first subtree (many
        // sequential hops), or slow subtrees get amputated as "failed".
        NetConfig {
            gossip: GossipConfig {
                period_ms: 50,
                ..GossipConfig::default()
            },
            protocol: ProtocolConfig {
                query_timeout_ms: 5_000,
                ..ProtocolConfig::default()
            },
            poll_interval_ms: 20,
            injected_latency_ms: Some((1, 5)),
            bootstrap_degree: 3,
            inbox_capacity: 4_096,
        }
    }
}

impl NetConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero periods or inverted latency bounds.
    pub fn validate(&self) {
        self.gossip.validate();
        assert!(self.poll_interval_ms > 0, "poll interval must be positive");
        if let Some((lo, hi)) = self.injected_latency_ms {
            assert!(lo <= hi, "latency bounds inverted");
        }
        assert!(
            self.bootstrap_degree > 0,
            "need at least one bootstrap seed"
        );
        assert!(self.inbox_capacity > 0, "inbox capacity must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_scaled() {
        let c = NetConfig::default();
        c.validate();
        assert!(c.gossip.period_ms < 1_000, "scaled for wall-clock runs");
    }

    #[test]
    #[should_panic(expected = "latency bounds")]
    fn inverted_latency_rejected() {
        NetConfig {
            injected_latency_ms: Some((9, 2)),
            ..NetConfig::default()
        }
        .validate();
    }
}
