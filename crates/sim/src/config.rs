use autosel_core::ProtocolConfig;
use epigossip::GossipConfig;

use crate::LatencyModel;

/// Simulation parameters. Defaults follow Table 1 of the paper: 10-second
/// gossip period, cache size 20, five dimensions and nesting depth 3 are
/// properties of the [`attrspace::Space`] passed separately.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Gossip-layer tuning (ignored when `gossip` is `false`).
    pub gossip: GossipConfig,
    /// Protocol timeouts.
    pub protocol: ProtocolConfig,
    /// Message latency and loss.
    pub latency: LatencyModel,
    /// Whether nodes run the gossip stack. Static experiments (Figs. 6–10)
    /// use oracle-wired routing tables with gossip off; dynamic experiments
    /// (Figs. 11–13) turn it on.
    pub gossip_enabled: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            gossip: GossipConfig::default(),
            protocol: ProtocolConfig::default(),
            latency: LatencyModel::Uniform {
                lo_ms: 10,
                hi_ms: 100,
            },
            gossip_enabled: true,
        }
    }
}

impl SimConfig {
    /// Configuration for static measurements: no gossip, constant 1 ms
    /// latency, generous timeouts — queries traverse an oracle-wired overlay
    /// exactly as in the paper's converged-state experiments.
    pub fn fast_static() -> Self {
        SimConfig {
            gossip: GossipConfig::default(),
            protocol: ProtocolConfig {
                query_timeout_ms: 60_000,
                ..ProtocolConfig::default()
            },
            latency: LatencyModel::Constant { ms: 1 },
            gossip_enabled: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_table_1() {
        let c = SimConfig::default();
        assert_eq!(c.gossip.period_ms, 10_000);
        assert_eq!(c.gossip.cyclon_view, 20);
        assert!(c.gossip_enabled);
    }

    #[test]
    fn fast_static_disables_gossip() {
        let c = SimConfig::fast_static();
        assert!(!c.gossip_enabled);
        assert_eq!(c.latency.sample_fixed(), 1);
    }
}
