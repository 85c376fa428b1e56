//! Interconnect topology as the cost model and the collective engine
//! see it.

/// Interconnect topology of a virtual machine, as seen by the cost
/// model and the collective engine.
///
/// The model is deliberately binary — a message is either **near**
/// (same SMP node) or **far** (crosses the interconnect fabric).
/// Wormhole routing on the 2002-era networks made latency nearly
/// distance-insensitive, so hop counts beyond the first switch crossing
/// add little; what matters is *whether* a message leaves the node and
/// how many concurrent senders share its uplink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// Fully uniform fabric: every pair of ranks is equally close.
    /// This is the legacy model — all presets that predate the
    /// collective engine use it, and on it every algorithm costs
    /// exactly what it did before the engine existed.
    Uniform,
    /// Cluster of SMP nodes: `node_size` consecutive ranks share one
    /// node (near: shared memory) and each node has a single uplink
    /// into the fabric (far). Concurrent far senders on one node
    /// serialise on the uplink — the effect hierarchical collectives
    /// exist to avoid.
    SmpCluster {
        /// Ranks per node; must be a power of two.
        node_size: usize,
    },
}

impl TopologyKind {
    /// Whether a message from `from` to `to` crosses the fabric (far)
    /// rather than staying on a node (near).
    pub fn is_far(&self, from: usize, to: usize) -> bool {
        match *self {
            TopologyKind::Uniform => false,
            TopologyKind::SmpCluster { node_size } => from / node_size != to / node_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_topology_is_never_far() {
        let t = TopologyKind::Uniform;
        for a in 0..16 {
            for b in 0..16 {
                assert!(!t.is_far(a, b));
            }
        }
    }

    #[test]
    fn smp_cluster_topology_groups_consecutive_ranks() {
        let t = TopologyKind::SmpCluster { node_size: 4 };
        assert!(!t.is_far(0, 3));
        assert!(t.is_far(3, 4));
        assert!(!t.is_far(5, 5));
    }
}
