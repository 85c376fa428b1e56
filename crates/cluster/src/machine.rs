//! Machine models: the parameters of the virtual-time execution model.
//!
//! The Hockney model prices a point-to-point message of `n` bytes at
//! `α + β·n` seconds (`α` latency, `β` inverse bandwidth). These two
//! numbers plus a floating-point throughput describe a machine well
//! enough to reproduce the *shape* of speedup curves; the presets span
//! the design space the evaluation sweeps (ablation A4).
//!
//! Since the collective-engine refactor a machine also carries a
//! [`TopologyKind`] and a second (α, β) pair for **far** links — those
//! that leave an SMP node. Every preset but
//! [`Machine::smp_cluster2002`] is [`TopologyKind::Uniform`] with far ==
//! near, so every pre-engine cost is reproduced bit for bit.

use crate::topology::TopologyKind;

/// How the collective engine should pick algorithms on this machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveChoice {
    /// Let the engine key the algorithm off the machine topology.
    Auto,
    /// Force the flat (pre-engine) algorithms regardless of topology.
    /// Used by the scalability sweep to measure what hierarchy buys.
    FlatOnly,
}

/// Parameters of a modelled parallel machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    /// Human-readable preset name.
    pub name: &'static str,
    /// Message latency α in seconds (near links).
    pub latency: f64,
    /// Inverse bandwidth β in seconds per byte (near links).
    pub inv_bandwidth: f64,
    /// Seconds per abstract "work unit" (calibrated flop-equivalents);
    /// engines use [`Machine::work_time`] to convert counted work into
    /// virtual seconds.
    pub sec_per_unit: f64,
    /// Interconnect topology; decides which rank pairs are near/far and
    /// which collective algorithms the engine selects.
    pub topology: TopologyKind,
    /// Message latency α in seconds for far links.
    pub far_latency: f64,
    /// Inverse bandwidth β in seconds per byte for far links.
    pub far_inv_bandwidth: f64,
    /// Collective-algorithm selection policy for the engine.
    pub collectives: CollectiveChoice,
}

impl Machine {
    /// Uniform-topology machine with the given near parameters; far
    /// links are identical to near ones, which makes every cost
    /// identical to the pre-topology model.
    fn uniform(name: &'static str, latency: f64, inv_bandwidth: f64, sec_per_unit: f64) -> Self {
        Machine {
            name,
            latency,
            inv_bandwidth,
            sec_per_unit,
            topology: TopologyKind::Uniform,
            far_latency: latency,
            far_inv_bandwidth: inv_bandwidth,
            collectives: CollectiveChoice::Auto,
        }
    }

    /// A 2002-era Beowulf-class cluster: 50 µs MPI latency, 100 MB/s
    /// effective bandwidth, ~100 Mflop/s effective per-node throughput
    /// on pricing kernels.
    pub fn cluster2002() -> Self {
        Machine::uniform("cluster2002", 50e-6, 10e-9, 10e-9)
    }

    /// A shared-memory SMP node: 2 µs latency, 2 GB/s.
    pub fn smp() -> Self {
        Machine::uniform("smp", 2e-6, 0.5e-9, 10e-9)
    }

    /// An idealised PRAM-like machine: communication is free.
    /// Speedup measured on it isolates load imbalance from comm cost.
    pub fn ideal() -> Self {
        Machine::uniform("ideal", 0.0, 0.0, 10e-9)
    }

    /// A cluster of SMP nodes, `node_size` ranks each: intra-node
    /// messages at shared-memory cost (2 µs, 2 GB/s), inter-node
    /// messages over the 2002-era fabric (50 µs, 100 MB/s) through one
    /// uplink per node. This is the machine the 1024-rank scalability
    /// sweep runs on; concurrent far senders on a node serialise on the
    /// uplink (see [`crate::CollectiveEngine`]).
    ///
    /// # Panics
    /// Panics unless `node_size` is a power of two.
    pub fn smp_cluster2002(node_size: usize) -> Self {
        assert!(
            node_size.is_power_of_two(),
            "node_size must be a power of two"
        );
        Machine {
            name: "smp_cluster2002",
            latency: 2e-6,
            inv_bandwidth: 0.5e-9,
            sec_per_unit: 10e-9,
            topology: TopologyKind::SmpCluster { node_size },
            far_latency: 50e-6,
            far_inv_bandwidth: 10e-9,
            collectives: CollectiveChoice::Auto,
        }
    }

    /// Copy of `self` with latency scaled by `f` (ablation A4); scales
    /// near and far latency together.
    pub fn with_latency_factor(mut self, f: f64) -> Self {
        self.latency *= f;
        self.far_latency *= f;
        self.name = "custom";
        self
    }

    /// Copy of `self` with bandwidth scaled by `f` (β divided by `f`);
    /// scales near and far bandwidth together.
    pub fn with_bandwidth_factor(mut self, f: f64) -> Self {
        self.inv_bandwidth /= f;
        self.far_inv_bandwidth /= f;
        self.name = "custom";
        self
    }

    /// Copy of `self` with the collective-selection policy replaced.
    pub fn with_collectives(mut self, choice: CollectiveChoice) -> Self {
        self.collectives = choice;
        self
    }

    /// Virtual seconds for a message of `bytes` bytes on a near link.
    #[inline]
    pub fn message_time(&self, bytes: usize) -> f64 {
        self.latency + self.inv_bandwidth * bytes as f64
    }

    /// Virtual seconds for a message of `bytes` bytes on a far link.
    #[inline]
    pub fn far_message_time(&self, bytes: usize) -> f64 {
        self.far_latency + self.far_inv_bandwidth * bytes as f64
    }

    /// Whether a `from → to` message crosses the fabric on this machine.
    #[inline]
    pub fn is_far(&self, from: usize, to: usize) -> bool {
        self.topology.is_far(from, to)
    }

    /// Virtual seconds for a `from → to` message of `bytes` bytes,
    /// picking the near or far link parameters from the topology. On
    /// [`TopologyKind::Uniform`] machines this equals
    /// [`Machine::message_time`] exactly.
    #[inline]
    pub fn message_time_between(&self, from: usize, to: usize, bytes: usize) -> f64 {
        if self.is_far(from, to) {
            self.far_message_time(bytes)
        } else {
            self.message_time(bytes)
        }
    }

    /// Virtual seconds for `units` abstract work units.
    #[inline]
    pub fn work_time(&self, units: f64) -> f64 {
        self.sec_per_unit * units
    }
}

impl Default for Machine {
    fn default() -> Self {
        Machine::cluster2002()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_time_is_affine() {
        let m = Machine::cluster2002();
        let t0 = m.message_time(0);
        let t1k = m.message_time(1000);
        assert_eq!(t0, 50e-6);
        assert!((t1k - t0 - 1000.0 * 10e-9).abs() < 1e-18);
    }

    #[test]
    fn ideal_machine_communicates_for_free() {
        let m = Machine::ideal();
        assert_eq!(m.message_time(1 << 20), 0.0);
        assert!(m.work_time(100.0) > 0.0);
    }

    #[test]
    fn factors_scale_the_right_knob() {
        let m = Machine::cluster2002().with_latency_factor(10.0);
        assert_eq!(m.latency, 500e-6);
        assert_eq!(m.inv_bandwidth, 10e-9);
        let m2 = Machine::cluster2002().with_bandwidth_factor(10.0);
        assert_eq!(m2.inv_bandwidth, 1e-9);
    }

    #[test]
    fn presets_ordered_by_latency() {
        assert!(Machine::ideal().latency < Machine::smp().latency);
        assert!(Machine::smp().latency < Machine::cluster2002().latency);
    }

    #[test]
    fn uniform_presets_charge_far_same_as_near() {
        for m in [Machine::cluster2002(), Machine::smp(), Machine::ideal()] {
            assert_eq!(m.topology, TopologyKind::Uniform);
            for (a, b) in [(0, 1), (0, 63), (7, 12)] {
                assert_eq!(
                    m.message_time_between(a, b, 4096).to_bits(),
                    m.message_time(4096).to_bits(),
                    "{}: {a}->{b}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn smp_cluster_charges_far_across_nodes_only() {
        let m = Machine::smp_cluster2002(8);
        assert!(m.message_time_between(0, 7, 1000) < m.message_time_between(0, 8, 1000));
        assert_eq!(m.message_time_between(0, 8, 1000), m.far_message_time(1000));
        assert_eq!(m.message_time_between(1, 5, 1000), m.message_time(1000));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn smp_cluster_rejects_odd_node_size() {
        let _ = Machine::smp_cluster2002(6);
    }
}
