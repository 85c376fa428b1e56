//! The communicator abstraction every parallel engine programs against.

use crate::machine::Machine;
use crate::message::Tag;
use crate::stats::CommStats;

/// An SPMD communicator: identity, point-to-point messaging and the
/// virtual-time hooks. Collective operations are built on top of it by
/// the [`crate::CollectiveEngine`], which picks the schedule for the
/// machine's topology.
///
/// The contract mirrors a minimal MPI:
///
/// * `send` is asynchronous and never blocks (unbounded buffering);
/// * `recv` blocks until a matching `(src, tag)` message arrives, with
///   out-of-order arrivals buffered — i.e. MPI's non-overtaking envelope
///   matching;
/// * each call also advances the rank's **virtual clock** by the machine
///   model's cost for the operation, and tallies [`CommStats`].
///
/// # Panics
///
/// `recv` panics when a poison message from a failed peer arrives; the
/// SPMD driver converts that unwinding into a [`crate::ClusterError`].
pub trait Communicator {
    /// This rank's id in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks.
    fn size(&self) -> usize;

    /// The machine model this run executes under.
    fn machine(&self) -> &Machine;

    /// Asynchronously send `data` to `dest` with `tag`.
    ///
    /// Virtual cost (charged to the sender): `α + β·wire_bytes`.
    fn send(&mut self, dest: usize, tag: Tag, data: &[f64]);

    /// Block until a message with envelope `(src, tag)` arrives and
    /// return its payload.
    ///
    /// Virtual cost: the receiver's clock becomes
    /// `max(own clock, sender delivery time)` — waiting is free, arrival
    /// cannot precede the modelled delivery.
    fn recv(&mut self, src: usize, tag: Tag) -> Vec<f64>;

    /// Advance this rank's virtual clock by `seconds` of computation.
    fn compute(&mut self, seconds: f64);

    /// Advance the clock by `units` abstract work units priced by the
    /// machine model.
    fn compute_units(&mut self, units: f64) {
        let t = self.machine().work_time(units);
        self.compute(t);
    }

    /// Stall this rank's virtual clock for `seconds` behind co-node
    /// senders sharing one uplink. The collectives charge this *before*
    /// a far send whenever several ranks of one SMP node inject into
    /// the fabric in the same schedule stage; a flat butterfly at large
    /// P pays it heavily, a hierarchical collective (one leader per
    /// node) barely at all. The default books it as plain computation
    /// delay; [`crate::ThreadComm`] attributes it to wait time and the
    /// `link_stall_time` counter instead.
    fn link_stall(&mut self, seconds: f64) {
        self.compute(seconds);
    }

    /// Current virtual time of this rank.
    fn now(&self) -> f64;

    /// Snapshot of the communication counters.
    fn stats(&self) -> CommStats;
}

#[cfg(test)]
mod tests {
    // Communicator is exercised end-to-end in the thread_comm, collectives
    // and engine tests; here we only pin trait-object safety.
    use super::*;

    #[test]
    fn trait_is_object_safe() {
        fn _takes_dyn(_c: &mut dyn Communicator) {}
    }
}
