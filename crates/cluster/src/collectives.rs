//! The flat collective schedules the [`crate::CollectiveEngine`]
//! dispatches to, built from point-to-point messages:
//!
//! | collective | algorithm | modelled cost (p ranks, n doubles) |
//! |---|---|---|
//! | broadcast | binomial tree | ⌈log₂p⌉(α+βn) |
//! | gather (variable lengths) | linear rooted | (p−1)(α+βn) |
//!
//! These are what MPICH ran at the time. Outside the crate every
//! collective goes through the engine, which runs these on uniform
//! fabrics and its two-level schedules on SMP clusters.
//!
//! All functions must be called by **every** rank of the communicator
//! (standard collective semantics); tags are drawn from the reserved
//! collective range so they never collide with user traffic, and FIFO
//! matching per `(src, tag)` keeps back-to-back collectives separate.
//!
//! # Uplink contention
//!
//! On [`crate::TopologyKind::SmpCluster`] machines, several ranks of
//! one node injecting far messages in the same schedule stage share
//! one uplink. Each collective knows its own stage structure, so
//! before a far send it charges a deterministic serialisation stall of
//! `pos × far_message_time` virtual seconds, where `pos` is the
//! rank's position among its node's far senders of that stage (see
//! [`ThreadComm::link_stall`]). On `Uniform` machines no message is
//! far and nothing changes; flat collectives at large P on SMP
//! clusters pay heavily, which is what the topology-aware engine
//! avoids.

use crate::machine::Machine;
use crate::message::{Message, Tag, COLL_TAG_BASE};
use crate::thread_comm::ThreadComm;
use crate::topology::TopologyKind;

const T_BCAST: Tag = COLL_TAG_BASE;
const T_GATHER: Tag = COLL_TAG_BASE + 3;

/// Charge the deterministic uplink-serialisation stall for a far send
/// of `payload_len` doubles to `dest` in a schedule stage whose far
/// senders are characterised by `sends_far` (must be evaluable by
/// every rank from shared knowledge — the stage structure).
///
/// Only ranks on multi-rank nodes ([`TopologyKind::SmpCluster`]) can
/// share an uplink; everywhere else this is free.
pub(crate) fn charge_uplink_stall<F>(
    comm: &mut ThreadComm,
    payload_len: usize,
    dest: usize,
    sends_far: F,
) where
    F: Fn(&Machine, usize) -> bool,
{
    let m = *comm.machine();
    let rank = comm.rank();
    if !m.is_far(rank, dest) {
        return;
    }
    let TopologyKind::SmpCluster { node_size } = m.topology else {
        return;
    };
    let node_start = (rank / node_size) * node_size;
    let pos = (node_start..rank).filter(|&r| sends_far(&m, r)).count();
    if pos > 0 {
        let stall = pos as f64 * m.far_message_time(Message::wire_bytes(payload_len));
        comm.link_stall(stall);
    }
}

/// Binomial-tree broadcast from `root`; on non-root ranks `data` is
/// overwritten with the root's buffer (lengths must match on all ranks).
pub(crate) async fn broadcast_tree(comm: &mut ThreadComm, root: usize, data: &mut [f64]) {
    let p = comm.size();
    let rank = comm.rank();
    assert!(root < p);
    if p == 1 {
        return;
    }
    let vr = (rank + p - root) % p; // virtual rank: root ↦ 0
    let mut mask = 1usize;
    // Receive once (if not root), then forward to higher virtual ranks.
    while mask < p {
        if vr < mask {
            let vdest = vr + mask;
            if vdest < p {
                let dest = (vdest + root) % p;
                charge_uplink_stall(comm, data.len(), dest, |m, r| {
                    let v = (r + p - root) % p;
                    v < mask && v + mask < p && m.is_far(r, (v + mask + root) % p)
                });
                comm.send(dest, T_BCAST, data);
            }
        } else if vr < 2 * mask {
            let vsrc = vr - mask;
            let src = (vsrc + root) % p;
            let recvd = comm.recv(src, T_BCAST).await;
            data.copy_from_slice(&recvd);
        }
        mask <<= 1;
    }
}

/// Gather variable-length buffers to `root` in rank order, returning the
/// per-rank vectors.
pub(crate) async fn gather_varied(
    comm: &mut ThreadComm,
    root: usize,
    data: &[f64],
) -> Option<Vec<Vec<f64>>> {
    let p = comm.size();
    let rank = comm.rank();
    assert!(root < p);
    if rank == root {
        let mut out = Vec::with_capacity(p);
        for src in 0..p {
            if src == root {
                out.push(data.to_vec());
            } else {
                out.push(comm.recv(src, T_GATHER).await);
            }
        }
        Some(out)
    } else {
        charge_uplink_stall(comm, data.len(), root, |m, r| {
            r != root && m.is_far(r, root)
        });
        comm.send(root, T_GATHER, data);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::thread_comm::run_spmd;

    /// Every interesting rank count: powers of two, odds, primes.
    const SIZES: &[usize] = &[1, 2, 3, 4, 5, 7, 8, 13, 16];

    #[test]
    fn broadcast_tree_delivers_to_all_roots() {
        for &p in SIZES {
            for root in [0, p - 1, p / 2] {
                let r = run_spmd(p, Machine::ideal(), async move |comm| {
                    let mut data = if comm.rank() == root {
                        vec![3.25, -1.5, 42.0]
                    } else {
                        vec![0.0; 3]
                    };
                    broadcast_tree(comm, root, &mut data).await;
                    data
                })
                .unwrap();
                for res in &r {
                    assert_eq!(res.value, vec![3.25, -1.5, 42.0], "p={p} root={root}");
                }
            }
        }
    }

    /// Deterministic "random-looking" payload: values whose sums depend
    /// on association order, so bitwise agreement is meaningful.
    fn awkward_payload(rank: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = ((rank * 2654435761 + i * 40503) % 8191) as f64;
                (x - 4095.0) * (1.0 + 1e-13 * rank as f64) / 3.0
            })
            .collect()
    }

    #[test]
    fn uniform_machines_never_stall_on_uplinks() {
        let r = run_spmd(8, Machine::cluster2002(), async |comm| {
            let data = awkward_payload(comm.rank(), 64);
            let _ = gather_varied(comm, 0, &data).await;
            let mut b = data.clone();
            broadcast_tree(comm, 0, &mut b).await;
            comm.stats()
        })
        .unwrap();
        for res in &r {
            assert_eq!(res.value.link_stall_time, 0.0);
            assert_eq!(res.value.far_msgs, 0);
        }
    }

    #[test]
    fn smp_cluster_flat_doubling_pays_uplink_stalls() {
        // On a 2-node SMP cluster, every rank of the second node sends
        // its part of a flat gather to rank 0 over the node's one
        // uplink: ranks with a higher intra-node position stall longer.
        let r = run_spmd(8, Machine::smp_cluster2002(4), async |comm| {
            let data = awkward_payload(comm.rank(), 16);
            let _ = gather_varied(comm, 0, &data).await;
            comm.stats()
        })
        .unwrap();
        // The first node's ranks send near (or not at all), and the
        // second node's first sender has the uplink to itself.
        for res in &r[..5] {
            assert_eq!(res.value.link_stall_time, 0.0, "rank {}", res.rank);
        }
        assert!(r[5].value.link_stall_time > 0.0);
        assert!(r[6].value.link_stall_time > r[5].value.link_stall_time);
        assert!(r[7].value.link_stall_time > r[6].value.link_stall_time);
        // Only the second node's parts cross the fabric, one message each.
        for res in &r {
            assert_eq!(
                res.value.far_msgs,
                u64::from(res.rank >= 4),
                "rank {}",
                res.rank
            );
        }
    }

    #[test]
    fn gather_varied_lengths() {
        let r = run_spmd(3, Machine::ideal(), async |comm| {
            let data = vec![comm.rank() as f64; comm.rank()];
            gather_varied(comm, 1, &data).await
        })
        .unwrap();
        let v = r[1].value.as_ref().unwrap();
        assert_eq!(v[0], Vec::<f64>::new());
        assert_eq!(v[1], vec![1.0]);
        assert_eq!(v[2], vec![2.0, 2.0]);
    }
}
