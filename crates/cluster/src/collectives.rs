//! The flat collective schedules the [`crate::CollectiveEngine`]
//! dispatches to, built from point-to-point messages:
//!
//! | collective | algorithm | modelled cost (p ranks, n doubles) |
//! |---|---|---|
//! | broadcast | binomial tree | ⌈log₂p⌉(α+βn) |
//! | reduce | binomial tree | ⌈log₂p⌉(α+βn) |
//! | allreduce | recursive doubling | log₂p(α+βn) |
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
//! # The canonical reduction order
//!
//! Floating-point addition is commutative but not associative, so the
//! *shape* of the association tree decides the bits of a reduction.
//! Every reduction here (and every hierarchical algorithm in
//! [`crate::engine`]) commits to one **canonical association**: the one
//! recursive doubling produces. For `p` ranks with `p2` the largest
//! power of two ≤ `p` and `rem = p − p2`:
//!
//! 1. remainder pre-fold — leaf `r` (for `r < rem`) becomes
//!    `x_r ⊕ x_{r+p2}`;
//! 2. a perfect balanced binary tree over the `p2` folded leaves,
//!    combining adjacent blocks of doubling width (`(l ⊕ r)` with the
//!    lower-rank block on the left).
//!
//! IEEE-754 `+`, `max` and `min` are commutative *bitwise*, so an
//! algorithm may evaluate `r ⊕ l` where the canonical tree says
//! `l ⊕ r` and still produce identical bits — which is exactly why the
//! butterfly (where the two partners apply operands in opposite
//! orders) and the hierarchical group-leader schedules all land on the
//! same result. [`canonical_fold`] is the executable definition.
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
const T_REDUCE: Tag = COLL_TAG_BASE + 1;
const T_GATHER: Tag = COLL_TAG_BASE + 3;
const T_FOLD: Tag = COLL_TAG_BASE + 7;

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

/// Fold `parts` (one buffer per rank, in rank order) with the canonical
/// association described in the module docs: remainder pre-fold, then a
/// balanced binary tree over the power-of-two core. This is the
/// executable definition of the order every reduction and every
/// hierarchical schedule reproduces; tests use it as the bitwise oracle.
///
/// # Panics
/// Panics if `parts` is empty or lengths differ.
pub fn canonical_fold(parts: &[Vec<f64>], op: ReduceOp) -> Vec<f64> {
    assert!(!parts.is_empty(), "canonical_fold needs at least one part");
    let p = parts.len();
    let p2 = 1usize << (usize::BITS - 1 - p.leading_zeros());
    let rem = p - p2;
    let mut level: Vec<Vec<f64>> = parts[..p2].to_vec();
    for r in 0..rem {
        let extra = &parts[r + p2];
        op.apply(&mut level[r], extra);
    }
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len() / 2);
        for pair in level.chunks_exact(2) {
            let mut acc = pair[0].clone();
            op.apply(&mut acc, &pair[1]);
            next.push(acc);
        }
        level = next;
    }
    level.pop().expect("non-empty")
}

/// Element-wise binary operations for reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl ReduceOp {
    #[inline]
    pub(crate) fn apply(self, acc: &mut [f64], other: &[f64]) {
        debug_assert_eq!(acc.len(), other.len());
        match self {
            ReduceOp::Sum => {
                for (a, b) in acc.iter_mut().zip(other) {
                    *a += b;
                }
            }
            ReduceOp::Max => {
                for (a, b) in acc.iter_mut().zip(other) {
                    *a = a.max(*b);
                }
            }
            ReduceOp::Min => {
                for (a, b) in acc.iter_mut().zip(other) {
                    *a = a.min(*b);
                }
            }
        }
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

/// Binomial-tree reduction to `root` in the canonical association:
/// remainder ranks fold into the power-of-two core first, a binomial
/// tree reduces the core onto rank 0 with adjacent-block combining,
/// and rank 0 forwards the result to `root` when they differ. Same
/// ⌈log₂p⌉ depth and `p−1` tree messages as the classic rotated
/// binomial (plus one forward hop for non-zero roots), but the result
/// is bitwise-identical to [`allreduce_doubling`] for every `p` and
/// `root`. Returns `Some(result)` on the root, `None` elsewhere.
pub(crate) async fn reduce_tree(
    comm: &mut ThreadComm,
    root: usize,
    data: &[f64],
    op: ReduceOp,
) -> Option<Vec<f64>> {
    let p = comm.size();
    let rank = comm.rank();
    let n = data.len();
    assert!(root < p);
    let mut acc = data.to_vec();
    if p == 1 {
        return Some(acc);
    }
    let p2 = 1usize << (usize::BITS - 1 - p.leading_zeros());
    let rem = p - p2;
    // Remainder pre-fold, exactly as in the doubling allreduce.
    if rank >= p2 {
        charge_uplink_stall(comm, n, rank - p2, |m, r| r >= p2 && m.is_far(r, r - p2));
        comm.send(rank - p2, T_FOLD, &acc);
        return if rank == root {
            Some(comm.recv(0, T_REDUCE).await)
        } else {
            None
        };
    }
    if rank < rem {
        let part = comm.recv(rank + p2, T_FOLD).await;
        op.apply(&mut acc, &part);
    }
    // Binomial reduce of the core onto rank 0: at round `mask` the odd
    // multiples of `mask` send to their even-block sibling, so rank 0
    // accumulates the canonical adjacent-block tree.
    let mut mask = 1usize;
    while mask < p2 {
        if rank & mask != 0 {
            let dest = rank - mask;
            charge_uplink_stall(comm, n, dest, |m, r| {
                r < p2 && r & mask != 0 && r & (mask - 1) == 0 && m.is_far(r, r - mask)
            });
            comm.send(dest, T_REDUCE, &acc);
            break;
        }
        if rank + mask < p2 {
            let part = comm.recv(rank + mask, T_REDUCE).await;
            op.apply(&mut acc, &part);
        }
        mask <<= 1;
    }
    // Rank 0 now holds the canonical result; ship it to a non-zero root.
    if root == 0 {
        return (rank == 0).then_some(acc);
    }
    if rank == 0 {
        comm.send(root, T_REDUCE, &acc);
        return None;
    }
    if rank == root {
        Some(comm.recv(0, T_REDUCE).await)
    } else {
        None
    }
}

/// Recursive-doubling allreduce. Handles non-power-of-two sizes by
/// folding the excess ranks into the power-of-two core first (the
/// classic MPICH approach).
pub(crate) async fn allreduce_doubling(
    comm: &mut ThreadComm,
    data: &[f64],
    op: ReduceOp,
) -> Vec<f64> {
    let p = comm.size();
    let rank = comm.rank();
    let mut acc = data.to_vec();
    if p == 1 {
        return acc;
    }
    // Largest power of two ≤ p.
    let p2 = 1usize << (usize::BITS - 1 - p.leading_zeros());
    let rem = p - p2;
    // Phase 1: ranks ≥ p2 fold into rank − p2.
    let n = data.len();
    if rank >= p2 {
        charge_uplink_stall(comm, n, rank - p2, |m, r| r >= p2 && m.is_far(r, r - p2));
        comm.send(rank - p2, T_FOLD, &acc);
        // Wait for the final result in phase 3.
        acc = comm.recv(rank - p2, T_FOLD).await;
        return acc;
    }
    if rank < rem {
        let part = comm.recv(rank + p2, T_FOLD).await;
        op.apply(&mut acc, &part);
    }
    // Phase 2: recursive doubling among the p2 core ranks. Every core
    // rank sends each round, so on an SMP cluster the high-mask rounds
    // put a whole node's worth of senders on one uplink at once.
    let mut mask = 1usize;
    while mask < p2 {
        let partner = rank ^ mask;
        charge_uplink_stall(comm, n, partner, |m, r| r < p2 && m.is_far(r, r ^ mask));
        comm.send(partner, T_REDUCE + mask as Tag * 16, &acc);
        let part = comm.recv(partner, T_REDUCE + mask as Tag * 16).await;
        op.apply(&mut acc, &part);
        mask <<= 1;
    }
    // Phase 3: return results to the folded ranks.
    if rank < rem {
        charge_uplink_stall(comm, n, rank + p2, |m, r| r < rem && m.is_far(r, r + p2));
        comm.send(rank + p2, T_FOLD, &acc);
    }
    acc
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

    #[test]
    fn reduce_tree_sums_rank_values() {
        for &p in SIZES {
            let expected = (0..p).map(|r| r as f64).sum::<f64>();
            let r = run_spmd(p, Machine::ideal(), async move |comm| {
                reduce_tree(comm, 0, &[comm.rank() as f64, 1.0], ReduceOp::Sum).await
            })
            .unwrap();
            let root_val = r[0].value.clone().expect("root gets the result");
            assert_eq!(root_val, vec![expected, p as f64], "p={p}");
            for res in &r[1..] {
                assert!(res.value.is_none());
            }
        }
    }

    #[test]
    fn allreduce_doubling_all_sizes() {
        for &p in SIZES {
            let expected = (0..p).map(|r| r as f64).sum::<f64>();
            let r = run_spmd(p, Machine::ideal(), async |comm| {
                allreduce_doubling(comm, &[comm.rank() as f64], ReduceOp::Sum).await[0]
            })
            .unwrap();
            for res in &r {
                assert_eq!(res.value, expected, "p={p}");
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
    fn canonical_fold_matches_doubling_bitwise() {
        // The executable canonical order and the distributed butterfly
        // must agree bit for bit, including non-powers-of-two.
        for &p in &[1usize, 2, 3, 5, 6, 7, 12, 16] {
            let parts: Vec<Vec<f64>> = (0..p).map(|r| awkward_payload(r, 9)).collect();
            let oracle = canonical_fold(&parts, ReduceOp::Sum);
            let r = run_spmd(p, Machine::ideal(), async |comm| {
                let data = awkward_payload(comm.rank(), 9);
                allreduce_doubling(comm, &data, ReduceOp::Sum).await
            })
            .unwrap();
            for res in &r {
                for (a, b) in res.value.iter().zip(&oracle) {
                    assert_eq!(a.to_bits(), b.to_bits(), "p={p} rank={}", res.rank);
                }
            }
        }
    }

    #[test]
    fn allreduce_doubling_non_power_of_two_regression() {
        // Satellite regression: the remainder fold must be deterministic
        // and canonical at every awkward rank count. P = 257 exercises a
        // one-rank remainder above a 256 core.
        for &p in &[3usize, 5, 6, 7, 12, 257] {
            let parts: Vec<Vec<f64>> = (0..p).map(|r| awkward_payload(r, 3)).collect();
            let oracle = canonical_fold(&parts, ReduceOp::Sum);
            let r = run_spmd(p, Machine::ideal(), async |comm| {
                let data = awkward_payload(comm.rank(), 3);
                allreduce_doubling(comm, &data, ReduceOp::Sum).await
            })
            .unwrap();
            assert_eq!(r.len(), p);
            for res in &r {
                for (a, b) in res.value.iter().zip(&oracle) {
                    assert_eq!(a.to_bits(), b.to_bits(), "p={p} rank={}", res.rank);
                }
            }
        }
    }

    #[test]
    fn reduce_variants_bitwise_match_doubling() {
        // The rooted tree reduction agrees with the doubling allreduce
        // bit for bit, for every root.
        for &p in &[2usize, 3, 5, 7, 8, 12] {
            for root in [0, p / 2, p - 1] {
                let r = run_spmd(p, Machine::ideal(), async move |comm| {
                    let data = awkward_payload(comm.rank(), 5);
                    let dbl = allreduce_doubling(comm, &data, ReduceOp::Sum).await;
                    let tree = reduce_tree(comm, root, &data, ReduceOp::Sum).await;
                    (dbl, tree)
                })
                .unwrap();
                for res in &r {
                    let (dbl, tree) = &res.value;
                    assert_eq!(tree.is_some(), res.rank == root, "p={p} root={root}");
                    if let Some(t) = tree {
                        for (a, b) in dbl.iter().zip(t) {
                            assert_eq!(a.to_bits(), b.to_bits(), "tree p={p} root={root}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn uniform_machines_never_stall_on_uplinks() {
        let r = run_spmd(8, Machine::cluster2002(), async |comm| {
            let data = awkward_payload(comm.rank(), 64);
            let _ = allreduce_doubling(comm, &data, ReduceOp::Sum).await;
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
        // On a 2-node SMP cluster, the high-mask butterfly round puts
        // all four ranks of a node on one uplink: ranks with a higher
        // intra-node position must stall longer.
        let r = run_spmd(8, Machine::smp_cluster2002(4), async |comm| {
            let data = awkward_payload(comm.rank(), 16);
            let _ = allreduce_doubling(comm, &data, ReduceOp::Sum).await;
            comm.stats()
        })
        .unwrap();
        // Intra-node position r%4 = 0 never stalls; position 3 stalls 3
        // message-times.
        assert_eq!(r[0].value.link_stall_time, 0.0);
        assert!(r[3].value.link_stall_time > r[1].value.link_stall_time);
        assert!(r[1].value.link_stall_time > 0.0);
        // Only the cross-node butterfly round is far: one far message
        // per core rank.
        for res in &r {
            assert_eq!(res.value.far_msgs, 1, "rank {}", res.rank);
        }
    }

    #[test]
    fn allreduce_max_and_min() {
        let r = run_spmd(5, Machine::ideal(), async |comm| {
            let v = comm.rank() as f64;
            let mx = allreduce_doubling(comm, &[v], ReduceOp::Max).await[0];
            let mn = allreduce_doubling(comm, &[v], ReduceOp::Min).await[0];
            (mx, mn)
        })
        .unwrap();
        for res in &r {
            assert_eq!(res.value, (4.0, 0.0));
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
