//! The topology-aware collective engine: the crate's one public way to
//! run a collective.
//!
//! Flat collectives stop scaling long before 1024 ranks: every core
//! rank of a recursive-doubling butterfly injects into the fabric in
//! every high-mask round, so on a cluster of SMP nodes a whole node's
//! worth of senders serialises on one uplink, and the flat all-to-all
//! patterns of the failure-agreement and gather paths are O(p²). The
//! [`CollectiveEngine`] keys a *hierarchical* schedule off the
//! machine's [`TopologyKind`]:
//!
//! | topology | algorithm | why |
//! |---|---|---|
//! | `Uniform` | flat: recursive doubling, binomial trees, rooted linear gather | no hierarchy to exploit; identical to the legacy path bit for bit and second for second |
//! | `SmpCluster{g}` | two-level group-leader | one leader per node talks across the fabric; everything else is intra-node |
//!
//! # The bitwise contract
//!
//! Every engine reduction reproduces the **canonical association** of
//! [`canonical_fold`](crate::canonical_fold) exactly, for every rank
//! count and every group size: the two-level schedule's intra-group
//! binomial tree computes precisely the bottom `log₂ g` levels of the
//! canonical tree (groups are `g` consecutive ranks, `g` a power of two
//! dividing the core size), the leader butterfly computes the top
//! levels, and IEEE-754 commutativity absorbs the operand-order
//! differences. A
//! driver may therefore switch between flat and hierarchical
//! collectives — or between machines with different topologies — and
//! price bit-for-bit identically.

use crate::collectives::{self, ReduceOp};
use crate::machine::{CollectiveChoice, Machine};
use crate::message::{Tag, ENGINE_TAG_BASE};
use crate::thread_comm::ThreadComm;
use crate::topology::TopologyKind;

const T_EFOLD: Tag = ENGINE_TAG_BASE;
const T_EUP: Tag = ENGINE_TAG_BASE + 1;
const T_EX: Tag = ENGINE_TAG_BASE + 2;
const T_EDOWN: Tag = ENGINE_TAG_BASE + 3;
const T_EB0: Tag = ENGINE_TAG_BASE + 4;
const T_EB1: Tag = ENGINE_TAG_BASE + 5;
const T_EB2: Tag = ENGINE_TAG_BASE + 6;
const T_EG0: Tag = ENGINE_TAG_BASE + 7;
const T_EG1: Tag = ENGINE_TAG_BASE + 8;
const T_ER: Tag = ENGINE_TAG_BASE + 9;

/// Largest power of two ≤ `p` (`p ≥ 1`).
fn prev_pow2(p: usize) -> usize {
    1usize << (usize::BITS - 1 - p.leading_zeros())
}

/// The algorithm family a [`CollectiveEngine`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveAlgo {
    /// The legacy flat algorithms (recursive doubling, binomial trees,
    /// rooted linear gathers) — optimal when the fabric is uniform.
    Flat,
    /// Two-level group-leader schedules over groups of `group`
    /// consecutive ranks (a power of two): intra-group binomial stage,
    /// leaders-only inter-group stage, intra-group distribution stage.
    TwoLevel {
        /// Ranks per group; a power of two.
        group: usize,
    },
}

/// Topology-aware collective engine: one object that every distributed
/// driver routes its collectives through. Construction inspects the
/// machine ([`CollectiveEngine::for_machine`]); all operations preserve
/// the canonical reduction order, so the algorithm choice changes
/// virtual time and message counts but never a price.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveEngine {
    algo: CollectiveAlgo,
}

impl CollectiveEngine {
    /// Engine that always runs the flat algorithms.
    pub fn flat() -> Self {
        CollectiveEngine {
            algo: CollectiveAlgo::Flat,
        }
    }

    /// Engine that runs two-level schedules with the given group size.
    ///
    /// # Panics
    /// Panics unless `group` is a power of two ≥ 2.
    pub fn two_level(group: usize) -> Self {
        assert!(
            group >= 2 && group.is_power_of_two(),
            "group must be a power of two >= 2"
        );
        CollectiveEngine {
            algo: CollectiveAlgo::TwoLevel { group },
        }
    }

    /// Select the algorithm for `machine` at `p` ranks — the
    /// selection table in the module docs.
    pub fn for_machine(machine: &Machine, p: usize) -> Self {
        if machine.collectives == CollectiveChoice::FlatOnly || p < 4 {
            return Self::flat();
        }
        let p2 = prev_pow2(p);
        let group = match machine.topology {
            TopologyKind::Uniform => return Self::flat(),
            TopologyKind::SmpCluster { node_size } => {
                if p <= node_size {
                    // Everything is on one node: flat is all-near.
                    return Self::flat();
                }
                node_size.min(p2)
            }
        };
        if group >= 2 && group <= p2 {
            Self::two_level(group)
        } else {
            Self::flat()
        }
    }

    /// The selected algorithm.
    pub fn algo(&self) -> CollectiveAlgo {
        self.algo
    }

    /// Effective group size for `p` ranks: the configured group clamped
    /// to divide the power-of-two core (both are powers of two, so the
    /// min divides). Returns `None` when the schedule degenerates to
    /// flat (group < 2 or a single group would remain).
    fn group_for(&self, p: usize) -> Option<usize> {
        match self.algo {
            CollectiveAlgo::Flat => None,
            CollectiveAlgo::TwoLevel { group } => {
                let g = group.min(prev_pow2(p));
                (g >= 2 && p > 1).then_some(g)
            }
        }
    }

    /// Allreduce in the canonical order.
    pub async fn allreduce(&self, comm: &mut ThreadComm, data: &[f64], op: ReduceOp) -> Vec<f64> {
        match self.group_for(comm.size()) {
            None => collectives::allreduce_doubling(comm, data, op).await,
            Some(g) => two_level_allreduce(comm, data, op, g).await,
        }
    }

    /// Sum-allreduce in the canonical order.
    pub async fn allreduce_sum(&self, comm: &mut ThreadComm, data: &[f64]) -> Vec<f64> {
        self.allreduce(comm, data, ReduceOp::Sum).await
    }

    /// Broadcast from `root` (identical payload on every rank, so only
    /// the schedule — not the data — depends on the algorithm).
    pub async fn broadcast(&self, comm: &mut ThreadComm, root: usize, data: &mut [f64]) {
        match self.group_for(comm.size()) {
            None => collectives::broadcast_tree(comm, root, data).await,
            Some(g) => two_level_broadcast(comm, root, data, g).await,
        }
    }

    /// Rooted reduction in the canonical order. Returns `Some` on root.
    pub async fn reduce(
        &self,
        comm: &mut ThreadComm,
        root: usize,
        data: &[f64],
        op: ReduceOp,
    ) -> Option<Vec<f64>> {
        match self.group_for(comm.size()) {
            None => collectives::reduce_tree(comm, root, data, op).await,
            Some(g) => two_level_reduce(comm, root, data, op, g).await,
        }
    }

    /// Gather variable-length per-rank buffers to `root` in rank order.
    /// The two-level schedule bundles each group's parts at its leader
    /// (length-prefixed) and ships one message per group to the root.
    pub async fn gather_varied(
        &self,
        comm: &mut ThreadComm,
        root: usize,
        data: &[f64],
    ) -> Option<Vec<Vec<f64>>> {
        match self.group_for(comm.size()) {
            None => collectives::gather_varied(comm, root, data).await,
            Some(g) => two_level_gather_varied(comm, root, data, g).await,
        }
    }
}

/// Two-level allreduce: remainder fold, intra-group binomial reduce to
/// the group leaders, leader butterfly, intra-group broadcast,
/// remainder return. Bitwise-identical to flat recursive doubling.
async fn two_level_allreduce(
    comm: &mut ThreadComm,
    data: &[f64],
    op: ReduceOp,
    g: usize,
) -> Vec<f64> {
    let p = comm.size();
    let rank = comm.rank();
    let n = data.len();
    let mut acc = data.to_vec();
    if p == 1 {
        return acc;
    }
    let p2 = prev_pow2(p);
    let rem = p - p2;
    debug_assert!(g.is_power_of_two() && g <= p2);
    // Phase 1: remainder fold — the same schedule as flat doubling, so
    // the canonical leaves are identical.
    if rank >= p2 {
        collectives::charge_uplink_stall(comm, n, rank - p2, |m, r| r >= p2 && m.is_far(r, r - p2));
        comm.send(rank - p2, T_EFOLD, &acc);
        return comm.recv(rank - p2, T_EFOLD).await;
    }
    if rank < rem {
        let part = comm.recv(rank + p2, T_EFOLD).await;
        op.apply(&mut acc, &part);
    }
    let local = rank % g;
    // Phase 2a: binomial reduce onto the group leader — the bottom
    // log₂ g levels of the canonical tree (adjacent-block combining).
    let mut mask = 1usize;
    while mask < g {
        if local & mask != 0 {
            let dest = rank - mask;
            collectives::charge_uplink_stall(comm, n, dest, |m, r| {
                r < p2 && (r % g) & mask != 0 && (r % g) & (mask - 1) == 0 && m.is_far(r, r - mask)
            });
            comm.send(dest, T_EUP, &acc);
            break;
        }
        if local + mask < g {
            let part = comm.recv(rank + mask, T_EUP).await;
            op.apply(&mut acc, &part);
        }
        mask <<= 1;
    }
    // Phase 2b: butterfly over the leaders with masks g, 2g, … — the
    // top levels of the canonical tree. One sender per node.
    if local == 0 {
        let mut lmask = g;
        let mut round: Tag = 0;
        while lmask < p2 {
            let partner = rank ^ lmask;
            collectives::charge_uplink_stall(comm, n, partner, |m, r| {
                r < p2 && r % g == 0 && m.is_far(r, r ^ lmask)
            });
            comm.send(partner, T_EX + round * 16, &acc);
            let part = comm.recv(partner, T_EX + round * 16).await;
            op.apply(&mut acc, &part);
            lmask <<= 1;
            round += 1;
        }
    }
    // Phase 2c: binomial broadcast of the result within each group.
    let mut mask = 1usize;
    while mask < g {
        if local < mask {
            if local + mask < g {
                let dest = rank + mask;
                collectives::charge_uplink_stall(comm, n, dest, |m, r| {
                    let l = r % g;
                    r < p2 && l < mask && l + mask < g && m.is_far(r, r + mask)
                });
                comm.send(dest, T_EDOWN, &acc);
            }
        } else if local < 2 * mask {
            acc = comm.recv(rank - mask, T_EDOWN).await;
        }
        mask <<= 1;
    }
    // Phase 3: return to the remainder ranks.
    if rank < rem {
        collectives::charge_uplink_stall(comm, n, rank + p2, |m, r| r < rem && m.is_far(r, r + p2));
        comm.send(rank + p2, T_EFOLD, &acc);
    }
    acc
}

/// Two-level rooted reduce in the canonical order: the same schedule as
/// [`two_level_allreduce`] minus the distribution stages, with the
/// leader stage shaped as a binomial onto rank 0 and a final forward
/// hop to a non-zero root.
async fn two_level_reduce(
    comm: &mut ThreadComm,
    root: usize,
    data: &[f64],
    op: ReduceOp,
    g: usize,
) -> Option<Vec<f64>> {
    let p = comm.size();
    let rank = comm.rank();
    let n = data.len();
    assert!(root < p);
    let mut acc = data.to_vec();
    if p == 1 {
        return Some(acc);
    }
    let p2 = prev_pow2(p);
    let rem = p - p2;
    // Phase 1: remainder fold.
    if rank >= p2 {
        collectives::charge_uplink_stall(comm, n, rank - p2, |m, r| r >= p2 && m.is_far(r, r - p2));
        comm.send(rank - p2, T_EFOLD, &acc);
        return if rank == root {
            Some(comm.recv(0, T_ER).await)
        } else {
            None
        };
    }
    if rank < rem {
        let part = comm.recv(rank + p2, T_EFOLD).await;
        op.apply(&mut acc, &part);
    }
    let local = rank % g;
    // Phase 2a: binomial reduce onto the group leader.
    let mut mask = 1usize;
    while mask < g {
        if local & mask != 0 {
            let dest = rank - mask;
            collectives::charge_uplink_stall(comm, n, dest, |m, r| {
                r < p2 && (r % g) & mask != 0 && (r % g) & (mask - 1) == 0 && m.is_far(r, r - mask)
            });
            comm.send(dest, T_EUP, &acc);
            break;
        }
        if local + mask < g {
            let part = comm.recv(rank + mask, T_EUP).await;
            op.apply(&mut acc, &part);
        }
        mask <<= 1;
    }
    // Phase 2b: binomial reduce over the leaders onto rank 0 (adjacent
    // leader-block combining = the top canonical levels).
    if local == 0 {
        let li = rank / g;
        let nl = p2 / g;
        let mut lm = 1usize;
        while lm < nl {
            if li & lm != 0 {
                let dest = (li - lm) * g;
                collectives::charge_uplink_stall(comm, n, dest, |m, r| {
                    r < p2 && r % g == 0 && {
                        let i = r / g;
                        i & lm != 0 && i & (lm - 1) == 0 && m.is_far(r, (i - lm) * g)
                    }
                });
                comm.send(dest, T_EUP, &acc);
                break;
            }
            if li + lm < nl {
                let part = comm.recv((li + lm) * g, T_EUP).await;
                op.apply(&mut acc, &part);
            }
            lm <<= 1;
        }
    }
    // Rank 0 holds the canonical result; forward to a non-zero root.
    if root == 0 {
        return (rank == 0).then_some(acc);
    }
    if rank == 0 {
        comm.send(root, T_ER, &acc);
        return None;
    }
    if rank == root {
        Some(comm.recv(0, T_ER).await)
    } else {
        None
    }
}

/// Two-level broadcast: root → its group leader, binomial over the
/// leaders, binomial within each group. When the root is not a leader
/// it receives a (redundant, identical) copy in the intra-group stage,
/// which keeps the schedule uniform across ranks.
async fn two_level_broadcast(comm: &mut ThreadComm, root: usize, data: &mut [f64], g: usize) {
    let p = comm.size();
    let rank = comm.rank();
    assert!(root < p);
    if p == 1 {
        return;
    }
    let rl = root - root % g; // root's group leader
                              // Stage A: ship the payload to the root's leader.
    if root != rl {
        if rank == root {
            comm.send(rl, T_EB0, data);
        } else if rank == rl {
            let v = comm.recv(root, T_EB0).await;
            data.copy_from_slice(&v);
        }
    }
    // Stage B: binomial broadcast over the leaders, rooted at `rl`.
    if rank % g == 0 {
        let nl = p.div_ceil(g);
        let li = rank / g;
        let vroot = rl / g;
        let vl = (li + nl - vroot) % nl;
        let mut mask = 1usize;
        while mask < nl {
            if vl < mask {
                let vdest = vl + mask;
                if vdest < nl {
                    let dest = ((vdest + vroot) % nl) * g;
                    collectives::charge_uplink_stall(comm, data.len(), dest, |m, r| {
                        if r % g != 0 {
                            return false;
                        }
                        let v = (r / g + nl - vroot) % nl;
                        v < mask && v + mask < nl && m.is_far(r, ((v + mask + vroot) % nl) * g)
                    });
                    comm.send(dest, T_EB1, data);
                }
            } else if vl < 2 * mask {
                let src = ((vl - mask + vroot) % nl) * g;
                let v = comm.recv(src, T_EB1).await;
                data.copy_from_slice(&v);
            }
            mask <<= 1;
        }
    }
    // Stage C: binomial broadcast within each group from its leader.
    let local = rank % g;
    let gstart = rank - local;
    let gsize = g.min(p - gstart);
    let mut mask = 1usize;
    while mask < gsize {
        if local < mask {
            if local + mask < gsize {
                comm.send(gstart + local + mask, T_EB2, data);
            }
        } else if local < 2 * mask {
            let v = comm.recv(gstart + local - mask, T_EB2).await;
            data.copy_from_slice(&v);
        }
        mask <<= 1;
    }
}

/// Two-level variable-length gather: group members send to their
/// leader, leaders bundle `[len, payload]` per member in rank order and
/// ship one message per group to the root.
async fn two_level_gather_varied(
    comm: &mut ThreadComm,
    root: usize,
    data: &[f64],
    g: usize,
) -> Option<Vec<Vec<f64>>> {
    let p = comm.size();
    let rank = comm.rank();
    assert!(root < p);
    let local = rank % g;
    let gstart = rank - local;
    let gsize = g.min(p - gstart);
    let is_leader = local == 0;
    // Members (everyone but leaders and the root) send to their leader.
    if !is_leader && rank != root {
        collectives::charge_uplink_stall(comm, data.len(), gstart, |m, r| {
            r % g != 0 && r != root && m.is_far(r, r - r % g)
        });
        comm.send(gstart, T_EG0, data);
    }
    // Leaders bundle their group (their own part first is rank order,
    // since the leader is the lowest rank) and ship to the root.
    let mut bundle: Vec<f64> = Vec::new();
    if is_leader {
        for member in gstart..gstart + gsize {
            if member == root {
                continue;
            }
            if member == rank {
                bundle.push(data.len() as f64);
                bundle.extend_from_slice(data);
            } else {
                let part = comm.recv(member, T_EG0).await;
                bundle.push(part.len() as f64);
                bundle.extend(part);
            }
        }
        if rank != root {
            collectives::charge_uplink_stall(comm, bundle.len(), root, |m, r| {
                r % g == 0 && r != root && m.is_far(r, root)
            });
            comm.send(root, T_EG1, &bundle);
        }
    }
    if rank != root {
        return None;
    }
    // Root unbundles every group in rank order.
    let mut out: Vec<Vec<f64>> = vec![Vec::new(); p];
    out[root] = data.to_vec();
    let mut group = 0usize;
    while group * g < p {
        let lstart = group * g;
        let lsize = g.min(p - lstart);
        let packed = if lstart == gstart && is_leader {
            std::mem::take(&mut bundle)
        } else {
            comm.recv(lstart, T_EG1).await
        };
        let mut off = 0usize;
        #[allow(clippy::needless_range_loop)]
        for member in lstart..lstart + lsize {
            if member == root {
                continue;
            }
            let len = packed[off] as usize;
            off += 1;
            out[member] = packed[off..off + len].to_vec();
            off += len;
        }
        debug_assert_eq!(off, packed.len());
        group += 1;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::stats::TimeModel;
    use crate::thread_comm::run_spmd;

    fn awkward_payload(rank: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = ((rank * 2654435761 + i * 40503) % 8191) as f64;
                (x - 4095.0) * (1.0 + 1e-13 * rank as f64) / 3.0
            })
            .collect()
    }

    #[test]
    fn selection_table_matches_topologies() {
        let p = 64;
        assert_eq!(
            CollectiveEngine::for_machine(&Machine::cluster2002(), p).algo(),
            CollectiveAlgo::Flat
        );
        assert_eq!(
            CollectiveEngine::for_machine(&Machine::smp_cluster2002(8), p).algo(),
            CollectiveAlgo::TwoLevel { group: 8 }
        );
        // Everything on one node: flat (all near).
        assert_eq!(
            CollectiveEngine::for_machine(&Machine::smp_cluster2002(8), 8).algo(),
            CollectiveAlgo::Flat
        );
        // FlatOnly overrides the topology.
        assert_eq!(
            CollectiveEngine::for_machine(
                &Machine::smp_cluster2002(8).with_collectives(CollectiveChoice::FlatOnly),
                p
            )
            .algo(),
            CollectiveAlgo::Flat
        );
    }

    #[test]
    fn two_level_allreduce_bitwise_matches_flat() {
        for &p in &[4usize, 6, 8, 12, 16, 24, 33] {
            for &group in &[2usize, 4, 8] {
                let r = run_spmd(p, Machine::ideal(), async move |comm| {
                    let data = awkward_payload(comm.rank(), 9);
                    let flat = collectives::allreduce_doubling(comm, &data, ReduceOp::Sum).await;
                    let eng = CollectiveEngine::two_level(group);
                    let two = eng.allreduce(comm, &data, ReduceOp::Sum).await;
                    (flat, two)
                })
                .unwrap();
                for res in &r {
                    let (flat, two) = &res.value;
                    for (a, b) in flat.iter().zip(two) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "p={p} group={group} rank={}",
                            res.rank
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn two_level_reduce_bitwise_matches_flat_any_root() {
        for &p in &[5usize, 8, 12, 16] {
            for root in [0, p / 2, p - 1] {
                let r = run_spmd(p, Machine::ideal(), async move |comm| {
                    let data = awkward_payload(comm.rank(), 4);
                    let flat = collectives::allreduce_doubling(comm, &data, ReduceOp::Sum).await;
                    let eng = CollectiveEngine::two_level(4);
                    let two = eng.reduce(comm, root, &data, ReduceOp::Sum).await;
                    (flat, two)
                })
                .unwrap();
                for res in &r {
                    let (flat, two) = &res.value;
                    assert_eq!(two.is_some(), res.rank == root, "p={p} root={root}");
                    if let Some(t) = two {
                        for (a, b) in flat.iter().zip(t) {
                            assert_eq!(a.to_bits(), b.to_bits(), "p={p} root={root}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn two_level_broadcast_delivers_any_root() {
        for &p in &[4usize, 7, 12, 16] {
            for root in [0, 1, p - 1] {
                let r = run_spmd(p, Machine::ideal(), async move |comm| {
                    let mut data = if comm.rank() == root {
                        vec![1.5, -2.25, 99.0]
                    } else {
                        vec![0.0; 3]
                    };
                    CollectiveEngine::two_level(4)
                        .broadcast(comm, root, &mut data)
                        .await;
                    data
                })
                .unwrap();
                for res in &r {
                    assert_eq!(res.value, vec![1.5, -2.25, 99.0], "p={p} root={root}");
                }
            }
        }
    }

    #[test]
    fn two_level_gather_varied_preserves_rank_order() {
        for &p in &[4usize, 7, 12] {
            for root in [0, 2, p - 1] {
                let r = run_spmd(p, Machine::ideal(), async move |comm| {
                    let data = vec![comm.rank() as f64; comm.rank() % 3 + 1];
                    CollectiveEngine::two_level(4)
                        .gather_varied(comm, root, &data)
                        .await
                })
                .unwrap();
                for res in &r {
                    assert_eq!(res.value.is_some(), res.rank == root);
                    if let Some(parts) = &res.value {
                        for (src, part) in parts.iter().enumerate() {
                            assert_eq!(part, &vec![src as f64; src % 3 + 1], "p={p} root={root}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hierarchical_beats_flat_on_smp_cluster_makespan_and_far_msgs() {
        let p = 64;
        let machine = Machine::smp_cluster2002(8);
        let run = |engine: CollectiveEngine| {
            let r = run_spmd(p, machine, async move |comm| {
                let data = awkward_payload(comm.rank(), 16);
                let out = engine.allreduce_sum(comm, &data).await;
                (out[0], comm.stats())
            })
            .unwrap();
            let tm = TimeModel::from_results(
                &r.iter()
                    .map(|res| crate::stats::SpmdResult {
                        rank: res.rank,
                        value: (),
                        time: res.time,
                        stats: res.value.1,
                    })
                    .collect::<Vec<_>>(),
            );
            (r[0].value.0, tm)
        };
        let (flat_val, flat) = run(CollectiveEngine::flat());
        let (two_val, two) = run(CollectiveEngine::two_level(8));
        assert_eq!(flat_val.to_bits(), two_val.to_bits());
        assert!(
            two.makespan < flat.makespan,
            "two-level {} should beat flat {}",
            two.makespan,
            flat.makespan
        );
        assert!(
            two.total_far_msgs < flat.total_far_msgs,
            "far msgs {} !< {}",
            two.total_far_msgs,
            flat.total_far_msgs
        );
        assert!(two.total_msgs < flat.total_msgs);
        assert_eq!(two.total_link_stall, 0.0, "leaders never share an uplink");
        assert!(flat.total_link_stall > 0.0);
    }

    #[test]
    fn engine_on_uniform_machine_is_cost_identical_to_flat_collectives() {
        let p = 8;
        let run = |use_engine: bool| {
            let r = run_spmd(p, Machine::cluster2002(), async move |comm| {
                let data = awkward_payload(comm.rank(), 8);
                let out = if use_engine {
                    let eng = CollectiveEngine::for_machine(&comm.machine().clone(), comm.size());
                    eng.allreduce_sum(comm, &data).await
                } else {
                    collectives::allreduce_doubling(comm, &data, ReduceOp::Sum).await
                };
                (out, comm.stats())
            })
            .unwrap();
            r.iter()
                .map(|res| (res.value.clone(), res.time))
                .collect::<Vec<_>>()
        };
        let a = run(false);
        let b = run(true);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.0 .0, y.0 .0);
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "virtual clocks must match");
            assert_eq!(x.0 .1.msgs_sent, y.0 .1.msgs_sent);
            assert_eq!(x.0 .1.bytes_sent, y.0 .1.bytes_sent);
        }
    }
}
