//! The topology-aware collective engine: the crate's one public way to
//! run a collective.
//!
//! Flat collectives stop scaling long before 1024 ranks: every rank of
//! a flat gather sends its part straight to the root, so on a cluster
//! of SMP nodes a whole node's worth of senders serialises on one
//! uplink, and a flat broadcast tree crosses the fabric on most of its
//! edges. The [`CollectiveEngine`] keys a *hierarchical* schedule off
//! the machine's [`TopologyKind`]:
//!
//! | topology | algorithm | why |
//! |---|---|---|
//! | `Uniform` | flat: binomial-tree broadcast, rooted linear gather | no hierarchy to exploit; identical to the legacy path bit for bit and second for second |
//! | `SmpCluster{g}` | two-level group-leader | one leader per node talks across the fabric; everything else is intra-node |
//!
//! Neither collective computes on the data: a broadcast delivers the
//! root's bits and a gather delivers every rank's part in rank order,
//! whichever schedule runs. The drivers reduce by gathering
//! block-tagged parts to one rank, folding them there in global block
//! order and broadcasting the result, so a driver may switch between
//! flat and hierarchical collectives — or between machines with
//! different topologies — and price bit for bit identically.

use crate::collectives;
use crate::machine::{CollectiveChoice, Machine};
use crate::message::{Tag, ENGINE_TAG_BASE};
use crate::thread_comm::ThreadComm;
use crate::topology::TopologyKind;

const T_EB0: Tag = ENGINE_TAG_BASE + 4;
const T_EB1: Tag = ENGINE_TAG_BASE + 5;
const T_EB2: Tag = ENGINE_TAG_BASE + 6;
const T_EG0: Tag = ENGINE_TAG_BASE + 7;
const T_EG1: Tag = ENGINE_TAG_BASE + 8;

/// Largest power of two ≤ `p` (`p ≥ 1`).
fn prev_pow2(p: usize) -> usize {
    1usize << (usize::BITS - 1 - p.leading_zeros())
}

/// The algorithm family a [`CollectiveEngine`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveAlgo {
    /// The legacy flat algorithms (binomial-tree broadcast, rooted
    /// linear gather) — optimal when the fabric is uniform.
    Flat,
    /// Two-level group-leader schedules over groups of `group`
    /// consecutive ranks (a power of two): only the group leaders
    /// exchange messages across groups.
    TwoLevel {
        /// Ranks per group; a power of two.
        group: usize,
    },
}

/// Topology-aware collective engine: one object that every distributed
/// driver routes its collectives through. Construction inspects the
/// machine ([`CollectiveEngine::for_machine`]); neither collective
/// computes on the data, so the algorithm choice changes virtual time
/// and message counts but never a price.
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
    /// to the largest power of two ≤ `p`. Returns `None` when the
    /// schedule degenerates to flat (group < 2 or a single rank).
    fn group_for(&self, p: usize) -> Option<usize> {
        match self.algo {
            CollectiveAlgo::Flat => None,
            CollectiveAlgo::TwoLevel { group } => {
                let g = group.min(prev_pow2(p));
                (g >= 2 && p > 1).then_some(g)
            }
        }
    }

    /// Broadcast from `root` (identical payload on every rank, so only
    /// the schedule — not the data — depends on the algorithm).
    pub async fn broadcast(&self, comm: &mut ThreadComm, root: usize, data: &mut [f64]) {
        match self.group_for(comm.size()) {
            None => collectives::broadcast_tree(comm, root, data).await,
            Some(g) => two_level_broadcast(comm, root, data, g).await,
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

    /// One round of the drivers' reduction: gather every rank's part to
    /// rank 0, fold the parts there in rank order, broadcast the sum.
    async fn gather_fold_broadcast(
        engine: CollectiveEngine,
        comm: &mut ThreadComm,
        data: &[f64],
    ) -> f64 {
        let parts = engine.gather_varied(comm, 0, data).await;
        let mut total = [parts.map_or(0.0, |parts| parts.iter().flatten().sum())];
        engine.broadcast(comm, 0, &mut total).await;
        total[0]
    }

    #[test]
    fn hierarchical_beats_flat_on_smp_cluster_makespan_and_far_msgs() {
        let p = 64;
        let machine = Machine::smp_cluster2002(8);
        let run = |engine: CollectiveEngine| {
            let r = run_spmd(p, machine, async move |comm| {
                let data = awkward_payload(comm.rank(), 16);
                let total = gather_fold_broadcast(engine, comm, &data).await;
                (total, comm.stats())
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
        // Both schedules send p − 1 messages per collective.
        assert_eq!(two.total_msgs, flat.total_msgs);
        assert_eq!(two.total_link_stall, 0.0, "leaders never share an uplink");
        assert!(flat.total_link_stall > 0.0);
    }

    #[test]
    fn engine_on_uniform_machine_is_cost_identical_to_flat_collectives() {
        let p = 8;
        let run = |use_engine: bool| {
            let r = run_spmd(p, Machine::cluster2002(), async move |comm| {
                let data = awkward_payload(comm.rank(), comm.rank() + 1);
                let mut b = if comm.rank() == 2 {
                    awkward_payload(2, 8)
                } else {
                    vec![0.0; 8]
                };
                let parts = if use_engine {
                    let eng = CollectiveEngine::for_machine(&comm.machine().clone(), comm.size());
                    let parts = eng.gather_varied(comm, 2, &data).await;
                    eng.broadcast(comm, 2, &mut b).await;
                    parts
                } else {
                    let parts = collectives::gather_varied(comm, 2, &data).await;
                    collectives::broadcast_tree(comm, 2, &mut b).await;
                    parts
                };
                (parts, b, comm.stats())
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
            assert_eq!(x.0 .1, y.0 .1);
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "virtual clocks must match");
            assert_eq!(x.0 .2.msgs_sent, y.0 .2.msgs_sent);
            assert_eq!(x.0 .2.bytes_sent, y.0 .2.bytes_sent);
        }
    }
}
