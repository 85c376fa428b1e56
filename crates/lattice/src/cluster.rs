//! Distributed-memory backward induction over `mdp_cluster`.
//!
//! The lattice is decomposed along axis 0 (asset 1's up-move count): at
//! step `n` rank `r` owns a set of axis-0 rows of the `(n+1)^d` grid.
//! Computing row `j0` of step `n` needs rows `j0` and `j0+1` of step
//! `n+1`, so each time step performs a **halo exchange**: every rank
//! ships the boundary rows its neighbours will need, then sweeps its own
//! rows with the exact same slab kernel the sequential engine uses.
//!
//! The halo exchange is **overlapped with computation**: every rank
//! posts its boundary-row sends first, sweeps the slabs whose two child
//! rows are both local while those messages are in flight, and only
//! then blocks on the receives and sweeps the boundary slabs. Under the
//! virtual-time model this ordering lets interior compute hide the
//! modelled message latency exactly as a non-blocking MPI exchange
//! would (slabs are independent within a step, so the values — and the
//! bitwise equality with the sequential driver — are unchanged).
//!
//! Two decompositions are provided (ablation A2):
//!
//! * [`Decomposition::Block`] — contiguous balanced blocks; halo traffic
//!   is O(1) rows per rank per step.
//! * [`Decomposition::Cyclic`] — round-robin rows in blocks of `b`; with
//!   `b = 1` nearly *every* row's children live on another rank,
//!   demonstrating why granularity matters on a latency-bound machine.
//!
//! Because ownership is a pure function of `(step, p, rank)`, every rank
//! derives the full communication pattern locally — no coordination
//! messages, exactly like the static decompositions of the era's MPI
//! codes. Each rank keeps its row lists in buffers it reuses every step.
//!
//! Every rank reads one [`LatticePlan`], built before the ranks start:
//! its branch probabilities, discount and every step's spot ladders are
//! the Sequential engine's, computed once per run rather than once per
//! rank and step.
//!
//! The one SPMD body runs under a [`Supervisor`]: it writes coordinated
//! checkpoints when the run has an interval and, after a crash,
//! repartitions the last checkpointed layer over the survivors (the
//! fault model is in DESIGN.md).

use crate::multidim::{LatticePlan, MultiLattice, StepScratch};
use crate::LatticeError;
use mdp_cluster::{
    check_policy, partition, run_spmd_ft, CheckpointStore, FaultPlan, Machine, Supervisor,
    ThreadComm, TimeModel,
};
use mdp_model::{GbmMarket, Product};

/// Tag for halo-exchange messages (FIFO per pair keeps steps aligned).
const T_HALO: u32 = 17;

/// How lattice rows are assigned to ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decomposition {
    /// Contiguous balanced blocks (the sensible default).
    Block,
    /// Block-cyclic with the given block size.
    Cyclic(usize),
}

impl Decomposition {
    /// Rows of a `rows`-row grid owned by `rank` (sorted ascending),
    /// written over `out`.
    fn owned(self, rows: usize, p: usize, rank: usize, out: &mut Vec<usize>) {
        out.clear();
        match self {
            Decomposition::Block => {
                let (lo, hi) = partition::block_range(rows, p, rank);
                out.extend(lo..hi);
            }
            Decomposition::Cyclic(b) => out.extend(partition::cyclic_indices(rows, p, rank, b)),
        }
    }
}

/// Modelled cost of one node update: `2^d` fused multiply-adds through
/// the branch table plus bookkeeping.
fn node_work(d: usize) -> f64 {
    (1u64 << d) as f64 + 4.0
}

/// Per-run outcome of the distributed lattice.
#[derive(Debug, Clone)]
pub struct ClusterLatticeOutcome {
    /// Present value (identical on every surviving rank).
    pub price: f64,
    /// Aggregated virtual-time model of the run, crashed ranks' time
    /// included.
    pub time: TimeModel,
    /// Injected crashes that fired, as `(rank, boundary)` pairs.
    pub crashed: Vec<(usize, usize)>,
}

/// Price a product on `p` ranks under `machine`, decomposing the lattice
/// rows by `decomp`, under the fault schedule `plan`, writing a
/// coordinated checkpoint of every rank's owned rows each
/// `ckpt_interval` time steps (`None`: never).
///
/// The result is bit-identical to [`crate::MultiLattice::price`] — the
/// parallel algorithm only re-partitions the same floating-point
/// operations in the same order within each row. When a rank crashes,
/// survivors agree on the death, repartition the checkpointed layer
/// over the shrunken rank set and replay from the last checkpoint; the
/// price stays bit-identical (only ownership changes). Recovery
/// repartitions with the block arithmetic used at start, so a
/// checkpointed run needs [`Decomposition::Block`], and a plan that
/// crashes ranks needs a checkpoint interval; both are typed errors.
#[allow(clippy::too_many_arguments)]
pub fn price_cluster(
    market: &GbmMarket,
    product: &Product,
    steps: usize,
    p: usize,
    machine: Machine,
    decomp: Decomposition,
    plan: FaultPlan,
    ckpt_interval: Option<usize>,
) -> Result<ClusterLatticeOutcome, LatticeError> {
    let unsupported = |why: String| {
        LatticeError::Model(mdp_model::ModelError::Unsupported {
            engine: "BEG cluster lattice",
            why,
        })
    };
    // Validate once up front so parameter errors surface as LatticeError
    // rather than rank panics.
    product.validate_for(market)?;
    if steps == 0 {
        return Err(LatticeError::ZeroSteps);
    }
    if product.payoff.is_path_dependent() {
        return Err(unsupported("path-dependent payoff".into()));
    }
    if ckpt_interval.is_some() && decomp != Decomposition::Block {
        return Err(unsupported(
            "checkpointed runs need Decomposition::Block".into(),
        ));
    }
    check_policy(&plan, ckpt_interval).map_err(unsupported)?;
    let lattice = MultiLattice::new(steps).plan(market, product.maturity)?;
    let store = CheckpointStore::new();

    let outcome = run_spmd_ft(p, machine, plan, async |comm| {
        run_rank(comm, &lattice, product, decomp, &store, ckpt_interval).await
    })
    .map_err(|e| unsupported(e.to_string()))?;

    let price = outcome.survivors[0].value;
    debug_assert!(
        outcome
            .survivors
            .iter()
            .all(|r| r.value.to_bits() == price.to_bits()),
        "broadcast must make the price identical on every survivor"
    );
    Ok(ClusterLatticeOutcome {
        price,
        time: outcome.time_model(),
        crashed: outcome.crash_sites(),
    })
}

/// The SPMD body: one rank's share of the backward induction. Boundary
/// `k` precedes lattice step `n-1-k`, so `k` counts completed steps and
/// grows monotonically — the ascending index [`Supervisor::boundary`]
/// expects. Rows are owned over the supervisor's active list: rank
/// `active[j]` owns dense share `j` of `active.len()`.
async fn run_rank(
    comm: &mut ThreadComm,
    lattice: &LatticePlan,
    product: &Product,
    decomp: Decomposition,
    store: &CheckpointStore,
    interval: Option<usize>,
) -> f64 {
    let n = lattice.steps();
    let d = lattice.market().dim();
    let rank = comm.rank();
    let mut sup = Supervisor::new(comm, interval, store);
    let mut me = sup.dense_index(rank);

    // Per-rank buffers, allocated once and reused every time step.
    let mut scratch = StepScratch::new();
    let mut window: Vec<f64> = Vec::new();
    let mut send_buf: Vec<f64> = Vec::new();
    let mut spare: Vec<f64> = Vec::new();
    // Row lists: this rank's rows of the next and current grids, the
    // next-grid rows it reads, and a peer's rows, needs and the rows
    // one message carries.
    let mut owned_next: Vec<usize> = Vec::new();
    let mut owned_cur: Vec<usize> = Vec::new();
    let mut needed: Vec<usize> = Vec::new();
    let mut peer_rows: Vec<usize> = Vec::new();
    let mut peer_needed: Vec<usize> = Vec::new();
    let mut shared: Vec<usize> = Vec::new();

    // Terminal layer over the (initially full) active set.
    let term_ctx = lattice.step_ctx(product, n);
    let mut row_len_next = term_ctx.row_cur();
    decomp.owned(n + 1, sup.active().len(), me, &mut owned_next);
    let mut values: Vec<f64> = vec![0.0; owned_next.len() * row_len_next];
    for (slot, &j0) in owned_next.iter().enumerate() {
        term_ctx.eval_terminal_slab(
            j0,
            &mut values[slot * row_len_next..(slot + 1) * row_len_next],
            &mut scratch,
        );
    }
    comm.compute_units(values.len() as f64 * (d as f64 + 2.0));

    let mut k = 0usize; // completed lattice steps == boundary index
    while k < n {
        let snap_lo = owned_next.first().copied().unwrap_or(0);
        if let Some(rec) = sup.boundary(comm, k, || (snap_lo, values.clone())).await {
            // Roll back: rebuild the checkpointed layer from the
            // pooled records and repartition it over the survivors
            // (checkpointed runs are Block, so shards are contiguous).
            let k0 = rec.from_step.expect("boundary 0 always checkpoints");
            let layer_rows = n - k0 + 1;
            let row_len = lattice.step_ctx(product, n - k0).row_cur();
            let mut full = vec![0.0; layer_rows * row_len];
            for (_, r) in &rec.records {
                full[r.lo * row_len..r.lo * row_len + r.data.len()].copy_from_slice(&r.data);
            }
            me = sup.dense_index(rank);
            decomp.owned(layer_rows, sup.active().len(), me, &mut owned_next);
            let lo = owned_next.first().copied().unwrap_or(0);
            values = full[lo * row_len..lo * row_len + owned_next.len() * row_len].to_vec();
            row_len_next = row_len;
            k = k0;
            continue; // re-enter boundary k0: it checkpoints a fresh era
        }

        let step = n - 1 - k;
        let active = sup.active();
        let a = active.len();
        let ctx = lattice.step_ctx(product, step);
        let row_cur = ctx.row_cur();
        let row_next = ctx.row_next;
        debug_assert_eq!(row_next, row_len_next);
        let next_rows_total = step + 2;

        decomp.owned(step + 1, a, me, &mut owned_cur);
        // Rows of the next grid this rank needs: children of owned rows.
        needed_rows(&owned_cur, next_rows_total, &mut needed);

        // --- Post the halo sends -----------------------------------
        // For each candidate peer, the intersection of their needs
        // with my owned rows. Under Block decomposition the
        // candidates are an O(1) arithmetic range; Cyclic scans all
        // peers. Sends are asynchronous: they are in flight while
        // the interior sweep below runs.
        let send_peers = match decomp {
            Decomposition::Block => {
                let lo_n = owned_next.first().copied().unwrap_or(0);
                let hi_n = owned_next.last().map_or(0, |&x| x + 1);
                send_candidates(lo_n, hi_n, step + 1, a)
            }
            Decomposition::Cyclic(_) => 0..a,
        };
        for j in send_peers {
            if j == me {
                continue;
            }
            decomp.owned(step + 1, a, j, &mut peer_rows);
            needed_rows(&peer_rows, next_rows_total, &mut peer_needed);
            intersect(&peer_needed, &owned_next, &mut shared);
            if shared.is_empty() {
                continue;
            }
            send_buf.clear();
            send_buf.reserve(shared.len() * row_next);
            for &row in &shared {
                let slot = slot_of(&owned_next, row);
                send_buf.extend_from_slice(&values[slot * row_next..(slot + 1) * row_next]);
            }
            comm.send(active[j], T_HALO, &send_buf);
        }

        // Stage the locally owned part of the needed window.
        window.clear();
        window.resize(needed.len() * row_next, 0.0);
        for (wslot, &row) in needed.iter().enumerate() {
            if let Ok(slot) = owned_next.binary_search(&row) {
                window[wslot * row_next..(wslot + 1) * row_next]
                    .copy_from_slice(&values[slot * row_next..(slot + 1) * row_next]);
            }
        }

        // --- Interior sweep (overlapped with the halo exchange) ----
        // Rows whose two child rows are both local can be computed
        // before touching the network; charging their work ahead of
        // the receives is what lets the virtual-time model hide
        // message latency behind computation.
        spare.clear();
        spare.resize(owned_cur.len() * row_cur, 0.0);
        let child_is_local = |row: usize| owned_next.binary_search(&row).is_ok();
        let sweep = |j0: usize,
                     slot: usize,
                     window: &[f64],
                     spare: &mut [f64],
                     scratch: &mut StepScratch| {
            // Rows j0 and j0 + 1 are both needed, and `needed` is sorted
            // and unique, so they are adjacent in the window.
            let w0 = slot_of(&needed, j0);
            debug_assert_eq!(needed[w0 + 1], j0 + 1);
            ctx.compute_slab(
                j0,
                &window[w0 * row_next..(w0 + 2) * row_next],
                &mut spare[slot * row_cur..(slot + 1) * row_cur],
                scratch,
            );
        };
        let mut interior_nodes = 0u64;
        for (slot, &j0) in owned_cur.iter().enumerate() {
            if child_is_local(j0) && child_is_local(j0 + 1) {
                sweep(j0, slot, &window, &mut spare, &mut scratch);
                interior_nodes += row_cur as u64;
            }
        }
        comm.compute_units(interior_nodes as f64 * node_work(d));

        // --- Complete the halo exchange ----------------------------
        let recv_peers = match decomp {
            Decomposition::Block => recv_candidates(&needed, step + 2, a),
            Decomposition::Cyclic(_) => 0..a,
        };
        for j in recv_peers {
            if j == me {
                continue;
            }
            decomp.owned(step + 2, a, j, &mut peer_rows);
            intersect(&needed, &peer_rows, &mut shared);
            if shared.is_empty() {
                continue;
            }
            let buf = comm.recv(active[j], T_HALO).await;
            debug_assert_eq!(buf.len(), shared.len() * row_next);
            for (m, &row) in shared.iter().enumerate() {
                let wslot = slot_of(&needed, row);
                window[wslot * row_next..(wslot + 1) * row_next]
                    .copy_from_slice(&buf[m * row_next..(m + 1) * row_next]);
            }
        }

        // --- Boundary sweep (rows that needed remote children) -----
        let mut boundary_nodes = 0u64;
        for (slot, &j0) in owned_cur.iter().enumerate() {
            if !(child_is_local(j0) && child_is_local(j0 + 1)) {
                sweep(j0, slot, &window, &mut spare, &mut scratch);
                boundary_nodes += row_cur as u64;
            }
        }
        comm.compute_units(boundary_nodes as f64 * node_work(d));

        std::mem::swap(&mut values, &mut spare);
        std::mem::swap(&mut owned_next, &mut owned_cur);
        row_len_next = row_cur;
        k += 1;
    }

    // Step 0 has one row, one node; its owner broadcasts the price
    // through the supervisor (the topology-aware engine while every
    // rank lives — only the schedule depends on the machine).
    let active = sup.active();
    let root = active[owner_of_row0(decomp, active.len())];
    let mut price = [if rank == root { values[0] } else { 0.0 }];
    sup.broadcast(comm, root, &mut price).await;
    price[0]
}

/// The rank owning row 0 of a 1-row grid under the decomposition.
fn owner_of_row0(decomp: Decomposition, p: usize) -> usize {
    match decomp {
        Decomposition::Block => partition::block_owner(1, p, 0),
        // Blocks of `b` rows are dealt round-robin from rank 0.
        Decomposition::Cyclic(_) => 0,
    }
}

/// Candidate peer range for the halo *send* scan: under Block
/// decomposition the peers whose current-step rows have children inside
/// my `[lo_n, hi_n)` slice of the next grid are exactly the owners of
/// current rows `[lo_n-1, hi_n-1]` — an O(1) contiguous rank range
/// instead of the O(p) all-peers scan (which made each step O(p²·rows)
/// across ranks at P = 1024).
fn send_candidates(lo_n: usize, hi_n: usize, rows_cur: usize, p: usize) -> std::ops::Range<usize> {
    if lo_n >= hi_n || rows_cur == 0 {
        return 0..0;
    }
    let first = lo_n.saturating_sub(1).min(rows_cur - 1);
    let last = (hi_n - 1).min(rows_cur - 1);
    let d_min = partition::block_owner(rows_cur, p, first);
    let d_max = partition::block_owner(rows_cur, p, last);
    d_min..d_max + 1
}

/// Candidate peer range for the halo *recv* scan: the owners of the
/// next-grid rows `[needed_first, needed_last]` this rank must read.
fn recv_candidates(needed: &[usize], rows_next: usize, p: usize) -> std::ops::Range<usize> {
    match (needed.first(), needed.last()) {
        (Some(&first), Some(&last)) => {
            let d_min = partition::block_owner(rows_next, p, first);
            let d_max = partition::block_owner(rows_next, p, last);
            d_min..d_max + 1
        }
        _ => 0..0,
    }
}

/// Sorted unique child rows `{j, j+1}` of the owned rows, clipped,
/// written over `v`.
fn needed_rows(owned_cur: &[usize], next_total: usize, v: &mut Vec<usize>) {
    v.clear();
    for &j in owned_cur {
        for cand in [j, j + 1] {
            if cand < next_total && v.last() != Some(&cand) {
                // owned_cur is sorted, so candidates arrive non-decreasing
                // except possible duplicate of previous j+1 == current j.
                if v.last().is_none_or(|&l| l < cand) {
                    v.push(cand);
                }
            }
        }
    }
}

/// Intersection of two sorted slices, written over `out`.
fn intersect(a: &[usize], b: &[usize], out: &mut Vec<usize>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Position of `row` in a sorted slice (must exist).
fn slot_of(rows: &[usize], row: usize) -> usize {
    rows.binary_search(&row).expect("row present")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multidim::MultiLattice;
    use mdp_model::Payoff;

    fn market2() -> GbmMarket {
        GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.5).unwrap()
    }

    fn maxcall() -> Product {
        Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0)
    }

    /// A run without faults or checkpoints.
    fn run(
        m: &GbmMarket,
        prod: &Product,
        steps: usize,
        p: usize,
        machine: Machine,
        decomp: Decomposition,
    ) -> ClusterLatticeOutcome {
        price_cluster(m, prod, steps, p, machine, decomp, FaultPlan::new(0), None).unwrap()
    }

    /// A 4-rank Block run on the 2002 cluster under `plan`.
    fn faulted(
        prod: &Product,
        steps: usize,
        plan: FaultPlan,
        interval: usize,
    ) -> Result<ClusterLatticeOutcome, LatticeError> {
        let (m, machine) = (market2(), Machine::cluster2002());
        price_cluster(
            &m,
            prod,
            steps,
            4,
            machine,
            Decomposition::Block,
            plan,
            Some(interval),
        )
    }

    #[test]
    fn matches_sequential_bitwise_block() {
        let m = market2();
        let prod = maxcall();
        let seq = MultiLattice::new(32).price(&m, &prod).unwrap();
        for p in [1usize, 2, 3, 4, 7] {
            let par = run(&m, &prod, 32, p, Machine::ideal(), Decomposition::Block);
            assert_eq!(
                par.price.to_bits(),
                seq.price.to_bits(),
                "p={p}: {} vs {}",
                par.price,
                seq.price
            );
        }
    }

    #[test]
    fn matches_sequential_cyclic() {
        let m = market2();
        let prod = maxcall();
        let seq = MultiLattice::new(24).price(&m, &prod).unwrap();
        for b in [1usize, 2, 4] {
            let par = run(&m, &prod, 24, 3, Machine::ideal(), Decomposition::Cyclic(b));
            assert_eq!(par.price.to_bits(), seq.price.to_bits(), "b={b}");
        }
    }

    #[test]
    fn american_three_assets_matches() {
        let m = GbmMarket::symmetric(3, 100.0, 0.25, 0.02, 0.05, 0.3).unwrap();
        let prod = Product::american(Payoff::MinPut { strike: 105.0 }, 1.0);
        let seq = MultiLattice::new(16).price(&m, &prod).unwrap();
        let par = run(
            &m,
            &prod,
            16,
            4,
            Machine::cluster2002(),
            Decomposition::Block,
        );
        assert_eq!(par.price.to_bits(), seq.price.to_bits());
    }

    #[test]
    fn more_ranks_than_rows_still_works() {
        let m = market2();
        let prod = maxcall();
        let seq = MultiLattice::new(4).price(&m, &prod).unwrap();
        let par = run(&m, &prod, 4, 8, Machine::ideal(), Decomposition::Block);
        assert_eq!(par.price.to_bits(), seq.price.to_bits());
    }

    #[test]
    fn single_rank_time_has_no_comm() {
        let m = market2();
        let out = run(
            &m,
            &maxcall(),
            16,
            1,
            Machine::cluster2002(),
            Decomposition::Block,
        );
        assert_eq!(out.time.total_msgs, 0);
        assert!(out.time.mean_comm == 0.0);
        assert!(out.time.makespan > 0.0);
    }

    #[test]
    fn virtual_speedup_increases_then_saturates() {
        // d=2: N=64 is latency-bound at p=4 on the modelled cluster while
        // N=256 has enough work per step to scale — the strong-scaling
        // shape of experiment F1.
        let m = market2();
        let prod = maxcall();
        let speedup = |n: usize, p: usize| {
            let time = |p| {
                run(
                    &m,
                    &prod,
                    n,
                    p,
                    Machine::cluster2002(),
                    Decomposition::Block,
                )
                .time
                .makespan
            };
            time(1) / time(p)
        };
        let s_small = speedup(64, 4);
        let s_large = speedup(256, 4);
        assert!(s_large > 2.5, "large problem should scale: {s_large}");
        assert!(s_large <= 4.0 + 1e-9, "cannot exceed ideal: {s_large}");
        assert!(
            s_large > s_small,
            "bigger problems scale better: {s_large} vs {s_small}"
        );
    }

    #[test]
    fn cyclic_one_costs_more_communication_than_block() {
        let m = market2();
        let prod = maxcall();
        let block = run(
            &m,
            &prod,
            48,
            4,
            Machine::cluster2002(),
            Decomposition::Block,
        );
        let cyclic = run(
            &m,
            &prod,
            48,
            4,
            Machine::cluster2002(),
            Decomposition::Cyclic(1),
        );
        // Cyclic(1) batches its halo rows into one message per neighbour,
        // so the message count is similar — but nearly every row needs a
        // remote child, so the *bytes* moved explode.
        assert!(
            cyclic.time.total_bytes > block.time.total_bytes * 2,
            "cyclic {} vs block {} bytes",
            cyclic.time.total_bytes,
            block.time.total_bytes
        );
        assert!(cyclic.time.makespan > block.time.makespan);
    }

    #[test]
    fn ideal_machine_still_charges_compute() {
        // On the ideal machine transfers are free; the only "comm" time
        // left is waiting on load imbalance, which must be a sliver of
        // the compute time for a balanced block decomposition.
        let m = market2();
        let out = run(
            &m,
            &maxcall(),
            16,
            2,
            Machine::ideal(),
            Decomposition::Block,
        );
        assert!(out.time.mean_compute > 0.0);
        assert!(
            out.time.mean_comm < 0.1 * out.time.mean_compute,
            "comm {} vs compute {}",
            out.time.mean_comm,
            out.time.mean_compute
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        let m = market2();
        let price = |prod: &Product, steps, decomp, plan, interval| {
            price_cluster(&m, prod, steps, 2, Machine::ideal(), decomp, plan, interval)
        };
        let block = Decomposition::Block;
        assert!(matches!(
            price(&maxcall(), 0, block, FaultPlan::new(0), None),
            Err(LatticeError::ZeroSteps)
        ));
        let asian = Product::european(Payoff::AsianCall { strike: 1.0 }, 1.0);
        assert!(price(&asian, 8, block, FaultPlan::new(0), None).is_err());
        // Recovery repartitions blocks, so a checkpointed cyclic run is a
        // typed error, and so is a crash with nothing to roll back to.
        let cyclic = Decomposition::Cyclic(2);
        let err = price(&maxcall(), 8, cyclic, FaultPlan::new(0), Some(4));
        assert!(matches!(err, Err(LatticeError::Model(_))), "{err:?}");
        let crash = FaultPlan::new(0).with_crash(1, 2);
        let err = price(&maxcall(), 8, block, crash, None);
        assert!(matches!(err, Err(LatticeError::Model(_))), "{err:?}");
    }

    #[test]
    fn ft_without_faults_matches_plain_run_bitwise() {
        let m = market2();
        let prod = maxcall();
        let (machine, block) = (Machine::cluster2002(), Decomposition::Block);
        let plain = run(&m, &prod, 32, 4, machine, block);
        let ft = faulted(&prod, 32, FaultPlan::new(1), 8).unwrap();
        assert_eq!(ft.price.to_bits(), plain.price.to_bits());
        assert!(ft.crashed.is_empty());
        assert!(ft.time.total_ckpt_time > 0.0, "checkpoints were written");
        assert_eq!(plain.time.total_ckpt_time, 0.0);
    }

    #[test]
    fn recovers_bit_identically_from_a_mid_run_crash() {
        let m = market2();
        let prod = maxcall();
        let seq = MultiLattice::new(32).price(&m, &prod).unwrap();
        for crash_at in [1usize, 10, 29] {
            let plan = mdp_cluster::FaultPlan::new(7).with_crash(1, crash_at);
            let ft = faulted(&prod, 32, plan, 4).unwrap();
            assert_eq!(
                ft.price.to_bits(),
                seq.price.to_bits(),
                "crash at boundary {crash_at} must not change the price"
            );
            assert_eq!(ft.crashed, vec![(1, crash_at)]);
        }
    }

    #[test]
    fn recovers_from_two_staggered_crashes() {
        let m = market2();
        let prod = maxcall();
        let seq = MultiLattice::new(24).price(&m, &prod).unwrap();
        let plan = mdp_cluster::FaultPlan::new(3)
            .with_crash(3, 5)
            .with_crash(0, 15);
        let ft = faulted(&prod, 24, plan, 3).unwrap();
        assert_eq!(ft.price.to_bits(), seq.price.to_bits());
        assert_eq!(ft.crashed.len(), 2);
    }

    #[test]
    fn all_ranks_crashed_is_a_clean_error() {
        let m = market2();
        let prod = maxcall();
        let plan = mdp_cluster::FaultPlan::new(0)
            .with_crash(0, 2)
            .with_crash(1, 2);
        let err = price_cluster(
            &m,
            &prod,
            16,
            2,
            Machine::ideal(),
            Decomposition::Block,
            plan,
            Some(4),
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("injected crash"),
            "unexpected error: {err}"
        );
    }

    fn children(owned_cur: &[usize], next_total: usize) -> Vec<usize> {
        let mut v = Vec::new();
        needed_rows(owned_cur, next_total, &mut v);
        v
    }

    fn common(a: &[usize], b: &[usize]) -> Vec<usize> {
        let mut out = Vec::new();
        intersect(a, b, &mut out);
        out
    }

    #[test]
    fn helper_functions() {
        assert_eq!(children(&[0, 1, 2], 5), vec![0, 1, 2, 3]);
        assert_eq!(children(&[4], 5), vec![4]);
        assert_eq!(children(&[0, 2], 5), vec![0, 1, 2, 3]);
        assert_eq!(common(&[1, 3, 5], &[2, 3, 5, 7]), vec![3, 5]);
        assert_eq!(owner_of_row0(Decomposition::Block, 4), 0);
        assert_eq!(owner_of_row0(Decomposition::Cyclic(2), 4), 0);
    }

    #[test]
    fn halo_candidate_ranges_cover_every_real_peer() {
        // The arithmetic candidate ranges must contain every peer the
        // exhaustive O(p) scan would have talked to (missing one would
        // deadlock a halo exchange).
        for p in [1usize, 2, 3, 5, 8, 13] {
            for step in 0..16usize {
                let rows_cur = step + 1;
                let rows_next = step + 2;
                for rank in 0..p {
                    let (lo_n, hi_n) = partition::block_range(rows_next, p, rank);
                    let owned_next: Vec<usize> = (lo_n..hi_n).collect();
                    let sc = send_candidates(lo_n, hi_n, rows_cur, p);
                    let (cl, ch) = partition::block_range(rows_cur, p, rank);
                    let owned_cur: Vec<usize> = (cl..ch).collect();
                    let needed = children(&owned_cur, rows_next);
                    let rc = recv_candidates(&needed, rows_next, p);
                    for r in 0..p {
                        if r == rank {
                            continue;
                        }
                        let (tl, th) = partition::block_range(rows_cur, p, r);
                        let their_cur: Vec<usize> = (tl..th).collect();
                        let their_needed = children(&their_cur, rows_next);
                        if !common(&their_needed, &owned_next).is_empty() {
                            assert!(sc.contains(&r), "send p={p} step={step} {rank}->{r}");
                        }
                        let (nl, nh) = partition::block_range(rows_next, p, r);
                        let theirs_next: Vec<usize> = (nl..nh).collect();
                        if !common(&needed, &theirs_next).is_empty() {
                            assert!(rc.contains(&r), "recv p={p} step={step} {rank}<-{r}");
                        }
                    }
                }
            }
        }
    }
}
