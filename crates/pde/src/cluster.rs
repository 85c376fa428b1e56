//! Distributed-memory explicit finite differences over `mdp_cluster`.
//!
//! The explicit θ=0 scheme is the classic distributed PDE kernel: the
//! grid is split into contiguous blocks and each step updates every
//! point from its two neighbours. Exchanging one boundary value with
//! each side per step makes the run latency-bound on any machine whose
//! message latency dwarfs a point update, so ranks keep a **deep
//! halo** instead: `h` ghost points per side, refreshed by one message
//! of `h` values to each neighbour every `h` steps. Between exchanges
//! a rank recomputes the shrinking ghost triangle itself — sub-step
//! `j` of a block updates `[lo − (h − j), hi + (h − j)) ∩ [0, m)` —
//! the distributed form of the trapezoid the sequential engine sweeps.
//! Ghost updates are real work and are charged like owned ones.
//!
//! The depth is derived from the machine, never set: with `α` the
//! latency between neighbouring ranks and `c` the modelled cost of one
//! point update, a block of depth `h` costs `2α/h + (h − 1)·c` per step
//! (two messages, `h(h − 1)` redundant points), minimised at
//! `h = √(2α / c)`. See [`ClusterFd1d::halo_depth`]. A machine whose
//! messages are free gets `h = 1`: one value each way per step.
//!
//! Each block posts its halo sends first, updates the first level's
//! ghost-free points while the values are in flight, and only then
//! completes the receives and the rest of the block — so the modelled
//! message latency is hidden behind interior compute, the same overlap
//! `mdp_lattice::cluster` uses.
//!
//! The arithmetic per point matches the sequential engine exactly and
//! every owned value is valid at every level of a block, so prices are
//! bit-identical for every rank count, checkpoints land on any step and
//! recovery starts a fresh block at the checkpoint it rolls back to.

use crate::grid::{check_width, LogGrid};
use crate::stencil::explicit_point;
use crate::PdeError;
use mdp_cluster::{
    check_policy, partition, run_spmd_ft, CheckpointStore, FaultPlan, Machine, Supervisor,
    ThreadComm, TimeModel,
};
use mdp_model::{ExerciseStyle, GbmMarket, Product};

/// Tag for halo exchanges (FIFO per pair keeps blocks aligned).
const T_EDGE: u32 = 23;

/// Modelled work units of one point update, ghost points included.
const POINT_UNITS: f64 = 8.0;

/// Configuration of the distributed explicit engine.
#[derive(Debug, Clone, Copy)]
pub struct ClusterFd1d {
    /// Spatial points.
    pub space_points: usize,
    /// Time steps (must satisfy the explicit stability bound).
    pub time_steps: usize,
    /// Domain half-width in standard deviations.
    pub width: f64,
}

impl Default for ClusterFd1d {
    fn default() -> Self {
        ClusterFd1d {
            space_points: 201,
            time_steps: 8000,
            width: 5.0,
        }
    }
}

/// Outcome of a distributed PDE run.
#[derive(Debug, Clone)]
pub struct ClusterFdOutcome {
    /// Present value at the spot.
    pub price: f64,
    /// Virtual-time model of the run, crashed ranks' time included.
    pub time: TimeModel,
    /// Injected crashes that fired, as `(rank, boundary)` pairs.
    pub crashed: Vec<(usize, usize)>,
}

/// Precomputed scheme coefficients and grid data of one run.
struct FdSetup {
    m: usize,
    n: usize,
    dt: f64,
    r: f64,
    a: f64,
    b: f64,
    c: f64,
    intrinsic: Vec<f64>,
    center: usize,
}

/// Halo depth over the `active` ranks of an `m`-point grid; see
/// [`ClusterFd1d::halo_depth`].
fn halo_depth(machine: &Machine, active: &[usize], m: usize) -> usize {
    let far = active.windows(2).any(|w| machine.is_far(w[0], w[1]));
    let alpha = if far {
        machine.far_latency
    } else {
        machine.latency
    };
    let optimum = (2.0 * alpha / machine.work_time(POINT_UNITS))
        .sqrt()
        .round();
    (optimum as usize).min(m / active.len()).max(1)
}

/// One rank's share of the grid under the current active roster.
struct Shard {
    /// First owned global point.
    lo: usize,
    /// One past the last owned global point.
    hi: usize,
    /// Ghost points kept on each side.
    depth: usize,
    /// Owner of the points left of `lo`, if any.
    left: Option<usize>,
    /// Owner of the points from `hi` on, if any.
    right: Option<usize>,
    /// The current and the next level on `[lo − depth, hi + depth)`,
    /// global point `g` at index `g + depth − lo`.
    cur: Vec<f64>,
    next: Vec<f64>,
}

impl Shard {
    /// This rank's share of the full grid level `level`, partitioned
    /// over the supervisor's active ranks.
    fn new(sup: &Supervisor, rank: usize, machine: &Machine, level: &[f64]) -> Self {
        let m = level.len();
        let active = sup.active();
        let an = active.len();
        let (lo, hi) = partition::block_range(m, an, sup.dense_index(rank));
        let depth = halo_depth(machine, active, m);
        let owner = |g: usize| active[partition::block_owner(m, an, g)];
        let mut cur = vec![0.0; hi - lo + 2 * depth];
        cur[depth..depth + hi - lo].copy_from_slice(&level[lo..hi]);
        Shard {
            lo,
            hi,
            depth,
            left: (hi > lo && lo > 0).then(|| owner(lo - 1)),
            right: (hi > lo && hi < m).then(|| owner(hi)),
            next: vec![0.0; cur.len()],
            cur,
        }
    }

    /// The owned values of the current level.
    fn owned(&self) -> &[f64] {
        &self.cur[self.depth..self.depth + self.hi - self.lo]
    }

    /// Post a block's halo: the `h` owned values at each edge to the
    /// neighbour on that side.
    fn send_halo(&self, comm: &mut ThreadComm, h: usize) {
        let own = self.owned();
        if let Some(l) = self.left {
            comm.send(l, T_EDGE, &own[..h]);
        }
        if let Some(r) = self.right {
            comm.send(r, T_EDGE, &own[own.len() - h..]);
        }
    }

    /// Receive a block's halo into the `h` ghost points on each side.
    async fn recv_halo(&mut self, comm: &mut ThreadComm, h: usize) {
        let (d, e) = (self.depth, self.depth + self.hi - self.lo);
        if let Some(l) = self.left {
            self.cur[d - h..d].copy_from_slice(&comm.recv(l, T_EDGE).await);
        }
        if let Some(r) = self.right {
            self.cur[e..e + h].copy_from_slice(&comm.recv(r, T_EDGE).await);
        }
    }

    /// Update the global points `pts` of the next level (discount
    /// factor `df` on the Dirichlet walls) and return how many.
    fn update(&mut self, s: &FdSetup, df: f64, pts: impl Iterator<Item = usize>) -> usize {
        let m = s.m;
        let mut count = 0;
        for g in pts {
            let x = g + self.depth - self.lo;
            self.next[x] = if g == 0 {
                df * s.intrinsic[0]
            } else if g == m - 1 {
                df * s.intrinsic[m - 1]
            } else {
                // Same per-point kernel as the sequential engine and
                // the trapezoid base case.
                explicit_point(
                    s.dt,
                    s.a,
                    s.b,
                    s.c,
                    self.cur[x - 1],
                    self.cur[x],
                    self.cur[x + 1],
                )
            };
            count += 1;
        }
        count
    }
}

impl ClusterFd1d {
    /// Halo depth `h` of a fault-free run on `p` ranks of `machine`:
    /// each rank exchanges `h` values with each neighbour once every
    /// `h` steps (a run's last block is cut to the steps left).
    ///
    /// `h = clamp(round(√(2α / c)), 1, ⌊space_points / p⌋)`, the
    /// minimiser of the modelled per-step cost `2α/h + (h − 1)·c`:
    /// `c = machine.work_time(8.0)` is the charge of one point update
    /// and `α` is the far latency if any two neighbouring ranks sit on
    /// different nodes, else the near latency. The cap keeps every
    /// neighbour's block at least `h` points deep. A run that loses
    /// ranks recomputes `h` over the survivors.
    ///
    /// # Panics
    /// Panics when `p == 0`.
    pub fn halo_depth(&self, machine: &Machine, p: usize) -> usize {
        let ranks: Vec<usize> = (0..p).collect();
        halo_depth(machine, &ranks, self.space_points)
    }

    fn setup(&self, market: &GbmMarket, product: &Product) -> Result<FdSetup, PdeError> {
        product.validate_for(market)?;
        if market.dim() != 1 {
            return Err(PdeError::Model(mdp_model::ModelError::DimensionMismatch {
                product: 1,
                market: market.dim(),
            }));
        }
        if product.exercise != ExerciseStyle::European {
            return Err(PdeError::Model(mdp_model::ModelError::Unsupported {
                engine: "distributed explicit FD",
                why: "European exercise only".into(),
            }));
        }
        if product.payoff.is_path_dependent() {
            return Err(PdeError::Model(mdp_model::ModelError::Unsupported {
                engine: "distributed explicit FD",
                why: "path-dependent payoff".into(),
            }));
        }
        let m = self.space_points;
        let n = self.time_steps;
        if m < 3 || n < 1 {
            return Err(PdeError::GridTooSmall { space: m, time: n });
        }
        check_width(self.width)?;
        let sigma = market.vols()[0];
        let t = product.maturity;
        let grid = LogGrid::new(market.spots()[0], sigma, t, self.width, m);
        let dt = t / n as f64;
        let ratio = sigma * sigma * dt / (grid.dx * grid.dx);
        if ratio > 0.5 + 1e-12 {
            return Err(PdeError::Unstable { ratio });
        }
        let r = market.rate();
        let mu = market.log_drift(0);
        let diff = 0.5 * sigma * sigma / (grid.dx * grid.dx);
        let conv = 0.5 * mu / grid.dx;
        let spots = grid.spots();
        Ok(FdSetup {
            m,
            n,
            dt,
            r,
            a: diff - conv,
            b: -2.0 * diff - r,
            c: diff + conv,
            intrinsic: spots.iter().map(|&s| product.payoff.eval(&[s])).collect(),
            center: grid.center,
        })
    }

    /// Price a European single-asset product on `p` ranks under the
    /// fault schedule `plan`, checkpointing every rank's owned grid
    /// points each `ckpt_interval` time steps (`None`: never).
    ///
    /// Survivors of a crash repartition the checkpointed grid layer
    /// over the shrunken rank set, recompute the halo depth and replay
    /// from a fresh block; the per-point update is owner-independent,
    /// so the price is bit-identical to the sequential explicit engine
    /// with or without faults. A plan that crashes ranks needs a
    /// checkpoint interval (a typed error otherwise).
    pub fn price(
        &self,
        market: &GbmMarket,
        product: &Product,
        p: usize,
        machine: Machine,
        plan: FaultPlan,
        ckpt_interval: Option<usize>,
    ) -> Result<ClusterFdOutcome, PdeError> {
        let unsupported = |why: String| {
            PdeError::Model(mdp_model::ModelError::Unsupported {
                engine: "distributed explicit FD",
                why,
            })
        };
        let s = self.setup(market, product)?;
        check_policy(&plan, ckpt_interval).map_err(unsupported)?;
        let store = CheckpointStore::new();

        let outcome = run_spmd_ft(p, machine, plan, async |comm| {
            let rank = comm.rank();
            let mut sup = Supervisor::new(comm, ckpt_interval, &store);
            let m = s.m;
            let mut sh = Shard::new(&sup, rank, &machine, &s.intrinsic);
            comm.compute_units((sh.hi - sh.lo) as f64 * 2.0);

            let mut k = 0usize; // completed time steps == boundary index
            let mut block_end = 0usize; // step at which the halo runs out
            while k < s.n {
                // Every step is a boundary, so crashes fire and
                // checkpoints land mid-block: the owned values are
                // valid at every level.
                if let Some(rec) = sup.boundary(comm, k, || (sh.lo, sh.owned().to_vec())).await {
                    // Roll back: rebuild the full grid from the pooled
                    // records, repartition over the survivors and
                    // start a fresh block at the checkpoint.
                    let k0 = rec.from_step.expect("boundary 0 always checkpoints");
                    let mut full = vec![0.0; m];
                    for (_, r) in &rec.records {
                        full[r.lo..r.lo + r.data.len()].copy_from_slice(&r.data);
                    }
                    sh = Shard::new(&sup, rank, &machine, &full);
                    k = k0;
                    block_end = k0;
                    continue; // re-enter boundary k0: fresh-era checkpoint
                }

                let step = k + 1;
                let df = (-s.r * (step as f64 * s.dt)).exp();
                let (lo, hi) = (sh.lo, sh.hi);
                // The owned points and `reach` ghost points on each
                // side, clipped to the grid: sub-step j of an h-deep
                // block reaches h − j.
                let ghost_span = |reach: usize| lo.saturating_sub(reach)..(hi + reach).min(m);
                if k == block_end {
                    // Open a block: post the halo, then update the
                    // first level's ghost-free points while it is in
                    // flight — the virtual-time model charges them
                    // before the receives, hiding the latency — and
                    // finish the level once the ghosts arrive.
                    let h = sh.depth.min(s.n - k);
                    block_end = k + h;
                    sh.send_halo(comm, h);
                    let reads_ghost = |g: usize| g != 0 && g != m - 1 && (g == lo || g + 1 == hi);
                    let inner = sh.update(&s, df, (lo..hi).filter(|&g| !reads_ghost(g)));
                    comm.compute_units(inner as f64 * POINT_UNITS);
                    sh.recv_halo(comm, h).await;
                    let edge = sh.update(
                        &s,
                        df,
                        ghost_span(h - 1).filter(|&g| g < lo || g >= hi || reads_ghost(g)),
                    );
                    comm.compute_units(edge as f64 * POINT_UNITS);
                } else {
                    let pts = sh.update(&s, df, ghost_span(block_end - step));
                    comm.compute_units(pts as f64 * POINT_UNITS);
                }
                std::mem::swap(&mut sh.cur, &mut sh.next);
                k += 1;
            }

            // Owner of the centre point broadcasts the price through
            // the supervisor (the topology-aware engine while every
            // rank lives).
            let active = sup.active();
            let owner = active[partition::block_owner(m, active.len(), s.center)];
            let mut price = [0.0];
            if rank == owner {
                price[0] = sh.owned()[s.center - sh.lo];
            }
            sup.broadcast(comm, owner, &mut price).await;
            price[0]
        })
        .map_err(|e| unsupported(e.to_string()))?;

        Ok(ClusterFdOutcome {
            price: outcome.survivors[0].value,
            time: outcome.time_model(),
            crashed: outcome.crash_sites(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd1d::{Fd1d, Scheme};
    use mdp_model::Payoff;

    fn market() -> GbmMarket {
        GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap()
    }

    fn call() -> Product {
        Product::european(
            Payoff::BasketCall {
                weights: vec![1.0],
                strike: 100.0,
            },
            1.0,
        )
    }

    #[test]
    fn matches_sequential_explicit_bitwise() {
        let m = market();
        let p = call();
        let seq = Fd1d {
            space_points: 101,
            time_steps: 2000,
            scheme: Scheme::Explicit,
            ..Default::default()
        }
        .price(&m, &p)
        .unwrap()
        .price;
        for ranks in [1usize, 2, 3, 5, 8] {
            let par = ClusterFd1d {
                space_points: 101,
                time_steps: 2000,
                ..Default::default()
            }
            .price(&m, &p, ranks, Machine::ideal(), FaultPlan::new(0), None)
            .unwrap()
            .price;
            assert_eq!(par.to_bits(), seq.to_bits(), "ranks={ranks}");
        }
    }

    #[test]
    fn deep_halo_lets_the_cluster_beat_one_rank() {
        // The era's papers report the 1-D explicit sweep as latency
        // bound: a one-value exchange per step on a 50 µs machine
        // costs more than the few points each rank updates, so p = 8
        // lost to p = 1 (0.31×). A 35-deep halo pays that latency once
        // every 35 steps for 34 redundant points per side, and the
        // cluster wins; the 2 µs SMP, on a 7-deep halo, still wins more.
        let m = market();
        let p = call();
        // Stability: σ²Δt/Δx² = 0.04·(1/4000)/(2/400)² = 0.4 ≤ ½.
        let cfg = ClusterFd1d {
            space_points: 401,
            time_steps: 4000,
            ..Default::default()
        };
        let run = |ranks: usize, machine: Machine| {
            cfg.price(&m, &p, ranks, machine, FaultPlan::new(0), None)
                .unwrap()
                .time
        };
        let t8 = run(8, Machine::cluster2002());
        let s8_cluster = run(1, Machine::cluster2002()).makespan / t8.makespan;
        assert!(
            s8_cluster > 1.0,
            "a deep halo must let the high-latency cluster win: {s8_cluster}"
        );
        let s8_smp = run(1, Machine::smp()).makespan / run(8, Machine::smp()).makespan;
        assert!(
            s8_smp > s8_cluster,
            "lower latency must help: smp {s8_smp} vs cluster {s8_cluster}"
        );
        assert!(s8_smp <= 8.0 + 1e-9);

        // h = round(√(2·50 µs / 80 ns)) = 35 ≤ ⌊401/8⌋: 35-fold fewer
        // halo messages than the one-value exchange (which the free
        // messages of `ideal` keep), up to the last, shorter block.
        let h = cfg.halo_depth(&Machine::cluster2002(), 8);
        assert_eq!(h, 35);
        assert_eq!(cfg.halo_depth(&Machine::ideal(), 8), 1);
        let bcast = 7; // binomial price broadcast to the other 7 ranks
        let per_exchange = 2 * 7; // one message each way per neighbour pair
        let halo_ideal = run(8, Machine::ideal()).total_msgs - bcast;
        let halo_cluster = t8.total_msgs - bcast;
        assert_eq!(halo_ideal, 4000 * per_exchange);
        assert_eq!(halo_cluster, 4000u64.div_ceil(h as u64) * per_exchange);
    }

    #[test]
    fn stability_guard_enforced() {
        let m = market();
        let p = call();
        let cfg = ClusterFd1d {
            space_points: 2001,
            time_steps: 100,
            ..Default::default()
        };
        assert!(matches!(
            cfg.price(&m, &p, 2, Machine::ideal(), FaultPlan::new(0), None),
            Err(PdeError::Unstable { .. })
        ));
    }

    #[test]
    fn rejects_american_and_multiasset() {
        let m = market();
        let am = Product::american(
            Payoff::BasketPut {
                weights: vec![1.0],
                strike: 100.0,
            },
            1.0,
        );
        let cfg = ClusterFd1d::default();
        assert!(cfg
            .price(&m, &am, 2, Machine::ideal(), FaultPlan::new(0), None)
            .is_err());
        let m2 = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
        let rainbow = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
        assert!(cfg
            .price(&m2, &rainbow, 2, Machine::ideal(), FaultPlan::new(0), None)
            .is_err());
        for width in [0.0, -1.0, f64::NAN] {
            let cfg = ClusterFd1d {
                width,
                ..Default::default()
            };
            assert!(matches!(
                cfg.price(&m, &call(), 2, Machine::ideal(), FaultPlan::new(0), None),
                Err(PdeError::Model(mdp_model::ModelError::InvalidParameter {
                    what: "width",
                    ..
                }))
            ));
        }
    }

    #[test]
    fn ft_without_faults_matches_plain_run_bitwise() {
        let m = market();
        let p = call();
        let cfg = ClusterFd1d {
            space_points: 101,
            time_steps: 2000,
            ..Default::default()
        };
        let machine = Machine::cluster2002();
        let run = |interval| {
            let plan = FaultPlan::new(2);
            cfg.price(&m, &p, 4, machine, plan, interval).unwrap()
        };
        let plain = run(None);
        let ft = run(Some(500));
        assert_eq!(ft.price.to_bits(), plain.price.to_bits());
        assert!(ft.crashed.is_empty());
        assert!(ft.time.total_ckpt_time > 0.0);
        assert_eq!(plain.time.total_ckpt_time, 0.0);
    }

    #[test]
    fn ft_recovers_bit_identically_from_a_mid_run_crash() {
        let m = market();
        let p = call();
        let cfg = ClusterFd1d {
            space_points: 101,
            time_steps: 2000,
            ..Default::default()
        };
        let seq = Fd1d {
            space_points: 101,
            time_steps: 2000,
            scheme: Scheme::Explicit,
            ..Default::default()
        }
        .price(&m, &p)
        .unwrap()
        .price;
        for crash_at in [150usize, 1999] {
            let plan = mdp_cluster::FaultPlan::new(4).with_crash(1, crash_at);
            let ft = cfg
                .price(&m, &p, 4, Machine::cluster2002(), plan, Some(250))
                .unwrap();
            assert_eq!(
                ft.price.to_bits(),
                seq.to_bits(),
                "crash at boundary {crash_at}"
            );
            assert_eq!(ft.crashed, vec![(1, crash_at)]);
        }
    }

    #[test]
    fn more_ranks_than_points_is_fine() {
        let m = market();
        let p = call();
        let cfg = ClusterFd1d {
            space_points: 5,
            time_steps: 50,
            ..Default::default()
        };
        let seq = cfg
            .price(&m, &p, 1, Machine::ideal(), FaultPlan::new(0), None)
            .unwrap()
            .price;
        let par = cfg
            .price(&m, &p, 9, Machine::ideal(), FaultPlan::new(0), None)
            .unwrap()
            .price;
        assert_eq!(seq.to_bits(), par.to_bits());
    }
}
