//! Distributed-memory explicit finite differences over `mdp_cluster`.
//!
//! The explicit θ=0 scheme is the classic distributed PDE kernel: the
//! grid is split into contiguous blocks, each step updates every point
//! from its two neighbours, so ranks exchange **one boundary value with
//! each side per step** — the tightest halo pattern there is. Unlike
//! the lattice (whose domain shrinks every step), the PDE grid is
//! static, so the communication volume is constant per step and the
//! scaling shape is the cleanest Amdahl curve in the evaluation.
//!
//! Each step posts its halo sends first, updates the ghost-free
//! interior while the edge values are in flight, and only then
//! completes the receives and updates the two edge points — so the
//! modelled message latency is hidden behind interior compute, the same
//! overlap the lattice cluster driver uses.
//!
//! The arithmetic per point matches the sequential engine exactly, so
//! prices are bit-identical for every rank count.

use crate::grid::{check_width, LogGrid};
use crate::stencil::explicit_point;
use crate::PdeError;
use mdp_cluster::{
    check_policy, partition, run_spmd_ft, CheckpointStore, Communicator, FaultPlan, Machine,
    Supervisor, TimeModel,
};
use mdp_model::{ExerciseStyle, GbmMarket, Product};

/// Tag for boundary exchanges (FIFO per pair keeps steps aligned).
const T_EDGE: u32 = 23;

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

impl ClusterFd1d {
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
    /// over the shrunken rank set and replay; the per-point update is
    /// owner-independent, so the price is bit-identical to the
    /// sequential explicit engine with or without faults. A plan that
    /// crashes ranks needs a checkpoint interval (a typed error
    /// otherwise).
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

        let outcome = run_spmd_ft(p, machine, plan, |comm| {
            let rank = comm.rank();
            let mut sup = Supervisor::new(comm, ckpt_interval, &store);
            let m = s.m;
            let (mut lo, mut hi) =
                partition::block_range(m, sup.active().len(), sup.dense_index(rank));
            let mut len = hi - lo;
            let mut v = vec![0.0; len + 2];
            v[1..len + 1].copy_from_slice(&s.intrinsic[lo..hi]);
            comm.compute_units(len as f64 * 2.0);
            let mut new_v = vec![0.0; len + 2];

            let mut k = 0usize; // completed time steps == boundary index
            while k < s.n {
                if let Some(rec) = sup.boundary(comm, k, || (lo, v[1..len + 1].to_vec())) {
                    // Roll back: rebuild the full grid from the pooled
                    // records and repartition over the survivors.
                    let k0 = rec.from_step.expect("boundary 0 always checkpoints");
                    let mut full = vec![0.0; m];
                    for (_, r) in &rec.records {
                        full[r.lo..r.lo + r.data.len()].copy_from_slice(&r.data);
                    }
                    let (l, h) =
                        partition::block_range(m, sup.active().len(), sup.dense_index(rank));
                    lo = l;
                    hi = h;
                    len = hi - lo;
                    v = vec![0.0; len + 2];
                    v[1..len + 1].copy_from_slice(&full[lo..hi]);
                    new_v = vec![0.0; len + 2];
                    k = k0;
                    continue; // re-enter boundary k0: fresh-era checkpoint
                }

                let active = sup.active();
                let an = active.len();
                let step = k + 1;
                // Ghost owners under the current active partition.
                let left_owner = if len > 0 && lo > 0 {
                    Some(active[partition::block_owner(m, an, lo - 1)])
                } else {
                    None
                };
                let right_owner = if len > 0 && hi < m {
                    Some(active[partition::block_owner(m, an, hi)])
                } else {
                    None
                };
                // A local point needs a ghost value only if it sits at
                // a block edge with a neighbouring rank *and* is not a
                // global Dirichlet boundary row (those read no
                // neighbours at all).
                let needs_ghost = |kk: usize| {
                    let gidx = lo + kk;
                    gidx != 0
                        && gidx != m - 1
                        && ((kk == 0 && left_owner.is_some())
                            || (kk + 1 == len && right_owner.is_some()))
                };
                let tau = step as f64 * s.dt;
                let df = (-s.r * tau).exp();
                let update = |kk: usize, v: &[f64], new_v: &mut [f64]| {
                    let gidx = lo + kk;
                    if gidx == 0 {
                        new_v[kk + 1] = df * s.intrinsic[0];
                    } else if gidx == m - 1 {
                        new_v[kk + 1] = df * s.intrinsic[m - 1];
                    } else {
                        // Same per-point kernel as the sequential
                        // engine and the trapezoid base case.
                        new_v[kk + 1] =
                            explicit_point(s.dt, s.a, s.b, s.c, v[kk], v[kk + 1], v[kk + 2]);
                    }
                };
                // Post the halo sends, then update the interior while
                // the edge values are in flight: the virtual-time model
                // charges the interior compute before the receives, so
                // it hides the message latency.
                if let Some(l) = left_owner {
                    comm.send(l, T_EDGE, &[v[1]]);
                }
                if let Some(r) = right_owner {
                    comm.send(r, T_EDGE, &[v[len]]);
                }
                let mut interior_pts = 0u64;
                for kk in 0..len {
                    if !needs_ghost(kk) {
                        update(kk, &v, &mut new_v);
                        interior_pts += 1;
                    }
                }
                comm.compute_units(interior_pts as f64 * 8.0);
                if let Some(l) = left_owner {
                    v[0] = comm.recv(l, T_EDGE)[0];
                }
                if let Some(r) = right_owner {
                    v[len + 1] = comm.recv(r, T_EDGE)[0];
                }
                let mut edge_pts = 0u64;
                for kk in 0..len {
                    if needs_ghost(kk) {
                        update(kk, &v, &mut new_v);
                        edge_pts += 1;
                    }
                }
                comm.compute_units(edge_pts as f64 * 8.0);
                std::mem::swap(&mut v, &mut new_v);
                k += 1;
            }

            // Owner of the centre point broadcasts the price through
            // the supervisor (the topology-aware engine while every
            // rank lives).
            let active = sup.active();
            let owner = active[partition::block_owner(m, active.len(), s.center)];
            let mut price = [0.0];
            if rank == owner {
                price[0] = v[s.center - lo + 1];
            }
            sup.broadcast(comm, owner, &mut price);
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
    fn explicit_sweep_is_latency_bound_on_the_cluster() {
        // An instructive *negative* result the era's papers report: the
        // 1-D explicit sweep exchanges per step but computes almost
        // nothing per rank, so on a 50 µs-latency machine parallelism
        // *hurts* — and the CFL bound (Δt ∝ Δx²) forbids buying scaling
        // with a bigger grid. A low-latency SMP restores some speedup.
        let m = market();
        let p = call();
        // Stability: σ²Δt/Δx² = 0.04·(1/4000)/(2/400)² = 0.4 ≤ ½.
        let cfg = ClusterFd1d {
            space_points: 401,
            time_steps: 4000,
            ..Default::default()
        };
        let t1 = cfg
            .price(&m, &p, 1, Machine::cluster2002(), FaultPlan::new(0), None)
            .unwrap()
            .time
            .makespan;
        let t8 = cfg
            .price(&m, &p, 8, Machine::cluster2002(), FaultPlan::new(0), None)
            .unwrap()
            .time
            .makespan;
        let s8_cluster = t1 / t8;
        assert!(
            s8_cluster < 1.0,
            "the high-latency cluster should *lose* on this kernel: {s8_cluster}"
        );
        let t1_smp = cfg
            .price(&m, &p, 1, Machine::smp(), FaultPlan::new(0), None)
            .unwrap()
            .time
            .makespan;
        let t8_smp = cfg
            .price(&m, &p, 8, Machine::smp(), FaultPlan::new(0), None)
            .unwrap()
            .time
            .makespan;
        let s8_smp = t1_smp / t8_smp;
        assert!(
            s8_smp > s8_cluster,
            "lower latency must help: smp {s8_smp} vs cluster {s8_cluster}"
        );
        assert!(s8_smp <= 8.0 + 1e-9);
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
