//! Property sweep of the PDE engines' equality-by-construction
//! discipline, mirroring the lattice `driver_equivalence` suite:
//!
//! * the ADI blocked kernel must match the per-line scalar oracle
//!   (`AdiPlan::execute_per_line`) bit for bit — in two and three
//!   dimensions, and on the 2-D rayon tiles — across grid size, payoff,
//!   correlation sign and exercise style;
//! * the virtual-cluster explicit sweep must match the sequential
//!   explicit engine bit for bit for every rank count and machine, and
//!   exchange its deep halo exactly as often as the depth formula says;
//! * a knock-out barrier pushed to the far edge of the domain must
//!   reproduce the vanilla Crank–Nicolson price to machine precision.

use mdp_cluster::{partition, run_spmd, CollectiveEngine, FaultPlan, Machine};
use mdp_model::{GbmMarket, Payoff, Product};
use mdp_pde::{Adi2d, Adi3d, AdiScratch, ClusterFd1d, Fd1d, Fd1dBarrier, LogGrid, Scheme};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random dimension, grid, market, payoff, correlation sign and
    /// exercise style: the blocked kernel (sequential, and rayon in
    /// 2-D) agrees with the per-line oracle to the last bit.
    #[test]
    fn adi_kernels_and_drivers_bitwise_equal(
        dsel in 0usize..2,
        msel in 0usize..4,
        steps in 1usize..7,
        vol in 0.15f64..0.35,
        rho in -0.4f64..0.4,
        rate in 0.0f64..0.08,
        strike in 80.0f64..120.0,
        payoff_kind in 0usize..4,
        american in 0usize..2,
    ) {
        // Include sizes with a ragged last panel tile (71 → 69
        // interior = 2 full 32-lane tiles + 5 lanes; 35 → 32 + 1).
        let d = 2 + dsel;
        let m = if d == 2 { [7usize, 21, 41, 71] } else { [5usize, 9, 21, 35] }[msel];
        let market = match GbmMarket::symmetric(d, 100.0, vol, 0.01, rate, rho) {
            Ok(mk) => mk,
            Err(_) => return Ok(()),
        };
        let payoff = match payoff_kind {
            0 => Payoff::MaxCall { strike },
            1 => Payoff::MinPut { strike },
            2 => Payoff::GeometricCall { strike },
            _ => Payoff::BasketCall {
                weights: Product::equal_weights(d),
                strike,
            },
        };
        let product = if american == 1 {
            Product::american(payoff, 1.0)
        } else {
            Product::european(payoff, 1.0)
        };
        let adi2d = |parallel: bool| Adi2d {
            space_points: m,
            time_steps: steps,
            parallel,
            ..Default::default()
        };
        let plans = if d == 2 {
            vec![adi2d(false).plan(&market, 1.0), adi2d(true).plan(&market, 1.0)]
        } else {
            vec![Adi3d {
                space_points: m,
                time_steps: steps,
                ..Default::default()
            }
            .plan(&market, 1.0)]
        };
        let oracle = plans[0].as_ref().unwrap().execute_per_line(&product).unwrap();
        for (i, plan) in plans.iter().enumerate() {
            let r = plan
                .as_ref()
                .unwrap()
                .execute(&product, &mut AdiScratch::default())
                .unwrap();
            prop_assert_eq!(
                oracle.price.to_bits(),
                r.price.to_bits(),
                "d={} m={} parallel={}",
                d,
                m,
                i == 1
            );
            prop_assert_eq!(oracle.nodes_processed, r.nodes_processed);
        }
    }

    /// The distributed explicit sweep re-partitions the same updates,
    /// so every rank count (more ranks than points included) on every
    /// machine shape reproduces the sequential engine bitwise. Whenever
    /// every rank owns a point, its deep halo costs one message each
    /// way per neighbour pair every `h` steps plus the price broadcast,
    /// with `h` re-derived here from the machine.
    #[test]
    fn cluster_explicit_matches_sequential_bitwise(
        m in 5usize..60,
        slack in 0usize..120,
        ranks in 1usize..13,
        machine_sel in 0usize..4,
        vol in 0.15f64..0.35,
        rate in 0.0f64..0.08,
        strike in 80.0f64..120.0,
        put in 0usize..2,
    ) {
        let machine = [
            Machine::ideal(),
            Machine::smp(),
            Machine::cluster2002(),
            Machine::smp_cluster2002(8),
        ][machine_sel];
        let market = GbmMarket::single(100.0, vol, 0.01, rate).unwrap();
        let weights = vec![1.0];
        let payoff = if put == 1 {
            Payoff::BasketPut { weights, strike }
        } else {
            Payoff::BasketCall { weights, strike }
        };
        let product = Product::european(payoff, 1.0);
        // The fewest stable steps (σ²Δt/Δx² ≈ 0.45), plus a random
        // slack so the last exchange is cut to any length.
        let grid = LogGrid::new(100.0, vol, 1.0, 5.0, m);
        let n = (2.2 * vol * vol / (grid.dx * grid.dx)).ceil() as usize + 1 + slack;
        let seq = Fd1d {
            space_points: m,
            time_steps: n,
            scheme: Scheme::Explicit,
            ..Default::default()
        }
        .price(&market, &product)
        .unwrap();
        let par = ClusterFd1d {
            space_points: m,
            time_steps: n,
            ..Default::default()
        }
        .price(&market, &product, ranks, machine, FaultPlan::new(0), None)
        .unwrap();
        prop_assert_eq!(
            seq.price.to_bits(),
            par.price.to_bits(),
            "{} ranks={} m={} n={}",
            machine.name,
            ranks,
            m,
            n
        );

        if ranks <= m {
            // h = clamp(round(√(2α / c)), 1, ⌊m / P⌋): α is the far
            // latency once neighbouring ranks straddle a node.
            let far = (1..ranks).any(|r| machine.is_far(r - 1, r));
            let alpha = if far { machine.far_latency } else { machine.latency };
            let optimum = (2.0 * alpha / machine.work_time(8.0)).sqrt().round() as usize;
            let h = optimum.min(m / ranks).max(1);
            let halo = n.div_ceil(h) as u64 * 2 * (ranks as u64 - 1);
            let owner = partition::block_owner(m, ranks, grid.center);
            let bcast: u64 = run_spmd(ranks, machine, move |comm| {
                let mut price = [0.0];
                CollectiveEngine::for_machine(&machine, ranks).broadcast(comm, owner, &mut price);
            })
            .unwrap()
            .iter()
            .map(|r| r.stats.msgs_sent)
            .sum();
            prop_assert_eq!(
                par.time.total_msgs,
                halo + bcast,
                "{} ranks={} m={} n={} h={}",
                machine.name,
                ranks,
                m,
                n,
                h
            );
        }
    }

    /// A knock-out barrier placed exactly on the far grid boundary —
    /// 8 standard deviations out — turns the barrier engine's domain
    /// into the vanilla engine's domain; the only difference left is
    /// the absorbing condition on a boundary whose influence on the
    /// centre decays like the 8σ Gaussian tail, i.e. below double
    /// precision. The two independently written engines must agree to
    /// machine precision. Every grid either engine runs has at least 41
    /// points (81 points bring a 41-point half grid): across the 8σ on
    /// a coarser grid the discrete tail is no longer that thin.
    #[test]
    fn far_barrier_recovers_vanilla_to_machine_precision(
        msel in 0usize..3,
        n in 40usize..120,
        vol in 0.15f64..0.35,
        rate in 0.0f64..0.08,
        strike in 80.0f64..120.0,
        up in 0usize..2,
    ) {
        let m = [81usize, 101, 161][msel];
        let width = 8.0;
        let market = GbmMarket::single(100.0, vol, 0.0, rate).unwrap();
        // Same half-width formula as LogGrid, so the barrier lands on
        // the vanilla grid's outermost node.
        let half = (width * vol * 1.0f64.sqrt()).max(0.5);
        let (payoff, vanilla_payoff) = if up == 1 {
            (
                Payoff::UpOutCall {
                    strike,
                    barrier: 100.0 * half.exp(),
                },
                Payoff::BasketCall {
                    weights: vec![1.0],
                    strike,
                },
            )
        } else {
            (
                Payoff::DownOutPut {
                    strike,
                    barrier: 100.0 * (-half).exp(),
                },
                Payoff::BasketPut {
                    weights: vec![1.0],
                    strike,
                },
            )
        };
        let barrier = Fd1dBarrier {
            space_points: m,
            time_steps: n,
            width,
        }
        .price(&market, &Product::european(payoff, 1.0))
        .unwrap();
        let vanilla = Fd1d {
            space_points: m,
            time_steps: n,
            width,
            ..Default::default()
        }
        .price(&market, &Product::european(vanilla_payoff, 1.0))
        .unwrap();
        let tol = 1e-9 * (1.0 + vanilla.price.abs());
        prop_assert!(
            (barrier.price - vanilla.price).abs() < tol,
            "barrier {} vs vanilla {} (m={}, n={}, vol={}, up={})",
            barrier.price,
            vanilla.price,
            m,
            n,
            vol,
            up
        );
    }
}
