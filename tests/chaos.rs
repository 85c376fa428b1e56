//! Driver-level chaos suite: fault plans over the distributed pricing
//! drivers.
//!
//! The contract under test: whatever faults a plan injects, each
//! driver either returns a price **bit-identical** to the fault-free
//! run (recovery succeeded) or a clean typed error (all ranks died) —
//! never a hang, never a silently wrong number. The properties draw
//! random seeded plans; because every run follows one deterministic
//! schedule, the `*_recovers_from_every_crash_site` tests also
//! enumerate every (rank, boundary) crash of a small run per driver.

use mdp_core::cluster::CheckpointMode;
use mdp_core::lattice::cluster::{price_cluster, Decomposition};
use mdp_core::mc::cluster_driver::{price_lsmc_cluster, price_mc_cluster, BATCHES};
use mdp_core::pde::cluster::ClusterFd1d;
use mdp_core::prelude::*;
use proptest::prelude::*;

fn market2() -> GbmMarket {
    GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.5).unwrap()
}

fn maxcall() -> Product {
    Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn lattice_ft_is_bit_identical_or_cleanly_dead(
        seed in 0u64..1_000_000,
        crash_rank in 0usize..4,
        crash_step in 0usize..16,
        interval in 1usize..8,
    ) {
        let m = market2();
        let prod = maxcall();
        let n = 16usize;
        let reference = price_cluster(
            &m, &prod, n, 4, Machine::cluster2002(), Decomposition::Block, FaultPlan::new(0), None,
        ).unwrap();
        let plan = FaultPlan::new(seed).with_crash(crash_rank, crash_step);
        let ft = price_cluster(
            &m, &prod, n, 4, Machine::cluster2002(), Decomposition::Block, plan, Some(interval),
        ).unwrap();
        prop_assert_eq!(ft.price.to_bits(), reference.price.to_bits());
        prop_assert_eq!(ft.crashed.clone(), vec![(crash_rank, crash_step)]);
    }

    #[test]
    fn mc_ft_is_bit_identical_or_cleanly_dead(
        seed in 0u64..1_000_000,
        crash_rank in 0usize..4,
        crash_step in 0usize..8,
        interval in 1usize..4,
    ) {
        let m = market2();
        let prod = Product::european(
            Payoff::BasketCall { weights: Product::equal_weights(2), strike: 100.0 },
            1.0,
        );
        let cfg = McConfig { paths: 2_000, block_size: 125, ..Default::default() };
        let reference = price_mc_cluster(
            &m, &prod, cfg, 4, Machine::cluster2002(), FaultPlan::new(0), None,
        ).unwrap();
        let plan = FaultPlan::new(seed).with_crash(crash_rank, crash_step);
        let ft = price_mc_cluster(
            &m, &prod, cfg, 4, Machine::cluster2002(), plan, Some(interval),
        ).unwrap();
        prop_assert_eq!(ft.result.price.to_bits(), reference.result.price.to_bits());
        prop_assert_eq!(ft.result.paths, reference.result.paths);
        prop_assert_eq!(ft.crashed.clone(), vec![(crash_rank, crash_step)]);
    }

    #[test]
    fn pde_ft_is_bit_identical_or_cleanly_dead(
        seed in 0u64..1_000_000,
        crash_rank in 0usize..4,
        crash_step in 0usize..200,
        interval in 1usize..64,
    ) {
        let m = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
        let prod = Product::european(
            Payoff::BasketCall { weights: vec![1.0], strike: 100.0 },
            1.0,
        );
        let cfg = ClusterFd1d { space_points: 51, time_steps: 200, ..Default::default() };
        let reference = cfg
            .price(&m, &prod, 4, Machine::cluster2002(), FaultPlan::new(0), None)
            .unwrap();
        let plan = FaultPlan::new(seed).with_crash(crash_rank, crash_step);
        let ft = cfg.price(&m, &prod, 4, Machine::cluster2002(), plan, Some(interval)).unwrap();
        prop_assert_eq!(ft.price.to_bits(), reference.price.to_bits());
        prop_assert_eq!(ft.crashed.clone(), vec![(crash_rank, crash_step)]);
    }

    #[test]
    fn total_cluster_loss_is_a_clean_error_everywhere(
        seed in 0u64..1_000_000,
        step in 0usize..8,
    ) {
        let m2 = market2();
        let prod = maxcall();
        let mut plan = FaultPlan::new(seed);
        for r in 0..3 {
            plan = plan.with_crash(r, step + r % 2);
        }
        let lat = price_cluster(
            &m2, &prod, 16, 3, Machine::cluster2002(), Decomposition::Block, plan.clone(), Some(4),
        );
        let err = lat.expect_err("all-crash lattice run must fail");
        prop_assert!(
            err.to_string().contains("injected crash"),
            "unexpected lattice error: {}", err
        );

        let m1 = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
        let call1 = Product::european(
            Payoff::BasketCall { weights: vec![1.0], strike: 100.0 },
            1.0,
        );
        let cfg = ClusterFd1d { space_points: 51, time_steps: 200, ..Default::default() };
        let pde = cfg.price(&m1, &call1, 3, Machine::cluster2002(), plan.clone(), Some(16));
        let err = pde.expect_err("all-crash pde run must fail");
        prop_assert!(
            err.to_string().contains("injected crash"),
            "unexpected pde error: {}", err
        );

        let mc_cfg = McConfig { paths: 1_000, block_size: 125, ..Default::default() };
        let mc = price_mc_cluster(
            &m2,
            &Product::european(
                Payoff::BasketCall { weights: Product::equal_weights(2), strike: 100.0 },
                1.0,
            ),
            // 16 batches: every scheduled crash boundary (≤ 8) fires.
            mc_cfg, 3, Machine::cluster2002(), plan, Some(2),
        );
        let err = mc.expect_err("all-crash mc run must fail");
        prop_assert!(
            err.to_string().contains("injected crash"),
            "unexpected mc error: {}", err
        );
    }

    #[test]
    fn lattice_ft_delivers_through_message_chaos(
        seed in 0u64..1_000_000,
        drop_pct in 0u32..30,
    ) {
        // No crashes — just unreliable transport. The reliable-delivery
        // layer must hide every drop from the algorithm.
        let m = market2();
        let prod = maxcall();
        let reference = price_cluster(
            &m, &prod, 16, 4, Machine::cluster2002(), Decomposition::Block, FaultPlan::new(0), None,
        ).unwrap();
        let plan = FaultPlan::new(seed)
            .with_drops(drop_pct as f64 / 100.0)
            .with_delays(0.1, 1e-4)
            .with_max_retries(30);
        let ft = price_cluster(
            &m, &prod, 16, 4, Machine::cluster2002(), Decomposition::Block, plan, Some(4),
        ).unwrap();
        prop_assert_eq!(ft.price.to_bits(), reference.price.to_bits());
        if drop_pct > 0 {
            prop_assert!(ft.time.total_retransmits >= ft.time.total_dropped.min(1));
        }
    }
}

/// Ranks of the exhaustive crash-site runs.
const P: usize = 4;

/// Crash every rank of a `P`-rank run, one at a time, at each of its
/// `boundaries` step boundaries. `run(plan)` returns the price bits,
/// the crashes that fired and the time model; each crashed run must
/// price like `reference`, report exactly its crash, and replay to an
/// equal time model.
fn check_every_crash_site(
    boundaries: usize,
    reference: u64,
    run: impl Fn(FaultPlan) -> (u64, Vec<(usize, usize)>, TimeModel),
) {
    for rank in 0..P {
        for step in 0..boundaries {
            let plan = FaultPlan::new(0).with_crash(rank, step);
            let (bits, crashed, time) = run(plan.clone());
            assert_eq!(bits, reference, "price after crash ({rank}, {step})");
            assert_eq!(crashed, vec![(rank, step)]);
            assert_eq!(run(plan).2, time, "replay of crash ({rank}, {step})");
        }
    }
}

#[test]
fn lattice_recovers_from_every_crash_site() {
    let (m, prod, n) = (market2(), maxcall(), 16);
    let run = |plan: FaultPlan, interval: Option<usize>| {
        let machine = Machine::cluster2002();
        price_cluster(
            &m,
            &prod,
            n,
            P,
            machine,
            Decomposition::Block,
            plan,
            interval,
        )
        .unwrap()
    };
    let reference = run(FaultPlan::new(0), None).price.to_bits();
    // Interval 3 does not divide the 16 steps.
    check_every_crash_site(n, reference, |plan| {
        let out = run(plan, Some(3));
        (out.price.to_bits(), out.crashed, out.time)
    });
}

#[test]
fn mc_recovers_from_every_crash_site() {
    let m = market2();
    let prod = Product::european(
        Payoff::BasketCall {
            weights: Product::equal_weights(2),
            strike: 100.0,
        },
        1.0,
    );
    let cfg = McConfig {
        paths: 2_000,
        block_size: 125,
        ..Default::default()
    };
    let run = |plan: FaultPlan, interval: Option<usize>| {
        price_mc_cluster(&m, &prod, cfg, P, Machine::cluster2002(), plan, interval).unwrap()
    };
    let reference = run(FaultPlan::new(0), None).result.price.to_bits();
    // Interval 3 does not divide the 16 batches.
    check_every_crash_site(BATCHES, reference, |plan| {
        let out = run(plan, Some(3));
        (out.result.price.to_bits(), out.crashed, out.time)
    });
}

#[test]
fn fd_recovers_from_every_crash_site() {
    let m = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
    let prod = Product::european(
        Payoff::BasketCall {
            weights: vec![1.0],
            strike: 100.0,
        },
        1.0,
    );
    let cfg = ClusterFd1d {
        space_points: 51,
        time_steps: 200,
        ..Default::default()
    };
    let run = |plan: FaultPlan, interval: Option<usize>| {
        cfg.price(&m, &prod, P, Machine::cluster2002(), plan, interval)
            .unwrap()
    };
    let reference = run(FaultPlan::new(0), None).price.to_bits();
    // Interval 7 does not divide the 200 steps.
    check_every_crash_site(cfg.time_steps, reference, |plan| {
        let out = run(plan, Some(7));
        (out.price.to_bits(), out.crashed, out.time)
    });
}

#[test]
fn lsmc_recovers_from_every_crash_site() {
    let m = market2();
    let prod = Product::american(Payoff::MinPut { strike: 100.0 }, 1.0);
    let cfg = LsmcConfig {
        paths: 1_000,
        steps: 8,
        block_size: 125,
        ..Default::default()
    };
    let run = |plan: FaultPlan, interval: Option<usize>| {
        let (machine, sync) = (Machine::cluster2002(), CheckpointMode::Sync);
        price_lsmc_cluster(&m, &prod, cfg, P, machine, plan, interval, sync).unwrap()
    };
    let reference = run(FaultPlan::new(0), None).result.price.to_bits();
    // One boundary per exercise date before the last; interval 3
    // divides neither the 7 boundaries nor the 8 dates.
    check_every_crash_site(cfg.steps - 1, reference, |plan| {
        let out = run(plan, Some(3));
        (out.result.price.to_bits(), out.crashed, out.time)
    });
}
