//! Golden regression tests: exact pinned values for every deterministic
//! engine and every seeded stochastic engine.
//!
//! These protect the numerics against silent drift: any refactor that
//! changes a result — even in the last bits — trips a test here and
//! forces a conscious decision. Tolerances are ~1e-10 relative (not
//! bitwise) so the pins survive compiler/fastmath-level reassociation
//! while still catching real changes.
//!
//! If a pin fires after an *intentional* numerical change, re-derive the
//! value with the printed actual and update the constant in the same
//! commit that changed the algorithm.

use mdp_core::prelude::*;

fn assert_pinned(actual: f64, pinned: f64, what: &str) {
    let tol = 1e-10 * (1.0 + pinned.abs());
    assert!(
        (actual - pinned).abs() < tol,
        "{what}: pinned {pinned:.15}, got {actual:.15} (Δ={:.3e})",
        actual - pinned
    );
}

fn market(d: usize) -> GbmMarket {
    GbmMarket::symmetric(d, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap()
}

#[test]
fn golden_analytic_prices() {
    assert_pinned(
        analytic::black_scholes_call(100.0, 100.0, 0.05, 0.0, 0.2, 1.0),
        10.450583572185565,
        "bs call",
    );
    assert_pinned(
        analytic::margrabe_exchange(100.0, 0.0, 0.2, 100.0, 0.0, 0.2, 0.3, 1.0),
        9.418715327225627,
        "margrabe",
    );
    assert_pinned(
        analytic::geometric_basket_call(&market(3), &Product::equal_weights(3), 100.0, 1.0),
        7.844049928947019,
        "geometric basket d=3",
    );
    assert_pinned(
        analytic::max_call_two_assets(100.0, 0.0, 0.2, 100.0, 0.0, 0.2, 0.3, 0.05, 100.0, 1.0),
        16.442127182351527,
        "stulz max call",
    );
    assert_pinned(
        analytic::up_and_out_call(100.0, 100.0, 130.0, 0.05, 0.0, 0.25, 1.0),
        2.223538991350479,
        "up-and-out call",
    );
    assert_pinned(
        analytic::lookback_call_floating(100.0, 0.05, 0.0, 0.3, 1.0),
        23.788436501680817,
        "lookback call",
    );
}

#[test]
fn golden_lattice_prices() {
    let m1 = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
    let call = Product::european(
        Payoff::BasketCall {
            weights: vec![1.0],
            strike: 100.0,
        },
        1.0,
    );
    assert_pinned(
        BinomialLattice::crr(500).price(&m1, &call).unwrap().price,
        10.446585136446233,
        "crr 500",
    );
    assert_pinned(
        TrinomialLattice::new(500).price(&m1, &call).unwrap().price,
        10.448408342678407,
        "trinomial 500",
    );
    let m2 = market(2);
    let maxcall = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
    assert_pinned(
        MultiLattice::new(64).price(&m2, &maxcall).unwrap().price,
        16.386_200_181_593_92,
        "beg d=2 n=64",
    );
    let am = Product::american(Payoff::MinPut { strike: 110.0 }, 1.0);
    assert_pinned(
        MultiLattice::new(64).price(&m2, &am).unwrap().price,
        16.923_270_132_477_38,
        "beg american d=2 n=64",
    );
}

#[test]
fn golden_pde_prices() {
    let m1 = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
    let call = Product::european(
        Payoff::BasketCall {
            weights: vec![1.0],
            strike: 100.0,
        },
        1.0,
    );
    assert_pinned(
        Fd1d::default().price(&m1, &call).unwrap().price,
        10.45058321360188,
        "cn fd1d",
    );
    let m2 = market(2);
    let maxcall = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
    assert_pinned(
        Adi2d::default().price(&m2, &maxcall).unwrap().price,
        16.430660610383924,
        "adi 2d",
    );
    // The default 3-D ADI grid — the values Pricer::auto now returns for
    // 3-asset terminal payoffs without a closed form.
    let m3 = market(3);
    let basket3 = Product::european(
        Payoff::BasketCall {
            weights: Product::equal_weights(3),
            strike: 100.0,
        },
        1.0,
    );
    assert_pinned(
        Adi3d::default().price(&m3, &basket3).unwrap().price,
        8.461304469722755,
        "adi 3d european basket",
    );
    let am3 = Product::american(Payoff::MinPut { strike: 110.0 }, 1.0);
    assert_pinned(
        Adi3d::default().price(&m3, &am3).unwrap().price,
        19.928_066_480_480_28,
        "adi 3d american min-put",
    );
}

#[test]
fn golden_seeded_monte_carlo() {
    let m = market(3);
    let p = Product::european(
        Payoff::BasketCall {
            weights: Product::equal_weights(3),
            strike: 100.0,
        },
        1.0,
    );
    let r = McEngine::new(McConfig {
        paths: 50_000,
        seed: 0x5EED,
        block_size: 4096,
        ..Default::default()
    })
    .price(&m, &p)
    .unwrap();
    assert_pinned(r.price, 8.400126342641492, "mc basket d=3 50k seed=0x5EED");

    let lsmc = mdp_core::mc::lsmc::price_lsmc(
        &GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap(),
        &Product::american(
            Payoff::BasketPut {
                weights: vec![1.0],
                strike: 110.0,
            },
            1.0,
        ),
        LsmcConfig {
            paths: 10_000,
            steps: 20,
            seed: 0x1005E,
            ..Default::default()
        },
    )
    .unwrap();
    assert_pinned(lsmc.price, 11.902561562531922, "lsmc 10k seed=0x1005E");
}

#[test]
fn golden_qmc_price() {
    let m = market(5);
    let p = Product::european(Payoff::GeometricCall { strike: 100.0 }, 1.0);
    let r = mdp_core::mc::qmc::price_qmc(
        &m,
        &p,
        QmcConfig {
            points: 4096,
            replicates: 2,
            seed: 0x50B0,
            ..Default::default()
        },
    )
    .unwrap();
    assert_pinned(r.price, 7.226348962289356, "qmc geo d=5");
}

#[test]
fn golden_virtual_times() {
    // The virtual-time model itself is part of the reproduction claim:
    // pin the makespan of a reference lattice run.
    let m = market(2);
    let p = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
    let out = mdp_core::lattice::cluster::price_cluster(
        &m,
        &p,
        64,
        4,
        Machine::cluster2002(),
        mdp_core::lattice::cluster::Decomposition::Block,
        FaultPlan::new(0),
        None,
    )
    .unwrap();
    // Re-pinned when the cluster driver started overlapping halo
    // exchange with interior compute: the modelled makespan dropped
    // (latency hidden behind interior slabs); prices are unchanged.
    assert_pinned(
        out.time.makespan,
        0.00612704,
        "lattice makespan d=2 n=64 p=4",
    );
    assert_eq!(out.time.total_msgs, 192, "message count");

    // Same pin for the distributed explicit FD sweep. It exchanges a
    // deep halo, one message of h values each way every h steps, and
    // splits each exchange's compute charge around the receives, so
    // latency hides behind the ghost-free points.
    let m1 = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
    let call = Product::european(
        Payoff::BasketCall {
            weights: vec![1.0],
            strike: 100.0,
        },
        1.0,
    );
    let fd = mdp_core::pde::ClusterFd1d {
        space_points: 101,
        time_steps: 2000,
        ..Default::default()
    }
    .price(
        &m1,
        &call,
        4,
        Machine::cluster2002(),
        FaultPlan::new(0),
        None,
    )
    .unwrap();
    assert_pinned(
        fd.time.makespan,
        0.01628658,
        "explicit FD makespan m=101 n=2000 p=4",
    );
    // h = round(√(2α/c)) = round(√(2·50 µs / 80 ns)) = 35, capped at
    // ⌊101/4⌋ = 25 so every neighbour owns a full halo; each of the
    // ⌈2000/h⌉ exchanges sends one message each way between the 3
    // neighbour pairs, and the price broadcast adds p − 1.
    let h = ((2.0f64 * 50e-6 / 80e-9).sqrt().round() as usize).min(101 / 4);
    assert_eq!(h, 25);
    assert_eq!(
        fd.time.total_msgs,
        2000u64.div_ceil(h as u64) * 2 * 3 + 3,
        "FD message count"
    );
}

#[test]
fn golden_fault_recovery() {
    // The fault-tolerance layer is deterministic by construction: a
    // fixed fault schedule must reproduce the exact recovery makespan
    // and message accounting, not just the price. These pins catch any
    // drift in the recovery protocol (agreement traffic, checkpoint
    // charges, retransmit accounting).
    let m = market(2);
    let p = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);

    // Rank 1 dies at boundary 32 of a 64-step lattice, interval 16:
    // survivors roll back to the boundary-32 checkpoint and replay.
    let plan = FaultPlan::new(0).with_crash(1, 32);
    let ft = mdp_core::lattice::cluster::price_cluster(
        &m,
        &p,
        64,
        4,
        Machine::cluster2002(),
        mdp_core::lattice::cluster::Decomposition::Block,
        plan,
        Some(16),
    )
    .unwrap();
    assert_pinned(ft.price, 16.386_200_181_593_92, "recovered lattice price");
    assert_pinned(
        ft.time.makespan,
        0.00699464,
        "recovery makespan crash(1,32) interval=16",
    );
    assert_pinned(ft.time.total_ckpt_time, 0.00163032, "checkpoint time");
    assert_eq!(ft.time.total_msgs, 173, "message count incl. agreement");
    assert_eq!(ft.crashed, vec![(1, 32)]);

    // Same run under a 20% drop plan (no crashes): the reliable
    // delivery layer's accounting must replay exactly.
    let plan = FaultPlan::new(42).with_drops(0.2).with_max_retries(30);
    let ft = mdp_core::lattice::cluster::price_cluster(
        &m,
        &p,
        64,
        4,
        Machine::cluster2002(),
        mdp_core::lattice::cluster::Decomposition::Block,
        plan,
        Some(16),
    )
    .unwrap();
    assert_pinned(ft.price, 16.386_200_181_593_92, "price under drops");
    // Re-derived when the cluster drivers folded into one body per
    // engine: with no rank dead, the final price broadcast is the
    // engine's binomial tree instead of the root's linear fan-out, which
    // changes the per-destination sequence numbers the drop coins hash.
    assert_pinned(ft.time.makespan, 0.01805624, "makespan under 20% drops");
    assert_eq!(ft.time.total_dropped, 59, "dropped messages");
    assert_eq!(ft.time.total_retransmits, 59, "retransmissions");
    assert_eq!(ft.time.total_acks, 192, "acks");
}
