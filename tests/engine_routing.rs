//! Golden routing suite.
//!
//! Two guarantees pinned here:
//!
//! 1. [`Pricer::auto`] implements exactly the documented routing table
//!    over `(dimension, exercise style, payoff class)` — asserted cell
//!    by cell via the chosen engine name.
//! 2. Every `Method` × `Backend` combination either prices or returns a
//!    typed [`PriceError`] — never panics — including the
//!    checkpoint/restart cluster variants with and without an injected
//!    fault schedule.

use mdp_core::prelude::*;

fn euro_call_1d(strike: f64) -> Product {
    Product::european(
        Payoff::BasketCall {
            weights: vec![1.0],
            strike,
        },
        1.0,
    )
}

fn auto_engine(market: &GbmMarket, product: &Product) -> &'static str {
    Pricer::auto(market, product).method().name()
}

#[test]
fn auto_routes_every_documented_cell() {
    let m1 = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
    let m2 = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
    let m3 = GbmMarket::symmetric(3, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
    let m8 = GbmMarket::symmetric(8, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();

    // Closed form available → analytic, regardless of dimension.
    assert_eq!(auto_engine(&m1, &euro_call_1d(100.0)), "analytic");
    assert_eq!(
        auto_engine(
            &m3,
            &Product::european(Payoff::GeometricCall { strike: 100.0 }, 1.0)
        ),
        "analytic"
    );

    // Path-dependent payoffs go to Monte Carlo in any dimension.
    assert_eq!(
        auto_engine(
            &m1,
            &Product::european(Payoff::AsianCall { strike: 100.0 }, 1.0)
        ),
        "monte-carlo"
    );
    assert_eq!(
        auto_engine(
            &m3,
            &Product::european(Payoff::AsianPut { strike: 100.0 }, 1.0)
        ),
        "monte-carlo"
    );

    // 1-D without a closed form → Crank–Nicolson finite differences.
    assert_eq!(
        auto_engine(
            &m1,
            &Product::american(
                Payoff::BasketPut {
                    weights: vec![1.0],
                    strike: 100.0,
                },
                1.0,
            )
        ),
        "fd-1d"
    );

    // 2 dimensions, terminal payoff without a closed form → BEG
    // lattice (both exercises). Note the 2-asset European max-call is
    // NOT such a cell: Stulz's formula catches it first.
    assert_eq!(
        auto_engine(
            &m2,
            &Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0)
        ),
        "analytic"
    );
    assert_eq!(
        auto_engine(
            &m2,
            &Product::european(
                Payoff::BasketCall {
                    weights: Product::equal_weights(2),
                    strike: 100.0,
                },
                1.0,
            )
        ),
        "beg-lattice"
    );
    // 3 dimensions, terminal payoff → the 3-D Douglas ADI grid (both
    // exercises).
    assert_eq!(
        auto_engine(
            &m3,
            &Product::american(Payoff::MinPut { strike: 100.0 }, 1.0)
        ),
        "adi-3d"
    );
    assert_eq!(
        auto_engine(
            &m3,
            &Product::european(
                Payoff::BasketCall {
                    weights: Product::equal_weights(3),
                    strike: 100.0,
                },
                1.0,
            )
        ),
        "adi-3d"
    );

    // High dimension: European → Monte Carlo, American → LSMC.
    assert_eq!(
        auto_engine(
            &m8,
            &Product::european(
                Payoff::BasketCall {
                    weights: Product::equal_weights(8),
                    strike: 100.0,
                },
                1.0,
            )
        ),
        "monte-carlo"
    );
    assert_eq!(
        auto_engine(
            &m8,
            &Product::american(Payoff::MaxPut { strike: 100.0 }, 1.0)
        ),
        "lsmc"
    );
}

#[test]
fn auto_choice_actually_prices_each_cell() {
    let cases = [
        (
            GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap(),
            Product::american(
                Payoff::BasketPut {
                    weights: vec![1.0],
                    strike: 100.0,
                },
                1.0,
            ),
        ),
        (
            GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap(),
            Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0),
        ),
        (
            GbmMarket::symmetric(3, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap(),
            Product::american(Payoff::MinPut { strike: 100.0 }, 1.0),
        ),
        (
            GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap(),
            Product::european(
                Payoff::BasketCall {
                    weights: vec![1.0],
                    strike: 100.0,
                },
                1.0,
            ),
        ),
    ];
    for (market, product) in &cases {
        let r = Pricer::auto(market, product)
            .price(market, product)
            .unwrap();
        assert!(r.price.is_finite() && r.price > 0.0);
        assert!(r.wall_seconds >= r.plan_seconds);
    }
}

/// Small-effort configurations of every method variant.
fn all_methods() -> Vec<Method> {
    vec![
        Method::Analytic,
        Method::Binomial {
            steps: 64,
            kind: BinomialKind::CoxRossRubinstein,
        },
        Method::Trinomial { steps: 64 },
        Method::MultiLattice { steps: 24 },
        Method::MonteCarlo(McConfig {
            paths: 4_096,
            ..Default::default()
        }),
        Method::Qmc(QmcConfig {
            points: 1_024,
            steps: 1,
            replicates: 2,
            ..Default::default()
        }),
        Method::Lsmc(LsmcConfig {
            paths: 2_048,
            steps: 8,
            ..Default::default()
        }),
        Method::Fd1d(Fd1d {
            space_points: 101,
            time_steps: 100,
            ..Default::default()
        }),
        Method::Adi2d(Adi2d {
            space_points: 41,
            time_steps: 40,
            ..Default::default()
        }),
        Method::Adi3d(Adi3d {
            space_points: 15,
            time_steps: 8,
            ..Default::default()
        }),
        Method::BarrierFd(Fd1dBarrier {
            space_points: 101,
            time_steps: 100,
            ..Default::default()
        }),
    ]
}

fn all_backends() -> Vec<Backend> {
    vec![
        Backend::Sequential,
        Backend::Rayon,
        Backend::cluster(2, Machine::ideal()),
        Backend::Cluster {
            ranks: 2,
            machine: Machine::ideal(),
            checkpoint_interval: Some(8),
        },
    ]
}

/// Every cell of the Method × Backend × product-shape matrix resolves
/// to `Ok` or a typed error. A panic anywhere fails the test outright.
#[test]
fn method_backend_matrix_never_panics() {
    let m1 = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
    let m2 = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
    let m3 = GbmMarket::symmetric(3, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
    let products = [
        (m1.clone(), euro_call_1d(100.0)),
        (
            m1.clone(),
            Product::american(
                Payoff::BasketPut {
                    weights: vec![1.0],
                    strike: 100.0,
                },
                1.0,
            ),
        ),
        (
            m2,
            Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0),
        ),
        (m3, Product::american(Payoff::MinPut { strike: 100.0 }, 1.0)),
        (
            m1,
            Product::european(
                Payoff::UpOutCall {
                    strike: 100.0,
                    barrier: 140.0,
                },
                1.0,
            ),
        ),
    ];

    let mut priced = 0usize;
    let mut rejected = 0usize;
    for method in all_methods() {
        for backend in all_backends() {
            for (market, product) in &products {
                let pricer = Pricer::new(method.clone()).backend(backend);
                match pricer.price(market, product) {
                    Ok(r) => {
                        assert!(
                            r.price.is_finite(),
                            "{} on {:?} returned a non-finite price",
                            method.name(),
                            backend
                        );
                        priced += 1;
                    }
                    Err(e) => {
                        // Typed rejection with a non-empty message.
                        assert!(!e.to_string().is_empty());
                        rejected += 1;
                    }
                }
            }
        }
    }
    // The exact split pins every cell's routing: a pair that starts or
    // stops pricing moves one of the two counts.
    assert_eq!(priced + rejected, 11 * 4 * 5);
    assert_eq!(priced, 51, "priced cells");
    assert_eq!(rejected, 169, "rejected cells");
}

/// The checkpoint/restart drivers under an injected fault schedule also
/// never panic, and recovery reproduces the fault-free bits.
#[test]
fn faulted_checkpointed_runs_match_fault_free_bitwise() {
    let market = GbmMarket::symmetric(2, 100.0, 0.25, 0.0, 0.05, 0.3).unwrap();
    let product = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
    let ckpt = Backend::Cluster {
        ranks: 4,
        machine: Machine::cluster2002(),
        checkpoint_interval: Some(8),
    };

    for method in [
        Method::MultiLattice { steps: 48 },
        Method::MonteCarlo(McConfig {
            paths: 16_384,
            ..Default::default()
        }),
    ] {
        let clean = Pricer::new(method.clone())
            .backend(ckpt)
            .price(&market, &product)
            .unwrap();
        let faulted = Pricer::new(method.clone())
            .backend(ckpt)
            .fault_plan(FaultPlan::new(7).with_crash(1, 9).with_crash(2, 17))
            .price(&market, &product)
            .unwrap();
        assert_eq!(
            clean.price.to_bits(),
            faulted.price.to_bits(),
            "{} recovery drifted",
            method.name()
        );
        // And the checkpointed fault-free run matches the plain driver.
        let plain = Pricer::new(method)
            .backend(Backend::cluster(4, Machine::cluster2002()))
            .price(&market, &product)
            .unwrap();
        assert_eq!(clean.price.to_bits(), plain.price.to_bits());
    }

    // Explicit-scheme distributed FD has its own checkpoint path.
    let m1 = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
    let fd = Method::Fd1d(Fd1d {
        space_points: 101,
        time_steps: 4_000,
        scheme: mdp_core::pde::Scheme::Explicit,
        ..Default::default()
    });
    let clean = Pricer::new(fd.clone())
        .backend(Backend::Cluster {
            ranks: 4,
            machine: Machine::cluster2002(),
            checkpoint_interval: Some(250),
        })
        .price(&m1, &euro_call_1d(100.0))
        .unwrap();
    let faulted = Pricer::new(fd.clone())
        .backend(Backend::Cluster {
            ranks: 4,
            machine: Machine::cluster2002(),
            checkpoint_interval: Some(250),
        })
        .fault_plan(FaultPlan::new(3).with_crash(2, 1_000))
        .price(&m1, &euro_call_1d(100.0))
        .unwrap();
    assert_eq!(clean.price.to_bits(), faulted.price.to_bits());
    let plain = Pricer::new(fd)
        .backend(Backend::cluster(4, Machine::cluster2002()))
        .price(&m1, &euro_call_1d(100.0))
        .unwrap();
    assert_eq!(clean.price.to_bits(), plain.price.to_bits());
}

/// A zero checkpoint interval is a typed configuration error, not a
/// divide-by-zero inside a driver.
#[test]
fn zero_checkpoint_interval_is_rejected() {
    let market = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
    let product = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
    let err = Pricer::new(Method::MultiLattice { steps: 24 })
        .backend(Backend::Cluster {
            ranks: 2,
            machine: Machine::ideal(),
            checkpoint_interval: Some(0),
        })
        .price(&market, &product)
        .unwrap_err();
    assert!(matches!(err, PriceError::Unsupported(_)));
}

/// A plan that crashes ranks on a run without a checkpoint interval has
/// nothing to recover from: every engine rejects it as a typed
/// configuration error before any rank starts.
#[test]
fn crash_plan_without_checkpoint_interval_is_rejected() {
    let m1 = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
    let m2 = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
    let max_call = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
    let min_put = Product::american(Payoff::MinPut { strike: 100.0 }, 1.0);
    let explicit = Fd1d {
        space_points: 51,
        time_steps: 500,
        scheme: mdp_core::pde::Scheme::Explicit,
        ..Default::default()
    };
    let cases = [
        (Method::MultiLattice { steps: 16 }, &m2, max_call.clone()),
        (Method::monte_carlo(2_000), &m2, max_call),
        (Method::Lsmc(LsmcConfig::default()), &m2, min_put),
        (Method::Fd1d(explicit), &m1, euro_call_1d(100.0)),
    ];
    for (method, market, product) in cases {
        let err = Pricer::new(method.clone())
            .backend(Backend::cluster(4, Machine::cluster2002()))
            .fault_plan(FaultPlan::new(1).with_crash(2, 3))
            .price(market, &product)
            .unwrap_err();
        assert!(
            matches!(err, PriceError::Unsupported(_)),
            "{}: {err:?}",
            method.name()
        );
    }
}

/// A fault plan reaches every cluster run, not only checkpointed ones:
/// its drops go through reliable delivery, which retransmits without
/// moving the price.
#[test]
fn fault_plan_reaches_runs_without_checkpoints() {
    let market = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
    let product = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
    let pricer = Pricer::new(Method::MultiLattice { steps: 24 })
        .backend(Backend::cluster(4, Machine::cluster2002()));
    let clean = pricer.price(&market, &product).unwrap();
    let lossy = pricer
        .fault_plan(FaultPlan::new(5).with_drops(0.2).with_max_retries(30))
        .price(&market, &product)
        .unwrap();
    assert_eq!(clean.price.to_bits(), lossy.price.to_bits());
    let (clean, lossy) = (clean.time.unwrap(), lossy.time.unwrap());
    assert_eq!(clean.total_dropped, 0);
    assert!(lossy.total_dropped > 0, "the plan's drops never fired");
    assert_eq!(lossy.total_retransmits, lossy.total_dropped);
    assert!(lossy.makespan > clean.makespan);
}
