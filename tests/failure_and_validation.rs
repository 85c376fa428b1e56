//! Failure injection and validation plumbing: bad inputs fail with the
//! right errors at the facade, and rank failures in the SPMD substrate
//! are contained and reported rather than hanging the run.

use mdp_core::cluster::{self, ClusterError, Machine};
use mdp_core::prelude::*;

#[test]
fn invalid_market_parameters_surface_as_model_errors() {
    assert!(GbmMarket::single(-5.0, 0.2, 0.0, 0.05).is_err());
    assert!(GbmMarket::single(100.0, 0.0, 0.0, 0.05).is_err());
    assert!(GbmMarket::symmetric(3, 100.0, 0.2, 0.0, 0.05, -0.9).is_err());
    assert!(GbmMarket::symmetric(0, 100.0, 0.2, 0.0, 0.05, 0.0).is_err());
}

#[test]
fn facade_rejects_mismatched_products() {
    let m = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
    // 2-asset payoff on a 1-asset market.
    let exch = Product::european(Payoff::Exchange, 1.0);
    let err = Pricer::new(Method::monte_carlo(1000)).price(&m, &exch);
    assert!(err.is_err());
    // Negative maturity.
    let bad = Product::european(
        Payoff::BasketCall {
            weights: vec![1.0],
            strike: 100.0,
        },
        -1.0,
    );
    assert!(Pricer::new(Method::monte_carlo(1000))
        .price(&m, &bad)
        .is_err());
    // NaN strike.
    let nan = Product::european(Payoff::MaxCall { strike: f64::NAN }, 1.0);
    assert!(Pricer::new(Method::lattice(8)).price(&m, &nan).is_err());
}

#[test]
fn engine_capability_errors_are_specific() {
    let m2 = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
    // American product through the European MC engine.
    let am = Product::american(Payoff::MaxCall { strike: 100.0 }, 1.0);
    match Pricer::new(Method::monte_carlo(1000)).price(&m2, &am) {
        Err(PriceError::Mc(e)) => assert!(e.to_string().contains("lsmc")),
        other => panic!("expected Mc error, got {other:?}"),
    }
    // Path-dependent payoff through the lattice.
    let asian = Product::european(Payoff::AsianCall { strike: 100.0 }, 1.0);
    assert!(matches!(
        Pricer::new(Method::lattice(8)).price(&m2, &asian),
        Err(PriceError::Lattice(_))
    ));
}

#[test]
fn rank_panic_is_reported_not_hung() {
    let err = cluster::run_spmd(4, Machine::ideal(), async |comm| {
        if comm.rank() == 2 {
            panic!("injected rank failure");
        }
        // Everyone else blocks on the failed rank and must be poisoned.
        let _ = comm.recv(2, 1).await;
    })
    .unwrap_err();
    match err {
        ClusterError::RanksFailed(ranks) => {
            assert_eq!(ranks.len(), 1);
            assert_eq!(ranks[0].0, 2);
            assert!(ranks[0].1.contains("injected"));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn multiple_rank_failures_all_reported() {
    let err = cluster::run_spmd(5, Machine::ideal(), async |comm| {
        if comm.rank() % 2 == 0 {
            panic!("rank {} down", comm.rank());
        }
        let _ = comm.recv((comm.rank() + 1) % comm.size(), 1).await;
    })
    .unwrap_err();
    match err {
        ClusterError::RanksFailed(ranks) => {
            let ids: Vec<usize> = ranks.iter().map(|(r, _)| *r).collect();
            assert_eq!(ids, vec![0, 2, 4]);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn cluster_lattice_error_does_not_spawn() {
    // Validation errors must be caught before any rank starts.
    let m = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
    let asian = Product::european(Payoff::AsianCall { strike: 100.0 }, 1.0);
    let r = Pricer::new(Method::lattice(8))
        .backend(Backend::cluster(4, Machine::ideal()))
        .price(&m, &asian);
    assert!(matches!(r, Err(PriceError::Lattice(_))));
}

#[test]
fn negative_beg_probabilities_rejected_cleanly() {
    // d=4 with ρ=0.6 produces a negative branch probability (the BEG
    // moment-matching limitation) — must error, not price garbage.
    let m = GbmMarket::symmetric(4, 100.0, 0.2, 0.0, 0.05, 0.6).unwrap();
    let p = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
    let e = Pricer::new(Method::lattice(16)).price(&m, &p).unwrap_err();
    match e {
        PriceError::Lattice(le) => {
            assert!(le.to_string().contains("probability"), "{le}");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn zero_rank_run_rejected() {
    assert_eq!(
        cluster::run_spmd(0, Machine::ideal(), async |_| ()).unwrap_err(),
        ClusterError::ZeroRanks
    );
}

#[test]
fn mc_error_messages_name_the_problem() {
    let m = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
    let rainbow = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
    let cfg = McConfig {
        variance_reduction: VarianceReduction::GeometricCv,
        ..Default::default()
    };
    let e = Pricer::new(Method::MonteCarlo(cfg))
        .price(&m, &rainbow)
        .unwrap_err();
    assert!(e.to_string().contains("control variate"), "{e}");
}
