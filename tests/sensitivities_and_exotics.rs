//! Integration coverage of the extension set: Greeks through the facade,
//! pathwise deltas, barrier and lookback products, and correlation
//! repair feeding a pricing pipeline end to end.

use mdp_core::greeks::BumpConfig;
use mdp_core::math::linalg::{nearest_correlation, Matrix};
use mdp_core::mc::pathwise::pathwise_delta;
use mdp_core::model::greeks::black_scholes_call_greeks;
use mdp_core::prelude::*;

#[test]
fn bump_and_pathwise_deltas_agree_with_each_other() {
    let m = GbmMarket::symmetric(2, 100.0, 0.25, 0.0, 0.05, 0.4).unwrap();
    let p = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
    let bump = Pricer::new(Method::monte_carlo(150_000))
        .greeks(&m, &p, BumpConfig::default())
        .unwrap();
    let pw = pathwise_delta(
        &m,
        &p,
        McConfig {
            paths: 150_000,
            ..Default::default()
        },
    )
    .unwrap();
    for i in 0..2 {
        assert!(
            (bump.delta[i] - pw.delta[i]).abs() < 0.02,
            "asset {i}: bump {} vs pathwise {}",
            bump.delta[i],
            pw.delta[i]
        );
    }
}

#[test]
fn barrier_and_lookback_flow_through_the_facade() {
    let m = GbmMarket::single(100.0, 0.25, 0.0, 0.05).unwrap();
    // Barrier: analytic vs facade PDE engine.
    let uo = Product::european(
        Payoff::UpOutCall {
            strike: 100.0,
            barrier: 140.0,
        },
        1.0,
    );
    let analytic_px = Pricer::new(Method::Analytic).price(&m, &uo);
    assert!(
        analytic_px.is_err(),
        "no dispatch for barriers via Analytic"
    );
    let exact = analytic::up_and_out_call(100.0, 100.0, 140.0, 0.05, 0.0, 0.25, 1.0);
    let pde = Pricer::new(Method::BarrierFd(Fd1dBarrier::default()))
        .price(&m, &uo)
        .unwrap()
        .price;
    assert!((pde - exact).abs() < 0.02, "{pde} vs {exact}");

    // Lookback via Analytic dispatch and via MC monitoring.
    let lb = Product::european(Payoff::LookbackCallFloating, 1.0);
    let closed = Pricer::new(Method::Analytic).price(&m, &lb).unwrap().price;
    assert!((closed - analytic::lookback_call_floating(100.0, 0.05, 0.0, 0.25, 1.0)).abs() < 1e-12);
    let mc = Pricer::new(Method::MonteCarlo(McConfig {
        paths: 60_000,
        steps: 128,
        ..Default::default()
    }))
    .price(&m, &lb)
    .unwrap();
    assert!(mc.price < closed, "discrete monitoring undershoots");
    assert!((mc.price - closed).abs() / closed < 0.08);
}

#[test]
fn lattice_engines_reject_extreme_dependent_payoffs() {
    let m = GbmMarket::single(100.0, 0.25, 0.0, 0.05).unwrap();
    let lb = Product::european(Payoff::LookbackCallFloating, 1.0);
    assert!(Pricer::new(Method::lattice(16)).price(&m, &lb).is_err());
    assert!(Pricer::new(Method::Fd1d(Fd1d::default()))
        .price(&m, &lb)
        .is_err());
    let uo = Product::european(
        Payoff::UpOutCall {
            strike: 100.0,
            barrier: 130.0,
        },
        1.0,
    );
    assert!(Pricer::new(Method::Binomial {
        steps: 64,
        kind: BinomialKind::CoxRossRubinstein,
    })
    .price(&m, &uo)
    .is_err());
}

#[test]
fn repaired_correlation_feeds_pricing_end_to_end() {
    // Build an invalid correlation (estimation artefact), repair it, and
    // price a basket on the repaired market.
    let mut raw = Matrix::identity(3);
    for i in 0..3 {
        for j in 0..3 {
            if i != j {
                raw[(i, j)] = -0.75;
            }
        }
    }
    let repaired = nearest_correlation(&raw, 1e-8).unwrap();
    let market = GbmMarket::new(vec![100.0; 3], vec![0.2; 3], vec![0.0; 3], 0.05, repaired)
        .expect("repaired matrix must validate");
    let p = Product::european(
        Payoff::BasketCall {
            weights: Product::equal_weights(3),
            strike: 100.0,
        },
        1.0,
    );
    let r = Pricer::new(Method::monte_carlo(50_000))
        .price(&market, &p)
        .unwrap();
    // Strong negative correlation kills basket variance: the option is
    // cheap but strictly positive.
    assert!(r.price > 0.0 && r.price < 8.0, "{}", r.price);
}

#[test]
fn richardson_available_through_direct_api() {
    let m = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
    let put = Product::american(
        Payoff::BasketPut {
            weights: vec![1.0],
            strike: 110.0,
        },
        1.0,
    );
    let reference = BinomialLattice::crr(4000).price(&m, &put).unwrap().price;
    let rich = BinomialLattice::crr(256)
        .price_richardson(&m, &put)
        .unwrap()
        .price;
    assert!((rich - reference).abs() < 0.01, "{rich} vs {reference}");
}

#[test]
fn greeks_sanity_for_multi_asset_book() {
    let m = GbmMarket::symmetric(3, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
    let p = Product::european(Payoff::GeometricCall { strike: 100.0 }, 1.0);
    let g = Pricer::new(Method::Analytic)
        .greeks(&m, &p, BumpConfig::default())
        .unwrap();
    // Symmetric market ⇒ symmetric deltas; all positive for a call.
    assert!(g.delta.iter().all(|&d| d > 0.0));
    assert!((g.delta[0] - g.delta[2]).abs() < 1e-6);
    assert!(g.theta < 0.0, "calls decay: {}", g.theta);
    assert!(g.rho > 0.0);
    // Single-asset degenerate check against the closed form.
    let g1 = Pricer::new(Method::Analytic)
        .greeks(
            &GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap(),
            &Product::european(
                Payoff::BasketCall {
                    weights: vec![1.0],
                    strike: 100.0,
                },
                1.0,
            ),
            BumpConfig::default(),
        )
        .unwrap();
    let exact = black_scholes_call_greeks(100.0, 100.0, 0.05, 0.0, 0.2, 1.0);
    assert!((g1.delta[0] - exact.delta[0]).abs() < 1e-4);
}
