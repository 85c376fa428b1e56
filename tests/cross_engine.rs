//! Cross-engine consistency: every engine that can price a product must
//! agree with the others (and with the closed form when one exists).

use mdp_core::prelude::*;

/// All engines on the Margrabe exchange option (closed form exists).
#[test]
fn exchange_option_all_engines() {
    let market = GbmMarket::symmetric(2, 100.0, 0.25, 0.0, 0.05, 0.3).unwrap();
    let product = Product::european(Payoff::Exchange, 1.0);
    let exact = Pricer::new(Method::Analytic)
        .price(&market, &product)
        .unwrap()
        .price;

    let lattice = Pricer::new(Method::lattice(200))
        .price(&market, &product)
        .unwrap()
        .price;
    assert!(
        (lattice - exact).abs() < 0.05,
        "lattice {lattice} vs {exact}"
    );

    let adi = Pricer::new(Method::Adi2d(Adi2d {
        space_points: 151,
        time_steps: 150,
        ..Default::default()
    }))
    .price(&market, &product)
    .unwrap()
    .price;
    assert!((adi - exact).abs() < 0.1, "adi {adi} vs {exact}");

    let mc = Pricer::new(Method::monte_carlo(200_000))
        .price(&market, &product)
        .unwrap();
    assert!(
        (mc.price - exact).abs() < 3.5 * mc.std_error.unwrap(),
        "mc {} vs {exact}",
        mc.price
    );

    let qmc = Pricer::new(Method::Qmc(QmcConfig {
        points: 8192,
        replicates: 4,
        ..Default::default()
    }))
    .price(&market, &product)
    .unwrap();
    assert!(
        (qmc.price - exact).abs() < 0.02,
        "qmc {} vs {exact}",
        qmc.price
    );
}

/// Stulz min-call: lattice, ADI, MC vs the bivariate-normal closed form.
#[test]
fn min_call_all_engines() {
    let market = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.5).unwrap();
    let product = Product::european(Payoff::MinCall { strike: 95.0 }, 1.0);
    let exact =
        analytic::min_call_two_assets(100.0, 0.0, 0.2, 100.0, 0.0, 0.2, 0.5, 0.05, 95.0, 1.0);

    let lattice = Pricer::new(Method::lattice(200))
        .price(&market, &product)
        .unwrap()
        .price;
    assert!((lattice - exact).abs() < 0.05, "{lattice} vs {exact}");

    let adi = Pricer::new(Method::Adi2d(Adi2d {
        space_points: 151,
        time_steps: 150,
        ..Default::default()
    }))
    .price(&market, &product)
    .unwrap()
    .price;
    assert!((adi - exact).abs() < 0.1, "{adi} vs {exact}");

    let mc = Pricer::new(Method::monte_carlo(150_000))
        .price(&market, &product)
        .unwrap();
    assert!((mc.price - exact).abs() < 3.5 * mc.std_error.unwrap());
}

/// 1-D American put: binomial, trinomial, BEG, FD (Brennan–Schwartz), LSMC all consistent.
#[test]
fn american_put_every_engine() {
    let market = GbmMarket::single(100.0, 0.25, 0.0, 0.04).unwrap();
    let product = Product::american(
        Payoff::BasketPut {
            weights: vec![1.0],
            strike: 105.0,
        },
        1.0,
    );

    let binomial = Pricer::new(Method::Binomial {
        steps: 2000,
        kind: BinomialKind::CoxRossRubinstein,
    })
    .price(&market, &product)
    .unwrap()
    .price;

    let trinomial = Pricer::new(Method::Trinomial { steps: 1000 })
        .price(&market, &product)
        .unwrap()
        .price;
    assert!(
        (trinomial - binomial).abs() < 0.02,
        "trinomial {trinomial} vs binomial {binomial}"
    );

    let beg = Pricer::new(Method::lattice(1000))
        .price(&market, &product)
        .unwrap()
        .price;
    assert!((beg - binomial).abs() < 0.05, "beg {beg} vs {binomial}");

    let fd = Pricer::new(Method::Fd1d(Fd1d {
        space_points: 601,
        time_steps: 600,
        ..Default::default()
    }))
    .price(&market, &product)
    .unwrap()
    .price;
    assert!((fd - binomial).abs() < 0.02, "fd {fd} vs {binomial}");

    let lsmc = Pricer::new(Method::Lsmc(LsmcConfig {
        paths: 40_000,
        steps: 50,
        degree: 3,
        ..Default::default()
    }))
    .price(&market, &product)
    .unwrap();
    assert!(
        lsmc.price > binomial - 0.3 && lsmc.price < binomial + 4.0 * lsmc.std_error.unwrap() + 0.05,
        "lsmc {} vs {binomial}",
        lsmc.price
    );
}

/// Geometric basket in d=4: lattice-free closed form vs MC/QMC, and the
/// arithmetic basket bracketing property (arithmetic ≥ geometric payoff
/// pointwise ⇒ same ordering of prices).
#[test]
fn geometric_vs_arithmetic_ordering() {
    let market = GbmMarket::symmetric(4, 100.0, 0.3, 0.0, 0.05, 0.4).unwrap();
    let geo = Product::european(Payoff::GeometricCall { strike: 100.0 }, 1.0);
    let arith = Product::european(
        Payoff::BasketCall {
            weights: Product::equal_weights(4),
            strike: 100.0,
        },
        1.0,
    );
    let exact_geo =
        analytic::geometric_basket_call(&market, &Product::equal_weights(4), 100.0, 1.0);

    let mc_geo = Pricer::new(Method::monte_carlo(150_000))
        .price(&market, &geo)
        .unwrap();
    assert!((mc_geo.price - exact_geo).abs() < 3.5 * mc_geo.std_error.unwrap());

    let cv_arith = Pricer::new(Method::MonteCarlo(McConfig {
        paths: 150_000,
        variance_reduction: VarianceReduction::GeometricCv,
        ..Default::default()
    }))
    .price(&market, &arith)
    .unwrap();
    // AM–GM: arithmetic basket call ≥ geometric basket call.
    assert!(
        cv_arith.price > exact_geo,
        "arith {} vs geo {exact_geo}",
        cv_arith.price
    );
    // …but not absurdly so for these parameters.
    assert!(cv_arith.price < exact_geo + 5.0);
}

/// The BEG lattice in d=1 agrees with the dedicated binomial engine.
#[test]
fn beg_reduces_to_binomial_in_one_dim() {
    let market = GbmMarket::single(95.0, 0.3, 0.02, 0.06).unwrap();
    let product = Product::european(
        Payoff::BasketCall {
            weights: vec![1.0],
            strike: 100.0,
        },
        2.0,
    );
    let exact = analytic::black_scholes_call(95.0, 100.0, 0.06, 0.02, 0.3, 2.0);
    let beg = Pricer::new(Method::lattice(2000))
        .price(&market, &product)
        .unwrap()
        .price;
    assert!((beg - exact).abs() < 0.01, "{beg} vs {exact}");
}

/// Asian call: MC and QMC agree with each other.
#[test]
fn asian_mc_vs_qmc() {
    let market = GbmMarket::single(100.0, 0.3, 0.0, 0.05).unwrap();
    let product = Product::european(Payoff::AsianCall { strike: 100.0 }, 1.0);
    let mc = Pricer::new(Method::MonteCarlo(McConfig {
        paths: 200_000,
        steps: 16,
        ..Default::default()
    }))
    .price(&market, &product)
    .unwrap();
    let qmc = Pricer::new(Method::Qmc(QmcConfig {
        points: 16_384,
        steps: 16,
        replicates: 6,
        ..Default::default()
    }))
    .price(&market, &product)
    .unwrap();
    assert!(
        (mc.price - qmc.price).abs()
            < 4.0 * (mc.std_error.unwrap() + qmc.std_error.unwrap()) + 0.01,
        "mc {} vs qmc {}",
        mc.price,
        qmc.price
    );
}

/// Barrier options: the Reiner–Rubinstein closed form, the absorbing-
/// boundary PDE and discretely monitored Monte Carlo must line up.
/// Discrete monitoring overprices a knock-out (breaches between dates
/// are missed), converging to the continuous price from above.
#[test]
fn barrier_triangle_analytic_pde_mc() {
    let market = GbmMarket::single(100.0, 0.25, 0.0, 0.05).unwrap();
    let product = Product::european(
        Payoff::UpOutCall {
            strike: 100.0,
            barrier: 130.0,
        },
        1.0,
    );
    let exact = analytic::up_and_out_call(100.0, 100.0, 130.0, 0.05, 0.0, 0.25, 1.0);

    let pde = Pricer::new(Method::BarrierFd(Fd1dBarrier {
        space_points: 801,
        time_steps: 800,
        ..Default::default()
    }))
    .price(&market, &product)
    .unwrap()
    .price;
    assert!((pde - exact).abs() < 0.02, "pde {pde} vs {exact}");

    // Coarse monitoring: clear upward bias.
    let coarse = Pricer::new(Method::MonteCarlo(McConfig {
        paths: 100_000,
        steps: 12,
        ..Default::default()
    }))
    .price(&market, &product)
    .unwrap();
    // Fine monitoring: bias shrinks.
    let fine = Pricer::new(Method::MonteCarlo(McConfig {
        paths: 100_000,
        steps: 250,
        ..Default::default()
    }))
    .price(&market, &product)
    .unwrap();
    let se = coarse.std_error.unwrap().max(fine.std_error.unwrap());
    assert!(
        coarse.price > exact + 2.0 * se,
        "coarse monitoring must overprice: {} vs {exact}",
        coarse.price
    );
    assert!(
        fine.price > exact - 3.0 * se && fine.price < coarse.price,
        "fine monitoring converges from above: {} in ({exact}, {})",
        fine.price,
        coarse.price
    );
}

/// Down-and-out put triangle.
#[test]
fn down_out_put_pde_vs_analytic() {
    let market = GbmMarket::single(100.0, 0.3, 0.02, 0.04).unwrap();
    let product = Product::european(
        Payoff::DownOutPut {
            strike: 105.0,
            barrier: 70.0,
        },
        1.5,
    );
    let exact = analytic::down_and_out_put(100.0, 105.0, 70.0, 0.04, 0.02, 0.3, 1.5);
    let pde = Pricer::new(Method::BarrierFd(Fd1dBarrier {
        space_points: 801,
        time_steps: 800,
        ..Default::default()
    }))
    .price(&market, &product)
    .unwrap()
    .price;
    assert!((pde - exact).abs() < 0.02, "pde {pde} vs {exact}");
}
