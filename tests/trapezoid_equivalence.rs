//! Equivalence suite for the cache-oblivious explicit stencil and the
//! 3-D ADI backend.
//!
//! The trapezoid kernel's contract is *bitwise* equality with the
//! retained step-by-step oracle — the recursion reorders independent
//! work only and performs the identical per-point arithmetic — so the
//! property tests here compare full engine runs (the trapezoid driver)
//! against [`Fd1dPlan::execute_step_by_step`] bit for bit over random
//! stable configurations, European and American (the pointwise floor),
//! vanilla and digital payoffs.
//!
//! [`Fd1dPlan::execute_step_by_step`]: mdp_core::pde::Fd1dPlan::execute_step_by_step
//!
//! The 3-D ADI backend has no bitwise oracle; it is cross-checked
//! against Monte Carlo on a correlated 3-asset basket within the
//! statistical tolerance, and the widened `Pricer::auto` row (3-asset
//! terminal payoffs → `adi-3d`) is pinned to price bitwise-identically
//! to the engine it routes to.

use mdp_core::pde::{Fd1dResult, Fd1dScratch, Scheme};
use mdp_core::prelude::*;
use proptest::prelude::*;

/// A stable explicit configuration for the given spatial resolution and
/// vol: the time-step count is chosen so `σ²Δτ/Δx² ≈ 0.45 < ½`.
fn stable_explicit(m: usize, sigma: f64) -> Fd1d {
    let width = 5.0;
    let half = (width * sigma).max(0.5); // LogGrid clamp at T = 1
    let dx = 2.0 * half / (m - 1) as f64;
    let n = (2.2 * sigma * sigma / (dx * dx)).ceil() as usize;
    Fd1d {
        space_points: m,
        time_steps: n.max(8),
        width,
        scheme: Scheme::Explicit,
    }
}

/// `cfg` priced by the level-by-level oracle.
fn step_by_step(cfg: &Fd1d, market: &GbmMarket, product: &Product) -> Fd1dResult {
    cfg.plan(market, product.maturity)
        .unwrap()
        .execute_step_by_step(product, &mut Fd1dScratch::default())
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Trapezoid vs step-by-step over random stable grids, spots,
    /// strikes and exercise styles: every grid value bit matches.
    #[test]
    fn trapezoid_bitwise_equals_step_by_step(
        m in 31usize..220,
        sigma in 0.1f64..0.45,
        spot in 60.0f64..160.0,
        strike in 60.0f64..160.0,
        rate in 0.0f64..0.1,
        american in 0usize..2,
    ) {
        let market = GbmMarket::single(spot, sigma, 0.0, rate).unwrap();
        let payoff = Payoff::BasketPut { weights: vec![1.0], strike };
        let product = if american == 1 {
            Product::american(payoff, 1.0)
        } else {
            Product::european(payoff, 1.0)
        };
        let cfg = stable_explicit(m, sigma);
        let trap = cfg.price(&market, &product).unwrap();
        let step = step_by_step(&cfg, &market, &product);
        prop_assert_eq!(trap.price.to_bits(), step.price.to_bits());
        prop_assert_eq!(trap.nodes_processed, step.nodes_processed);
        for (x, (a, b)) in trap.values.iter().zip(&step.values).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "grid value at {}", x);
        }
    }

    /// Discontinuous payoffs stress every cut boundary: digitals must
    /// also reproduce the oracle bit for bit.
    #[test]
    fn trapezoid_bitwise_on_digitals(
        m in 31usize..150,
        strike in 70.0f64..140.0,
    ) {
        let market = GbmMarket::single(100.0, 0.25, 0.01, 0.04).unwrap();
        let product = Product::european(
            Payoff::DigitalBasketCall {
                weights: vec![1.0],
                strike,
                cash: 10.0,
            },
            1.0,
        );
        let cfg = stable_explicit(m, 0.25);
        let trap = cfg.price(&market, &product).unwrap();
        let step = step_by_step(&cfg, &market, &product);
        prop_assert_eq!(trap.price.to_bits(), step.price.to_bits());
    }
}

/// The 3-D ADI price agrees with Monte Carlo on a correlated 3-asset
/// basket within the simulation's own statistical resolution.
#[test]
fn adi3d_agrees_with_monte_carlo() {
    let market = GbmMarket::symmetric(3, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
    let product = Product::european(
        Payoff::BasketCall {
            weights: Product::equal_weights(3),
            strike: 100.0,
        },
        1.0,
    );
    let pde = Adi3d {
        space_points: 61,
        time_steps: 60,
        ..Default::default()
    }
    .price(&market, &product)
    .unwrap();
    let mc = McEngine::new(McConfig {
        paths: 400_000,
        seed: 0x3D,
        ..Default::default()
    })
    .price(&market, &product)
    .unwrap();
    let tol = 4.0 * mc.std_error + 0.05; // sampling noise + O(Δx²) bias
    assert!(
        (pde.price - mc.price).abs() < tol,
        "adi3d {} vs mc {} ± {}",
        pde.price,
        mc.price,
        mc.std_error
    );
}

/// The widened auto() row: 3-asset terminal payoffs route to the 3-D
/// ADI default grid and price bitwise-identically to calling that
/// engine directly.
#[test]
fn auto_route_for_three_assets_prices_via_adi3d() {
    let market = GbmMarket::symmetric(3, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
    for product in [
        Product::european(
            Payoff::BasketCall {
                weights: Product::equal_weights(3),
                strike: 100.0,
            },
            1.0,
        ),
        Product::american(Payoff::MinPut { strike: 110.0 }, 1.0),
    ] {
        let auto = Pricer::auto(&market, &product);
        assert_eq!(auto.method().name(), "adi-3d");
        let routed = auto.price(&market, &product).unwrap();
        let direct = Adi3d::default().price(&market, &product).unwrap();
        assert_eq!(routed.price.to_bits(), direct.price.to_bits());
    }
}
