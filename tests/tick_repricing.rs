//! Incremental-repricing invariants (ticking markets).
//!
//! * **Tick sequences** — for random interleaved spot/vol/rate/
//!   correlation tick sequences, a plan patched by
//!   `PricerPlan::apply_tick` must price **bitwise-identically** to a
//!   plan compiled from scratch on the ticked market, at *every* step,
//!   across Method × Backend cells (FD, ADI sequential+rayon, lattice
//!   sequential+rayon, MC sequential+rayon).
//! * **Cube vs naive** — `RiskCube::price` (fused kernels + patched
//!   plans) must equal `RiskCube::price_naive` (fresh plan per
//!   scenario) bit for bit on property-swept markets.
//! * **Greek consistency** — cube bump Greeks must equal the classic
//!   `Pricer::greeks` bump loop bit for bit (same bumped markets, same
//!   central differences), and MC cube deltas must agree with the
//!   pathwise estimator within statistical tolerance (documented at the
//!   assertion).
//! * **Cancel tokens** — every planful engine plan keeps its installed
//!   cancel token through every kind of tick.

use mdp_core::math::linalg::Matrix;
use mdp_core::mc::pathwise_delta;
use mdp_core::prelude::*;
use proptest::prelude::*;
use proptest::TestRng;

/// A backend-agnostic tick specification the strategy generates;
/// `to_delta` maps it onto a concrete market dimension.
#[derive(Debug, Clone)]
enum TickSpec {
    Spot(usize, f64),
    Vol(usize, f64),
    Rate(f64),
    Corr(f64),
}

/// Draws one random tick, uniformly over the four market fields (the
/// proptest shim has no `prop_oneof`, so the choice is hand-rolled).
#[derive(Debug, Clone, Copy)]
struct TickStrategy;

impl Strategy for TickStrategy {
    type Value = TickSpec;
    fn generate(&self, rng: &mut TestRng) -> TickSpec {
        match rng.next_u64() % 4 {
            0 => TickSpec::Spot((rng.next_u64() % 8) as usize, 60.0 + 100.0 * rng.next_f64()),
            1 => TickSpec::Vol((rng.next_u64() % 8) as usize, 0.12 + 0.33 * rng.next_f64()),
            2 => TickSpec::Rate(0.09 * rng.next_f64()),
            // Equicorrelation stays positive-definite for
            // ρ ∈ (−1/(d−1), 1); this range is safe for every d ≤ 3
            // used here.
            _ => TickSpec::Corr(-0.2 + 0.9 * rng.next_f64()),
        }
    }
}

fn to_delta(spec: &TickSpec, d: usize) -> MarketDelta {
    match spec {
        TickSpec::Spot(i, s) => MarketDelta::Spot {
            asset: i % d,
            spot: *s,
        },
        TickSpec::Vol(i, v) => MarketDelta::Vol {
            asset: i % d,
            vol: *v,
        },
        TickSpec::Rate(r) => MarketDelta::Rate { rate: *r },
        TickSpec::Corr(rho) => {
            let mut m = Matrix::identity(d);
            for i in 0..d {
                for j in 0..d {
                    if i != j {
                        m[(i, j)] = *rho;
                    }
                }
            }
            MarketDelta::Correlation { correlation: m }
        }
    }
}

/// Apply the tick sequence step by step; after every tick the patched
/// plan and a from-scratch plan on the ticked market must agree bit for
/// bit.
fn assert_tick_sequence_bitwise(
    pricer: &Pricer,
    market: &GbmMarket,
    product: &Product,
    specs: &[TickSpec],
) -> Result<(), TestCaseError> {
    let d = market.dim();
    let mut ticked = pricer.plan(market, product.maturity).unwrap();
    let mut current = market.clone();
    for spec in specs {
        let delta = to_delta(spec, d);
        current = current.apply_delta(&delta).unwrap();
        ticked.apply_tick(&delta).unwrap();
        let fresh = pricer
            .plan(&current, product.maturity)
            .unwrap()
            .execute(product)
            .unwrap();
        let patched = ticked.execute(product).unwrap();
        prop_assert_eq!(
            patched.price.to_bits(),
            fresh.price.to_bits(),
            "{} diverged after {:?}",
            pricer.method().name(),
            spec
        );
        prop_assert_eq!(
            patched.std_error.map(f64::to_bits),
            fresh.std_error.map(f64::to_bits)
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random tick sequences over every planful Method × Backend cell.
    #[test]
    fn ticked_plans_price_bitwise_like_fresh_plans(
        specs in prop::collection::vec(TickStrategy, 1..5),
    ) {
        // 1-D finite differences, sequential.
        let m1 = GbmMarket::single(100.0, 0.2, 0.01, 0.05).unwrap();
        let p1 = Product::european(
            Payoff::BasketCall { weights: vec![1.0], strike: 100.0 },
            1.0,
        );
        let fd = Pricer::new(Method::Fd1d(Fd1d {
            space_points: 81,
            time_steps: 60,
            ..Fd1d::default()
        }));
        assert_tick_sequence_bitwise(&fd, &m1, &p1, &specs)?;

        // 2-D ADI, sequential and rayon.
        let m2 = GbmMarket::symmetric(2, 100.0, 0.22, 0.0, 0.04, 0.35).unwrap();
        let p2 = Product::european(Payoff::GeometricCall { strike: 100.0 }, 1.0);
        for backend in [Backend::Sequential, Backend::Rayon] {
            let adi = Pricer::new(Method::Adi2d(Adi2d {
                space_points: 41,
                time_steps: 24,
                ..Adi2d::default()
            }))
            .backend(backend);
            assert_tick_sequence_bitwise(&adi, &m2, &p2, &specs)?;
        }

        // Multinomial lattice, sequential and rayon.
        let p2a = Product::american(
            Payoff::BasketPut { weights: Product::equal_weights(2), strike: 100.0 },
            1.0,
        );
        for backend in [Backend::Sequential, Backend::Rayon] {
            let lat = Pricer::new(Method::MultiLattice { steps: 24 }).backend(backend);
            assert_tick_sequence_bitwise(&lat, &m2, &p2a, &specs)?;
        }

        // Monte Carlo, sequential and rayon.
        let m3 = GbmMarket::symmetric(3, 100.0, 0.25, 0.01, 0.04, 0.3).unwrap();
        let p3 = Product::european(Payoff::MaxCall { strike: 105.0 }, 1.0);
        for backend in [Backend::Sequential, Backend::Rayon] {
            let mc = Pricer::new(Method::MonteCarlo(McConfig {
                paths: 4_000,
                block_size: 1_000,
                ..McConfig::default()
            }))
            .backend(backend);
            assert_tick_sequence_bitwise(&mc, &m3, &p3, &specs)?;
        }
    }

    /// The risk cube equals the fresh-plan-per-scenario oracle bit for
    /// bit on swept markets: finite differences through patched plans,
    /// Monte Carlo through its fused cube kernel.
    #[test]
    fn risk_cube_matches_naive_oracle_bitwise(
        s0 in 80.0f64..120.0,
        vol in 0.15f64..0.35,
        rate in 0.01f64..0.07,
        bump in 0.9f64..1.1,
    ) {
        let scenarios_1d = vec![
            MarketDelta::Spot { asset: 0, spot: s0 * bump },
            MarketDelta::Vol { asset: 0, vol: vol + 0.02 },
            MarketDelta::Rate { rate: rate + 0.005 },
        ];
        let m1 = GbmMarket::single(s0, vol, 0.0, rate).unwrap();
        let book: Vec<Product> = (0..4)
            .map(|i| Product::european(
                Payoff::BasketCall { weights: vec![1.0], strike: 85.0 + 10.0 * i as f64 },
                1.0,
            ))
            .collect();
        let fd_cube = RiskCube::new(Pricer::new(Method::Fd1d(Fd1d {
            space_points: 81,
            time_steps: 60,
            ..Fd1d::default()
        })));
        let fast = fd_cube.price(&m1, &book, &scenarios_1d).unwrap();
        let naive = fd_cube.price_naive(&m1, &book, &scenarios_1d).unwrap();
        for (ra, rb) in fast.scenarios.iter().zip(&naive.scenarios) {
            for (a, b) in ra.iter().zip(rb) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        let m2 = GbmMarket::symmetric(2, s0, vol, 0.0, rate, 0.4).unwrap();
        let book2 = vec![
            Product::european(Payoff::MaxCall { strike: s0 }, 1.0),
            Product::european(Payoff::MinPut { strike: s0 }, 1.0),
        ];
        let scenarios_2d = vec![
            MarketDelta::Spot { asset: 1, spot: s0 * bump },
            MarketDelta::Vol { asset: 0, vol: vol + 0.03 },
            MarketDelta::Rate { rate: rate + 0.01 },
        ];
        let mc_cube = RiskCube::new(Pricer::new(Method::MonteCarlo(McConfig {
            paths: 4_000,
            block_size: 1_000,
            ..McConfig::default()
        })));
        let fast = mc_cube.price(&m2, &book2, &scenarios_2d).unwrap();
        let naive = mc_cube.price_naive(&m2, &book2, &scenarios_2d).unwrap();
        prop_assert_eq!(fast.fused_scenarios, 3);
        for (ra, rb) in fast.scenarios.iter().zip(&naive.scenarios) {
            for (a, b) in ra.iter().zip(rb) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// Cube bump Greeks vs the classic loop (bitwise) and vs the
    /// pathwise estimator (statistical tolerance) on swept markets.
    #[test]
    fn cube_greeks_agree_with_bump_loop_and_pathwise(
        s0 in 85.0f64..115.0,
        vol in 0.18f64..0.32,
        rate in 0.01f64..0.06,
        rho in 0.0f64..0.5,
    ) {
        let market = GbmMarket::symmetric(2, s0, vol, 0.0, rate, rho).unwrap();
        let product = Product::european(
            Payoff::BasketCall { weights: Product::equal_weights(2), strike: 100.0 },
            1.0,
        );
        let cfg = McConfig { paths: 20_000, ..McConfig::default() };
        let pricer = Pricer::new(Method::MonteCarlo(cfg));
        let bumps = BumpConfig::default();
        let cube = RiskCube::new(pricer.clone())
            .greeks(&market, std::slice::from_ref(&product), bumps)
            .unwrap();
        let g = &cube[0];

        // Same bumped markets, same central differences, same seeded
        // paths ⇒ the cube Greeks ARE the classic bump loop, bit for bit.
        let reference = pricer.greeks(&market, &product, bumps).unwrap();
        prop_assert_eq!(g.price.to_bits(), reference.price.to_bits());
        prop_assert_eq!(g.rho.to_bits(), reference.rho.to_bits());
        for i in 0..2 {
            prop_assert_eq!(g.delta[i].to_bits(), reference.delta[i].to_bits());
            prop_assert_eq!(g.gamma[i].to_bits(), reference.gamma[i].to_bits());
            prop_assert_eq!(g.vega[i].to_bits(), reference.vega[i].to_bits());
        }

        // Pathwise is a *different* estimator on the same paths:
        // tolerance is 6 pathwise standard errors plus 5e-3 for the
        // O(h²) bias of the central difference and the residual
        // common-random-numbers bump noise.
        let pw = pathwise_delta(&market, &product, cfg).unwrap();
        for i in 0..2 {
            let tol = 6.0 * pw.delta_se[i] + 5e-3;
            prop_assert!(
                (g.delta[i] - pw.delta[i]).abs() < tol,
                "delta[{}]: bump {} vs pathwise {} ± {}",
                i, g.delta[i], pw.delta[i], pw.delta_se[i]
            );
        }
    }
}

/// Deterministic engines: the lattice cube Greeks equal the classic
/// bump loop bit for bit too (no fused kernel, pure patched plans).
#[test]
fn lattice_cube_greeks_match_bump_loop_bitwise() {
    let market = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
    let product = Product::american(
        Payoff::BasketPut {
            weights: Product::equal_weights(2),
            strike: 100.0,
        },
        1.0,
    );
    let pricer = Pricer::new(Method::MultiLattice { steps: 32 });
    let bumps = BumpConfig::default();
    let cube = RiskCube::new(pricer.clone())
        .greeks(&market, std::slice::from_ref(&product), bumps)
        .unwrap();
    let reference = pricer.greeks(&market, &product, bumps).unwrap();
    let g = &cube[0];
    assert_eq!(g.price.to_bits(), reference.price.to_bits());
    assert_eq!(g.rho.to_bits(), reference.rho.to_bits());
    for i in 0..2 {
        assert_eq!(g.delta[i].to_bits(), reference.delta[i].to_bits());
        assert_eq!(g.gamma[i].to_bits(), reference.gamma[i].to_bits());
        assert_eq!(g.vega[i].to_bits(), reference.vega[i].to_bits());
    }
}

/// Every planful engine keeps the cancel token installed on its plan
/// across each kind of tick: after a spot, vol, rate and (for d ≥ 2)
/// correlation tick, a tripped token still stops the run with the
/// engine's typed `Cancelled`. A tick that rebuilds an axis or a whole
/// plan (a vol tick) is where a token used to be dropped.
#[test]
fn every_planful_engine_keeps_its_cancel_token_across_ticks() {
    use mdp_core::lattice::{LatticeError, LatticeScratch};
    use mdp_core::mc::McError;
    use mdp_core::pde::{AdiScratch, Fd1dScratch, PdeError};

    let tripped = || {
        let token = CancelToken::new();
        token.cancel();
        token
    };
    for d in 1..=3 {
        let market = GbmMarket::symmetric(d, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
        let product = Product::american(
            Payoff::BasketPut {
                weights: Product::equal_weights(d),
                strike: 100.0,
            },
            1.0,
        );
        let mut specs = vec![
            TickSpec::Spot(d - 1, 104.0),
            TickSpec::Vol(0, 0.27),
            TickSpec::Rate(0.03),
        ];
        if d >= 2 {
            specs.push(TickSpec::Corr(0.2));
        }
        for spec in &specs {
            let delta = to_delta(spec, d);
            let tag = format!("d={d} {spec:?}");
            if d == 1 {
                let mut fd = Fd1d::default().plan(&market, 1.0).unwrap();
                fd.set_cancel(tripped());
                fd.apply_tick(&delta).unwrap();
                let r = fd.execute(&product, &mut Fd1dScratch::default());
                assert!(matches!(r, Err(PdeError::Cancelled)), "fd {tag}");
            } else {
                let mut adi = if d == 2 {
                    Adi2d {
                        space_points: 21,
                        time_steps: 5,
                        ..Default::default()
                    }
                    .plan(&market, 1.0)
                } else {
                    Adi3d {
                        space_points: 11,
                        time_steps: 5,
                        ..Default::default()
                    }
                    .plan(&market, 1.0)
                }
                .unwrap();
                adi.set_cancel(tripped());
                adi.apply_tick(&delta).unwrap();
                let r = adi.execute(&product, &mut AdiScratch::default());
                assert!(matches!(r, Err(PdeError::Cancelled)), "adi {tag}");
            }
            let mut lattice = MultiLattice::new(16).plan(&market, 1.0).unwrap();
            lattice.set_cancel(tripped());
            lattice.apply_tick(&delta).unwrap();
            let r = lattice.execute(&product, false, &mut LatticeScratch::default());
            assert!(matches!(r, Err(LatticeError::Cancelled)), "lattice {tag}");

            let european = Product::european(product.payoff.clone(), 1.0);
            let mut mc = McEngine::new(McConfig {
                paths: 1_024,
                ..Default::default()
            })
            .plan(&market, 1.0)
            .unwrap();
            mc.set_cancel(tripped());
            mc.apply_tick(&delta).unwrap();
            assert!(
                matches!(mc.execute(&european), Err(McError::Cancelled)),
                "mc {tag}"
            );
        }
    }
}
