//! Scenario-cube risk: K market scenarios × a whole portfolio, fused.
//!
//! A [`RiskCube`] prices every product of a book under every scenario of
//! a list — each scenario being one single-field [`MarketDelta`] off the
//! base market — and reads bump-and-reprice Greeks straight off the
//! cube. The point is *where the work goes*:
//!
//! * **Monte Carlo** — spot/vol/rate scenarios share **one path sweep**
//!   ([`mdp_mc::McPlan::execute_cube`]): each panel's normals are drawn
//!   and correlated once, every scenario re-walks it with its own
//!   drift/diffusion scalars and evaluates every payoff on it.
//! * **Everything else** (finite differences included, and the scenario
//!   kinds a fused kernel cannot take, e.g. correlation scenarios under
//!   MC) — the base [`PricerPlan`] is cloned and **patched** per
//!   scenario via [`PricerPlan::apply_tick`], so each scenario still
//!   pays only for the plan components its ticked field invalidates.
//!
//! Both routes are **bitwise-identical** to [`RiskCube::price_naive`]
//! — a fresh plan per scenario market — which is the oracle the test
//! suite pins them against. Greeks read off the cube reuse the exact
//! bump arithmetic of [`crate::Pricer::greeks`], so for deterministic
//! engines the cube's delta/gamma/vega/rho match the classic
//! bump-and-reprice loop bit for bit at a fraction of the setup cost.

use crate::greeks::BumpConfig;
use crate::portfolio::Portfolio;
use crate::pricer::{Backend, PlanKind, PriceError, Pricer, PricerPlan};
use mdp_model::{GbmMarket, MarketDelta, Product};

/// A priced scenario cube: the base book plus one price row per
/// scenario.
#[derive(Debug, Clone)]
pub struct CubeResult {
    /// Base-market price per product, in input order.
    pub base: Vec<f64>,
    /// `scenarios[k][p]` — product `p` repriced under scenario `k`.
    pub scenarios: Vec<Vec<f64>>,
    /// How many scenarios were priced through a fused cube kernel (the
    /// shared-path MC sweep) rather than a per-scenario patched plan.
    pub fused_scenarios: usize,
}

/// First-order bump-and-reprice Greeks for one product, read off a
/// risk cube (see [`RiskCube::greeks`]).
#[derive(Debug, Clone)]
pub struct CubeGreeks {
    /// Base price.
    pub price: f64,
    /// Per-asset ∂V/∂Sᵢ (central difference).
    pub delta: Vec<f64>,
    /// Per-asset ∂²V/∂Sᵢ² (central difference).
    pub gamma: Vec<f64>,
    /// Per-asset ∂V/∂σᵢ (central difference).
    pub vega: Vec<f64>,
    /// ∂V/∂r (central difference).
    pub rho: f64,
}

/// Prices a book under K single-field market scenarios, routing each
/// scenario into the cheapest sound kernel (see the module docs).
#[derive(Debug, Clone)]
pub struct RiskCube {
    portfolio: Portfolio,
}

impl RiskCube {
    /// A cube over the given method/backend pair.
    pub fn new(pricer: Pricer) -> Self {
        RiskCube {
            portfolio: Portfolio::new(pricer),
        }
    }

    /// The wrapped portfolio pricer.
    pub fn portfolio(&self) -> &Portfolio {
        &self.portfolio
    }

    fn shared_maturity(products: &[Product]) -> Result<f64, PriceError> {
        let maturity = products.first().map(|p| p.maturity).ok_or_else(|| {
            PriceError::Unsupported("risk cube needs at least one product".into())
        })?;
        if products.iter().any(|p| p.maturity != maturity) {
            return Err(PriceError::Unsupported(
                "risk cube products must share one maturity".into(),
            ));
        }
        Ok(maturity)
    }

    /// Whether `delta` can ride this plan's fused cube kernel.
    fn scenario_fusable(plan: &PricerPlan, products: &[Product], delta: &MarketDelta) -> bool {
        match &plan.kind {
            PlanKind::Mc(mc) => {
                !matches!(delta, MarketDelta::Correlation { .. })
                    && products.iter().all(|p| mc.check_fusable(p).is_ok())
            }
            _ => false,
        }
    }

    /// Price the whole cube: every product under the base market and
    /// under every scenario.
    ///
    /// Scenario rows are **bitwise-identical** to
    /// [`RiskCube::price_naive`] — pricing each scenario market from a
    /// freshly compiled plan — whichever route (fused kernel or patched
    /// plan) each scenario took.
    pub fn price(
        &self,
        market: &GbmMarket,
        products: &[Product],
        scenarios: &[MarketDelta],
    ) -> Result<CubeResult, PriceError> {
        let maturity = Self::shared_maturity(products)?;
        let mut plan = self.portfolio.plan_group(market, maturity)?;
        let (base_reports, _) = self.portfolio.execute_group(&mut plan, products, 0.0)?;
        let base: Vec<f64> = base_reports.iter().map(|r| r.price).collect();
        let parallel = matches!(self.portfolio.pricer().backend_ref(), Backend::Rayon);

        let fused_idx: Vec<usize> = (0..scenarios.len())
            .filter(|&k| Self::scenario_fusable(&plan, products, &scenarios[k]))
            .collect();
        let mut rows: Vec<Option<Vec<f64>>> = vec![None; scenarios.len()];

        if let PlanKind::Mc(mc) = &plan.kind {
            if !fused_idx.is_empty() {
                let markets: Vec<GbmMarket> = fused_idx
                    .iter()
                    .map(|&k| Ok(market.apply_delta(&scenarios[k])?))
                    .collect::<Result<_, PriceError>>()?;
                let cube = mc.execute_cube(products, &markets, parallel)?;
                for (row, &k) in cube.iter().zip(&fused_idx) {
                    rows[k] = Some(row.iter().map(|r| r.price).collect());
                }
            }
        }

        // Every scenario a fused kernel could not take: clone the base
        // plan and patch only what the tick invalidates.
        for (k, delta) in scenarios.iter().enumerate() {
            if rows[k].is_some() {
                continue;
            }
            let mut patched = plan.clone();
            patched.apply_tick(delta)?;
            let (reports, _) = self.portfolio.execute_group(&mut patched, products, 0.0)?;
            rows[k] = Some(reports.iter().map(|r| r.price).collect());
        }

        Ok(CubeResult {
            base,
            scenarios: rows.into_iter().map(|r| r.expect("row filled")).collect(),
            fused_scenarios: fused_idx.len(),
        })
    }

    /// The oracle: reprice every scenario from a freshly compiled plan
    /// on the scenario market, no fusion, no patching.
    pub fn price_naive(
        &self,
        market: &GbmMarket,
        products: &[Product],
        scenarios: &[MarketDelta],
    ) -> Result<CubeResult, PriceError> {
        let maturity = Self::shared_maturity(products)?;
        let mut plan = self.portfolio.plan_group(market, maturity)?;
        let (base_reports, _) = self.portfolio.execute_group(&mut plan, products, 0.0)?;
        let mut rows = Vec::with_capacity(scenarios.len());
        for delta in scenarios {
            let scen_market = market.apply_delta(delta)?;
            let mut scen_plan = self.portfolio.plan_group(&scen_market, maturity)?;
            let (reports, _) = self
                .portfolio
                .execute_group(&mut scen_plan, products, 0.0)?;
            rows.push(reports.iter().map(|r| r.price).collect());
        }
        Ok(CubeResult {
            base: base_reports.iter().map(|r| r.price).collect(),
            scenarios: rows,
            fused_scenarios: 0,
        })
    }

    /// Bump-and-reprice delta/gamma/vega/rho for the whole book off one
    /// cube of `4d + 2` scenarios.
    ///
    /// Uses exactly the bump arithmetic of [`crate::Pricer::greeks`]
    /// (same bumped markets, same central-difference expressions), so
    /// each product's cube Greeks equal the classic per-product
    /// bump-and-reprice loop **bit for bit** — the loop costs
    /// `(3 + 4d)·P` plans, the cube one plan plus `4d + 2` patched (or
    /// fused) scenario rows. Theta needs a maturity bump, which is not a
    /// market field; use [`crate::Pricer::greeks`] where theta matters.
    pub fn greeks(
        &self,
        market: &GbmMarket,
        products: &[Product],
        bumps: BumpConfig,
    ) -> Result<Vec<CubeGreeks>, PriceError> {
        let d = market.dim();
        let mut scenarios = Vec::with_capacity(4 * d + 2);
        let mut spot_h = Vec::with_capacity(d);
        let mut vega_div = Vec::with_capacity(d);
        for i in 0..d {
            let s0 = market.spots()[i];
            let h = bumps.rel_spot * s0;
            spot_h.push(h);
            scenarios.push(MarketDelta::Spot {
                asset: i,
                spot: s0 + h,
            });
            scenarios.push(MarketDelta::Spot {
                asset: i,
                spot: s0 - h,
            });
            let v0 = market.vols()[i];
            let hv = bumps.abs_vol;
            let vdn = (v0 - hv).max(1e-6);
            vega_div.push(v0 + hv - vdn);
            scenarios.push(MarketDelta::Vol {
                asset: i,
                vol: v0 + hv,
            });
            scenarios.push(MarketDelta::Vol { asset: i, vol: vdn });
        }
        let hr = bumps.abs_rate;
        scenarios.push(MarketDelta::Rate {
            rate: market.rate() + hr,
        });
        scenarios.push(MarketDelta::Rate {
            rate: market.rate() - hr,
        });

        let cube = self.price(market, products, &scenarios)?;
        Ok((0..products.len())
            .map(|p| {
                let base = cube.base[p];
                let mut delta = Vec::with_capacity(d);
                let mut gamma = Vec::with_capacity(d);
                let mut vega = Vec::with_capacity(d);
                for i in 0..d {
                    let up = cube.scenarios[4 * i][p];
                    let dn = cube.scenarios[4 * i + 1][p];
                    let h = spot_h[i];
                    delta.push((up - dn) / (2.0 * h));
                    gamma.push((up - 2.0 * base + dn) / (h * h));
                    let vup = cube.scenarios[4 * i + 2][p];
                    let vdn = cube.scenarios[4 * i + 3][p];
                    vega.push((vup - vdn) / vega_div[i]);
                }
                let rup = cube.scenarios[4 * d][p];
                let rdn = cube.scenarios[4 * d + 1][p];
                CubeGreeks {
                    price: base,
                    delta,
                    gamma,
                    vega,
                    rho: (rup - rdn) / (2.0 * hr),
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pricer::Method;
    use mdp_mc::McConfig;
    use mdp_model::Payoff;
    use mdp_pde::Fd1d;

    fn fd_book() -> (GbmMarket, Vec<Product>) {
        let market = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
        let products = (0..6)
            .map(|i| {
                Product::european(
                    Payoff::BasketCall {
                        weights: vec![1.0],
                        strike: 85.0 + 6.0 * i as f64,
                    },
                    1.0,
                )
            })
            .collect();
        (market, products)
    }

    fn assert_cubes_bitwise(a: &CubeResult, b: &CubeResult) {
        assert_eq!(a.base.len(), b.base.len());
        for (x, y) in a.base.iter().zip(&b.base) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.scenarios.len(), b.scenarios.len());
        for (ra, rb) in a.scenarios.iter().zip(&b.scenarios) {
            for (x, y) in ra.iter().zip(rb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn fd_cube_fuses_spot_scenarios_and_matches_naive_bitwise() {
        let (market, products) = fd_book();
        let cube = RiskCube::new(Pricer::new(Method::Fd1d(Fd1d::default())));
        let scenarios = vec![
            MarketDelta::Spot {
                asset: 0,
                spot: 97.0,
            },
            MarketDelta::Rate { rate: 0.06 },
            MarketDelta::Spot {
                asset: 0,
                spot: 104.5,
            },
            MarketDelta::Vol {
                asset: 0,
                vol: 0.27,
            },
        ];
        let fast = cube.price(&market, &products, &scenarios).unwrap();
        let naive = cube.price_naive(&market, &products, &scenarios).unwrap();
        assert_cubes_bitwise(&fast, &naive);
    }

    #[test]
    fn mc_cube_fuses_and_matches_naive_bitwise() {
        let market = GbmMarket::symmetric(3, 100.0, 0.25, 0.01, 0.04, 0.3).unwrap();
        let products = vec![
            Product::european(Payoff::MaxCall { strike: 105.0 }, 1.0),
            Product::european(Payoff::MinPut { strike: 95.0 }, 1.0),
        ];
        let cube = RiskCube::new(Pricer::new(Method::MonteCarlo(McConfig {
            paths: 6_000,
            block_size: 1000,
            ..Default::default()
        })));
        let scenarios = vec![
            MarketDelta::Spot {
                asset: 1,
                spot: 103.0,
            },
            MarketDelta::Vol {
                asset: 2,
                vol: 0.31,
            },
            MarketDelta::Rate { rate: 0.05 },
        ];
        let fast = cube.price(&market, &products, &scenarios).unwrap();
        assert_eq!(fast.fused_scenarios, 3);
        let naive = cube.price_naive(&market, &products, &scenarios).unwrap();
        assert_cubes_bitwise(&fast, &naive);
    }

    #[test]
    fn lattice_cube_falls_back_to_patched_plans_bitwise() {
        let market = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
        let products = vec![
            Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0),
            Product::american(
                Payoff::BasketPut {
                    weights: Product::equal_weights(2),
                    strike: 100.0,
                },
                1.0,
            ),
        ];
        let cube = RiskCube::new(Pricer::new(Method::MultiLattice { steps: 40 }));
        let scenarios = vec![
            MarketDelta::Spot {
                asset: 0,
                spot: 98.0,
            },
            MarketDelta::Vol {
                asset: 1,
                vol: 0.24,
            },
        ];
        let fast = cube.price(&market, &products, &scenarios).unwrap();
        assert_eq!(fast.fused_scenarios, 0, "lattice has no fused cube kernel");
        let naive = cube.price_naive(&market, &products, &scenarios).unwrap();
        assert_cubes_bitwise(&fast, &naive);
    }

    #[test]
    fn cube_greeks_match_pricer_greeks_bitwise_on_fd() {
        let (market, products) = fd_book();
        let pricer = Pricer::new(Method::Fd1d(Fd1d::default()));
        let cube = RiskCube::new(pricer.clone());
        let bumps = BumpConfig::default();
        let gs = cube.greeks(&market, &products, bumps).unwrap();
        for (product, g) in products.iter().zip(&gs) {
            let reference = pricer.greeks(&market, product, bumps).unwrap();
            assert_eq!(g.price.to_bits(), reference.price.to_bits());
            assert_eq!(g.delta[0].to_bits(), reference.delta[0].to_bits());
            assert_eq!(g.gamma[0].to_bits(), reference.gamma[0].to_bits());
            assert_eq!(g.vega[0].to_bits(), reference.vega[0].to_bits());
            assert_eq!(g.rho.to_bits(), reference.rho.to_bits());
        }
    }

    #[test]
    fn cube_rejects_mixed_maturities() {
        let (market, mut products) = fd_book();
        products[1].maturity = 0.5;
        let cube = RiskCube::new(Pricer::new(Method::Fd1d(Fd1d::default())));
        assert!(cube.price(&market, &products, &[]).is_err());
    }
}
