//! The engine abstraction: a uniform plan/execute split over the
//! backend crates.
//!
//! Every deterministic pricing engine in the workspace factors the same
//! way: a **plan** holds everything that depends on the market and the
//! horizon but not on the payoff (grids, operator coefficients, Thomas
//! elimination factors, Cholesky factors, spot ladders), and an
//! **execute** runs one product over the planned state. Building the
//! plan once and executing it per product amortises the setup across a
//! book — and, because every hoisted quantity is computed with exactly
//! the arithmetic the one-shot path used, a plan executed twice is
//! bitwise-identical to two one-shot `price` calls.
//!
//! [`PricingEngine`]/[`EnginePlan`] expose that shape as traits so
//! generic code (greeks bumping, calibration sweeps, the portfolio
//! batch pricer) can hold "an engine" without caring which family it
//! is. The five planful engines implement it:
//!
//! | engine | plan state |
//! |---|---|
//! | [`Fd1d`] | log grid, θ-scheme coefficients, factored tridiagonal |
//! | [`Adi2d`] | both axis operators, two factored line systems |
//! | [`Adi3d`] | three axis operators, three factored line systems |
//! | [`MultiLattice`] | branch probabilities, per-step spot ladders |
//! | [`McEngine`] | correlated stepper (Cholesky), log-spots, discount |
//!
//! The wrappers own their scratch buffers, so repeated executes reuse
//! every allocation. [`crate::Pricer`] routes through the same concrete
//! plans (see [`crate::pricer::PricerPlan`]); the traits here are the
//! extension surface.

use crate::pricer::PriceError;
use mdp_lattice::{LatticePlan, LatticeScratch, MultiLattice};
use mdp_mc::{McEngine, McPlan};
use mdp_model::{GbmMarket, MarketDelta, Product, TickOutcome};
use mdp_pde::{
    Adi2d, Adi2dPlan, Adi2dScratch, Adi3d, Adi3dPlan, Adi3dScratch, Fd1d, Fd1dPlan, Fd1dScratch,
};

/// What one engine execution produced, engine-agnostically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineOutcome {
    /// Present value.
    pub price: f64,
    /// Statistical standard error (Monte Carlo engines only).
    pub std_error: Option<f64>,
    /// Work performed, in the engine's own unit (grid-point updates,
    /// lattice node updates, simulated paths).
    pub work: u64,
}

/// A pricing engine that can compile its payoff-independent state into
/// a reusable plan.
pub trait PricingEngine {
    /// The planned form of this engine.
    type Plan: EnginePlan;

    /// Human-readable engine name (matches [`crate::Method::name`]).
    fn name(&self) -> &'static str;

    /// Build the payoff-independent plan for `market` at horizon
    /// `maturity`. All market/grid validation happens here; payoff
    /// validation happens at execute time.
    fn build_plan(&self, market: &GbmMarket, maturity: f64) -> Result<Self::Plan, PriceError>;
}

/// A compiled plan: executes one product at a time over shared state.
///
/// Contract: `plan once, execute k times` is bitwise-identical to `k`
/// one-shot prices of the same engine, and executing a product whose
/// maturity differs from [`EnginePlan::maturity`] returns a typed
/// error, never a wrong number.
pub trait EnginePlan {
    /// Horizon the plan was built for.
    fn maturity(&self) -> f64;

    /// Price one product over the planned state.
    fn execute(&mut self, product: &Product) -> Result<EngineOutcome, PriceError>;

    /// Patch the plan in place for a one-field market tick, rebuilding
    /// only the components the ticked field invalidates.
    ///
    /// Contract: after a tick the plan executes **bitwise-identically**
    /// to a plan freshly built for the ticked market. Engines report
    /// [`TickOutcome::Rebuilt`] when the cheapest sound patch was a full
    /// rebuild (e.g. a 1-D FD vol tick, which moves every grid node).
    fn apply_tick(&mut self, delta: &MarketDelta) -> Result<TickOutcome, PriceError>;

    /// Install a cooperative cancel token, polled at the engine's
    /// natural check granularity (path blocks, time steps, recursion
    /// cuts). The default is a no-op for plans without an abort point;
    /// the planful wrappers all override it. Polling never perturbs
    /// numerical state: completed runs stay bitwise-identical.
    fn set_cancel(&mut self, cancel: mdp_math::CancelToken) {
        let _ = cancel;
    }
}

/// [`Fd1dPlan`] plus its reusable solve buffers.
#[derive(Debug, Clone)]
pub struct Fd1dEnginePlan {
    /// The underlying plan (grid, coefficients, factored tridiagonal).
    pub plan: Fd1dPlan,
    scratch: Fd1dScratch,
}

impl PricingEngine for Fd1d {
    type Plan = Fd1dEnginePlan;

    fn name(&self) -> &'static str {
        "fd-1d"
    }

    fn build_plan(&self, market: &GbmMarket, maturity: f64) -> Result<Self::Plan, PriceError> {
        Ok(Fd1dEnginePlan {
            plan: self.plan(market, maturity)?,
            scratch: Fd1dScratch::default(),
        })
    }
}

impl EnginePlan for Fd1dEnginePlan {
    fn maturity(&self) -> f64 {
        self.plan.maturity()
    }

    fn execute(&mut self, product: &Product) -> Result<EngineOutcome, PriceError> {
        let r = self.plan.execute(product, &mut self.scratch)?;
        Ok(EngineOutcome {
            price: r.price,
            std_error: None,
            work: r.nodes_processed,
        })
    }

    fn apply_tick(&mut self, delta: &MarketDelta) -> Result<TickOutcome, PriceError> {
        Ok(self.plan.apply_tick(delta)?)
    }

    fn set_cancel(&mut self, cancel: mdp_math::CancelToken) {
        self.plan.set_cancel(cancel);
    }
}

/// [`Adi2dPlan`] plus its reusable sweep buffers.
#[derive(Debug, Clone)]
pub struct Adi2dEnginePlan {
    /// The underlying plan (axis operators, factored line systems).
    pub plan: Adi2dPlan,
    scratch: Adi2dScratch,
}

impl PricingEngine for Adi2d {
    type Plan = Adi2dEnginePlan;

    fn name(&self) -> &'static str {
        "adi-2d"
    }

    fn build_plan(&self, market: &GbmMarket, maturity: f64) -> Result<Self::Plan, PriceError> {
        Ok(Adi2dEnginePlan {
            plan: self.plan(market, maturity)?,
            scratch: Adi2dScratch::default(),
        })
    }
}

impl EnginePlan for Adi2dEnginePlan {
    fn maturity(&self) -> f64 {
        self.plan.maturity()
    }

    fn execute(&mut self, product: &Product) -> Result<EngineOutcome, PriceError> {
        let r = self.plan.execute(product, &mut self.scratch)?;
        Ok(EngineOutcome {
            price: r.price,
            std_error: None,
            work: r.nodes_processed,
        })
    }

    fn apply_tick(&mut self, delta: &MarketDelta) -> Result<TickOutcome, PriceError> {
        Ok(self.plan.apply_tick(delta)?)
    }

    fn set_cancel(&mut self, cancel: mdp_math::CancelToken) {
        self.plan.set_cancel(cancel);
    }
}

/// [`Adi3dPlan`] plus its reusable stage cubes and panel buffers.
#[derive(Debug, Clone)]
pub struct Adi3dEnginePlan {
    /// The underlying plan (three axis operators, factored line systems).
    pub plan: Adi3dPlan,
    scratch: Adi3dScratch,
}

impl PricingEngine for Adi3d {
    type Plan = Adi3dEnginePlan;

    fn name(&self) -> &'static str {
        "adi-3d"
    }

    fn build_plan(&self, market: &GbmMarket, maturity: f64) -> Result<Self::Plan, PriceError> {
        Ok(Adi3dEnginePlan {
            plan: self.plan(market, maturity)?,
            scratch: Adi3dScratch::default(),
        })
    }
}

impl EnginePlan for Adi3dEnginePlan {
    fn maturity(&self) -> f64 {
        self.plan.maturity()
    }

    fn execute(&mut self, product: &Product) -> Result<EngineOutcome, PriceError> {
        let r = self.plan.execute(product, &mut self.scratch)?;
        Ok(EngineOutcome {
            price: r.price,
            std_error: None,
            work: r.nodes_processed,
        })
    }

    fn apply_tick(&mut self, delta: &MarketDelta) -> Result<TickOutcome, PriceError> {
        Ok(self.plan.apply_tick(delta)?)
    }

    fn set_cancel(&mut self, cancel: mdp_math::CancelToken) {
        self.plan.set_cancel(cancel);
    }
}

/// [`LatticePlan`] plus its reusable ping-pong value buffers.
#[derive(Debug, Clone)]
pub struct LatticeEnginePlan {
    /// The underlying plan (probabilities, spot ladders).
    pub plan: LatticePlan,
    /// Backward induction runs rayon-parallel slabs when set.
    pub parallel: bool,
    scratch: LatticeScratch,
}

impl PricingEngine for MultiLattice {
    type Plan = LatticeEnginePlan;

    fn name(&self) -> &'static str {
        "beg-lattice"
    }

    fn build_plan(&self, market: &GbmMarket, maturity: f64) -> Result<Self::Plan, PriceError> {
        Ok(LatticeEnginePlan {
            plan: self.plan(market, maturity)?,
            parallel: false,
            scratch: LatticeScratch::default(),
        })
    }
}

impl EnginePlan for LatticeEnginePlan {
    fn maturity(&self) -> f64 {
        self.plan.maturity()
    }

    fn execute(&mut self, product: &Product) -> Result<EngineOutcome, PriceError> {
        let r = self
            .plan
            .execute(product, self.parallel, &mut self.scratch)?;
        Ok(EngineOutcome {
            price: r.price,
            std_error: None,
            work: r.nodes_processed,
        })
    }

    fn apply_tick(&mut self, delta: &MarketDelta) -> Result<TickOutcome, PriceError> {
        Ok(self.plan.apply_tick(delta)?)
    }

    fn set_cancel(&mut self, cancel: mdp_math::CancelToken) {
        self.plan.set_cancel(cancel);
    }
}

/// [`McPlan`] in engine-trait clothing.
#[derive(Debug, Clone)]
pub struct McEnginePlan {
    /// The underlying plan (stepper, log-spots, discount).
    pub plan: McPlan,
    /// Blocks run rayon-parallel when set (bitwise-identical either way).
    pub parallel: bool,
}

impl PricingEngine for McEngine {
    type Plan = McEnginePlan;

    fn name(&self) -> &'static str {
        "monte-carlo"
    }

    fn build_plan(&self, market: &GbmMarket, maturity: f64) -> Result<Self::Plan, PriceError> {
        Ok(McEnginePlan {
            plan: self.plan(market, maturity)?,
            parallel: false,
        })
    }
}

impl EnginePlan for McEnginePlan {
    fn maturity(&self) -> f64 {
        self.plan.maturity()
    }

    fn execute(&mut self, product: &Product) -> Result<EngineOutcome, PriceError> {
        let r = if self.parallel {
            self.plan.execute_rayon(product)?
        } else {
            self.plan.execute(product)?
        };
        Ok(EngineOutcome {
            price: r.price,
            std_error: Some(r.std_error),
            work: r.paths,
        })
    }

    fn apply_tick(&mut self, delta: &MarketDelta) -> Result<TickOutcome, PriceError> {
        Ok(self.plan.apply_tick(delta)?)
    }

    fn set_cancel(&mut self, cancel: mdp_math::CancelToken) {
        self.plan.set_cancel(cancel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdp_mc::McConfig;
    use mdp_model::Payoff;

    fn run_twice<E: PricingEngine>(
        engine: &E,
        market: &GbmMarket,
        product: &Product,
    ) -> (EngineOutcome, EngineOutcome) {
        let mut plan = engine.build_plan(market, product.maturity).unwrap();
        assert_eq!(plan.maturity(), product.maturity);
        let a = plan.execute(product).unwrap();
        let b = plan.execute(product).unwrap();
        (a, b)
    }

    #[test]
    fn every_engine_plan_is_reusable_and_deterministic() {
        let m1 = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
        let p1 = Product::european(
            Payoff::BasketCall {
                weights: vec![1.0],
                strike: 100.0,
            },
            1.0,
        );
        let m2 = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
        let p2 = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);

        let (a, b) = run_twice(&Fd1d::default(), &m1, &p1);
        assert_eq!(a.price.to_bits(), b.price.to_bits());
        let (a, b) = run_twice(&Adi2d::default(), &m2, &p2);
        assert_eq!(a.price.to_bits(), b.price.to_bits());
        let m3 = GbmMarket::symmetric(3, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
        let p3 = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
        let (a, b) = run_twice(
            &Adi3d {
                space_points: 15,
                time_steps: 8,
                ..Default::default()
            },
            &m3,
            &p3,
        );
        assert_eq!(a.price.to_bits(), b.price.to_bits());
        let (a, b) = run_twice(&MultiLattice::new(32), &m2, &p2);
        assert_eq!(a.price.to_bits(), b.price.to_bits());
        let (a, b) = run_twice(
            &McEngine::new(McConfig {
                paths: 5_000,
                ..Default::default()
            }),
            &m2,
            &p2,
        );
        assert_eq!(a.price.to_bits(), b.price.to_bits());
        assert_eq!(a.std_error, b.std_error);
    }

    #[test]
    fn plan_rejects_wrong_maturity_with_typed_error() {
        let m = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
        let p_half = Product::european(
            Payoff::BasketCall {
                weights: vec![1.0],
                strike: 100.0,
            },
            0.5,
        );
        let mut plan = Fd1d::default().build_plan(&m, 1.0).unwrap();
        assert!(plan.execute(&p_half).is_err());
    }
}
