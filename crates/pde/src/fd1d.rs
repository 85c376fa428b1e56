//! One-dimensional finite-difference θ-schemes on the log-spot grid.
//!
//! The Black–Scholes PDE in `x = ln S` (backward time τ = T − t):
//!
//! ```text
//! V_τ = ½σ² V_xx + (r − q − ½σ²) V_x − r V
//! ```
//!
//! * **Explicit** (θ=0) — conditionally stable (`σ²Δτ/Δx² ≤ ½`, checked)
//!   but embarrassingly parallel per step: the classic 2002-era choice
//!   for distributed PDE sweeps.
//! * **Crank–Nicolson** (θ=½) — unconditionally stable, second-order,
//!   one tridiagonal solve per step against the plan's Thomas factors.
//!
//! Boundary conditions are Dirichlet with discounted intrinsic — exact
//! for vanilla calls/puts at a 5-standard-deviation boundary to far
//! beyond the accuracy of interest.
//!
//! American exercise: either pointwise **projection** (fast, slightly
//! biased) or **PSOR** (projected SOR, solves the LCP properly).
//!
//! A Crank–Nicolson step (except PSOR Americans) is two sweeps over the
//! line ([`FactoredTridiag::forward`] / [`FactoredTridiag::backward`]):
//! the forward sweep builds each right-hand-side row from the previous
//! level and eliminates it; the backward sweep substitutes, applies the
//! projection floor and writes the new level. Every row sees the
//! arithmetic of a build-RHS, solve, project, copy sequence, so prices
//! are bitwise those of the four-pass step.

use crate::grid::{check_width, LogGrid};
use crate::stencil::{StencilKernel, TrapezoidSweep};
use crate::PdeError;
use mdp_math::linalg::tridiag::{FactoredTridiag, Tridiag};
use mdp_model::{ExerciseStyle, GbmMarket, MarketDelta, Product, TickOutcome};

/// Time-stepping scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Fully explicit (θ = 0).
    Explicit,
    /// Crank–Nicolson (θ = ½).
    CrankNicolson,
}

/// How American exercise is imposed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AmericanMethod {
    /// Pointwise projection `V ← max(V, intrinsic)` after each step.
    #[default]
    Projection,
    /// Projected SOR on the CN system (LCP-correct).
    Psor {
        /// Relaxation factor ω ∈ (1, 2).
        omega: f64,
        /// Convergence tolerance on the sup-norm update.
        tol: f64,
        /// Iteration cap per time step.
        max_iter: usize,
    },
}

/// Configuration of a 1-D finite-difference run.
#[derive(Debug, Clone, Copy)]
pub struct Fd1d {
    /// Spatial points.
    pub space_points: usize,
    /// Time steps.
    pub time_steps: usize,
    /// Domain half-width in standard deviations.
    pub width: f64,
    /// θ-scheme.
    pub scheme: Scheme,
    /// American treatment (ignored for European products).
    pub american: AmericanMethod,
    /// Explicit-sweep driver (θ = 0 only; the implicit schemes always
    /// step level by level through their line solves).
    pub stencil: StencilKernel,
}

impl Default for Fd1d {
    fn default() -> Self {
        Fd1d {
            space_points: 401,
            time_steps: 400,
            width: 5.0,
            scheme: Scheme::CrankNicolson,
            american: AmericanMethod::Projection,
            stencil: StencilKernel::Trapezoid,
        }
    }
}

/// Result of a 1-D finite-difference run.
#[derive(Debug, Clone)]
pub struct Fd1dResult {
    /// Present value at the spot.
    pub price: f64,
    /// The full value function on the grid at t=0 (for Greeks/plots).
    pub values: Vec<f64>,
    /// The grid used.
    pub grid: LogGrid,
    /// Grid-point updates performed (work accounting).
    pub nodes_processed: u64,
}

/// Planned state of a 1-D finite-difference run: everything that depends
/// on the market and the grid geometry but **not** on the payoff — the
/// log-spot grid, the spatial operator coefficients, the Crank–Nicolson
/// tridiagonal and its Thomas elimination factors. Build once with
/// [`Fd1d::plan`], execute per product with [`Fd1dPlan::execute`] (or for
/// a whole strike ladder at once with [`Fd1dPlan::execute_ladder`]).
///
/// A plan executed twice is bitwise-identical to two one-shot
/// [`Fd1d::price`] calls: the hoisted quantities are computed with
/// exactly the arithmetic the one-shot path used.
#[derive(Debug, Clone)]
pub struct Fd1dPlan {
    cfg: Fd1d,
    market: GbmMarket,
    maturity: f64,
    grid: LogGrid,
    spots: Vec<f64>,
    dt: f64,
    r: f64,
    theta: f64,
    a: f64,
    b: f64,
    c: f64,
    lhs: Tridiag,
    factored: Option<FactoredTridiag>,
    /// Cooperative cancellation, polled once per time step (and at
    /// trapezoid recursion cuts). Inert by default; the serving layer
    /// installs a live token per request.
    cancel: mdp_math::CancelToken,
}

/// Reusable per-run buffers for [`Fd1dPlan::execute`], sized lazily on
/// first use.
#[derive(Debug, Default, Clone)]
pub struct Fd1dScratch {
    /// Payoff at every node.
    intrinsic: Vec<f64>,
    /// Right-hand side of the explicit step-by-step and PSOR steps.
    rhs: Vec<f64>,
    /// Interior line: the forward sweep's `d'` then the solution (two-
    /// sweep steps), or the new interior (explicit and PSOR steps).
    sol: Vec<f64>,
    /// Per-level Dirichlet discount table for the trapezoid driver.
    df: Vec<f64>,
    /// Second parity buffer of the trapezoid driver.
    pong: Vec<f64>,
}

/// Reusable buffers for [`Fd1dPlan::execute_ladder`]: the lane-major
/// value/intrinsic panels and the multi-RHS panel handed to
/// [`FactoredTridiag::solve_panel_transposed`].
#[derive(Debug, Default, Clone)]
pub struct Fd1dLadderScratch {
    values: Vec<f64>,
    intrinsic: Vec<f64>,
    rhs: Vec<f64>,
    lo_b: Vec<f64>,
    hi_b: Vec<f64>,
    american: Vec<bool>,
}

/// Result of a fused multi-product ladder run.
#[derive(Debug, Clone)]
pub struct Fd1dLadderResult {
    /// Present value per product, in input order — each bitwise-equal to
    /// the corresponding one-shot [`Fd1d::price`].
    pub prices: Vec<f64>,
    /// Grid-point updates across all lanes.
    pub nodes_processed: u64,
}

impl Fd1d {
    /// Build the payoff-independent plan for this configuration on a
    /// market with horizon `maturity`: grid, operator coefficients,
    /// stability check and the factored Crank–Nicolson system.
    pub fn plan(&self, market: &GbmMarket, maturity: f64) -> Result<Fd1dPlan, PdeError> {
        if market.dim() != 1 {
            return Err(PdeError::Model(mdp_model::ModelError::DimensionMismatch {
                product: 1,
                market: market.dim(),
            }));
        }
        let m = self.space_points;
        let n = self.time_steps;
        if m < 3 || n < 1 {
            return Err(PdeError::GridTooSmall { space: m, time: n });
        }
        if !maturity.is_finite() || maturity <= 0.0 {
            return Err(PdeError::Model(mdp_model::ModelError::InvalidParameter {
                what: "maturity",
                value: maturity,
            }));
        }
        check_width(self.width)?;
        let sigma = market.vols()[0];
        let r = market.rate();
        let mu = market.log_drift(0); // r − q − σ²/2
        let grid = LogGrid::new(market.spots()[0], sigma, maturity, self.width, m);
        let dx = grid.dx;
        let dt = maturity / n as f64;

        let (a, b, c) = operator_coefficients(sigma, r, mu, dx);

        if self.scheme == Scheme::Explicit {
            let ratio = sigma * sigma * dt / (dx * dx);
            if ratio > 0.5 + 1e-12 {
                return Err(PdeError::Unstable { ratio });
            }
        }

        // Precompute the CN tridiagonal (I − θΔt·L) on interior points
        // and factor its Thomas elimination once; every execute reuses
        // the factors (bitwise-equal to the fused per-run sweep). The
        // explicit scheme never solves it.
        let theta = match self.scheme {
            Scheme::Explicit => 0.0,
            Scheme::CrankNicolson => 0.5,
        };
        let (lhs, factored) = implicit_system(theta, dt, a, b, c, m, n)?;
        let spots = grid.spots();
        Ok(Fd1dPlan {
            cfg: *self,
            market: market.clone(),
            maturity,
            grid,
            spots,
            dt,
            r,
            theta,
            a,
            b,
            c,
            lhs,
            factored,
            cancel: mdp_math::CancelToken::never(),
        })
    }

    /// Price a single-asset, non-path-dependent product — a thin
    /// plan-then-execute wrapper around [`Fd1d::plan`].
    pub fn price(&self, market: &GbmMarket, product: &Product) -> Result<Fd1dResult, PdeError> {
        product.validate_for(market)?;
        let plan = self.plan(market, product.maturity)?;
        plan.execute(product, &mut Fd1dScratch::default())
    }
}

/// Spatial operator coefficients `a·V_{i−1} + b·V_i + c·V_{i+1}`.
///
/// Shared by fresh plans and rate-tick patches so both paths produce
/// bit-identical coefficients from equal inputs.
fn operator_coefficients(sigma: f64, r: f64, mu: f64, dx: f64) -> (f64, f64, f64) {
    let diff = 0.5 * sigma * sigma / (dx * dx);
    let conv = 0.5 * mu / dx;
    (diff - conv, -2.0 * diff - r, diff + conv)
}

/// The θ-scheme system `(I − θΔt·L)` on interior points and its Thomas
/// factors (`None` for the explicit scheme, which never solves it).
/// Band construction is shared with the ADI stages through
/// [`mdp_math::linalg::theta_system`].
fn implicit_system(
    theta: f64,
    dt: f64,
    a: f64,
    b: f64,
    c: f64,
    m: usize,
    n: usize,
) -> Result<(Tridiag, Option<FactoredTridiag>), PdeError> {
    let lhs = mdp_math::linalg::theta_system(theta, dt, a, b, c, m - 2);
    let factored = if theta != 0.0 {
        Some(
            lhs.factor()
                .map_err(|_| PdeError::GridTooSmall { space: m, time: n })?,
        )
    } else {
        None
    };
    Ok((lhs, factored))
}

impl Fd1dPlan {
    /// Install a cooperative cancel token, polled once per time step
    /// (and at trapezoid recursion cuts); a tripped token aborts the
    /// run with [`PdeError::Cancelled`]. Runs that complete are
    /// bitwise-identical to runs without a token.
    pub fn set_cancel(&mut self, cancel: mdp_math::CancelToken) {
        self.cancel = cancel;
    }

    /// The grid the plan solves on.
    pub fn grid(&self) -> &LogGrid {
        &self.grid
    }

    /// The market snapshot the plan currently prices on (kept in sync
    /// by [`Fd1dPlan::apply_tick`]).
    pub fn market(&self) -> &GbmMarket {
        &self.market
    }

    /// Absorb one market tick, rebuilding only the plan components the
    /// ticked field invalidates:
    ///
    /// * **Spot** — the log-grid spacing `dx` depends on σ, T, the
    ///   domain width and the point count but *not* the spot, so the
    ///   operator coefficients, the θ-scheme tridiagonal and its Thomas
    ///   factors all survive; only the node placement (and thus the
    ///   spot ladder) moves.
    /// * **Rate** — the grid survives; the operator coefficients and
    ///   the factored system are rebuilt.
    /// * **Vol** — changes `dx` itself: full rebuild.
    /// * **Correlation** — vacuous at d = 1: the snapshot is swapped,
    ///   nothing rebuilt.
    ///
    /// The patched plan is **bitwise-equal** to `cfg.plan(&ticked
    /// market, maturity)`: every rebuilt component goes through the
    /// same arithmetic the fresh-plan path uses, and every surviving
    /// component is provably independent of the ticked field.
    pub fn apply_tick(&mut self, delta: &MarketDelta) -> Result<TickOutcome, PdeError> {
        let market = self.market.apply_delta(delta).map_err(PdeError::Model)?;
        match delta {
            MarketDelta::Spot { .. } => {
                self.grid = LogGrid::new(
                    market.spots()[0],
                    market.vols()[0],
                    self.maturity,
                    self.cfg.width,
                    self.cfg.space_points,
                );
                self.spots = self.grid.spots();
                self.market = market;
                Ok(TickOutcome::Patched)
            }
            MarketDelta::Rate { .. } => {
                let sigma = market.vols()[0];
                let r = market.rate();
                let mu = market.log_drift(0);
                let (a, b, c) = operator_coefficients(sigma, r, mu, self.grid.dx);
                let (lhs, factored) = implicit_system(
                    self.theta,
                    self.dt,
                    a,
                    b,
                    c,
                    self.cfg.space_points,
                    self.cfg.time_steps,
                )?;
                self.r = r;
                self.a = a;
                self.b = b;
                self.c = c;
                self.lhs = lhs;
                self.factored = factored;
                self.market = market;
                Ok(TickOutcome::Patched)
            }
            MarketDelta::Correlation { .. } => {
                self.market = market;
                Ok(TickOutcome::Patched)
            }
            MarketDelta::Vol { .. } => {
                *self = self.cfg.plan(&market, self.maturity)?;
                Ok(TickOutcome::Rebuilt)
            }
        }
    }

    /// Horizon the plan was built for.
    pub fn maturity(&self) -> f64 {
        self.maturity
    }

    fn check_product(&self, product: &Product) -> Result<(), PdeError> {
        product.validate_for(&self.market)?;
        if product.payoff.is_path_dependent() {
            return Err(PdeError::Model(mdp_model::ModelError::Unsupported {
                engine: "1-D finite differences",
                why: "path-dependent payoff".into(),
            }));
        }
        if product.maturity != self.maturity {
            return Err(PdeError::Model(mdp_model::ModelError::Unsupported {
                engine: "1-D finite differences",
                why: format!(
                    "plan built for maturity {}, product has {}",
                    self.maturity, product.maturity
                ),
            }));
        }
        Ok(())
    }

    /// Run the planned scheme for one product. Bitwise-identical to the
    /// one-shot [`Fd1d::price`] on the same inputs, however many times
    /// the plan is executed.
    pub fn execute(
        &self,
        product: &Product,
        scratch: &mut Fd1dScratch,
    ) -> Result<Fd1dResult, PdeError> {
        self.check_product(product)?;
        let m = self.cfg.space_points;
        let (dt, r, theta) = (self.dt, self.r, self.theta);
        let (a, b, c) = (self.a, self.b, self.c);
        let american = product.exercise == ExerciseStyle::American;
        let interior = m - 2;

        scratch.intrinsic.clear();
        scratch
            .intrinsic
            .extend(self.spots.iter().map(|&s| product.payoff.eval(&[s])));
        let intrinsic = &scratch.intrinsic;
        let mut values = intrinsic.clone();
        let mut nodes = m as u64;
        let n = self.cfg.time_steps;

        let psor_params = match self.cfg.american {
            AmericanMethod::Psor {
                omega,
                tol,
                max_iter,
            } if american => Some((omega, tol, max_iter)),
            _ => None,
        };
        if theta == 0.0 && self.cfg.stencil == StencilKernel::Trapezoid {
            // Cache-oblivious trapezoid driver for the explicit scheme:
            // same per-point arithmetic as the step-by-step loop below
            // (see `crate::stencil`), so the result is bitwise-equal —
            // only the traversal order over independent work differs.
            scratch.df.clear();
            scratch.df.reserve(n + 1);
            scratch.df.push(1.0);
            for step in 1..=n {
                let tau = step as f64 * dt;
                scratch.df.push((-r * tau).exp());
            }
            scratch.pong.resize(m, 0.0);
            let sweep = TrapezoidSweep {
                m,
                dt,
                a,
                b,
                c,
                intrinsic,
                df: &scratch.df,
                american,
                cancel: &self.cancel,
            };
            if !sweep.run(n, &mut values, &mut scratch.pong) {
                return Err(PdeError::Cancelled);
            }
            if n % 2 == 1 {
                values.copy_from_slice(&scratch.pong);
            }
            nodes += (n * m) as u64;
        } else if theta != 0.0 && psor_params.is_none() {
            // Crank–Nicolson: two sweeps per step.
            let factored = self
                .factored
                .as_ref()
                .expect("factored at plan time when θ ≠ 0");
            let sweep = ThetaSweep { theta, dt, a, b, c };
            let floor = american.then_some(intrinsic.as_slice());
            scratch.sol.resize(interior, 0.0);
            for step in 1..=n {
                if self.cancel.is_cancelled() {
                    return Err(PdeError::Cancelled);
                }
                let tau = step as f64 * dt;
                let df = (-r * tau).exp();
                let bounds = (df * intrinsic[0], df * intrinsic[m - 1]);
                sweep.step(factored, &mut values, &mut scratch.sol, bounds, floor);
                nodes += m as u64;
            }
        } else {
            // Explicit step-by-step, and PSOR Americans.
            scratch.rhs.resize(interior, 0.0);
            scratch.sol.resize(interior, 0.0);
            let (rhs, sol) = (&mut scratch.rhs, &mut scratch.sol);
            for step in 1..=n {
                if self.cancel.is_cancelled() {
                    return Err(PdeError::Cancelled);
                }
                let tau = step as f64 * dt;
                // Dirichlet boundaries: discounted intrinsic.
                let df = (-r * tau).exp();
                let lo_b = df * intrinsic[0];
                let hi_b = df * intrinsic[m - 1];
                // RHS = (I + (1−θ)Δt·L) V^k, with boundary contributions.
                for i in 0..interior {
                    let vm = values[i];
                    let v0 = values[i + 1];
                    let vp = values[i + 2];
                    rhs[i] = v0 + (1.0 - theta) * dt * (a * vm + b * v0 + c * vp);
                }
                rhs[0] += theta * dt * a * lo_b;
                rhs[interior - 1] += theta * dt * c * hi_b;

                if theta == 0.0 {
                    sol.copy_from_slice(rhs);
                } else {
                    let (omega, tol, max_iter) =
                        psor_params.expect("θ ≠ 0 steps here only for PSOR Americans");
                    // Warm-start PSOR from the previous time level.
                    sol.copy_from_slice(&values[1..m - 1]);
                    psor(
                        &self.lhs,
                        rhs,
                        &intrinsic[1..m - 1],
                        omega,
                        tol,
                        max_iter,
                        sol,
                    )?;
                }

                values[0] = if american {
                    intrinsic[0].max(lo_b)
                } else {
                    lo_b
                };
                values[m - 1] = if american {
                    intrinsic[m - 1].max(hi_b)
                } else {
                    hi_b
                };
                values[1..m - 1].copy_from_slice(sol);
                if american && theta == 0.0 {
                    for (v, &intr) in values.iter_mut().zip(intrinsic) {
                        *v = v.max(intr);
                    }
                }
                nodes += m as u64;
            }
        }

        Ok(Fd1dResult {
            price: values[self.grid.center],
            values,
            grid: self.grid.clone(),
            nodes_processed: nodes,
        })
    }

    /// Fused multi-product run: price every product of a ladder in **one
    /// backward sweep**, carrying one lane per product through a
    /// lane-major value panel and solving all lanes' tridiagonal systems
    /// per step with one multi-RHS panel solve
    /// ([`FactoredTridiag::solve_panel_transposed`]).
    ///
    /// All products must share the plan's maturity; the PSOR American
    /// treatment is rejected (its iteration count is payoff-dependent —
    /// those products go through [`Fd1dPlan::execute`] instead). Every
    /// lane performs exactly the per-element arithmetic of
    /// [`Fd1dPlan::execute`], so each price is **bitwise-identical** to
    /// its one-shot counterpart.
    ///
    /// A one-product ladder runs [`Fd1dPlan::execute`] itself: at one
    /// lane the panel has nothing to vectorise across and costs more
    /// than the scalar two-sweep kernel. Two or more lanes take the
    /// panel.
    pub fn execute_ladder(
        &self,
        products: &[Product],
        scratch: &mut Fd1dLadderScratch,
    ) -> Result<Fd1dLadderResult, PdeError> {
        let w = products.len();
        if w == 0 {
            return Ok(Fd1dLadderResult {
                prices: Vec::new(),
                nodes_processed: 0,
            });
        }
        let m = self.cfg.space_points;

        scratch.american.clear();
        for product in products {
            self.check_product(product)?;
            let am = product.exercise == ExerciseStyle::American;
            if am && matches!(self.cfg.american, AmericanMethod::Psor { .. }) {
                return Err(PdeError::Model(mdp_model::ModelError::Unsupported {
                    engine: "1-D finite differences",
                    why: "PSOR products cannot join a fused ladder".into(),
                }));
            }
            scratch.american.push(am);
        }
        if let [product] = products {
            let one = self.execute(product, &mut Fd1dScratch::default())?;
            return Ok(Fd1dLadderResult {
                prices: vec![one.price],
                nodes_processed: one.nodes_processed,
            });
        }

        // Lane-major panels: element (i, lane) lives at i·w + lane, the
        // transposed layout the panel solver sweeps stride-1.
        scratch.intrinsic.resize(m * w, 0.0);
        for (lane, product) in products.iter().enumerate() {
            for (i, &s) in self.spots.iter().enumerate() {
                scratch.intrinsic[i * w + lane] = product.payoff.eval(&[s]);
            }
        }
        let nodes = self.sweep_panel(w, scratch)?;
        let prices = (0..w)
            .map(|lane| scratch.values[self.grid.center * w + lane])
            .collect();
        Ok(Fd1dLadderResult {
            prices,
            nodes_processed: nodes,
        })
    }

    /// Fused spot-scenario cube: price every product under every spot
    /// scenario of the single asset in **one** backward sweep, with one
    /// lane per `(scenario, product)` pair.
    ///
    /// A spot tick leaves the grid spacing, the operator coefficients
    /// and the Thomas factors untouched ([`Fd1dPlan::apply_tick`]);
    /// scenario lanes differ only through their shifted node placement
    /// and hence their intrinsic panel — exactly like extra strikes in
    /// a ladder. Every lane performs the per-element arithmetic of
    /// [`Fd1dPlan::execute`] on a spot-ticked plan, so each price is
    /// **bitwise-identical** to re-planning at that spot and executing,
    /// while the factorisation and the sweep are paid once.
    ///
    /// Returns prices scenario-major: `prices[k * products.len() + j]`
    /// is product `j` under `scenario_spots[k]`.
    pub fn execute_spot_cube(
        &self,
        products: &[Product],
        scenario_spots: &[f64],
        scratch: &mut Fd1dLadderScratch,
    ) -> Result<Fd1dLadderResult, PdeError> {
        let np = products.len();
        let w = np * scenario_spots.len();
        if w == 0 {
            return Ok(Fd1dLadderResult {
                prices: Vec::new(),
                nodes_processed: 0,
            });
        }
        let m = self.cfg.space_points;
        scratch.american.clear();
        for _ in scenario_spots {
            for product in products {
                self.check_product(product)?;
                let am = product.exercise == ExerciseStyle::American;
                if am && matches!(self.cfg.american, AmericanMethod::Psor { .. }) {
                    return Err(PdeError::Model(mdp_model::ModelError::Unsupported {
                        engine: "1-D finite differences",
                        why: "PSOR products cannot join a fused ladder".into(),
                    }));
                }
                scratch.american.push(am);
            }
        }
        scratch.intrinsic.resize(m * w, 0.0);
        for (k, &spot) in scenario_spots.iter().enumerate() {
            if !(spot > 0.0 && spot.is_finite()) {
                return Err(PdeError::Model(mdp_model::ModelError::InvalidParameter {
                    what: "spot",
                    value: spot,
                }));
            }
            // The scenario's node ladder: same dx (spot-independent),
            // recentred on the scenario spot — what apply_tick rebuilds.
            let grid = LogGrid::new(
                spot,
                self.market.vols()[0],
                self.maturity,
                self.cfg.width,
                m,
            );
            let spots = grid.spots();
            for (j, product) in products.iter().enumerate() {
                let lane = k * np + j;
                for (i, &s) in spots.iter().enumerate() {
                    scratch.intrinsic[i * w + lane] = product.payoff.eval(&[s]);
                }
            }
        }
        let nodes = self.sweep_panel(w, scratch)?;
        let prices = (0..w)
            .map(|lane| scratch.values[self.grid.center * w + lane])
            .collect();
        Ok(Fd1dLadderResult {
            prices,
            nodes_processed: nodes,
        })
    }

    /// The fused backward θ-sweep over a `w`-lane panel whose intrinsic
    /// surface is already in `scratch.intrinsic` (lane-major, `m·w`)
    /// and whose exercise flags are in `scratch.american`. Fills
    /// `scratch.values` with the t=0 surface; returns nodes processed.
    fn sweep_panel(&self, w: usize, scratch: &mut Fd1dLadderScratch) -> Result<u64, PdeError> {
        let m = self.cfg.space_points;
        let (dt, r, theta) = (self.dt, self.r, self.theta);
        let (a, b, c) = (self.a, self.b, self.c);
        let interior = m - 2;
        scratch.values.clear();
        scratch.values.extend_from_slice(&scratch.intrinsic);
        scratch.rhs.resize(interior * w, 0.0);
        scratch.lo_b.resize(w, 0.0);
        scratch.hi_b.resize(w, 0.0);
        let intrinsic = &scratch.intrinsic;
        let values = &mut scratch.values;
        let rhs = &mut scratch.rhs;
        let (lo_b, hi_b) = (&mut scratch.lo_b, &mut scratch.hi_b);
        let american = &scratch.american;

        let mut nodes = (m * w) as u64;
        for step in 1..=self.cfg.time_steps {
            if self.cancel.is_cancelled() {
                return Err(PdeError::Cancelled);
            }
            let tau = step as f64 * dt;
            let df = (-r * tau).exp();
            for lane in 0..w {
                lo_b[lane] = df * intrinsic[lane];
                hi_b[lane] = df * intrinsic[(m - 1) * w + lane];
            }
            // RHS build: identical per-lane expression, vectorised
            // across the stride-1 lane axis.
            for i in 0..interior {
                let (vm, rest) = values[i * w..(i + 3) * w].split_at(w);
                let (v0, vp) = rest.split_at(w);
                let out = &mut rhs[i * w..(i + 1) * w];
                for lane in 0..w {
                    out[lane] = v0[lane]
                        + (1.0 - theta) * dt * (a * vm[lane] + b * v0[lane] + c * vp[lane]);
                }
            }
            for lane in 0..w {
                rhs[lane] += theta * dt * a * lo_b[lane];
                rhs[(interior - 1) * w + lane] += theta * dt * c * hi_b[lane];
            }

            // One panel solve for every lane (explicit scheme: the RHS
            // already is the new interior).
            if theta != 0.0 {
                self.factored
                    .as_ref()
                    .expect("factored at plan time when θ ≠ 0")
                    .solve_panel_transposed(rhs);
            }

            for lane in 0..w {
                if american[lane] && matches!(self.cfg.american, AmericanMethod::Projection) {
                    for i in 0..interior {
                        let intr = intrinsic[(i + 1) * w + lane];
                        let v = &mut rhs[i * w + lane];
                        *v = v.max(intr);
                    }
                }
                values[lane] = if american[lane] {
                    intrinsic[lane].max(lo_b[lane])
                } else {
                    lo_b[lane]
                };
                values[(m - 1) * w + lane] = if american[lane] {
                    intrinsic[(m - 1) * w + lane].max(hi_b[lane])
                } else {
                    hi_b[lane]
                };
            }
            values[w..(m - 1) * w].copy_from_slice(rhs);
            for lane in 0..w {
                if american[lane] && theta == 0.0 {
                    for i in 0..m {
                        let intr = intrinsic[i * w + lane];
                        let v = &mut values[i * w + lane];
                        *v = v.max(intr);
                    }
                }
            }
            nodes += (m * w) as u64;
        }
        Ok(nodes)
    }
}

/// A θ-scheme line operator `L V_i = a·V_{i−1} + b·V_i + c·V_{i+1}`
/// stepped by `dt` with implicit weight `theta` ≠ 0.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ThetaSweep {
    pub(crate) theta: f64,
    pub(crate) dt: f64,
    pub(crate) a: f64,
    pub(crate) b: f64,
    pub(crate) c: f64,
}

impl ThetaSweep {
    /// Advance the whole line `values` one time step in two sweeps
    /// against `factored`, the Thomas factors of `(I − θΔt·L)` on the
    /// interior; `dp` is interior-sized working space.
    ///
    /// The forward sweep builds each row of
    /// `(I + (1−θ)Δt·L) V^k` plus the Dirichlet terms of `bounds` (the
    /// new level's `(low, high)` boundary values) and eliminates it.
    /// The backward sweep substitutes and writes each node, floored by
    /// `floor` when given (American projection), and then the two
    /// boundaries. Bitwise-equal to building the right-hand side,
    /// solving, projecting and copying in separate passes.
    pub(crate) fn step(
        &self,
        factored: &FactoredTridiag,
        values: &mut [f64],
        dp: &mut [f64],
        (lo_b, hi_b): (f64, f64),
        floor: Option<&[f64]>,
    ) {
        let Self { theta, dt, a, b, c } = *self;
        let m = values.len();
        let last = dp.len() - 1;
        let lo_term = theta * dt * a * lo_b;
        let hi_term = theta * dt * c * hi_b;
        factored.forward(dp, |i| {
            let (vm, v0, vp) = (values[i], values[i + 1], values[i + 2]);
            let mut d = v0 + (1.0 - theta) * dt * (a * vm + b * v0 + c * vp);
            // Both terms land on one row when the interior is one point.
            if i == 0 {
                d += lo_term;
            }
            if i == last {
                d += hi_term;
            }
            d
        });
        match floor {
            Some(floor) => {
                factored.backward(dp, |i, x| values[i + 1] = x.max(floor[i + 1]));
                values[0] = floor[0].max(lo_b);
                values[m - 1] = floor[m - 1].max(hi_b);
            }
            None => {
                factored.backward(dp, |i, x| values[i + 1] = x);
                values[0] = lo_b;
                values[m - 1] = hi_b;
            }
        }
    }
}

/// Projected SOR for `A x = b` subject to `x ≥ floor`.
///
/// `x` holds the warm start on entry and the solution on exit.
fn psor(
    a: &Tridiag,
    b: &[f64],
    floor: &[f64],
    omega: f64,
    tol: f64,
    max_iter: usize,
    x: &mut [f64],
) -> Result<(), PdeError> {
    let n = b.len();
    for it in 0..max_iter {
        let mut delta: f64 = 0.0;
        for i in 0..n {
            let mut s = b[i];
            if i > 0 {
                s -= a.a[i] * x[i - 1];
            }
            if i + 1 < n {
                s -= a.c[i] * x[i + 1];
            }
            let gs = s / a.b[i];
            let xi = (x[i] + omega * (gs - x[i])).max(floor[i]);
            delta = delta.max((xi - x[i]).abs());
            x[i] = xi;
        }
        if delta < tol {
            return Ok(());
        }
        if it == max_iter - 1 {
            return Err(PdeError::NoConvergence {
                iterations: max_iter,
            });
        }
    }
    Err(PdeError::NoConvergence {
        iterations: max_iter,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdp_math::approx_eq;
    use mdp_model::analytic::{black_scholes_call, black_scholes_put};
    use mdp_model::Payoff;

    fn market() -> GbmMarket {
        GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap()
    }

    fn call(strike: f64) -> Product {
        Product::european(
            Payoff::BasketCall {
                weights: vec![1.0],
                strike,
            },
            1.0,
        )
    }

    fn put_am(strike: f64) -> Product {
        Product::american(
            Payoff::BasketPut {
                weights: vec![1.0],
                strike,
            },
            1.0,
        )
    }

    #[test]
    fn crank_nicolson_matches_black_scholes() {
        let exact = black_scholes_call(100.0, 100.0, 0.05, 0.0, 0.2, 1.0);
        let r = Fd1d::default().price(&market(), &call(100.0)).unwrap();
        assert!(approx_eq(r.price, exact, 2e-3), "{} vs {exact}", r.price);
    }

    #[test]
    fn explicit_matches_black_scholes_when_stable() {
        let exact = black_scholes_call(100.0, 100.0, 0.05, 0.0, 0.2, 1.0);
        let cfg = Fd1d {
            space_points: 201,
            time_steps: 8000, // satisfies the stability bound
            scheme: Scheme::Explicit,
            ..Default::default()
        };
        let r = cfg.price(&market(), &call(100.0)).unwrap();
        assert!(approx_eq(r.price, exact, 5e-3), "{} vs {exact}", r.price);
    }

    #[test]
    fn explicit_instability_detected() {
        let cfg = Fd1d {
            space_points: 801,
            time_steps: 100,
            scheme: Scheme::Explicit,
            ..Default::default()
        };
        assert!(matches!(
            cfg.price(&market(), &call(100.0)),
            Err(PdeError::Unstable { .. })
        ));
    }

    #[test]
    fn cn_convergence_is_second_order_in_space() {
        let exact = black_scholes_call(100.0, 100.0, 0.05, 0.0, 0.2, 1.0);
        let err = |pts: usize| {
            let cfg = Fd1d {
                space_points: pts,
                time_steps: 2000,
                ..Default::default()
            };
            (cfg.price(&market(), &call(100.0)).unwrap().price - exact).abs()
        };
        let e1 = err(101);
        let e2 = err(201);
        // Doubling resolution should cut the error by ~4 (allow 2.5).
        assert!(e2 < e1 / 2.5, "e(101)={e1}, e(201)={e2}");
    }

    #[test]
    fn american_put_premium_and_methods_agree() {
        let eu_exact = black_scholes_put(100.0, 110.0, 0.05, 0.0, 0.2, 1.0);
        let proj = Fd1d {
            american: AmericanMethod::Projection,
            ..Default::default()
        }
        .price(&market(), &put_am(110.0))
        .unwrap();
        let psor = Fd1d {
            american: AmericanMethod::Psor {
                omega: 1.5,
                tol: 1e-9,
                max_iter: 10_000,
            },
            ..Default::default()
        }
        .price(&market(), &put_am(110.0))
        .unwrap();
        assert!(proj.price > eu_exact + 0.05, "premium: {}", proj.price);
        assert!(
            approx_eq(proj.price, psor.price, 5e-3),
            "projection {} vs PSOR {}",
            proj.price,
            psor.price
        );
        // PSOR solves the LCP properly: it should never be below the
        // (slightly low-biased) projected value by more than noise.
        assert!(psor.price >= proj.price - 1e-3);
        assert!(psor.price >= 10.0, "at least intrinsic");
    }

    #[test]
    fn american_put_matches_binomial_reference() {
        use mdp_lattice::BinomialLattice;
        let reference = BinomialLattice::crr(2000)
            .price(&market(), &put_am(110.0))
            .unwrap()
            .price;
        let r = Fd1d {
            space_points: 601,
            time_steps: 600,
            american: AmericanMethod::Psor {
                omega: 1.5,
                tol: 1e-9,
                max_iter: 10_000,
            },
            ..Default::default()
        }
        .price(&market(), &put_am(110.0))
        .unwrap();
        assert!(
            approx_eq(r.price, reference, 3e-3),
            "{} vs {reference}",
            r.price
        );
    }

    #[test]
    fn value_function_is_monotone_for_call() {
        let r = Fd1d::default().price(&market(), &call(100.0)).unwrap();
        for w in r.values.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "call value must increase in S");
        }
    }

    #[test]
    fn digital_priced_correctly() {
        let exact =
            mdp_model::analytic::cash_or_nothing_call(100.0, 100.0, 0.05, 0.0, 0.2, 1.0, 10.0);
        let p = Product::european(
            Payoff::DigitalBasketCall {
                weights: vec![1.0],
                strike: 100.0,
                cash: 10.0,
            },
            1.0,
        );
        let cfg = Fd1d {
            space_points: 801,
            time_steps: 800,
            ..Default::default()
        };
        let r = cfg.price(&market(), &p).unwrap();
        assert!(approx_eq(r.price, exact, 5e-3), "{} vs {exact}", r.price);
    }

    #[test]
    fn rejects_bad_inputs() {
        let cfg = Fd1d {
            space_points: 2,
            ..Default::default()
        };
        assert!(matches!(
            cfg.price(&market(), &call(100.0)),
            Err(PdeError::GridTooSmall { .. })
        ));
        let asian = Product::european(Payoff::AsianCall { strike: 100.0 }, 1.0);
        assert!(Fd1d::default().price(&market(), &asian).is_err());
        let m2 = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.5).unwrap();
        let rainbow = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
        assert!(Fd1d::default().price(&m2, &rainbow).is_err());
        for width in [0.0, -1.0, f64::NAN] {
            let cfg = Fd1d {
                width,
                ..Default::default()
            };
            assert!(matches!(
                cfg.price(&market(), &call(100.0)),
                Err(PdeError::Model(mdp_model::ModelError::InvalidParameter {
                    what: "width",
                    ..
                }))
            ));
        }
    }

    #[test]
    fn node_accounting() {
        let cfg = Fd1d {
            space_points: 11,
            time_steps: 5,
            ..Default::default()
        };
        let r = cfg.price(&market(), &call(100.0)).unwrap();
        assert_eq!(r.nodes_processed, 11 * 6);
    }

    #[test]
    fn plan_execute_bitwise_matches_one_shot() {
        let m = market();
        let plan = Fd1d::default().plan(&m, 1.0).unwrap();
        let mut scratch = Fd1dScratch::default();
        for product in [call(90.0), call(110.0), put_am(100.0)] {
            let one_shot = Fd1d::default().price(&m, &product).unwrap();
            let a = plan.execute(&product, &mut scratch).unwrap();
            let b = plan.execute(&product, &mut scratch).unwrap();
            assert_eq!(a.price.to_bits(), one_shot.price.to_bits());
            assert_eq!(b.price.to_bits(), one_shot.price.to_bits());
        }
    }

    #[test]
    fn ladder_bitwise_matches_one_shots() {
        let m = market();
        let cfg = Fd1d {
            space_points: 101,
            time_steps: 120,
            ..Default::default()
        };
        let products: Vec<Product> = (0..7)
            .map(|i| {
                let k = 70.0 + 10.0 * i as f64;
                if i % 2 == 0 {
                    call(k)
                } else {
                    put_am(k)
                }
            })
            .collect();
        let plan = cfg.plan(&m, 1.0).unwrap();
        let ladder = plan
            .execute_ladder(&products, &mut Fd1dLadderScratch::default())
            .unwrap();
        for (lane, product) in products.iter().enumerate() {
            let one_shot = cfg.price(&m, product).unwrap();
            assert_eq!(
                ladder.prices[lane].to_bits(),
                one_shot.price.to_bits(),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn apply_tick_bitwise_equals_fresh_plan() {
        let cfg = Fd1d::default();
        let m0 = market();
        let product = call(100.0);
        let ticks = [
            MarketDelta::Spot {
                asset: 0,
                spot: 104.25,
            },
            MarketDelta::Rate { rate: 0.042 },
            MarketDelta::Vol {
                asset: 0,
                vol: 0.23,
            },
            MarketDelta::Correlation {
                correlation: mdp_math::linalg::Matrix::identity(1),
            },
        ];
        let mut ticked = cfg.plan(&m0, 1.0).unwrap();
        let mut market = m0;
        for delta in &ticks {
            ticked.apply_tick(delta).unwrap();
            market = market.apply_delta(delta).unwrap();
            let fresh = cfg.plan(&market, 1.0).unwrap();
            let pt = ticked
                .execute(&product, &mut Fd1dScratch::default())
                .unwrap();
            let pf = fresh
                .execute(&product, &mut Fd1dScratch::default())
                .unwrap();
            assert_eq!(pt.price.to_bits(), pf.price.to_bits(), "{delta:?}");
            for (x, y) in pt.values.iter().zip(&pf.values) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn spot_tick_is_patch_vol_tick_is_rebuild() {
        let mut plan = Fd1d::default().plan(&market(), 1.0).unwrap();
        assert_eq!(
            plan.apply_tick(&MarketDelta::Spot {
                asset: 0,
                spot: 99.0
            })
            .unwrap(),
            TickOutcome::Patched
        );
        assert_eq!(
            plan.apply_tick(&MarketDelta::Rate { rate: 0.01 }).unwrap(),
            TickOutcome::Patched
        );
        assert_eq!(
            plan.apply_tick(&MarketDelta::Vol { asset: 0, vol: 0.3 })
                .unwrap(),
            TickOutcome::Rebuilt
        );
    }

    #[test]
    fn spot_cube_bitwise_equals_per_scenario_plans() {
        let cfg = Fd1d::default();
        let m0 = market();
        let products = vec![call(95.0), call(105.0), put_am(100.0)];
        let scenarios = [92.0, 100.0, 108.5];
        let plan = cfg.plan(&m0, 1.0).unwrap();
        let cube = plan
            .execute_spot_cube(&products, &scenarios, &mut Fd1dLadderScratch::default())
            .unwrap();
        for (k, &spot) in scenarios.iter().enumerate() {
            let mk = m0.with_spot(0, spot).unwrap();
            let fresh = cfg.plan(&mk, 1.0).unwrap();
            for (j, product) in products.iter().enumerate() {
                let one = fresh.execute(product, &mut Fd1dScratch::default()).unwrap();
                assert_eq!(
                    cube.prices[k * products.len() + j].to_bits(),
                    one.price.to_bits(),
                    "scenario {k} product {j}"
                );
            }
        }
    }

    #[test]
    fn ladder_rejects_psor_and_wrong_maturity() {
        let m = market();
        let cfg = Fd1d {
            american: AmericanMethod::Psor {
                omega: 1.5,
                tol: 1e-8,
                max_iter: 400,
            },
            ..Default::default()
        };
        let plan = cfg.plan(&m, 1.0).unwrap();
        assert!(plan
            .execute_ladder(&[put_am(100.0)], &mut Fd1dLadderScratch::default())
            .is_err());
        let plan = Fd1d::default().plan(&m, 1.0).unwrap();
        let short = Product::european(
            Payoff::BasketCall {
                weights: vec![1.0],
                strike: 100.0,
            },
            0.5,
        );
        assert!(plan.execute(&short, &mut Fd1dScratch::default()).is_err());
    }
}
