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
//! # Crank–Nicolson: accuracy per node
//!
//! A Crank–Nicolson price combines three standard remedies, and each is
//! needed for the default 241 × 120 grid to beat the former 401 × 400
//! one (DESIGN.md, "FD accuracy per node"):
//!
//! * **Cell-averaged terminal values.** A payoff sampled at the nodes
//!   makes the error depend on where the strike falls between two
//!   nodes, so convergence off the nodes is erratic. Each interior node
//!   instead starts from the payoff averaged over its cell
//!   `[x − Δx/2, x + Δx/2]` ([`cell_average`]: closed forms for the
//!   call, put and cash-digital shapes). The Dirichlet boundaries and
//!   the American floor keep the point payoff.
//! * **Brennan–Schwartz exercise.** An American step floors each row
//!   inside the back-substitution, which starts on the exercise side,
//!   so every row reads the floored row before it. Put-like payoffs
//!   (non-increasing in S) step on the mirrored line: their elimination
//!   runs from the top of the grid and their substitution from the
//!   bottom. Call-like payoffs keep the natural order. This solves the
//!   discrete complementarity problem exactly when the exercise region
//!   is one interval touching the starting side. That holds for every
//!   payoff this engine accepts, because markets reject the negative
//!   dividend yields that double exercise boundaries need. European
//!   lines run the same step without the floor.
//! * **Richardson extrapolation.** The plan carries a half grid next to
//!   the fine one: `(m − 1)/2 + 1` points over the same domain and
//!   `n/2` steps (integer division). The price is
//!   `V_h + (V_h − V_2h)/3` and [`Fd1dResult::error_estimate`] is
//!   `|V_h − V_2h|/3`. The spacings are exactly doubled when `m` is odd
//!   and `n` even, which holds for the default and every `degrade()`
//!   step from it. Other sizes still converge, but the ratios are not
//!   exactly 2, so the leading error term no longer cancels exactly.
//!   For Americans the free boundary makes the extrapolation erratic
//!   (it sometimes helps and sometimes hurts), so their estimate is not
//!   a bound.
//!
//! A Crank–Nicolson step is two sweeps over the line
//! ([`FactoredTridiag::forward`] / [`FactoredTridiag::backward`]): the
//! forward sweep builds each right-hand-side row from the previous level
//! and eliminates it; the backward sweep substitutes, floors (American)
//! and writes the new level. A strike ladder of two or more products runs
//! the same per-lane arithmetic on a lane-major panel
//! ([`Fd1dPlan::execute_ladder`]), one panel per sweep orientation, so
//! every lane's price is bitwise its scalar price.
//!
//! The explicit scheme keeps point-sampled terminal values, one grid and
//! the pointwise floor (exact at θ = 0): its bits tie
//! [`crate::ClusterFd1d`] to its Sequential baseline.

use crate::grid::{check_width, LogGrid};
use crate::stencil::TrapezoidSweep;
use crate::PdeError;
use mdp_math::linalg::theta_system;
use mdp_math::linalg::tridiag::FactoredTridiag;
use mdp_math::CancelToken;
use mdp_model::{ExerciseStyle, GbmMarket, MarketDelta, Payoff, Product, TickOutcome};

/// Time-stepping scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Fully explicit (θ = 0).
    Explicit,
    /// Crank–Nicolson (θ = ½) on a Richardson pair of grids.
    CrankNicolson,
}

/// Configuration of a 1-D finite-difference run.
#[derive(Debug, Clone, Copy)]
pub struct Fd1d {
    /// Spatial points of the fine grid.
    pub space_points: usize,
    /// Time steps of the fine grid.
    pub time_steps: usize,
    /// Domain half-width in standard deviations.
    pub width: f64,
    /// θ-scheme.
    pub scheme: Scheme,
}

impl Default for Fd1d {
    /// Crank–Nicolson on 241 × 120 with its 121 × 60 half grid: the
    /// cheapest pair whose worst European and American errors over the
    /// service benchmark's put ladder are no worse than the former
    /// 401 × 400 default's on any market of DESIGN.md's accuracy table.
    fn default() -> Self {
        Fd1d {
            space_points: 241,
            time_steps: 120,
            width: 5.0,
            scheme: Scheme::CrankNicolson,
        }
    }
}

/// Result of a 1-D finite-difference run.
#[derive(Debug, Clone)]
pub struct Fd1dResult {
    /// Present value at the spot (Crank–Nicolson: extrapolated).
    pub price: f64,
    /// Crank–Nicolson's Richardson estimate `|V_h − V_2h|/3` of the
    /// fine grid's error. It tracks the true error of a European price;
    /// for an American price it is not a bound (see the module docs).
    /// `None` for the explicit scheme, which runs one grid.
    pub error_estimate: Option<f64>,
    /// The fine grid's value function at t=0, before extrapolation (for
    /// Greeks/plots).
    pub values: Vec<f64>,
    /// The fine grid.
    pub grid: LogGrid,
    /// Grid-point updates performed on both grids (work accounting).
    pub nodes_processed: u64,
}

/// One payoff [`Fd1d`] prices, reduced to a function of the one spot:
/// what the cell averages and the exercise side are computed from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Payoff1d {
    /// `max(slope·S + level, 0)`: a call for `slope > 0`, a put for
    /// `slope < 0`.
    Ramp { slope: f64, level: f64 },
    /// `cash·1{weight·S ≥ strike}`.
    Step { weight: f64, strike: f64, cash: f64 },
}

impl Payoff1d {
    /// The one-asset shape of `payoff`, or a typed `Unsupported` error
    /// for a payoff without one — so no floor is ever applied from a
    /// side the engine could not determine.
    pub(crate) fn of(payoff: &Payoff) -> Result<Self, PdeError> {
        Ok(match payoff {
            Payoff::BasketCall { weights, strike } if weights.len() == 1 => Payoff1d::Ramp {
                slope: weights[0],
                level: -strike,
            },
            Payoff::BasketPut { weights, strike } if weights.len() == 1 => Payoff1d::Ramp {
                slope: -weights[0],
                level: *strike,
            },
            Payoff::GeometricCall { strike }
            | Payoff::MaxCall { strike }
            | Payoff::MinCall { strike } => Payoff1d::Ramp {
                slope: 1.0,
                level: -strike,
            },
            Payoff::GeometricPut { strike }
            | Payoff::MaxPut { strike }
            | Payoff::MinPut { strike } => Payoff1d::Ramp {
                slope: -1.0,
                level: *strike,
            },
            Payoff::DigitalBasketCall {
                weights,
                strike,
                cash,
            } if weights.len() == 1 => Payoff1d::Step {
                weight: weights[0],
                strike: *strike,
                cash: *cash,
            },
            other => {
                return Err(PdeError::Model(mdp_model::ModelError::Unsupported {
                    engine: "1-D finite differences",
                    why: format!("payoff {other:?} has no one-asset shape"),
                }))
            }
        })
    }

    /// Whether the payoff is non-increasing in S (put-like): its
    /// exercise region touches the bottom of the grid, so its lines
    /// step mirrored.
    pub(crate) fn put_like(&self) -> bool {
        match *self {
            Payoff1d::Ramp { slope, .. } => slope < 0.0,
            Payoff1d::Step { weight, cash, .. } => weight > 0.0 && cash < 0.0,
        }
    }

    /// The payoff's mean over the log-spot cell `[lo, hi]`, in closed
    /// form.
    pub(crate) fn cell_average(&self, lo: f64, hi: f64) -> f64 {
        let width = hi - lo;
        match *self {
            Payoff1d::Ramp { slope, level } => {
                if slope == 0.0 {
                    return level.max(0.0);
                }
                // The ramp is positive on one side of its kink
                // S = −level/slope; integrate slope·eˣ + level over the
                // part of the cell on that side.
                let kink = -level / slope;
                let (l, u) = if slope > 0.0 {
                    (if kink > 0.0 { lo.max(kink.ln()) } else { lo }, hi)
                } else if kink > 0.0 {
                    (lo, hi.min(kink.ln()))
                } else {
                    return 0.0;
                };
                if u <= l {
                    return 0.0;
                }
                (slope * l.exp() * (u - l).exp_m1() + level * (u - l)) / width
            }
            Payoff1d::Step {
                weight,
                strike,
                cash,
            } => {
                // The indicator covers the cell above ln(strike/weight);
                // with weight ≤ 0 it is constant in S.
                let covered = if weight > 0.0 {
                    (hi - lo.max((strike / weight).ln())).max(0.0)
                } else if weight == 0.0 && strike <= 0.0 {
                    width
                } else {
                    0.0
                };
                cash * covered / width
            }
        }
    }
}

/// The mean of a single-asset `payoff` over the log-spot cell
/// `[lo, hi]` — the value a Crank–Nicolson interior node starts from.
/// Closed forms cover the call, put and cash-digital payoffs [`Fd1d`]
/// accepts at d = 1; any other payoff is a typed `Unsupported` error.
pub fn cell_average(payoff: &Payoff, lo: f64, hi: f64) -> Result<f64, PdeError> {
    Ok(Payoff1d::of(payoff)?.cell_average(lo, hi))
}

/// Crank–Nicolson terminal values on the uniform log grid `x` of
/// spacing `dx`: each interior node holds `shape` averaged over its
/// cell, and the two boundary nodes keep their entries of `point`, the
/// point payoff per node. The one place terminal values are made, for
/// [`Fd1d`] and [`crate::Fd1dBarrier`] alike.
pub(crate) fn terminal_values(
    shape: Payoff1d,
    x: &[f64],
    dx: f64,
    point: &[f64],
    out: &mut Vec<f64>,
) {
    let m = x.len();
    out.clear();
    out.push(point[0]);
    out.extend(
        x[1..m - 1]
            .iter()
            .map(|&xi| shape.cell_average(xi - 0.5 * dx, xi + 0.5 * dx)),
    );
    out.push(point[m - 1]);
}

/// Richardson extrapolation of a Crank–Nicolson pair from the fine and
/// half grids' values: the price `V_h + (V_h − V_2h)/3` and the error
/// estimate `|V_h − V_2h|/3`.
pub(crate) fn richardson(fine: f64, half: f64) -> (f64, f64) {
    let correction = (fine - half) / 3.0;
    (fine + correction, correction.abs())
}

/// One grid of a run: node placement, time step and, for θ ≠ 0, the
/// factored system of each sweep orientation.
#[derive(Debug, Clone)]
pub(crate) struct Level {
    pub(crate) grid: LogGrid,
    pub(crate) spots: Vec<f64>,
    steps: usize,
    sweep: ThetaSweep,
    /// Thomas factors of `(I − θΔt·L)` on the natural line (`[0]`) and
    /// on the mirrored line (`[1]`); `None` for the explicit scheme,
    /// which never solves.
    factors: Option<[FactoredTridiag; 2]>,
}

impl Level {
    /// A level on `grid` with `steps` steps to `maturity` under
    /// `market`'s σ, r and drift.
    pub(crate) fn new(
        grid: LogGrid,
        steps: usize,
        maturity: f64,
        market: &GbmMarket,
        theta: f64,
    ) -> Result<Self, PdeError> {
        let dt = maturity / steps as f64;
        let (sweep, factors) = operator(market, theta, dt, grid.dx, grid.len(), steps)?;
        Ok(Level {
            spots: grid.spots(),
            grid,
            steps,
            sweep,
            factors,
        })
    }

    /// Grid-point updates of one solve on this level.
    pub(crate) fn nodes(&self) -> u64 {
        (self.grid.len() * (self.steps + 1)) as u64
    }

    /// The sweep and factors of one orientation (mirrored for put-like
    /// payoffs).
    fn oriented(&self, mirror: bool) -> (ThetaSweep, &FactoredTridiag) {
        let factors = self
            .factors
            .as_ref()
            .expect("factored at plan time when θ ≠ 0");
        if mirror {
            (self.sweep.mirrored(), &factors[1])
        } else {
            (self.sweep, &factors[0])
        }
    }

    /// Step one product back to t = 0 on this level.
    /// `scratch.intrinsic` holds its point payoff per node on entry;
    /// `scratch.values` holds the t = 0 line on exit, both in grid
    /// order.
    pub(crate) fn solve(
        &self,
        shape: Payoff1d,
        american: bool,
        r: f64,
        cancel: &CancelToken,
        scratch: &mut Fd1dScratch,
    ) -> Result<(), PdeError> {
        let Fd1dScratch {
            intrinsic: point,
            values,
            sol: dp,
            ..
        } = scratch;
        let m = point.len();
        terminal_values(shape, &self.grid.x, self.grid.dx, point, values);
        let mirror = shape.put_like();
        if mirror {
            point.reverse();
            values.reverse();
        }
        let (sweep, factored) = self.oriented(mirror);
        dp.resize(m - 2, 0.0);
        let floor = american.then_some(point.as_slice());
        for step in 1..=self.steps {
            if cancel.is_cancelled() {
                return Err(PdeError::Cancelled);
            }
            let tau = step as f64 * sweep.dt;
            let df = (-r * tau).exp();
            let bounds = (df * point[0], df * point[m - 1]);
            sweep.step(factored, values, dp, bounds, floor);
        }
        if mirror {
            point.reverse();
            values.reverse();
        }
        Ok(())
    }
}

/// The θ-scheme operator of a level: the line sweep and, for θ ≠ 0, the
/// Thomas factors of both orientations. Shared by fresh plans and rate
/// patches so both produce bit-identical operators from equal inputs.
fn operator(
    market: &GbmMarket,
    theta: f64,
    dt: f64,
    dx: f64,
    m: usize,
    n: usize,
) -> Result<(ThetaSweep, Option<[FactoredTridiag; 2]>), PdeError> {
    let (a, b, c) = operator_coefficients(
        market.vols()[0],
        market.rate(),
        market.log_drift(0), // r − q − σ²/2
        dx,
    );
    let sweep = ThetaSweep { theta, dt, a, b, c };
    if theta == 0.0 {
        return Ok((sweep, None));
    }
    let factor = |s: ThetaSweep| {
        theta_system(s.theta, s.dt, s.a, s.b, s.c, m - 2)
            .factor()
            .map_err(|_| PdeError::GridTooSmall { space: m, time: n })
    };
    Ok((sweep, Some([factor(sweep)?, factor(sweep.mirrored())?])))
}

/// Spatial operator coefficients `a·V_{i−1} + b·V_i + c·V_{i+1}`.
fn operator_coefficients(sigma: f64, r: f64, mu: f64, dx: f64) -> (f64, f64, f64) {
    let diff = 0.5 * sigma * sigma / (dx * dx);
    let conv = 0.5 * mu / dx;
    (diff - conv, -2.0 * diff - r, diff + conv)
}

/// The half grid's size for a fine grid of `m` points and `n` steps.
pub(crate) fn half_grid(m: usize, n: usize) -> (usize, usize) {
    ((m - 1) / 2 + 1, n / 2)
}

/// Planned state of a 1-D finite-difference run: everything that depends
/// on the market and the grid geometry but **not** on the payoff — the
/// log-spot grids, the spatial operator coefficients, the θ-scheme
/// tridiagonals' Thomas factors. Build once with [`Fd1d::plan`], execute
/// per product with [`Fd1dPlan::execute`] (or for a whole strike ladder
/// at once with [`Fd1dPlan::execute_ladder`]).
///
/// A plan executed twice is bitwise-identical to two one-shot
/// [`Fd1d::price`] calls: the hoisted quantities are computed with
/// exactly the arithmetic the one-shot path used.
#[derive(Debug, Clone)]
pub struct Fd1dPlan {
    cfg: Fd1d,
    market: GbmMarket,
    maturity: f64,
    /// The grid prices are read on.
    fine: Level,
    /// Crank–Nicolson's half grid; `None` for the explicit scheme.
    half: Option<Level>,
    /// Cooperative cancellation, polled once per time step (and at
    /// trapezoid recursion cuts). Inert by default; the serving layer
    /// installs a live token per request.
    cancel: CancelToken,
}

/// Reusable per-run buffers for [`Fd1dPlan::execute`], sized lazily on
/// first use.
#[derive(Debug, Default, Clone)]
pub struct Fd1dScratch {
    /// Point payoff at every node.
    pub(crate) intrinsic: Vec<f64>,
    /// The line being stepped.
    pub(crate) values: Vec<f64>,
    /// Right-hand side of the explicit step-by-step sweep.
    rhs: Vec<f64>,
    /// Crank–Nicolson's interior line: the forward sweep's `d'`, then
    /// the solution.
    sol: Vec<f64>,
    /// Per-level Dirichlet discount table for the trapezoid driver.
    df: Vec<f64>,
    /// Second parity buffer of the trapezoid driver.
    pong: Vec<f64>,
}

/// Reusable buffers for [`Fd1dPlan::execute_ladder`]: the lane-major
/// value, floor and elimination panels of one sweep orientation.
#[derive(Debug, Default, Clone)]
pub struct Fd1dLadderScratch {
    values: Vec<f64>,
    floor: Vec<f64>,
    dp: Vec<f64>,
    /// Point payoff at the low then the high boundary, per lane.
    edges: Vec<f64>,
    point: Vec<f64>,
    line: Vec<f64>,
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
    /// market with horizon `maturity`: grids, operator coefficients,
    /// stability check and the factored Crank–Nicolson systems.
    ///
    /// Crank–Nicolson needs a half grid of at least three points and one
    /// step (`space_points` ≥ 5, `time_steps` ≥ 2); the explicit scheme
    /// needs three points and one step.
    pub fn plan(&self, market: &GbmMarket, maturity: f64) -> Result<Fd1dPlan, PdeError> {
        if market.dim() != 1 {
            return Err(PdeError::Model(mdp_model::ModelError::DimensionMismatch {
                product: 1,
                market: market.dim(),
            }));
        }
        let m = self.space_points;
        let n = self.time_steps;
        let (min_m, min_n) = match self.scheme {
            Scheme::Explicit => (3, 1),
            Scheme::CrankNicolson => (5, 2),
        };
        if m < min_m || n < min_n {
            return Err(PdeError::GridTooSmall { space: m, time: n });
        }
        if !maturity.is_finite() || maturity <= 0.0 {
            return Err(PdeError::Model(mdp_model::ModelError::InvalidParameter {
                what: "maturity",
                value: maturity,
            }));
        }
        check_width(self.width)?;
        let grid = |points| {
            LogGrid::new(
                market.spots()[0],
                market.vols()[0],
                maturity,
                self.width,
                points,
            )
        };
        let (fine, half) = match self.scheme {
            Scheme::Explicit => {
                let fine = Level::new(grid(m), n, maturity, market, 0.0)?;
                let sigma = market.vols()[0];
                let dx = fine.grid.dx;
                let ratio = sigma * sigma * fine.sweep.dt / (dx * dx);
                if ratio > 0.5 + 1e-12 {
                    return Err(PdeError::Unstable { ratio });
                }
                (fine, None)
            }
            Scheme::CrankNicolson => {
                let (hm, hn) = half_grid(m, n);
                (
                    Level::new(grid(m), n, maturity, market, 0.5)?,
                    Some(Level::new(grid(hm), hn, maturity, market, 0.5)?),
                )
            }
        };
        Ok(Fd1dPlan {
            cfg: *self,
            market: market.clone(),
            maturity,
            fine,
            half,
            cancel: CancelToken::never(),
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

impl Fd1dPlan {
    /// Install a cooperative cancel token, polled once per time step
    /// (and at trapezoid recursion cuts); a tripped token aborts the
    /// run with [`PdeError::Cancelled`]. Runs that complete are
    /// bitwise-identical to runs without a token.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// The grid prices are read on (the fine grid of a Crank–Nicolson
    /// pair).
    pub fn grid(&self) -> &LogGrid {
        &self.fine.grid
    }

    /// The market snapshot the plan currently prices on (kept in sync
    /// by [`Fd1dPlan::apply_tick`]).
    pub fn market(&self) -> &GbmMarket {
        &self.market
    }

    /// The plan's levels: the fine grid, then the half grid if any.
    fn levels_mut(&mut self) -> impl Iterator<Item = &mut Level> {
        std::iter::once(&mut self.fine).chain(self.half.as_mut())
    }

    /// Absorb one market tick, rebuilding only the plan components the
    /// ticked field invalidates, on both grids of a Crank–Nicolson pair:
    ///
    /// * **Spot** — the log-grid spacing `dx` depends on σ, T, the
    ///   domain width and the point count but *not* the spot, so the
    ///   operator coefficients, the θ-scheme tridiagonals and their
    ///   Thomas factors all survive; only the node placement (and thus
    ///   the spot ladder) moves.
    /// * **Rate** — the grids survive; the operator coefficients and
    ///   the factored systems are rebuilt.
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
        let (maturity, width) = (self.maturity, self.cfg.width);
        match delta {
            MarketDelta::Spot { .. } => {
                for level in self.levels_mut() {
                    level.grid = LogGrid::new(
                        market.spots()[0],
                        market.vols()[0],
                        maturity,
                        width,
                        level.grid.len(),
                    );
                    level.spots = level.grid.spots();
                }
            }
            MarketDelta::Rate { .. } => {
                for level in self.levels_mut() {
                    let s = level.sweep;
                    let (sweep, factors) = operator(
                        &market,
                        s.theta,
                        s.dt,
                        level.grid.dx,
                        level.grid.len(),
                        level.steps,
                    )?;
                    level.sweep = sweep;
                    level.factors = factors;
                }
            }
            MarketDelta::Correlation { .. } => {}
            MarketDelta::Vol { .. } => {
                // A rebuilt plan is born with the inert token: carry
                // the installed one across.
                let mut rebuilt = self.cfg.plan(&market, maturity)?;
                rebuilt.cancel = self.cancel.clone();
                *self = rebuilt;
                return Ok(TickOutcome::Rebuilt);
            }
        }
        self.market = market;
        Ok(TickOutcome::Patched)
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
        let Some(half) = &self.half else {
            return self.execute_explicit(product, scratch, false);
        };
        let shape = Payoff1d::of(&product.payoff)?;
        let american = product.exercise == ExerciseStyle::American;
        let r = self.market.rate();
        // The half grid first, so the fine line stays in the scratch.
        let mut at_spot = [0.0; 2];
        for (level, v) in [half, &self.fine].into_iter().zip(&mut at_spot) {
            scratch.intrinsic.clear();
            scratch
                .intrinsic
                .extend(level.spots.iter().map(|&s| product.payoff.eval(&[s])));
            level.solve(shape, american, r, &self.cancel, scratch)?;
            *v = scratch.values[level.grid.center];
        }
        let [coarse, fine] = at_spot;
        let (price, estimate) = richardson(fine, coarse);
        Ok(Fd1dResult {
            price,
            error_estimate: Some(estimate),
            values: scratch.values.clone(),
            grid: self.fine.grid.clone(),
            nodes_processed: self.fine.nodes() + half.nodes(),
        })
    }

    /// The explicit scheme's level-by-level sweep: the straightforward
    /// implementation, kept as the oracle that the trapezoid driver of
    /// [`Fd1dPlan::execute`] must match bit for bit (price, every grid
    /// value and the node count). Explicit plans only: a
    /// Crank–Nicolson plan is an `Unsupported` error.
    pub fn execute_step_by_step(
        &self,
        product: &Product,
        scratch: &mut Fd1dScratch,
    ) -> Result<Fd1dResult, PdeError> {
        self.check_product(product)?;
        if self.half.is_some() {
            return Err(PdeError::Model(mdp_model::ModelError::Unsupported {
                engine: "1-D finite differences",
                why: "the step-by-step sweep runs the explicit scheme only".into(),
            }));
        }
        self.execute_explicit(product, scratch, true)
    }

    /// The explicit scheme on the fine grid alone, from the point payoff:
    /// the trapezoid driver, or the level-by-level oracle when
    /// `step_by_step` is set.
    fn execute_explicit(
        &self,
        product: &Product,
        scratch: &mut Fd1dScratch,
        step_by_step: bool,
    ) -> Result<Fd1dResult, PdeError> {
        let level = &self.fine;
        let m = level.grid.len();
        let n = level.steps;
        let r = self.market.rate();
        let ThetaSweep { theta, dt, a, b, c } = level.sweep;
        let american = product.exercise == ExerciseStyle::American;
        let interior = m - 2;

        scratch.intrinsic.clear();
        scratch
            .intrinsic
            .extend(level.spots.iter().map(|&s| product.payoff.eval(&[s])));
        let intrinsic = &scratch.intrinsic;
        let mut values = intrinsic.clone();
        let nodes = level.nodes();

        if !step_by_step {
            // Cache-oblivious trapezoid driver: same per-point
            // arithmetic as the step-by-step loop below (see
            // `crate::stencil`), so the result is bitwise-equal — only
            // the traversal order over independent work differs.
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
        } else {
            scratch.rhs.resize(interior, 0.0);
            let rhs = &mut scratch.rhs;
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
                values[1..m - 1].copy_from_slice(rhs);
                if american {
                    for (v, &intr) in values.iter_mut().zip(intrinsic) {
                        *v = v.max(intr);
                    }
                }
            }
        }

        Ok(Fd1dResult {
            price: values[level.grid.center],
            error_estimate: None,
            values,
            grid: level.grid.clone(),
            nodes_processed: nodes,
        })
    }

    /// Fused multi-product run: price every product of a ladder in one
    /// backward sweep per grid and sweep orientation, carrying one lane
    /// per product through lane-major panels and eliminating all lanes
    /// of a row together ([`FactoredTridiag::forward_panel`] /
    /// [`FactoredTridiag::backward_panel`]).
    ///
    /// All products must share the plan's maturity. Lanes are grouped
    /// by sweep orientation (call-like natural, put-like mirrored); a
    /// European lane floors at −∞, which `max` leaves bitwise
    /// unchanged, so every lane performs exactly the per-element
    /// arithmetic of [`Fd1dPlan::execute`] and each price is
    /// **bitwise-identical** to its one-shot counterpart.
    ///
    /// A one-product ladder runs [`Fd1dPlan::execute`] itself: at one
    /// lane the panel has nothing to vectorise across and costs more
    /// than the scalar two-sweep kernel. The explicit scheme prices each
    /// lane through [`Fd1dPlan::execute`] too.
    pub fn execute_ladder(
        &self,
        products: &[Product],
        scratch: &mut Fd1dLadderScratch,
    ) -> Result<Fd1dLadderResult, PdeError> {
        for product in products {
            self.check_product(product)?;
        }
        let mut prices = vec![0.0; products.len()];
        let mut nodes = 0;
        let half = match &self.half {
            Some(half) if products.len() > 1 => half,
            _ => {
                let mut one = Fd1dScratch::default();
                for (price, product) in prices.iter_mut().zip(products) {
                    let r = self.execute(product, &mut one)?;
                    *price = r.price;
                    nodes += r.nodes_processed;
                }
                return Ok(Fd1dLadderResult {
                    prices,
                    nodes_processed: nodes,
                });
            }
        };
        let shapes = products
            .iter()
            .map(|p| Payoff1d::of(&p.payoff))
            .collect::<Result<Vec<_>, _>>()?;
        for mirror in [false, true] {
            let group: Vec<usize> = (0..products.len())
                .filter(|&j| shapes[j].put_like() == mirror)
                .collect();
            if group.is_empty() {
                continue;
            }
            let coarse = self.sweep_panel(half, products, &shapes, &group, mirror, scratch)?;
            let fine = self.sweep_panel(&self.fine, products, &shapes, &group, mirror, scratch)?;
            for ((&j, fine), coarse) in group.iter().zip(fine).zip(coarse) {
                prices[j] = richardson(fine, coarse).0;
            }
            nodes += group.len() as u64 * (self.fine.nodes() + half.nodes());
        }
        Ok(Fd1dLadderResult {
            prices,
            nodes_processed: nodes,
        })
    }

    /// The fused Crank–Nicolson sweep of one level over the lanes
    /// `group` (indices into `products`), all of one orientation, in
    /// lane-major panels (element `(i, lane)` at `i·w + lane`). Returns
    /// each lane's t = 0 value at the spot.
    fn sweep_panel(
        &self,
        level: &Level,
        products: &[Product],
        shapes: &[Payoff1d],
        group: &[usize],
        mirror: bool,
        scratch: &mut Fd1dLadderScratch,
    ) -> Result<Vec<f64>, PdeError> {
        let m = level.grid.len();
        let w = group.len();
        let last = m - 3;
        let s = scratch;
        s.values.resize(m * w, 0.0);
        s.floor.resize(m * w, 0.0);
        s.edges.resize(2 * w, 0.0);
        s.dp.resize((m - 2) * w, 0.0);
        for (lane, &j) in group.iter().enumerate() {
            let product = &products[j];
            s.point.clear();
            s.point
                .extend(level.spots.iter().map(|&x| product.payoff.eval(&[x])));
            terminal_values(
                shapes[j],
                &level.grid.x,
                level.grid.dx,
                &s.point,
                &mut s.line,
            );
            let american = product.exercise == ExerciseStyle::American;
            for i in 0..m {
                let at = if mirror { m - 1 - i } else { i };
                s.values[at * w + lane] = s.line[i];
                s.floor[at * w + lane] = if american {
                    s.point[i]
                } else {
                    f64::NEG_INFINITY
                };
            }
            let (lo, hi) = (s.point[0], s.point[m - 1]);
            let (lo, hi) = if mirror { (hi, lo) } else { (lo, hi) };
            s.edges[lane] = lo;
            s.edges[w + lane] = hi;
        }

        let (sweep, factored) = level.oriented(mirror);
        let ThetaSweep { theta, dt, a, b, c } = sweep;
        let r = self.market.rate();
        let (values, floor, dp) = (&mut s.values, &s.floor, &mut s.dp);
        let (lo, hi) = s.edges.split_at(w);
        for step in 1..=level.steps {
            if self.cancel.is_cancelled() {
                return Err(PdeError::Cancelled);
            }
            let tau = step as f64 * dt;
            let df = (-r * tau).exp();
            // Each row: the scalar step's right-hand side per lane,
            // vectorised across the stride-1 lane axis, then eliminated.
            factored.forward_panel(dp, |i, out| {
                let (vm, rest) = values[i * w..(i + 3) * w].split_at(w);
                let (v0, vp) = rest.split_at(w);
                for lane in 0..w {
                    out[lane] = v0[lane]
                        + (1.0 - theta) * dt * (a * vm[lane] + b * v0[lane] + c * vp[lane]);
                }
                if i == 0 {
                    for (d, &e) in out.iter_mut().zip(lo) {
                        *d += theta * dt * a * (df * e);
                    }
                }
                if i == last {
                    for (d, &e) in out.iter_mut().zip(hi) {
                        *d += theta * dt * c * (df * e);
                    }
                }
            });
            // Brennan–Schwartz: floor each solved row before the next
            // row substitutes it, and store it as the new level.
            factored.backward_panel(dp, |i, x| {
                let row = (i + 1) * w;
                for (v, &f) in x.iter_mut().zip(&floor[row..row + w]) {
                    *v = v.max(f);
                }
                values[row..row + w].copy_from_slice(x);
            });
            let top = (m - 1) * w;
            for lane in 0..w {
                values[lane] = floor[lane].max(df * lo[lane]);
                values[top + lane] = floor[top + lane].max(df * hi[lane]);
            }
        }
        let center = if mirror {
            m - 1 - level.grid.center
        } else {
            level.grid.center
        };
        Ok(values[center * w..(center + 1) * w].to_vec())
    }
}

/// A θ-scheme line operator `L V_i = a·V_{i−1} + b·V_i + c·V_{i+1}`
/// stepped by `dt` with implicit weight `theta`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ThetaSweep {
    pub(crate) theta: f64,
    pub(crate) dt: f64,
    pub(crate) a: f64,
    pub(crate) b: f64,
    pub(crate) c: f64,
}

impl ThetaSweep {
    /// The same operator on the mirrored line (`V'_i = V_{m−1−i}`): the
    /// neighbour weights swap.
    fn mirrored(self) -> Self {
        ThetaSweep {
            a: self.c,
            c: self.a,
            ..self
        }
    }

    /// Advance the whole line `values` one time step in two sweeps
    /// against `factored`, the Thomas factors of `(I − θΔt·L)` on the
    /// interior; `dp` is interior-sized working space.
    ///
    /// The forward sweep builds each row of
    /// `(I + (1−θ)Δt·L) V^k` plus the Dirichlet terms of `bounds` (the
    /// new level's `(low, high)` boundary values) and eliminates it.
    /// The backward sweep substitutes from the last row to the first and
    /// writes each node; with a `floor` (American exercise) it floors
    /// each row before the next row substitutes it (Brennan–Schwartz),
    /// and floors the two boundaries too.
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
                factored.backward(dp, |i, x| {
                    let v = x.max(floor[i + 1]);
                    values[i + 1] = v;
                    v
                });
                values[0] = floor[0].max(lo_b);
                values[m - 1] = floor[m - 1].max(hi_b);
            }
            None => {
                factored.backward(dp, |i, x| {
                    values[i + 1] = x;
                    x
                });
                values[0] = lo_b;
                values[m - 1] = hi_b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdp_math::approx_eq;
    use mdp_model::analytic::{black_scholes_call, black_scholes_put};

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
        // Brennan–Schwartz Crank–Nicolson against the explicit scheme's
        // pointwise floor, which is exact at θ = 0.
        let eu_exact = black_scholes_put(100.0, 110.0, 0.05, 0.0, 0.2, 1.0);
        let cn = Fd1d::default().price(&market(), &put_am(110.0)).unwrap();
        let explicit = Fd1d {
            space_points: 201,
            time_steps: 8000,
            scheme: Scheme::Explicit,
            ..Default::default()
        }
        .price(&market(), &put_am(110.0))
        .unwrap();
        assert!(cn.price > eu_exact + 0.05, "premium: {}", cn.price);
        assert!(
            approx_eq(cn.price, explicit.price, 5e-3),
            "Crank–Nicolson {} vs explicit {}",
            cn.price,
            explicit.price
        );
        assert!(cn.price >= 10.0, "at least intrinsic");
    }

    #[test]
    fn american_put_matches_binomial_reference() {
        use mdp_lattice::BinomialLattice;
        let reference = BinomialLattice::crr(2000)
            .price(&market(), &put_am(110.0))
            .unwrap()
            .price;
        let r = Fd1d::default().price(&market(), &put_am(110.0)).unwrap();
        assert!(
            approx_eq(r.price, reference, 3e-3),
            "{} vs {reference}",
            r.price
        );
    }

    #[test]
    fn american_call_without_dividends_is_european() {
        // With q = 0 early exercise of a call never pays: the
        // Brennan–Schwartz floor (natural orientation) must stay slack
        // but at the upper boundary, where discounted intrinsic undercuts
        // it, and a dividend must make it bind.
        let eu = Fd1d::default().price(&market(), &call(100.0)).unwrap();
        let am_call = Product::american(call(100.0).payoff, 1.0);
        let am = Fd1d::default().price(&market(), &am_call).unwrap();
        assert!(
            (am.price - eu.price).abs() < 1e-5,
            "{} vs {}",
            am.price,
            eu.price
        );
        let paying = GbmMarket::single(100.0, 0.2, 0.08, 0.05).unwrap();
        let eu = Fd1d::default().price(&paying, &call(100.0)).unwrap();
        let am = Fd1d::default().price(&paying, &am_call).unwrap();
        assert!(am.price > eu.price + 0.05, "{} vs {}", am.price, eu.price);
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
        // Crank–Nicolson needs a half grid of three points and one
        // step; the explicit scheme only three points and one step.
        for (space_points, time_steps, scheme) in [
            (2, 400, Scheme::CrankNicolson),
            (4, 400, Scheme::CrankNicolson),
            (241, 1, Scheme::CrankNicolson),
            (2, 400, Scheme::Explicit),
            (11, 0, Scheme::Explicit),
        ] {
            let cfg = Fd1d {
                space_points,
                time_steps,
                scheme,
                ..Default::default()
            };
            assert!(matches!(
                cfg.price(&market(), &call(100.0)),
                Err(PdeError::GridTooSmall { .. })
            ));
        }
        let smallest = Fd1d {
            space_points: 5,
            time_steps: 2,
            ..Default::default()
        };
        assert!(smallest.price(&market(), &call(100.0)).is_ok());
        let asian = Product::european(Payoff::AsianCall { strike: 100.0 }, 1.0);
        assert!(Fd1d::default().price(&market(), &asian).is_err());
        let m2 = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.5).unwrap();
        let rainbow = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
        assert!(Fd1d::default().price(&m2, &rainbow).is_err());
        // The step-by-step oracle has no Crank–Nicolson sweep to check.
        let cn = Fd1d::default().plan(&market(), 1.0).unwrap();
        assert!(matches!(
            cn.execute_step_by_step(&call(100.0), &mut Fd1dScratch::default()),
            Err(PdeError::Model(mdp_model::ModelError::Unsupported { .. }))
        ));
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
        // Both grids: 11 × 5 steps, and the half grid 6 × 2 steps.
        let cfg = Fd1d {
            space_points: 11,
            time_steps: 5,
            ..Default::default()
        };
        let r = cfg.price(&market(), &call(100.0)).unwrap();
        assert_eq!(r.nodes_processed, 11 * 6 + 6 * 3);
        let explicit = Fd1d {
            scheme: Scheme::Explicit,
            ..cfg
        };
        let r = explicit.price(&market(), &call(100.0)).unwrap();
        assert_eq!(r.nodes_processed, 11 * 6);
        assert!(r.error_estimate.is_none());
    }

    #[test]
    fn half_grid_is_integer_halving() {
        // Exact doubling of both spacings for odd points and even steps;
        // otherwise the half grid is still the integer division.
        assert_eq!(half_grid(241, 120), (121, 60));
        assert_eq!(half_grid(5, 2), (3, 1));
        assert_eq!(half_grid(242, 121), (121, 60));
        assert_eq!(half_grid(7, 3), (4, 1));
        let m = market();
        let plan = Fd1d::default().plan(&m, 1.0).unwrap();
        let half = plan.half.as_ref().unwrap();
        assert_eq!(half.grid.len(), 121);
        assert_eq!(half.steps, 60);
        assert!((half.grid.dx - 2.0 * plan.fine.grid.dx).abs() < 1e-15);
        for (j, x) in half.grid.x.iter().enumerate() {
            assert!((x - plan.fine.grid.x[2 * j]).abs() < 1e-12);
        }
        // Even points, odd steps: a consistent price, not an exact pair.
        let odd = Fd1d {
            space_points: 242,
            time_steps: 121,
            ..Default::default()
        };
        let plan = odd.plan(&m, 1.0).unwrap();
        let half = plan.half.as_ref().unwrap();
        assert_eq!((half.grid.len(), half.steps), (121, 60));
        let exact = black_scholes_call(100.0, 100.0, 0.05, 0.0, 0.2, 1.0);
        let r = odd.price(&m, &call(100.0)).unwrap();
        assert!(approx_eq(r.price, exact, 2e-3), "{} vs {exact}", r.price);
    }

    #[test]
    fn richardson_estimate_brackets_an_off_node_european_put() {
        let exact = black_scholes_put(100.0, 107.3, 0.05, 0.0, 0.2, 1.0);
        let put = Product::european(
            Payoff::BasketPut {
                weights: vec![1.0],
                strike: 107.3,
            },
            1.0,
        );
        let r = Fd1d::default().price(&market(), &put).unwrap();
        let estimate = r.error_estimate.unwrap();
        assert!(
            (r.price - exact).abs() <= estimate,
            "{} vs {exact} ± {estimate}",
            r.price
        );
        assert!(estimate < 1e-3, "{estimate}");
    }

    #[test]
    fn payoffs_without_a_one_asset_shape_are_unsupported() {
        for payoff in [
            Payoff::Exchange,
            Payoff::BasketCall {
                weights: vec![0.5, 0.5],
                strike: 100.0,
            },
        ] {
            assert!(matches!(
                Payoff1d::of(&payoff),
                Err(PdeError::Model(mdp_model::ModelError::Unsupported { .. }))
            ));
            assert!(cell_average(&payoff, 4.5, 4.6).is_err());
        }
    }

    #[test]
    fn exercise_side_follows_the_payoff() {
        let side = |p: Payoff| Payoff1d::of(&p).unwrap().put_like();
        let w = || vec![1.0];
        assert!(side(Payoff::BasketPut {
            weights: w(),
            strike: 100.0
        }));
        assert!(side(Payoff::MinPut { strike: 100.0 }));
        assert!(!side(Payoff::BasketCall {
            weights: w(),
            strike: 100.0
        }));
        assert!(!side(Payoff::GeometricCall { strike: 100.0 }));
        // A negative weight turns the put's payoff increasing in S.
        assert!(!side(Payoff::BasketPut {
            weights: vec![-1.0],
            strike: 100.0
        }));
        let digital = |cash| Payoff::DigitalBasketCall {
            weights: w(),
            strike: 100.0,
            cash,
        };
        assert!(!side(digital(10.0)));
        assert!(side(digital(-10.0)));
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
    fn every_tick_keeps_the_installed_cancel_token() {
        let ticks = [
            MarketDelta::Spot {
                asset: 0,
                spot: 99.0,
            },
            MarketDelta::Rate { rate: 0.01 },
            MarketDelta::Vol { asset: 0, vol: 0.3 },
        ];
        for delta in &ticks {
            let mut plan = Fd1d::default().plan(&market(), 1.0).unwrap();
            let token = CancelToken::new();
            token.cancel();
            plan.set_cancel(token);
            plan.apply_tick(delta).unwrap();
            assert!(
                matches!(
                    plan.execute(&call(100.0), &mut Fd1dScratch::default()),
                    Err(PdeError::Cancelled)
                ),
                "{delta:?}"
            );
        }
    }

    #[test]
    fn ladder_rejects_wrong_maturity() {
        let m = market();
        let plan = Fd1d::default().plan(&m, 1.0).unwrap();
        let short = Product::european(
            Payoff::BasketCall {
                weights: vec![1.0],
                strike: 100.0,
            },
            0.5,
        );
        assert!(plan.execute(&short, &mut Fd1dScratch::default()).is_err());
        assert!(plan
            .execute_ladder(&[call(100.0), short], &mut Fd1dLadderScratch::default())
            .is_err());
    }

    #[test]
    fn ladder_panels_of_each_orientation_match_one_shots() {
        // Calls, puts and digitals of both cash signs, European and
        // American, on a grid whose half grid has one interior row.
        let m = market();
        for cfg in [
            Fd1d {
                space_points: 5,
                time_steps: 3,
                ..Default::default()
            },
            Fd1d {
                space_points: 61,
                time_steps: 30,
                ..Default::default()
            },
        ] {
            let mut products = Vec::new();
            for (k, strike) in [85.0, 100.0, 117.5].into_iter().enumerate() {
                let w = vec![1.0];
                let payoffs = [
                    Payoff::BasketCall {
                        weights: w.clone(),
                        strike,
                    },
                    Payoff::BasketPut {
                        weights: w.clone(),
                        strike,
                    },
                    Payoff::DigitalBasketCall {
                        weights: w,
                        strike,
                        cash: if k == 1 { -3.0 } else { 3.0 },
                    },
                ];
                for payoff in payoffs {
                    products.push(Product::european(payoff.clone(), 1.0));
                    products.push(Product::american(payoff, 1.0));
                }
            }
            let plan = cfg.plan(&m, 1.0).unwrap();
            let ladder = plan
                .execute_ladder(&products, &mut Fd1dLadderScratch::default())
                .unwrap();
            let mut nodes = 0;
            for (lane, product) in products.iter().enumerate() {
                let one = cfg.price(&m, product).unwrap();
                nodes += one.nodes_processed;
                assert_eq!(
                    ladder.prices[lane].to_bits(),
                    one.price.to_bits(),
                    "{cfg:?} lane {lane}"
                );
            }
            assert_eq!(ladder.nodes_processed, nodes);
        }
    }
}
