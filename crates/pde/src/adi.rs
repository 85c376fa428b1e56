//! Two-dimensional Douglas ADI for correlated two-asset products.
//!
//! The 2-D Black–Scholes PDE in `(x₁, x₂) = (ln S₁, ln S₂)` has the
//! mixed derivative `ρσ₁σ₂ V_{x₁x₂}` that plain dimensional splitting
//! cannot absorb implicitly; the Douglas scheme treats it explicitly and
//! splits the rest:
//!
//! ```text
//! Y₀ = Vⁿ + Δt·(A₀ + A₁ + A₂)Vⁿ            (explicit predictor)
//! (I − θΔt A₁) Y₁ = Y₀ − θΔt A₁ Vⁿ          (implicit x₁ lines)
//! (I − θΔt A₂) Y₂ = Y₁ − θΔt A₂ Vⁿ          (implicit x₂ lines)
//! Vⁿ⁺¹ = Y₂,  θ = ½
//! ```
//!
//! Each implicit stage is a family of **independent tridiagonal line
//! solves** with the *same* constant-coefficient matrix. The default
//! [`AdiKernel::Blocked`] hot path exploits that structure three ways:
//!
//! * **Factor once** — the Thomas elimination factors of each stage
//!   operator are precomputed ([`mdp_math::linalg::FactoredTridiag`])
//!   instead of being re-derived for every line of every step.
//! * **Multi-RHS transposed sweeps** — lines are solved in tiles of
//!   `TILE` at a time in line-interleaved layout, so the serial Thomas
//!   recurrence runs down the grid while the CPU vectorises across the
//!   independent lines, and both stages sweep stride-1 memory (the tile
//!   buffer is the blocked transpose for the row-direction stage).
//! * **Fused predictor** — the explicit `Y₀` pass and the stage-1 RHS
//!   are produced in one tiled stencil sweep over `Vⁿ`.
//!
//! Every reordering is across *independent* lines and every per-element
//! expression matches the per-line path, so blocked results are
//! **bitwise identical** to [`AdiKernel::Scalar`] — the pre-blocking
//! per-line implementation kept as the oracle (same pattern as the
//! lattice's `compute_slab_scalar`). Tiles run under rayon behind the
//! existing `parallel` flag, again without reordering any element's
//! arithmetic.

use crate::grid::{check_width, LogGrid};
use crate::PdeError;
use mdp_math::linalg::tridiag::{FactoredTridiag, ThomasScratch, Tridiag};
use mdp_model::{ExerciseStyle, GbmMarket, MarketDelta, Product, TickOutcome};
use rayon::prelude::*;
use std::cell::RefCell;

/// Lines solved per panel tile in the blocked kernel: wide enough that
/// the forward/backward sweeps vectorise and the pivot-division latency
/// is hidden across lanes, small enough that a tile's rows stay cache
/// resident.
const TILE: usize = 32;

/// Per-worker line-solve workspace: the right-hand side and the Thomas
/// elimination buffers, reused across all lines of a run instead of
/// allocated per line.
#[derive(Default)]
struct LineScratch {
    rhs: Vec<f64>,
    thomas: ThomasScratch,
}

thread_local! {
    /// One [`LineScratch`] per worker thread; the sequential sweep and
    /// every rayon worker reuse it for each line they solve.
    static LINE_SCRATCH: RefCell<LineScratch> = RefCell::new(LineScratch::default());
}

/// Which implementation executes the per-step ADI sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdiKernel {
    /// Factor-once multi-RHS panels with tiled transposed sweeps — the
    /// fast path, bitwise-equal to [`AdiKernel::Scalar`] by
    /// construction.
    #[default]
    Blocked,
    /// Per-line Thomas solves: the straightforward implementation, kept
    /// as the oracle the blocked kernel is verified against.
    Scalar,
}

/// Configuration of the 2-D ADI engine.
#[derive(Debug, Clone, Copy)]
pub struct Adi2d {
    /// Grid points per axis.
    pub space_points: usize,
    /// Time steps.
    pub time_steps: usize,
    /// Domain half-width in standard deviations.
    pub width: f64,
    /// Run the line solves in parallel.
    pub parallel: bool,
    /// Hot-path implementation (blocked fast path by default).
    pub kernel: AdiKernel,
}

impl Default for Adi2d {
    fn default() -> Self {
        Adi2d {
            space_points: 101,
            time_steps: 100,
            width: 5.0,
            parallel: false,
            kernel: AdiKernel::Blocked,
        }
    }
}

/// Result of a 2-D ADI run.
#[derive(Debug, Clone)]
pub struct Adi2dResult {
    /// Present value at the spot pair.
    pub price: f64,
    /// Grid-point updates performed.
    pub nodes_processed: u64,
}

#[derive(Debug, Clone)]
struct Axis {
    a: f64,
    b: f64,
    c: f64,
    grid: LogGrid,
}

/// Everything the per-step sweeps need, shared by both kernels.
struct Env<'a> {
    m: usize,
    n: usize,
    dt: f64,
    r: f64,
    theta: f64,
    american: bool,
    mixed: f64,
    ax1: &'a Axis,
    ax2: &'a Axis,
    intrinsic: &'a [f64],
}

/// Planned state of a 2-D ADI run: the per-axis operators, the stage
/// tridiagonals and their Thomas elimination factors, all independent of
/// the payoff. Build once with [`Adi2d::plan`], execute per product with
/// [`Adi2dPlan::execute`]; a plan executed N times is bitwise-identical
/// to N one-shot [`Adi2d::price`] calls.
#[derive(Debug, Clone)]
pub struct Adi2dPlan {
    cfg: Adi2d,
    market: GbmMarket,
    maturity: f64,
    dt: f64,
    r: f64,
    theta: f64,
    mixed: f64,
    ax1: Axis,
    ax2: Axis,
    s1: Vec<f64>,
    s2: Vec<f64>,
    sys1: Tridiag,
    sys2: Tridiag,
    fac1: FactoredTridiag,
    fac2: FactoredTridiag,
    /// Cooperative cancellation, polled once per time step. Inert by
    /// default; the serving layer installs a live token per request.
    cancel: mdp_math::CancelToken,
}

/// Reusable buffers for [`Adi2dPlan::execute`]: the intrinsic surface,
/// the evolving value grid and the per-kernel sweep workspaces.
#[derive(Debug, Default, Clone)]
pub struct Adi2dScratch {
    intrinsic: Vec<f64>,
    v: Vec<f64>,
    sweep: SweepScratch,
}

/// Stage buffers shared across time steps of one execute and across
/// executes of one scratch.
#[derive(Debug, Default, Clone)]
struct SweepScratch {
    y0: Vec<f64>,
    y1: Vec<f64>,
    lines1: Vec<f64>,
    panel1: Vec<f64>,
    panel2: Vec<f64>,
}

impl Adi2d {
    /// Build the payoff-independent plan for this configuration on a
    /// two-asset market with horizon `maturity`.
    pub fn plan(&self, market: &GbmMarket, maturity: f64) -> Result<Adi2dPlan, PdeError> {
        if market.dim() != 2 {
            return Err(PdeError::Model(mdp_model::ModelError::DimensionMismatch {
                product: 2,
                market: market.dim(),
            }));
        }
        let m = self.space_points;
        let n = self.time_steps;
        if m < 5 || n < 1 {
            return Err(PdeError::GridTooSmall { space: m, time: n });
        }
        if !maturity.is_finite() || maturity <= 0.0 {
            return Err(PdeError::Model(mdp_model::ModelError::InvalidParameter {
                what: "maturity",
                value: maturity,
            }));
        }
        check_width(self.width)?;
        let dt = maturity / n as f64;
        let r = market.rate();
        let theta = 0.5;

        // Per-axis operators: L_k = ½σ²∂ₖₖ + μ∂ₖ − r/2.
        let ax1 = build_axis(market, 0, maturity, self.width, m);
        let ax2 = build_axis(market, 1, maturity, self.width, m);
        let mixed = mixed_coefficient(market, &ax1, &ax2);
        let s1 = ax1.grid.spots();
        let s2 = ax2.grid.spots();

        // Implicit line systems (constant per run) and their Thomas
        // factors, derived once here instead of once per price call.
        let (sys1, fac1) = axis_system(theta, dt, &ax1, m, n)?;
        let (sys2, fac2) = axis_system(theta, dt, &ax2, m, n)?;
        Ok(Adi2dPlan {
            cfg: *self,
            market: market.clone(),
            maturity,
            dt,
            r,
            theta,
            mixed,
            ax1,
            ax2,
            s1,
            s2,
            sys1,
            sys2,
            fac1,
            fac2,
            cancel: mdp_math::CancelToken::never(),
        })
    }

    /// Price a two-asset, non-path-dependent product — a thin
    /// plan-then-execute wrapper around [`Adi2d::plan`].
    pub fn price(&self, market: &GbmMarket, product: &Product) -> Result<Adi2dResult, PdeError> {
        product.validate_for(market)?;
        let plan = self.plan(market, product.maturity)?;
        plan.execute(product, &mut Adi2dScratch::default())
    }
}

/// Axis operator coefficients for an existing grid spacing:
/// `L_k = ½σ²∂ₖₖ + μ∂ₖ − r/2` discretised with central differences.
/// Shared by fresh plans and tick patches for bit-identical rebuilds.
fn axis_coefficients(market: &GbmMarket, k: usize, dx: f64) -> (f64, f64, f64) {
    let sigma = market.vols()[k];
    let diff = 0.5 * sigma * sigma / (dx * dx);
    let conv = 0.5 * market.log_drift(k) / dx;
    (diff - conv, -2.0 * diff - 0.5 * market.rate(), diff + conv)
}

/// Build one axis: the log-spot grid plus its operator coefficients.
fn build_axis(market: &GbmMarket, k: usize, maturity: f64, width: f64, m: usize) -> Axis {
    let grid = LogGrid::new(market.spots()[k], market.vols()[k], maturity, width, m);
    let (a, b, c) = axis_coefficients(market, k, grid.dx);
    Axis { a, b, c, grid }
}

/// The explicit mixed-derivative coefficient `ρσ₁σ₂/(4·dx₁·dx₂)`.
fn mixed_coefficient(market: &GbmMarket, ax1: &Axis, ax2: &Axis) -> f64 {
    market.correlation()[(0, 1)] * market.vols()[0] * market.vols()[1]
        / (4.0 * ax1.grid.dx * ax2.grid.dx)
}

/// One stage system `(I − θΔt·A_k)` and its Thomas factors — the shared
/// [`mdp_math::linalg::factored_theta_system`] construction.
fn axis_system(
    theta: f64,
    dt: f64,
    ax: &Axis,
    m: usize,
    n: usize,
) -> Result<(Tridiag, FactoredTridiag), PdeError> {
    mdp_math::linalg::factored_theta_system(theta, dt, ax.a, ax.b, ax.c, m - 2)
        .map_err(|_| PdeError::GridTooSmall { space: m, time: n })
}

impl Adi2dPlan {
    /// Horizon the plan was built for.
    pub fn maturity(&self) -> f64 {
        self.maturity
    }

    /// The market snapshot the plan currently prices on (kept in sync
    /// by [`Adi2dPlan::apply_tick`]).
    pub fn market(&self) -> &GbmMarket {
        &self.market
    }

    /// Absorb one market tick, rebuilding only the invalidated plan
    /// components:
    ///
    /// * **Spot** — grid spacing is spot-independent, so the ticked
    ///   axis keeps its operator, stage system and Thomas factors; only
    ///   its node placement (and spot ladder) is recentred. The other
    ///   axis and the mixed coefficient are untouched.
    /// * **Vol** — changes that axis's `dx`: its grid, operator, stage
    ///   system and factors are rebuilt, plus the mixed coefficient.
    ///   The *other* axis survives wholesale.
    /// * **Rate** — both axes' operator coefficients and stage factors
    ///   are rebuilt; both grids and the mixed coefficient survive.
    /// * **Correlation** — only the mixed coefficient is recomputed.
    ///
    /// The patched plan is bitwise-equal to a fresh
    /// `cfg.plan(&ticked market, maturity)`: rebuilt components go
    /// through the same arithmetic as the fresh-plan path and surviving
    /// components are provably independent of the ticked field.
    pub fn apply_tick(&mut self, delta: &MarketDelta) -> Result<TickOutcome, PdeError> {
        let market = self.market.apply_delta(delta).map_err(PdeError::Model)?;
        let (m, n) = (self.cfg.space_points, self.cfg.time_steps);
        match delta {
            MarketDelta::Spot { asset, .. } => {
                let (ax, s) = if *asset == 0 {
                    (&mut self.ax1, &mut self.s1)
                } else {
                    (&mut self.ax2, &mut self.s2)
                };
                ax.grid = LogGrid::new(
                    market.spots()[*asset],
                    market.vols()[*asset],
                    self.maturity,
                    self.cfg.width,
                    m,
                );
                *s = ax.grid.spots();
                self.market = market;
                Ok(TickOutcome::Patched)
            }
            MarketDelta::Vol { asset, .. } => {
                let ax = build_axis(&market, *asset, self.maturity, self.cfg.width, m);
                let (sys, fac) = axis_system(self.theta, self.dt, &ax, m, n)?;
                if *asset == 0 {
                    self.s1 = ax.grid.spots();
                    self.ax1 = ax;
                    self.sys1 = sys;
                    self.fac1 = fac;
                } else {
                    self.s2 = ax.grid.spots();
                    self.ax2 = ax;
                    self.sys2 = sys;
                    self.fac2 = fac;
                }
                self.mixed = mixed_coefficient(&market, &self.ax1, &self.ax2);
                self.market = market;
                Ok(TickOutcome::Patched)
            }
            MarketDelta::Rate { .. } => {
                let (a1, b1, c1) = axis_coefficients(&market, 0, self.ax1.grid.dx);
                let (a2, b2, c2) = axis_coefficients(&market, 1, self.ax2.grid.dx);
                (self.ax1.a, self.ax1.b, self.ax1.c) = (a1, b1, c1);
                (self.ax2.a, self.ax2.b, self.ax2.c) = (a2, b2, c2);
                let (sys1, fac1) = axis_system(self.theta, self.dt, &self.ax1, m, n)?;
                let (sys2, fac2) = axis_system(self.theta, self.dt, &self.ax2, m, n)?;
                self.sys1 = sys1;
                self.fac1 = fac1;
                self.sys2 = sys2;
                self.fac2 = fac2;
                self.r = market.rate();
                self.market = market;
                Ok(TickOutcome::Patched)
            }
            MarketDelta::Correlation { .. } => {
                self.mixed = mixed_coefficient(&market, &self.ax1, &self.ax2);
                self.market = market;
                Ok(TickOutcome::Patched)
            }
        }
    }

    /// Install a cooperative cancel token, polled once per time step; a
    /// tripped token aborts the run with [`PdeError::Cancelled`]. Runs
    /// that complete are bitwise-identical to runs without a token.
    pub fn set_cancel(&mut self, cancel: mdp_math::CancelToken) {
        self.cancel = cancel;
    }

    /// Run the planned scheme for one product. Bitwise-identical to the
    /// one-shot [`Adi2d::price`] on the same inputs.
    pub fn execute(
        &self,
        product: &Product,
        scratch: &mut Adi2dScratch,
    ) -> Result<Adi2dResult, PdeError> {
        product.validate_for(&self.market)?;
        if product.payoff.is_path_dependent() {
            return Err(PdeError::Model(mdp_model::ModelError::Unsupported {
                engine: "2-D ADI",
                why: "path-dependent payoff".into(),
            }));
        }
        if product.maturity != self.maturity {
            return Err(PdeError::Model(mdp_model::ModelError::Unsupported {
                engine: "2-D ADI",
                why: format!(
                    "plan built for maturity {}, product has {}",
                    self.maturity, product.maturity
                ),
            }));
        }
        let m = self.cfg.space_points;
        let american = product.exercise == ExerciseStyle::American;

        // Terminal values and intrinsic surface (the only payoff-
        // dependent state).
        let Adi2dScratch {
            intrinsic,
            v,
            sweep,
        } = scratch;
        intrinsic.clear();
        intrinsic.extend(
            (0..m * m).map(|idx| product.payoff.eval(&[self.s1[idx / m], self.s2[idx % m]])),
        );
        v.clear();
        v.extend_from_slice(intrinsic);

        let env = Env {
            m,
            n: self.cfg.time_steps,
            dt: self.dt,
            r: self.r,
            theta: self.theta,
            american,
            mixed: self.mixed,
            ax1: &self.ax1,
            ax2: &self.ax2,
            intrinsic,
        };
        let swept = match self.cfg.kernel {
            AdiKernel::Scalar => self.sweep_scalar(&env, v, sweep)?,
            AdiKernel::Blocked => self.sweep_blocked(&env, v, sweep)?,
        };
        let nodes = (m * m) as u64 + swept;

        Ok(Adi2dResult {
            price: v[self.ax1.grid.center * m + self.ax2.grid.center],
            nodes_processed: nodes,
        })
    }

    /// Per-line oracle: one Thomas solve per grid line, stage 1 gathered
    /// column-wise, stage 2 in place on the rows.
    fn sweep_scalar(
        &self,
        env: &Env,
        v: &mut [f64],
        sc: &mut SweepScratch,
    ) -> Result<u64, PdeError> {
        let (sys1, sys2) = (&self.sys1, &self.sys2);
        let (m, n) = (env.m, env.n);
        let (dt, theta, mixed) = (env.dt, env.theta, env.mixed);
        let (ax1, ax2) = (env.ax1, env.ax2);
        let (american, intrinsic) = (env.american, env.intrinsic);
        let interior = m - 2;
        let idx = |i: usize, j: usize| i * m + j;

        // Stage buffers, sized once and rewritten every time step
        // (only interior entries are ever read back).
        sc.y0.resize(m * m, 0.0);
        sc.y1.resize(m * m, 0.0);
        // Stage-1 solutions: one contiguous `interior`-length line per
        // interior j, scattered into `y1` columns after the solves.
        sc.lines1.resize(interior * interior, 0.0);
        let (y0, y1, lines1) = (&mut sc.y0, &mut sc.y1, &mut sc.lines1);

        let mut nodes = 0u64;
        for step in 1..=n {
            if self.cancel.is_cancelled() {
                return Err(PdeError::Cancelled);
            }
            let tau = step as f64 * dt;
            let df = (-env.r * tau).exp();
            let boundary = |i: usize, j: usize| {
                let b = df * intrinsic[idx(i, j)];
                if american {
                    b.max(intrinsic[idx(i, j)])
                } else {
                    b
                }
            };

            // --- explicit predictor Y0 = V + Δt·L V on the interior ----
            for i in 1..m - 1 {
                for j in 1..m - 1 {
                    let l1 =
                        ax1.a * v[idx(i - 1, j)] + ax1.b * v[idx(i, j)] + ax1.c * v[idx(i + 1, j)];
                    let l2 =
                        ax2.a * v[idx(i, j - 1)] + ax2.b * v[idx(i, j)] + ax2.c * v[idx(i, j + 1)];
                    let l0 = mixed
                        * (v[idx(i + 1, j + 1)] - v[idx(i + 1, j - 1)] - v[idx(i - 1, j + 1)]
                            + v[idx(i - 1, j - 1)]);
                    y0[idx(i, j)] = v[idx(i, j)] + dt * (l0 + l1 + l2);
                }
            }

            // --- stage 1: implicit in x1 (solve one line per interior j)
            // Each worker reuses its thread-local rhs/elimination
            // buffers and solves straight into the line's slot of
            // `lines1` — no per-line allocations.
            let solve_j = |jrel: usize, out: &mut [f64]| {
                let j = jrel + 1;
                LINE_SCRATCH.with(|cell| {
                    let sc = &mut *cell.borrow_mut();
                    sc.rhs.resize(interior, 0.0);
                    for i in 1..m - 1 {
                        let l1v = ax1.a * v[idx(i - 1, j)]
                            + ax1.b * v[idx(i, j)]
                            + ax1.c * v[idx(i + 1, j)];
                        sc.rhs[i - 1] = y0[idx(i, j)] - theta * dt * l1v;
                    }
                    sc.rhs[0] += theta * dt * ax1.a * boundary(0, j);
                    sc.rhs[interior - 1] += theta * dt * ax1.c * boundary(m - 1, j);
                    sys1.solve_thomas_into(&sc.rhs, &mut sc.thomas, out)
                        .expect("diagonally dominant");
                });
            };
            if self.cfg.parallel {
                lines1
                    .par_chunks_mut(interior)
                    .enumerate()
                    .for_each(|(jrel, out)| solve_j(jrel, out));
            } else {
                for (jrel, out) in lines1.chunks_mut(interior).enumerate() {
                    solve_j(jrel, out);
                }
            }
            for (jrel, line) in lines1.chunks(interior).enumerate() {
                for (irel, val) in line.iter().enumerate() {
                    y1[idx(irel + 1, jrel + 1)] = *val;
                }
            }

            // --- stage 2: implicit in x2 (solve one line per interior i)
            // A stage-2 line reads and writes only row i of `v`
            // (contiguous), so it solves in place on the row slice: the
            // rhs is fully built from the old row values before the
            // solution overwrites the interior.
            let solve_i = |i: usize, row: &mut [f64]| {
                if i == 0 || i == m - 1 {
                    return; // boundary rows are refreshed below
                }
                LINE_SCRATCH.with(|cell| {
                    let sc = &mut *cell.borrow_mut();
                    sc.rhs.resize(interior, 0.0);
                    for j in 1..m - 1 {
                        let l2v = ax2.a * row[j - 1] + ax2.b * row[j] + ax2.c * row[j + 1];
                        sc.rhs[j - 1] = y1[idx(i, j)] - theta * dt * l2v;
                    }
                    sc.rhs[0] += theta * dt * ax2.a * boundary(i, 0);
                    sc.rhs[interior - 1] += theta * dt * ax2.c * boundary(i, m - 1);
                    sys2.solve_thomas_into(&sc.rhs, &mut sc.thomas, &mut row[1..m - 1])
                        .expect("diagonally dominant");
                });
            };
            if self.cfg.parallel {
                v.par_chunks_mut(m)
                    .enumerate()
                    .for_each(|(i, row)| solve_i(i, row));
            } else {
                for (i, row) in v.chunks_mut(m).enumerate() {
                    solve_i(i, row);
                }
            }

            finish_step(env, v, &boundary);
            nodes += (m * m) as u64;
        }
        Ok(nodes)
    }

    /// Blocked fast path: factor-once stage operators, tile-major panels
    /// in line-interleaved layout, predictor fused into the stage-1 RHS
    /// build. Bitwise-equal to [`Self::sweep_scalar`] because every
    /// per-element expression is identical and only independent lines
    /// are regrouped.
    fn sweep_blocked(
        &self,
        env: &Env,
        v: &mut [f64],
        sc: &mut SweepScratch,
    ) -> Result<u64, PdeError> {
        let (fac1, fac2) = (&self.fac1, &self.fac2);
        let (m, n) = (env.m, env.n);
        let (dt, theta, mixed) = (env.dt, env.theta, env.mixed);
        let (ax1, ax2) = (env.ax1, env.ax2);
        let (american, intrinsic) = (env.american, env.intrinsic);
        let interior = m - 2;
        let idx = |i: usize, j: usize| i * m + j;

        let tile = TILE.min(interior);
        // A panel stores its tiles back to back; tile t of stage 1 holds
        // lines (columns) j ∈ [1+t·tile, …) interleaved: element
        // (irel, lane) lives at t·chunk + irel·w + lane with w the tile's
        // width (ragged for the last tile).
        let chunk = interior * tile;
        let tile_width = |t: usize| tile.min(interior - t * tile);
        sc.panel1.resize(interior * interior, 0.0);
        sc.panel2.resize(interior * interior, 0.0);
        let (panel1, panel2) = (&mut sc.panel1, &mut sc.panel2);

        let mut nodes = 0u64;
        for step in 1..=n {
            if self.cancel.is_cancelled() {
                return Err(PdeError::Cancelled);
            }
            let tau = step as f64 * dt;
            let df = (-env.r * tau).exp();
            let boundary = |i: usize, j: usize| {
                let b = df * intrinsic[idx(i, j)];
                if american {
                    b.max(intrinsic[idx(i, j)])
                } else {
                    b
                }
            };

            // --- stage 1, fused with the predictor: for each column
            // tile, build Y0 and the stage-1 RHS in one stencil pass
            // over the rows of Vⁿ (all reads stride-1), then solve the
            // whole tile multi-RHS. Row-major `v` already interleaves
            // the column lines, so no transpose is needed here.
            let stage1 = |t: usize, buf: &mut [f64]| {
                let jlo = 1 + t * tile;
                let w = buf.len() / interior;
                for irel in 0..interior {
                    let i = irel + 1;
                    let row_m = &v[idx(i - 1, 0)..idx(i - 1, m)];
                    let row_0 = &v[idx(i, 0)..idx(i, m)];
                    let row_p = &v[idx(i + 1, 0)..idx(i + 1, m)];
                    let out = &mut buf[irel * w..(irel + 1) * w];
                    for (l, slot) in out.iter_mut().enumerate() {
                        let j = jlo + l;
                        let l1 = ax1.a * row_m[j] + ax1.b * row_0[j] + ax1.c * row_p[j];
                        let l2 = ax2.a * row_0[j - 1] + ax2.b * row_0[j] + ax2.c * row_0[j + 1];
                        let l0 =
                            mixed * (row_p[j + 1] - row_p[j - 1] - row_m[j + 1] + row_m[j - 1]);
                        let y0 = row_0[j] + dt * (l0 + l1 + l2);
                        let mut rhs = y0 - theta * dt * l1;
                        if irel == 0 {
                            rhs += theta * dt * ax1.a * boundary(0, j);
                        }
                        if irel == interior - 1 {
                            rhs += theta * dt * ax1.c * boundary(m - 1, j);
                        }
                        *slot = rhs;
                    }
                }
                fac1.solve_panel_transposed(buf);
            };
            if self.cfg.parallel {
                panel1
                    .par_chunks_mut(chunk)
                    .enumerate()
                    .for_each(|(t, buf)| stage1(t, buf));
            } else {
                for (t, buf) in panel1.chunks_mut(chunk).enumerate() {
                    stage1(t, buf);
                }
            }

            // Y1 lookup into the tile-major stage-1 panel.
            let panel1_ref = &panel1;
            let y1_at = move |i: usize, j: usize| {
                let (irel, jrel) = (i - 1, j - 1);
                let tj = jrel / tile;
                let w = tile_width(tj);
                panel1_ref[tj * chunk + irel * w + (jrel - tj * tile)]
            };

            // --- stage 2: row lines, gathered through the tile buffer —
            // the blocked transpose. Tile ti interleaves rows
            // i ∈ [1+ti·tile, …): walking jrel touches `v` and panel1 in
            // cache-line-sized row segments instead of full-grid strides,
            // and the solve again runs multi-RHS down stride-1 rows.
            let stage2 = |ti: usize, buf: &mut [f64]| {
                let ilo = 1 + ti * tile;
                let w = buf.len() / interior;
                for jrel in 0..interior {
                    let j = jrel + 1;
                    let out = &mut buf[jrel * w..(jrel + 1) * w];
                    for (l, slot) in out.iter_mut().enumerate() {
                        let i = ilo + l;
                        let row = &v[idx(i, 0)..idx(i, m)];
                        let l2v = ax2.a * row[j - 1] + ax2.b * row[j] + ax2.c * row[j + 1];
                        let mut rhs = y1_at(i, j) - theta * dt * l2v;
                        if jrel == 0 {
                            rhs += theta * dt * ax2.a * boundary(i, 0);
                        }
                        if jrel == interior - 1 {
                            rhs += theta * dt * ax2.c * boundary(i, m - 1);
                        }
                        *slot = rhs;
                    }
                }
                fac2.solve_panel_transposed(buf);
            };
            if self.cfg.parallel {
                panel2
                    .par_chunks_mut(chunk)
                    .enumerate()
                    .for_each(|(ti, buf)| stage2(ti, buf));
            } else {
                for (ti, buf) in panel2.chunks_mut(chunk).enumerate() {
                    stage2(ti, buf);
                }
            }

            // Scatter the stage-2 solutions back into the value rows.
            let panel2_ref = &panel2;
            let scatter = |i: usize, row: &mut [f64]| {
                if i == 0 || i == m - 1 {
                    return; // boundary rows are refreshed below
                }
                let irel = i - 1;
                let ti = irel / tile;
                let w = tile_width(ti);
                let lane = irel - ti * tile;
                let src = &panel2_ref[ti * chunk..ti * chunk + interior * w];
                for jrel in 0..interior {
                    row[jrel + 1] = src[jrel * w + lane];
                }
            };
            if self.cfg.parallel {
                v.par_chunks_mut(m)
                    .enumerate()
                    .for_each(|(i, row)| scatter(i, row));
            } else {
                for (i, row) in v.chunks_mut(m).enumerate() {
                    scatter(i, row);
                }
            }

            finish_step(env, v, &boundary);
            nodes += (m * m) as u64;
        }
        Ok(nodes)
    }
}

/// Shared per-step epilogue: refresh the Dirichlet boundaries at the new
/// time level and apply the American projection. Identical between the
/// kernels so the bitwise contract only depends on the sweeps.
fn finish_step(env: &Env, v: &mut [f64], boundary: &dyn Fn(usize, usize) -> f64) {
    let m = env.m;
    for i in 0..m {
        v[i * m] = boundary(i, 0);
        v[i * m + m - 1] = boundary(i, m - 1);
    }
    for j in 0..m {
        v[j] = boundary(0, j);
        v[(m - 1) * m + j] = boundary(m - 1, j);
    }
    if env.american {
        for (val, &intr) in v.iter_mut().zip(env.intrinsic) {
            *val = val.max(intr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdp_math::approx_eq;
    use mdp_model::{analytic, Payoff};

    fn market(rho: f64) -> GbmMarket {
        GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, rho).unwrap()
    }

    #[test]
    fn geometric_call_matches_closed_form() {
        let m = market(0.5);
        let p = Product::european(Payoff::GeometricCall { strike: 100.0 }, 1.0);
        let exact = analytic::geometric_basket_call(&m, &[0.5, 0.5], 100.0, 1.0);
        let r = Adi2d::default().price(&m, &p).unwrap();
        assert!(approx_eq(r.price, exact, 5e-3), "{} vs {exact}", r.price);
    }

    #[test]
    fn max_call_matches_stulz() {
        let m = market(0.3);
        let p = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
        let exact =
            analytic::max_call_two_assets(100.0, 0.0, 0.2, 100.0, 0.0, 0.2, 0.3, 0.05, 100.0, 1.0);
        let cfg = Adi2d {
            space_points: 151,
            time_steps: 150,
            ..Default::default()
        };
        let r = cfg.price(&m, &p).unwrap();
        assert!(approx_eq(r.price, exact, 1e-2), "{} vs {exact}", r.price);
    }

    #[test]
    fn exchange_matches_margrabe_with_negative_correlation() {
        let m = market(-0.4);
        let p = Product::european(Payoff::Exchange, 1.0);
        let exact = analytic::margrabe_exchange(100.0, 0.0, 0.2, 100.0, 0.0, 0.2, -0.4, 1.0);
        let cfg = Adi2d {
            space_points: 151,
            time_steps: 150,
            ..Default::default()
        };
        let r = cfg.price(&m, &p).unwrap();
        assert!(approx_eq(r.price, exact, 2e-2), "{} vs {exact}", r.price);
    }

    #[test]
    fn apply_tick_bitwise_equals_fresh_plan() {
        let cfg = Adi2d {
            space_points: 61,
            time_steps: 30,
            ..Default::default()
        };
        let m0 = market(0.5);
        let p = Product::european(Payoff::GeometricCall { strike: 100.0 }, 1.0);
        let mut corr = mdp_math::linalg::Matrix::identity(2);
        corr[(0, 1)] = 0.25;
        corr[(1, 0)] = 0.25;
        let ticks = [
            MarketDelta::Spot {
                asset: 0,
                spot: 103.0,
            },
            MarketDelta::Vol {
                asset: 1,
                vol: 0.26,
            },
            MarketDelta::Rate { rate: 0.035 },
            MarketDelta::Correlation { correlation: corr },
            MarketDelta::Spot {
                asset: 1,
                spot: 97.5,
            },
        ];
        let mut ticked = cfg.plan(&m0, 1.0).unwrap();
        let mut mk = m0;
        for delta in &ticks {
            assert_eq!(ticked.apply_tick(delta).unwrap(), TickOutcome::Patched);
            mk = mk.apply_delta(delta).unwrap();
            let fresh = cfg.plan(&mk, 1.0).unwrap();
            let pt = ticked.execute(&p, &mut Adi2dScratch::default()).unwrap();
            let pf = fresh.execute(&p, &mut Adi2dScratch::default()).unwrap();
            assert_eq!(pt.price.to_bits(), pf.price.to_bits(), "{delta:?}");
        }
    }

    #[test]
    fn parallel_lines_are_bit_identical() {
        let m = market(0.5);
        let p = Product::american(Payoff::MinPut { strike: 110.0 }, 1.0);
        for kernel in [AdiKernel::Scalar, AdiKernel::Blocked] {
            let seq = Adi2d {
                space_points: 61,
                time_steps: 30,
                parallel: false,
                kernel,
                ..Default::default()
            }
            .price(&m, &p)
            .unwrap();
            let par = Adi2d {
                space_points: 61,
                time_steps: 30,
                parallel: true,
                kernel,
                ..Default::default()
            }
            .price(&m, &p)
            .unwrap();
            assert_eq!(seq.price.to_bits(), par.price.to_bits(), "{kernel:?}");
        }
    }

    #[test]
    fn blocked_kernel_matches_scalar_oracle_bitwise() {
        // Both correlation signs, both exercise styles, and a grid size
        // that exercises a ragged last tile.
        for rho in [-0.4, 0.3] {
            let m = market(rho);
            for (pay, american) in [
                (Payoff::MaxCall { strike: 100.0 }, false),
                (Payoff::MinPut { strike: 110.0 }, true),
            ] {
                let p = if american {
                    Product::american(pay.clone(), 1.0)
                } else {
                    Product::european(pay.clone(), 1.0)
                };
                let mk = |kernel| Adi2d {
                    space_points: 71,
                    time_steps: 20,
                    kernel,
                    ..Default::default()
                };
                let scalar = mk(AdiKernel::Scalar).price(&m, &p).unwrap();
                let blocked = mk(AdiKernel::Blocked).price(&m, &p).unwrap();
                assert_eq!(
                    scalar.price.to_bits(),
                    blocked.price.to_bits(),
                    "rho={rho} american={american}"
                );
                assert_eq!(scalar.nodes_processed, blocked.nodes_processed);
            }
        }
    }

    #[test]
    fn american_min_put_dominates_european() {
        let m = market(0.3);
        let pay = Payoff::MinPut { strike: 110.0 };
        let eu = Adi2d::default()
            .price(&m, &Product::european(pay.clone(), 1.0))
            .unwrap();
        let am = Adi2d::default()
            .price(&m, &Product::american(pay, 1.0))
            .unwrap();
        assert!(am.price >= eu.price - 1e-9);
        assert!(am.price >= 10.0 - 1e-9, "at least intrinsic: {}", am.price);
        // European reference from the closed form.
        let exact =
            analytic::min_put_two_assets(100.0, 0.0, 0.2, 100.0, 0.0, 0.2, 0.3, 0.05, 110.0, 1.0);
        assert!(approx_eq(eu.price, exact, 2e-2), "{} vs {exact}", eu.price);
    }

    #[test]
    fn agrees_with_beg_lattice() {
        let m = market(0.5);
        let p = Product::american(Payoff::MaxCall { strike: 100.0 }, 1.0);
        let lattice = mdp_lattice::MultiLattice::new(100).price(&m, &p).unwrap();
        let pde = Adi2d {
            space_points: 121,
            time_steps: 100,
            ..Default::default()
        }
        .price(&m, &p)
        .unwrap();
        assert!(
            approx_eq(pde.price, lattice.price, 2e-2),
            "pde {} vs lattice {}",
            pde.price,
            lattice.price
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        let m1 = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
        let p2 = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
        assert!(Adi2d::default().price(&m1, &p2).is_err());
        let m2 = market(0.0);
        let asian = Product::european(Payoff::AsianCall { strike: 100.0 }, 1.0);
        assert!(Adi2d::default().price(&m2, &asian).is_err());
        let tiny = Adi2d {
            space_points: 3,
            ..Default::default()
        };
        assert!(matches!(
            tiny.price(&m2, &p2),
            Err(PdeError::GridTooSmall { .. })
        ));
        for width in [0.0, -1.0, f64::NAN] {
            let cfg = Adi2d {
                width,
                ..Default::default()
            };
            assert!(matches!(
                cfg.price(&m2, &p2),
                Err(PdeError::Model(mdp_model::ModelError::InvalidParameter {
                    what: "width",
                    ..
                }))
            ));
        }
    }

    #[test]
    fn plan_execute_bitwise_matches_one_shot() {
        let m = market(0.3);
        let cfg = Adi2d {
            space_points: 61,
            time_steps: 20,
            ..Default::default()
        };
        let plan = cfg.plan(&m, 1.0).unwrap();
        let mut scratch = Adi2dScratch::default();
        for p in [
            Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0),
            Product::american(Payoff::MinPut { strike: 110.0 }, 1.0),
        ] {
            let one_shot = cfg.price(&m, &p).unwrap();
            let a = plan.execute(&p, &mut scratch).unwrap();
            let b = plan.execute(&p, &mut scratch).unwrap();
            assert_eq!(a.price.to_bits(), one_shot.price.to_bits());
            assert_eq!(b.price.to_bits(), one_shot.price.to_bits());
            assert_eq!(a.nodes_processed, one_shot.nodes_processed);
        }
        let short = Product::european(Payoff::MaxCall { strike: 100.0 }, 0.5);
        assert!(plan.execute(&short, &mut scratch).is_err());
    }

    #[test]
    fn node_accounting() {
        let m = market(0.0);
        let p = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
        for kernel in [AdiKernel::Scalar, AdiKernel::Blocked] {
            let cfg = Adi2d {
                space_points: 11,
                time_steps: 3,
                kernel,
                ..Default::default()
            };
            let r = cfg.price(&m, &p).unwrap();
            assert_eq!(r.nodes_processed, 121 * 4, "{kernel:?}");
        }
    }
}
