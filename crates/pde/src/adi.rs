//! Douglas ADI for correlated two- and three-asset products.
//!
//! The d-asset Black–Scholes PDE in `x = ln S` carries the mixed
//! derivatives `ρ_pq σ_p σ_q V_{x_p x_q}` that plain dimensional
//! splitting cannot absorb implicitly; the Douglas scheme treats them
//! explicitly and splits the rest axis by axis:
//!
//! ```text
//! Y₀ = Vⁿ + Δt·(A₀ + A₁ + … + A_d)Vⁿ          (explicit predictor)
//! (I − θΔt A_k) Y_k = Y_{k−1} − θΔt A_k Vⁿ      (implicit x_k lines, k = 1…d)
//! Vⁿ⁺¹ = Y_d,  θ = ½
//! ```
//!
//! with `A_k = ½σ_k²∂_kk + μ_k∂_k − r/d` and `A₀` the mixed terms of
//! every axis pair. One [`AdiPlan`] serves both front doors, [`Adi2d`]
//! and [`Adi3d`]; the dimension is a const generic of the kernel,
//! chosen once per execute.
//!
//! Each implicit stage is a family of **independent tridiagonal line
//! solves** with the *same* constant-coefficient matrix, and the kernel
//! exploits that structure three ways:
//!
//! * **Factor once** — the Thomas elimination factors of each stage
//!   operator are precomputed ([`mdp_math::linalg::FactoredTridiag`])
//!   instead of being re-derived for every line of every step.
//! * **Multi-RHS transposed panels** — lines are solved `TILE` at a
//!   time in line-interleaved layout, so the serial Thomas recurrence
//!   runs down the grid while the CPU vectorises across the lines. A
//!   stage's lanes run along the contiguous last axis; the last axis's
//!   own lines take their lanes across the axis before it.
//! * **Fused predictor** — the explicit `Y₀` pass and the stage-1
//!   right-hand side are built in one stencil sweep over `Vⁿ`.
//!
//! Every reordering is across *independent* lines and every per-element
//! expression matches the per-line path, so the panels are **bitwise
//! identical** to [`AdiPlan::execute_per_line`], one Thomas solve per
//! grid line, kept as the oracle. The 2-D engine's tiles run under rayon
//! behind its `parallel` flag, again without reordering any element's
//! arithmetic.
//!
//! Boundaries are Dirichlet discounted intrinsic on every face, and
//! American exercise is a pointwise projection after each step.

use crate::grid::{check_width, LogGrid};
use crate::PdeError;
use mdp_math::linalg::tridiag::{FactoredTridiag, ThomasScratch, Tridiag};
use mdp_model::{ExerciseStyle, GbmMarket, MarketDelta, ModelError, Product, TickOutcome};
use rayon::prelude::*;

/// Lines solved per panel tile: wide enough that the forward/backward
/// sweeps vectorise and the pivot-division latency is hidden across
/// lanes, small enough that a tile's rows stay cache resident.
const TILE: usize = 32;

/// Which implementation executes the ADI stages. The blocked panels are
/// the only one; the per-line oracle is [`AdiPlan::execute_per_line`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdiKernel {
    /// Factor-once multi-RHS panels with tiled transposed sweeps.
    #[default]
    Blocked,
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
    /// Hot-path implementation (one variant).
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

/// Configuration of the 3-D ADI engine.
#[derive(Debug, Clone, Copy)]
pub struct Adi3d {
    /// Grid points per axis.
    pub space_points: usize,
    /// Time steps.
    pub time_steps: usize,
    /// Domain half-width in standard deviations.
    pub width: f64,
}

impl Default for Adi3d {
    fn default() -> Self {
        Adi3d {
            space_points: 41,
            time_steps: 40,
            width: 5.0,
        }
    }
}

/// Result of an ADI run.
#[derive(Debug, Clone)]
pub struct AdiResult {
    /// Present value at the spot vector.
    pub price: f64,
    /// Grid-point updates performed.
    pub nodes_processed: u64,
}

/// What a plan is built from: either front door's configuration.
#[derive(Debug, Clone, Copy)]
struct Shape {
    dim: usize,
    space_points: usize,
    time_steps: usize,
    width: f64,
    parallel: bool,
    /// Engine name in error messages.
    engine: &'static str,
}

impl Adi2d {
    /// Build the payoff-independent plan for this configuration on a
    /// two-asset market with horizon `maturity`.
    pub fn plan(&self, market: &GbmMarket, maturity: f64) -> Result<AdiPlan, PdeError> {
        AdiPlan::new(
            Shape {
                dim: 2,
                space_points: self.space_points,
                time_steps: self.time_steps,
                width: self.width,
                parallel: self.parallel,
                engine: "2-D ADI",
            },
            market,
            maturity,
        )
    }

    /// Price a two-asset, non-path-dependent product — a thin
    /// plan-then-execute wrapper around [`Adi2d::plan`].
    pub fn price(&self, market: &GbmMarket, product: &Product) -> Result<AdiResult, PdeError> {
        product.validate_for(market)?;
        let plan = self.plan(market, product.maturity)?;
        plan.execute(product, &mut AdiScratch::default())
    }
}

impl Adi3d {
    /// Build the payoff-independent plan for this configuration on a
    /// three-asset market with horizon `maturity`.
    pub fn plan(&self, market: &GbmMarket, maturity: f64) -> Result<AdiPlan, PdeError> {
        AdiPlan::new(
            Shape {
                dim: 3,
                space_points: self.space_points,
                time_steps: self.time_steps,
                width: self.width,
                parallel: false,
                engine: "3-D ADI",
            },
            market,
            maturity,
        )
    }

    /// Price a three-asset, non-path-dependent product — a thin
    /// plan-then-execute wrapper around [`Adi3d::plan`].
    pub fn price(&self, market: &GbmMarket, product: &Product) -> Result<AdiResult, PdeError> {
        product.validate_for(market)?;
        let plan = self.plan(market, product.maturity)?;
        plan.execute(product, &mut AdiScratch::default())
    }
}

/// One spatial axis: its log-spot grid and spot ladder, the operator
/// `A_k = a·∂₋ + b·I + c·∂₊`, and the stage system `(I − θΔt·A_k)` with
/// its Thomas factors.
#[derive(Debug, Clone)]
struct Axis {
    grid: LogGrid,
    spots: Vec<f64>,
    a: f64,
    b: f64,
    c: f64,
    sys: Tridiag,
    fac: FactoredTridiag,
}

/// Planned state of an ADI run: one axis per asset (grid, operator and
/// factored stage system) and the mixed coefficient of each axis pair,
/// all independent of the payoff. Build once with [`Adi2d::plan`] or
/// [`Adi3d::plan`], execute per product with [`AdiPlan::execute`]; a
/// plan executed N times is bitwise-identical to N one-shot `price`
/// calls.
#[derive(Debug, Clone)]
pub struct AdiPlan {
    shape: Shape,
    market: GbmMarket,
    maturity: f64,
    dt: f64,
    theta: f64,
    axes: Vec<Axis>,
    /// Mixed-derivative coefficients of the pairs (0,1), (0,2), (1,2).
    mixed: Vec<f64>,
    /// Cooperative cancellation, polled once per time step. Inert by
    /// default; the serving layer installs a live token per request.
    cancel: mdp_math::CancelToken,
}

/// Reusable buffers for [`AdiPlan::execute`]: the intrinsic and value
/// grids, one tile-major panel per implicit stage but the last (each
/// holds its stage's solution for the next), and the last stage's
/// one-tile panel.
#[derive(Debug, Default, Clone)]
pub struct AdiScratch {
    intrinsic: Vec<f64>,
    v: Vec<f64>,
    panels: Vec<Vec<f64>>,
    last: Vec<f64>,
}

/// Axis operator coefficients for an existing grid spacing:
/// `A_k = ½σ²∂ₖₖ + μ∂ₖ − r/d` discretised with central differences.
/// Shared by fresh plans and tick patches for bit-identical rebuilds.
fn axis_coefficients(market: &GbmMarket, k: usize, dx: f64) -> (f64, f64, f64) {
    let sigma = market.vols()[k];
    let diff = 0.5 * sigma * sigma / (dx * dx);
    let conv = 0.5 * market.log_drift(k) / dx;
    let rate = market.rate() / market.dim() as f64;
    (diff - conv, -2.0 * diff - rate, diff + conv)
}

/// The explicit mixed-derivative coefficients
/// `ρ_pq σ_p σ_q / (4·dx_p·dx_q)` of the pairs `p < q` in order.
fn mixed_coefficients(market: &GbmMarket, axes: &[Axis]) -> Vec<f64> {
    let mut out = Vec::new();
    for p in 0..axes.len() {
        for q in p + 1..axes.len() {
            out.push(
                market.correlation()[(p, q)] * market.vols()[p] * market.vols()[q]
                    / (4.0 * axes[p].grid.dx * axes[q].grid.dx),
            );
        }
    }
    out
}

impl Shape {
    /// The log-spot grid of axis `k`, centred on the market's spot.
    fn grid(&self, market: &GbmMarket, k: usize, maturity: f64) -> LogGrid {
        LogGrid::new(
            market.spots()[k],
            market.vols()[k],
            maturity,
            self.width,
            self.space_points,
        )
    }

    /// Axis `k` on `grid`: its operator and the factored stage system
    /// (the shared [`mdp_math::linalg::factored_theta_system`]).
    fn axis(
        &self,
        market: &GbmMarket,
        k: usize,
        grid: LogGrid,
        theta: f64,
        dt: f64,
    ) -> Result<Axis, PdeError> {
        let (a, b, c) = axis_coefficients(market, k, grid.dx);
        let (sys, fac) =
            mdp_math::linalg::factored_theta_system(theta, dt, a, b, c, self.space_points - 2)
                .map_err(|_| PdeError::GridTooSmall {
                    space: self.space_points,
                    time: self.time_steps,
                })?;
        Ok(Axis {
            spots: grid.spots(),
            grid,
            a,
            b,
            c,
            sys,
            fac,
        })
    }
}

impl AdiPlan {
    fn new(shape: Shape, market: &GbmMarket, maturity: f64) -> Result<AdiPlan, PdeError> {
        if market.dim() != shape.dim {
            return Err(PdeError::Model(ModelError::DimensionMismatch {
                product: shape.dim,
                market: market.dim(),
            }));
        }
        let (m, n) = (shape.space_points, shape.time_steps);
        if m < 5 || n < 1 {
            return Err(PdeError::GridTooSmall { space: m, time: n });
        }
        if !maturity.is_finite() || maturity <= 0.0 {
            return Err(PdeError::Model(ModelError::InvalidParameter {
                what: "maturity",
                value: maturity,
            }));
        }
        check_width(shape.width)?;
        let dt = maturity / n as f64;
        let theta = 0.5;
        let axes = (0..shape.dim)
            .map(|k| shape.axis(market, k, shape.grid(market, k, maturity), theta, dt))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(AdiPlan {
            shape,
            market: market.clone(),
            maturity,
            dt,
            theta,
            mixed: mixed_coefficients(market, &axes),
            axes,
            cancel: mdp_math::CancelToken::never(),
        })
    }

    /// Horizon the plan was built for.
    pub fn maturity(&self) -> f64 {
        self.maturity
    }

    /// The market snapshot the plan currently prices on (kept in sync
    /// by [`AdiPlan::apply_tick`]).
    pub fn market(&self) -> &GbmMarket {
        &self.market
    }

    /// Absorb one market tick, rebuilding only the invalidated plan
    /// components:
    ///
    /// * **Spot** — grid spacing is spot-independent, so the ticked
    ///   axis keeps its operator, stage system and Thomas factors; only
    ///   its node placement (and spot ladder) is recentred.
    /// * **Vol** — changes that axis's `dx`: its grid, operator, stage
    ///   system and factors are rebuilt, plus the mixed coefficients
    ///   (the pairs not touching the asset recompute to identical bits
    ///   from identical inputs). The other axes survive wholesale.
    /// * **Rate** — every axis's operator and stage factors are
    ///   rebuilt; the grids and mixed coefficients survive.
    /// * **Correlation** — only the mixed coefficients are recomputed.
    ///
    /// The patched plan is bitwise-equal to a fresh plan on the ticked
    /// market: rebuilt components go through the same arithmetic as the
    /// fresh-plan path and surviving components are provably
    /// independent of the ticked field. The installed cancel token
    /// survives every tick.
    pub fn apply_tick(&mut self, delta: &MarketDelta) -> Result<TickOutcome, PdeError> {
        let market = self.market.apply_delta(delta).map_err(PdeError::Model)?;
        let (shape, maturity) = (self.shape, self.maturity);
        match delta {
            MarketDelta::Spot { asset, .. } => {
                let ax = &mut self.axes[*asset];
                ax.grid = shape.grid(&market, *asset, maturity);
                ax.spots = ax.grid.spots();
            }
            MarketDelta::Vol { asset, .. } => {
                let grid = shape.grid(&market, *asset, maturity);
                self.axes[*asset] = shape.axis(&market, *asset, grid, self.theta, self.dt)?;
                self.mixed = mixed_coefficients(&market, &self.axes);
            }
            MarketDelta::Rate { .. } => {
                self.axes = (0..shape.dim)
                    .map(|k| {
                        let grid = self.axes[k].grid.clone();
                        shape.axis(&market, k, grid, self.theta, self.dt)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
            }
            MarketDelta::Correlation { .. } => {
                self.mixed = mixed_coefficients(&market, &self.axes);
            }
        }
        self.market = market;
        Ok(TickOutcome::Patched)
    }

    /// Install a cooperative cancel token, polled once per time step; a
    /// tripped token aborts the run with [`PdeError::Cancelled`]. Runs
    /// that complete are bitwise-identical to runs without a token.
    pub fn set_cancel(&mut self, cancel: mdp_math::CancelToken) {
        self.cancel = cancel;
    }

    /// Run the planned scheme for one product on the blocked panels.
    /// Bitwise-identical to the one-shot `price` on the same inputs.
    pub fn execute(
        &self,
        product: &Product,
        scratch: &mut AdiScratch,
    ) -> Result<AdiResult, PdeError> {
        self.run(product, scratch, false)
    }

    /// The per-line oracle: one sequential Thomas solve per grid line
    /// from a full stage grid, the straightforward implementation the
    /// blocked panels of [`AdiPlan::execute`] are verified against bit
    /// for bit.
    pub fn execute_per_line(&self, product: &Product) -> Result<AdiResult, PdeError> {
        self.run(product, &mut AdiScratch::default(), true)
    }

    fn run(
        &self,
        product: &Product,
        scratch: &mut AdiScratch,
        per_line: bool,
    ) -> Result<AdiResult, PdeError> {
        product.validate_for(&self.market)?;
        let unsupported = |why: String| {
            PdeError::Model(ModelError::Unsupported {
                engine: self.shape.engine,
                why,
            })
        };
        if product.payoff.is_path_dependent() {
            return Err(unsupported("path-dependent payoff".into()));
        }
        if product.maturity != self.maturity {
            return Err(unsupported(format!(
                "plan built for maturity {}, product has {}",
                self.maturity, product.maturity
            )));
        }
        match self.shape.dim {
            2 => self.steps::<2>(product, scratch, per_line),
            3 => self.steps::<3>(product, scratch, per_line),
            d => unreachable!("no {d}-D ADI front door"),
        }
    }

    /// Terminal values, then `time_steps` Douglas steps on the blocked
    /// panels or the per-line oracle.
    fn steps<const D: usize>(
        &self,
        product: &Product,
        scratch: &mut AdiScratch,
        per_line: bool,
    ) -> Result<AdiResult, PdeError> {
        let m = self.shape.space_points;
        let points = m.pow(D as u32);
        let AdiScratch {
            intrinsic,
            v,
            panels,
            last,
        } = scratch;
        // Terminal values and intrinsic grid (the only payoff-dependent
        // state), row-major with the last axis contiguous.
        intrinsic.clear();
        intrinsic.extend((0..points).map(|lin| {
            let mut s = [0.0; D];
            let mut rest = lin;
            for a in (0..D).rev() {
                s[a] = self.axes[a].spots[rest % m];
                rest /= m;
            }
            product.payoff.eval(&s)
        }));
        v.clear();
        v.extend_from_slice(intrinsic);

        let k = Kernel::<D>::new(self, intrinsic, product.exercise == ExerciseStyle::American);
        let mut oracle = PerLine::default();
        if per_line {
            oracle.y.resize(points, 0.0);
        } else {
            panels.resize(D - 1, Vec::new());
            for panel in panels.iter_mut() {
                panel.resize(k.outers * k.ntiles * k.chunk, 0.0);
            }
            last.resize(k.chunk, 0.0);
        }
        let mut nodes = points as u64;
        for step in 1..=self.shape.time_steps {
            if self.cancel.is_cancelled() {
                return Err(PdeError::Cancelled);
            }
            let df = (-self.market.rate() * (step as f64 * self.dt)).exp();
            if per_line {
                k.per_line_step(df, v, &mut oracle);
            } else {
                k.blocked_step(df, v, panels, last);
            }
            k.finish_step(df, v);
            nodes += points as u64;
        }
        let center = (0..D).fold(0, |lin, a| lin * m + self.axes[a].grid.center);
        Ok(AdiResult {
            price: v[center],
            nodes_processed: nodes,
        })
    }
}

/// One grid line's buffers for the per-line oracle, plus its full
/// stage grid.
#[derive(Default)]
struct PerLine {
    y: Vec<f64>,
    rhs: Vec<f64>,
    out: Vec<f64>,
    thomas: ThomasScratch,
}

/// What the stage loops of one execute read, with the dimension `D`
/// fixed at compile time so every loop over axes unrolls.
struct Kernel<'a, const D: usize> {
    m: usize,
    interior: usize,
    /// Lanes per panel tile, and tiles across one line family.
    tile: usize,
    ntiles: usize,
    /// Slots per tile in a stage panel (`interior · tile`; a ragged
    /// last tile uses a prefix).
    chunk: usize,
    /// Line families per stage: interior points of the `D − 2` axes
    /// that are neither the line axis nor the lane axis.
    outers: usize,
    /// Index stride of each axis in the row-major grid.
    stride: [usize; D],
    a: [f64; D],
    b: [f64; D],
    c: [f64; D],
    /// `mixed[p][q]` for `p < q`.
    mixed: [[f64; D]; D],
    dt: f64,
    /// `θ·Δt`, the factor of every implicit term.
    tdt: f64,
    axes: &'a [Axis],
    intrinsic: &'a [f64],
    american: bool,
    parallel: bool,
}

impl<'a, const D: usize> Kernel<'a, D> {
    fn new(plan: &'a AdiPlan, intrinsic: &'a [f64], american: bool) -> Self {
        let m = plan.shape.space_points;
        let interior = m - 2;
        let tile = TILE.min(interior);
        let mut stride = [1; D];
        for a in (0..D - 1).rev() {
            stride[a] = stride[a + 1] * m;
        }
        let mut mixed = [[0.0; D]; D];
        let mut pair = plan.mixed.iter();
        for (p, row) in mixed.iter_mut().enumerate() {
            for x in &mut row[p + 1..] {
                *x = *pair.next().expect("one coefficient per pair");
            }
        }
        let axes = &plan.axes;
        Kernel {
            m,
            interior,
            tile,
            ntiles: interior.div_ceil(tile),
            chunk: interior * tile,
            outers: interior.pow(D as u32 - 2),
            stride,
            a: std::array::from_fn(|k| axes[k].a),
            b: std::array::from_fn(|k| axes[k].b),
            c: std::array::from_fn(|k| axes[k].c),
            mixed,
            dt: plan.dt,
            tdt: plan.theta * plan.dt,
            axes,
            intrinsic,
            american,
            parallel: plan.shape.parallel,
        }
    }

    /// The Dirichlet value at grid index `lin`: discounted intrinsic,
    /// floored by intrinsic for American exercise.
    fn boundary(&self, df: f64, lin: usize) -> f64 {
        let b = df * self.intrinsic[lin];
        if self.american {
            b.max(self.intrinsic[lin])
        } else {
            b
        }
    }

    /// `A_k V` at grid index `c`.
    #[inline(always)]
    fn op(&self, v: &[f64], k: usize, c: usize) -> f64 {
        let s = self.stride[k];
        self.a[k] * v[c - s] + self.b[k] * v[c] + self.c[k] * v[c + s]
    }

    /// The explicit predictor `Y₀` at grid index `c` and `A₁V` there
    /// (the stage-1 right-hand side is `Y₀ − θΔt·A₁V`). The mixed terms
    /// fold pair by pair from the first; the axis terms follow.
    #[inline(always)]
    fn predict(&self, v: &[f64], c: usize) -> (f64, f64) {
        let s = &self.stride;
        let mut acc = 0.0;
        for p in 0..D {
            for q in p + 1..D {
                let cross = v[c + s[p] + s[q]] - v[c + s[p] - s[q]] - v[c - s[p] + s[q]]
                    + v[c - s[p] - s[q]];
                let term = self.mixed[p][q] * cross;
                acc = if (p, q) == (0, 1) { term } else { acc + term };
            }
        }
        let first = self.op(v, 0, c);
        acc += first;
        for k in 1..D {
            acc += self.op(v, k, c);
        }
        (v[c] + self.dt * acc, first)
    }

    /// Grid coordinates (interior numbering, from 0) of line family `o`
    /// of a stage whose family axes skip `skip` and the last axis.
    fn family(&self, mut o: usize, skip: usize) -> [usize; D] {
        let mut r = [0; D];
        for a in (0..D - 1).rev() {
            if a != skip {
                r[a] = o % self.interior;
                o /= self.interior;
            }
        }
        r
    }

    /// The inverse of [`Self::family`].
    fn family_index(&self, r: &[usize; D], skip: usize) -> usize {
        (0..D - 1)
            .filter(|&a| a != skip)
            .fold(0, |o, a| o * self.interior + r[a])
    }

    /// Grid index of the interior point `r`.
    fn index(&self, r: &[usize; D]) -> usize {
        (0..D).map(|a| (r[a] + 1) * self.stride[a]).sum()
    }

    /// Lanes in tile `t`.
    fn width(&self, t: usize) -> usize {
        self.tile.min(self.interior - t * self.tile)
    }

    /// Adds the Dirichlet terms of the line ends to panel row `p` of
    /// stage `k`, whose lane `l` sits at grid index `at(l)`.
    fn dirichlet(&self, k: usize, df: f64, p: usize, row: &mut [f64], at: impl Fn(usize) -> usize) {
        let s = self.stride[k];
        if p == 0 {
            for (l, x) in row.iter_mut().enumerate() {
                *x += self.tdt * self.a[k] * self.boundary(df, at(l) - s);
            }
        }
        if p == self.interior - 1 {
            for (l, x) in row.iter_mut().enumerate() {
                *x += self.tdt * self.c[k] * self.boundary(df, at(l) + s);
            }
        }
    }

    /// One tile of stage `k < D − 1`: lines along axis `k`, lanes along
    /// the last axis. Builds the right-hand sides (the predictor fused
    /// into stage 0; later stages read the previous stage's panel,
    /// `prev`, which shares the tiling) and solves them in place; the
    /// tile stays in its stage panel for the next stage.
    fn line_tile(&self, k: usize, df: f64, v: &[f64], prev: &[f64], tau: usize, buf: &mut [f64]) {
        let (o, t) = (tau / self.ntiles, tau % self.ntiles);
        let w = self.width(t);
        let buf = &mut buf[..self.interior * w];
        let mut r = self.family(o, k);
        r[D - 1] = t * self.tile;
        for p in 0..self.interior {
            r[k] = p;
            let c0 = self.index(&r);
            let row = &mut buf[p * w..(p + 1) * w];
            if k == 0 {
                for (l, x) in row.iter_mut().enumerate() {
                    let (y0, first) = self.predict(v, c0 + l);
                    *x = y0 - self.tdt * first;
                }
            } else {
                let from =
                    (self.family_index(&r, k - 1) * self.ntiles + t) * self.chunk + r[k - 1] * w;
                for (l, (x, &y)) in row.iter_mut().zip(&prev[from..from + w]).enumerate() {
                    *x = y - self.tdt * self.op(v, k, c0 + l);
                }
            }
            self.dirichlet(k, df, p, row, |l| c0 + l);
        }
        self.axes[k].fac.solve_panel_transposed(buf);
    }

    /// Grid index where the lines of last-stage family `o` start: one
    /// point before the family's first interior node.
    fn family_start(&self, o: usize) -> usize {
        self.index(&self.family(o, D - 2)) - 1
    }

    /// Tile `t` of last-stage family `o`: lines along the contiguous
    /// last axis, lanes across the axis before it. `rows` are the tile's
    /// lines of `V`, read for the right-hand sides and overwritten with
    /// the solution; `prev` is the previous stage's panel, whose family
    /// `o` holds these lines.
    fn last_tile(
        &self,
        df: f64,
        (o, t): (usize, usize),
        rows: &mut [f64],
        prev: &[f64],
        buf: &mut [f64],
    ) {
        let (k, m) = (D - 1, self.m);
        let lo = t * self.tile;
        let row0 = self.family_start(o) + lo * m;
        let w = self.width(t);
        let buf = &mut buf[..self.interior * w];
        for p in 0..self.interior {
            // The previous stage's value at (lane l, p) sits in its tile
            // t2: its lanes run along this stage's line axis.
            let t2 = p / self.tile;
            let w2 = self.width(t2);
            let from = (o * self.ntiles + t2) * self.chunk + lo * w2 + (p - t2 * self.tile);
            let row = &mut buf[p * w..(p + 1) * w];
            for (l, x) in row.iter_mut().enumerate() {
                *x = prev[from + l * w2] - self.tdt * self.op(rows, k, l * m + p + 1);
            }
            self.dirichlet(k, df, p, row, |l| row0 + l * m + p + 1);
        }
        self.axes[k].fac.solve_panel_transposed(buf);
        for (l, line) in rows.chunks_mut(m).enumerate() {
            for p in 0..self.interior {
                line[p + 1] = buf[p * w + l];
            }
        }
    }

    /// One Douglas step on the blocked panels: every stage but the last
    /// fills its panel tile by tile, then the last stage solves straight
    /// back into the value grid. One fork per stage when parallel.
    fn blocked_step(&self, df: f64, v: &mut [f64], panels: &mut [Vec<f64>], last: &mut [f64]) {
        for k in 0..D - 1 {
            let (done, rest) = panels.split_at_mut(k);
            let prev: &[f64] = done.last().map_or(&[], Vec::as_slice);
            let v: &[f64] = v;
            let tile = |tau: usize, buf: &mut [f64]| self.line_tile(k, df, v, prev, tau, buf);
            if self.parallel {
                rest[0]
                    .par_chunks_mut(self.chunk)
                    .enumerate()
                    .for_each(|(tau, buf)| tile(tau, buf));
            } else {
                for (tau, buf) in rest[0].chunks_mut(self.chunk).enumerate() {
                    tile(tau, buf);
                }
            }
        }
        let prev = &panels[D - 2];
        let lines = self.tile * self.m;
        for o in 0..self.outers {
            let first = self.family_start(o);
            let family = &mut v[first..first + self.interior * self.m];
            if self.parallel {
                // A task's own panel: one tile-sized allocation, far
                // below the cost of the fork itself.
                family
                    .par_chunks_mut(lines)
                    .enumerate()
                    .for_each(|(t, rows)| {
                        self.last_tile(df, (o, t), rows, prev, &mut vec![0.0; self.chunk]);
                    });
            } else {
                for (t, rows) in family.chunks_mut(lines).enumerate() {
                    self.last_tile(df, (o, t), rows, prev, last);
                }
            }
        }
    }

    /// One Douglas step of the per-line oracle: the predictor over the
    /// full grid, then for each axis one Thomas solve per line, each
    /// line's solution overwriting its stage values in place.
    fn per_line_step(&self, df: f64, v: &mut [f64], sc: &mut PerLine) {
        let (m, interior) = (self.m, self.interior);
        let lines = interior.pow(D as u32 - 1);
        // Index of the first node (coordinate 0) of line `o` along `k`.
        let foot = |k: usize, o: usize| {
            let mut r = [0; D];
            let mut rest = o;
            for a in (0..D).rev() {
                if a != k {
                    r[a] = rest % interior;
                    rest /= interior;
                }
            }
            self.index(&r) - self.stride[k]
        };
        for o in 0..lines {
            let f = foot(D - 1, o);
            for p in 1..m - 1 {
                sc.y[f + p] = self.predict(v, f + p).0;
            }
        }
        sc.rhs.resize(interior, 0.0);
        sc.out.resize(interior, 0.0);
        for k in 0..D {
            let s = self.stride[k];
            for o in 0..lines {
                let f = foot(k, o);
                for p in 0..interior {
                    let c = f + (p + 1) * s;
                    sc.rhs[p] = sc.y[c] - self.tdt * self.op(v, k, c);
                }
                sc.rhs[0] += self.tdt * self.a[k] * self.boundary(df, f);
                sc.rhs[interior - 1] += self.tdt * self.c[k] * self.boundary(df, f + (m - 1) * s);
                self.axes[k]
                    .sys
                    .solve_thomas_into(&sc.rhs, &mut sc.thomas, &mut sc.out)
                    .expect("diagonally dominant");
                for p in 0..interior {
                    sc.y[f + (p + 1) * s] = sc.out[p];
                }
            }
        }
        for o in 0..lines {
            let f = foot(D - 1, o);
            v[f + 1..f + m - 1].copy_from_slice(&sc.y[f + 1..f + m - 1]);
        }
    }

    /// Per-step epilogue: refresh the Dirichlet faces at the new time
    /// level and apply the American projection over the whole grid.
    fn finish_step(&self, df: f64, v: &mut [f64]) {
        let m = self.m;
        for (row, line) in v.chunks_mut(m).enumerate() {
            let mut rest = row;
            let mut face = false;
            for _ in 0..D - 1 {
                face |= rest % m == 0 || rest % m == m - 1;
                rest /= m;
            }
            let base = row * m;
            if face {
                for (j, x) in line.iter_mut().enumerate() {
                    *x = self.boundary(df, base + j);
                }
            } else {
                line[0] = self.boundary(df, base);
                line[m - 1] = self.boundary(df, base + m - 1);
            }
        }
        if self.american {
            for (x, &intr) in v.iter_mut().zip(self.intrinsic) {
                *x = x.max(intr);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mdp_math::approx_eq;
    use mdp_model::{analytic, Payoff};

    fn market(d: usize, rho: f64) -> GbmMarket {
        GbmMarket::symmetric(d, 100.0, 0.2, 0.0, 0.05, rho).unwrap()
    }

    /// A `d`-asset plan on an `m`-point grid with `n` steps.
    fn plan(d: usize, m: usize, n: usize, mk: &GbmMarket) -> AdiPlan {
        match d {
            2 => Adi2d {
                space_points: m,
                time_steps: n,
                ..Default::default()
            }
            .plan(mk, 1.0),
            _ => Adi3d {
                space_points: m,
                time_steps: n,
                ..Default::default()
            }
            .plan(mk, 1.0),
        }
        .unwrap()
    }

    /// The one-shot `price` of the `d`-asset front door on an `m`-point
    /// grid with `n` steps.
    fn price(d: usize, m: usize, n: usize, mk: &GbmMarket, p: &Product) -> AdiResult {
        match d {
            2 => Adi2d {
                space_points: m,
                time_steps: n,
                ..Default::default()
            }
            .price(mk, p),
            _ => Adi3d {
                space_points: m,
                time_steps: n,
                ..Default::default()
            }
            .price(mk, p),
        }
        .unwrap()
    }

    /// Test bodies shared by the two front doors: the same-named tests
    /// below run each at d = 2 (`Adi2d`), `crate::adi3d::tests` at
    /// d = 3 (`Adi3d`).
    pub(crate) mod per_dim {
        use super::*;

        pub(crate) fn geometric_call_matches_closed_form(d: usize) {
            let (m, tol) = if d == 2 { (101, 5e-3) } else { (61, 1e-2) };
            let mk = market(d, 0.5);
            let p = Product::european(Payoff::GeometricCall { strike: 100.0 }, 1.0);
            let exact = analytic::geometric_basket_call(&mk, &vec![1.0 / d as f64; d], 100.0, 1.0);
            let r = price(d, m, m - 1, &mk, &p);
            assert!(
                approx_eq(r.price, exact, tol),
                "d={d}: {} vs {exact}",
                r.price
            );
        }

        pub(crate) fn apply_tick_bitwise_equals_fresh_plan(d: usize) {
            // Grid, steps, correlation before and after its tick, and the
            // assets of the first and last spot ticks; the vol tick moves
            // the last axis.
            let (m, n, rho, rho_tick, first, last) = if d == 2 {
                (61, 30, 0.5, 0.25, 0, 1)
            } else {
                (15, 6, 0.4, 0.2, 1, 0)
            };
            let m0 = market(d, rho);
            let p = Product::european(Payoff::GeometricCall { strike: 100.0 }, 1.0);
            let mut corr = mdp_math::linalg::Matrix::identity(d);
            for a in 0..d {
                for b in 0..d {
                    if a != b {
                        corr[(a, b)] = rho_tick;
                    }
                }
            }
            let ticks = [
                MarketDelta::Spot {
                    asset: first,
                    spot: 103.0,
                },
                MarketDelta::Vol {
                    asset: d - 1,
                    vol: 0.26,
                },
                MarketDelta::Rate { rate: 0.035 },
                MarketDelta::Correlation { correlation: corr },
                MarketDelta::Spot {
                    asset: last,
                    spot: 97.5,
                },
            ];
            let mut ticked = plan(d, m, n, &m0);
            let mut mk = m0;
            for delta in &ticks {
                assert_eq!(ticked.apply_tick(delta).unwrap(), TickOutcome::Patched);
                mk = mk.apply_delta(delta).unwrap();
                let fresh = plan(d, m, n, &mk);
                let pt = ticked.execute(&p, &mut AdiScratch::default()).unwrap();
                let pf = fresh.execute(&p, &mut AdiScratch::default()).unwrap();
                assert_eq!(pt.price.to_bits(), pf.price.to_bits(), "d={d} {delta:?}");
            }
        }

        pub(crate) fn american_min_put_dominates_european(d: usize) {
            let m = if d == 2 { 101 } else { 41 };
            let mk = market(d, 0.3);
            let pay = Payoff::MinPut { strike: 110.0 };
            let eu = price(d, m, m - 1, &mk, &Product::european(pay.clone(), 1.0));
            let am = price(d, m, m - 1, &mk, &Product::american(pay, 1.0));
            assert!(am.price >= eu.price - 1e-9, "d={d}");
            assert!(
                am.price >= 10.0 - 1e-9,
                "d={d}: at least intrinsic: {}",
                am.price
            );
            if d == 2 {
                // European reference from the closed form.
                let exact = analytic::min_put_two_assets(
                    100.0, 0.0, 0.2, 100.0, 0.0, 0.2, 0.3, 0.05, 110.0, 1.0,
                );
                assert!(approx_eq(eu.price, exact, 2e-2), "{} vs {exact}", eu.price);
            }
        }

        pub(crate) fn agrees_with_beg_lattice(d: usize) {
            let (m, n, steps, tol) = if d == 2 {
                (121, 100, 100, 2e-2)
            } else {
                (51, 50, 50, 5e-2)
            };
            let mk = market(d, 0.5);
            let p = Product::american(Payoff::MaxCall { strike: 100.0 }, 1.0);
            let lattice = mdp_lattice::MultiLattice::new(steps)
                .price(&mk, &p)
                .unwrap();
            let pde = price(d, m, n, &mk, &p);
            assert!(
                approx_eq(pde.price, lattice.price, tol),
                "d={d}: pde {} vs lattice {}",
                pde.price,
                lattice.price
            );
        }

        pub(crate) fn rejects_bad_inputs(d: usize) {
            let front_door = |width: f64, space_points: usize, mk: &GbmMarket, p: &Product| {
                if d == 2 {
                    Adi2d {
                        width,
                        space_points,
                        ..Default::default()
                    }
                    .price(mk, p)
                } else {
                    Adi3d {
                        width,
                        space_points,
                        ..Default::default()
                    }
                    .price(mk, p)
                }
            };
            let call = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
            let asian = Product::european(Payoff::AsianCall { strike: 100.0 }, 1.0);
            let too_few_assets = if d == 2 {
                GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap()
            } else {
                market(2, 0.3)
            };
            assert!(
                front_door(5.0, 21, &too_few_assets, &call).is_err(),
                "d={d}"
            );
            let mk = market(d, 0.0);
            assert!(front_door(5.0, 21, &mk, &asian).is_err(), "d={d}");
            assert!(
                matches!(
                    front_door(5.0, 3, &mk, &call),
                    Err(PdeError::GridTooSmall { .. })
                ),
                "d={d}"
            );
            for width in [0.0, -1.0, f64::NAN] {
                assert!(
                    matches!(
                        front_door(width, 21, &mk, &call),
                        Err(PdeError::Model(ModelError::InvalidParameter {
                            what: "width",
                            ..
                        }))
                    ),
                    "d={d} width={width}"
                );
            }
        }

        pub(crate) fn plan_execute_bitwise_matches_one_shot(d: usize) {
            let (m, n) = if d == 2 { (61, 20) } else { (15, 8) };
            let mk = market(d, 0.3);
            let plan = plan(d, m, n, &mk);
            let mut scratch = AdiScratch::default();
            for p in [
                Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0),
                Product::american(Payoff::MinPut { strike: 110.0 }, 1.0),
            ] {
                // `Adi2d::price` or `Adi3d::price`.
                let one_shot = price(d, m, n, &mk, &p);
                let a = plan.execute(&p, &mut scratch).unwrap();
                let b = plan.execute(&p, &mut scratch).unwrap();
                assert_eq!(a.price.to_bits(), one_shot.price.to_bits(), "d={d}");
                assert_eq!(b.price.to_bits(), one_shot.price.to_bits(), "d={d}");
                assert_eq!(a.nodes_processed, one_shot.nodes_processed, "d={d}");
            }
            let short = Product::european(Payoff::MaxCall { strike: 100.0 }, 0.5);
            assert!(plan.execute(&short, &mut scratch).is_err(), "d={d}");
        }

        pub(crate) fn node_accounting(d: usize) {
            let (m, nodes) = if d == 2 { (11, 121 * 4) } else { (7, 343 * 4) };
            let mk = market(d, 0.0);
            let p = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
            assert_eq!(price(d, m, 3, &mk, &p).nodes_processed, nodes, "d={d}");
            let oracle = plan(d, m, 3, &mk).execute_per_line(&p).unwrap();
            assert_eq!(oracle.nodes_processed, nodes, "d={d}");
        }
    }

    #[test]
    fn geometric_call_matches_closed_form() {
        per_dim::geometric_call_matches_closed_form(2);
    }

    #[test]
    fn max_call_matches_stulz() {
        let p = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
        let exact =
            analytic::max_call_two_assets(100.0, 0.0, 0.2, 100.0, 0.0, 0.2, 0.3, 0.05, 100.0, 1.0);
        let r = price(2, 151, 150, &market(2, 0.3), &p);
        assert!(approx_eq(r.price, exact, 1e-2), "{} vs {exact}", r.price);
    }

    #[test]
    fn exchange_matches_margrabe_with_negative_correlation() {
        let p = Product::european(Payoff::Exchange, 1.0);
        let exact = analytic::margrabe_exchange(100.0, 0.0, 0.2, 100.0, 0.0, 0.2, -0.4, 1.0);
        let r = price(2, 151, 150, &market(2, -0.4), &p);
        assert!(approx_eq(r.price, exact, 2e-2), "{} vs {exact}", r.price);
    }

    #[test]
    fn apply_tick_bitwise_equals_fresh_plan() {
        per_dim::apply_tick_bitwise_equals_fresh_plan(2);
    }

    #[test]
    fn parallel_lines_are_bit_identical() {
        let mk = market(2, 0.5);
        let p = Product::american(Payoff::MinPut { strike: 110.0 }, 1.0);
        let run = |parallel| {
            Adi2d {
                space_points: 61,
                time_steps: 30,
                parallel,
                ..Default::default()
            }
            .price(&mk, &p)
            .unwrap()
        };
        assert_eq!(run(false).price.to_bits(), run(true).price.to_bits());
    }

    #[test]
    fn blocked_kernel_matches_scalar_oracle_bitwise() {
        // Both correlation signs (ρ = −0.4 in 2-D, −0.2 in 3-D), both
        // exercise styles and the 2-D rayon tiles, on interior widths of
        // 69 and 35 (ragged last tiles), 3 (one narrow tile), 32 (one
        // full tile) and 33 (a full tile and a one-lane tile), where the
        // tile lookups between stages change shape. The whole final value grid must match, not only the
        // price at its centre: a one-ulp slip near a face rarely reaches
        // the centre on grids this small.
        let grid_bits = |plan: &AdiPlan, p: &Product, per_line: bool| {
            let mut scratch = AdiScratch::default();
            let r = plan.run(p, &mut scratch, per_line).unwrap();
            let bits: Vec<u64> = scratch.v.iter().map(|x| x.to_bits()).collect();
            (r, bits)
        };
        let ragged = [(2, 71, 20), (3, 37, 5)];
        let small = [2, 3].map(|d| [(d, 5, 3), (d, 34, 3), (d, 35, 3)]);
        for (d, m, n) in ragged.into_iter().chain(small.into_iter().flatten()) {
            let rhos = if d == 2 { [-0.4, 0.3] } else { [-0.2, 0.3] };
            for rho in rhos {
                let mk = market(d, rho);
                for (pay, american) in [
                    (Payoff::MaxCall { strike: 100.0 }, false),
                    (Payoff::MinPut { strike: 110.0 }, true),
                ] {
                    let p = if american {
                        Product::american(pay, 1.0)
                    } else {
                        Product::european(pay, 1.0)
                    };
                    let plan = plan(d, m, n, &mk);
                    let (oracle, oracle_grid) = grid_bits(&plan, &p, true);
                    let (blocked, blocked_grid) = grid_bits(&plan, &p, false);
                    let tag = format!("d={d} m={m} rho={rho} american={american}");
                    assert!(oracle_grid == blocked_grid, "{tag}");
                    assert_eq!(oracle.price.to_bits(), blocked.price.to_bits(), "{tag}");
                    assert_eq!(oracle.nodes_processed, blocked.nodes_processed, "{tag}");
                    if d == 2 {
                        let par = Adi2d {
                            space_points: m,
                            time_steps: n,
                            parallel: true,
                            ..Default::default()
                        }
                        .plan(&mk, 1.0)
                        .unwrap();
                        assert!(grid_bits(&par, &p, false).1 == oracle_grid, "{tag}");
                    }
                }
            }
        }
    }

    #[test]
    fn american_min_put_dominates_european() {
        per_dim::american_min_put_dominates_european(2);
    }

    #[test]
    fn agrees_with_beg_lattice() {
        per_dim::agrees_with_beg_lattice(2);
    }

    #[test]
    fn rejects_bad_inputs() {
        per_dim::rejects_bad_inputs(2);
    }

    #[test]
    fn plan_execute_bitwise_matches_one_shot() {
        per_dim::plan_execute_bitwise_matches_one_shot(2);
    }

    #[test]
    fn node_accounting() {
        per_dim::node_accounting(2);
    }
}
