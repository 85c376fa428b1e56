//! Three-dimensional Douglas ADI for correlated three-asset products.
//!
//! The 3-D Black–Scholes PDE in `(x₁, x₂, x₃) = ln S` carries three
//! mixed derivatives `ρ_pq σ_p σ_q V_{x_p x_q}` that dimensional
//! splitting cannot absorb implicitly; as in the 2-D engine the Douglas
//! scheme treats them explicitly and splits the rest axis by axis:
//!
//! ```text
//! Y₀ = Vⁿ + Δt·(A₀ + A₁ + A₂ + A₃)Vⁿ        (explicit predictor)
//! (I − θΔt A₁) Y₁ = Y₀ − θΔt A₁ Vⁿ          (implicit x₁ lines)
//! (I − θΔt A₂) Y₂ = Y₁ − θΔt A₂ Vⁿ          (implicit x₂ lines)
//! (I − θΔt A₃) Y₃ = Y₂ − θΔt A₃ Vⁿ          (implicit x₃ lines)
//! Vⁿ⁺¹ = Y₃,  θ = ½
//! ```
//!
//! with `A_k = ½σ_k²∂_kk + μ_k∂_k − r/3` and `A₀` the three mixed
//! terms. Every implicit stage is a family of independent
//! constant-coefficient tridiagonal line solves, so each axis reuses
//! the factor-once multi-RHS machinery of the 2-D engine: stage
//! operators are Thomas-factored at plan time
//! ([`mdp_math::linalg::FactoredTridiag`]) and lines are solved `TILE`
//! at a time in line-interleaved transposed panels. Stages 1 and 2 take
//! their lanes along the contiguous `x₃` axis (stride-1 builds and
//! scatters); stage 3's lines *are* the contiguous axis, so its lanes
//! run across `x₂` through the same blocked-transpose gather the 2-D
//! row stage uses. The `Y₀` predictor is fused into the stage-1 panel
//! build, one 19-point stencil pass over `Vⁿ`.
//!
//! Boundaries are Dirichlet discounted intrinsic on all six faces, and
//! American exercise is a pointwise projection after each step —
//! exactly the 2-D engine's treatment lifted one dimension up.

use crate::grid::{check_width, LogGrid};
use crate::PdeError;
use mdp_math::linalg::tridiag::{FactoredTridiag, Tridiag};
use mdp_model::{ExerciseStyle, GbmMarket, MarketDelta, Product, TickOutcome};

/// Lines per transposed panel, matching the 2-D engine's tile width.
const TILE: usize = 32;

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

/// Result of a 3-D ADI run.
#[derive(Debug, Clone)]
pub struct Adi3dResult {
    /// Present value at the spot triple.
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

/// Planned state of a 3-D ADI run: per-axis operators, the three stage
/// tridiagonals and their Thomas factors, all payoff-independent. Build
/// once with [`Adi3d::plan`], execute per product with
/// [`Adi3dPlan::execute`]; a plan executed N times is bitwise-identical
/// to N one-shot [`Adi3d::price`] calls.
#[derive(Debug, Clone)]
pub struct Adi3dPlan {
    cfg: Adi3d,
    market: GbmMarket,
    maturity: f64,
    dt: f64,
    r: f64,
    theta: f64,
    /// Mixed-derivative coefficients for the pairs (0,1), (0,2), (1,2).
    mixed: [f64; 3],
    axes: [Axis; 3],
    spots: [Vec<f64>; 3],
    sys: [Tridiag; 3],
    fac: [FactoredTridiag; 3],
    /// Cooperative cancellation, polled once per time step. Inert by
    /// default; the serving layer installs a live token per request.
    cancel: mdp_math::CancelToken,
}

/// Reusable buffers for [`Adi3dPlan::execute`]: the intrinsic cube, the
/// evolving value cube, the two intermediate stage cubes and the
/// multi-RHS panel.
#[derive(Debug, Default, Clone)]
pub struct Adi3dScratch {
    intrinsic: Vec<f64>,
    v: Vec<f64>,
    y1: Vec<f64>,
    y2: Vec<f64>,
    panel: Vec<f64>,
}

impl Adi3d {
    /// Build the payoff-independent plan for this configuration on a
    /// three-asset market with horizon `maturity`.
    pub fn plan(&self, market: &GbmMarket, maturity: f64) -> Result<Adi3dPlan, PdeError> {
        if market.dim() != 3 {
            return Err(PdeError::Model(mdp_model::ModelError::DimensionMismatch {
                product: 3,
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

        let axes = [
            build_axis(market, 0, maturity, self.width, m),
            build_axis(market, 1, maturity, self.width, m),
            build_axis(market, 2, maturity, self.width, m),
        ];
        let mixed = mixed_coefficients(market, &axes);
        let spots = [
            axes[0].grid.spots(),
            axes[1].grid.spots(),
            axes[2].grid.spots(),
        ];
        let (sys0, fac0) = axis_system(theta, dt, &axes[0], m, n)?;
        let (sys1, fac1) = axis_system(theta, dt, &axes[1], m, n)?;
        let (sys2, fac2) = axis_system(theta, dt, &axes[2], m, n)?;
        Ok(Adi3dPlan {
            cfg: *self,
            market: market.clone(),
            maturity,
            dt,
            r,
            theta,
            mixed,
            axes,
            spots,
            sys: [sys0, sys1, sys2],
            fac: [fac0, fac1, fac2],
            cancel: mdp_math::CancelToken::never(),
        })
    }

    /// Price a three-asset, non-path-dependent product — a thin
    /// plan-then-execute wrapper around [`Adi3d::plan`].
    pub fn price(&self, market: &GbmMarket, product: &Product) -> Result<Adi3dResult, PdeError> {
        product.validate_for(market)?;
        let plan = self.plan(market, product.maturity)?;
        plan.execute(product, &mut Adi3dScratch::default())
    }
}

/// Axis operator coefficients for an existing grid spacing:
/// `A_k = ½σ²∂ₖₖ + μ∂ₖ − r/3` discretised with central differences.
/// Shared by fresh plans and tick patches for bit-identical rebuilds.
fn axis_coefficients(market: &GbmMarket, k: usize, dx: f64) -> (f64, f64, f64) {
    let sigma = market.vols()[k];
    let diff = 0.5 * sigma * sigma / (dx * dx);
    let conv = 0.5 * market.log_drift(k) / dx;
    (diff - conv, -2.0 * diff - market.rate() / 3.0, diff + conv)
}

/// Build one axis: the log-spot grid plus its operator coefficients.
fn build_axis(market: &GbmMarket, k: usize, maturity: f64, width: f64, m: usize) -> Axis {
    let grid = LogGrid::new(market.spots()[k], market.vols()[k], maturity, width, m);
    let (a, b, c) = axis_coefficients(market, k, grid.dx);
    Axis { a, b, c, grid }
}

/// The explicit mixed-derivative coefficients
/// `ρ_pq σ_p σ_q / (4·dx_p·dx_q)` for the pairs (0,1), (0,2), (1,2).
fn mixed_coefficients(market: &GbmMarket, axes: &[Axis; 3]) -> [f64; 3] {
    let pair = |p: usize, q: usize| {
        market.correlation()[(p, q)] * market.vols()[p] * market.vols()[q]
            / (4.0 * axes[p].grid.dx * axes[q].grid.dx)
    };
    [pair(0, 1), pair(0, 2), pair(1, 2)]
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

impl Adi3dPlan {
    /// Horizon the plan was built for.
    pub fn maturity(&self) -> f64 {
        self.maturity
    }

    /// The market snapshot the plan currently prices on (kept in sync
    /// by [`Adi3dPlan::apply_tick`]).
    pub fn market(&self) -> &GbmMarket {
        &self.market
    }

    /// Absorb one market tick, rebuilding only the invalidated plan
    /// components (the 2-D engine's dependency classification, lifted
    /// to three axes):
    ///
    /// * **Spot** — grid spacing is spot-independent: the ticked axis
    ///   keeps its operator, stage system and Thomas factors; only its
    ///   node placement (and spot ladder) is recentred.
    /// * **Vol** — changes that axis's `dx`: its grid, operator, stage
    ///   system and factors are rebuilt, plus the mixed coefficients
    ///   (the pairs not touching the asset recompute to identical bits
    ///   from identical inputs). The other two axes survive wholesale.
    /// * **Rate** — all three axes' operator coefficients and stage
    ///   factors are rebuilt; the grids and mixed coefficients survive.
    /// * **Correlation** — only the mixed coefficients are recomputed.
    ///
    /// The patched plan is bitwise-equal to a fresh
    /// `cfg.plan(&ticked market, maturity)`.
    pub fn apply_tick(&mut self, delta: &MarketDelta) -> Result<TickOutcome, PdeError> {
        let market = self.market.apply_delta(delta).map_err(PdeError::Model)?;
        let (m, n) = (self.cfg.space_points, self.cfg.time_steps);
        match delta {
            MarketDelta::Spot { asset, .. } => {
                let ax = &mut self.axes[*asset];
                ax.grid = LogGrid::new(
                    market.spots()[*asset],
                    market.vols()[*asset],
                    self.maturity,
                    self.cfg.width,
                    m,
                );
                self.spots[*asset] = ax.grid.spots();
                self.market = market;
                Ok(TickOutcome::Patched)
            }
            MarketDelta::Vol { asset, .. } => {
                let ax = build_axis(&market, *asset, self.maturity, self.cfg.width, m);
                let (sys, fac) = axis_system(self.theta, self.dt, &ax, m, n)?;
                self.spots[*asset] = ax.grid.spots();
                self.axes[*asset] = ax;
                self.sys[*asset] = sys;
                self.fac[*asset] = fac;
                self.mixed = mixed_coefficients(&market, &self.axes);
                self.market = market;
                Ok(TickOutcome::Patched)
            }
            MarketDelta::Rate { .. } => {
                for k in 0..3 {
                    let (a, b, c) = axis_coefficients(&market, k, self.axes[k].grid.dx);
                    (self.axes[k].a, self.axes[k].b, self.axes[k].c) = (a, b, c);
                    let (sys, fac) = axis_system(self.theta, self.dt, &self.axes[k], m, n)?;
                    self.sys[k] = sys;
                    self.fac[k] = fac;
                }
                self.r = market.rate();
                self.market = market;
                Ok(TickOutcome::Patched)
            }
            MarketDelta::Correlation { .. } => {
                self.mixed = mixed_coefficients(&market, &self.axes);
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
    /// one-shot [`Adi3d::price`] on the same inputs.
    pub fn execute(
        &self,
        product: &Product,
        scratch: &mut Adi3dScratch,
    ) -> Result<Adi3dResult, PdeError> {
        product.validate_for(&self.market)?;
        if product.payoff.is_path_dependent() {
            return Err(PdeError::Model(mdp_model::ModelError::Unsupported {
                engine: "3-D ADI",
                why: "path-dependent payoff".into(),
            }));
        }
        if product.maturity != self.maturity {
            return Err(PdeError::Model(mdp_model::ModelError::Unsupported {
                engine: "3-D ADI",
                why: format!(
                    "plan built for maturity {}, product has {}",
                    self.maturity, product.maturity
                ),
            }));
        }
        let m = self.cfg.space_points;
        let n = self.cfg.time_steps;
        let american = product.exercise == ExerciseStyle::American;
        let interior = m - 2;
        let mm = m * m;
        let idx = |i: usize, j: usize, k: usize| (i * m + j) * m + k;

        let Adi3dScratch {
            intrinsic,
            v,
            y1,
            y2,
            panel,
        } = scratch;
        intrinsic.clear();
        intrinsic.extend((0..m * m * m).map(|lin| {
            let (i, j, k) = (lin / mm, (lin / m) % m, lin % m);
            product
                .payoff
                .eval(&[self.spots[0][i], self.spots[1][j], self.spots[2][k]])
        }));
        v.clear();
        v.extend_from_slice(intrinsic);
        y1.resize(m * m * m, 0.0);
        y2.resize(m * m * m, 0.0);
        panel.resize(interior * TILE.min(interior), 0.0);

        let (dt, theta) = (self.dt, self.theta);
        let [ax1, ax2, ax3] = &self.axes;
        let [mx01, mx02, mx12] = self.mixed;
        let [fac1, fac2, fac3] = &self.fac;

        let mut nodes = (m * m * m) as u64;
        for step in 1..=n {
            if self.cancel.is_cancelled() {
                return Err(PdeError::Cancelled);
            }
            let tau = step as f64 * dt;
            let df = (-self.r * tau).exp();
            let boundary = |lin: usize| {
                let b = df * intrinsic[lin];
                if american {
                    b.max(intrinsic[lin])
                } else {
                    b
                }
            };

            // --- stage 1, fused with the predictor: lines along x₁ for
            // each interior (j, k), lanes along the contiguous k axis.
            // One 19-point stencil pass over Vⁿ builds Y₀ and the
            // stage-1 RHS per lane; the tile then solves multi-RHS.
            for j in 1..m - 1 {
                let mut klo = 1;
                while klo < m - 1 {
                    let w = TILE.min(m - 1 - klo);
                    let buf = &mut panel[..interior * w];
                    for irel in 0..interior {
                        let i = irel + 1;
                        let out = &mut buf[irel * w..(irel + 1) * w];
                        for (l, slot) in out.iter_mut().enumerate() {
                            let k = klo + l;
                            let v0 = v[idx(i, j, k)];
                            let l1 = ax1.a * v[idx(i - 1, j, k)]
                                + ax1.b * v0
                                + ax1.c * v[idx(i + 1, j, k)];
                            let l2 = ax2.a * v[idx(i, j - 1, k)]
                                + ax2.b * v0
                                + ax2.c * v[idx(i, j + 1, k)];
                            let l3 = ax3.a * v[idx(i, j, k - 1)]
                                + ax3.b * v0
                                + ax3.c * v[idx(i, j, k + 1)];
                            let c01 = v[idx(i + 1, j + 1, k)]
                                - v[idx(i + 1, j - 1, k)]
                                - v[idx(i - 1, j + 1, k)]
                                + v[idx(i - 1, j - 1, k)];
                            let c02 = v[idx(i + 1, j, k + 1)]
                                - v[idx(i + 1, j, k - 1)]
                                - v[idx(i - 1, j, k + 1)]
                                + v[idx(i - 1, j, k - 1)];
                            let c12 = v[idx(i, j + 1, k + 1)]
                                - v[idx(i, j + 1, k - 1)]
                                - v[idx(i, j - 1, k + 1)]
                                + v[idx(i, j - 1, k - 1)];
                            let l0 = mx01 * c01 + mx02 * c02 + mx12 * c12;
                            let y0 = v0 + dt * (l0 + l1 + l2 + l3);
                            let mut rhs = y0 - theta * dt * l1;
                            if irel == 0 {
                                rhs += theta * dt * ax1.a * boundary(idx(0, j, k));
                            }
                            if irel == interior - 1 {
                                rhs += theta * dt * ax1.c * boundary(idx(m - 1, j, k));
                            }
                            *slot = rhs;
                        }
                    }
                    fac1.solve_panel_transposed(buf);
                    for irel in 0..interior {
                        let base = idx(irel + 1, j, klo);
                        y1[base..base + w].copy_from_slice(&buf[irel * w..irel * w + w]);
                    }
                    klo += w;
                }
            }

            // --- stage 2: lines along x₂ for each (i, k), lanes again
            // along the contiguous k axis — builds and scatters are
            // stride-1 row segments.
            for i in 1..m - 1 {
                let mut klo = 1;
                while klo < m - 1 {
                    let w = TILE.min(m - 1 - klo);
                    let buf = &mut panel[..interior * w];
                    for jrel in 0..interior {
                        let j = jrel + 1;
                        let out = &mut buf[jrel * w..(jrel + 1) * w];
                        for (l, slot) in out.iter_mut().enumerate() {
                            let k = klo + l;
                            let l2v = ax2.a * v[idx(i, j - 1, k)]
                                + ax2.b * v[idx(i, j, k)]
                                + ax2.c * v[idx(i, j + 1, k)];
                            let mut rhs = y1[idx(i, j, k)] - theta * dt * l2v;
                            if jrel == 0 {
                                rhs += theta * dt * ax2.a * boundary(idx(i, 0, k));
                            }
                            if jrel == interior - 1 {
                                rhs += theta * dt * ax2.c * boundary(idx(i, m - 1, k));
                            }
                            *slot = rhs;
                        }
                    }
                    fac2.solve_panel_transposed(buf);
                    for jrel in 0..interior {
                        let base = idx(i, jrel + 1, klo);
                        y2[base..base + w].copy_from_slice(&buf[jrel * w..jrel * w + w]);
                    }
                    klo += w;
                }
            }

            // --- stage 3: lines along the contiguous x₃ axis for each
            // (i, j); lanes run across j through the blocked-transpose
            // gather (each lane reads 3-point segments of its own row),
            // exactly the 2-D row stage. The solve writes back into the
            // value rows only after the tile's RHS is fully built, so
            // the in-place update is safe.
            for i in 1..m - 1 {
                let mut jlo = 1;
                while jlo < m - 1 {
                    let w = TILE.min(m - 1 - jlo);
                    let buf = &mut panel[..interior * w];
                    for krel in 0..interior {
                        let k = krel + 1;
                        let out = &mut buf[krel * w..(krel + 1) * w];
                        for (l, slot) in out.iter_mut().enumerate() {
                            let j = jlo + l;
                            let l3v = ax3.a * v[idx(i, j, k - 1)]
                                + ax3.b * v[idx(i, j, k)]
                                + ax3.c * v[idx(i, j, k + 1)];
                            let mut rhs = y2[idx(i, j, k)] - theta * dt * l3v;
                            if krel == 0 {
                                rhs += theta * dt * ax3.a * boundary(idx(i, j, 0));
                            }
                            if krel == interior - 1 {
                                rhs += theta * dt * ax3.c * boundary(idx(i, j, m - 1));
                            }
                            *slot = rhs;
                        }
                    }
                    fac3.solve_panel_transposed(buf);
                    for l in 0..w {
                        let j = jlo + l;
                        for krel in 0..interior {
                            v[idx(i, j, krel + 1)] = buf[krel * w + l];
                        }
                    }
                    jlo += w;
                }
            }

            finish_step(m, american, intrinsic, v, &boundary);
            nodes += (m * m * m) as u64;
        }

        let c = [
            self.axes[0].grid.center,
            self.axes[1].grid.center,
            self.axes[2].grid.center,
        ];
        Ok(Adi3dResult {
            price: v[idx(c[0], c[1], c[2])],
            nodes_processed: nodes,
        })
    }
}

/// Per-step epilogue: refresh the six Dirichlet faces at the new time
/// level and apply the American projection over the whole cube.
fn finish_step(
    m: usize,
    american: bool,
    intrinsic: &[f64],
    v: &mut [f64],
    boundary: &dyn Fn(usize) -> f64,
) {
    let idx = |i: usize, j: usize, k: usize| (i * m + j) * m + k;
    for a in 0..m {
        for b in 0..m {
            for lin in [
                idx(0, a, b),
                idx(m - 1, a, b),
                idx(a, 0, b),
                idx(a, m - 1, b),
                idx(a, b, 0),
                idx(a, b, m - 1),
            ] {
                v[lin] = boundary(lin);
            }
        }
    }
    if american {
        for (val, &intr) in v.iter_mut().zip(intrinsic) {
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
        GbmMarket::symmetric(3, 100.0, 0.2, 0.0, 0.05, rho).unwrap()
    }

    #[test]
    fn geometric_call_matches_closed_form() {
        let m = market(0.5);
        let p = Product::european(Payoff::GeometricCall { strike: 100.0 }, 1.0);
        let w = [1.0 / 3.0; 3];
        let exact = analytic::geometric_basket_call(&m, &w, 100.0, 1.0);
        let cfg = Adi3d {
            space_points: 61,
            time_steps: 60,
            ..Default::default()
        };
        let r = cfg.price(&m, &p).unwrap();
        assert!(approx_eq(r.price, exact, 1e-2), "{} vs {exact}", r.price);
    }

    #[test]
    fn american_min_put_dominates_european() {
        let m = market(0.3);
        let pay = Payoff::MinPut { strike: 110.0 };
        let eu = Adi3d::default()
            .price(&m, &Product::european(pay.clone(), 1.0))
            .unwrap();
        let am = Adi3d::default()
            .price(&m, &Product::american(pay, 1.0))
            .unwrap();
        assert!(am.price >= eu.price - 1e-9);
        assert!(am.price >= 10.0 - 1e-9, "at least intrinsic: {}", am.price);
    }

    #[test]
    fn agrees_with_beg_lattice() {
        let m = market(0.5);
        let p = Product::american(Payoff::MaxCall { strike: 100.0 }, 1.0);
        let lattice = mdp_lattice::MultiLattice::new(50).price(&m, &p).unwrap();
        let pde = Adi3d {
            space_points: 51,
            time_steps: 50,
            ..Default::default()
        }
        .price(&m, &p)
        .unwrap();
        assert!(
            approx_eq(pde.price, lattice.price, 5e-2),
            "pde {} vs lattice {}",
            pde.price,
            lattice.price
        );
    }

    #[test]
    fn plan_execute_bitwise_matches_one_shot() {
        let m = market(0.3);
        let cfg = Adi3d {
            space_points: 15,
            time_steps: 8,
            ..Default::default()
        };
        let plan = cfg.plan(&m, 1.0).unwrap();
        let mut scratch = Adi3dScratch::default();
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
    fn apply_tick_bitwise_equals_fresh_plan() {
        let cfg = Adi3d {
            space_points: 15,
            time_steps: 6,
            ..Default::default()
        };
        let m0 = market(0.4);
        let p = Product::european(Payoff::GeometricCall { strike: 100.0 }, 1.0);
        let mut corr = mdp_math::linalg::Matrix::identity(3);
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            corr[(a, b)] = 0.2;
            corr[(b, a)] = 0.2;
        }
        let ticks = [
            MarketDelta::Spot {
                asset: 1,
                spot: 103.0,
            },
            MarketDelta::Vol {
                asset: 2,
                vol: 0.26,
            },
            MarketDelta::Rate { rate: 0.035 },
            MarketDelta::Correlation { correlation: corr },
            MarketDelta::Spot {
                asset: 0,
                spot: 97.5,
            },
        ];
        let mut ticked = cfg.plan(&m0, 1.0).unwrap();
        let mut mk = m0;
        for delta in &ticks {
            assert_eq!(ticked.apply_tick(delta).unwrap(), TickOutcome::Patched);
            mk = mk.apply_delta(delta).unwrap();
            let fresh = cfg.plan(&mk, 1.0).unwrap();
            let pt = ticked.execute(&p, &mut Adi3dScratch::default()).unwrap();
            let pf = fresh.execute(&p, &mut Adi3dScratch::default()).unwrap();
            assert_eq!(pt.price.to_bits(), pf.price.to_bits(), "{delta:?}");
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let m2 = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
        let p3 = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
        assert!(Adi3d::default().price(&m2, &p3).is_err());
        let m3 = market(0.0);
        let asian = Product::european(Payoff::AsianCall { strike: 100.0 }, 1.0);
        assert!(Adi3d::default().price(&m3, &asian).is_err());
        let tiny = Adi3d {
            space_points: 3,
            ..Default::default()
        };
        assert!(matches!(
            tiny.price(&m3, &p3),
            Err(PdeError::GridTooSmall { .. })
        ));
        for width in [0.0, -1.0, f64::NAN] {
            let cfg = Adi3d {
                width,
                ..Default::default()
            };
            assert!(matches!(
                cfg.price(&m3, &p3),
                Err(PdeError::Model(mdp_model::ModelError::InvalidParameter {
                    what: "width",
                    ..
                }))
            ));
        }
    }

    #[test]
    fn node_accounting() {
        let m = market(0.0);
        let p = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
        let cfg = Adi3d {
            space_points: 7,
            time_steps: 3,
            ..Default::default()
        };
        let r = cfg.price(&m, &p).unwrap();
        assert_eq!(r.nodes_processed, 343 * 4);
    }
}
