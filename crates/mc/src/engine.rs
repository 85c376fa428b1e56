//! The European Monte Carlo pricer over block substreams.
//!
//! Paths are split into blocks of [`McConfig::block_size`]; block `b`
//! draws exclusively from RNG substream `b` of the seed. A driver — the
//! block sweep here, sequential or on rayon, or the message-passing
//! driver in [`crate::cluster_driver`] — only decides *who computes
//! which blocks*; the sample set is fixed by `(seed, paths, block_size)`
//! alone. Every backend therefore returns the **same price to the last
//! bit**, which turns "the parallel code is correct" into an equality
//! test.
//!
//! Every driver reads the block start states from one table built per
//! run with one jump per block
//! ([`Xoshiro256StarStar::substreams`](mdp_math::rng::Xoshiro256StarStar::substreams)),
//! so seeding a run of B blocks costs B − 1 jumps on any backend.

use crate::panel::{eval_panel, eval_terminal_walked, CvSpec, PanelScratch};
use crate::path::{walk_path_with_normals, GbmStepper, SoaPanel, PANEL};
use crate::variance::{BlockAccum, MERGE_CHUNK};
use crate::McError;
use mdp_math::rng::{NormalPolar, NormalSampler, Xoshiro256StarStar};
use mdp_math::CancelToken;
use mdp_model::{
    analytic, ExerciseStyle, GbmMarket, MarketDelta, PathDependence, Payoff, Product, TickOutcome,
};
use rayon::prelude::*;

/// Variance-reduction technique for the European engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VarianceReduction {
    /// Plain Monte Carlo.
    #[default]
    None,
    /// Antithetic pairs `(z, −z)` — one sample per pair.
    Antithetic,
    /// Geometric-basket control variate (arithmetic basket payoffs only;
    /// the control's mean is the closed form from `mdp_model::analytic`).
    GeometricCv,
}

/// Configuration of a European Monte Carlo run.
#[derive(Debug, Clone, Copy)]
pub struct McConfig {
    /// Total number of paths (antithetic pairs count as one path).
    pub paths: u64,
    /// Monitoring steps (1 unless the payoff needs a path, e.g. Asian).
    pub steps: usize,
    /// RNG seed; together with `paths`/`block_size` it pins the sample set.
    pub seed: u64,
    /// Variance-reduction technique.
    pub variance_reduction: VarianceReduction,
    /// Paths per substream block.
    pub block_size: u64,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            paths: 100_000,
            steps: 1,
            seed: 0x5EED,
            variance_reduction: VarianceReduction::None,
            block_size: 4096,
        }
    }
}

impl McConfig {
    /// Number of substream blocks the run is partitioned into.
    pub fn num_blocks(&self) -> u64 {
        self.paths.div_ceil(self.block_size)
    }

    /// Paths simulated by block `b`.
    pub fn block_paths(&self, b: u64) -> u64 {
        let lo = b * self.block_size;
        let hi = (lo + self.block_size).min(self.paths);
        hi - lo
    }

    /// The start state of every block's RNG substream, built once per
    /// run with one jump per block; entry `b` is
    /// `Xoshiro256StarStar::seed_from(seed).substream(b)`.
    pub(crate) fn block_streams(&self) -> Vec<Xoshiro256StarStar> {
        Xoshiro256StarStar::seed_from(self.seed).substreams(self.num_blocks())
    }

    /// Modelled work units for one path (used by the virtual-time
    /// accounting of the cluster driver): per step a `d×d` triangular
    /// correlate, d exponentials and bookkeeping, plus the payoff.
    pub fn path_work_units(&self, d: usize) -> f64 {
        let per_step = (d * d) as f64 / 2.0 + 8.0 * d as f64 + 6.0;
        let factor = match self.variance_reduction {
            VarianceReduction::None => 1.0,
            // Antithetic re-walks the path; CV adds a geometric payoff.
            VarianceReduction::Antithetic => 1.8,
            VarianceReduction::GeometricCv => 1.2,
        };
        factor * (self.steps as f64 * per_step + 4.0 * d as f64)
    }
}

/// Result of a European Monte Carlo run.
#[derive(Debug, Clone, Copy)]
pub struct McResult {
    /// Price estimate.
    pub price: f64,
    /// Standard error of the estimate.
    pub std_error: f64,
    /// Paths simulated.
    pub paths: u64,
    /// Variance-reduction factor vs plain MC on the same samples
    /// (1.0 when no control variate is active).
    pub variance_ratio: f64,
}

impl McResult {
    /// Symmetric 95% confidence half-width.
    pub fn ci95(&self) -> f64 {
        1.959_963_984_540_054 * self.std_error
    }
}

/// The European Monte Carlo engine.
///
/// ```
/// use mdp_mc::{McConfig, McEngine};
/// use mdp_model::{GbmMarket, Payoff, Product};
///
/// let market = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
/// let call = Product::european(
///     Payoff::BasketCall { weights: vec![1.0], strike: 100.0 },
///     1.0,
/// );
/// let r = McEngine::new(McConfig { paths: 20_000, ..Default::default() })
///     .price(&market, &call)
///     .unwrap();
/// let exact = mdp_model::analytic::black_scholes_call(100.0, 100.0, 0.05, 0.0, 0.2, 1.0);
/// assert!((r.price - exact).abs() < 4.0 * r.std_error);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct McEngine {
    /// Run configuration.
    pub config: McConfig,
}

/// Everything a block simulation needs, precomputed once per run.
pub struct RunContext<'a> {
    market: &'a GbmMarket,
    product: &'a Product,
    cfg: McConfig,
    stepper: GbmStepper,
    log0: Vec<f64>,
    /// Start state of each block's substream (`McConfig::block_streams`).
    streams: Vec<Xoshiro256StarStar>,
    /// Spot of the first asset at t=0 (seed for barrier extremes).
    s0_first: f64,
    disc: f64,
    /// Exact mean of the control variate, when active.
    pub cv_mean: Option<f64>,
    /// Weights for the control's geometric payoff.
    cv_weights: Vec<f64>,
    cv_strike: f64,
    cv_is_call: bool,
}

/// Product validation + control-variate setup of [`McPlan::context`].
#[allow(clippy::type_complexity)]
fn validate_and_cv(
    market: &GbmMarket,
    product: &Product,
    cfg: &McConfig,
) -> Result<(Option<f64>, Vec<f64>, f64, bool), McError> {
    product.validate_for(market)?;
    if product.exercise != ExerciseStyle::European {
        return Err(McError::Unsupported(
            "European engine; price American products with lsmc".into(),
        ));
    }
    if cfg.paths == 0 {
        return Err(McError::ZeroPaths);
    }
    if cfg.steps == 0 {
        return Err(McError::ZeroSteps);
    }
    if cfg.block_size == 0 {
        return Err(McError::Unsupported("block_size must be positive".into()));
    }
    if cfg.variance_reduction == VarianceReduction::GeometricCv {
        match &product.payoff {
            Payoff::BasketCall { weights, strike } => Ok((
                Some(analytic::geometric_basket_call(
                    market,
                    weights,
                    *strike,
                    product.maturity,
                )),
                weights.clone(),
                *strike,
                true,
            )),
            Payoff::BasketPut { weights, strike } => Ok((
                Some(analytic::geometric_basket_put(
                    market,
                    weights,
                    *strike,
                    product.maturity,
                )),
                weights.clone(),
                *strike,
                false,
            )),
            other => Err(McError::Unsupported(format!(
                "geometric control variate needs an arithmetic basket payoff, got {other:?}"
            ))),
        }
    } else {
        Ok((None, Vec::new(), 0.0, true))
    }
}

impl RunContext<'_> {
    /// Discounted payoff (and control, when active) of one path given its
    /// normal vector.
    #[inline]
    fn eval_path(&self, normals: &[f64], log_buf: &mut [f64], spot_buf: &mut [f64]) -> (f64, f64) {
        let d = self.stepper.dim;
        let steps = self.stepper.steps;
        let payoff = &self.product.payoff;
        let dep = payoff.path_dependence();
        let mut avg = 0.0;
        let mut pmax = self.s0_first;
        let mut pmin = self.s0_first;
        let mut y = 0.0;
        let mut x = 0.0;
        walk_path_with_normals(
            &self.stepper,
            &self.log0,
            normals,
            log_buf,
            spot_buf,
            |step, s| {
                match dep {
                    PathDependence::Average => avg += s.iter().sum::<f64>() / d as f64,
                    PathDependence::Extremes => {
                        pmax = pmax.max(s[0]);
                        pmin = pmin.min(s[0]);
                    }
                    PathDependence::None => {}
                }
                if step == steps - 1 {
                    y = match dep {
                        PathDependence::Average => payoff.eval_average(avg / steps as f64),
                        PathDependence::Extremes => payoff.eval_extremes(s[0], pmax, pmin),
                        PathDependence::None => payoff.eval(s),
                    };
                    if self.cv_mean.is_some() {
                        let g: f64 = self
                            .cv_weights
                            .iter()
                            .zip(s)
                            .map(|(w, si)| w * si.ln())
                            .sum::<f64>()
                            .exp();
                        x = if self.cv_is_call {
                            (g - self.cv_strike).max(0.0)
                        } else {
                            (self.cv_strike - g).max(0.0)
                        };
                    }
                }
            },
        );
        (self.disc * y, self.disc * x)
    }

    /// Simulate one substream block path-by-path: the scalar oracle the
    /// equality suites hold the batched kernel to.
    pub fn simulate_block_scalar(&self, block: u64) -> BlockAccum {
        let d = self.stepper.dim;
        let npath = self.stepper.normals_per_path();
        let mut rng = self.streams[block as usize];
        let mut sampler = NormalPolar::new();
        let mut normals = vec![0.0; npath];
        let mut log_buf = vec![0.0; d];
        let mut spot_buf = vec![0.0; d];
        let mut acc = BlockAccum::new();
        let antithetic = self.cfg.variance_reduction == VarianceReduction::Antithetic;
        for _ in 0..self.cfg.block_paths(block) {
            sampler.fill(&mut rng, &mut normals);
            let (y, x) = self.eval_path(&normals, &mut log_buf, &mut spot_buf);
            if antithetic {
                for z in normals.iter_mut() {
                    *z = -*z;
                }
                let (y2, _) = self.eval_path(&normals, &mut log_buf, &mut spot_buf);
                acc.push(0.5 * (y + y2));
            } else if self.cv_mean.is_some() {
                acc.push_cv(y, x);
            } else {
                acc.push(y);
            }
        }
        acc
    }

    /// Simulate one substream block with the batched SoA kernel, the one
    /// every driver runs: paths in panels of [`PANEL`] lanes, normals
    /// filled path-major (same draw order as the scalar kernel), the
    /// correlate as a blocked triangular panel multiply, and the payoff
    /// fused per lane.
    ///
    /// Bitwise-identical to [`RunContext::simulate_block_scalar`]: every
    /// per-path f64 operation happens in the same order, and lanes push
    /// into the accumulator in path order.
    pub fn simulate_block_batched(&self, block: u64) -> BlockAccum {
        let mut rng = self.streams[block as usize];
        let mut sampler = NormalPolar::new();
        let mut panel = SoaPanel::new(&self.stepper, PANEL);
        let mut scratch = PanelScratch::new(self.stepper.dim, PANEL);
        let mut ys1 = vec![0.0; PANEL];
        let mut acc = BlockAccum::new();
        let antithetic = self.cfg.variance_reduction == VarianceReduction::Antithetic;
        let cv = self.cv_mean.is_some().then_some(CvSpec {
            weights: &self.cv_weights,
            strike: self.cv_strike,
            is_call: self.cv_is_call,
        });
        let payoff = &self.product.payoff;
        let total = self.cfg.block_paths(block);
        let mut done = 0u64;
        while done < total {
            let n = (total - done).min(PANEL as u64) as usize;
            panel.fill_normals(&mut sampler, &mut rng, n);
            eval_panel(
                &self.stepper,
                &self.log0,
                payoff,
                self.s0_first,
                cv.as_ref(),
                &mut panel,
                &mut scratch,
                n,
            );
            if antithetic {
                ys1[..n].copy_from_slice(&scratch.ys[..n]);
                panel.negate_normals(n);
                eval_panel(
                    &self.stepper,
                    &self.log0,
                    payoff,
                    self.s0_first,
                    None,
                    &mut panel,
                    &mut scratch,
                    n,
                );
                for (y1, y2) in ys1[..n].iter().zip(&scratch.ys[..n]) {
                    // Same association as the scalar kernel: each leg is
                    // discounted before the pair average.
                    acc.push(0.5 * (self.disc * y1 + self.disc * y2));
                }
            } else if cv.is_some() {
                for lane in 0..n {
                    acc.push_cv(self.disc * scratch.ys[lane], self.disc * scratch.xs[lane]);
                }
            } else {
                for lane in 0..n {
                    acc.push(self.disc * scratch.ys[lane]);
                }
            }
            done += n as u64;
        }
        acc
    }

    /// Turn a merged accumulator into a result.
    pub fn finish(&self, acc: &BlockAccum) -> McResult {
        let (price, std_error) = match self.cv_mean {
            Some(mu) => acc.cv_estimate(mu),
            None => acc.plain_estimate(),
        };
        McResult {
            price,
            std_error,
            paths: acc.n as u64,
            variance_ratio: if self.cv_mean.is_some() {
                acc.cv_variance_ratio()
            } else {
                1.0
            },
        }
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> u64 {
        self.cfg.num_blocks()
    }

    /// Market dimension.
    pub fn dim(&self) -> usize {
        self.market.dim()
    }

    /// The run configuration.
    pub fn config(&self) -> &McConfig {
        &self.cfg
    }
}

/// Payoff-independent planned state of a European Monte Carlo run: the
/// correlated stepper (Cholesky factor), log-spots and discount factor
/// for one `(market, maturity, config)` triple. The sample set is fixed
/// by `(seed, paths, block_size)` alone, so one plan prices any number
/// of payoffs — either per product ([`McPlan::execute`], bitwise-equal
/// to [`McEngine::price`]) or fused over **shared paths**
/// ([`McPlan::execute_multi`]): each panel of paths is walked once and
/// every payoff is evaluated on it, which is bitwise-identical to
/// walking the paths once per product because the paths never depend on
/// the payoff. Every execute folds its blocks through the same chunked
/// sweep, so the sequential and rayon modes return the same bits.
#[derive(Debug, Clone)]
pub struct McPlan {
    market: GbmMarket,
    cfg: McConfig,
    maturity: f64,
    stepper: GbmStepper,
    log0: Vec<f64>,
    s0_first: f64,
    disc: f64,
    /// Cooperative cancellation, polled once per path block. Inert by
    /// default; the serving layer installs a live token per request.
    cancel: CancelToken,
}

impl McPlan {
    /// Horizon the plan was built for.
    pub fn maturity(&self) -> f64 {
        self.maturity
    }

    /// Install a cooperative cancel token. The sweep polls it once per
    /// path block; a tripped token aborts the run with
    /// [`McError::Cancelled`]. Runs that complete are bitwise-identical
    /// to runs without a token.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// The run configuration.
    pub fn config(&self) -> &McConfig {
        &self.cfg
    }

    /// Build the per-product [`RunContext`] from the planned state:
    /// validate the product and set up its control variate, reusing the
    /// plan's stepper instead of re-deriving the Cholesky factor.
    pub fn context<'a>(&'a self, product: &'a Product) -> Result<RunContext<'a>, McError> {
        if product.maturity != self.maturity {
            return Err(McError::Unsupported(format!(
                "plan built for maturity {}, product has {}",
                self.maturity, product.maturity
            )));
        }
        let (cv_mean, cv_weights, cv_strike, cv_is_call) =
            validate_and_cv(&self.market, product, &self.cfg)?;
        Ok(RunContext {
            market: &self.market,
            product,
            cfg: self.cfg,
            stepper: self.stepper.clone(),
            log0: self.log0.clone(),
            streams: self.cfg.block_streams(),
            s0_first: self.s0_first,
            disc: self.disc,
            cv_mean,
            cv_weights,
            cv_strike,
            cv_is_call,
        })
    }

    /// Run `block` on every block of the sample set and fold what it
    /// pushes, per accumulator, in the **canonical chunked order**.
    ///
    /// Each block gets `width` zeroed accumulators. Each run of
    /// [`MERGE_CHUNK`] consecutive blocks folds into a chunk total in
    /// block order, then the chunk totals fold in chunk order: exactly
    /// the association of [`crate::variance::merge_in_chunks`], with which
    /// the cluster driver folds its gathered blocks. With `parallel` the
    /// chunks run as rayon tasks, so only `⌈blocks/64⌉` chunk totals are
    /// materialised and rayon's own reduce order never touches the
    /// result: both modes return the same bits. The cancel token is
    /// polled before each block.
    fn sweep<F>(&self, width: usize, parallel: bool, block: F) -> Result<Vec<BlockAccum>, McError>
    where
        F: Fn(u64, &mut [BlockAccum]) + Sync,
    {
        let blocks = self.cfg.num_blocks();
        let run_chunk = |c: u64| -> Result<Vec<BlockAccum>, McError> {
            let lo = c * MERGE_CHUNK as u64;
            let mut chunk = vec![BlockAccum::new(); width];
            let mut accs = vec![BlockAccum::new(); width];
            for b in lo..(lo + MERGE_CHUNK as u64).min(blocks) {
                if self.cancel.is_cancelled() {
                    return Err(McError::Cancelled);
                }
                accs.fill(BlockAccum::new());
                block(b, &mut accs);
                for (t, a) in chunk.iter_mut().zip(&accs) {
                    t.merge(a);
                }
            }
            Ok(chunk)
        };
        let chunks = 0..blocks.div_ceil(MERGE_CHUNK as u64);
        let chunk_totals: Vec<Vec<BlockAccum>> = if parallel {
            chunks
                .into_par_iter()
                .map(run_chunk)
                .collect::<Result<_, _>>()?
        } else {
            chunks.map(run_chunk).collect::<Result<_, _>>()?
        };
        let mut totals = vec![BlockAccum::new(); width];
        for chunk in &chunk_totals {
            for (t, a) in totals.iter_mut().zip(chunk) {
                t.merge(a);
            }
        }
        Ok(totals)
    }

    /// Price one product over the planned paths with the batched block
    /// kernel, folded by the sweep; `parallel` runs its chunks on rayon.
    /// Both modes return the same bits as [`McEngine::price`].
    pub fn execute(&self, product: &Product, parallel: bool) -> Result<McResult, McError> {
        let ctx = self.context(product)?;
        let acc = self.sweep(1, parallel, |b, acc| acc[0] = ctx.simulate_block_batched(b))?;
        Ok(ctx.finish(&acc[0]))
    }

    /// A product is fusable when the paths fully determine its payoff
    /// inputs: European, terminal-only (no path dependence), no variance
    /// reduction, and the plan's maturity.
    pub fn check_fusable(&self, product: &Product) -> Result<(), McError> {
        product.validate_for(&self.market)?;
        if product.exercise != ExerciseStyle::European {
            return Err(McError::Unsupported(
                "European engine; price American products with lsmc".into(),
            ));
        }
        if product.maturity != self.maturity {
            return Err(McError::Unsupported(format!(
                "plan built for maturity {}, product has {}",
                self.maturity, product.maturity
            )));
        }
        if product.payoff.path_dependence() != PathDependence::None {
            return Err(McError::Unsupported(
                "shared-path fusion needs terminal-only payoffs".into(),
            ));
        }
        if self.cfg.variance_reduction != VarianceReduction::None {
            return Err(McError::Unsupported(
                "shared-path fusion runs plain Monte Carlo only".into(),
            ));
        }
        Ok(())
    }

    /// Price a book of products over **one shared path sweep**: the
    /// one-scenario cube over the plan's own market, so every block's
    /// panels are walked once and all payoffs are evaluated on them.
    /// Each product's result is bitwise-identical to its own
    /// [`McPlan::execute`] / [`McEngine::price`] run, sequential or
    /// parallel.
    pub fn execute_multi(
        &self,
        products: &[Product],
        parallel: bool,
    ) -> Result<Vec<McResult>, McError> {
        let mut rows = self.execute_cube(products, std::slice::from_ref(&self.market), parallel)?;
        Ok(rows.pop().unwrap_or_default())
    }

    /// The market the plan was built for (after any applied ticks).
    pub fn market(&self) -> &GbmMarket {
        &self.market
    }

    /// Patch the plan in place for a one-field market tick.
    ///
    /// Every Monte Carlo plan component depends on at most one market
    /// field, so each tick is a pure patch (never a rebuild):
    ///
    /// * spot — `log0[asset]` and the control-variate anchor `s0_first`;
    /// * vol / rate — the stepper's drift/diffusion scalars (and, for
    ///   rate, the discount factor), via [`GbmStepper::retune`];
    /// * correlation — the packed Cholesky factor, via
    ///   [`GbmStepper::repack_cholesky`].
    ///
    /// Each patch evaluates exactly the expressions of
    /// [`McEngine::plan`], so the ticked plan is bitwise-identical to a
    /// plan freshly built for the ticked market.
    pub fn apply_tick(&mut self, delta: &MarketDelta) -> Result<TickOutcome, McError> {
        let market = self.market.apply_delta(delta)?;
        match delta {
            MarketDelta::Spot { asset, .. } => {
                self.log0[*asset] = market.spots()[*asset].ln();
                self.s0_first = market.spots()[0];
            }
            MarketDelta::Vol { .. } => self.stepper.retune(&market, self.maturity),
            MarketDelta::Rate { .. } => {
                self.stepper.retune(&market, self.maturity);
                self.disc = market.discount(self.maturity);
            }
            MarketDelta::Correlation { .. } => self.stepper.repack_cholesky(&market),
        }
        self.market = market;
        Ok(TickOutcome::Patched)
    }

    /// Simulate one substream block, whose RNG starts at `rng`, once,
    /// correlate its normals once, and walk the panel once **per
    /// scenario**, evaluating every payoff on each walk. `accs` is
    /// scenario-major: `accs[s·k + p]` receives payoff `p` under
    /// scenario `s`, in the exact lane order
    /// [`RunContext::simulate_block_batched`] would produce for that
    /// payoff on a plan ticked to that scenario.
    fn simulate_block_cube(
        &self,
        block: u64,
        mut rng: Xoshiro256StarStar,
        scens: &[CubeScenario],
        payoffs: &[&Payoff],
        accs: &mut [BlockAccum],
    ) {
        let mut sampler = NormalPolar::new();
        let mut panel = SoaPanel::new(&self.stepper, PANEL);
        let mut scratch = PanelScratch::new(self.stepper.dim, PANEL);
        let mut tmp = Vec::new();
        let d = self.stepper.dim;
        let k = payoffs.len();
        let total = self.cfg.block_paths(block);
        let mut done = 0u64;
        while done < total {
            let n = (total - done).min(PANEL as u64) as usize;
            panel.fill_normals(&mut sampler, &mut rng, n);
            // Pay the triangular correlate once; every scenario walk
            // below reuses the same w rows (sound because the scenario
            // Cholesky factors were checked bitwise-equal to the base).
            self.stepper
                .correlate_panel_in_place(&mut panel, n, &mut tmp);
            for (si, scen) in scens.iter().enumerate() {
                scen.stepper
                    .walk_correlated_terminal(&scen.log0, &mut panel, n);
                for (pi, payoff) in payoffs.iter().enumerate() {
                    eval_terminal_walked(payoff, &panel, &mut scratch, d, n);
                    let acc = &mut accs[si * k + pi];
                    for lane in 0..n {
                        acc.push(scen.disc * scratch.ys[lane]);
                    }
                }
            }
            done += n as u64;
        }
    }

    /// Price a book of products under **K market scenarios over one
    /// shared path sweep**: each block's normals are drawn and
    /// correlated once, then every scenario re-walks the panel with its
    /// own drift/diffusion scalars and log-spots and evaluates every
    /// payoff on it.
    ///
    /// Results are scenario-major: `out[s][p]` is product `p` under
    /// `scenarios[s]`, **bitwise-identical** to [`McPlan::execute`] of
    /// that product on a plan built (or ticked) for that scenario
    /// market, sequential or parallel.
    ///
    /// Scenario markets must share the base plan's dimension, and their
    /// Cholesky factors must match the base factor bit for bit (spot,
    /// vol and rate scenarios qualify; correlation scenarios need their
    /// own sweep) — otherwise the shared correlate would not reproduce
    /// the per-scenario walks and the call fails with
    /// [`McError::Unsupported`].
    pub fn execute_cube(
        &self,
        products: &[Product],
        scenarios: &[GbmMarket],
        parallel: bool,
    ) -> Result<Vec<Vec<McResult>>, McError> {
        for product in products {
            self.check_fusable(product)?;
        }
        let k = products.len();
        if k == 0 || scenarios.is_empty() {
            return Ok(scenarios.iter().map(|_| Vec::new()).collect());
        }
        let scens: Vec<CubeScenario> = scenarios
            .iter()
            .map(|scen| {
                if scen.dim() != self.market.dim() {
                    return Err(McError::Unsupported(format!(
                        "scenario dimension {} differs from plan dimension {}",
                        scen.dim(),
                        self.market.dim()
                    )));
                }
                let stepper = GbmStepper::new(scen, self.maturity, self.cfg.steps);
                if !stepper.chol_matches(&self.stepper) {
                    return Err(McError::Unsupported(
                        "scenario changes the correlation factor; \
                         correlation scenarios cannot share the path sweep"
                            .into(),
                    ));
                }
                Ok(CubeScenario {
                    stepper,
                    log0: scen.spots().iter().map(|s| s.ln()).collect(),
                    disc: scen.discount(self.maturity),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let payoffs: Vec<&Payoff> = products.iter().map(|p| &p.payoff).collect();
        let streams = self.cfg.block_streams();
        let totals = self.sweep(scens.len() * k, parallel, |b, accs| {
            self.simulate_block_cube(b, streams[b as usize], &scens, &payoffs, accs)
        })?;
        Ok(totals
            .chunks(k)
            .map(|row| {
                row.iter()
                    .map(|acc| {
                        let (price, std_error) = acc.plain_estimate();
                        McResult {
                            price,
                            std_error,
                            paths: acc.n as u64,
                            variance_ratio: 1.0,
                        }
                    })
                    .collect()
            })
            .collect())
    }
}

/// Per-scenario planned state of one lane of a scenario cube: the
/// retuned stepper (sharing the base Cholesky bits), log-spots and
/// discount factor for one scenario market.
#[derive(Debug, Clone)]
struct CubeScenario {
    stepper: GbmStepper,
    log0: Vec<f64>,
    disc: f64,
}

impl McEngine {
    /// Engine with the given configuration.
    pub fn new(config: McConfig) -> Self {
        McEngine { config }
    }

    /// Build the payoff-independent plan for this configuration on a
    /// market with horizon `maturity`.
    pub fn plan(&self, market: &GbmMarket, maturity: f64) -> Result<McPlan, McError> {
        let cfg = self.config;
        if cfg.paths == 0 {
            return Err(McError::ZeroPaths);
        }
        if cfg.steps == 0 {
            return Err(McError::ZeroSteps);
        }
        if cfg.block_size == 0 {
            return Err(McError::Unsupported("block_size must be positive".into()));
        }
        if !maturity.is_finite() || maturity <= 0.0 {
            return Err(McError::Unsupported(format!(
                "maturity must be positive and finite, got {maturity}"
            )));
        }
        let stepper = GbmStepper::new(market, maturity, cfg.steps);
        Ok(McPlan {
            market: market.clone(),
            cfg,
            maturity,
            stepper,
            log0: market.spots().iter().map(|s| s.ln()).collect(),
            s0_first: market.spots()[0],
            disc: market.discount(maturity),
            cancel: CancelToken::never(),
        })
    }

    /// Sequential pricing: plan, then [`McPlan::execute`]. The product
    /// is validated before the plan is built, so its errors come first.
    pub fn price(&self, market: &GbmMarket, product: &Product) -> Result<McResult, McError> {
        product.validate_for(market)?;
        self.plan(market, product.maturity)?.execute(product, false)
    }

    /// Shared-memory parallel pricing over blocks (rayon): plan, then
    /// [`McPlan::execute`] with `parallel`. Identical result to
    /// [`McEngine::price`].
    pub fn price_rayon(&self, market: &GbmMarket, product: &Product) -> Result<McResult, McError> {
        product.validate_for(market)?;
        self.plan(market, product.maturity)?.execute(product, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variance::merge_in_chunks;

    fn call1() -> (GbmMarket, Product) {
        (
            GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap(),
            Product::european(
                Payoff::BasketCall {
                    weights: vec![1.0],
                    strike: 100.0,
                },
                1.0,
            ),
        )
    }

    #[test]
    fn converges_to_black_scholes_within_ci() {
        let (m, p) = call1();
        let exact = analytic::black_scholes_call(100.0, 100.0, 0.05, 0.0, 0.2, 1.0);
        let r = McEngine::new(McConfig {
            paths: 200_000,
            ..Default::default()
        })
        .price(&m, &p)
        .unwrap();
        assert!(
            (r.price - exact).abs() < 3.0 * r.std_error,
            "{} vs {exact} (se {})",
            r.price,
            r.std_error
        );
        assert!(r.std_error < 0.1);
    }

    #[test]
    fn antithetic_reduces_error_for_monotone_payoff() {
        let (m, p) = call1();
        let plain = McEngine::new(McConfig {
            paths: 50_000,
            ..Default::default()
        })
        .price(&m, &p)
        .unwrap();
        let anti = McEngine::new(McConfig {
            paths: 50_000,
            variance_reduction: VarianceReduction::Antithetic,
            ..Default::default()
        })
        .price(&m, &p)
        .unwrap();
        assert!(
            anti.std_error < plain.std_error * 0.8,
            "antithetic {} vs plain {}",
            anti.std_error,
            plain.std_error
        );
    }

    #[test]
    fn control_variate_slashes_error_for_baskets() {
        let m = GbmMarket::symmetric(5, 100.0, 0.3, 0.0, 0.05, 0.4).unwrap();
        let p = Product::european(
            Payoff::BasketCall {
                weights: Product::equal_weights(5),
                strike: 100.0,
            },
            1.0,
        );
        let plain = McEngine::new(McConfig {
            paths: 40_000,
            ..Default::default()
        })
        .price(&m, &p)
        .unwrap();
        let cv = McEngine::new(McConfig {
            paths: 40_000,
            variance_reduction: VarianceReduction::GeometricCv,
            ..Default::default()
        })
        .price(&m, &p)
        .unwrap();
        assert!(
            cv.std_error < plain.std_error / 5.0,
            "cv {} vs plain {}",
            cv.std_error,
            plain.std_error
        );
        assert!(cv.variance_ratio > 25.0, "{}", cv.variance_ratio);
        // Both agree within errors.
        assert!((cv.price - plain.price).abs() < 4.0 * plain.std_error);
    }

    #[test]
    fn block_streams_equal_direct_substreams() {
        use mdp_math::rng::Substreams;
        let (m, p) = call1();
        let cfg = McConfig {
            paths: 257 * 8,
            block_size: 8,
            ..Default::default()
        };
        let plan = McEngine::new(cfg).plan(&m, p.maturity).unwrap();
        let planned = plan.context(&p).unwrap();
        let base = Xoshiro256StarStar::seed_from(cfg.seed);
        for k in [0u64, 1, 2, 255, 256] {
            let direct = base.substream(k);
            assert_eq!(planned.streams[k as usize], direct, "planned block {k}");
        }
    }

    #[test]
    fn rayon_bitwise_equals_sequential() {
        let m = GbmMarket::symmetric(3, 100.0, 0.25, 0.01, 0.04, 0.3).unwrap();
        let p = Product::european(Payoff::MaxCall { strike: 105.0 }, 1.0);
        let eng = McEngine::new(McConfig {
            paths: 20_000,
            block_size: 1000,
            ..Default::default()
        });
        let a = eng.price(&m, &p).unwrap();
        let b = eng.price_rayon(&m, &p).unwrap();
        assert_eq!(a.price.to_bits(), b.price.to_bits());
        assert_eq!(a.std_error.to_bits(), b.std_error.to_bits());
    }

    #[test]
    fn batched_block_bitwise_equals_scalar_across_payoff_families() {
        // One market/payoff per path-dependence family, plus CV and
        // antithetic variants; block sizes chosen so the last panel is a
        // remainder (block_paths % PANEL ≠ 0).
        let m3 = GbmMarket::symmetric(3, 100.0, 0.25, 0.01, 0.04, 0.3).unwrap();
        let m1 = GbmMarket::single(100.0, 0.3, 0.0, 0.05).unwrap();
        let cases: Vec<(GbmMarket, Product, VarianceReduction, usize)> = vec![
            (
                m3.clone(),
                Product::european(Payoff::MaxCall { strike: 105.0 }, 1.0),
                VarianceReduction::None,
                1,
            ),
            (
                m3.clone(),
                Product::european(
                    Payoff::BasketCall {
                        weights: Product::equal_weights(3),
                        strike: 100.0,
                    },
                    1.0,
                ),
                VarianceReduction::GeometricCv,
                1,
            ),
            (
                m3,
                Product::european(Payoff::MaxCall { strike: 105.0 }, 1.0),
                VarianceReduction::Antithetic,
                4,
            ),
            (
                m1.clone(),
                Product::european(Payoff::AsianCall { strike: 100.0 }, 1.0),
                VarianceReduction::None,
                8,
            ),
            (
                m1,
                Product::european(Payoff::LookbackCallFloating, 1.0),
                VarianceReduction::None,
                8,
            ),
        ];
        for (m, p, vr, steps) in cases {
            let cfg = McConfig {
                paths: 1000,
                steps,
                block_size: 300, // 300 % 64 ≠ 0 ⇒ remainder panels
                variance_reduction: vr,
                ..Default::default()
            };
            let plan = McEngine::new(cfg).plan(&m, p.maturity).unwrap();
            let ctx = plan.context(&p).unwrap();
            for b in 0..ctx.num_blocks() {
                let scalar = ctx.simulate_block_scalar(b);
                let batched = ctx.simulate_block_batched(b);
                assert_eq!(
                    scalar.sum_y.to_bits(),
                    batched.sum_y.to_bits(),
                    "{vr:?} {:?} block {b}",
                    p.payoff
                );
                assert_eq!(scalar.sum_yy.to_bits(), batched.sum_yy.to_bits());
                assert_eq!(scalar.sum_xy.to_bits(), batched.sum_xy.to_bits());
                assert_eq!(scalar.n, batched.n);
            }
        }
    }

    #[test]
    fn price_batched_bitwise_equals_price_and_rayon() {
        // An explicit sequential sweep of the batched SoA block kernel
        // must agree bit for bit with `price` and `price_rayon`.
        let m = GbmMarket::symmetric(3, 100.0, 0.25, 0.01, 0.04, 0.3).unwrap();
        let p = Product::european(Payoff::MaxCall { strike: 105.0 }, 1.0);
        let cfg = McConfig {
            paths: 20_000,
            block_size: 300,
            ..Default::default()
        };
        let eng = McEngine::new(cfg);
        let a = eng.price(&m, &p).unwrap();
        let plan = eng.plan(&m, p.maturity).unwrap();
        let ctx = plan.context(&p).unwrap();
        let b = ctx.finish(&merge_in_chunks(
            (0..ctx.num_blocks()).map(|k| ctx.simulate_block_batched(k)),
        ));
        let c = eng.price_rayon(&m, &p).unwrap();
        assert_eq!(a.price.to_bits(), b.price.to_bits());
        assert_eq!(a.price.to_bits(), c.price.to_bits());
        assert_eq!(a.std_error.to_bits(), b.std_error.to_bits());
        assert_eq!(a.std_error.to_bits(), c.std_error.to_bits());
    }

    #[test]
    fn plan_execute_bitwise_matches_one_shot() {
        let m = GbmMarket::symmetric(3, 100.0, 0.25, 0.01, 0.04, 0.3).unwrap();
        let eng = McEngine::new(McConfig {
            paths: 10_000,
            block_size: 300,
            ..Default::default()
        });
        let plan = eng.plan(&m, 1.0).unwrap();
        for p in [
            Product::european(Payoff::MaxCall { strike: 105.0 }, 1.0),
            Product::european(
                Payoff::BasketPut {
                    weights: Product::equal_weights(3),
                    strike: 100.0,
                },
                1.0,
            ),
        ] {
            let one_shot = eng.price(&m, &p).unwrap();
            let a = plan.execute(&p, false).unwrap();
            let b = plan.execute(&p, false).unwrap();
            let r = plan.execute(&p, true).unwrap();
            assert_eq!(a.price.to_bits(), one_shot.price.to_bits());
            assert_eq!(b.price.to_bits(), one_shot.price.to_bits());
            assert_eq!(r.price.to_bits(), one_shot.price.to_bits());
            assert_eq!(a.std_error.to_bits(), one_shot.std_error.to_bits());
        }
        let short = Product::european(Payoff::MaxCall { strike: 105.0 }, 0.5);
        assert!(plan.execute(&short, false).is_err());
    }

    #[test]
    fn tripped_cancel_token_aborts_all_drivers() {
        let m = GbmMarket::symmetric(3, 100.0, 0.25, 0.01, 0.04, 0.3).unwrap();
        let p = Product::european(Payoff::MaxCall { strike: 105.0 }, 1.0);
        let eng = McEngine::new(McConfig {
            paths: 10_000,
            block_size: 500,
            ..Default::default()
        });
        let mut plan = eng.plan(&m, 1.0).unwrap();
        let token = CancelToken::new();
        token.cancel();
        plan.set_cancel(token);
        let scenarios = [m.clone(), m.with_spot(0, 101.0).unwrap()];
        for parallel in [false, true] {
            assert!(matches!(
                plan.execute(&p, parallel),
                Err(McError::Cancelled)
            ));
            assert!(matches!(
                plan.execute_multi(std::slice::from_ref(&p), parallel),
                Err(McError::Cancelled)
            ));
            assert!(matches!(
                plan.execute_cube(std::slice::from_ref(&p), &scenarios, parallel),
                Err(McError::Cancelled)
            ));
        }
        // A fresh (inert) token restores normal, bitwise-stable pricing.
        plan.set_cancel(CancelToken::never());
        let a = plan.execute(&p, false).unwrap();
        let b = eng.price(&m, &p).unwrap();
        assert_eq!(a.price.to_bits(), b.price.to_bits());
    }

    /// Block counts on both sides of the 64-block merge chunk, each run
    /// ending in a ragged block: every execute, in both modes, returns
    /// the bits of the scalar oracle folded by `merge_in_chunks`; the
    /// shared-path book matches per-product runs, and a two-scenario
    /// cube matches plans ticked to each scenario.
    #[test]
    fn sweep_matches_oracle_at_chunk_boundaries() {
        let m = GbmMarket::symmetric(2, 100.0, 0.25, 0.01, 0.04, 0.3).unwrap();
        let products = [
            Product::european(Payoff::MaxCall { strike: 105.0 }, 1.0),
            Product::european(
                Payoff::BasketPut {
                    weights: Product::equal_weights(2),
                    strike: 100.0,
                },
                1.0,
            ),
        ];
        let deltas = [
            MarketDelta::Spot {
                asset: 0,
                spot: 101.0,
            },
            MarketDelta::Vol {
                asset: 1,
                vol: 0.31,
            },
        ];
        let bits = |r: &McResult| (r.price.to_bits(), r.std_error.to_bits(), r.paths);
        for blocks in [1u64, 63, 64, 65, 128, 129] {
            let plan = McEngine::new(McConfig {
                paths: blocks * 9 - 4,
                block_size: 9,
                ..Default::default()
            })
            .plan(&m, 1.0)
            .unwrap();
            assert_eq!(plan.config().num_blocks(), blocks);
            let oracle: Vec<_> = products
                .iter()
                .map(|p| {
                    let ctx = plan.context(p).unwrap();
                    let acc = merge_in_chunks((0..blocks).map(|b| ctx.simulate_block_scalar(b)));
                    bits(&ctx.finish(&acc))
                })
                .collect();
            let ticked: Vec<McPlan> = deltas
                .iter()
                .map(|delta| {
                    let mut t = plan.clone();
                    t.apply_tick(delta).unwrap();
                    t
                })
                .collect();
            let scenarios: Vec<GbmMarket> = ticked.iter().map(|t| t.market().clone()).collect();
            for parallel in [false, true] {
                let tag = format!("{blocks} blocks, parallel {parallel}");
                for (p, want) in products.iter().zip(&oracle) {
                    assert_eq!(bits(&plan.execute(p, parallel).unwrap()), *want, "{tag}");
                }
                let multi = plan.execute_multi(&products, parallel).unwrap();
                assert_eq!(multi.iter().map(bits).collect::<Vec<_>>(), oracle, "{tag}");
                let cube = plan.execute_cube(&products, &scenarios, parallel).unwrap();
                for (t, row) in ticked.iter().zip(&cube) {
                    for (p, r) in products.iter().zip(row) {
                        assert_eq!(bits(r), bits(&t.execute(p, false).unwrap()), "{tag}");
                    }
                }
            }
        }
    }

    #[test]
    fn execute_multi_bitwise_matches_per_product_runs() {
        let m = GbmMarket::symmetric(3, 100.0, 0.25, 0.01, 0.04, 0.3).unwrap();
        let eng = McEngine::new(McConfig {
            paths: 20_000,
            block_size: 300,
            ..Default::default()
        });
        let plan = eng.plan(&m, 1.0).unwrap();
        let products: Vec<Product> = vec![
            Product::european(Payoff::MaxCall { strike: 95.0 }, 1.0),
            Product::european(Payoff::MaxCall { strike: 105.0 }, 1.0),
            Product::european(Payoff::MinPut { strike: 110.0 }, 1.0),
            Product::european(
                Payoff::BasketCall {
                    weights: Product::equal_weights(3),
                    strike: 100.0,
                },
                1.0,
            ),
        ];
        let seq = plan.execute_multi(&products, false).unwrap();
        let par = plan.execute_multi(&products, true).unwrap();
        for (i, p) in products.iter().enumerate() {
            let one_shot = eng.price(&m, p).unwrap();
            assert_eq!(seq[i].price.to_bits(), one_shot.price.to_bits(), "{i}");
            assert_eq!(
                seq[i].std_error.to_bits(),
                one_shot.std_error.to_bits(),
                "{i}"
            );
            assert_eq!(par[i].price.to_bits(), one_shot.price.to_bits(), "{i}");
            assert_eq!(seq[i].paths, one_shot.paths);
        }
    }

    #[test]
    fn execute_multi_rejects_unfusable_products() {
        let m = GbmMarket::single(100.0, 0.3, 0.0, 0.05).unwrap();
        let eng = McEngine::new(McConfig {
            paths: 1000,
            steps: 4,
            ..Default::default()
        });
        let plan = eng.plan(&m, 1.0).unwrap();
        let asian = Product::european(Payoff::AsianCall { strike: 100.0 }, 1.0);
        assert!(plan.execute_multi(&[asian], false).is_err());
        let short = Product::european(
            Payoff::BasketCall {
                weights: vec![1.0],
                strike: 100.0,
            },
            0.5,
        );
        assert!(plan.execute_multi(&[short], false).is_err());
        let anti = McEngine::new(McConfig {
            paths: 1000,
            variance_reduction: VarianceReduction::Antithetic,
            ..Default::default()
        });
        let vanilla = Product::european(
            Payoff::BasketCall {
                weights: vec![1.0],
                strike: 100.0,
            },
            1.0,
        );
        assert!(anti
            .plan(&m, 1.0)
            .unwrap()
            .execute_multi(&[vanilla], false)
            .is_err());
    }

    #[test]
    fn estimate_is_block_partition_invariant() {
        // Same seed/paths with different block sizes changes the sample
        // set; with the same block size the result is fixed.
        let (m, p) = call1();
        let a = McEngine::new(McConfig {
            paths: 10_000,
            block_size: 512,
            ..Default::default()
        })
        .price(&m, &p)
        .unwrap();
        let b = McEngine::new(McConfig {
            paths: 10_000,
            block_size: 512,
            ..Default::default()
        })
        .price(&m, &p)
        .unwrap();
        assert_eq!(a.price.to_bits(), b.price.to_bits());
    }

    #[test]
    fn asian_call_below_european_call() {
        // Averaging reduces effective volatility.
        let m = GbmMarket::single(100.0, 0.3, 0.0, 0.05).unwrap();
        let asian = Product::european(Payoff::AsianCall { strike: 100.0 }, 1.0);
        let euro = Product::european(
            Payoff::BasketCall {
                weights: vec![1.0],
                strike: 100.0,
            },
            1.0,
        );
        let cfg = McConfig {
            paths: 60_000,
            steps: 12,
            ..Default::default()
        };
        let pa = McEngine::new(cfg).price(&m, &asian).unwrap();
        let pe = McEngine::new(cfg).price(&m, &euro).unwrap();
        assert!(
            pa.price < pe.price - 2.0 * (pa.std_error + pe.std_error),
            "asian {} vs euro {}",
            pa.price,
            pe.price
        );
    }

    #[test]
    fn geometric_basket_matches_closed_form() {
        let m = GbmMarket::symmetric(4, 100.0, 0.25, 0.0, 0.05, 0.3).unwrap();
        let p = Product::european(Payoff::GeometricCall { strike: 100.0 }, 1.0);
        let exact = analytic::geometric_basket_call(&m, &Product::equal_weights(4), 100.0, 1.0);
        let r = McEngine::new(McConfig {
            paths: 150_000,
            ..Default::default()
        })
        .price(&m, &p)
        .unwrap();
        assert!(
            (r.price - exact).abs() < 3.5 * r.std_error,
            "{} vs {exact}",
            r.price
        );
    }

    #[test]
    fn rejects_invalid_configs() {
        let (m, p) = call1();
        assert!(matches!(
            McEngine::new(McConfig {
                paths: 0,
                ..Default::default()
            })
            .price(&m, &p),
            Err(McError::ZeroPaths)
        ));
        assert!(matches!(
            McEngine::new(McConfig {
                steps: 0,
                ..Default::default()
            })
            .price(&m, &p),
            Err(McError::ZeroSteps)
        ));
        let am = Product::american(
            Payoff::BasketPut {
                weights: vec![1.0],
                strike: 100.0,
            },
            1.0,
        );
        assert!(matches!(
            McEngine::new(McConfig::default()).price(&m, &am),
            Err(McError::Unsupported(_))
        ));
        let cv_on_rainbow = McConfig {
            variance_reduction: VarianceReduction::GeometricCv,
            ..Default::default()
        };
        let rainbow = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
        let m2 = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
        assert!(matches!(
            McEngine::new(cv_on_rainbow).price(&m2, &rainbow),
            Err(McError::Unsupported(_))
        ));
    }

    #[test]
    fn block_bookkeeping() {
        let cfg = McConfig {
            paths: 10_001,
            block_size: 1000,
            ..Default::default()
        };
        assert_eq!(cfg.num_blocks(), 11);
        assert_eq!(cfg.block_paths(0), 1000);
        assert_eq!(cfg.block_paths(10), 1);
        let total: u64 = (0..cfg.num_blocks()).map(|b| cfg.block_paths(b)).sum();
        assert_eq!(total, 10_001);
    }

    #[test]
    fn work_units_scale_with_dimension_and_steps() {
        let a = McConfig {
            steps: 1,
            ..Default::default()
        }
        .path_work_units(2);
        let b = McConfig {
            steps: 10,
            ..Default::default()
        }
        .path_work_units(2);
        let c = McConfig {
            steps: 1,
            ..Default::default()
        }
        .path_work_units(10);
        assert!(b > 5.0 * a);
        assert!(c > 2.0 * a);
    }
}

#[cfg(test)]
mod lookback_engine_tests {
    use super::*;
    use mdp_model::analytic;

    #[test]
    fn lookback_call_converges_to_continuous_from_below() {
        let m = GbmMarket::single(100.0, 0.3, 0.0, 0.05).unwrap();
        let p = Product::european(Payoff::LookbackCallFloating, 1.0);
        let exact = analytic::lookback_call_floating(100.0, 0.05, 0.0, 0.3, 1.0);
        let run = |steps: usize| {
            McEngine::new(McConfig {
                paths: 60_000,
                steps,
                ..Default::default()
            })
            .price(&m, &p)
            .unwrap()
        };
        let coarse = run(16);
        let fine = run(128);
        // Discrete monitoring misses extremes ⇒ undershoot, shrinking
        // with the monitoring frequency.
        assert!(coarse.price < exact, "{} vs {exact}", coarse.price);
        assert!(fine.price < exact + 2.0 * fine.std_error);
        assert!(
            fine.price > coarse.price,
            "finer monitoring must close the gap: {} vs {}",
            fine.price,
            coarse.price
        );
        assert!(
            (fine.price - exact).abs() / exact < 0.06,
            "within 6% at 128 dates: {} vs {exact}",
            fine.price
        );
    }

    #[test]
    fn lookback_put_priced_by_engine() {
        let m = GbmMarket::single(100.0, 0.25, 0.02, 0.05).unwrap();
        let p = Product::european(Payoff::LookbackPutFloating, 1.0);
        let exact = analytic::lookback_put_floating(100.0, 0.05, 0.02, 0.25, 1.0);
        let r = McEngine::new(McConfig {
            paths: 60_000,
            steps: 128,
            ..Default::default()
        })
        .price(&m, &p)
        .unwrap();
        assert!(
            r.price < exact,
            "discrete undershoots: {} vs {exact}",
            r.price
        );
        assert!(
            (r.price - exact).abs() / exact < 0.08,
            "{} vs {exact}",
            r.price
        );
    }

    #[test]
    fn apply_tick_bitwise_equals_fresh_plan() {
        let m = GbmMarket::symmetric(3, 100.0, 0.25, 0.01, 0.04, 0.3).unwrap();
        let p = Product::european(Payoff::MaxCall { strike: 105.0 }, 1.0);
        let eng = McEngine::new(McConfig {
            paths: 8_000,
            block_size: 1000,
            ..Default::default()
        });
        let mut ticked = eng.plan(&m, 1.0).unwrap();
        let mut corr = mdp_math::linalg::Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    corr[(i, j)] = 0.45;
                }
            }
        }
        let deltas = [
            MarketDelta::Spot {
                asset: 1,
                spot: 112.0,
            },
            MarketDelta::Vol {
                asset: 0,
                vol: 0.32,
            },
            MarketDelta::Rate { rate: 0.055 },
            MarketDelta::Correlation { correlation: corr },
            MarketDelta::Spot {
                asset: 0,
                spot: 93.0,
            },
        ];
        for delta in &deltas {
            let outcome = ticked.apply_tick(delta).unwrap();
            assert!(!outcome.rebuilt(), "MC ticks are always patches");
            let fresh = eng.plan(ticked.market(), 1.0).unwrap();
            let a = ticked.execute(&p, false).unwrap();
            let b = fresh.execute(&p, false).unwrap();
            assert_eq!(a.price.to_bits(), b.price.to_bits(), "{delta:?}");
            assert_eq!(a.std_error.to_bits(), b.std_error.to_bits());
        }
    }

    #[test]
    fn cube_bitwise_equals_per_scenario_ticked_plans() {
        let m = GbmMarket::symmetric(3, 100.0, 0.25, 0.01, 0.04, 0.3).unwrap();
        let products = vec![
            Product::european(Payoff::MaxCall { strike: 105.0 }, 1.0),
            Product::european(
                Payoff::BasketCall {
                    weights: Product::equal_weights(3),
                    strike: 100.0,
                },
                1.0,
            ),
            Product::european(Payoff::MinPut { strike: 95.0 }, 1.0),
        ];
        let eng = McEngine::new(McConfig {
            paths: 8_000,
            block_size: 1000,
            ..Default::default()
        });
        let plan = eng.plan(&m, 1.0).unwrap();
        let scenarios = vec![
            m.with_spot(0, 101.0).unwrap(),
            m.with_vol(1, 0.31).unwrap(),
            m.with_rate(0.05).unwrap(),
            m.clone(),
        ];
        for parallel in [false, true] {
            let cube = plan.execute_cube(&products, &scenarios, parallel).unwrap();
            assert_eq!(cube.len(), scenarios.len());
            for (scen, row) in scenarios.iter().zip(&cube) {
                // Per-product runs, not `execute_multi`: that is the
                // one-scenario cube itself.
                let naive = eng.plan(scen, 1.0).unwrap();
                for (a, p) in row.iter().zip(&products) {
                    let b = naive.execute(p, false).unwrap();
                    assert_eq!(a.price.to_bits(), b.price.to_bits());
                    assert_eq!(a.std_error.to_bits(), b.std_error.to_bits());
                    assert_eq!(a.paths, b.paths);
                }
            }
        }
    }

    #[test]
    fn cube_rejects_correlation_scenarios() {
        let m = GbmMarket::symmetric(2, 100.0, 0.25, 0.0, 0.04, 0.3).unwrap();
        let p = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
        let plan = McEngine::new(McConfig {
            paths: 2_000,
            ..Default::default()
        })
        .plan(&m, 1.0)
        .unwrap();
        let twisted = GbmMarket::symmetric(2, 100.0, 0.25, 0.0, 0.04, 0.7).unwrap();
        let err = plan
            .execute_cube(std::slice::from_ref(&p), &[twisted], false)
            .unwrap_err();
        assert!(matches!(err, McError::Unsupported(_)), "{err}");
    }
}
