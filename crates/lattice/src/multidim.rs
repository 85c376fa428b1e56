//! The Boyle–Evnine–Gibbs (BEG, 1989) multidimensional recombining
//! lattice.
//!
//! Every asset moves up or down by `uᵢ = e^{σᵢ√Δt}` each step, giving
//! `2^d` joint branches with probabilities
//!
//! ```text
//! p_δ = 2^{−d} ( 1 + Σ_{i<j} δᵢδⱼ ρᵢⱼ + √Δt · Σᵢ δᵢ μᵢ/σᵢ ),
//! μᵢ = r − qᵢ − σᵢ²/2,   δᵢ ∈ {−1, +1}
//! ```
//!
//! which match the first two joint moments of the log-returns. The grid
//! at step `n` has `(n+1)^d` nodes (asset `i`'s state is its up-move count
//! `jᵢ ∈ 0..=n`), laid out row-major with **axis 0 outermost** — that is
//! the axis the parallel engines decompose.
//!
//! A single slab kernel ([`StepCtx::compute_slab`]) computes one axis-0
//! row of step `n` from two consecutive axis-0 rows of step `n+1`. The
//! sequential driver, the rayon driver and the message-passing driver
//! (in [`crate::cluster`]) all call exactly this kernel, so the parallel
//! engines are bit-identical to the sequential baseline by construction.
//!
//! # Run-contiguous layout invariant
//!
//! Grids are row-major with **axis 0 outermost** and **axis `d−1`
//! innermost at stride 1** — in both the current grid and the next. For
//! fixed outer indices `(j₀..j_{d−2})` the innermost axis is therefore a
//! contiguous *run* of `step+1` values whose `2^d` children are `2^d`
//! contiguous runs of the next grid (the innermost branch bit only
//! shifts a run's start by one). [`StepCtx::compute_slab`] exploits
//! this: instead of an odometer and `2^d` gathers per node, it performs
//! `2^d` AXPY-style passes over whole runs, which the compiler
//! vectorizes under the workspace's `target-cpu=x86-64-v3` pin. Every
//! node still accumulates its branches in exactly the same order as the
//! retained scalar oracle ([`StepCtx::compute_slab_scalar`]), so the
//! blocked kernel is bitwise identical to it — the same
//! equality-by-construction discipline the batched MC kernel follows.

// The slab kernels walk several strided arrays in lockstep; index loops
// are the clear form here.
#![allow(clippy::needless_range_loop)]

use crate::LatticeError;
use mdp_model::{ExerciseStyle, GbmMarket, MarketDelta, Product, TickOutcome};
use rayon::prelude::*;
use std::cell::RefCell;

/// Default cap on the final-step grid size.
pub const DEFAULT_NODE_BUDGET: u128 = 200_000_000;

/// A configured BEG multidimensional lattice pricer.
///
/// ```
/// use mdp_lattice::MultiLattice;
/// use mdp_model::{GbmMarket, Payoff, Product};
///
/// let market = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.5).unwrap();
/// let product = Product::american(Payoff::MinPut { strike: 110.0 }, 1.0);
/// let r = MultiLattice::new(64).price(&market, &product).unwrap();
/// assert!(r.price >= 10.0); // at least intrinsic
/// ```
#[derive(Debug, Clone)]
pub struct MultiLattice {
    /// Number of time steps N.
    pub steps: usize,
    /// Refuse grids whose final step exceeds this many nodes.
    pub node_budget: u128,
}

/// Outcome of a multidimensional lattice pricing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiLatticeResult {
    /// Present value.
    pub price: f64,
    /// Node updates performed across all steps (terminal evaluation
    /// counts as one update per node).
    pub nodes_processed: u64,
    /// Branch evaluations (`2^d` per interior node update) — the unit of
    /// compute-work the virtual-time model is calibrated in.
    pub branch_evals: u64,
}

/// Per-step context shared by all drivers. It borrows everything from a
/// [`LatticePlan`] ([`LatticePlan::step_ctx`]): the probabilities and
/// discount, and the step's index geometry and spot ladders, so taking
/// one costs no allocation.
pub struct StepCtx<'a> {
    /// Current step n (grid has `(n+1)^d` nodes).
    pub step: usize,
    dim: usize,
    disc: f64,
    probs: &'a [f64],
    /// See [`StepShape::branch_starts`].
    branch_starts: &'a [usize],
    /// See [`StepShape::inner_strides`].
    inner_strides: &'a [usize],
    /// Nodes per axis-0 row of the current grid.
    row_cur: usize,
    /// Nodes per axis-0 row of the next grid.
    pub row_next: usize,
    /// Per-axis spot ladders at this step: `spots[i][jᵢ]`.
    spot_tables: &'a [Vec<f64>],
    product: &'a Product,
    american: bool,
}

/// Index geometry of one step of a d-asset lattice; it depends on the
/// dimension and the step only.
#[derive(Debug, Clone)]
struct StepShape {
    /// Per-branch start offset into a two-row window of the next grid:
    /// `up0·row_next + off`, where `up0` says whether the branch moves
    /// axis 0 up and `off` is the child's offset in the next grid's
    /// inner (axes ≥ 1) index space — the base every run adds its outer
    /// offset to. Precomputed so the run loop carries no per-branch
    /// arithmetic.
    branch_starts: Vec<usize>,
    /// Inner strides of the next grid: axis `k ≥ 1` has stride
    /// `(step+2)^{d−1−k}`, stored at `inner_strides[k−1]` (innermost is
    /// stride 1 — the run axis).
    inner_strides: Vec<usize>,
    /// Nodes per axis-0 row of the current grid.
    row_cur: usize,
    /// Nodes per axis-0 row of the next grid.
    row_next: usize,
}

impl StepShape {
    fn new(d: usize, step: usize) -> Self {
        // The next grid has step+2 points per axis, axis 0 outermost.
        let next_pts = step + 2;
        let mut inner_strides = vec![1usize; d - 1];
        for k in (0..d.saturating_sub(2)).rev() {
            inner_strides[k] = inner_strides[k + 1] * next_pts;
        }
        let row_next = inner_strides.first().map_or(1, |s| s * next_pts);
        let branch_starts = (0..1usize << d)
            .map(|m| {
                let up0 = (m >> (d - 1)) & 1; // axis 0 uses the top bit
                let mut off = 0usize;
                for i in 1..d {
                    let bit = (m >> (d - 1 - i)) & 1;
                    off += bit * inner_strides[i - 1];
                }
                up0 * row_next + off
            })
            .collect();
        StepShape {
            branch_starts,
            inner_strides,
            row_cur: (step + 1).pow((d - 1) as u32),
            row_next,
        }
    }
}

/// Reusable per-worker workspace for the slab kernels: the outer-axis
/// odometer and the spot vector, hoisted out of the per-slab hot path so
/// a driver allocates them once instead of once per slab.
#[derive(Debug, Default, Clone)]
pub struct StepScratch {
    /// Odometer over the middle axes `1..=d−2` (the run axis `d−1` and
    /// the slab axis 0 are not part of it).
    idx: Vec<usize>,
    /// Spot vector handed to the payoff; axis `d−1` is rewritten per
    /// node from the innermost spot ladder.
    spot: Vec<f64>,
}

impl StepScratch {
    /// An empty workspace; sized on first use.
    pub fn new() -> Self {
        StepScratch::default()
    }

    /// Size for dimension `d` and reset the odometer.
    fn prepare(&mut self, d: usize) {
        self.idx.clear();
        self.idx.resize(d.saturating_sub(2), 0);
        self.spot.resize(d, 0.0);
    }
}

thread_local! {
    /// Per-thread scratch for the rayon driver (the shimmed rayon has no
    /// `for_each_init`, and scoped workers are fresh threads per step, so
    /// this amortises allocations across the slabs of one step).
    static TLS_SCRATCH: RefCell<StepScratch> = RefCell::new(StepScratch::new());
}

/// Per-axis spot ladders at one step: `ladders[i][jᵢ] = s0ᵢ·e^{σᵢ√Δt(2jᵢ−n)}`.
/// A [`LatticePlan`] computes every step's ladders once and shares them
/// across executes and ranks (the tables depend on the market and
/// horizon, never the payoff).
fn spot_ladders(market: &GbmMarket, maturity: f64, steps: usize, step: usize) -> Vec<Vec<f64>> {
    let dt = maturity / steps as f64;
    let sqdt = dt.sqrt();
    (0..market.dim())
        .map(|i| {
            let s0 = market.spots()[i];
            let sig = market.vols()[i];
            (0..=step)
                .map(|j| s0 * (sig * sqdt * (2.0 * j as f64 - step as f64)).exp())
                .collect()
        })
        .collect()
}

impl StepCtx<'_> {
    /// Nodes per axis-0 row of the current grid.
    pub fn row_cur(&self) -> usize {
        self.row_cur
    }

    /// Walk the axis-0 row `j0` of the current grid as innermost-axis
    /// runs, calling `f(run, base, spot, inner_spots)` for each run:
    ///
    /// * `run` — the run's contiguous slice of `out` (length `step+1`,
    ///   or 1 when `d == 1`);
    /// * `base` — flat offset of the run's first child in the next
    ///   grid's inner index space (add a [`Self::branch_starts`] entry
    ///   to address one branch's children inside a two-row window);
    /// * `spot` — the spot vector with axes `0..d−1` set; the callee
    ///   writes axis `d−1` per node from
    /// * `inner_spots` — the innermost spot ladder aligned with `run`.
    ///
    /// Both the backward-induction kernel and the terminal evaluation
    /// iterate spots through this single walker, so the layout invariant
    /// lives in exactly one place.
    fn for_each_run<F>(&self, j0: usize, out: &mut [f64], scratch: &mut StepScratch, mut f: F)
    where
        F: FnMut(&mut [f64], usize, &mut [f64], &[f64]),
    {
        debug_assert_eq!(out.len(), self.row_cur);
        let d = self.dim;
        let pts = self.step + 1; // points per inner axis in current grid
        let (run_len, inner_spots): (usize, &[f64]) = if d == 1 {
            // No inner axes: the slab is a single node and the "run
            // spot" is axis 0 itself at this slab's index.
            (1, &self.spot_tables[0][j0..=j0])
        } else {
            (pts, &self.spot_tables[d - 1][..pts])
        };
        scratch.prepare(d);
        let StepScratch { idx, spot } = scratch;
        spot[0] = self.spot_tables[0][j0];
        for k in 1..d.saturating_sub(1) {
            spot[k] = self.spot_tables[k][0];
        }
        // `base` advances incrementally with the middle-axis odometer.
        let mut base = 0usize;
        for run in out.chunks_mut(run_len) {
            f(run, base, spot, inner_spots);
            for k in (0..idx.len()).rev() {
                idx[k] += 1;
                if idx[k] < pts {
                    base += self.inner_strides[k];
                    spot[k + 1] = self.spot_tables[k + 1][idx[k]];
                    break;
                }
                idx[k] = 0;
                base -= (pts - 1) * self.inner_strides[k];
                spot[k + 1] = self.spot_tables[k + 1][0];
            }
        }
    }

    /// Compute one axis-0 row `j0` of the current grid (the blocked,
    /// run-contiguous kernel every driver uses).
    ///
    /// `next_two_rows` must hold rows `j0` and `j0+1` of the next grid
    /// concatenated (`2·row_next` values); `out` receives `row_cur`
    /// values. Bitwise identical to [`Self::compute_slab_scalar`]: each
    /// node accumulates its `2^d` branches in the same order, only
    /// restructured into contiguous per-branch passes over whole runs.
    pub fn compute_slab(
        &self,
        j0: usize,
        next_two_rows: &[f64],
        out: &mut [f64],
        scratch: &mut StepScratch,
    ) {
        debug_assert_eq!(next_two_rows.len(), 2 * self.row_next);
        if self.dim == 1 {
            // Degenerate runs of one node: the blocked per-branch passes
            // only add memory traffic over the register-resident scalar
            // walk (a measured ~0.9× at d=1), so dispatch to the oracle —
            // the same arithmetic, hence the same bits.
            return self.compute_slab_scalar(j0, next_two_rows, out);
        }
        self.for_each_run(j0, out, scratch, |run, base, spot, inner_spots| {
            run.fill(0.0);
            for (p, start) in self.probs.iter().zip(self.branch_starts) {
                let src = &next_two_rows[start + base..][..run.len()];
                for (o, s) in run.iter_mut().zip(src) {
                    *o += p * s;
                }
            }
            let last = spot.len() - 1;
            if self.american {
                for (o, s_in) in run.iter_mut().zip(inner_spots) {
                    spot[last] = *s_in;
                    *o = (self.disc * *o).max(self.product.payoff.eval(spot));
                }
            } else {
                for o in run.iter_mut() {
                    *o *= self.disc;
                }
            }
        });
    }

    /// The scalar per-node oracle the blocked kernel is validated and
    /// benchmarked against: an odometer walk with `2^d` gathers per
    /// node, exactly the pre-blocking implementation. Retained for the
    /// equivalence tests and the t4b kernel experiment; drivers use
    /// [`Self::compute_slab`].
    pub fn compute_slab_scalar(&self, j0: usize, next_two_rows: &[f64], out: &mut [f64]) {
        debug_assert_eq!(next_two_rows.len(), 2 * self.row_next);
        debug_assert_eq!(out.len(), self.row_cur);
        let d = self.dim;
        let pts = self.step + 1; // points per inner axis in current grid
                                 // Odometer over the inner axes; `base` tracks the flat index of
                                 // the (j1..j_{d-1}) corner in the next grid's inner space.
        let mut idx = vec![0usize; d.saturating_sub(1)];
        let mut spot = vec![0.0; d];
        spot[0] = self.spot_tables[0][j0];
        for s in 1..d {
            spot[s] = self.spot_tables[s][0];
        }
        for o in out.iter_mut() {
            let base: usize = idx.iter().zip(self.inner_strides).map(|(j, s)| j * s).sum();
            let mut acc = 0.0;
            for (p, start) in self.probs.iter().zip(self.branch_starts) {
                acc += p * next_two_rows[start + base];
            }
            let mut v = self.disc * acc;
            if self.american {
                v = v.max(self.product.payoff.eval(&spot));
            }
            *o = v;
            // Advance the odometer (innermost axis fastest).
            for k in (0..idx.len()).rev() {
                idx[k] += 1;
                if idx[k] < pts {
                    spot[k + 1] = self.spot_tables[k + 1][idx[k]];
                    break;
                }
                idx[k] = 0;
                spot[k + 1] = self.spot_tables[k + 1][0];
            }
        }
    }

    /// Evaluate the terminal payoff layer for axis-0 row `j0` (used at
    /// step N where there is no continuation value). Shares the
    /// run-contiguous spot iteration with [`Self::compute_slab`].
    pub fn eval_terminal_slab(&self, j0: usize, out: &mut [f64], scratch: &mut StepScratch) {
        self.for_each_run(j0, out, scratch, |run, _base, spot, inner_spots| {
            let last = spot.len() - 1;
            for (o, s_in) in run.iter_mut().zip(inner_spots) {
                spot[last] = *s_in;
                *o = self.product.payoff.eval(spot);
            }
        });
    }
}

/// BEG branch probabilities for a market and time step; validated to lie
/// in `[0, 1]`.
pub fn branch_probabilities(market: &GbmMarket, dt: f64) -> Result<Vec<f64>, LatticeError> {
    let d = market.dim();
    let sqdt = dt.sqrt();
    let corr = market.correlation();
    let mut probs = Vec::with_capacity(1 << d);
    for m in 0..1usize << d {
        // δᵢ from bit (d-1-i): axis 0 is the top bit, matching StepCtx.
        let delta = |i: usize| -> f64 {
            if (m >> (d - 1 - i)) & 1 == 1 {
                1.0
            } else {
                -1.0
            }
        };
        let mut s = 1.0;
        for i in 0..d {
            for j in (i + 1)..d {
                s += delta(i) * delta(j) * corr[(i, j)];
            }
            s += sqdt * delta(i) * market.log_drift(i) / market.vols()[i];
        }
        let p = s / (1 << d) as f64;
        if !(0.0..=1.0).contains(&p) {
            return Err(LatticeError::NegativeProbability { prob: p, branch: m });
        }
        probs.push(p);
    }
    Ok(probs)
}

impl MultiLattice {
    /// Lattice with `steps` steps and the default node budget.
    pub fn new(steps: usize) -> Self {
        MultiLattice {
            steps,
            node_budget: DEFAULT_NODE_BUDGET,
        }
    }

    /// Total node count of an N-step, d-asset lattice:
    /// `Σ_{n=0}^{N} (n+1)^d`.
    pub fn total_nodes(steps: usize, dim: usize) -> u128 {
        (0..=steps as u128).map(|n| (n + 1).pow(dim as u32)).sum()
    }

    /// Build the payoff-independent plan for this lattice on a market
    /// with horizon `maturity`: branch probabilities, per-step discount
    /// and every step's spot ladders and index geometry, computed once
    /// and shared by all executes (and by every rank of a cluster run).
    pub fn plan(&self, market: &GbmMarket, maturity: f64) -> Result<LatticePlan, LatticeError> {
        if self.steps == 0 {
            return Err(LatticeError::ZeroSteps);
        }
        let final_nodes = ((self.steps + 1) as u128).pow(market.dim() as u32);
        if final_nodes > self.node_budget {
            return Err(LatticeError::TooManyNodes {
                nodes: final_nodes,
                budget: self.node_budget,
            });
        }
        if !maturity.is_finite() || maturity <= 0.0 {
            return Err(LatticeError::Model(
                mdp_model::ModelError::InvalidParameter {
                    what: "maturity",
                    value: maturity,
                },
            ));
        }
        let dt = maturity / self.steps as f64;
        let probs = branch_probabilities(market, dt)?;
        let disc = (-market.rate() * dt).exp();
        let ladders = (0..=self.steps)
            .map(|step| spot_ladders(market, maturity, self.steps, step))
            .collect();
        let shapes = (0..=self.steps)
            .map(|step| StepShape::new(market.dim(), step))
            .collect();
        Ok(LatticePlan {
            lat: self.clone(),
            market: market.clone(),
            maturity,
            probs,
            disc,
            ladders,
            shapes,
            cancel: mdp_math::CancelToken::never(),
        })
    }

    /// Sequential backward induction.
    pub fn price(
        &self,
        market: &GbmMarket,
        product: &Product,
    ) -> Result<MultiLatticeResult, LatticeError> {
        self.run(market, product, false)
    }

    /// Shared-memory parallel backward induction (rayon), parallelising
    /// over axis-0 slabs within each time step. Bit-identical to
    /// [`MultiLattice::price`].
    pub fn price_rayon(
        &self,
        market: &GbmMarket,
        product: &Product,
    ) -> Result<MultiLatticeResult, LatticeError> {
        self.run(market, product, true)
    }

    fn run(
        &self,
        market: &GbmMarket,
        product: &Product,
        parallel: bool,
    ) -> Result<MultiLatticeResult, LatticeError> {
        product.validate_for(market)?;
        if product.payoff.is_path_dependent() {
            return Err(LatticeError::Model(mdp_model::ModelError::Unsupported {
                engine: "BEG lattice",
                why: "path-dependent payoff".into(),
            }));
        }
        let plan = self.plan(market, product.maturity)?;
        plan.execute(product, parallel, &mut LatticeScratch::default())
    }
}

/// Planned state of a BEG lattice run: branch probabilities, per-step
/// discount factor, and every step's spot ladders and index geometry —
/// all independent of the payoff. Build once with [`MultiLattice::plan`], execute per
/// product with [`LatticePlan::execute`]; results are bitwise-identical
/// to the one-shot [`MultiLattice::price`] /
/// [`MultiLattice::price_rayon`].
#[derive(Debug, Clone)]
pub struct LatticePlan {
    lat: MultiLattice,
    market: GbmMarket,
    maturity: f64,
    probs: Vec<f64>,
    disc: f64,
    /// `ladders[step][axis][jᵢ]` — per-step spot ladders.
    ladders: Vec<Vec<Vec<f64>>>,
    /// `shapes[step]` — per-step index geometry (no tick changes it).
    shapes: Vec<StepShape>,
    /// Cooperative cancellation, polled once per time step. Inert by
    /// default; the serving layer installs a live token per request.
    cancel: mdp_math::CancelToken,
}

/// Reusable buffers for [`LatticePlan::execute`]: the two ping-pong grid
/// layers and the per-slab odometer/spot workspace.
#[derive(Debug, Default, Clone)]
pub struct LatticeScratch {
    values: Vec<f64>,
    spare: Vec<f64>,
    step: StepScratch,
}

impl LatticePlan {
    /// Horizon the plan was built for.
    pub fn maturity(&self) -> f64 {
        self.maturity
    }

    /// Steps of the underlying lattice.
    pub fn steps(&self) -> usize {
        self.lat.steps
    }

    /// Install a cooperative cancel token, polled once per backward
    /// time step; a tripped token aborts the run with
    /// [`LatticeError::Cancelled`]. Runs that complete are
    /// bitwise-identical to runs without a token.
    pub fn set_cancel(&mut self, cancel: mdp_math::CancelToken) {
        self.cancel = cancel;
    }

    /// The market snapshot the plan currently prices on (kept in sync
    /// by [`LatticePlan::apply_tick`]).
    pub fn market(&self) -> &GbmMarket {
        &self.market
    }

    /// Absorb one market tick, rebuilding only the invalidated tables:
    ///
    /// * **Spot** — the branch probabilities (drift/vol/correlation
    ///   only) and the per-step discount survive; only the spot ladders
    ///   are recomputed.
    /// * **Vol** — probabilities and ladders are rebuilt; the discount
    ///   survives.
    /// * **Rate** — probabilities and the discount are rebuilt; the
    ///   ladders survive.
    /// * **Correlation** — only the probabilities are rebuilt.
    ///
    /// Each rebuilt table goes through the same arithmetic as
    /// [`MultiLattice::plan`], so the patched plan is bitwise-equal to
    /// a fresh plan on the ticked market. A tick that drives a branch
    /// probability out of `[0, 1]` fails without modifying the plan.
    pub fn apply_tick(&mut self, delta: &MarketDelta) -> Result<TickOutcome, LatticeError> {
        let market = self
            .market
            .apply_delta(delta)
            .map_err(LatticeError::Model)?;
        let dt = self.maturity / self.lat.steps as f64;
        match delta {
            MarketDelta::Spot { .. } => {
                self.ladders = (0..=self.lat.steps)
                    .map(|step| spot_ladders(&market, self.maturity, self.lat.steps, step))
                    .collect();
            }
            MarketDelta::Vol { .. } => {
                let probs = branch_probabilities(&market, dt)?;
                self.ladders = (0..=self.lat.steps)
                    .map(|step| spot_ladders(&market, self.maturity, self.lat.steps, step))
                    .collect();
                self.probs = probs;
            }
            MarketDelta::Rate { .. } => {
                self.probs = branch_probabilities(&market, dt)?;
                self.disc = (-market.rate() * dt).exp();
            }
            MarketDelta::Correlation { .. } => {
                self.probs = branch_probabilities(&market, dt)?;
            }
        }
        self.market = market;
        Ok(TickOutcome::Patched)
    }

    /// The context of step `step` for `product`, borrowing the plan's
    /// branch probabilities, discount and that step's geometry and spot
    /// ladders. The product must fit the plan's market, as
    /// [`LatticePlan::execute`] checks.
    pub fn step_ctx<'a>(&'a self, product: &'a Product, step: usize) -> StepCtx<'a> {
        let shape = &self.shapes[step];
        StepCtx {
            step,
            dim: self.market.dim(),
            disc: self.disc,
            probs: &self.probs,
            branch_starts: &shape.branch_starts,
            inner_strides: &shape.inner_strides,
            row_cur: shape.row_cur,
            row_next: shape.row_next,
            spot_tables: &self.ladders[step],
            product,
            american: product.exercise == ExerciseStyle::American,
        }
    }

    /// Run planned backward induction for one product. Bitwise-identical
    /// to the corresponding one-shot price on the same inputs.
    pub fn execute(
        &self,
        product: &Product,
        parallel: bool,
        scratch: &mut LatticeScratch,
    ) -> Result<MultiLatticeResult, LatticeError> {
        product.validate_for(&self.market)?;
        if product.payoff.is_path_dependent() {
            return Err(LatticeError::Model(mdp_model::ModelError::Unsupported {
                engine: "BEG lattice",
                why: "path-dependent payoff".into(),
            }));
        }
        if product.maturity != self.maturity {
            return Err(LatticeError::Model(mdp_model::ModelError::Unsupported {
                engine: "BEG lattice",
                why: format!(
                    "plan built for maturity {}, product has {}",
                    self.maturity, product.maturity
                ),
            }));
        }
        let d = self.market.dim();
        let n = self.lat.steps;

        // Two ping-pong grid buffers sized once at the two largest
        // layers (terminal (n+1)^d and its predecessor n^d); every step
        // writes into a prefix of the spare buffer and swaps.
        let term_ctx = self.step_ctx(product, n);
        let term_row = term_ctx.row_cur();
        let LatticeScratch {
            values,
            spare,
            step: step_scratch,
        } = scratch;
        values.clear();
        values.resize((n + 1) * term_row, 0.0);
        spare.clear();
        spare.resize((n as u128).pow(d as u32) as usize, 0.0);
        if parallel {
            values
                .par_chunks_mut(term_row)
                .enumerate()
                .for_each(|(j0, out)| {
                    TLS_SCRATCH.with(|s| term_ctx.eval_terminal_slab(j0, out, &mut s.borrow_mut()))
                });
        } else {
            for (j0, out) in values.chunks_mut(term_row).enumerate() {
                term_ctx.eval_terminal_slab(j0, out, step_scratch);
            }
        }
        let mut nodes = (values.len()) as u64;
        let mut branches = 0u64;

        for step in (0..n).rev() {
            if self.cancel.is_cancelled() {
                return Err(LatticeError::Cancelled);
            }
            let ctx = self.step_ctx(product, step);
            let row_cur = ctx.row_cur();
            let row_next = ctx.row_next;
            let len = (step + 1) * row_cur;
            let new_values = &mut spare[..len];
            if parallel {
                let values_ref = &*values;
                new_values
                    .par_chunks_mut(row_cur)
                    .enumerate()
                    .for_each(|(j0, out)| {
                        let next = &values_ref[j0 * row_next..(j0 + 2) * row_next];
                        TLS_SCRATCH.with(|s| ctx.compute_slab(j0, next, out, &mut s.borrow_mut()))
                    });
            } else {
                for (j0, out) in new_values.chunks_mut(row_cur).enumerate() {
                    let next = &values[j0 * row_next..(j0 + 2) * row_next];
                    ctx.compute_slab(j0, next, out, step_scratch);
                }
            }
            nodes += len as u64;
            branches += len as u64 * (1u64 << d);
            std::mem::swap(values, spare);
        }
        Ok(MultiLatticeResult {
            price: values[0],
            nodes_processed: nodes,
            branch_evals: branches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdp_math::approx_eq;
    use mdp_model::analytic;
    use mdp_model::Payoff;

    fn call1(strike: f64) -> Product {
        Product::european(
            Payoff::BasketCall {
                weights: vec![1.0],
                strike,
            },
            1.0,
        )
    }

    #[test]
    fn probabilities_sum_to_one() {
        for d in 1..=4 {
            let m = GbmMarket::symmetric(d, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
            let probs = branch_probabilities(&m, 0.01).unwrap();
            assert_eq!(probs.len(), 1 << d);
            let s: f64 = probs.iter().sum();
            assert!(approx_eq(s, 1.0, 1e-12), "d={d}: {s}");
        }
    }

    #[test]
    fn apply_tick_bitwise_equals_fresh_plan() {
        let lat = MultiLattice::new(40);
        let m0 = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
        let p = Product::american(Payoff::MaxCall { strike: 100.0 }, 1.0);
        let mut corr = mdp_math::linalg::Matrix::identity(2);
        corr[(0, 1)] = 0.1;
        corr[(1, 0)] = 0.1;
        let ticks = [
            MarketDelta::Spot {
                asset: 0,
                spot: 102.5,
            },
            MarketDelta::Rate { rate: 0.04 },
            MarketDelta::Vol {
                asset: 1,
                vol: 0.25,
            },
            MarketDelta::Correlation { correlation: corr },
        ];
        let mut ticked = lat.plan(&m0, 1.0).unwrap();
        let mut mk = m0;
        for delta in &ticks {
            assert_eq!(ticked.apply_tick(delta).unwrap(), TickOutcome::Patched);
            mk = mk.apply_delta(delta).unwrap();
            let fresh = lat.plan(&mk, 1.0).unwrap();
            let pt = ticked
                .execute(&p, false, &mut LatticeScratch::default())
                .unwrap();
            let pf = fresh
                .execute(&p, false, &mut LatticeScratch::default())
                .unwrap();
            assert_eq!(pt.price.to_bits(), pf.price.to_bits(), "{delta:?}");
        }
    }

    #[test]
    fn one_dimension_matches_crr_shape() {
        // BEG with d=1 is a drift-in-probability binomial lattice; it must
        // converge to the same Black–Scholes limit.
        let m = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
        let exact = analytic::black_scholes_call(100.0, 100.0, 0.05, 0.0, 0.2, 1.0);
        let r = MultiLattice::new(1000).price(&m, &call1(100.0)).unwrap();
        assert!(approx_eq(r.price, exact, 2e-3), "{} vs {exact}", r.price);
    }

    #[test]
    fn two_assets_geometric_converges_to_closed_form() {
        let m = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.5).unwrap();
        let p = Product::european(Payoff::GeometricCall { strike: 100.0 }, 1.0);
        let exact = analytic::geometric_basket_call(&m, &[0.5, 0.5], 100.0, 1.0);
        let mut prev = f64::INFINITY;
        for n in [25usize, 50, 100, 200] {
            let r = MultiLattice::new(n).price(&m, &p).unwrap();
            let err = (r.price - exact).abs();
            assert!(err < prev * 1.05, "n={n}: {err} vs prev {prev}");
            prev = err;
        }
        assert!(prev < 0.02, "error at n=200: {prev}");
    }

    #[test]
    fn two_assets_max_call_converges_to_stulz() {
        let m = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.5).unwrap();
        let p = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
        let exact =
            analytic::max_call_two_assets(100.0, 0.0, 0.2, 100.0, 0.0, 0.2, 0.5, 0.05, 100.0, 1.0);
        let r = MultiLattice::new(150).price(&m, &p).unwrap();
        assert!(approx_eq(r.price, exact, 5e-3), "{} vs {exact}", r.price);
    }

    #[test]
    fn two_assets_exchange_converges_to_margrabe() {
        let m = GbmMarket::symmetric(2, 100.0, 0.25, 0.0, 0.05, 0.3).unwrap();
        let p = Product::european(Payoff::Exchange, 1.0);
        let exact = analytic::margrabe_exchange(100.0, 0.0, 0.25, 100.0, 0.0, 0.25, 0.3, 1.0);
        let r = MultiLattice::new(128).price(&m, &p).unwrap();
        assert!(approx_eq(r.price, exact, 5e-3), "{} vs {exact}", r.price);
    }

    #[test]
    fn three_assets_geometric_converges() {
        let m = GbmMarket::symmetric(3, 100.0, 0.3, 0.0, 0.05, 0.25).unwrap();
        let p = Product::european(Payoff::GeometricCall { strike: 95.0 }, 1.0);
        let exact = analytic::geometric_basket_call(&m, &Product::equal_weights(3), 95.0, 1.0);
        let r = MultiLattice::new(60).price(&m, &p).unwrap();
        assert!(approx_eq(r.price, exact, 1e-2), "{} vs {exact}", r.price);
    }

    #[test]
    fn american_at_least_european() {
        let m = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
        let pay = Payoff::MinPut { strike: 110.0 };
        let lat = MultiLattice::new(64);
        let eu = lat
            .price(&m, &Product::european(pay.clone(), 1.0))
            .unwrap()
            .price;
        let am = lat.price(&m, &Product::american(pay, 1.0)).unwrap().price;
        assert!(am >= eu - 1e-12, "{am} vs {eu}");
        assert!(am >= 10.0 - 1e-12, "at least intrinsic");
    }

    /// Sweep every slab of one backward step with both kernels and
    /// demand bitwise-equal rows.
    fn assert_kernels_agree(d: usize, steps: usize, product: &Product) {
        let m = GbmMarket::symmetric(d, 100.0, 0.25, 0.01, 0.04, 0.2).unwrap();
        let plan = MultiLattice::new(steps).plan(&m, product.maturity).unwrap();
        let step = steps - 1; // largest interior step
        let next_ctx = plan.step_ctx(product, steps);
        let ctx = plan.step_ctx(product, step);
        let mut scratch = StepScratch::new();
        let row_next = ctx.row_next;
        let mut next = vec![0.0; (steps + 1) * row_next];
        for (j0, out) in next.chunks_mut(row_next).enumerate() {
            next_ctx.eval_terminal_slab(j0, out, &mut scratch);
        }
        let row_cur = ctx.row_cur();
        let mut blocked = vec![0.0; row_cur];
        let mut scalar = vec![0.0; row_cur];
        for j0 in 0..=step {
            let window = &next[j0 * row_next..(j0 + 2) * row_next];
            ctx.compute_slab(j0, window, &mut blocked, &mut scratch);
            ctx.compute_slab_scalar(j0, window, &mut scalar);
            for (k, (b, s)) in blocked.iter().zip(&scalar).enumerate() {
                assert_eq!(
                    b.to_bits(),
                    s.to_bits(),
                    "d={d} j0={j0} node {k}: {b} vs {s}"
                );
            }
        }
    }

    #[test]
    fn blocked_kernel_matches_scalar_oracle_european() {
        for (d, steps) in [(1usize, 9usize), (2, 8), (3, 6), (4, 5)] {
            assert_kernels_agree(
                d,
                steps,
                &Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0),
            );
        }
    }

    #[test]
    fn blocked_kernel_matches_scalar_oracle_american() {
        for (d, steps) in [(1usize, 9usize), (2, 8), (3, 6), (4, 5)] {
            assert_kernels_agree(
                d,
                steps,
                &Product::american(Payoff::MinPut { strike: 110.0 }, 1.0),
            );
        }
    }

    #[test]
    fn rayon_matches_sequential_bitwise() {
        let m = GbmMarket::symmetric(3, 100.0, 0.25, 0.01, 0.04, 0.3).unwrap();
        let p = Product::american(Payoff::MaxCall { strike: 100.0 }, 1.0);
        let lat = MultiLattice::new(24);
        let a = lat.price(&m, &p).unwrap();
        let b = lat.price_rayon(&m, &p).unwrap();
        assert_eq!(a.price.to_bits(), b.price.to_bits());
        assert_eq!(a.nodes_processed, b.nodes_processed);
    }

    #[test]
    fn node_counting() {
        // d=2, N=2: 1 + 4 + 9 = 14 nodes.
        assert_eq!(MultiLattice::total_nodes(2, 2), 14);
        let m = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
        let p = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
        let r = MultiLattice::new(2).price(&m, &p).unwrap();
        assert_eq!(r.nodes_processed, 14);
        assert_eq!(r.branch_evals, (1 + 4) * 4);
    }

    #[test]
    fn negative_probability_detected() {
        // Alternating-sign branches make Σδδρ = −2ρ for d=4; ρ=0.6 ⇒ −1.2.
        let m = GbmMarket::symmetric(4, 100.0, 0.2, 0.0, 0.05, 0.6).unwrap();
        let e = MultiLattice::new(16).price(
            &m,
            &Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0),
        );
        assert!(matches!(e, Err(LatticeError::NegativeProbability { .. })));
    }

    #[test]
    fn node_budget_enforced() {
        let m = GbmMarket::symmetric(4, 100.0, 0.2, 0.0, 0.05, 0.2).unwrap();
        let mut lat = MultiLattice::new(400);
        lat.node_budget = 1_000_000;
        let e = lat.price(
            &m,
            &Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0),
        );
        assert!(matches!(e, Err(LatticeError::TooManyNodes { .. })));
    }

    #[test]
    fn asian_rejected() {
        let m = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
        let e = MultiLattice::new(8).price(
            &m,
            &Product::european(Payoff::AsianCall { strike: 100.0 }, 1.0),
        );
        assert!(matches!(e, Err(LatticeError::Model(_))));
    }

    #[test]
    fn plan_execute_bitwise_matches_one_shot() {
        let m = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
        let lat = MultiLattice::new(24);
        let plan = lat.plan(&m, 1.0).unwrap();
        let mut scratch = LatticeScratch::default();
        for p in [
            Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0),
            Product::american(Payoff::MinPut { strike: 110.0 }, 1.0),
        ] {
            let one_shot = lat.price(&m, &p).unwrap();
            for parallel in [false, true] {
                let a = plan.execute(&p, parallel, &mut scratch).unwrap();
                let b = plan.execute(&p, parallel, &mut scratch).unwrap();
                assert_eq!(a.price.to_bits(), one_shot.price.to_bits());
                assert_eq!(b.price.to_bits(), one_shot.price.to_bits());
                assert_eq!(a.nodes_processed, one_shot.nodes_processed);
                assert_eq!(a.branch_evals, one_shot.branch_evals);
            }
        }
        let short = Product::european(Payoff::MaxCall { strike: 100.0 }, 0.5);
        assert!(plan.execute(&short, false, &mut scratch).is_err());
    }

    #[test]
    fn price_decreases_in_strike() {
        let m = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.5).unwrap();
        let lat = MultiLattice::new(40);
        let mut prev = f64::INFINITY;
        for k in [90.0, 100.0, 110.0, 120.0] {
            let p = Product::european(Payoff::MaxCall { strike: k }, 1.0);
            let v = lat.price(&m, &p).unwrap().price;
            assert!(v < prev, "k={k}: {v} !< {prev}");
            prev = v;
        }
    }
}
