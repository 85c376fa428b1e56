//! Longstaff–Schwartz least-squares Monte Carlo for American products.
//!
//! The American exercise decision needs the conditional expectation of
//! continuing, which LSMC approximates by regressing realised discounted
//! cashflows on basis functions of the current (normalised) asset
//! prices, using only in-the-money paths (Longstaff & Schwartz 2001).
//!
//! The regression is solved through the **normal equations**
//! `(XᵀX)β = Xᵀy` with a tiny ridge for safety. That choice is
//! deliberate: the normal-equation sums are small `k×k` matrices that
//! merge by addition, so the distributed driver
//! ([`crate::cluster_driver::price_lsmc_cluster`]) computes per-block
//! sums, folds them in block order, and solves the same tiny system on
//! every rank — the classic parallel-LSMC structure in which the
//! regression is the *serial* fraction that Amdahl's law punishes
//! (experiment T7). Both drivers run the per-date loops of
//! [`SweepKernel`].

use crate::path::{walk_panel, GbmStepper, SoaPanel, PANEL};
use crate::McError;
use mdp_math::linalg::{Cholesky, Matrix};
use mdp_math::poly::{BasisKind, TensorBasis};
use mdp_math::rng::{NormalPolar, NormalSampler, Xoshiro256StarStar};
use mdp_model::{ExerciseStyle, GbmMarket, Payoff, Product};
use std::ops::Range;

/// Configuration of an LSMC run.
#[derive(Debug, Clone, Copy)]
pub struct LsmcConfig {
    /// Number of simulated paths.
    pub paths: u64,
    /// Exercise dates (uniform grid; the Bermudan approximation of the
    /// American right).
    pub steps: usize,
    /// RNG seed.
    pub seed: u64,
    /// Scalar basis degree per asset.
    pub degree: usize,
    /// Basis family.
    pub basis: BasisKind,
    /// Ridge added to the normal-equation diagonal.
    pub ridge: f64,
    /// Paths per substream block (same invariance story as the European
    /// engine).
    pub block_size: u64,
}

impl Default for LsmcConfig {
    fn default() -> Self {
        LsmcConfig {
            paths: 20_000,
            steps: 50,
            seed: 0x1005E,
            degree: 2,
            basis: BasisKind::Monomial,
            ridge: 1e-10,
            block_size: 4096,
        }
    }
}

/// Result of an LSMC run.
#[derive(Debug, Clone, Copy)]
pub struct LsmcResult {
    /// Price estimate: the in-sample estimate of plain LSMC, which
    /// regresses and exercises on the same paths (foresight bias can
    /// push it up, a sub-optimal exercise policy down).
    pub price: f64,
    /// Standard error of the cashflow mean.
    pub std_error: f64,
    /// Paths used.
    pub paths: u64,
}

/// The path panel LSMC regresses over: `spots[t][path·d..(path+1)·d]`
/// for `t ∈ 1..=steps`.
pub struct PathPanel {
    /// Asset count.
    pub dim: usize,
    /// Exercise dates.
    pub steps: usize,
    /// Paths.
    pub paths: usize,
    /// `steps` layers, each `paths·dim` values. The backward sweep
    /// takes each layer when it reaches the layer's date.
    pub spots: Vec<Vec<f64>>,
}

/// Simulate the full path panel (block-substream design, identical
/// panels across drivers for the same `(seed, block_size)`); `blocks`
/// selects which substream blocks to simulate — the sequential engine
/// passes all of them, a rank passes its share — and `streams` is the
/// run's table of block start states ([`block_streams`]).
///
/// Each block runs through [`SoaPanel`]s of up to [`PANEL`] paths, one
/// path per lane. A panel's normals come from one bulk
/// [`SoaPanel::fill_normals`], which draws its paths' `steps·d` normals
/// in turn, so a block draws the same variates however its paths are
/// batched. [`GbmStepper::step_panel`] performs [`GbmStepper::step`]'s
/// operations on every lane, and each spot is `f64::exp` of its
/// log-spot.
pub fn simulate_panel(
    market: &GbmMarket,
    product: &Product,
    cfg: &LsmcConfig,
    streams: &[Xoshiro256StarStar],
    blocks: Range<u64>,
) -> PathPanel {
    let d = market.dim();
    let stepper = GbmStepper::new(market, product.maturity, cfg.steps);
    let log0: Vec<f64> = market.spots().iter().map(|s| s.ln()).collect();
    let sizes = blocks.clone().map(|b| block_paths(cfg, b) as usize);
    let num_paths: usize = sizes.clone().sum();
    let widest = sizes.max().unwrap_or(0);
    let mut spots = vec![vec![0.0; num_paths * d]; cfg.steps];
    let mut sampler = NormalPolar::new();
    let mut panel = SoaPanel::new(&stepper, widest.clamp(1, PANEL));
    let mut first = 0usize; // the current panel's first path
    for b in blocks {
        let mut rng = streams[b as usize];
        sampler.reset();
        let block_end = first + block_paths(cfg, b) as usize;
        while first < block_end {
            let n = (block_end - first).min(panel.lanes());
            panel.fill_normals(&mut sampler, &mut rng, n);
            walk_panel(&stepper, &log0, &mut panel, n, |step, panel| {
                let layer = &mut spots[step][first * d..(first + n) * d];
                for i in 0..d {
                    let lanes = layer[i..].iter_mut().step_by(d);
                    for (s, l) in lanes.zip(panel.log_row(i)) {
                        *s = l.exp();
                    }
                }
            });
            first += n;
        }
    }
    PathPanel {
        dim: d,
        steps: cfg.steps,
        paths: num_paths,
        spots,
    }
}

/// Paths in substream block `b`.
pub fn block_paths(cfg: &LsmcConfig, b: u64) -> u64 {
    let lo = b * cfg.block_size;
    let hi = (lo + cfg.block_size).min(cfg.paths);
    hi.saturating_sub(lo)
}

/// Number of substream blocks.
pub fn num_blocks(cfg: &LsmcConfig) -> u64 {
    cfg.paths.div_ceil(cfg.block_size)
}

/// The start state of every block's RNG substream, built once per run
/// with one jump per block; entry `b` is
/// `Xoshiro256StarStar::seed_from(seed).substream(b)`.
pub fn block_streams(cfg: &LsmcConfig) -> Vec<Xoshiro256StarStar> {
    Xoshiro256StarStar::seed_from(cfg.seed).substreams(num_blocks(cfg))
}

/// Normal-equation sums for one exercise date: `XᵀX` (packed
/// row-major `k×k`) and `Xᵀy` (`k`), plus the ITM count. Merge by
/// addition — the cluster driver gathers one per block to the first
/// active rank, folds them there in global block order and broadcasts
/// the total.
///
/// `XᵀX` is symmetric, so only its upper triangle (`j ≥ i`) is
/// accumulated and the lower cells stay zero. A full accumulation would
/// add the same products in the same path order to cell `(j, i)`, and
/// `φᵢφⱼ = φⱼφᵢ` bitwise, so [`RegressionSums::solve`] mirrors the
/// triangle into exactly that symmetric matrix.
pub struct RegressionSums {
    /// Basis size k.
    pub k: usize,
    /// Packed `XᵀX`, upper triangle only.
    pub xtx: Vec<f64>,
    /// `Xᵀy`.
    pub xty: Vec<f64>,
    /// In-the-money path count.
    pub count: f64,
}

impl RegressionSums {
    /// Zeroed sums for basis size `k`.
    pub fn new(k: usize) -> Self {
        RegressionSums {
            k,
            xtx: vec![0.0; k * k],
            xty: vec![0.0; k],
            count: 0.0,
        }
    }

    /// Add one tile of `n` rows: column `j < k` of `cols`
    /// (`cols[j·stride..j·stride + n]`) holds basis function `j` at the
    /// rows, and column `k` their targets `y`.
    ///
    /// Each upper-triangle cell of `XᵀX` and each `Xᵀy` entry continues
    /// from its stored value and adds its products row by row, so tiles
    /// chain exactly as one rank-1 update per row would.
    ///
    /// # Panics
    /// Panics if `n > stride` or `cols` is shorter than `k + 1` columns.
    fn add_tile(&mut self, cols: &[f64], stride: usize, n: usize) {
        let k = self.k;
        assert!(n <= stride && cols.len() >= (k + 1) * stride);
        let col = |c: usize| &cols[c * stride..c * stride + n];
        for i in 0..k {
            // Cell (i, j) is XᵀX's for j < k and Xᵀy's entry i for j = k.
            for j in i..=k {
                let cell = if j < k {
                    &mut self.xtx[i * k + j]
                } else {
                    &mut self.xty[i]
                };
                let mut acc = *cell;
                for (a, b) in col(i).iter().zip(col(j)) {
                    acc += a * b;
                }
                *cell = acc;
            }
        }
        // Adding 1.0 per row is exact, so this is the per-row count.
        self.count += n as f64;
    }

    /// Flatten to `k·k + k + 1` values for message passing.
    pub fn to_vec(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.k * self.k + self.k + 1);
        v.extend_from_slice(&self.xtx);
        v.extend_from_slice(&self.xty);
        v.push(self.count);
        v
    }

    /// Rebuild from the flattened representation.
    pub fn from_slice(k: usize, v: &[f64]) -> Self {
        assert_eq!(v.len(), k * k + k + 1);
        RegressionSums {
            k,
            xtx: v[..k * k].to_vec(),
            xty: v[k * k..k * k + k].to_vec(),
            count: v[k * k + k],
        }
    }

    /// Solve `(XᵀX + ridge·I)β = Xᵀy`; `None` when there are too few
    /// ITM paths or the system is degenerate.
    pub fn solve(&self, ridge: f64) -> Option<Vec<f64>> {
        if self.count < 2.0 * self.k as f64 {
            return None;
        }
        let k = self.k;
        let mut a = Matrix::zeros(k, k);
        for i in 0..k {
            for j in 0..k {
                a[(i, j)] = self.xtx[i.min(j) * k + i.max(j)];
            }
            a[(i, i)] += ridge * (1.0 + self.xtx[i * k + i]);
        }
        let ch = Cholesky::factor(&a).ok()?;
        Some(ch.solve(&self.xty))
    }
}

/// Rows per tile of [`SweepKernel`]'s regression and exercise passes.
const TILE: usize = 32;

/// The per-date loops of the backward sweep, shared by the sequential
/// sweep ([`backward_sweep`]) and the cluster driver (which runs them
/// per substream block over its share of the panel). Cashflows are
/// valued at their exercise date `cf_time`, discounted on demand.
///
/// Each exercise date makes one pass over the paths:
/// [`SweepKernel::scan`] takes the date's spot layer, finds its
/// in-the-money paths and keeps each one's index, intrinsic value and
/// normalised spots `s/s0` (the spots in the layer's own buffer);
/// [`SweepKernel::regression_sums`] and [`SweepKernel::exercise`] read
/// only that cache, 32 rows at a time: they gather a tile's spots into
/// one column per asset, evaluate the basis one column per function
/// ([`TensorBasis::eval_columns`]) and run each sum over the tile's rows
/// in row order.
pub struct SweepKernel<'a> {
    payoff: &'a Payoff,
    spots0: &'a [f64],
    basis: TensorBasis,
    /// `disc_pow[n]` = `e^{−r·Δt}` to the power `n`, for `n ∈ 0..=steps`.
    disc_pow: Vec<f64>,
    /// The scanned date's in-the-money paths, ascending.
    itm: Vec<usize>,
    /// Their intrinsic values.
    intrinsic: Vec<f64>,
    /// Their normalised spots, `d` per path: the scanned layer,
    /// compacted in place.
    x: Vec<f64>,
    /// One tile's normalised spots, a column of [`TILE`] per asset.
    tile_x: Vec<f64>,
    /// One tile's basis values, a column of [`TILE`] per function, and
    /// one more column: the regression targets, or the fitted
    /// continuation values.
    tile_phi: Vec<f64>,
}

impl<'a> SweepKernel<'a> {
    /// The kernel for one run.
    pub fn new(market: &'a GbmMarket, product: &'a Product, cfg: &LsmcConfig) -> Self {
        let basis = TensorBasis::new(market.dim(), cfg.degree, cfg.basis);
        let dt = product.maturity / cfg.steps as f64;
        let disc_dt = (-market.rate() * dt).exp();
        SweepKernel {
            payoff: &product.payoff,
            spots0: market.spots(),
            tile_x: vec![0.0; market.dim() * TILE],
            tile_phi: vec![0.0; (basis.size() + 1) * TILE],
            basis,
            disc_pow: (0..=cfg.steps).map(|n| disc_dt.powi(n as i32)).collect(),
            itm: Vec::new(),
            intrinsic: Vec::new(),
            x: Vec::new(),
        }
    }

    /// Basis size `k` of the regression.
    pub fn basis_size(&self) -> usize {
        self.basis.size()
    }

    /// Terminal cashflows of every path of `panel`, with their date.
    /// The last spot layer is read only here, so it is released.
    pub fn terminal(&self, panel: &mut PathPanel) -> (Vec<f64>, Vec<u32>) {
        let last = std::mem::take(&mut panel.spots[panel.steps - 1]);
        let cashflow = last
            .chunks_exact(panel.dim)
            .map(|s| self.payoff.eval(s))
            .collect();
        (cashflow, vec![panel.steps as u32; panel.paths])
    }

    /// One date's pass over every path of its spot `layer`: cache the
    /// in-the-money paths (positive intrinsic value) for
    /// [`SweepKernel::regression_sums`] and [`SweepKernel::exercise`].
    /// The layer's buffer becomes the cache of normalised spots: the
    /// `k`-th in-the-money path has index `p ≥ k`, so its spots move
    /// down to slot `k` only after every path up to `p` has been read.
    pub fn scan(&mut self, mut layer: Vec<f64>) {
        let d = self.spots0.len();
        self.itm.clear();
        self.intrinsic.clear();
        for p in 0..layer.len() / d {
            let intrinsic = self.payoff.eval(&layer[p * d..(p + 1) * d]);
            if intrinsic > 0.0 {
                let slot = self.itm.len() * d;
                for (i, s0) in self.spots0.iter().enumerate() {
                    layer[slot + i] = layer[p * d + i] / s0;
                }
                self.itm.push(p);
                self.intrinsic.push(intrinsic);
            }
        }
        layer.truncate(self.itm.len() * d);
        self.x = layer;
    }

    /// Gather the scanned rows `rows` (at most [`TILE`]) into the tile's
    /// asset columns and evaluate the basis into its function columns.
    fn eval_tile(&mut self, rows: Range<usize>) {
        let d = self.spots0.len();
        for (r, x) in self.x[rows.start * d..rows.end * d]
            .chunks_exact(d)
            .enumerate()
        {
            for (i, &xi) in x.iter().enumerate() {
                self.tile_x[i * TILE + r] = xi;
            }
        }
        self.basis
            .eval_columns(&self.tile_x, TILE, rows.len(), &mut self.tile_phi);
    }

    /// Add the scanned in-the-money paths among `paths` to `sums`, each
    /// regressed on its cashflow discounted to date `t`.
    pub fn regression_sums(
        &mut self,
        t: usize,
        cashflow: &[f64],
        cf_time: &[u32],
        paths: Range<usize>,
        sums: &mut RegressionSums,
    ) {
        let k = self.basis.size();
        let lo = self.itm.partition_point(|&p| p < paths.start);
        let hi = self.itm.partition_point(|&p| p < paths.end);
        for start in (lo..hi).step_by(TILE) {
            let rows = start..hi.min(start + TILE);
            self.eval_tile(rows.clone());
            let y = &mut self.tile_phi[k * TILE..][..rows.len()];
            for (y, &p) in y.iter_mut().zip(&self.itm[rows.clone()]) {
                *y = cashflow[p] * self.disc_pow[(cf_time[p] - t as u32) as usize];
            }
            sums.add_tile(&self.tile_phi, TILE, rows.len());
        }
    }

    /// Exercise at date `t` on every scanned in-the-money path whose
    /// intrinsic value beats the continuation fitted by `beta`.
    pub fn exercise(&mut self, t: usize, beta: &[f64], cashflow: &mut [f64], cf_time: &mut [u32]) {
        let k = self.basis.size();
        for start in (0..self.itm.len()).step_by(TILE) {
            let rows = start..self.itm.len().min(start + TILE);
            self.eval_tile(rows.clone());
            let (phi, continuation) = self.tile_phi.split_at_mut(k * TILE);
            let continuation = &mut continuation[..rows.len()];
            // −0.0 is where `Iterator::sum::<f64>` starts.
            continuation.fill(-0.0);
            for (b, f) in beta.iter().zip(phi.chunks_exact(TILE)) {
                for (c, fr) in continuation.iter_mut().zip(f) {
                    *c += b * fr;
                }
            }
            let cached = self.itm[rows.clone()].iter().zip(&self.intrinsic[rows]);
            for ((&p, &intrinsic), &c) in cached.zip(continuation.iter()) {
                if intrinsic >= c {
                    cashflow[p] = intrinsic;
                    cf_time[p] = t as u32;
                }
            }
        }
    }

    /// Every cashflow discounted to time 0.
    pub fn discounted(&self, cashflow: &[f64], cf_time: &[u32]) -> Vec<f64> {
        cashflow
            .iter()
            .zip(cf_time)
            .map(|(cf, &t)| cf * self.disc_pow[t as usize])
            .collect()
    }
}

/// Run the backward LSMC sweep over a simulated panel, regressing each
/// date on all of its paths, and return the final per-path discounted
/// cashflows (valued at time 0). Each date's spot layer is released as
/// soon as it is read.
pub fn backward_sweep(
    market: &GbmMarket,
    product: &Product,
    cfg: &LsmcConfig,
    mut panel: PathPanel,
) -> Vec<f64> {
    let mut kernel = SweepKernel::new(market, product, cfg);
    let (mut cashflow, mut cf_time) = kernel.terminal(&mut panel);
    // Backward over exercise dates t = steps−1 .. 1.
    for t in (1..cfg.steps).rev() {
        kernel.scan(std::mem::take(&mut panel.spots[t - 1]));
        let mut sums = RegressionSums::new(kernel.basis_size());
        kernel.regression_sums(t, &cashflow, &cf_time, 0..panel.paths, &mut sums);
        if let Some(beta) = sums.solve(cfg.ridge) {
            kernel.exercise(t, &beta, &mut cashflow, &mut cf_time);
        }
    }
    kernel.discounted(&cashflow, &cf_time)
}

/// Sequential LSMC pricing.
pub fn price_lsmc(
    market: &GbmMarket,
    product: &Product,
    cfg: LsmcConfig,
) -> Result<LsmcResult, McError> {
    validate(market, product, &cfg)?;
    let streams = block_streams(&cfg);
    let panel = simulate_panel(market, product, &cfg, &streams, 0..num_blocks(&cfg));
    let discounted = backward_sweep(market, product, &cfg, panel);
    Ok(summarise(&discounted, product, market))
}

/// LSMC with the path panel simulated in parallel over substream blocks
/// (rayon). The panel — and therefore the price — is bit-identical to
/// [`price_lsmc`]: blocks are independent substreams spliced back in
/// block order; the backward sweep stays sequential (it is the
/// regression-coupled serial fraction either way).
pub fn price_lsmc_rayon(
    market: &GbmMarket,
    product: &Product,
    cfg: LsmcConfig,
) -> Result<LsmcResult, McError> {
    use rayon::prelude::*;
    validate(market, product, &cfg)?;
    let blocks = num_blocks(&cfg);
    let streams = block_streams(&cfg);
    let panels: Vec<PathPanel> = (0..blocks)
        .into_par_iter()
        .map(|b| simulate_panel(market, product, &cfg, &streams, b..b + 1))
        .collect();
    // Splice the per-block panels in block order.
    let d = market.dim();
    let total: usize = panels.iter().map(|p| p.paths).sum();
    let mut spots = vec![vec![0.0; total * d]; cfg.steps];
    let mut offset = 0usize;
    for panel in &panels {
        for (t, layer) in spots.iter_mut().enumerate() {
            layer[offset * d..(offset + panel.paths) * d].copy_from_slice(&panel.spots[t]);
        }
        offset += panel.paths;
    }
    let panel = PathPanel {
        dim: d,
        steps: cfg.steps,
        paths: total,
        spots,
    };
    let discounted = backward_sweep(market, product, &cfg, panel);
    Ok(summarise(&discounted, product, market))
}

/// Shared validation.
pub fn validate(market: &GbmMarket, product: &Product, cfg: &LsmcConfig) -> Result<(), McError> {
    product.validate_for(market)?;
    if product.exercise != ExerciseStyle::American {
        return Err(McError::Unsupported(
            "LSMC prices American products; use the European engine otherwise".into(),
        ));
    }
    if product.payoff.is_path_dependent() {
        return Err(McError::Unsupported(
            "path-dependent American payoffs are out of scope".into(),
        ));
    }
    if cfg.paths == 0 {
        return Err(McError::ZeroPaths);
    }
    if cfg.steps < 2 {
        return Err(McError::Unsupported(
            "LSMC needs at least two exercise dates".into(),
        ));
    }
    if cfg.degree == 0 {
        return Err(McError::Unsupported("basis degree must be ≥ 1".into()));
    }
    if cfg.block_size == 0 {
        return Err(McError::Unsupported("block_size must be positive".into()));
    }
    Ok(())
}

/// Mean/SE over the discounted cashflows, floored by immediate exercise.
pub fn summarise(discounted: &[f64], product: &Product, market: &GbmMarket) -> LsmcResult {
    let n = discounted.len() as f64;
    let mean = discounted.iter().sum::<f64>() / n;
    let var = discounted
        .iter()
        .map(|c| (c - mean) * (c - mean))
        .sum::<f64>()
        / (n - 1.0);
    finish(mean, var, n, product, market)
}

/// The result from the cashflows' mean and sample variance over `n`
/// paths: the price floored by immediate exercise, and a standard error
/// of 0 below two paths, as the European engine reports.
pub(crate) fn finish(
    mean: f64,
    var: f64,
    n: f64,
    product: &Product,
    market: &GbmMarket,
) -> LsmcResult {
    // An American option is worth at least immediate exercise.
    let intrinsic = product.payoff.eval(market.spots());
    LsmcResult {
        price: mean.max(intrinsic),
        std_error: if n < 2.0 { 0.0 } else { (var / n).sqrt() },
        paths: n as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdp_lattice::BinomialLattice;
    use mdp_model::analytic::black_scholes_put;
    use mdp_model::Payoff;

    fn american_put_1d() -> (GbmMarket, Product) {
        (
            GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap(),
            Product::american(
                Payoff::BasketPut {
                    weights: vec![1.0],
                    strike: 110.0,
                },
                1.0,
            ),
        )
    }

    #[test]
    fn american_put_matches_binomial_reference() {
        let (m, p) = american_put_1d();
        let reference = BinomialLattice::crr(1000).price(&m, &p).unwrap().price;
        let r = price_lsmc(
            &m,
            &p,
            LsmcConfig {
                paths: 40_000,
                steps: 50,
                degree: 3,
                ..Default::default()
            },
        )
        .unwrap();
        // LSMC is low-biased; allow a one-sided band plus noise.
        assert!(
            r.price > reference - 0.25 && r.price < reference + 4.0 * r.std_error + 0.05,
            "lsmc {} vs binomial {reference} (se {})",
            r.price,
            r.std_error
        );
    }

    #[test]
    fn american_above_european_put() {
        let (m, p) = american_put_1d();
        let eu = black_scholes_put(100.0, 110.0, 0.05, 0.0, 0.2, 1.0);
        let r = price_lsmc(&m, &p, LsmcConfig::default()).unwrap();
        assert!(
            r.price > eu + 2.0 * r.std_error - 0.15,
            "american {} vs european {eu}",
            r.price
        );
        assert!(r.price >= 10.0, "at least intrinsic: {}", r.price);
    }

    #[test]
    fn two_asset_american_max_call_matches_lattice() {
        // Broadie–Glasserman-style 2-asset American max-call
        // (S=100, K=100, r=5%, q=10%, σ=20%, ρ=0, T=1); reference from
        // the BEG lattice with matching (Bermudan, 9-date) exercise is
        // impractical, so compare against the densely exercisable lattice
        // with a one-sided low-bias allowance for LSMC.
        let m = GbmMarket::symmetric(2, 100.0, 0.2, 0.1, 0.05, 0.0).unwrap();
        let pay = Payoff::MaxCall { strike: 100.0 };
        let am = Product::american(pay.clone(), 1.0);
        let reference = mdp_lattice::MultiLattice::new(100)
            .price(&m, &am)
            .unwrap()
            .price;
        let r = price_lsmc(
            &m,
            &am,
            LsmcConfig {
                paths: 40_000,
                steps: 9,
                degree: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let eu = mdp_model::analytic::max_call_two_assets(
            100.0, 0.1, 0.2, 100.0, 0.1, 0.2, 0.0, 0.05, 100.0, 1.0,
        );
        assert!(r.price > eu, "american {} vs european {eu}", r.price);
        assert!(
            r.price > reference - 0.6 && r.price < reference + 4.0 * r.std_error + 0.05,
            "lsmc {} vs lattice {reference}",
            r.price
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (m, p) = american_put_1d();
        let cfg = LsmcConfig {
            paths: 5_000,
            steps: 10,
            ..Default::default()
        };
        let a = price_lsmc(&m, &p, cfg).unwrap();
        let b = price_lsmc(&m, &p, cfg).unwrap();
        assert_eq!(a.price.to_bits(), b.price.to_bits());
    }

    #[test]
    fn more_exercise_dates_worth_more() {
        let (m, p) = american_put_1d();
        let few = price_lsmc(
            &m,
            &p,
            LsmcConfig {
                paths: 60_000,
                steps: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let many = price_lsmc(
            &m,
            &p,
            LsmcConfig {
                paths: 60_000,
                steps: 25,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            many.price > few.price - 2.0 * (many.std_error + few.std_error),
            "{} vs {}",
            many.price,
            few.price
        );
    }

    /// The per-row rank-1 update the tile accumulate must reproduce.
    fn push(sums: &mut RegressionSums, phi: &[f64], y: f64) {
        let k = sums.k;
        for i in 0..k {
            for j in i..k {
                sums.xtx[i * k + j] += phi[i] * phi[j];
            }
            sums.xty[i] += phi[i] * y;
        }
        sums.count += 1.0;
    }

    /// Rows as tile columns: `rows[r]` is `(φ, y)`; column `j < k` holds
    /// `φ_j`, column `k` the targets, each `stride` wide.
    fn tile(rows: &[(Vec<f64>, f64)], k: usize, stride: usize) -> Vec<f64> {
        let mut cols = vec![f64::NAN; (k + 1) * stride];
        for (r, (phi, y)) in rows.iter().enumerate() {
            for (j, &f) in phi.iter().enumerate() {
                cols[j * stride + r] = f;
            }
            cols[k * stride + r] = *y;
        }
        cols
    }

    /// The tensor basis at one point, built from `eval_basis` per asset.
    fn basis_row(kind: BasisKind, degree: usize, x: &[f64]) -> Vec<f64> {
        let mut row = vec![1.0];
        let mut scalar = vec![0.0; degree + 1];
        for &xi in x {
            mdp_math::poly::eval_basis(kind, xi, degree + 1, &mut scalar);
            row.extend_from_slice(&scalar[1..]);
        }
        for i in 0..x.len() {
            for j in i + 1..x.len() {
                row.push(x[i] * x[j]);
            }
        }
        row
    }

    fn sum_bits(s: &RegressionSums) -> Vec<u64> {
        s.to_vec().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn regression_sums_roundtrip_and_merge() {
        let mut a = RegressionSums::new(3);
        let rows = [(vec![1.0, 2.0, 3.0], 4.0), (vec![0.5, -1.0, 2.0], -1.0)];
        a.add_tile(&tile(&rows, 3, 2), 2, 2);
        let b = RegressionSums::from_slice(3, &a.to_vec());
        assert_eq!(a.xtx, b.xtx);
        assert_eq!(a.xty, b.xty);
        assert_eq!(a.count, b.count);
    }

    #[test]
    fn tile_accumulate_equals_per_row_rank_one_updates() {
        // Row counts around the 32-row tile, from non-zero sums, for
        // basis sizes 1–10; each tile strided wider than its rows.
        let value = |r: usize, j: usize| 0.3 + 0.17 * ((5 * r + 11 * j) % 23) as f64 - 1.9;
        for k in [1, 2, 3, 4, 6, 10] {
            for n in [0, 1, 31, 32, 33, 65] {
                let rows: Vec<(Vec<f64>, f64)> = (0..n)
                    .map(|r| ((0..k).map(|j| value(r, j)).collect(), value(r, k)))
                    .collect();
                let start: Vec<f64> = (0..k * k + k + 1).map(|v| 0.25 * v as f64 - 3.0).collect();
                let mut oracle = RegressionSums::from_slice(k, &start);
                for (phi, y) in &rows {
                    push(&mut oracle, phi, *y);
                }
                let mut tiled = RegressionSums::from_slice(k, &start);
                for chunk in rows.chunks(32) {
                    tiled.add_tile(&tile(chunk, k, 40), 40, chunk.len());
                }
                assert_eq!(sum_bits(&tiled), sum_bits(&oracle), "k={k} rows={n}");
            }
        }
    }

    #[test]
    fn tiled_sweep_equals_per_row_oracle_across_tile_edges() {
        // Blocks of 77 paths, so each date's in-the-money rows of a block
        // straddle a tile edge; the cluster driver's per-block sums and
        // the exercise pass must equal per-row loops bit for bit.
        let m = GbmMarket::symmetric(2, 100.0, 0.25, 0.0, 0.05, 0.3).unwrap();
        let p = Product::american(Payoff::MinPut { strike: 104.0 }, 1.0);
        let cfg = LsmcConfig {
            paths: 1_000,
            steps: 6,
            block_size: 77,
            basis: BasisKind::Laguerre,
            degree: 3,
            ..Default::default()
        };
        let streams = block_streams(&cfg);
        let mut panel = simulate_panel(&m, &p, &cfg, &streams, 0..num_blocks(&cfg));
        let layers = panel.spots.clone();
        let mut kernel = SweepKernel::new(&m, &p, &cfg);
        let k = kernel.basis_size();
        let (mut cashflow, mut cf_time) = kernel.terminal(&mut panel);
        let (mut cf_oracle, mut t_oracle) = (cashflow.clone(), cf_time.clone());
        let dt = p.maturity / cfg.steps as f64;
        let disc = (-m.rate() * dt).exp();
        let mut straddled = false;
        for t in (1..cfg.steps).rev() {
            kernel.scan(layers[t - 1].clone());
            let mut total = RegressionSums::new(k);
            for b in 0..num_blocks(&cfg) {
                let lo = (b * cfg.block_size) as usize;
                let paths = lo..lo + block_paths(&cfg, b) as usize;
                let mut sums = RegressionSums::new(k);
                kernel.regression_sums(t, &cashflow, &cf_time, paths.clone(), &mut sums);
                let mut oracle = RegressionSums::new(k);
                for path in paths {
                    let s = &layers[t - 1][path * 2..path * 2 + 2];
                    if p.payoff.eval(s) > 0.0 {
                        let x: Vec<f64> = s.iter().zip(m.spots()).map(|(s, s0)| s / s0).collect();
                        let y = cf_oracle[path] * disc.powi((t_oracle[path] - t as u32) as i32);
                        push(&mut oracle, &basis_row(cfg.basis, cfg.degree, &x), y);
                    }
                }
                assert_eq!(sum_bits(&sums), sum_bits(&oracle), "date {t} block {b}");
                straddled |= oracle.count > 32.0 && oracle.count % 32.0 != 0.0;
                merge(&mut total, &sums);
            }
            let Some(beta) = total.solve(cfg.ridge) else {
                continue;
            };
            kernel.exercise(t, &beta, &mut cashflow, &mut cf_time);
            for path in 0..cfg.paths as usize {
                let s = &layers[t - 1][path * 2..path * 2 + 2];
                let intrinsic = p.payoff.eval(s);
                if intrinsic > 0.0 {
                    let x: Vec<f64> = s.iter().zip(m.spots()).map(|(s, s0)| s / s0).collect();
                    let phi = basis_row(cfg.basis, cfg.degree, &x);
                    let continuation: f64 = beta.iter().zip(&phi).map(|(b, f)| b * f).sum();
                    if intrinsic >= continuation {
                        cf_oracle[path] = intrinsic;
                        t_oracle[path] = t as u32;
                    }
                }
            }
            assert_eq!(cf_time, t_oracle, "date {t}");
            let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&cashflow), bits(&cf_oracle), "date {t}");
        }
        assert!(
            straddled,
            "no block's in-the-money rows crossed a tile edge"
        );
    }

    /// Fold `part` into `total` cell by cell, as the cluster root does.
    fn merge(total: &mut RegressionSums, part: &RegressionSums) {
        for (m, v) in total.xtx.iter_mut().zip(&part.xtx) {
            *m += v;
        }
        for (m, v) in total.xty.iter_mut().zip(&part.xty) {
            *m += v;
        }
        total.count += part.count;
    }

    #[test]
    fn regression_solves_known_system() {
        // y = 2 + 3x fitted exactly.
        let mut s = RegressionSums::new(2);
        let rows: Vec<(Vec<f64>, f64)> = (0..10)
            .map(|i| {
                let x = i as f64;
                (vec![1.0, x], 2.0 + 3.0 * x)
            })
            .collect();
        s.add_tile(&tile(&rows, 2, 10), 10, 10);
        let beta = s.solve(0.0).unwrap();
        assert!((beta[0] - 2.0).abs() < 1e-9);
        assert!((beta[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn too_few_itm_paths_skips_regression() {
        let s = RegressionSums::new(4);
        assert!(s.solve(1e-10).is_none());
    }

    #[test]
    fn validation_errors() {
        let (m, p) = american_put_1d();
        let eu = Product::european(p.payoff.clone(), 1.0);
        assert!(price_lsmc(&m, &eu, LsmcConfig::default()).is_err());
        assert!(price_lsmc(
            &m,
            &p,
            LsmcConfig {
                steps: 1,
                ..Default::default()
            }
        )
        .is_err());
        assert!(price_lsmc(
            &m,
            &p,
            LsmcConfig {
                paths: 0,
                ..Default::default()
            }
        )
        .is_err());
    }

    /// One configuration priced on Sequential, Rayon and a 2-rank cluster.
    fn every_backend(
        m: &GbmMarket,
        p: &Product,
        cfg: LsmcConfig,
    ) -> [Result<LsmcResult, McError>; 3] {
        use mdp_cluster::{CheckpointMode, FaultPlan, Machine};
        let cluster = crate::cluster_driver::price_lsmc_cluster(
            m,
            p,
            cfg,
            2,
            Machine::ideal(),
            FaultPlan::new(0),
            None,
            CheckpointMode::Sync,
        );
        [
            price_lsmc(m, p, cfg),
            price_lsmc_rayon(m, p, cfg),
            cluster.map(|o| o.result),
        ]
    }

    #[test]
    fn zero_block_size_is_a_typed_error_on_every_backend() {
        let (m, p) = american_put_1d();
        let cfg = LsmcConfig {
            block_size: 0,
            ..Default::default()
        };
        for (backend, r) in every_backend(&m, &p, cfg).into_iter().enumerate() {
            match r {
                Err(McError::Unsupported(why)) => assert!(why.contains("block_size"), "{why}"),
                other => panic!("backend {backend}: {other:?}"),
            }
        }
    }

    #[test]
    fn one_path_reports_zero_standard_error_on_every_backend() {
        // As the European engine does below two paths, and one price.
        let (m, p) = american_put_1d();
        let cfg = LsmcConfig {
            paths: 1,
            steps: 4,
            ..Default::default()
        };
        let results = every_backend(&m, &p, cfg).map(|r| r.unwrap());
        for r in &results {
            assert_eq!(r.std_error.to_bits(), 0.0f64.to_bits(), "{r:?}");
            assert_eq!(r.price.to_bits(), results[0].price.to_bits(), "{r:?}");
            assert_eq!(r.paths, 1);
        }
    }
}

#[cfg(test)]
mod rayon_tests {
    use super::*;
    use mdp_model::Payoff;

    #[test]
    fn rayon_lsmc_bitwise_equals_sequential() {
        let m = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
        let p = Product::american(Payoff::MinPut { strike: 108.0 }, 1.0);
        let cfg = LsmcConfig {
            paths: 6_000,
            steps: 8,
            block_size: 500,
            ..Default::default()
        };
        let a = price_lsmc(&m, &p, cfg).unwrap();
        let b = price_lsmc_rayon(&m, &p, cfg).unwrap();
        assert_eq!(a.price.to_bits(), b.price.to_bits());
        assert_eq!(a.std_error.to_bits(), b.std_error.to_bits());
    }
}
