//! Correlated GBM path generation.
//!
//! Exact log-normal stepping — GBM has a closed transition density, so
//! there is no discretisation bias regardless of the number of
//! monitoring steps; steps exist only where the *payoff* needs them
//! (Asian averaging, American exercise dates).

use mdp_math::fastmath::exp64;
use mdp_math::rng::{NormalSampler, Rng64};
use mdp_model::GbmMarket;

/// Precomputed per-step constants for exact GBM stepping on a uniform
/// grid of `steps` intervals over `[0, maturity]`.
#[derive(Debug, Clone)]
pub struct GbmStepper {
    /// Number of assets.
    pub dim: usize,
    /// Number of time steps.
    pub steps: usize,
    /// Per-asset drift increment `(r − qᵢ − σᵢ²/2)Δt`.
    drift_dt: Vec<f64>,
    /// Per-asset diffusion scale `σᵢ√Δt`.
    vol_sqdt: Vec<f64>,
    /// Cholesky factor of the correlation matrix, packed row-major
    /// lower-triangular: row `i` occupies `chol[i(i+1)/2 .. i(i+1)/2+i+1]`.
    chol: Vec<f64>,
}

impl GbmStepper {
    /// Build a stepper for the market over `steps` uniform steps.
    pub fn new(market: &GbmMarket, maturity: f64, steps: usize) -> Self {
        assert!(steps > 0);
        let d = market.dim();
        let dt = maturity / steps as f64;
        let sqdt = dt.sqrt();
        let l = market.cholesky().l();
        let mut chol = Vec::with_capacity(d * (d + 1) / 2);
        for i in 0..d {
            chol.extend_from_slice(&l.row(i)[..=i]);
        }
        GbmStepper {
            dim: d,
            steps,
            drift_dt: (0..d).map(|i| market.log_drift(i) * dt).collect(),
            vol_sqdt: (0..d).map(|i| market.vols()[i] * sqdt).collect(),
            chol,
        }
    }

    /// Advance `log_spots` by one step using the i.i.d. normals `z`
    /// (length d). `z` is correlated internally — callers hand raw
    /// normals.
    #[inline]
    pub fn step(&self, log_spots: &mut [f64], z: &[f64]) {
        debug_assert_eq!(log_spots.len(), self.dim);
        debug_assert_eq!(z.len(), self.dim);
        let mut off = 0;
        for (i, ls) in log_spots.iter_mut().enumerate() {
            // (L·z)ᵢ inline: only the first i+1 entries contribute.
            let mut w = 0.0;
            for (l, zk) in self.chol[off..off + i + 1].iter().zip(z) {
                w += l * zk;
            }
            off += i + 1;
            *ls += self.drift_dt[i] + self.vol_sqdt[i] * w;
        }
    }

    /// Advance a whole panel's active lanes by one step: the blocked
    /// triangular multiply `L·Z` plus the drift/diffusion update, row by
    /// row over the packed Cholesky buffer.
    ///
    /// Per lane this performs the **same f64 operations in the same
    /// order** as [`GbmStepper::step`]: the correlate accumulates
    /// `w += Lᵢₖ·zₖ` for `k` ascending from 0.0, then
    /// `log += drift_dt + vol_sqdt·w` — which is what makes the batched
    /// kernel bitwise-identical to the scalar one while the inner loops
    /// run over contiguous lanes and autovectorize.
    pub fn step_panel(&self, panel: &mut SoaPanel, step: usize, n: usize) {
        let d = self.dim;
        let lanes = panel.lanes;
        debug_assert_eq!(panel.dim, d);
        debug_assert!(step < self.steps && n <= lanes);
        let zbase = step * d * lanes;
        let mut off = 0;
        for i in 0..d {
            let w = &mut panel.w[..n];
            w.fill(0.0);
            for (k, &l) in self.chol[off..off + i + 1].iter().enumerate() {
                let zrow = &panel.z[zbase + k * lanes..zbase + k * lanes + n];
                for (wl, &zv) in w.iter_mut().zip(zrow) {
                    *wl += l * zv;
                }
            }
            off += i + 1;
            let (dd, vs) = (self.drift_dt[i], self.vol_sqdt[i]);
            let lrow = &mut panel.log[i * lanes..i * lanes + n];
            for (ll, &wl) in lrow.iter_mut().zip(panel.w[..n].iter()) {
                *ll += dd + vs * wl;
            }
        }
    }

    /// Number of normals one full path consumes.
    pub fn normals_per_path(&self) -> usize {
        self.dim * self.steps
    }

    /// Recompute the drift/diffusion scalars for a ticked market,
    /// leaving the packed Cholesky factor untouched.
    ///
    /// Evaluates exactly the expressions of [`GbmStepper::new`]
    /// (`drift_dt[i] = log_drift(i)·Δt`, `vol_sqdt[i] = σᵢ·√Δt`), so a
    /// retuned stepper is bitwise-identical to one built from scratch
    /// for the same market — the invariant `McPlan::apply_tick` relies
    /// on for spot/vol/rate ticks.
    pub fn retune(&mut self, market: &GbmMarket, maturity: f64) {
        debug_assert_eq!(market.dim(), self.dim);
        let dt = maturity / self.steps as f64;
        let sqdt = dt.sqrt();
        self.drift_dt = (0..self.dim).map(|i| market.log_drift(i) * dt).collect();
        self.vol_sqdt = (0..self.dim).map(|i| market.vols()[i] * sqdt).collect();
    }

    /// Repack the Cholesky factor from the (re-factored) market after a
    /// correlation tick, using the same row-major lower-triangular
    /// packing as [`GbmStepper::new`]. Drift/diffusion scalars are
    /// untouched.
    pub fn repack_cholesky(&mut self, market: &GbmMarket) {
        debug_assert_eq!(market.dim(), self.dim);
        let l = market.cholesky().l();
        self.chol.clear();
        for i in 0..self.dim {
            self.chol.extend_from_slice(&l.row(i)[..=i]);
        }
    }

    /// Whether two steppers share a bitwise-identical Cholesky factor.
    ///
    /// The scenario-cube kernel shares one correlate pass across all
    /// scenarios; that is only sound when every scenario's `L` matches
    /// the base plan's bit for bit.
    pub fn chol_matches(&self, other: &GbmStepper) -> bool {
        self.chol.len() == other.chol.len()
            && self
                .chol
                .iter()
                .zip(&other.chol)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Replace the panel's normal rows with correlated increments
    /// `w = L·z`, step by step, staging each step's `dim` output rows in
    /// `tmp` (resized to `dim × lanes` here) before copying them back.
    ///
    /// Row `(step, i)` afterwards holds, bit for bit, the `w` values
    /// [`GbmStepper::step_panel`] would compute for that row: the
    /// accumulation starts from `0.0` and adds `Lᵢₖ·zₖ` for `k`
    /// ascending, exactly as the fused kernel does. Pairing this with
    /// [`GbmStepper::walk_correlated_terminal`] therefore reproduces
    /// [`crate::panel::walk_panel_terminal`] exactly while paying the
    /// triangular multiply once for any number of scenario walks.
    pub fn correlate_panel_in_place(&self, panel: &mut SoaPanel, n: usize, tmp: &mut Vec<f64>) {
        let d = self.dim;
        let lanes = panel.lanes;
        debug_assert_eq!(panel.dim, d);
        debug_assert!(n <= lanes);
        tmp.clear();
        tmp.resize(d * lanes, 0.0);
        for step in 0..self.steps {
            let zbase = step * d * lanes;
            let mut off = 0;
            for i in 0..d {
                let w = &mut tmp[i * lanes..i * lanes + n];
                w.fill(0.0);
                for (k, &l) in self.chol[off..off + i + 1].iter().enumerate() {
                    let zrow = &panel.z[zbase + k * lanes..zbase + k * lanes + n];
                    for (wl, &zv) in w.iter_mut().zip(zrow) {
                        *wl += l * zv;
                    }
                }
                off += i + 1;
            }
            for i in 0..d {
                panel.z[zbase + i * lanes..zbase + i * lanes + n]
                    .copy_from_slice(&tmp[i * lanes..i * lanes + n]);
            }
        }
    }

    /// Walk a panel whose normal rows were pre-correlated by
    /// [`GbmStepper::correlate_panel_in_place`] to maturity and
    /// exponentiate, using this stepper's drift/diffusion scalars.
    ///
    /// Per lane the update is `log += drift_dt[i] + vol_sqdt[i]·w` —
    /// the same final expression, in the same order, as
    /// [`GbmStepper::step_panel`] — so the terminal spots are bitwise
    /// those of [`crate::panel::walk_panel_terminal`] over the original
    /// normals with this stepper.
    pub fn walk_correlated_terminal(&self, log0: &[f64], panel: &mut SoaPanel, n: usize) {
        let d = self.dim;
        let lanes = panel.lanes;
        debug_assert_eq!(panel.dim, d);
        debug_assert!(n <= lanes);
        panel.reset_logs(log0, n);
        for step in 0..self.steps {
            let zbase = step * d * lanes;
            for i in 0..d {
                let (dd, vs) = (self.drift_dt[i], self.vol_sqdt[i]);
                let wrow = &panel.z[zbase + i * lanes..zbase + i * lanes + n];
                let lrow = &mut panel.log[i * lanes..i * lanes + n];
                for (ll, &wl) in lrow.iter_mut().zip(wrow) {
                    *ll += dd + vs * wl;
                }
            }
        }
        panel.exp_all(n);
    }
}

/// Lanes per panel of the batched structure-of-arrays kernel: paths are
/// processed `PANEL` at a time, one path per lane.
pub const PANEL: usize = 64;

/// Structure-of-arrays buffers for one panel of paths.
///
/// Layouts (all rows `lanes` wide, lane = path within the panel):
///
/// * `z` — normals, row `step·dim + asset`;
/// * `log` / `spot` — current log-spots and spots, row = asset.
///
/// Normals are written **path-major** (column `p` filled completely
/// before column `p+1`) so the panel consumes the RNG's variate stream
/// in exactly the per-path order of the scalar kernel.
#[derive(Debug, Clone)]
pub struct SoaPanel {
    dim: usize,
    steps: usize,
    lanes: usize,
    z: Vec<f64>,
    log: Vec<f64>,
    spot: Vec<f64>,
    /// Correlate scratch, one slot per lane.
    w: Vec<f64>,
}

impl SoaPanel {
    /// Panel buffers sized for `stepper` with `lanes` paths per panel.
    pub fn new(stepper: &GbmStepper, lanes: usize) -> Self {
        assert!(lanes > 0);
        let (d, steps) = (stepper.dim, stepper.steps);
        SoaPanel {
            dim: d,
            steps,
            lanes,
            z: vec![0.0; d * steps * lanes],
            log: vec![0.0; d * lanes],
            spot: vec![0.0; d * lanes],
            w: vec![0.0; lanes],
        }
    }

    /// Lanes per panel.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Fill lane `lane`'s normals (one whole path) from the sampler.
    pub fn fill_lane<R: Rng64, S: NormalSampler>(
        &mut self,
        sampler: &mut S,
        rng: &mut R,
        lane: usize,
    ) {
        let count = self.dim * self.steps;
        sampler.fill_strided(rng, &mut self.z, lane, self.lanes, count);
    }

    /// Fill the first `n` lanes path-major — the identical draw order to
    /// `n` consecutive scalar `fill` calls.
    ///
    /// Draws the whole panel's variates with **one** bulk
    /// [`NormalSampler::fill_transposed`] call (lane 0's path first, then
    /// lane 1's — the same global sequence as per-lane fills, so
    /// bitwise-neutral) which scatters each draw straight into its
    /// step-major `z` slot. The single bulk call lets samplers with a
    /// vectorized batch path (the polar method's three-phase fill)
    /// amortise their transform over `n·dim·steps` draws instead of
    /// `dim·steps`, with no staging pass.
    pub fn fill_normals<R: Rng64, S: NormalSampler>(
        &mut self,
        sampler: &mut S,
        rng: &mut R,
        n: usize,
    ) {
        let rows = self.dim * self.steps;
        sampler.fill_transposed(rng, &mut self.z, self.lanes, n, rows);
    }

    /// Copy a pre-drawn normal vector (layout `step·dim + asset`, as in
    /// [`walk_path_with_normals`]) into lane `lane` — the QMC entry point.
    pub fn set_lane_normals(&mut self, lane: usize, normals: &[f64]) {
        debug_assert_eq!(normals.len(), self.dim * self.steps);
        for (k, &v) in normals.iter().enumerate() {
            self.z[k * self.lanes + lane] = v;
        }
    }

    /// Overwrite a single normal slot (`k` = flat index `step·dim + asset`).
    pub fn set_normal(&mut self, k: usize, lane: usize, v: f64) {
        self.z[k * self.lanes + lane] = v;
    }

    /// Negate every normal of the first `n` lanes (antithetic re-walk).
    pub fn negate_normals(&mut self, n: usize) {
        let lanes = self.lanes;
        for row in self.z.chunks_exact_mut(lanes) {
            for zv in &mut row[..n] {
                *zv = -*zv;
            }
        }
    }

    /// Reset the log-spot rows to the initial log-spots.
    pub fn reset_logs(&mut self, log0: &[f64], n: usize) {
        debug_assert_eq!(log0.len(), self.dim);
        for (i, &l0) in log0.iter().enumerate() {
            self.log[i * self.lanes..i * self.lanes + n].fill(l0);
        }
    }

    /// Exponentiate asset `i`'s log row into its spot row.
    pub fn exp_row(&mut self, i: usize, n: usize) {
        let base = i * self.lanes;
        for (s, &l) in self.spot[base..base + n]
            .iter_mut()
            .zip(self.log[base..base + n].iter())
        {
            *s = exp64(l);
        }
    }

    /// Exponentiate all log rows into the spot rows.
    pub fn exp_all(&mut self, n: usize) {
        for i in 0..self.dim {
            self.exp_row(i, n);
        }
    }

    /// Asset `i`'s log-spot row.
    pub(crate) fn log_row(&self, i: usize) -> &[f64] {
        &self.log[i * self.lanes..(i + 1) * self.lanes]
    }

    /// Asset `i`'s spot row (valid after the matching `exp_row`/`exp_all`).
    pub fn spot_row(&self, i: usize) -> &[f64] {
        &self.spot[i * self.lanes..(i + 1) * self.lanes]
    }

    /// Gather lane `lane`'s spot vector into `out` (length dim).
    pub fn gather_spots(&self, lane: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.dim);
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.spot[i * self.lanes + lane];
        }
    }
}

/// Walk a panel's active lanes through all steps, handing the panel to
/// `visit` after each step's log-spot update.
///
/// The visitor decides which spot rows it needs exponentiated
/// ([`SoaPanel::exp_row`]/[`SoaPanel::exp_all`]) — terminal-only payoffs
/// skip the intermediate `exp`s entirely, which changes no result: the
/// log-spots are untouched and `exp` of the same input is deterministic.
pub fn walk_panel<F: FnMut(usize, &mut SoaPanel)>(
    stepper: &GbmStepper,
    log0: &[f64],
    panel: &mut SoaPanel,
    n: usize,
    mut visit: F,
) {
    panel.reset_logs(log0, n);
    for step in 0..stepper.steps {
        stepper.step_panel(panel, step, n);
        visit(step, panel);
    }
}

/// Simulate one path and hand each step's spot vector to `visit`.
///
/// `log0` are the initial log-spots; `z_buf`/`spot_buf` are caller
/// scratch of length d. The sampler draws `dim·steps` normals.
#[allow(clippy::too_many_arguments)]
pub fn walk_path<R: Rng64, S: NormalSampler, F: FnMut(usize, &[f64])>(
    stepper: &GbmStepper,
    log0: &[f64],
    rng: &mut R,
    sampler: &mut S,
    z_buf: &mut [f64],
    log_buf: &mut [f64],
    spot_buf: &mut [f64],
    mut visit: F,
) {
    log_buf.copy_from_slice(log0);
    for step in 0..stepper.steps {
        sampler.fill(rng, z_buf);
        stepper.step(log_buf, z_buf);
        for (s, l) in spot_buf.iter_mut().zip(log_buf.iter()) {
            *s = exp64(*l);
        }
        visit(step, spot_buf);
    }
}

/// Same as [`walk_path`] but driven by a pre-drawn normal vector of
/// length `dim·steps` — the QMC entry point (each Sobol' coordinate maps
/// to a fixed (step, asset) slot).
pub fn walk_path_with_normals<F: FnMut(usize, &[f64])>(
    stepper: &GbmStepper,
    log0: &[f64],
    normals: &[f64],
    log_buf: &mut [f64],
    spot_buf: &mut [f64],
    mut visit: F,
) {
    debug_assert_eq!(normals.len(), stepper.normals_per_path());
    log_buf.copy_from_slice(log0);
    for step in 0..stepper.steps {
        let z = &normals[step * stepper.dim..(step + 1) * stepper.dim];
        stepper.step(log_buf, z);
        for (s, l) in spot_buf.iter_mut().zip(log_buf.iter()) {
            *s = exp64(*l);
        }
        visit(step, spot_buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdp_math::rng::{NormalPolar, Xoshiro256StarStar};
    use mdp_math::stats::OnlineStats;

    fn market2(rho: f64) -> GbmMarket {
        GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, rho).unwrap()
    }

    #[test]
    fn terminal_distribution_moments() {
        // E[S(T)] = S e^{rT}; Var(ln S(T)) = σ²T.
        let m = market2(0.5);
        let stepper = GbmStepper::new(&m, 1.0, 4);
        let log0: Vec<f64> = m.spots().iter().map(|s| s.ln()).collect();
        let mut rng = Xoshiro256StarStar::seed_from(42);
        let mut ns = NormalPolar::new();
        let mut z = [0.0; 2];
        let mut lb = [0.0; 2];
        let mut sb = [0.0; 2];
        let mut term = OnlineStats::new();
        let mut log_term = OnlineStats::new();
        let n = 100_000;
        for _ in 0..n {
            let mut last = [0.0; 2];
            walk_path(
                &stepper,
                &log0,
                &mut rng,
                &mut ns,
                &mut z,
                &mut lb,
                &mut sb,
                |step, s| {
                    if step == 3 {
                        last.copy_from_slice(s);
                    }
                },
            );
            term.push(last[0]);
            log_term.push(last[0].ln());
        }
        let fwd = 100.0 * (0.05f64).exp();
        assert!(
            (term.mean() - fwd).abs() < 3.0 * term.std_error(),
            "mean {} vs {fwd}",
            term.mean()
        );
        assert!(
            (log_term.variance() - 0.04).abs() < 0.002,
            "{}",
            log_term.variance()
        );
    }

    #[test]
    fn correlation_is_respected() {
        let rho = 0.7;
        let m = market2(rho);
        let stepper = GbmStepper::new(&m, 1.0, 1);
        let log0: Vec<f64> = m.spots().iter().map(|s| s.ln()).collect();
        let mut rng = Xoshiro256StarStar::seed_from(7);
        let mut ns = NormalPolar::new();
        let (mut z, mut lb, mut sb) = ([0.0; 2], [0.0; 2], [0.0; 2]);
        let n = 200_000;
        let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
        for _ in 0..n {
            let mut r = [0.0; 2];
            walk_path(
                &stepper,
                &log0,
                &mut rng,
                &mut ns,
                &mut z,
                &mut lb,
                &mut sb,
                |_, s| {
                    r = [s[0].ln() - log0[0], s[1].ln() - log0[1]];
                },
            );
            // Centre by the known drift to estimate correlation.
            let mu = 0.05 - 0.02;
            let (x, y) = (r[0] - mu, r[1] - mu);
            sxy += x * y;
            sxx += x * x;
            syy += y * y;
        }
        let corr = sxy / (sxx.sqrt() * syy.sqrt());
        assert!((corr - rho).abs() < 0.01, "{corr}");
    }

    #[test]
    fn multi_step_equals_single_step_in_distribution() {
        // Exact stepping: terminal log-variance is σ²T for any step count.
        let m = market2(0.3);
        let log0: Vec<f64> = m.spots().iter().map(|s| s.ln()).collect();
        for steps in [1usize, 5, 20] {
            let stepper = GbmStepper::new(&m, 1.0, steps);
            let mut rng = Xoshiro256StarStar::seed_from(9);
            let mut ns = NormalPolar::new();
            let (mut z, mut lb, mut sb) = ([0.0; 2], [0.0; 2], [0.0; 2]);
            let mut stats = OnlineStats::new();
            for _ in 0..50_000 {
                let mut last = 0.0;
                walk_path(
                    &stepper,
                    &log0,
                    &mut rng,
                    &mut ns,
                    &mut z,
                    &mut lb,
                    &mut sb,
                    |s, v| {
                        if s == steps - 1 {
                            last = v[0].ln();
                        }
                    },
                );
                stats.push(last);
            }
            assert!(
                (stats.variance() - 0.04).abs() < 0.003,
                "steps={steps}: {}",
                stats.variance()
            );
        }
    }

    #[test]
    fn with_normals_matches_direct_stepping() {
        let m = market2(0.5);
        let stepper = GbmStepper::new(&m, 2.0, 3);
        let log0: Vec<f64> = m.spots().iter().map(|s| s.ln()).collect();
        let normals = [0.3, -0.5, 1.0, 0.1, -1.2, 0.8];
        let (mut lb, mut sb) = ([0.0; 2], [0.0; 2]);
        let mut path_a = Vec::new();
        walk_path_with_normals(&stepper, &log0, &normals, &mut lb, &mut sb, |_, s| {
            path_a.extend_from_slice(s)
        });
        // Manual re-computation.
        let mut lb2 = log0.clone();
        let mut path_b = Vec::new();
        for step in 0..3 {
            stepper.step(&mut lb2, &normals[step * 2..step * 2 + 2]);
            path_b.extend(lb2.iter().map(|l| exp64(*l)));
        }
        assert_eq!(path_a, path_b);
    }

    #[test]
    fn normals_per_path_accounting() {
        let m = market2(0.0);
        assert_eq!(GbmStepper::new(&m, 1.0, 7).normals_per_path(), 14);
    }

    #[test]
    fn panel_walk_is_bitwise_equal_to_scalar_walk() {
        let m = GbmMarket::symmetric(3, 100.0, 0.25, 0.01, 0.05, 0.4).unwrap();
        let stepper = GbmStepper::new(&m, 1.5, 4);
        let log0: Vec<f64> = m.spots().iter().map(|s| s.ln()).collect();
        let npath = stepper.normals_per_path();
        let n = 7; // deliberately a remainder panel (n < lanes)

        // Scalar reference: per-path contiguous fill + walk.
        let mut rng = Xoshiro256StarStar::seed_from(123);
        let mut sampler = NormalPolar::new();
        let mut normals = vec![0.0; npath];
        let (mut lb, mut sb) = (vec![0.0; 3], vec![0.0; 3]);
        let mut scalar_paths: Vec<Vec<f64>> = Vec::new();
        for _ in 0..n {
            sampler.fill(&mut rng, &mut normals);
            let mut trace = Vec::new();
            walk_path_with_normals(&stepper, &log0, &normals, &mut lb, &mut sb, |_, s| {
                trace.extend_from_slice(s)
            });
            scalar_paths.push(trace);
        }

        // Panel: path-major strided fill, panel stepping, per-step exp.
        let mut rng2 = Xoshiro256StarStar::seed_from(123);
        let mut sampler2 = NormalPolar::new();
        let mut panel = SoaPanel::new(&stepper, PANEL);
        panel.fill_normals(&mut sampler2, &mut rng2, n);
        let mut panel_paths: Vec<Vec<f64>> = vec![Vec::new(); n];
        walk_panel(&stepper, &log0, &mut panel, n, |_, p| {
            p.exp_all(n);
            let mut out = vec![0.0; 3];
            for (lane, trace) in panel_paths.iter_mut().enumerate() {
                p.gather_spots(lane, &mut out);
                trace.extend_from_slice(&out);
            }
        });

        for (lane, (a, b)) in scalar_paths.iter().zip(&panel_paths).enumerate() {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "lane {lane}");
            }
        }
    }

    #[test]
    fn panel_negate_matches_negated_scalar_normals() {
        let m = market2(0.6);
        let stepper = GbmStepper::new(&m, 1.0, 3);
        let log0: Vec<f64> = m.spots().iter().map(|s| s.ln()).collect();
        let normals = [0.3, -0.5, 1.0, 0.1, -1.2, 0.8];
        let neg: Vec<f64> = normals.iter().map(|z| -z).collect();
        let (mut lb, mut sb) = ([0.0; 2], [0.0; 2]);
        let mut want = Vec::new();
        walk_path_with_normals(&stepper, &log0, &neg, &mut lb, &mut sb, |_, s| {
            want.extend_from_slice(s)
        });

        let mut panel = SoaPanel::new(&stepper, PANEL);
        panel.set_lane_normals(0, &normals);
        panel.negate_normals(1);
        let mut got = Vec::new();
        let mut out = vec![0.0; 2];
        walk_panel(&stepper, &log0, &mut panel, 1, |_, p| {
            p.exp_all(1);
            p.gather_spots(0, &mut out);
            got.extend_from_slice(&out);
        });
        assert_eq!(want.len(), got.len());
        for (x, y) in want.iter().zip(&got) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
