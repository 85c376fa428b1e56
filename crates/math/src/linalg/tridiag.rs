//! Tridiagonal solvers: the Thomas algorithm, unfactored and factored.
//!
//! Crank–Nicolson and ADI time stepping reduce each line of the PDE grid
//! to a tridiagonal system. The Thomas algorithm is O(n) and sequential
//! down a line; the PDE drivers parallelise across independent lines
//! instead ([`FactoredTridiag::solve_panel_transposed`]).

use crate::MathError;

/// Reusable forward-elimination workspace for
/// [`Tridiag::solve_thomas_into`], so batched line solves (ADI sweeps
/// solve thousands per time step) allocate once instead of per line.
#[derive(Debug, Clone, Default)]
pub struct ThomasScratch {
    /// Eliminated super-diagonal `c'`.
    cp: Vec<f64>,
    /// Eliminated right-hand side `d'`.
    dp: Vec<f64>,
}

/// A tridiagonal system `a_i x_{i-1} + b_i x_i + c_i x_{i+1} = d_i`.
///
/// `a[0]` and `c[n-1]` are ignored (conventionally zero).
#[derive(Debug, Clone)]
pub struct Tridiag {
    /// Sub-diagonal (length n; `a[0]` unused).
    pub a: Vec<f64>,
    /// Diagonal (length n).
    pub b: Vec<f64>,
    /// Super-diagonal (length n; `c[n-1]` unused).
    pub c: Vec<f64>,
}

impl Tridiag {
    /// Construct and validate band lengths.
    ///
    /// # Panics
    /// Panics when the three bands disagree in length.
    pub fn new(a: Vec<f64>, b: Vec<f64>, c: Vec<f64>) -> Self {
        assert_eq!(a.len(), b.len(), "band length mismatch");
        assert_eq!(b.len(), c.len(), "band length mismatch");
        Tridiag { a, b, c }
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.b.len()
    }

    /// Multiply `T·x` (for residual checks and explicit stepping).
    ///
    /// # Panics
    /// Panics if `x.len() != n`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let n = self.n();
        assert_eq!(x.len(), n);
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = self.b[i] * x[i];
            if i > 0 {
                s += self.a[i] * x[i - 1];
            }
            if i + 1 < n {
                s += self.c[i] * x[i + 1];
            }
            y[i] = s;
        }
        y
    }

    /// Solve with the Thomas algorithm (O(n), sequential).
    ///
    /// Numerically safe for diagonally dominant systems, which all the
    /// PDE discretisations in this workspace produce.
    pub fn solve_thomas(&self, d: &[f64]) -> Result<Vec<f64>, MathError> {
        let mut x = vec![0.0; self.n()];
        self.solve_thomas_into(d, &mut ThomasScratch::default(), &mut x)?;
        Ok(x)
    }

    /// [`Self::solve_thomas`] writing the solution into `x` and reusing
    /// the elimination buffers in `scratch` — the allocation-free form
    /// batched line solves call in a loop. Arithmetic is identical to
    /// `solve_thomas`, so results are bitwise equal.
    ///
    /// # Panics
    /// Panics when `d` or `x` disagree with the system size.
    pub fn solve_thomas_into(
        &self,
        d: &[f64],
        scratch: &mut ThomasScratch,
        x: &mut [f64],
    ) -> Result<(), MathError> {
        let n = self.n();
        assert_eq!(d.len(), n);
        assert_eq!(x.len(), n);
        if n == 0 {
            return Ok(());
        }
        scratch.cp.resize(n, 0.0);
        scratch.dp.resize(n, 0.0);
        let (cp, dp) = (&mut scratch.cp, &mut scratch.dp);
        if self.b[0].abs() < 1e-300 {
            return Err(MathError::Singular { index: 0 });
        }
        cp[0] = self.c[0] / self.b[0];
        dp[0] = d[0] / self.b[0];
        for i in 1..n {
            let m = self.b[i] - self.a[i] * cp[i - 1];
            if m.abs() < 1e-300 {
                return Err(MathError::Singular { index: i });
            }
            cp[i] = self.c[i] / m;
            dp[i] = (d[i] - self.a[i] * dp[i - 1]) / m;
        }
        x[n - 1] = dp[n - 1];
        for i in (0..n - 1).rev() {
            x[i] = dp[i] - cp[i] * x[i + 1];
        }
        Ok(())
    }

    /// Precompute the Thomas elimination factors of this system for
    /// repeated solves against many right-hand sides.
    pub fn factor(&self) -> Result<FactoredTridiag, MathError> {
        FactoredTridiag::new(self)
    }
}

/// Thomas elimination factors of a [`Tridiag`], computed once and reused
/// across arbitrarily many right-hand sides.
///
/// The ADI and Crank–Nicolson steppers solve the *same* constant matrix
/// `(I − θΔt·A)` for every grid line of every time step; the `c'` sweep
/// and the pivots `m_i = b_i − a_i·c'_{i−1}` depend only on the matrix,
/// so factoring once removes them from the per-line critical path.
///
/// **Bitwise contract**: the factors are computed with the exact same
/// expressions as [`Tridiag::solve_thomas_into`], and the per-solve
/// sweeps keep the *division* by the stored pivot (rather than
/// multiplying by a precomputed reciprocal, which would round
/// differently). Every solve is therefore bit-for-bit equal to the
/// unfactored Thomas solve — the parallel and blocked PDE drivers rely
/// on this to stay bitwise-identical to their scalar oracles.
#[derive(Debug, Clone)]
pub struct FactoredTridiag {
    /// Sub-diagonal of the original system (forward-sweep multiplier).
    a: Vec<f64>,
    /// Eliminated super-diagonal `c'_i = c_i / m_i`.
    cp: Vec<f64>,
    /// Forward-elimination pivots `m_0 = b_0`, `m_i = b_i − a_i·c'_{i−1}`.
    piv: Vec<f64>,
}

impl FactoredTridiag {
    /// Run the elimination sweep once, storing `c'` and the pivots.
    ///
    /// Fails (like the solve would) when a pivot underflows to zero.
    pub fn new(t: &Tridiag) -> Result<Self, MathError> {
        let n = t.n();
        let mut cp = vec![0.0; n];
        let mut piv = vec![0.0; n];
        if n > 0 {
            if t.b[0].abs() < 1e-300 {
                return Err(MathError::Singular { index: 0 });
            }
            piv[0] = t.b[0];
            cp[0] = t.c[0] / t.b[0];
            for i in 1..n {
                let m = t.b[i] - t.a[i] * cp[i - 1];
                if m.abs() < 1e-300 {
                    return Err(MathError::Singular { index: i });
                }
                piv[i] = m;
                cp[i] = t.c[i] / m;
            }
        }
        Ok(FactoredTridiag {
            a: t.a.clone(),
            cp,
            piv,
        })
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.piv.len()
    }

    /// Solve one right-hand side into `x`: [`Self::forward`] reading
    /// `d`, then [`Self::backward`].
    ///
    /// Bitwise-equal to [`Tridiag::solve_thomas_into`] on the same
    /// system: `d'_i = (d_i − a_i·d'_{i−1}) / m_i` divides by the stored
    /// pivot exactly as the fused sweep does.
    ///
    /// # Panics
    /// Panics when `d` or `x` disagree with the system size.
    pub fn solve_into(&self, d: &[f64], x: &mut [f64]) {
        assert_eq!(d.len(), self.n());
        self.forward(x, |i| d[i]);
        self.backward(x, |_, xi| xi);
    }

    /// The forward-elimination half of a solve:
    /// `d'_0 = d_0 / m_0`, `d'_i = (d_i − a_i·d'_{i−1}) / m_i`, top row
    /// first, writing `d'` into `dp`.
    ///
    /// Row `i`'s right-hand side is `row(i)`, read only when the sweep
    /// reaches that row, so a stepper can build each row inside this
    /// pass instead of filling a right-hand-side buffer first.
    ///
    /// # Panics
    /// Panics when `dp` disagrees with the system size.
    pub fn forward(&self, dp: &mut [f64], mut row: impl FnMut(usize) -> f64) {
        assert_eq!(dp.len(), self.n());
        let Some((first, rest)) = dp.split_first_mut() else {
            return;
        };
        let mut prev = row(0) / self.piv[0];
        *first = prev;
        let factors = self.a[1..].iter().zip(&self.piv[1..]);
        for (i, (x, (&a, &piv))) in rest.iter_mut().zip(factors).enumerate() {
            prev = (row(i + 1) - a * prev) / piv;
            *x = prev;
        }
    }

    /// The back-substitution half of a solve: `x` holds the `d'` of
    /// [`Self::forward`] on entry and the solution on exit
    /// (`x_{n−1} = d'_{n−1}`, `x_i = d'_i − c'_i·x_{i+1}`). Each solved
    /// `x_i` is handed to `emit(i, x_i)`, bottom row first, and the value
    /// `emit` returns is what is stored and carried into row `i − 1`. A
    /// plain solve returns `x_i`; a Brennan–Schwartz stepper returns it
    /// floored at the exercise value, so every row above reads the
    /// floored row below.
    ///
    /// # Panics
    /// Panics when `x` disagrees with the system size.
    pub fn backward(&self, x: &mut [f64], mut emit: impl FnMut(usize, f64) -> f64) {
        let n = self.n();
        assert_eq!(x.len(), n);
        let Some((last, rest)) = x.split_last_mut() else {
            return;
        };
        let mut next = emit(n - 1, *last);
        *last = next;
        for (i, (x, &cp)) in rest.iter_mut().zip(&self.cp[..n - 1]).enumerate().rev() {
            next = emit(i, *x - cp * next);
            *x = next;
        }
    }

    /// Solve a whole panel of right-hand sides in one pass:
    /// [`Self::forward_panel`] then [`Self::backward_panel`].
    ///
    /// `panel` holds `w = panel.len() / n` independent systems in
    /// *transposed* (line-interleaved) layout: row `i` of the panel is
    /// the `w` lane values of unknown `i`, stored contiguously. Each
    /// sweep step then touches one contiguous row — stride-1 across
    /// lanes — so the compiler vectorises across the independent lines
    /// while the serial dependency runs down the rows. Per lane the
    /// arithmetic is exactly [`Self::solve_into`], so every line's
    /// solution is bitwise-equal to its scalar solve.
    ///
    /// # Panics
    /// Panics when `panel.len()` is not a multiple of the system size.
    pub fn solve_panel_transposed(&self, panel: &mut [f64]) {
        self.forward_panel(panel, |_, _| {});
        self.backward_panel(panel, |_, _| {});
    }

    /// Lane count of a transposed panel over this system.
    fn panel_width(&self, panel: &[f64]) -> usize {
        let n = self.n();
        if n == 0 {
            assert!(panel.is_empty(), "panel rows must match system size");
            return 0;
        }
        assert_eq!(panel.len() % n, 0, "panel rows must match system size");
        panel.len() / n
    }

    /// The forward-elimination half of a panel solve, per lane exactly
    /// [`Self::forward`]: row `i` is first handed to `row(i, lanes)`,
    /// which may write its right-hand sides in place (a stepper builds
    /// them inside this pass), and is then eliminated against row `i − 1`.
    ///
    /// # Panics
    /// Panics when `panel.len()` is not a multiple of the system size.
    pub fn forward_panel(&self, panel: &mut [f64], mut row: impl FnMut(usize, &mut [f64])) {
        let w = self.panel_width(panel);
        if w == 0 {
            return;
        }
        let first = &mut panel[..w];
        row(0, first);
        for lane in first {
            *lane /= self.piv[0];
        }
        for i in 1..self.n() {
            let (prev, cur) = panel[(i - 1) * w..(i + 1) * w].split_at_mut(w);
            row(i, cur);
            let ai = self.a[i];
            let pivi = self.piv[i];
            for (x, &xm) in cur.iter_mut().zip(prev.iter()) {
                *x = (*x - ai * xm) / pivi;
            }
        }
    }

    /// The back-substitution half of a panel solve, per lane exactly
    /// [`Self::backward`]: each solved row is handed to `emit(i, lanes)`,
    /// bottom row first, and row `i − 1` substitutes whatever `emit`
    /// left in it (a Brennan–Schwartz stepper floors it in place).
    ///
    /// # Panics
    /// Panics when `panel.len()` is not a multiple of the system size.
    pub fn backward_panel(&self, panel: &mut [f64], mut emit: impl FnMut(usize, &mut [f64])) {
        let w = self.panel_width(panel);
        if w == 0 {
            return;
        }
        let n = self.n();
        emit(n - 1, &mut panel[(n - 1) * w..]);
        for i in (0..n - 1).rev() {
            let (cur, next) = panel[i * w..(i + 2) * w].split_at_mut(w);
            let cpi = self.cp[i];
            for (x, &xp) in cur.iter_mut().zip(next.iter()) {
                *x -= cpi * xp;
            }
            emit(i, cur);
        }
    }
}

/// The θ-scheme stage matrix `(I − θΔt·L)` for a constant-coefficient
/// spatial operator `L = a·∂₋ + b·I + c·∂₊` on `interior` unknowns.
///
/// Every finite-difference stepper in the workspace (Crank–Nicolson,
/// each ADI stage) builds exactly this system; sharing the construction
/// guarantees fresh plans and tick patches produce bit-identical bands
/// from equal inputs.
pub fn theta_system(theta: f64, dt: f64, a: f64, b: f64, c: f64, interior: usize) -> Tridiag {
    Tridiag::new(
        vec![-theta * dt * a; interior],
        vec![1.0 - theta * dt * b; interior],
        vec![-theta * dt * c; interior],
    )
}

/// [`theta_system`] plus its Thomas elimination factors, for steppers
/// that solve the stage matrix against many right-hand sides.
pub fn factored_theta_system(
    theta: f64,
    dt: f64,
    a: f64,
    b: f64,
    c: f64,
    interior: usize,
) -> Result<(Tridiag, FactoredTridiag), MathError> {
    let sys = theta_system(theta, dt, a, b, c, interior);
    let fac = sys.factor()?;
    Ok((sys, fac))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn laplacian(n: usize) -> Tridiag {
        Tridiag::new(vec![-1.0; n], vec![2.5; n], vec![-1.0; n])
    }

    #[test]
    fn thomas_solves_laplacian() {
        let t = laplacian(50);
        let d: Vec<f64> = (0..50).map(|i| (i as f64 * 0.1).sin()).collect();
        let x = t.solve_thomas(&d).unwrap();
        let back = t.mul_vec(&x);
        for (l, r) in back.iter().zip(&d) {
            assert!(approx_eq(*l, *r, 1e-12));
        }
    }

    #[test]
    fn thomas_matches_exact_small_system() {
        // [2 1; 1 2] x = [3; 3] → x = [1; 1].
        let t = Tridiag::new(vec![0.0, 1.0], vec![2.0, 2.0], vec![1.0, 0.0]);
        let x = t.solve_thomas(&[3.0, 3.0]).unwrap();
        assert!(approx_eq(x[0], 1.0, 1e-14));
        assert!(approx_eq(x[1], 1.0, 1e-14));
    }

    #[test]
    fn thomas_single_equation() {
        let t = Tridiag::new(vec![0.0], vec![4.0], vec![0.0]);
        assert_eq!(t.solve_thomas(&[8.0]).unwrap(), vec![2.0]);
    }

    #[test]
    fn thomas_empty_system() {
        let t = Tridiag::new(vec![], vec![], vec![]);
        assert!(t.solve_thomas(&[]).unwrap().is_empty());
    }

    #[test]
    fn solve_into_reuses_scratch_across_sizes_bitwise() {
        let mut scratch = ThomasScratch::default();
        let mut x = vec![0.0; 64];
        // Shrinking then growing the system size must not leak state
        // between solves: every reused solve matches the allocating one
        // bit for bit.
        for n in [64usize, 7, 33, 64, 1] {
            let t = laplacian(n);
            let d: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).cos()).collect();
            x.resize(n, 0.0);
            t.solve_thomas_into(&d, &mut scratch, &mut x).unwrap();
            let fresh = t.solve_thomas(&d).unwrap();
            for (a, b) in x.iter().zip(&fresh) {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn factored_solve_matches_thomas_bitwise() {
        let t = laplacian(101);
        let fac = t.factor().unwrap();
        let mut scratch = ThomasScratch::default();
        let mut xf = vec![0.0; 101];
        let mut xt = vec![0.0; 101];
        for k in 0..4 {
            let d: Vec<f64> = (0..101)
                .map(|i| (i as f64 * 0.13 + k as f64).sin())
                .collect();
            fac.solve_into(&d, &mut xf);
            t.solve_thomas_into(&d, &mut scratch, &mut xt).unwrap();
            for (a, b) in xf.iter().zip(&xt) {
                assert_eq!(a.to_bits(), b.to_bits(), "k={k}");
            }
        }
    }

    #[test]
    fn halves_read_rows_top_down_and_emit_the_solution_bottom_up() {
        let n = 23;
        let t = laplacian(n);
        let fac = t.factor().unwrap();
        let d: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let want = t.solve_thomas(&d).unwrap();
        let mut x = vec![0.0; n];
        let mut read = Vec::new();
        fac.forward(&mut x, |i| {
            read.push(i);
            d[i]
        });
        assert_eq!(read, (0..n).collect::<Vec<_>>());
        let mut emitted = Vec::new();
        fac.backward(&mut x, |i, xi| {
            emitted.push((i, xi));
            xi
        });
        assert_eq!(emitted.len(), n);
        for (k, &(i, xi)) in emitted.iter().enumerate() {
            assert_eq!(i, n - 1 - k);
            assert_eq!(xi.to_bits(), want[i].to_bits());
            assert_eq!(x[i].to_bits(), want[i].to_bits());
        }
    }

    #[test]
    fn backward_carries_the_emitted_value_into_the_next_row() {
        // A floored substitution (Brennan–Schwartz): each row must read
        // the floored row below it, in the scalar and the panel halves.
        let n = 9;
        let t = laplacian(n);
        let fac = t.factor().unwrap();
        let d: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).sin()).collect();
        let floor = 0.05;
        let mut want = vec![0.0; n];
        fac.forward(&mut want, |i| d[i]);
        let dp = want.clone();
        let plain = t.solve_thomas(&d).unwrap();
        let mut next = dp[n - 1].max(floor);
        want[n - 1] = next;
        for i in (0..n - 1).rev() {
            // c'_i recovered from an unfloored solve: x_i = d'_i − c'_i·x_{i+1}.
            let cp = (dp[i] - plain[i]) / plain[i + 1];
            next = (dp[i] - cp * next).max(floor);
            want[i] = next;
        }
        let mut x = vec![0.0; n];
        fac.forward(&mut x, |i| d[i]);
        fac.backward(&mut x, |_, xi| xi.max(floor));
        let mut panel = d.clone();
        fac.forward_panel(&mut panel, |_, _| {});
        fac.backward_panel(&mut panel, |_, row| row[0] = row[0].max(floor));
        for i in 0..n {
            assert!((x[i] - want[i]).abs() < 1e-12, "row {i}");
            assert_eq!(x[i].to_bits(), panel[i].to_bits(), "row {i}");
        }
        assert!(x.contains(&floor) && x.iter().any(|&v| v > floor));
    }

    #[test]
    fn factored_panel_matches_per_line_solves_bitwise() {
        let n = 37;
        let t = laplacian(n);
        let fac = t.factor().unwrap();
        for w in [1usize, 2, 5, 64] {
            // Lane l of the panel is its own RHS, interleaved row-major.
            let mut panel = vec![0.0; n * w];
            for i in 0..n {
                for l in 0..w {
                    panel[i * w + l] = ((i * 7 + l * 3) as f64 * 0.11).cos();
                }
            }
            let lanes: Vec<Vec<f64>> = (0..w)
                .map(|l| {
                    let d: Vec<f64> = (0..n).map(|i| panel[i * w + l]).collect();
                    t.solve_thomas(&d).unwrap()
                })
                .collect();
            fac.solve_panel_transposed(&mut panel);
            for (l, lane) in lanes.iter().enumerate() {
                for i in 0..n {
                    assert_eq!(
                        panel[i * w + l].to_bits(),
                        lane[i].to_bits(),
                        "w={w} lane={l} row={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn factored_edge_cases() {
        // Single equation and empty system.
        let one = Tridiag::new(vec![0.0], vec![4.0], vec![0.0]);
        let fac = one.factor().unwrap();
        let mut x = [0.0];
        fac.solve_into(&[8.0], &mut x);
        assert_eq!(x[0], 2.0);
        let empty = Tridiag::new(vec![], vec![], vec![]);
        let fac = empty.factor().unwrap();
        fac.solve_into(&[], &mut []);
        fac.solve_panel_transposed(&mut []);
        // Singular pivots are caught at factor time.
        let sing = Tridiag::new(vec![0.0, 0.0], vec![0.0, 1.0], vec![0.0, 0.0]);
        assert!(sing.factor().is_err());
    }

    #[test]
    fn theta_system_builds_stage_matrix() {
        let (theta, dt, a, b, c) = (0.5, 0.01, 1.2, -3.4, 2.1);
        let sys = theta_system(theta, dt, a, b, c, 9);
        assert_eq!(sys.n(), 9);
        for i in 0..9 {
            assert_eq!(sys.a[i].to_bits(), (-theta * dt * a).to_bits());
            assert_eq!(sys.b[i].to_bits(), (1.0 - theta * dt * b).to_bits());
            assert_eq!(sys.c[i].to_bits(), (-theta * dt * c).to_bits());
        }
        // θ = 0 degenerates to the identity.
        let id = theta_system(0.0, dt, a, b, c, 4);
        assert!(id.b.iter().all(|&x| x == 1.0));
        let (sys2, fac) = factored_theta_system(theta, dt, a, b, c, 9).unwrap();
        let d: Vec<f64> = (0..9).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut xf = vec![0.0; 9];
        fac.solve_into(&d, &mut xf);
        let xt = sys2.solve_thomas(&d).unwrap();
        for (p, q) in xf.iter().zip(&xt) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn singular_diagonal_detected() {
        let t = Tridiag::new(vec![0.0, 0.0], vec![0.0, 1.0], vec![0.0, 0.0]);
        assert!(t.solve_thomas(&[1.0, 1.0]).is_err());
    }

    #[test]
    fn mul_vec_tridiagonal_structure() {
        let t = Tridiag::new(
            vec![0.0, 1.0, 1.0],
            vec![2.0, 2.0, 2.0],
            vec![1.0, 1.0, 0.0],
        );
        let y = t.mul_vec(&[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![3.0, 4.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "band length")]
    fn band_length_mismatch_panics() {
        let _ = Tridiag::new(vec![0.0], vec![1.0, 2.0], vec![0.0, 0.0]);
    }
}
