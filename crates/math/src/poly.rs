//! Polynomial bases for the Longstaff–Schwartz conditional-expectation
//! regression.
//!
//! The continuation value E[V_{t+1} | S_t] is approximated by a linear
//! combination of basis functions of the (normalised) asset prices.
//! Longstaff & Schwartz used weighted Laguerre polynomials; plain
//! monomials and Hermite polynomials are common too, and for multi-asset
//! products a cross-product basis is required. All three families plus a
//! multidimensional tensor basis are provided.

/// Basis family for scalar regressors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisKind {
    /// 1, x, x², …
    Monomial,
    /// Laguerre polynomials L₀, L₁, … (orthogonal on [0,∞) w.r.t. e^{-x}).
    Laguerre,
    /// Probabilists' Hermite polynomials He₀, He₁, …
    Hermite,
}

/// Evaluate the first `count` basis functions of `kind` at `x` into `out`.
///
/// # Panics
/// Panics if `out.len() < count`.
pub fn eval_basis(kind: BasisKind, x: f64, count: usize, out: &mut [f64]) {
    assert!(out.len() >= count);
    if count == 0 {
        return;
    }
    out[0] = 1.0;
    let terms = &mut out[1..count];
    match kind {
        BasisKind::Monomial => recur(terms, x, |_, p, _| p * x),
        BasisKind::Laguerre => recur(terms, 1.0 - x, |k, p, q| laguerre_next(k, x, p, q)),
        BasisKind::Hermite => recur(terms, x, |k, p, q| hermite_next(k, x, p, q)),
    }
}

/// `L_{k+1}` from `p = L_k` and `q = L_{k−1}`:
/// `(k+1) L_{k+1} = (2k+1−x) L_k − k L_{k−1}`.
#[inline(always)]
fn laguerre_next(k: usize, x: f64, p: f64, q: f64) -> f64 {
    (((2 * k + 1) as f64 - x) * p - k as f64 * q) / (k + 1) as f64
}

/// `He_{k+1} = x He_k − k He_{k−1}` from `p = He_k` and `q = He_{k−1}`.
#[inline(always)]
fn hermite_next(k: usize, x: f64, p: f64, q: f64) -> f64 {
    x * p - k as f64 * q
}

/// Write `P_1 … P_n` into `out` (`n = out.len()`) from `P_0 = 1`,
/// `P_1 = first` and `P_{k+1} = next(k, P_k, P_{k−1})`.
#[inline(always)]
fn recur(out: &mut [f64], first: f64, next: impl Fn(usize, f64, f64) -> f64) {
    let Some((p1, rest)) = out.split_first_mut() else {
        return;
    };
    *p1 = first;
    let (mut q, mut p) = (1.0, first);
    for (k, o) in (1..).zip(rest) {
        let n = next(k, p, q);
        *o = n;
        (q, p) = (p, n);
    }
}

/// A multidimensional regression basis: per-asset scalar bases up to
/// `degree`, all pairwise cross terms `x_i·x_j`, and a constant.
///
/// This is the standard LSMC basis for baskets: rich enough to capture
/// the exercise boundary of 2–5 asset products without exploding in size.
#[derive(Debug, Clone)]
pub struct TensorBasis {
    /// Number of assets d.
    pub dim: usize,
    /// Scalar degree per asset (≥ 1).
    pub degree: usize,
    /// Scalar family.
    pub kind: BasisKind,
    /// Include pairwise cross terms.
    pub cross_terms: bool,
}

impl TensorBasis {
    /// Standard LSMC basis: given d assets and scalar degree `degree`.
    pub fn new(dim: usize, degree: usize, kind: BasisKind) -> Self {
        assert!(dim > 0 && degree >= 1);
        TensorBasis {
            dim,
            degree,
            kind,
            cross_terms: dim > 1,
        }
    }

    /// Total number of basis functions.
    pub fn size(&self) -> usize {
        // 1 constant + d·degree scalar terms + C(d,2) cross terms.
        let cross = if self.cross_terms {
            self.dim * (self.dim - 1) / 2
        } else {
            0
        };
        1 + self.dim * self.degree + cross
    }

    /// Evaluate at `n` points held as columns: asset `i`'s coordinates
    /// are `x[i·stride..i·stride + n]`, and function `j`'s values go to
    /// `out[j·stride..j·stride + n]`. The functions are the constant,
    /// asset i's terms `1..=degree` at `1 + i·degree ..`, then the cross
    /// terms `x_i·x_j` (`i < j`) in row order. Each column runs the
    /// recurrence [`eval_basis`] runs, one point per lane, so every value
    /// is its bits.
    ///
    /// # Panics
    /// Panics if `n > stride`, or if `x` is shorter than `dim` columns or
    /// `out` shorter than `size()` columns.
    pub fn eval_columns(&self, x: &[f64], stride: usize, n: usize, out: &mut [f64]) {
        assert!(n <= stride);
        assert!(x.len() >= self.dim * stride);
        assert!(out.len() >= self.size() * stride);
        let col = |j: usize| j * stride..j * stride + n;
        out[col(0)].fill(1.0);
        let (scalar, cross) = out.split_at_mut((1 + self.dim * self.degree) * stride);
        // The family is matched once per asset, not once per point.
        for i in 0..self.dim {
            let xi = &x[col(i)];
            let terms = &mut scalar[(1 + i * self.degree) * stride..][..self.degree * stride];
            match self.kind {
                BasisKind::Monomial => recur_columns(terms, stride, xi, |x| x, |_, x, p, _| p * x),
                BasisKind::Laguerre => recur_columns(terms, stride, xi, |x| 1.0 - x, laguerre_next),
                BasisKind::Hermite => recur_columns(terms, stride, xi, |x| x, hermite_next),
            }
        }
        if !self.cross_terms {
            return;
        }
        let mut cells = cross.chunks_mut(stride);
        for i in 0..self.dim {
            for j in i + 1..self.dim {
                let cell = &mut cells.next().expect("size() counts every pair")[..n];
                for ((o, &a), &b) in cell.iter_mut().zip(&x[col(i)]).zip(&x[col(j)]) {
                    *o = a * b;
                }
            }
        }
    }
}

/// Column form of [`recur`]: write `P_1 … P_m` at the points `x` into
/// the `m = terms.len() / stride` columns of `terms`, column `k − 1`
/// holding `P_k`, from `P_0 = 1`, `P_1 = first(x)` and
/// `P_{k+1} = next(k, x, P_k, P_{k−1})`.
#[inline(always)]
fn recur_columns(
    terms: &mut [f64],
    stride: usize,
    x: &[f64],
    first: impl Fn(f64) -> f64,
    next: impl Fn(usize, f64, f64, f64) -> f64,
) {
    let n = x.len();
    for (o, &xr) in terms[..n].iter_mut().zip(x) {
        *o = first(xr);
    }
    for k in 1..terms.len() / stride {
        let (done, rest) = terms.split_at_mut(k * stride);
        let p = &done[(k - 1) * stride..][..n];
        let out = &mut rest[..n];
        if k == 1 {
            for ((o, &xr), &pr) in out.iter_mut().zip(x).zip(p) {
                *o = next(k, xr, pr, 1.0);
            }
        } else {
            let q = &done[(k - 2) * stride..][..n];
            for (((o, &xr), &pr), &qr) in out.iter_mut().zip(x).zip(p).zip(q) {
                *o = next(k, xr, pr, qr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn monomials() {
        let mut out = [0.0; 4];
        eval_basis(BasisKind::Monomial, 2.0, 4, &mut out);
        assert_eq!(out, [1.0, 2.0, 4.0, 8.0]);
    }

    #[test]
    fn laguerre_known_values() {
        // L2(x) = (x² − 4x + 2)/2 at x=1 → −0.5; L3(1) = (−1³+9−18+6)/6 = −4/6.
        let mut out = [0.0; 4];
        eval_basis(BasisKind::Laguerre, 1.0, 4, &mut out);
        assert!(approx_eq(out[0], 1.0, 1e-15));
        assert!(approx_eq(out[1], 0.0, 1e-15));
        assert!(approx_eq(out[2], -0.5, 1e-14));
        assert!(approx_eq(out[3], -2.0 / 3.0, 1e-14));
    }

    #[test]
    fn hermite_known_values() {
        // He2(x) = x²−1, He3(x) = x³−3x at x=2 → 3, 2.
        let mut out = [0.0; 4];
        eval_basis(BasisKind::Hermite, 2.0, 4, &mut out);
        assert_eq!(out, [1.0, 2.0, 3.0, 2.0]);
    }

    #[test]
    fn zero_and_one_counts() {
        let mut out = [9.0; 2];
        eval_basis(BasisKind::Monomial, 5.0, 0, &mut out);
        assert_eq!(out, [9.0, 9.0]);
        eval_basis(BasisKind::Monomial, 5.0, 1, &mut out);
        assert_eq!(out[0], 1.0);
    }

    #[test]
    fn tensor_basis_size_and_layout() {
        let b = TensorBasis::new(3, 2, BasisKind::Monomial);
        // 1 + 3*2 + 3 cross = 10.
        assert_eq!(b.size(), 10);
        let x = [2.0, 3.0, 5.0];
        let mut out = vec![0.0; 10];
        b.eval_columns(&x, 1, 1, &mut out);
        assert_eq!(out[0], 1.0);
        assert_eq!(&out[1..3], &[2.0, 4.0]); // x1, x1²
        assert_eq!(&out[3..5], &[3.0, 9.0]);
        assert_eq!(&out[5..7], &[5.0, 25.0]);
        assert_eq!(&out[7..10], &[6.0, 10.0, 15.0]); // cross terms
    }

    #[test]
    fn tensor_basis_equals_per_asset_scalar_bases_bitwise() {
        // The column evaluator against `eval_basis` per point: every
        // family, d 1–3, degree 1–4, row counts around the 32-row tile,
        // columns strided wider than the rows, and the slots past each
        // column's rows left as they were.
        const STRIDE: usize = 40;
        let point = |r: usize, i: usize| 0.55 + 0.031 * ((7 * r + 13 * i) % 29) as f64;
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for kind in [BasisKind::Monomial, BasisKind::Laguerre, BasisKind::Hermite] {
            for dim in 1..=3 {
                for degree in 1..=4 {
                    let b = TensorBasis::new(dim, degree, kind);
                    for n in [0, 1, 31, 32, 33] {
                        let mut x = vec![f64::NAN; dim * STRIDE];
                        for i in 0..dim {
                            for r in 0..n {
                                x[i * STRIDE + r] = point(r, i);
                            }
                        }
                        let mut out = vec![f64::NAN; b.size() * STRIDE];
                        b.eval_columns(&x, STRIDE, n, &mut out);
                        let mut scalar = vec![0.0; degree + 1];
                        for r in 0..n {
                            let xr: Vec<f64> = (0..dim).map(|i| point(r, i)).collect();
                            let mut expect = vec![1.0];
                            for &xi in &xr {
                                eval_basis(kind, xi, degree + 1, &mut scalar);
                                expect.extend_from_slice(&scalar[1..]);
                            }
                            for i in 0..dim {
                                for j in i + 1..dim {
                                    expect.push(xr[i] * xr[j]);
                                }
                            }
                            let got: Vec<f64> =
                                (0..b.size()).map(|j| out[j * STRIDE + r]).collect();
                            assert_eq!(
                                bits(&got),
                                bits(&expect),
                                "{kind:?} d={dim} deg={degree} n={n} row {r}"
                            );
                        }
                        assert!(
                            out.chunks_exact(STRIDE)
                                .all(|c| c[n..].iter().all(|v| v.is_nan())),
                            "{kind:?} d={dim} deg={degree} n={n}: wrote past the rows"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tensor_basis_single_asset_has_no_cross() {
        let b = TensorBasis::new(1, 3, BasisKind::Laguerre);
        assert_eq!(b.size(), 4);
        let mut out = vec![0.0; 4];
        b.eval_columns(&[1.0], 1, 1, &mut out);
        // Layout: [1, L1(1), L2(1), L3(1)] with L1(1) = 0, L2(1) = −0.5.
        assert!(approx_eq(out[1], 0.0, 1e-15));
        assert!(approx_eq(out[2], -0.5, 1e-14));
    }

    #[test]
    #[should_panic]
    fn tensor_basis_wrong_input_length_panics() {
        let b = TensorBasis::new(2, 2, BasisKind::Monomial);
        let mut out = vec![0.0; b.size()];
        b.eval_columns(&[1.0], 1, 1, &mut out);
    }
}
