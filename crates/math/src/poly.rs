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

    /// Evaluate at the asset vector `x`, writing `self.size()` values:
    /// the constant, asset i's terms `1..=degree` at
    /// `out[1 + i·degree ..]`, then the cross terms `x_i·x_j` (`i < j`)
    /// in row order. Each term is the recurrence [`eval_basis`] runs, so
    /// the values are its bits.
    ///
    /// # Panics
    /// Panics if `x.len() != dim` or `out.len() != size()`.
    pub fn eval(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.dim);
        assert_eq!(out.len(), self.size());
        let (scalar, cross) = out.split_at_mut(1 + self.dim * self.degree);
        scalar[0] = 1.0;
        // The family is matched once per call, not once per asset.
        let assets = scalar[1..].chunks_exact_mut(self.degree).zip(x);
        match self.kind {
            BasisKind::Monomial => {
                for (terms, &xi) in assets {
                    recur(terms, xi, |_, p, _| p * xi);
                }
            }
            BasisKind::Laguerre => {
                for (terms, &xi) in assets {
                    recur(terms, 1.0 - xi, |k, p, q| laguerre_next(k, xi, p, q));
                }
            }
            BasisKind::Hermite => {
                for (terms, &xi) in assets {
                    recur(terms, xi, |k, p, q| hermite_next(k, xi, p, q));
                }
            }
        }
        // Without cross terms `cross` is empty and nothing is written.
        let mut cells = cross.iter_mut();
        for (i, &xi) in x.iter().enumerate() {
            for (&xj, cell) in x[i + 1..].iter().zip(cells.by_ref()) {
                *cell = xi * xj;
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
        b.eval(&x, &mut out);
        assert_eq!(out[0], 1.0);
        assert_eq!(&out[1..3], &[2.0, 4.0]); // x1, x1²
        assert_eq!(&out[3..5], &[3.0, 9.0]);
        assert_eq!(&out[5..7], &[5.0, 25.0]);
        assert_eq!(&out[7..10], &[6.0, 10.0, 15.0]); // cross terms
    }

    #[test]
    fn tensor_basis_equals_per_asset_scalar_bases_bitwise() {
        let x = [0.93, 1.07, 1.21];
        for kind in [BasisKind::Monomial, BasisKind::Laguerre, BasisKind::Hermite] {
            for dim in 1..=3 {
                for degree in 1..=4 {
                    let b = TensorBasis::new(dim, degree, kind);
                    let mut out = vec![f64::NAN; b.size()];
                    b.eval(&x[..dim], &mut out);
                    let mut expect = vec![1.0];
                    let mut scalar = vec![0.0; degree + 1];
                    for &xi in &x[..dim] {
                        eval_basis(kind, xi, degree + 1, &mut scalar);
                        expect.extend_from_slice(&scalar[1..]);
                    }
                    for i in 0..dim {
                        for j in i + 1..dim {
                            expect.push(x[i] * x[j]);
                        }
                    }
                    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&out), bits(&expect), "{kind:?} d={dim} deg={degree}");
                }
            }
        }
    }

    #[test]
    fn tensor_basis_single_asset_has_no_cross() {
        let b = TensorBasis::new(1, 3, BasisKind::Laguerre);
        assert_eq!(b.size(), 4);
        let mut out = vec![0.0; 4];
        b.eval(&[1.0], &mut out);
        // Layout: [1, L1(1), L2(1), L3(1)] with L1(1) = 0, L2(1) = −0.5.
        assert!(approx_eq(out[1], 0.0, 1e-15));
        assert!(approx_eq(out[2], -0.5, 1e-14));
    }

    #[test]
    #[should_panic]
    fn tensor_basis_wrong_input_length_panics() {
        let b = TensorBasis::new(2, 2, BasisKind::Monomial);
        let mut out = vec![0.0; b.size()];
        b.eval(&[1.0], &mut out);
    }
}
