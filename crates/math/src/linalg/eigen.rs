//! Symmetric eigendecomposition (cyclic Jacobi) and the nearest-
//! correlation-matrix projection.
//!
//! Estimated correlation matrices are routinely *not* positive
//! semidefinite (pairwise estimation, missing data, stress overrides).
//! [`nearest_correlation`] repairs them by the classic spectral
//! projection: clip negative eigenvalues, rescale to unit diagonal —
//! one step of Higham's alternating projections, which is the standard
//! fix-up and is idempotent on already-valid matrices.

use super::Matrix;
use crate::MathError;

/// Eigendecomposition `A = V·diag(λ)·Vᵀ` of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors as matrix columns (same order).
    pub vectors: Matrix,
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix.
///
/// Quadratically convergent and unconditionally stable; ideal for the
/// small (d ≤ ~50) matrices of this workspace.
pub fn symmetric_eigen(a: &Matrix) -> Result<SymmetricEigen, MathError> {
    if !a.is_square() {
        return Err(MathError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if !a.is_symmetric(1e-10 * a.max_abs().max(1.0)) {
        return Err(MathError::Domain {
            what: "symmetric_eigen needs a symmetric matrix",
            value: f64::NAN,
        });
    }
    let n = a.rows();
    let mut m = a.clone();
    let mut v = Matrix::identity(n);
    let tol = 1e-14 * a.max_abs().max(1.0);
    for _sweep in 0..100 {
        // Largest off-diagonal magnitude this sweep.
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                off = off.max(m[(p, q)].abs());
            }
        }
        if off < tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() < tol {
                    continue;
                }
                // Jacobi rotation annihilating m[p][q].
                let theta = (m[(q, q)] - m[(p, p)]) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    // Extract and sort descending.
    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m[(i, i)], i)).collect();
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let values: Vec<f64> = pairs.iter().map(|(l, _)| *l).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &(_, old_col)) in pairs.iter().enumerate() {
        for r in 0..n {
            vectors[(r, new_col)] = v[(r, old_col)];
        }
    }
    Ok(SymmetricEigen { values, vectors })
}

/// Project a symmetric matrix to the nearest correlation matrix
/// (spectral clip + unit-diagonal rescale; one Higham projection pair).
///
/// Returns the input unchanged (up to round-off) when it is already a
/// valid correlation matrix.
pub fn nearest_correlation(a: &Matrix, eig_floor: f64) -> Result<Matrix, MathError> {
    let eig = symmetric_eigen(a)?;
    let n = a.rows();
    // B = V·diag(max(λ, floor))·Vᵀ.
    let mut b = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            for (k, &lam) in eig.values.iter().enumerate() {
                acc += eig.vectors[(i, k)] * lam.max(eig_floor) * eig.vectors[(j, k)];
            }
            b[(i, j)] = acc;
        }
    }
    // Rescale to unit diagonal: C = D^{-1/2}·B·D^{-1/2}.
    let mut c = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            c[(i, j)] = b[(i, j)] / (b[(i, i)] * b[(j, j)]).sqrt();
        }
    }
    // Exact symmetry and unit diagonal despite round-off.
    for i in 0..n {
        c[(i, i)] = 1.0;
        for j in (i + 1)..n {
            let avg = 0.5 * (c[(i, j)] + c[(j, i)]);
            c[(i, j)] = avg;
            c[(j, i)] = avg;
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::linalg::Cholesky;

    #[test]
    fn diagonal_matrix_eigenvalues_are_diagonal() {
        let a = Matrix::from_rows(&[
            vec![3.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 2.0],
        ]);
        let e = symmetric_eigen(&a).unwrap();
        assert!(approx_eq(e.values[0], 3.0, 1e-12));
        assert!(approx_eq(e.values[1], 2.0, 1e-12));
        assert!(approx_eq(e.values[2], 1.0, 1e-12));
    }

    #[test]
    fn known_2x2_eigensystem() {
        // [[2,1],[1,2]]: λ = 3, 1 with vectors (1,1)/√2 and (1,−1)/√2.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let e = symmetric_eigen(&a).unwrap();
        assert!(approx_eq(e.values[0], 3.0, 1e-12));
        assert!(approx_eq(e.values[1], 1.0, 1e-12));
        let v0 = (e.vectors[(0, 0)], e.vectors[(1, 0)]);
        assert!(approx_eq(v0.0.abs(), 1.0 / 2f64.sqrt(), 1e-10));
        assert!(approx_eq(v0.0, v0.1, 1e-10));
    }

    #[test]
    fn reconstruction_and_orthonormality() {
        let a = Matrix::from_rows(&[
            vec![4.0, 1.0, -0.5, 0.2],
            vec![1.0, 3.0, 0.7, -0.3],
            vec![-0.5, 0.7, 2.0, 0.1],
            vec![0.2, -0.3, 0.1, 1.0],
        ]);
        let e = symmetric_eigen(&a).unwrap();
        // VᵀV = I.
        let vtv = e.vectors.transpose().mul_checked(&e.vectors).unwrap();
        assert!((&vtv - &Matrix::identity(4)).max_abs() < 1e-10);
        // V·Λ·Vᵀ = A.
        let mut lam = Matrix::zeros(4, 4);
        for i in 0..4 {
            lam[(i, i)] = e.values[i];
        }
        let back = e
            .vectors
            .mul_checked(&lam)
            .unwrap()
            .mul_checked(&e.vectors.transpose())
            .unwrap();
        assert!((&back - &a).max_abs() < 1e-10);
    }

    #[test]
    fn trace_and_determinant_preserved() {
        let a = Matrix::from_rows(&[
            vec![2.0, 0.5, 0.1],
            vec![0.5, 1.5, -0.2],
            vec![0.1, -0.2, 1.0],
        ]);
        let e = symmetric_eigen(&a).unwrap();
        let trace: f64 = (0..3).map(|i| a[(i, i)]).sum();
        assert!(approx_eq(e.values.iter().sum::<f64>(), trace, 1e-12));
        // Cofactor expansion along the first row.
        let det = a[(0, 0)] * (a[(1, 1)] * a[(2, 2)] - a[(1, 2)] * a[(2, 1)])
            - a[(0, 1)] * (a[(1, 0)] * a[(2, 2)] - a[(1, 2)] * a[(2, 0)])
            + a[(0, 2)] * (a[(1, 0)] * a[(2, 1)] - a[(1, 1)] * a[(2, 0)]);
        assert!(approx_eq(e.values.iter().product::<f64>(), det, 1e-10));
    }

    #[test]
    fn rejects_asymmetric_and_rectangular() {
        let bad = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0]]);
        assert!(symmetric_eigen(&bad).is_err());
        assert!(symmetric_eigen(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn nearest_correlation_repairs_indefinite_matrix() {
        // ρ = −0.9 pairwise on 3 assets: indefinite (needs ρ ≥ −1/2).
        let mut a = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    a[(i, j)] = -0.9;
                }
            }
        }
        assert!(Cholesky::factor(&a).is_err());
        let c = nearest_correlation(&a, 1e-8).unwrap();
        // Valid: unit diagonal, symmetric, PSD (Cholesky succeeds with a
        // small jitter floor).
        for i in 0..3 {
            assert_eq!(c[(i, i)], 1.0);
        }
        assert!(Cholesky::factor(&c).is_ok(), "{c}");
        // Off-diagonals pulled toward the feasible boundary (−0.5).
        assert!(c[(0, 1)] > -0.55 && c[(0, 1)] < -0.4, "{}", c[(0, 1)]);
    }

    #[test]
    fn nearest_correlation_fixes_valid_matrix_to_itself() {
        let a = Matrix::from_rows(&[
            vec![1.0, 0.5, 0.2],
            vec![0.5, 1.0, 0.3],
            vec![0.2, 0.3, 1.0],
        ]);
        let c = nearest_correlation(&a, 0.0).unwrap();
        assert!((&c - &a).max_abs() < 1e-10, "{c}");
    }

    #[test]
    fn repaired_matrix_usable_downstream() {
        let mut a = Matrix::identity(4);
        // An inconsistent stress override: strong positives plus one
        // impossible negative.
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    a[(i, j)] = 0.8;
                }
            }
        }
        a[(0, 1)] = -0.9;
        a[(1, 0)] = -0.9;
        assert!(Cholesky::factor(&a).is_err());
        let c = nearest_correlation(&a, 1e-8).unwrap();
        assert!(Cholesky::factor(&c).is_ok());
    }
}
