//! Error type shared by the numerical kernels.

use std::fmt;

/// Errors produced by the numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum MathError {
    /// A matrix that must be square was not (`rows`, `cols`).
    NotSquare { rows: usize, cols: usize },
    /// Dimensions of two operands are incompatible.
    DimensionMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Shape of the left operand.
        left: (usize, usize),
        /// Shape of the right operand.
        right: (usize, usize),
    },
    /// Cholesky factorisation hit a non-positive pivot: the matrix is not
    /// positive definite (pivot value and index attached).
    NotPositiveDefinite { pivot: f64, index: usize },
    /// A tridiagonal elimination found the matrix singular to working
    /// precision (zero pivot at `index`).
    Singular { index: usize },
    /// An argument was outside its mathematical domain.
    Domain { what: &'static str, value: f64 },
    /// A Sobol' sequence was requested in more dimensions than supported.
    SobolDimension { requested: usize, max: usize },
    /// An iterative routine failed to converge.
    NoConvergence {
        what: &'static str,
        iterations: usize,
    },
}

impl fmt::Display for MathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MathError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}x{cols}")
            }
            MathError::DimensionMismatch { op, left, right } => write!(
                f,
                "dimension mismatch in {op}: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            MathError::NotPositiveDefinite { pivot, index } => write!(
                f,
                "matrix not positive definite (pivot {pivot:.3e} at index {index})"
            ),
            MathError::Singular { index } => {
                write!(f, "matrix singular to working precision at index {index}")
            }
            MathError::Domain { what, value } => {
                write!(f, "domain error: {what} got {value}")
            }
            MathError::SobolDimension { requested, max } => write!(
                f,
                "Sobol' sequence supports at most {max} dimensions, requested {requested}"
            ),
            MathError::NoConvergence { what, iterations } => {
                write!(f, "{what} did not converge after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for MathError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MathError::NotPositiveDefinite {
            pivot: -1e-3,
            index: 4,
        };
        let s = e.to_string();
        assert!(s.contains("positive definite"));
        assert!(s.contains('4'));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            MathError::Singular { index: 2 },
            MathError::Singular { index: 2 }
        );
        assert_ne!(
            MathError::Singular { index: 2 },
            MathError::Singular { index: 3 }
        );
    }
}
