//! Small dense and banded linear algebra.
//!
//! The pricing engines need two solvers, on matrices whose dimension is
//! the number of assets (≤ ~20) or regression basis size (≤ ~50), and
//! on tridiagonal systems of grid size for the PDE engines:
//!
//! * [`Cholesky`] — correlation-matrix factorisation for correlated
//!   Gaussian sampling (every Monte Carlo path starts here), and the
//!   solve of the Longstaff–Schwartz normal equations `XᵀX β = Xᵀy`
//!   under a tiny ridge.
//! * [`tridiag`] — Thomas tridiagonal solvers (unfactored, and factored
//!   once for many right-hand sides) for Crank–Nicolson/ADI time
//!   stepping.
//!
//! [`symmetric_eigen`] and [`nearest_correlation`] repair an indefinite
//! correlation matrix into the nearest valid one.
//!
//! Sizes are small, so the implementations favour clarity and numerical
//! robustness over blocking/SIMD; the hot loops of the engines are in path
//! generation and lattice sweeps, not here.

mod cholesky;
mod eigen;
mod matrix;
pub mod tridiag;

pub use cholesky::Cholesky;
pub use eigen::{nearest_correlation, symmetric_eigen, SymmetricEigen};
pub use matrix::Matrix;
pub use tridiag::{factored_theta_system, theta_system, FactoredTridiag, ThomasScratch, Tridiag};
