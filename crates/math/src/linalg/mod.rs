//! Small dense and banded linear algebra.
//!
//! The pricing engines need exactly four solvers, all on matrices whose
//! dimension is the number of assets (≤ ~20) or regression basis size
//! (≤ ~50), plus tridiagonal systems of grid size for the PDE engines:
//!
//! * [`Cholesky`] — correlation-matrix factorisation for correlated
//!   Gaussian sampling (every Monte Carlo path starts here).
//! * [`Lu`] — general square solves and determinants.
//! * [`Qr`] — least squares for the Longstaff–Schwartz regression, where
//!   normal equations would be dangerously ill-conditioned.
//! * [`tridiag`] — Thomas tridiagonal solvers (unfactored, and factored
//!   once for many right-hand sides) for Crank–Nicolson/ADI time
//!   stepping.
//!
//! Sizes are small, so the implementations favour clarity and numerical
//! robustness over blocking/SIMD; the hot loops of the engines are in path
//! generation and lattice sweeps, not here.

mod cholesky;
mod eigen;
mod lu;
mod matrix;
mod qr;
pub mod tridiag;

pub use cholesky::Cholesky;
pub use eigen::{nearest_correlation, symmetric_eigen, SymmetricEigen};
pub use lu::Lu;
pub use matrix::Matrix;
pub use qr::Qr;
pub use tridiag::{factored_theta_system, theta_system, FactoredTridiag, ThomasScratch, Tridiag};
