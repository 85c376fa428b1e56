// Numerical kernels index several arrays in lockstep; the index-loop
// style clippy flags is the clearer form there.
#![allow(clippy::needless_range_loop)]

//! # mdp-math — numerical kernels for multidimensional derivative pricing
//!
//! This crate provides the self-contained numerical substrate used by every
//! pricing engine in the `mdp` workspace:
//!
//! * **Random numbers** ([`rng`]) — counter-seeded [`rng::SplitMix64`] and
//!   [`rng::Xoshiro256StarStar`] with `jump`/`long_jump` for embarrassingly
//!   parallel substreams; plus Gaussian samplers (polar and inverse-CDF).
//! * **Special functions** ([`special`]) — `erf`/`erfc`, the standard normal
//!   pdf/cdf, a high-accuracy inverse normal cdf (Acklam + Halley
//!   refinement) and the Drezner–Wesolowsky bivariate normal cdf.
//! * **Low-discrepancy sequences** ([`sobol`]) — a Sobol' generator in
//!   Gray-code order with Joe–Kuo direction numbers for the leading
//!   dimensions, and [`brownian`] for Brownian-bridge path construction.
//! * **Dense and banded linear algebra** ([`linalg`]) — a small row-major
//!   [`linalg::Matrix`], Cholesky, a symmetric eigensolver with
//!   nearest-correlation repair, and tridiagonal (Thomas) solvers.
//! * **Statistics** ([`stats`]) — Welford online moments with O(1) merging
//!   for parallel reduction, and confidence intervals.
//! * **Polynomial bases** ([`poly`]) — monomial/Laguerre/Hermite bases used
//!   by the Longstaff–Schwartz regression.
//!
//! Everything is implemented from scratch on `f64`; the crate has no
//! runtime dependencies, which keeps the pricing engines' performance
//! characteristics fully attributable to the algorithms in this workspace.

pub mod brownian;
pub mod cancel;
pub mod error;
pub mod fastmath;
pub mod fingerprint;
pub mod linalg;
pub mod poly;
pub mod quadrature;
pub mod rng;
pub mod sobol;
pub mod special;
pub mod stats;

pub use cancel::CancelToken;
pub use error::MathError;
pub use fingerprint::Fnv64;

/// Relative/absolute comparison helper used across the workspace tests.
///
/// Returns `true` when `a` and `b` are within `tol` of each other, where the
/// comparison is absolute for small magnitudes and relative otherwise.
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_small() {
        assert!(approx_eq(1e-12, 0.0, 1e-9));
        assert!(!approx_eq(1e-6, 0.0, 1e-9));
    }

    #[test]
    fn approx_eq_relative_large() {
        assert!(approx_eq(1e12, 1e12 * (1.0 + 1e-10), 1e-9));
        assert!(!approx_eq(1e12, 1.001e12, 1e-9));
    }

    #[test]
    fn approx_eq_symmetric() {
        assert_eq!(approx_eq(3.0, 3.1, 0.05), approx_eq(3.1, 3.0, 0.05));
    }
}
