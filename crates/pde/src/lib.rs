//! # mdp-pde — finite-difference PDE pricers
//!
//! The third engine family of the evaluation. Finite differences give
//! smooth convergence and cheap Greeks in low dimension but scale as
//! `M^d` grid points — the other side of the curse-of-dimensionality
//! comparison (experiment T5) against lattices and Monte Carlo.
//!
//! * [`grid`] — log-space spatial grids.
//! * [`fd1d`] — one-dimensional θ-schemes: explicit Euler, and
//!   Crank–Nicolson via the Thomas solver with cell-averaged payoffs,
//!   Brennan–Schwartz early exercise and Richardson extrapolation over
//!   a half grid.
//! * [`stencil`] — the cache-oblivious trapezoidal decomposition that
//!   drives the explicit sweep (bitwise-equal to the retained
//!   step-by-step oracle, [`Fd1dPlan::execute_step_by_step`]).
//! * [`adi`] — one Douglas ADI splitting for correlated two- and
//!   three-asset products ([`Adi2d`], [`Adi3d`]): explicit mixed
//!   terms, then one implicit stage per axis solved as factored
//!   multi-RHS transposed panels, with the per-line Thomas oracle
//!   [`AdiPlan::execute_per_line`]. The 2-D line solves also run under
//!   rayon, which is where a 2002-era distributed code would split them.

pub mod adi;
pub mod barrier;
pub mod cluster;
pub mod error;
pub mod fd1d;
pub mod grid;
pub mod stencil;

pub use adi::{Adi2d, Adi3d, AdiKernel, AdiPlan, AdiResult, AdiScratch};
pub use barrier::{BarrierResult, Fd1dBarrier};
pub use cluster::{ClusterFd1d, ClusterFdOutcome};
pub use error::PdeError;
pub use fd1d::{
    cell_average, Fd1d, Fd1dLadderResult, Fd1dLadderScratch, Fd1dPlan, Fd1dResult, Fd1dScratch,
    Scheme,
};
pub use grid::LogGrid;

/// The three-asset runs (`Adi3d`) of the per-dimension bodies in
/// [`adi`]'s unit tests; the same-named tests in `adi::tests` run them
/// with two assets.
#[cfg(test)]
mod adi3d {
    mod tests {
        use crate::adi::tests::per_dim;

        #[test]
        fn agrees_with_beg_lattice() {
            per_dim::agrees_with_beg_lattice(3);
        }

        #[test]
        fn american_min_put_dominates_european() {
            per_dim::american_min_put_dominates_european(3);
        }

        #[test]
        fn apply_tick_bitwise_equals_fresh_plan() {
            per_dim::apply_tick_bitwise_equals_fresh_plan(3);
        }

        #[test]
        fn geometric_call_matches_closed_form() {
            per_dim::geometric_call_matches_closed_form(3);
        }

        #[test]
        fn node_accounting() {
            per_dim::node_accounting(3);
        }

        #[test]
        fn plan_execute_bitwise_matches_one_shot() {
            per_dim::plan_execute_bitwise_matches_one_shot(3);
        }

        #[test]
        fn rejects_bad_inputs() {
            per_dim::rejects_bad_inputs(3);
        }
    }
}
