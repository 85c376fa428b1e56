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
//! * [`adi`] — the two-dimensional Douglas ADI splitting with an
//!   explicit mixed-derivative term; line solves are independent and run
//!   in parallel (rayon), which is also where a 2002-era distributed
//!   code would split them.
//! * [`adi3d`] — the three-dimensional Douglas splitting for correlated
//!   three-asset baskets, built on the same factored multi-RHS
//!   transposed-panel machinery per axis.

pub mod adi;
pub mod adi3d;
pub mod barrier;
pub mod cluster;
pub mod error;
pub mod fd1d;
pub mod grid;
pub mod stencil;

pub use adi::{Adi2d, Adi2dPlan, Adi2dResult, Adi2dScratch, AdiKernel};
pub use adi3d::{Adi3d, Adi3dPlan, Adi3dResult, Adi3dScratch};
pub use barrier::{BarrierResult, Fd1dBarrier};
pub use cluster::{ClusterFd1d, ClusterFdOutcome};
pub use error::PdeError;
pub use fd1d::{
    cell_average, Fd1d, Fd1dLadderResult, Fd1dLadderScratch, Fd1dPlan, Fd1dResult, Fd1dScratch,
    Scheme,
};
pub use grid::LogGrid;
