//! # mdp-lattice — binomial/trinomial lattice pricers, sequential and parallel
//!
//! Lattice (tree) methods were the workhorse of early-2000s option pricing
//! and the prime target of the parallelisation literature this workspace
//! reproduces. The crate provides:
//!
//! * [`binomial`] — 1-D binomial lattices in the Cox–Ross–Rubinstein,
//!   Jarrow–Rudd and Tian parameterisations, European and American.
//! * [`trinomial`] — Boyle's 1-D trinomial lattice.
//! * [`multidim`] — the Boyle–Evnine–Gibbs (BEG) d-dimensional recombining
//!   lattice: every asset moves up/down each step, giving `2^d` branches
//!   and `(n+1)^d` nodes at step `n`. Sequential and shared-memory
//!   (rayon) backward induction.
//! * [`cluster`] — the distributed-memory algorithm: block decomposition
//!   of the lattice along the first asset axis with one-row halo
//!   exchanges per time step, written against `mdp_cluster::ThreadComm`
//!   exactly like the MPI original; the virtual-time model turns its
//!   communication structure into the speedup curves of experiments
//!   T2/F1/F2.
//!
//! The curse of dimensionality is real and intentional: `(N+1)^d` node
//! grids make d ≥ 4 impractical, which is the comparison point against
//! Monte Carlo that experiment T5 reproduces.

pub mod binomial;
pub mod cluster;
pub mod error;
pub mod multidim;
pub mod trinomial;

pub use binomial::{BinomialKind, BinomialLattice};
pub use error::LatticeError;
pub use multidim::{LatticePlan, LatticeScratch, MultiLattice, MultiLatticeResult};
pub use trinomial::TrinomialLattice;
