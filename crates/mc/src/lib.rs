//! # mdp-mc — Monte Carlo pricing engines, sequential and parallel
//!
//! Monte Carlo is the method that survives the curse of dimensionality,
//! and — being embarrassingly parallel across paths — the method where
//! the paper's parallel speedups are closest to ideal. The crate
//! provides:
//!
//! * [`path`] — correlated GBM path/terminal generation (exact
//!   log-normal stepping, no discretisation bias), both per-path and in
//!   batched structure-of-arrays panels of [`path::PANEL`] lanes.
//! * [`panel`] — fused panel payoff evaluation: the batched kernel that
//!   the engines use by default, bit-identical to the scalar oracle
//!   (see DESIGN.md, "Batched MC kernel").
//! * [`engine`] — the European pricer: plain, antithetic and
//!   control-variate estimators over a **block-substream** design: paths
//!   are partitioned into fixed blocks, block `b` drawing from RNG
//!   substream `b`. The estimate is therefore *identical* no matter how
//!   blocks are distributed over threads or ranks — sequential, rayon
//!   and message-passing drivers all reproduce the same price bit for
//!   bit (plain/antithetic) and the experiments' speedups compare equal
//!   work.
//! * [`qmc`] — randomised quasi-Monte Carlo: Sobol' points through the
//!   inverse normal cdf with Brownian-bridge ordering, digital-shift
//!   replicates for an honest error bar.
//! * [`lsmc`] — Longstaff–Schwartz least-squares Monte Carlo for
//!   American/Bermudan products, with the distributed-regression variant
//!   (local normal equations gathered to one rank, folded there in
//!   block order and broadcast back) used by the cluster driver.
//! * [`cluster_driver`] — the message-passing SPMD drivers for both
//!   European MC and LSMC with virtual-time accounting (experiments
//!   T3/F3/T7).

pub mod cluster_driver;
pub mod engine;
pub mod error;
pub mod lsmc;
pub mod panel;
pub mod path;
pub mod pathwise;
pub mod qmc;
pub mod stratified;
pub mod variance;

pub use engine::{McConfig, McEngine, McPlan, McResult, VarianceReduction};
pub use error::McError;
pub use lsmc::{LsmcConfig, LsmcResult};
pub use pathwise::{pathwise_delta, PathwiseResult};
pub use qmc::{QmcConfig, QmcResult};
pub use stratified::{price_stratified, StratifiedResult};
