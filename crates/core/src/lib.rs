//! # mdp-core — parallel pricing of multidimensional financial derivatives
//!
//! The public facade of the `mdp` workspace: one [`Pricer`] type that
//! prices any [`mdp_model::Product`] on any [`mdp_model::GbmMarket`]
//! with any engine/backend combination, plus re-exports of the whole
//! stack.
//!
//! ```
//! use mdp_core::prelude::*;
//!
//! // A 3-asset European basket call.
//! let market = GbmMarket::symmetric(3, 100.0, 0.2, 0.0, 0.05, 0.4).unwrap();
//! let product = Product::european(
//!     Payoff::BasketCall { weights: Product::equal_weights(3), strike: 100.0 },
//!     1.0,
//! );
//!
//! // Price by Monte Carlo, sequentially…
//! let seq = Pricer::new(Method::monte_carlo(50_000)).price(&market, &product).unwrap();
//! // …and on a modelled 8-node cluster: identical estimate, plus a
//! // virtual-time execution model.
//! let par = Pricer::new(Method::monte_carlo(50_000))
//!     .backend(Backend::cluster(8, Machine::cluster2002()))
//!     .price(&market, &product)
//!     .unwrap();
//! assert_eq!(seq.price, par.price);
//! assert!(par.time.is_some());
//! ```
//!
//! Every price is internally a **plan** (market-level setup) plus an
//! **execute** (one product over the planned state); [`Pricer::plan`]
//! exposes the split, and [`Portfolio::price_batch`] amortises one plan
//! across a whole book — fusing an FD strike ladder into one multi-RHS
//! backward sweep and a Monte Carlo book into one shared path sweep,
//! bitwise-identically to per-product pricing:
//!
//! ```
//! use mdp_core::prelude::*;
//!
//! let market = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
//! let book: Vec<Product> = (0..16)
//!     .map(|i| Product::european(
//!         Payoff::BasketCall { weights: vec![1.0], strike: 80.0 + 2.5 * i as f64 },
//!         1.0,
//!     ))
//!     .collect();
//! let batch = Portfolio::new(Pricer::new(Method::Fd1d(Fd1d::default())))
//!     .price_batch(&market, &book)
//!     .unwrap();
//! assert_eq!(batch.reports.len(), 16);
//! assert_eq!(batch.fused, 16); // one ladder sweep priced all strikes
//! ```
//!
//! | engine | dims | exercise | backends |
//! |---|---|---|---|
//! | [`Method::Analytic`] | payoff-specific | European | sequential |
//! | [`Method::Binomial`]/[`Method::Trinomial`] | 1 | both | sequential |
//! | [`Method::MultiLattice`] | 1–5 (practically) | both | sequential, rayon, cluster |
//! | [`Method::MonteCarlo`] | any | European | sequential, rayon, cluster |
//! | [`Method::Qmc`] | steps·d ≤ 64 | European | sequential |
//! | [`Method::Lsmc`] | any | American | sequential, rayon, cluster |
//! | [`Method::Fd1d`] | 1 | both | sequential, cluster (explicit scheme) |
//! | [`Method::Adi2d`] | 2 | both | sequential, rayon |
//! | [`Method::Adi3d`] | 3 | both | sequential |

pub mod greeks;
pub mod portfolio;
pub mod pricer;
pub mod riskcube;

pub use greeks::BumpConfig;
pub use portfolio::{BatchReport, GroupPlan, Portfolio};
pub use pricer::{Backend, Method, PriceError, PriceReport, Pricer, PricerPlan};
pub use riskcube::{CubeGreeks, CubeResult, RiskCube};

/// The workspace-wide FNV-1a fingerprint helper behind every bit-exact
/// cache key ([`mdp_model::GbmMarket::cache_key`], [`Method::cache_key`],
/// [`Portfolio::group_key`] and the serve-layer `PlanKey`).
pub use mdp_math::Fnv64;

/// The cooperative cancellation token every engine plan polls (see
/// [`PricerPlan::set_cancel`]); the serve layer derives one per request
/// from its deadline.
pub use mdp_math::CancelToken;

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::{
        Backend, BatchReport, BumpConfig, CancelToken, CubeGreeks, CubeResult, GroupPlan, Method,
        Portfolio, PriceError, PriceReport, Pricer, PricerPlan, RiskCube,
    };
    pub use mdp_cluster::{FaultPlan, Machine, TimeModel};
    pub use mdp_lattice::{BinomialKind, BinomialLattice, MultiLattice, TrinomialLattice};
    pub use mdp_mc::{LsmcConfig, McConfig, McEngine, QmcConfig, VarianceReduction};
    pub use mdp_model::{
        analytic, ExerciseStyle, GbmMarket, Greeks, MarketDelta, Payoff, Product, TickOutcome,
    };
    pub use mdp_pde::{Adi2d, Adi3d, Fd1d, Fd1dBarrier};
    pub use mdp_perf::{ScalingCurve, Table};
}

// Re-export the component crates for direct access.
pub use mdp_cluster as cluster;
pub use mdp_lattice as lattice;
pub use mdp_math as math;
pub use mdp_mc as mc;
pub use mdp_model as model;
pub use mdp_pde as pde;
pub use mdp_perf as perf;
