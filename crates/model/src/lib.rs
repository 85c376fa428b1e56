//! # mdp-model — market model, products and analytic reference prices
//!
//! The domain layer of the workspace: everything the pricing engines need
//! to know about *what* is being priced, independent of *how*.
//!
//! * [`market::GbmMarket`] — a d-asset Black–Scholes market: correlated
//!   geometric Brownian motions with per-asset spot, volatility and
//!   dividend yield, a flat risk-free rate, and a validated correlation
//!   matrix (factored once by Cholesky for the sampling engines).
//! * [`product`] — the multidimensional derivative zoo of the early-2000s
//!   parallel-pricing literature: basket calls/puts, geometric baskets,
//!   rainbow max/min options, Margrabe exchanges, spreads, digitals and
//!   (arithmetic/geometric) Asian options, each European or American.
//! * [`analytic`] — closed forms used to validate every numerical engine:
//!   Black–Scholes, Margrabe, weighted geometric baskets (lognormal
//!   reduction), Stulz two-asset min/max options via the bivariate normal
//!   cdf, and cash-or-nothing digitals.

pub mod analytic;
pub mod error;
pub mod greeks;
pub mod market;
pub mod product;

pub use error::ModelError;
pub use greeks::Greeks;
pub use market::{GbmMarket, MarketDelta, TickOutcome};
pub use product::{ExerciseStyle, PathDependence, Payoff, Product};
