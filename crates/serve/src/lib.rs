//! # mdp-serve — pricing as a service
//!
//! A request-driven front end over the `mdp-core` pricing engines,
//! built for the workload the one-option-at-a-time evaluation never
//! faced: a burst of thousands of *independent* user requests. Three
//! mechanisms make that burst price like one batched book instead of
//! thousands of plan builds:
//!
//! * **Coalescing** — workers drain everything in flight and group it
//!   by the bit-exact plan key ([`PlanKey`]: market fingerprint ×
//!   maturity bits × engine-config fingerprint), then route each group
//!   through the fused batch kernels ([`mdp_core::Portfolio`]'s
//!   multi-RHS Thomas lanes and shared-path MC sweeps). Every request
//!   takes this one path: a lone request is a group of one, and the
//!   naive pool-of-pricers baseline is a configuration
//!   (`max_batch: 1, plan_cache: 0`), not a second code path.
//! * **Plan caching** — compiled [`mdp_core::PricerPlan`]s are kept in
//!   an LRU ([`PlanCache`]) keyed by the same bit-exact identity; a hit
//!   skips grid construction and factorization entirely
//!   (`plan_seconds ≈ 0`).
//! * **Admission control** — the queue is bounded; past capacity,
//!   submissions shed with a typed [`ServeError::Overloaded`] instead
//!   of collapsing into unbounded latency.
//!
//! On top of the throughput machinery sits a **resilience layer**:
//!
//! * **Deadlines + cancellation** — a per-request latency budget
//!   ([`PriceRequest::with_deadline`]) arms a cooperative cancel token
//!   threaded into every engine's hot loop; expired queued work is
//!   reclaimed with zero engine cost, in-flight work aborts at the
//!   engine's next poll, both typed
//!   [`mdp_core::PriceError::DeadlineExceeded`].
//! * **Retries + circuit breakers** — a group that fails serves each
//!   member again alone, so one bad request cannot fail its
//!   neighbours; a lone request retries engine faults (worker panics,
//!   non-finite outputs) under a budget with exponential backoff and
//!   deterministic jitter ([`RetryPolicy`]); per-engine
//!   [breakers](breaker) trip on sustained failure and the router
//!   answers from the `auto()` table's alternative engine instead.
//! * **Graceful degradation** — when no healthy engine fits (breaker
//!   open, or the deadline budget is smaller than the engine's observed
//!   latency), the service prices a cheaper variant
//!   ([`mdp_core::Method::degrade`]) and tags the response
//!   [`Fidelity::Degraded`] — never silently.
//! * **Fault injection** — a seeded, replayable [`ServeFaultPlan`]
//!   injects worker panics, stalls and poisoned results inside the
//!   `catch_unwind` isolation boundary, for chaos testing.
//!
//! All the throughput machinery is *scheduling* decisions: every `Ok`
//! response tagged [`Fidelity::Full`] is bitwise-identical to a direct
//! [`mdp_core::Pricer::price`] of the same request, whatever grouping,
//! caching, shedding or retrying happened on the way.
//!
//! ```
//! use mdp_serve::{PriceRequest, PricingService, ServeConfig};
//! use mdp_core::prelude::*;
//! use std::sync::Arc;
//!
//! let market = Arc::new(GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap());
//! let service = PricingService::start(
//!     Pricer::new(Method::Fd1d(Fd1d::default())),
//!     ServeConfig::default(),
//! );
//! // A burst of independent strike requests coalesces into one fused
//! // multi-RHS ladder behind the scenes.
//! let tickets: Vec<_> = (0..32)
//!     .map(|i| {
//!         let product = Product::european(
//!             Payoff::BasketCall { weights: vec![1.0], strike: 80.0 + i as f64 },
//!             1.0,
//!         );
//!         service.submit(PriceRequest::new(i, Arc::clone(&market), product)).unwrap()
//!     })
//!     .collect();
//! for t in tickets {
//!     assert!(t.wait().unwrap().outcome.is_ok());
//! }
//! let stats = service.shutdown();
//! assert_eq!(stats.completed, 32);
//! ```

pub mod breaker;
pub mod cache;
pub mod coalesce;
pub mod error;
pub mod fault;
pub mod request;
pub mod service;
pub mod stats;

pub use breaker::{transitions_legal, Admit, BreakerState, Transition};
pub use cache::{CacheStats, PlanCache};
pub use coalesce::PlanKey;
pub use error::ServeError;
pub use fault::{Fault, ServeFaultPlan};
pub use request::{
    BreakerConfig, Fidelity, PriceRequest, PriceResponse, Priority, RetryPolicy, ServeConfig,
    Ticket,
};
pub use service::PricingService;
pub use stats::ServiceStats;
