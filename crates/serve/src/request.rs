//! Request/response types and the service configuration.

use crate::fault::ServeFaultPlan;
use crate::ServeError;
use mdp_core::{Method, PriceError, PriceReport};
use mdp_model::{GbmMarket, Product};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Duration;

/// Scheduling priority of a request. Workers drain high before normal
/// before low; within a class, arrival order is preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Latency-critical (live quote on a screen).
    High,
    /// The default class.
    #[default]
    Normal,
    /// Background work (end-of-day sweeps); first to wait under load.
    Low,
}

impl Priority {
    /// Lane index: 0 = high … 2 = low.
    pub(crate) fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// One independent pricing request, as a user of the service would
/// submit it: a market snapshot, a product, and optionally a method
/// override (the service's configured method otherwise), a deadline
/// and a priority class.
#[derive(Debug, Clone)]
pub struct PriceRequest {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The market snapshot to price on. `Arc` so a burst of requests on
    /// one snapshot shares the data instead of cloning it per request.
    pub market: Arc<GbmMarket>,
    /// The product to price.
    pub product: Product,
    /// Engine override; `None` uses the service's configured method.
    pub method: Option<Method>,
    /// Latency budget, measured from submission. When it expires the
    /// request's cancel token trips: queued work is reclaimed without
    /// executing and in-flight engines abort at their next poll, both
    /// surfacing as [`PriceError::DeadlineExceeded`]. `None` = no
    /// deadline (the request runs to completion).
    pub deadline: Option<Duration>,
    /// Scheduling priority class.
    pub priority: Priority,
}

impl PriceRequest {
    /// A request on the service's default method.
    pub fn new(id: u64, market: Arc<GbmMarket>, product: Product) -> Self {
        PriceRequest {
            id,
            market,
            product,
            method: None,
            deadline: None,
            priority: Priority::Normal,
        }
    }

    /// Same request with an engine override.
    pub fn with_method(mut self, method: Method) -> Self {
        self.method = Some(method);
        self
    }

    /// Same request with a latency budget.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Same request in the given priority class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// How faithfully a response was priced, relative to what the request
/// asked for. Anything other than [`Fidelity::Full`] is an **explicit**
/// marker that resilience machinery changed the numbers — degradation
/// is never silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Priced exactly as requested: bitwise-identical to a direct
    /// [`mdp_core::Pricer::price`] of the same request.
    Full,
    /// The requested engine's circuit breaker was open; the request was
    /// rerouted to the `auto()` table's alternative engine at full
    /// configuration. Accurate, but not bitwise the requested engine.
    Rerouted {
        /// The engine that actually priced it.
        engine: &'static str,
    },
    /// Priced by a cheaper variant of the requested method (fewer MC
    /// paths, coarser FD/lattice grids — see
    /// [`mdp_core::Method::degrade`] for the per-family error bounds).
    Degraded {
        /// How many degradation steps were applied (each step is one
        /// [`mdp_core::Method::degrade`] hop).
        levels: u32,
    },
}

/// The service's answer to one request, with the telemetry a latency
/// report needs.
#[derive(Debug, Clone)]
pub struct PriceResponse {
    /// The request's correlation id.
    pub id: u64,
    /// The pricing outcome. `Ok` reports at [`Fidelity::Full`] are
    /// bitwise-identical to a direct [`mdp_core::Pricer::price`] of the
    /// same request.
    pub outcome: Result<PriceReport, PriceError>,
    /// Seconds the request waited in the admission queue before a
    /// worker drained it.
    pub queue_seconds: f64,
    /// Seconds from drain to response: plan lookup or build plus an
    /// equal share of the group's execute. A lone request also counts
    /// its earlier attempts and their backoff.
    pub service_seconds: f64,
    /// How many same-key requests the coalescer fused into the batch
    /// this response rode in (1 = priced alone). A request served again
    /// alone after its group failed reports the failed group's size.
    pub batch_size: usize,
    /// Whether the plan came out of the cache (`plan` phase skipped).
    pub cache_hit: bool,
    /// How faithfully the response was priced (always
    /// [`Fidelity::Full`] unless resilience machinery intervened).
    pub fidelity: Fidelity,
    /// Execution attempts spent on this request (1 = first try).
    pub attempts: u32,
}

impl PriceResponse {
    /// End-to-end latency: queue wait plus service time.
    pub fn latency_seconds(&self) -> f64 {
        self.queue_seconds + self.service_seconds
    }
}

/// A claim on a submitted request's future response.
#[derive(Debug)]
pub struct Ticket {
    /// The request's correlation id.
    pub id: u64,
    pub(crate) rx: Receiver<PriceResponse>,
}

impl Ticket {
    /// Block until the response arrives. [`ServeError::Closed`] if the
    /// service shut down without answering.
    pub fn wait(self) -> Result<PriceResponse, ServeError> {
        self.rx.recv().map_err(|_| ServeError::Closed)
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<PriceResponse> {
        self.rx.try_recv().ok()
    }
}

/// Retry tuning: budgeted attempts with exponential backoff and
/// deterministic (seeded) jitter.
///
/// Attempt `a` (1-based) that fails retryably sleeps
/// `base_backoff · 2^(a-1) · j` before attempt `a+1`, where
/// `j ∈ [0.5, 1.5)` is a pure hash of `(jitter_seed, request id, a)` —
/// replayable, yet decorrelated across requests so retry storms
/// don't synchronise. Only engine faults (panics, non-finite outputs)
/// are retryable; deadline expiries and validation errors are not. Only
/// a request served alone retries: a group that fails serves each of
/// its members again alone first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total execution attempts per request (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Seed of the deterministic jitter hash.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            jitter_seed: 0x5EED_BACC,
        }
    }
}

/// Circuit-breaker tuning (see [`crate::breaker`] for the state
/// machine).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Sliding outcome window per engine (most recent executions).
    pub window: usize,
    /// Failure ratio over the window at which the breaker trips.
    pub failure_threshold: f64,
    /// Minimum outcomes in the window before it may trip (a single
    /// early failure must not open a cold breaker).
    pub min_samples: usize,
    /// How long an open breaker rejects before going half-open.
    pub cooldown: Duration,
    /// Probes admitted in half-open; all succeeding closes the breaker.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 32,
            failure_threshold: 0.5,
            min_samples: 8,
            cooldown: Duration::from_millis(50),
            half_open_probes: 2,
        }
    }
}

/// Service tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Bounded admission queue: submissions beyond this many in-flight
    /// requests shed with [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Upper bound on requests one worker drains per cycle (bounds the
    /// latency cost of riding a very large batch). The drained requests
    /// are grouped by plan key and each group rides the fused batch
    /// kernels; `1` serves every request alone. With `plan_cache: 0` as
    /// well, this is the naive pool-of-pricers baseline: every request
    /// pays its own plan.
    pub max_batch: usize,
    /// Plan-cache capacity in entries (distinct `(market, maturity,
    /// method)` keys); `0` disables caching.
    pub plan_cache: usize,
    /// Retry budget and backoff for retryable engine faults.
    pub retry: RetryPolicy,
    /// Circuit-breaker trip/recovery tuning.
    pub breaker: BreakerConfig,
    /// Allow graceful degradation: when an engine's breaker is open
    /// (and no healthy reroute exists) or a request's remaining budget
    /// is smaller than the engine's observed latency, price with a
    /// cheaper variant ([`mdp_core::Method::degrade`]) and tag the
    /// response [`Fidelity::Degraded`]. When `false`, those requests
    /// fail typed ([`PriceError::CircuitOpen`] /
    /// [`PriceError::DeadlineExceeded`]) instead.
    pub degradation: bool,
    /// Deterministic fault injection (chaos testing); `None` in
    /// production.
    pub fault: Option<ServeFaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 4096,
            max_batch: 256,
            plan_cache: 64,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            degradation: true,
            fault: None,
        }
    }
}
