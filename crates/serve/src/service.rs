//! The service: a bounded admission queue drained by a worker pool,
//! with coalesced batch execution, plan caching, and a resilience
//! layer — deadlines with cooperative cancellation, budgeted retries,
//! per-engine circuit breakers, and explicit graceful degradation.
//!
//! ```text
//! submit ──▶ [priority lanes] ──▶ worker: drain ─▶ reclaim expired (0 work)
//!    │                                  │
//!    └─ Overloaded (shed)               ▼
//!                             route: breaker open? ──▶ reroute (auto table)
//!                                    budget < EWMA? ──▶ degrade (tagged)
//!                                        │
//!                                        ▼
//!                         coalesce by PlanKey ─▶ execute under catch_unwind
//!                                        │            │ cancel token polls
//!                                        ▼            ▼
//!                                  respond        panic/NaN → retry w/ backoff
//! ```
//!
//! Every `Ok` response tagged [`Fidelity::Full`] is bitwise-identical
//! to a direct [`Pricer::price`] of the same request: coalescing,
//! caching, shedding, cancellation polling and retries are purely
//! scheduling decisions. Responses the resilience layer repriced are
//! tagged [`Fidelity::Rerouted`] or [`Fidelity::Degraded`] — never
//! silently substituted.

use crate::breaker::{Admit, BreakerRegistry, BreakerState, Transition};
use crate::cache::PlanCache;
use crate::coalesce::{group_jobs, PlanKey};
use crate::fault::Fault;
use crate::request::{Fidelity, PriceRequest, PriceResponse, ServeConfig, Ticket};
use crate::stats::{Counters, ServiceStats};
use crate::ServeError;
use mdp_core::{CancelToken, Method, Portfolio, PriceError, PriceReport, Pricer};
use mdp_math::rng::SplitMix64;
use mdp_model::{GbmMarket, Product};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One queued request with its routing key, absolute deadline and
/// response channel.
#[derive(Debug)]
pub(crate) struct Job {
    pub req: PriceRequest,
    pub key: PlanKey,
    pub enqueued: Instant,
    /// The request's relative budget resolved against submission time.
    pub deadline: Option<Instant>,
    pub tx: Sender<PriceResponse>,
}

/// Queue state behind the mutex: one FIFO lane per priority class.
#[derive(Debug)]
struct QueueState {
    lanes: [VecDeque<Job>; 3],
    len: usize,
    closed: bool,
}

impl QueueState {
    /// Drain up to `take` jobs, high lane first, FIFO within a lane.
    fn drain(&mut self, take: usize) -> Vec<Job> {
        let mut out = Vec::with_capacity(take.min(self.len));
        for lane in &mut self.lanes {
            while out.len() < take {
                match lane.pop_front() {
                    Some(job) => out.push(job),
                    None => break,
                }
            }
        }
        self.len -= out.len();
        out
    }
}

/// Shared state between the handle and the workers.
struct Inner {
    state: Mutex<QueueState>,
    cv: Condvar,
    cfg: ServeConfig,
    base: Pricer,
    cache: Mutex<PlanCache>,
    counters: Counters,
    breakers: BreakerRegistry,
    /// Per-engine EWMA of observed execute seconds (`e ← 0.8e + 0.2x`),
    /// the latency estimate behind deadline-budget degradation.
    ewma: Mutex<HashMap<u64, f64>>,
}

/// Recover a mutex guard even if a panicking worker poisoned the lock:
/// all serve-layer critical sections leave their data consistent at
/// every await-free step, and pricing itself never runs under a lock,
/// so a poisoned mutex carries no torn state worth dying over.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The pricing service handle: submit requests, read stats, shut down.
///
/// Dropping the handle closes the queue and joins the workers (pending
/// requests are drained and answered first).
pub struct PricingService {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for PricingService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PricingService")
            .field("cfg", &self.inner.cfg)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl PricingService {
    /// Start a service pricing with `pricer` (method + backend) under
    /// the given configuration.
    pub fn start(pricer: Pricer, cfg: ServeConfig) -> Self {
        let inner = Arc::new(Inner {
            state: Mutex::new(QueueState {
                lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                len: 0,
                closed: false,
            }),
            cv: Condvar::new(),
            cfg,
            base: pricer,
            cache: Mutex::new(PlanCache::new(if cfg.coalesce {
                cfg.plan_cache
            } else {
                0
            })),
            counters: Counters::default(),
            breakers: BreakerRegistry::new(cfg.breaker),
            ewma: Mutex::new(HashMap::new()),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(inner))
            })
            .collect();
        PricingService { inner, workers }
    }

    /// Submit a request. Returns a [`Ticket`] to wait on, or sheds with
    /// [`ServeError::Overloaded`] when the bounded queue is full.
    pub fn submit(&self, req: PriceRequest) -> Result<Ticket, ServeError> {
        let method = method_of(&self.inner, &req);
        let key = PlanKey::of(&req.market, &req.product, &method);
        let (tx, rx) = channel();
        let id = req.id;
        let now = Instant::now();
        let deadline = req.deadline.map(|budget| now + budget);
        let lane = req.priority.lane();
        {
            let mut state = relock(&self.inner.state);
            if state.closed {
                return Err(ServeError::Closed);
            }
            if state.len >= self.inner.cfg.queue_capacity {
                self.inner.counters.add(&self.inner.counters.shed, 1);
                return Err(ServeError::Overloaded {
                    capacity: self.inner.cfg.queue_capacity,
                });
            }
            state.lanes[lane].push_back(Job {
                req,
                key,
                enqueued: now,
                deadline,
                tx,
            });
            state.len += 1;
        }
        self.inner.counters.add(&self.inner.counters.submitted, 1);
        self.inner.cv.notify_one();
        Ok(Ticket { id, rx })
    }

    /// Submit and block for the response (convenience for synchronous
    /// callers; sheds exactly like [`PricingService::submit`]).
    pub fn price(&self, req: PriceRequest) -> Result<PriceResponse, ServeError> {
        self.submit(req)?.wait()
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.inner.counters;
        let cache = relock(&self.inner.cache).stats();
        ServiceStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
            groups: c.groups.load(Ordering::Relaxed),
            grouped_requests: c.grouped_requests.load(Ordering::Relaxed),
            fused: c.fused.load(Ordering::Relaxed),
            cache,
            ticks_applied: cache.ticks_applied,
            tick_evictions: cache.tick_evictions,
            plan_seconds_hit: c.plan_nanos_hit.load(Ordering::Relaxed) as f64 * 1e-9,
            plan_seconds_miss: c.plan_nanos_miss.load(Ordering::Relaxed) as f64 * 1e-9,
            deadline_pre: c.deadline_pre.load(Ordering::Relaxed),
            deadline_mid: c.deadline_mid.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            panics_caught: c.panics_caught.load(Ordering::Relaxed),
            numerical: c.numerical.load(Ordering::Relaxed),
            degraded: c.degraded.load(Ordering::Relaxed),
            rerouted: c.rerouted.load(Ordering::Relaxed),
            breaker_rejections: c.breaker_rejections.load(Ordering::Relaxed),
            breaker_trips: self.inner.breakers.trips(),
            faults_injected: c.faults_injected.load(Ordering::Relaxed),
        }
    }

    /// The breaker's current state for a method (Closed if never used).
    pub fn breaker_state(&self, method: &Method) -> BreakerState {
        self.inner.breakers.state(method.cache_key())
    }

    /// Every breaker transition so far, in order — the trip/recovery
    /// timeline.
    pub fn breaker_history(&self) -> Vec<Transition> {
        self.inner.breakers.history()
    }

    /// Apply a one-field market tick to every cached plan: entries are
    /// **delta-patched** in place (and re-keyed under the ticked
    /// market's fingerprint) instead of evicted, so the next burst
    /// quoting the ticked market pays `plan_seconds ≈ 0` and still
    /// prices bitwise-identically to a freshly built plan. Plans the
    /// tick cannot patch are evicted. Returns `(patched, evicted)`.
    pub fn apply_tick(&self, delta: &mdp_model::MarketDelta) -> (u64, u64) {
        relock(&self.inner.cache).retain_compatible(delta)
    }

    /// Close the queue, drain pending requests, join the workers and
    /// return the final counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.close_and_join();
        self.stats()
    }

    fn close_and_join(&mut self) {
        {
            let mut state = relock(&self.inner.state);
            state.closed = true;
        }
        self.inner.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for PricingService {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

fn method_of(inner: &Inner, req: &PriceRequest) -> Method {
    req.method
        .clone()
        .unwrap_or_else(|| inner.base.method().clone())
}

fn worker_loop(inner: Arc<Inner>) {
    loop {
        let batch: Vec<Job> = {
            let mut state = relock(&inner.state);
            loop {
                if state.len > 0 {
                    break;
                }
                if state.closed {
                    return;
                }
                state = inner.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
            let take = if inner.cfg.coalesce {
                inner.cfg.max_batch.max(1).min(state.len)
            } else {
                1
            };
            state.drain(take)
        };
        // More work may remain; wake a sibling before pricing.
        inner.cv.notify_one();
        let drained = Instant::now();
        // Reclaim: jobs whose deadline expired in the queue are
        // answered typed with zero engine work.
        let (live, expired): (Vec<Job>, Vec<Job>) = batch
            .into_iter()
            .partition(|j| j.deadline.is_none_or(|d| drained < d));
        for job in expired {
            inner.counters.add(&inner.counters.deadline_pre, 1);
            let queue_seconds = (drained - job.enqueued).as_secs_f64();
            respond(
                &inner,
                job,
                Err(PriceError::DeadlineExceeded),
                queue_seconds,
                0.0,
                1,
                false,
                Fidelity::Full,
                0,
            );
        }
        if live.is_empty() {
            continue;
        }
        if inner.cfg.coalesce {
            serve_coalesced(&inner, live, drained);
        } else {
            for job in live {
                price_resilient(&inner, job, drained, 1);
            }
        }
    }
}

/// The coalesced path: peel off fault-targeted jobs (so injected
/// chaos cannot fail innocent neighbours), group the rest by plan key,
/// and execute each group through the fused kernels.
fn serve_coalesced(inner: &Inner, batch: Vec<Job>, drained: Instant) {
    let (faulted, clean): (Vec<Job>, Vec<Job>) = match inner.cfg.fault {
        Some(fp) if fp.has_chaos() => batch
            .into_iter()
            .partition(|j| fp.roll(j.req.id, 1).is_some()),
        _ => (Vec::new(), batch),
    };
    for job in faulted {
        price_resilient(inner, job, drained, 1);
    }
    for (key, jobs) in group_jobs(clean) {
        serve_group(inner, key, jobs, drained);
    }
}

/// Execute one same-key group: route (breaker / budget), plan (cache
/// hit or build), execute fused under panic isolation, respond.
fn serve_group(inner: &Inner, key: PlanKey, jobs: Vec<Job>, drained: Instant) {
    let n = jobs.len();
    inner.counters.add(&inner.counters.groups, 1);
    inner
        .counters
        .add(&inner.counters.grouped_requests, n as u64);

    let requested = method_of(inner, &jobs[0].req);
    let remaining = group_budget(&jobs, drained);
    let route = decide_route(
        inner,
        &jobs[0].req.market,
        &jobs[0].req.product,
        &requested,
        remaining,
        n as u64,
    );
    let (method, fidelity) = match route {
        Ok(r) => r,
        Err(e) => {
            for job in jobs {
                let queue_seconds = (drained - job.enqueued).as_secs_f64();
                respond(
                    inner,
                    job,
                    Err(e.clone()),
                    queue_seconds,
                    0.0,
                    n,
                    false,
                    Fidelity::Full,
                    1,
                );
            }
            return;
        }
    };
    // A rerouted/degraded method is a different engine identity: its
    // plans live under their own cache key and can never alias the
    // full-fidelity entries.
    let key = if fidelity == Fidelity::Full {
        key
    } else {
        PlanKey::of(&jobs[0].req.market, &jobs[0].req.product, &method)
    };
    let mkey = method.cache_key();
    let pricer = Pricer::new(method).backend(inner.base.backend_ref());
    let portfolio = Portfolio::new(pricer);
    let market = Arc::clone(&jobs[0].req.market);
    let maturity = jobs[0].req.product.maturity;

    // Plan phase: cache hit (≈ 0 s) or build-and-insert. The build runs
    // inside the isolation boundary, like the execute below.
    let t_plan = Instant::now();
    let cached = relock(&inner.cache).get(&key);
    let cache_hit = cached.is_some();
    let plan = match cached {
        Some(plan) => Ok(Ok(plan)),
        None => catch_unwind(AssertUnwindSafe(|| {
            portfolio.plan_group(&market, maturity).inspect(|plan| {
                relock(&inner.cache).insert(key, plan.clone());
            })
        })),
    };
    let plan_s = t_plan.elapsed().as_secs_f64();
    let nanos = (plan_s * 1e9) as u64;
    if cache_hit {
        inner.counters.add(&inner.counters.plan_nanos_hit, nanos);
    } else {
        inner.counters.add(&inner.counters.plan_nanos_miss, nanos);
    }

    let mut plan = match plan {
        Ok(Ok(plan)) => plan,
        Err(_) => {
            isolate_group(inner, mkey, jobs, drained, true);
            return;
        }
        Ok(Err(e)) => {
            // The plan is payoff-independent: a build failure fails
            // every request of the group identically, exactly as
            // per-request plans would have.
            for job in jobs {
                let queue_seconds = (drained - job.enqueued).as_secs_f64();
                respond(
                    inner,
                    job,
                    Err(e.clone()),
                    queue_seconds,
                    plan_s,
                    n,
                    false,
                    Fidelity::Full,
                    1,
                );
            }
            return;
        }
    };

    // The group's cancel token: the latest member deadline, so the run
    // aborts only once no member can still use the result. Mixed
    // groups (any member without a deadline) run uncancelled.
    plan.set_cancel(group_token(&jobs));

    let products: Vec<_> = jobs.iter().map(|j| j.req.product.clone()).collect();
    let t_exec = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        portfolio.execute_group(&mut plan, &products, plan_s)
    }));
    let exec_elapsed = t_exec.elapsed().as_secs_f64();
    match result {
        Ok(Ok((reports, fused))) => {
            inner.counters.add(&inner.counters.fused, fused as u64);
            inner.breakers.record(mkey, true);
            update_ewma(inner, mkey, exec_elapsed / n as f64);
            let exec_share = exec_elapsed / n as f64;
            for (job, report) in jobs.into_iter().zip(reports) {
                let queue_seconds = (drained - job.enqueued).as_secs_f64();
                respond(
                    inner,
                    job,
                    Ok(report),
                    queue_seconds,
                    plan_s + exec_share,
                    n,
                    cache_hit,
                    fidelity,
                    1,
                );
            }
        }
        Ok(Err(PriceError::DeadlineExceeded)) => {
            // The group token tripped: it carries the *latest* member
            // deadline, so every member's budget is gone. Partial
            // engine state was discarded by the abort.
            inner.counters.add(&inner.counters.deadline_mid, n as u64);
            for job in jobs {
                let queue_seconds = (drained - job.enqueued).as_secs_f64();
                respond(
                    inner,
                    job,
                    Err(PriceError::DeadlineExceeded),
                    queue_seconds,
                    plan_s + exec_elapsed / n as f64,
                    n,
                    cache_hit,
                    fidelity,
                    1,
                );
            }
        }
        Ok(Err(_)) => isolate_group(inner, mkey, jobs, drained, false),
        Err(_) => isolate_group(inner, mkey, jobs, drained, true),
    }
}

/// Isolate a failed group: per-request resilient pricing gives every
/// innocent neighbour its (bitwise-identical) answer. A panic in the
/// group's plan build or execute is an engine-health signal; a
/// per-request error (e.g. one poison payoff in the group) is not.
fn isolate_group(inner: &Inner, mkey: u64, jobs: Vec<Job>, drained: Instant, panicked: bool) {
    if panicked {
        inner.counters.add(&inner.counters.panics_caught, 1);
        inner.breakers.record(mkey, false);
    }
    let n = jobs.len();
    for job in jobs {
        price_resilient(inner, job, drained, n);
    }
}

/// Price one job with the full resilience loop: deadline checks,
/// breaker routing, fault injection, panic isolation, budgeted retries
/// with deterministic backoff.
fn price_resilient(inner: &Inner, job: Job, drained: Instant, batch_size: usize) {
    let queue_seconds = (drained - job.enqueued).as_secs_f64();
    let requested = method_of(inner, &job.req);
    let t0 = Instant::now();
    let max_attempts = inner.cfg.retry.max_attempts.max(1);
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        // Budget gone? Answer typed without spending engine work.
        if let Some(d) = job.deadline {
            if Instant::now() >= d {
                let c = if attempt == 1 {
                    &inner.counters.deadline_pre
                } else {
                    &inner.counters.deadline_mid
                };
                inner.counters.add(c, 1);
                respond(
                    inner,
                    job,
                    Err(PriceError::DeadlineExceeded),
                    queue_seconds,
                    t0.elapsed().as_secs_f64(),
                    batch_size,
                    false,
                    Fidelity::Full,
                    attempt - 1,
                );
                return;
            }
        }
        let remaining = job.deadline.map(|d| d - Instant::now());
        let route = decide_route(
            inner,
            &job.req.market,
            &job.req.product,
            &requested,
            remaining,
            1,
        );
        let (method, fidelity) = match route {
            Ok(r) => r,
            Err(e) => {
                respond(
                    inner,
                    job,
                    Err(e),
                    queue_seconds,
                    t0.elapsed().as_secs_f64(),
                    batch_size,
                    false,
                    Fidelity::Full,
                    attempt,
                );
                return;
            }
        };
        let mkey = method.cache_key();
        let engine = method.name();
        let fault = inner.cfg.fault.and_then(|fp| fp.roll(job.req.id, attempt));
        if fault.is_some() {
            inner.counters.add(&inner.counters.faults_injected, 1);
        }
        let pricer = Pricer::new(method).backend(inner.base.backend_ref());
        let token = job
            .deadline
            .map_or_else(CancelToken::never, CancelToken::with_deadline);
        let market = Arc::clone(&job.req.market);
        let product = job.req.product.clone();
        let stall = inner.cfg.fault.map(|fp| fp.stall);
        // The isolation boundary: anything the engine (or an injected
        // fault) throws is caught here and classified below; the
        // worker thread itself never dies.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            match fault {
                Some(Fault::Stall) => {
                    std::thread::sleep(stall.unwrap_or(Duration::ZERO));
                }
                Some(Fault::Panic) => panic!("injected worker panic"),
                _ => {}
            }
            let mut plan = pricer.plan(&market, product.maturity)?;
            plan.set_cancel(token.clone());
            let mut report = plan.execute(&product)?;
            if matches!(fault, Some(Fault::Poison)) {
                report.price = f64::NAN;
            }
            // Core's own post-condition can't see the poison (it flips
            // the price after execute returned), so re-check here.
            if !report.price.is_finite() {
                return Err(PriceError::Numerical {
                    engine,
                    value: report.price,
                });
            }
            Ok(report)
        }));
        let outcome: Result<PriceReport, PriceError> = match caught {
            Ok(r) => r,
            Err(payload) => {
                inner.counters.add(&inner.counters.panics_caught, 1);
                Err(PriceError::Panicked(panic_message(payload)))
            }
        };
        match outcome {
            Ok(report) => {
                inner.breakers.record(mkey, true);
                update_ewma(inner, mkey, report.execute_seconds);
                respond(
                    inner,
                    job,
                    Ok(report),
                    queue_seconds,
                    t0.elapsed().as_secs_f64(),
                    batch_size,
                    false,
                    fidelity,
                    attempt,
                );
                return;
            }
            Err(PriceError::DeadlineExceeded) => {
                // The token tripped mid-execute; the budget is gone, so
                // a retry could only fail the same way.
                inner.counters.add(&inner.counters.deadline_mid, 1);
                respond(
                    inner,
                    job,
                    Err(PriceError::DeadlineExceeded),
                    queue_seconds,
                    t0.elapsed().as_secs_f64(),
                    batch_size,
                    false,
                    fidelity,
                    attempt,
                );
                return;
            }
            Err(e @ (PriceError::Panicked(_) | PriceError::Numerical { .. })) => {
                // Engine faults: health signal + retryable.
                inner.breakers.record(mkey, false);
                if matches!(e, PriceError::Numerical { .. }) {
                    inner.counters.add(&inner.counters.numerical, 1);
                }
                if attempt < max_attempts {
                    inner.counters.add(&inner.counters.retries, 1);
                    backoff_sleep(inner, job.req.id, attempt, job.deadline);
                    continue;
                }
                respond(
                    inner,
                    job,
                    Err(e),
                    queue_seconds,
                    t0.elapsed().as_secs_f64(),
                    batch_size,
                    false,
                    fidelity,
                    attempt,
                );
                return;
            }
            Err(e) => {
                // Deterministic request errors (validation, unsupported
                // combinations): retrying cannot change the answer, and
                // they say nothing about engine health.
                respond(
                    inner,
                    job,
                    Err(e),
                    queue_seconds,
                    t0.elapsed().as_secs_f64(),
                    batch_size,
                    false,
                    fidelity,
                    attempt,
                );
                return;
            }
        }
    }
}

/// Pick the engine for a request (or same-key group): the requested
/// method when its breaker admits and the budget suffices; otherwise
/// reroute via the `auto()` table, then degrade, then fail typed.
fn decide_route(
    inner: &Inner,
    market: &GbmMarket,
    product: &Product,
    requested: &Method,
    remaining: Option<Duration>,
    count: u64,
) -> Result<(Method, Fidelity), PriceError> {
    let rkey = requested.cache_key();
    match inner.breakers.admit(rkey) {
        Admit::Allow | Admit::Probe => {
            // Healthy engine — but if the remaining budget is smaller
            // than its observed latency, a full-fidelity run would only
            // burn the budget and miss. Walk down the degradation
            // ladder until the estimate fits (or the ladder ends).
            if inner.cfg.degradation {
                if let (Some(budget), Some(est)) = (remaining, ewma_of(inner, rkey)) {
                    if est > budget.as_secs_f64() {
                        let mut m = requested.clone();
                        let mut levels = 0u32;
                        while let Some(next) = m.degrade() {
                            levels += 1;
                            let fits = ewma_of(inner, next.cache_key())
                                .is_none_or(|e| e <= budget.as_secs_f64());
                            m = next;
                            if fits {
                                break;
                            }
                        }
                        if levels > 0 {
                            return Ok((m, Fidelity::Degraded { levels }));
                        }
                    }
                }
            }
            Ok((requested.clone(), Fidelity::Full))
        }
        Admit::Reject => {
            inner
                .counters
                .add(&inner.counters.breaker_rejections, count);
            // Route around the tripped engine: the auto() table's
            // choice for this product, if it is a *different* engine
            // whose breaker admits.
            let alt = Pricer::auto(market, product).method().clone();
            let alt_name = alt.name();
            if alt.cache_key() != rkey
                && !matches!(inner.breakers.admit(alt.cache_key()), Admit::Reject)
            {
                return Ok((alt, Fidelity::Rerouted { engine: alt_name }));
            }
            // No healthy reroute: degrade the requested method (the
            // degraded variant is a distinct breaker identity).
            if inner.cfg.degradation {
                if let Some(d) = requested.degrade() {
                    if !matches!(inner.breakers.admit(d.cache_key()), Admit::Reject) {
                        return Ok((d, Fidelity::Degraded { levels: 1 }));
                    }
                }
            }
            Err(PriceError::CircuitOpen {
                engine: requested.name(),
            })
        }
    }
}

/// The group's shared cancel token: the latest member deadline when
/// every member has one, inert otherwise (a member without a deadline
/// must never have its result aborted).
fn group_token(jobs: &[Job]) -> CancelToken {
    let mut latest: Option<Instant> = None;
    for j in jobs {
        match j.deadline {
            None => return CancelToken::never(),
            Some(d) => latest = Some(latest.map_or(d, |l| l.max(d))),
        }
    }
    latest.map_or_else(CancelToken::never, CancelToken::with_deadline)
}

/// The tightest remaining budget across the group, for the routing
/// decision — only meaningful when every member carries a deadline.
fn group_budget(jobs: &[Job], now: Instant) -> Option<Duration> {
    let mut min: Option<Instant> = None;
    for j in jobs {
        match j.deadline {
            None => return None,
            Some(d) => min = Some(min.map_or(d, |m| m.min(d))),
        }
    }
    min.map(|m| m.saturating_duration_since(now))
}

fn update_ewma(inner: &Inner, key: u64, x: f64) {
    let mut map = relock(&inner.ewma);
    match map.get_mut(&key) {
        Some(e) => *e = 0.8 * *e + 0.2 * x,
        None => {
            map.insert(key, x);
        }
    }
}

fn ewma_of(inner: &Inner, key: u64) -> Option<f64> {
    relock(&inner.ewma).get(&key).copied()
}

/// Exponential backoff with deterministic jitter: attempt `a` sleeps
/// `base · 2^(a-1) · j`, `j ∈ [0.5, 1.5)` a pure hash of
/// `(seed, id, a)`, capped by the remaining deadline budget.
fn backoff_sleep(inner: &Inner, id: u64, attempt: u32, deadline: Option<Instant>) {
    let retry = inner.cfg.retry;
    let word = SplitMix64::mix(retry.jitter_seed ^ SplitMix64::mix(id) ^ u64::from(attempt));
    let jitter = 0.5 + (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let scale = f64::from(1u32 << (attempt - 1).min(16));
    let mut dur = Duration::from_secs_f64(retry.base_backoff.as_secs_f64() * scale * jitter);
    if let Some(d) = deadline {
        let now = Instant::now();
        if now >= d {
            return;
        }
        dur = dur.min(d - now);
    }
    std::thread::sleep(dur);
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[allow(clippy::too_many_arguments)]
fn respond(
    inner: &Inner,
    job: Job,
    outcome: Result<PriceReport, mdp_core::PriceError>,
    queue_seconds: f64,
    service_seconds: f64,
    batch_size: usize,
    cache_hit: bool,
    fidelity: Fidelity,
    attempts: u32,
) {
    if outcome.is_err() {
        inner.counters.add(&inner.counters.errors, 1);
    } else {
        match fidelity {
            Fidelity::Full => {}
            Fidelity::Rerouted { .. } => inner.counters.add(&inner.counters.rerouted, 1),
            Fidelity::Degraded { .. } => inner.counters.add(&inner.counters.degraded, 1),
        }
    }
    inner.counters.add(&inner.counters.completed, 1);
    // A dropped ticket just means the caller stopped waiting.
    let _ = job.tx.send(PriceResponse {
        id: job.req.id,
        outcome,
        queue_seconds,
        service_seconds,
        batch_size,
        cache_hit,
        fidelity,
        attempts,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ServeFaultPlan;
    use crate::request::Priority;
    use mdp_core::prelude::*;
    use mdp_model::Payoff;

    fn market() -> Arc<GbmMarket> {
        Arc::new(GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap())
    }

    fn call(id: u64, strike: f64) -> PriceRequest {
        PriceRequest::new(
            id,
            market(),
            Product::european(
                Payoff::BasketCall {
                    weights: vec![1.0],
                    strike,
                },
                1.0,
            ),
        )
    }

    fn slow_fd() -> Method {
        Method::Fd1d(Fd1d {
            space_points: 2001,
            time_steps: 2000,
            ..Fd1d::default()
        })
    }

    #[test]
    fn responses_match_direct_pricing_bitwise() {
        let pricer = Pricer::new(Method::Fd1d(Fd1d::default()));
        let service = PricingService::start(pricer.clone(), ServeConfig::default());
        let tickets: Vec<_> = (0..16)
            .map(|i| service.submit(call(i, 80.0 + 2.5 * i as f64)).unwrap())
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let resp = t.wait().unwrap();
            assert_eq!(resp.id, i as u64);
            assert_eq!(resp.fidelity, Fidelity::Full);
            assert_eq!(resp.attempts, 1);
            let direct = pricer
                .price(&market(), &call(resp.id, 80.0 + 2.5 * i as f64).product)
                .unwrap();
            assert_eq!(
                resp.outcome.unwrap().price.to_bits(),
                direct.price.to_bits()
            );
        }
        let stats = service.shutdown();
        assert_eq!(stats.completed, 16);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.degraded + stats.rerouted, 0);
    }

    #[test]
    fn bad_width_requests_cost_no_worker() {
        let cfg = ServeConfig::default();
        let pricer = Pricer::new(Method::Fd1d(Fd1d::default()));
        let service = PricingService::start(pricer.clone(), cfg);
        let widths = [0.0, -1.0, f64::NAN];
        // More bad requests than workers, so a plan build that killed
        // its worker would leave later tickets unanswered.
        let mut tickets: Vec<Ticket> = (0..2 * cfg.workers as u64 + 1)
            .map(|i| {
                let bad = Method::Fd1d(Fd1d {
                    width: widths[i as usize % widths.len()],
                    ..Fd1d::default()
                });
                service.submit(call(i, 100.0).with_method(bad)).unwrap()
            })
            .collect();
        tickets.push(service.submit(call(99, 100.0)).unwrap());
        let deadline = Instant::now() + Duration::from_secs(60);
        for t in tickets {
            let resp = loop {
                if let Some(resp) = t.try_wait() {
                    break resp;
                }
                assert!(
                    Instant::now() < deadline,
                    "ticket {} unanswered: its worker died",
                    t.id
                );
                std::thread::sleep(Duration::from_millis(1));
            };
            if resp.id == 99 {
                let direct = pricer.price(&market(), &call(99, 100.0).product).unwrap();
                assert_eq!(
                    resp.outcome.unwrap().price.to_bits(),
                    direct.price.to_bits()
                );
            } else {
                assert!(
                    matches!(
                        resp.outcome,
                        Err(PriceError::Pde(mdp_pde::PdeError::Model(
                            mdp_model::ModelError::InvalidParameter { what: "width", .. }
                        )))
                    ),
                    "{:?}",
                    resp.outcome
                );
            }
        }
        assert_eq!(service.shutdown().panics_caught, 0);
    }

    #[test]
    fn bounded_queue_sheds_with_typed_error() {
        // No workers can drain while we hold submissions faster than
        // pricing: capacity 2 with slow FD plans forces a shed.
        let cfg = ServeConfig {
            workers: 1,
            queue_capacity: 2,
            ..Default::default()
        };
        let service = PricingService::start(Pricer::new(slow_fd()), cfg);
        let mut shed = 0;
        let mut tickets = Vec::new();
        for i in 0..64 {
            match service.submit(call(i, 100.0)) {
                Ok(t) => tickets.push(t),
                Err(ServeError::Overloaded { capacity }) => {
                    assert_eq!(capacity, 2);
                    shed += 1;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(shed > 0, "queue of 2 must shed under a 64-burst");
        for t in tickets {
            assert!(t.wait().unwrap().outcome.is_ok());
        }
        assert_eq!(service.stats().shed, shed);
    }

    #[test]
    fn cache_hits_after_first_group_and_plan_time_collapses() {
        let service = PricingService::start(
            Pricer::new(Method::Fd1d(Fd1d::default())),
            ServeConfig {
                workers: 1,
                ..Default::default()
            },
        );
        // First burst builds the plan; the follow-ups hit the cache.
        for round in 0..3 {
            let tickets: Vec<_> = (0..8)
                .map(|i| {
                    service
                        .submit(call(round * 8 + i, 90.0 + i as f64))
                        .unwrap()
                })
                .collect();
            for t in tickets {
                t.wait().unwrap();
            }
        }
        let stats = service.shutdown();
        assert!(stats.cache.hits >= 1, "repeat bursts must hit: {stats:?}");
        assert_eq!(stats.cache.misses, 1);
        // The hit path skips plan construction entirely.
        assert!(
            stats.cache.hits == 0 || stats.mean_plan_seconds_hit() < stats.mean_plan_seconds_miss(),
            "hit plan time {} !< miss plan time {}",
            stats.mean_plan_seconds_hit(),
            stats.mean_plan_seconds_miss()
        );
    }

    #[test]
    fn poison_request_does_not_fail_neighbours() {
        let service = PricingService::start(
            Pricer::new(Method::Fd1d(Fd1d::default())),
            ServeConfig {
                workers: 1,
                ..Default::default()
            },
        );
        // An Asian payoff is path-dependent: FD rejects it at execute.
        let poison = PriceRequest::new(
            99,
            market(),
            Product::european(Payoff::AsianCall { strike: 100.0 }, 1.0),
        );
        let good = call(1, 100.0);
        let t_poison = service.submit(poison).unwrap();
        let t_good = service.submit(good).unwrap();
        assert!(t_poison.wait().unwrap().outcome.is_err());
        let good_resp = t_good.wait().unwrap();
        assert!(good_resp.outcome.is_ok(), "neighbour must still price");
        let stats = service.shutdown();
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn tick_patches_cached_plans_and_keeps_them_hot() {
        use mdp_model::MarketDelta;
        let pricer = Pricer::new(Method::Fd1d(Fd1d::default()));
        let service = PricingService::start(
            pricer.clone(),
            ServeConfig {
                workers: 1,
                ..Default::default()
            },
        );
        // Burst 1 builds and caches the group plan.
        let tickets: Vec<_> = (0..8)
            .map(|i| service.submit(call(i, 90.0 + i as f64)).unwrap())
            .collect();
        for t in tickets {
            t.wait().unwrap().outcome.unwrap();
        }
        // The market ticks: patch the cached plan instead of evicting.
        let delta = MarketDelta::Spot {
            asset: 0,
            spot: 103.5,
        };
        let (patched, evicted) = service.apply_tick(&delta);
        assert_eq!((patched, evicted), (1, 0));
        // Burst 2 quotes the ticked market: it must hit the patched
        // plan and price bitwise like a direct fresh-plan pricer.
        let ticked = Arc::new(market().apply_delta(&delta).unwrap());
        let tickets: Vec<_> = (0..8)
            .map(|i| {
                let product = call(8 + i, 90.0 + i as f64).product;
                service
                    .submit(PriceRequest::new(8 + i, Arc::clone(&ticked), product))
                    .unwrap()
            })
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let resp = t.wait().unwrap();
            assert!(resp.cache_hit, "ticked plan must stay hot");
            let direct = pricer
                .price(&ticked, &call(0, 90.0 + i as f64).product)
                .unwrap();
            assert_eq!(
                resp.outcome.unwrap().price.to_bits(),
                direct.price.to_bits()
            );
        }
        let stats = service.shutdown();
        assert_eq!(stats.ticks_applied, 1);
        assert_eq!(stats.tick_evictions, 0);
        assert_eq!(stats.cache.ticks_applied, 1);
        assert_eq!(stats.cache.misses, 1, "second burst must not rebuild");
    }

    #[test]
    fn submit_after_shutdown_is_closed() {
        let service = PricingService::start(Pricer::new(Method::Analytic), ServeConfig::default());
        {
            let mut state = service.inner.state.lock().unwrap();
            state.closed = true;
        }
        assert!(matches!(
            service.submit(call(0, 100.0)),
            Err(ServeError::Closed)
        ));
    }

    #[test]
    fn expired_queued_requests_are_reclaimed_without_engine_work() {
        // One worker, wedged on a slow no-deadline request; everything
        // queued behind it with a 1 ms budget must come back typed
        // DeadlineExceeded via the zero-work reclaim path.
        let service = PricingService::start(
            Pricer::new(slow_fd()),
            ServeConfig {
                workers: 1,
                ..Default::default()
            },
        );
        let t_slow = service.submit(call(0, 100.0)).unwrap();
        // Let the worker drain (and wedge on) the slow job before the
        // deadline burst goes in, so the burst waits behind it.
        std::thread::sleep(Duration::from_millis(30));
        let tickets: Vec<_> = (1..9)
            .map(|i| {
                service
                    .submit(call(i, 100.0).with_deadline(Duration::from_millis(1)))
                    .unwrap()
            })
            .collect();
        assert!(t_slow.wait().unwrap().outcome.is_ok());
        for t in tickets {
            let resp = t.wait().unwrap();
            assert!(matches!(resp.outcome, Err(PriceError::DeadlineExceeded)));
        }
        let stats = service.shutdown();
        assert!(
            stats.deadline_pre >= 1,
            "queued expiries must reclaim: {stats:?}"
        );
        assert!(stats.reclaim_ratio() > 0.0);
    }

    #[test]
    fn injected_panics_are_caught_retried_and_typed() {
        // Every attempt of every request panics: the retry budget is
        // spent, the error is typed Panicked, and the worker survives
        // to answer the next (fault-free) request.
        let fault = ServeFaultPlan::new(11).with_panics(1.0).until(1);
        let service = PricingService::start(
            Pricer::new(Method::Fd1d(Fd1d::default())),
            ServeConfig {
                workers: 1,
                fault: Some(fault),
                ..Default::default()
            },
        );
        let doomed = service.submit(call(0, 100.0)).unwrap();
        let resp = doomed.wait().unwrap();
        assert!(matches!(resp.outcome, Err(PriceError::Panicked(_))));
        assert_eq!(resp.attempts, 3, "default retry budget is 3 attempts");
        // The worker must still be alive for clean ids (>= until).
        let clean = service.submit(call(1, 100.0)).unwrap();
        assert!(clean.wait().unwrap().outcome.is_ok());
        let stats = service.shutdown();
        assert_eq!(stats.panics_caught, 3);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.faults_injected, 3);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn poisoned_results_surface_as_numerical_never_as_nan_prices() {
        let fault = ServeFaultPlan::new(5).with_poison(1.0).until(1);
        let service = PricingService::start(
            Pricer::new(Method::Fd1d(Fd1d::default())),
            ServeConfig {
                workers: 1,
                retry: crate::request::RetryPolicy {
                    max_attempts: 1,
                    ..Default::default()
                },
                fault: Some(fault),
                ..Default::default()
            },
        );
        let resp = service.price(call(0, 100.0)).unwrap();
        assert!(matches!(resp.outcome, Err(PriceError::Numerical { .. })));
        let stats = service.shutdown();
        assert_eq!(stats.numerical, 1);
    }

    #[test]
    fn tripped_breaker_reroutes_with_explicit_fidelity() {
        // Panic every execution of ids < 5: four failures trip the FD
        // breaker (min_samples 4). A later clean request must be
        // rerouted via the auto() table (vanilla call → analytic) and
        // tagged, never silently.
        let fault = ServeFaultPlan::new(3).with_panics(1.0).until(5);
        let cfg = ServeConfig {
            workers: 1,
            retry: crate::request::RetryPolicy {
                max_attempts: 1,
                ..Default::default()
            },
            breaker: crate::request::BreakerConfig {
                window: 8,
                min_samples: 4,
                // Long cooldown: the breaker must still be Open (not
                // probing) when the clean request arrives.
                cooldown: Duration::from_secs(30),
                ..Default::default()
            },
            fault: Some(fault),
            ..Default::default()
        };
        let fd = Method::Fd1d(Fd1d::default());
        let service = PricingService::start(Pricer::new(fd.clone()), cfg);
        for i in 0..5 {
            let _ = service.price(call(i, 100.0));
        }
        assert_eq!(service.breaker_state(&fd), BreakerState::Open);
        let resp = service.price(call(100, 100.0)).unwrap();
        assert!(resp.outcome.is_ok());
        assert_eq!(resp.fidelity, Fidelity::Rerouted { engine: "analytic" });
        let history = service.breaker_history();
        let stats = service.shutdown();
        assert!(stats.breaker_trips >= 1);
        assert!(stats.rerouted >= 1);
        assert!(stats.breaker_rejections >= 1);
        assert!(crate::breaker::transitions_legal(&history));
    }

    #[test]
    fn tripped_breaker_degrades_when_no_alternative_engine() {
        // A path-dependent product routes to MC in the auto() table; if
        // the requested method *is* that MC configuration, a tripped
        // breaker has no reroute and must fall back to the degraded
        // variant (quarter paths) with an explicit tag.
        let mc = Method::MonteCarlo(McConfig {
            paths: 200_000,
            steps: 50,
            ..Default::default()
        });
        let asian = |id: u64| {
            PriceRequest::new(
                id,
                market(),
                Product::european(Payoff::AsianCall { strike: 100.0 }, 1.0),
            )
        };
        let fault = ServeFaultPlan::new(3).with_panics(1.0).until(5);
        let cfg = ServeConfig {
            workers: 1,
            retry: crate::request::RetryPolicy {
                max_attempts: 1,
                ..Default::default()
            },
            breaker: crate::request::BreakerConfig {
                window: 8,
                min_samples: 4,
                cooldown: Duration::from_secs(30),
                ..Default::default()
            },
            fault: Some(fault),
            ..Default::default()
        };
        let service = PricingService::start(Pricer::new(mc.clone()), cfg);
        for i in 0..5 {
            let _ = service.price(asian(i));
        }
        assert_eq!(service.breaker_state(&mc), BreakerState::Open);
        let resp = service.price(asian(100)).unwrap();
        assert!(resp.outcome.is_ok());
        assert_eq!(resp.fidelity, Fidelity::Degraded { levels: 1 });
        let stats = service.shutdown();
        assert!(stats.degraded >= 1);
    }

    #[test]
    fn priority_lanes_drain_high_before_low() {
        // Wedge the single worker, then enqueue low before high; the
        // high-priority job must be answered first.
        let service = PricingService::start(
            Pricer::new(slow_fd()),
            ServeConfig {
                workers: 1,
                coalesce: false,
                ..Default::default()
            },
        );
        let t_wedge = service.submit(call(0, 100.0)).unwrap();
        let t_low = service
            .submit(call(1, 100.0).with_priority(Priority::Low))
            .unwrap();
        let t_high = service
            .submit(call(2, 100.0).with_priority(Priority::High))
            .unwrap();
        t_wedge.wait().unwrap();
        // Wait for high; low must still be pending or just answered —
        // order is asserted via completion sequence.
        let high = t_high.wait().unwrap();
        let low = t_low.wait().unwrap();
        assert!(high.outcome.is_ok() && low.outcome.is_ok());
        // The high job spent strictly less time queued: it overtook a
        // low job that was submitted first.
        assert!(
            high.queue_seconds < low.queue_seconds,
            "high {} !< low {}",
            high.queue_seconds,
            low.queue_seconds
        );
    }
}
