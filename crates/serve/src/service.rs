//! The service: a bounded admission queue drained by a worker pool,
//! with coalesced batch execution, plan caching, and a resilience
//! layer — deadlines with cooperative cancellation, budgeted retries,
//! per-engine circuit breakers, and explicit graceful degradation.
//!
//! Every request takes one path. A worker drains up to `max_batch`
//! jobs, groups them by [`PlanKey`], and serves each group — a lone
//! request is a group of one — through the same routine:
//!
//! ```text
//! submit ──▶ [priority lanes] ──▶ worker: drain ─▶ reclaim expired (0 work)
//!    │                                  │
//!    └─ Overloaded (shed)               ▼
//!                     peel off fault-targeted jobs, group the rest by PlanKey
//!                                       │
//!                                       ▼  per group (a lone request: a group of one)
//!                             route: breaker open? ──▶ reroute (auto table)
//!                                    budget < EWMA? ──▶ degrade (tagged)
//!                                       │
//!                                       ▼
//!                  plan: cache hit or build ─▶ execute_group under catch_unwind
//!                                       │                 │ cancel token polls
//!                                       ▼                 ▼
//!                                    respond   group failed → each member again, alone
//!                                              lone panic/NaN → retry w/ backoff
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
            cache: Mutex::new(PlanCache::new(cfg.plan_cache)),
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
            let take = inner.cfg.max_batch.max(1).min(state.len);
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
        inner
            .counters
            .add(&inner.counters.deadline_pre, expired.len() as u64);
        fail_all(
            &inner,
            expired,
            PriceError::DeadlineExceeded,
            drained,
            Served::new(1, 0),
        );
        // Peel off fault-targeted jobs, so injected chaos cannot fail
        // innocent neighbours; group the rest by plan key.
        let (faulted, clean): (Vec<Job>, Vec<Job>) = match inner.cfg.fault {
            Some(fp) if fp.has_chaos() => live
                .into_iter()
                .partition(|j| fp.roll(j.req.id, 1).is_some()),
            _ => (Vec::new(), live),
        };
        for job in faulted {
            serve(&inner, vec![job], drained, 1);
        }
        for jobs in group_jobs(clean) {
            let n = jobs.len();
            inner.counters.add(&inner.counters.groups, 1);
            inner
                .counters
                .add(&inner.counters.grouped_requests, n as u64);
            serve(&inner, jobs, drained, n);
        }
    }
}

/// Serve one same-key group of jobs; a lone request is a group of one.
///
/// Each attempt routes the group (breaker, budget), takes its plan from
/// the cache or builds and caches it, and runs
/// [`Portfolio::execute_group`] inside the isolation boundary. A typed
/// plan error answers the whole group, because plans are
/// payoff-independent. Any other failure of a group of several serves
/// each member again as a group of one, so innocent neighbours still get
/// their answers. Only a lone request retries engine faults (panics,
/// non-finite prices), within [`crate::RetryPolicy`] and with
/// deterministic backoff; since it never splits, recursion stops after
/// one level.
///
/// `batch_size` is what the answers report: the group's own size, or,
/// for a member served again, the size of the group that failed.
fn serve(inner: &Inner, jobs: Vec<Job>, drained: Instant, batch_size: usize) {
    let n = jobs.len();
    let head = &jobs[0];
    let requested = method_of(inner, &head.req);
    // The group's cancel token: the latest member deadline, so the run
    // aborts only once no member can still use the result. Mixed
    // groups (any member without a deadline) run uncancelled.
    let token = group_token(&jobs);
    let products: Vec<Product> = jobs.iter().map(|j| j.req.product.clone()).collect();
    let t0 = Instant::now();
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let mut served = Served::new(batch_size, attempt);
        // Every member's budget gone? Answer typed without engine work.
        if token.is_cancelled() {
            let c = if attempt == 1 {
                &inner.counters.deadline_pre
            } else {
                &inner.counters.deadline_mid
            };
            inner.counters.add(c, n as u64);
            served.service_seconds = t0.elapsed().as_secs_f64();
            served.attempts = attempt - 1;
            return fail_all(inner, jobs, PriceError::DeadlineExceeded, drained, served);
        }
        let remaining = group_budget(&jobs, Instant::now());
        let route = decide_route(
            inner,
            &head.req.market,
            &head.req.product,
            &requested,
            remaining,
            n as u64,
        );
        let (method, fidelity) = match route {
            Ok(r) => r,
            Err(e) => {
                served.service_seconds = t0.elapsed().as_secs_f64();
                return fail_all(inner, jobs, e, drained, served);
            }
        };
        served.fidelity = fidelity;
        // A rerouted/degraded method is a different engine identity: its
        // plans live under their own cache key and can never alias the
        // full-fidelity entries.
        let key = if fidelity == Fidelity::Full {
            head.key
        } else {
            PlanKey::of(&head.req.market, &head.req.product, &method)
        };
        let mkey = method.cache_key();
        let engine = method.name();
        let portfolio = Portfolio::new(Pricer::new(method).backend(inner.base.backend_ref()));
        let fault = match &jobs[..] {
            [job] => inner.cfg.fault.and_then(|fp| fp.roll(job.req.id, attempt)),
            // Fault-targeted requests were peeled off before grouping.
            _ => None,
        };
        if fault.is_some() {
            inner.counters.add(&inner.counters.faults_injected, 1);
        }
        let (mut plan_s, mut exec_s) = (0.0, 0.0);
        // The isolation boundary: anything the engine (or an injected
        // fault) throws is caught here and classified below; the worker
        // thread itself never dies. The outer `Result` is the plan
        // phase's, the inner one the execute's.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            match fault {
                Some(Fault::Stall) => {
                    std::thread::sleep(inner.cfg.fault.map_or(Duration::ZERO, |fp| fp.stall));
                }
                Some(Fault::Panic) => panic!("injected worker panic"),
                _ => {}
            }
            // Plan phase: cache hit (≈ 0 s) or build-and-insert.
            let t_plan = Instant::now();
            let cached = relock(&inner.cache).get(&key);
            served.cache_hit = cached.is_some();
            let plan = match cached {
                Some(plan) => Ok(plan),
                None => portfolio
                    .plan_group(&head.req.market, head.req.product.maturity)
                    .inspect(|plan| relock(&inner.cache).insert(key, plan.clone())),
            };
            plan_s = t_plan.elapsed().as_secs_f64();
            let mut plan = plan?;
            plan.set_cancel(token.clone());
            let t_exec = Instant::now();
            let executed = portfolio.execute_group(&mut plan, &products, plan_s);
            exec_s = t_exec.elapsed().as_secs_f64();
            Ok(executed.and_then(|(mut reports, fused)| {
                if fault == Some(Fault::Poison) {
                    reports[0].price = f64::NAN;
                }
                // The fused kernels leave the finite-price post-condition
                // to the caller, and the poison lands after execute.
                match reports.iter().find(|r| !r.price.is_finite()) {
                    Some(r) => Err(PriceError::Numerical {
                        engine,
                        value: r.price,
                    }),
                    None => Ok((reports, fused)),
                }
            }))
        }));
        let plan_nanos = if served.cache_hit {
            &inner.counters.plan_nanos_hit
        } else {
            &inner.counters.plan_nanos_miss
        };
        inner.counters.add(plan_nanos, (plan_s * 1e9) as u64);
        // Service time: the plan plus an equal share of the execute —
        // everything since the group came up (for a lone request that
        // includes earlier attempts, backoff and stalls) less the other
        // members' shares.
        served.service_seconds = t0.elapsed().as_secs_f64() - exec_s * (n - 1) as f64 / n as f64;
        let outcome = match caught {
            Ok(Ok(executed)) => executed,
            // The plan is payoff-independent: a build failure fails every
            // member identically, exactly as per-request plans would have.
            Ok(Err(e)) => return fail_all(inner, jobs, e, drained, served),
            Err(payload) => {
                inner.counters.add(&inner.counters.panics_caught, 1);
                Err(PriceError::Panicked(panic_message(payload)))
            }
        };
        match outcome {
            Ok((reports, fused)) => {
                inner.counters.add(&inner.counters.fused, fused as u64);
                inner.breakers.record(mkey, true);
                update_ewma(inner, mkey, exec_s / n as f64);
                for (job, report) in jobs.into_iter().zip(reports) {
                    respond(inner, job, Ok(report), drained, served);
                }
                return;
            }
            Err(PriceError::DeadlineExceeded) => {
                // The token tripped mid-execute. It carries the *latest*
                // member deadline, so every member's budget is gone and a
                // retry could only fail the same way.
                inner.counters.add(&inner.counters.deadline_mid, n as u64);
                return fail_all(inner, jobs, PriceError::DeadlineExceeded, drained, served);
            }
            Err(e) if n > 1 => {
                // Isolate the failure: each member is served again alone
                // and gets its own (bitwise-identical) answer. A panic is
                // an engine-health signal; a per-request error (e.g. one
                // poison payoff in the group) is not.
                if matches!(e, PriceError::Panicked(_)) {
                    inner.breakers.record(mkey, false);
                }
                for job in jobs {
                    serve(inner, vec![job], drained, n);
                }
                return;
            }
            Err(e @ (PriceError::Panicked(_) | PriceError::Numerical { .. })) => {
                // Engine faults: health signal + retryable.
                inner.breakers.record(mkey, false);
                if matches!(e, PriceError::Numerical { .. }) {
                    inner.counters.add(&inner.counters.numerical, 1);
                }
                if attempt < inner.cfg.retry.max_attempts.max(1) {
                    inner.counters.add(&inner.counters.retries, 1);
                    backoff_sleep(inner, head.req.id, attempt, head.deadline);
                    continue;
                }
                return fail_all(inner, jobs, e, drained, served);
            }
            // Deterministic request errors (validation, unsupported
            // combinations): retrying cannot change the answer, and they
            // say nothing about engine health.
            Err(e) => return fail_all(inner, jobs, e, drained, served),
        }
    }
}

/// Pick the engine for a same-key group (a lone request included): the
/// requested method when its breaker admits and the budget suffices;
/// otherwise reroute via the `auto()` table, then degrade, then fail
/// typed.
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

/// The telemetry every member of one served group reports alike.
#[derive(Debug, Clone, Copy)]
struct Served {
    service_seconds: f64,
    batch_size: usize,
    cache_hit: bool,
    fidelity: Fidelity,
    attempts: u32,
}

impl Served {
    /// Nothing spent yet, no cache hit, full fidelity.
    fn new(batch_size: usize, attempts: u32) -> Self {
        Served {
            service_seconds: 0.0,
            batch_size,
            cache_hit: false,
            fidelity: Fidelity::Full,
            attempts,
        }
    }
}

fn respond(
    inner: &Inner,
    job: Job,
    outcome: Result<PriceReport, PriceError>,
    drained: Instant,
    served: Served,
) {
    if outcome.is_err() {
        inner.counters.add(&inner.counters.errors, 1);
    } else {
        match served.fidelity {
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
        queue_seconds: (drained - job.enqueued).as_secs_f64(),
        service_seconds: served.service_seconds,
        batch_size: served.batch_size,
        cache_hit: served.cache_hit,
        fidelity: served.fidelity,
        attempts: served.attempts,
    });
}

/// Answer every member of a group with the same error.
fn fail_all(inner: &Inner, jobs: Vec<Job>, e: PriceError, drained: Instant, served: Served) {
    for job in jobs {
        respond(inner, job, Err(e.clone()), drained, served);
    }
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
    fn naive_config_serves_each_request_alone_and_builds_its_plan() {
        // `max_batch: 1, plan_cache: 0` is the naive baseline: a same-key
        // burst still prices bitwise, but as groups of one, each paying
        // its own plan build.
        let pricer = Pricer::new(Method::Fd1d(Fd1d::default()));
        let service = PricingService::start(
            pricer.clone(),
            ServeConfig {
                max_batch: 1,
                plan_cache: 0,
                ..Default::default()
            },
        );
        let n = 12u64;
        let tickets: Vec<_> = (0..n)
            .map(|i| service.submit(call(i, 90.0 + i as f64)).unwrap())
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let resp = t.wait().unwrap();
            let direct = pricer
                .price(&market(), &call(0, 90.0 + i as f64).product)
                .unwrap();
            assert_eq!(
                resp.outcome.unwrap().price.to_bits(),
                direct.price.to_bits()
            );
        }
        let stats = service.shutdown();
        assert_eq!((stats.cache.hits, stats.cache.misses), (0, n));
        assert_eq!(stats.groups, n);
        assert_eq!(stats.mean_batch(), 1.0);
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
                max_batch: 1,
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
