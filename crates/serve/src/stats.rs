//! Service-level counters, kept as atomics on the hot path and read
//! out as a consistent-enough snapshot for reports.

use crate::cache::CacheStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// Internal atomic counters (one instance shared by all workers).
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub shed: AtomicU64,
    pub errors: AtomicU64,
    pub groups: AtomicU64,
    pub grouped_requests: AtomicU64,
    pub fused: AtomicU64,
    pub plan_nanos_hit: AtomicU64,
    pub plan_nanos_miss: AtomicU64,
    pub deadline_pre: AtomicU64,
    pub deadline_mid: AtomicU64,
    pub retries: AtomicU64,
    pub panics_caught: AtomicU64,
    pub numerical: AtomicU64,
    pub degraded: AtomicU64,
    pub rerouted: AtomicU64,
    pub breaker_rejections: AtomicU64,
    pub faults_injected: AtomicU64,
}

impl Counters {
    pub fn add(&self, c: &AtomicU64, v: u64) {
        c.fetch_add(v, Ordering::Relaxed);
    }
}

/// A point-in-time snapshot of the service's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Responses delivered (including per-request errors).
    pub completed: u64,
    /// Requests shed by admission control ([`crate::ServeError::Overloaded`]).
    pub shed: u64,
    /// Responses whose outcome was a pricing error.
    pub errors: u64,
    /// Same-key groups drained and served (a lone request is a group
    /// of one). Fault-targeted requests, peeled off before grouping, and
    /// members served again after their group failed are not counted.
    pub groups: u64,
    /// Requests in those groups (group sizes summed).
    pub grouped_requests: u64,
    /// Requests priced through a fused multi-product kernel.
    pub fused: u64,
    /// Plan-cache counters.
    pub cache: CacheStats,
    /// Cached plans patched in place by market ticks
    /// ([`crate::PricingService::apply_tick`]); mirrors
    /// [`CacheStats::ticks_applied`].
    pub ticks_applied: u64,
    /// Cached plans ticks could not patch, evicted instead; mirrors
    /// [`CacheStats::tick_evictions`].
    pub tick_evictions: u64,
    /// Total seconds spent on the plan phase across cache **hits**
    /// (lookup + clone — the `plan_seconds ≈ 0` path).
    pub plan_seconds_hit: f64,
    /// Total seconds spent on the plan phase across cache misses
    /// (actual plan builds).
    pub plan_seconds_miss: f64,
    /// Requests whose deadline had already expired when a worker
    /// drained them: answered `DeadlineExceeded` with **zero** engine
    /// work (the cancellation reclaim path).
    pub deadline_pre: u64,
    /// Requests whose cancel token tripped mid-execute: the engine
    /// aborted at its next poll and partial work was discarded.
    pub deadline_mid: u64,
    /// Retry attempts spent (attempts beyond each request's first).
    pub retries: u64,
    /// Worker panics caught at the isolation boundary.
    pub panics_caught: u64,
    /// Non-finite engine outputs caught by the post-condition check.
    pub numerical: u64,
    /// Responses priced at [`crate::Fidelity::Degraded`].
    pub degraded: u64,
    /// Responses priced at [`crate::Fidelity::Rerouted`].
    pub rerouted: u64,
    /// Executions refused because the engine's breaker was open.
    pub breaker_rejections: u64,
    /// Breaker trips (`* → Open` transitions) across all engines.
    pub breaker_trips: u64,
    /// Faults the configured [`crate::ServeFaultPlan`] injected.
    pub faults_injected: u64,
}

impl ServiceStats {
    /// Mean requests per coalesced group (1.0 when nothing grouped).
    pub fn mean_batch(&self) -> f64 {
        if self.groups == 0 {
            1.0
        } else {
            self.grouped_requests as f64 / self.groups as f64
        }
    }

    /// Mean plan seconds on the cache-hit path.
    pub fn mean_plan_seconds_hit(&self) -> f64 {
        if self.cache.hits == 0 {
            0.0
        } else {
            self.plan_seconds_hit / self.cache.hits as f64
        }
    }

    /// Mean plan seconds on the build (miss) path.
    pub fn mean_plan_seconds_miss(&self) -> f64 {
        if self.cache.misses == 0 {
            0.0
        } else {
            self.plan_seconds_miss / self.cache.misses as f64
        }
    }

    /// Fraction of accepted requests that were not answered with a
    /// full-service response: admission sheds plus deadline failures,
    /// over submissions plus sheds. The overload experiment's headline
    /// number — degradation lowers it by converting would-be deadline
    /// misses into explicit cheaper answers.
    pub fn shed_rate(&self) -> f64 {
        let offered = self.submitted + self.shed;
        if offered == 0 {
            0.0
        } else {
            (self.shed + self.deadline_pre + self.deadline_mid) as f64 / offered as f64
        }
    }

    /// Of all deadline failures, the fraction reclaimed before any
    /// engine work was spent (higher = cancellation doing its job).
    pub fn reclaim_ratio(&self) -> f64 {
        let total = self.deadline_pre + self.deadline_mid;
        if total == 0 {
            0.0
        } else {
            self.deadline_pre as f64 / total as f64
        }
    }
}
