//! The plan cache: LRU over compiled [`PricerPlan`]s.
//!
//! Keys are bit-exact ([`PlanKey`]), so a hit is *provably* the same
//! plan the miss path would have built — handing out a clone and
//! executing it is bitwise-identical to rebuilding, while paying
//! `plan_seconds ≈ 0` instead of grid construction, operator assembly
//! and Thomas/Cholesky factorization.

use crate::coalesce::PlanKey;
use mdp_core::PricerPlan;
use mdp_model::MarketDelta;

/// Hit/miss/eviction counters of a [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Cached plans patched in place by a market tick
    /// ([`PlanCache::retain_compatible`]).
    pub ticks_applied: u64,
    /// Cached plans a tick could not patch, evicted instead.
    pub tick_evictions: u64,
}

impl CacheStats {
    /// Hits over total lookups (0 when never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A least-recently-used cache of compiled group plans.
///
/// Deliberately a scan-based LRU over a small `Vec`: capacities are
/// tens of entries (one per live `(market, maturity, config)` triple),
/// where a linear scan beats hashing and keeps recency exact.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    /// MRU at the back.
    entries: Vec<(PlanKey, PricerPlan)>,
    stats: CacheStats,
}

impl PlanCache {
    /// Cache holding at most `capacity` plans (`0` disables storage —
    /// every lookup misses and inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            entries: Vec::with_capacity(capacity),
            stats: CacheStats::default(),
        }
    }

    /// Look up a plan, refreshing its recency. Returns a clone — the
    /// caller executes (and mutates scratch) on its own copy, so one
    /// cached plan serves concurrent workers.
    pub fn get(&mut self, key: &PlanKey) -> Option<PricerPlan> {
        match self.entries.iter().position(|(k, _)| k == key) {
            Some(i) => {
                self.stats.hits += 1;
                // Move to MRU position.
                let entry = self.entries.remove(i);
                let plan = entry.1.clone();
                self.entries.push(entry);
                Some(plan)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) a plan, evicting the least-recently-used
    /// entry when over capacity.
    pub fn insert(&mut self, key: PlanKey, plan: PricerPlan) {
        if self.capacity == 0 {
            return;
        }
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(i);
        }
        if self.entries.len() >= self.capacity {
            self.entries.remove(0);
            self.stats.evictions += 1;
        }
        self.entries.push((key, plan));
    }

    /// Apply a one-field market tick to every cached plan: each entry
    /// is **patched in place** via [`PricerPlan::apply_tick`] and re-keyed
    /// under its ticked market's fingerprint, so the next burst quoting
    /// the ticked market hits a plan bitwise-identical to a fresh build
    /// — instead of the cache silently serving stale pre-tick plans (or
    /// dropping everything and repaying every plan build).
    ///
    /// Entries the tick cannot patch (e.g. the delta fails validation
    /// against that entry's market) are evicted, and so is the less
    /// recently used of two entries the tick lands on one key (plans
    /// built for two snapshots the tick makes equal). Returns
    /// `(patched, evicted)`; the same counts accumulate in
    /// [`CacheStats::ticks_applied`] / [`CacheStats::tick_evictions`].
    pub fn retain_compatible(&mut self, delta: &MarketDelta) -> (u64, u64) {
        let mut patched = 0u64;
        let mut evicted = 0u64;
        self.entries
            .retain_mut(|(key, plan)| match plan.apply_tick(delta) {
                Ok(_) => {
                    key.market = plan.market().cache_key();
                    patched += 1;
                    true
                }
                Err(_) => {
                    evicted += 1;
                    false
                }
            });
        let mut i = 0;
        while i < self.entries.len() {
            let key = self.entries[i].0;
            if self.entries[i + 1..].iter().any(|(k, _)| *k == key) {
                self.entries.remove(i);
                patched -= 1;
                evicted += 1;
            } else {
                i += 1;
            }
        }
        self.stats.ticks_applied += patched;
        self.stats.tick_evictions += evicted;
        (patched, evicted)
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Plans currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdp_core::prelude::*;
    use std::sync::Arc;

    fn plan_for(maturity: f64) -> (PlanKey, PricerPlan) {
        let market = Arc::new(GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap());
        let portfolio = Portfolio::new(Pricer::new(Method::Fd1d(Fd1d::default())));
        let key = crate::coalesce::PlanKey {
            market: market.cache_key(),
            maturity: maturity.to_bits(),
            method: portfolio.pricer().method().cache_key(),
        };
        (key, portfolio.plan_group(&market, maturity).unwrap())
    }

    #[test]
    fn lru_evicts_oldest_and_counts() {
        let mut cache = PlanCache::new(2);
        let (k1, p1) = plan_for(1.0);
        let (k2, p2) = plan_for(2.0);
        let (k3, p3) = plan_for(3.0);
        assert!(cache.get(&k1).is_none());
        cache.insert(k1, p1);
        cache.insert(k2, p2);
        assert!(cache.get(&k1).is_some()); // k1 is now MRU
        cache.insert(k3, p3); // evicts k2 (LRU)
        assert!(cache.get(&k2).is_none());
        assert!(cache.get(&k1).is_some());
        assert!(cache.get(&k3).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 2);
        assert!((s.hit_rate() - 3.0 / 5.0).abs() < 1e-12);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn a_tick_that_lands_two_plans_on_one_key_keeps_one() {
        let portfolio = Portfolio::new(Pricer::new(Method::Fd1d(Fd1d::default())));
        let entry = |spot: f64| {
            let market = GbmMarket::single(spot, 0.2, 0.0, 0.05).unwrap();
            let key = PlanKey::of(
                &market,
                &Product::european(
                    Payoff::BasketPut {
                        weights: vec![1.0],
                        strike: 100.0,
                    },
                    1.0,
                ),
                portfolio.pricer().method(),
            );
            (key, portfolio.plan_group(&market, 1.0).unwrap())
        };
        let mut cache = PlanCache::new(4);
        let (k100, p100) = entry(100.0);
        let (k101, p101) = entry(101.0);
        cache.insert(k100, p100);
        cache.insert(k101, p101);
        let delta = MarketDelta::Spot {
            asset: 0,
            spot: 102.0,
        };
        assert_eq!(cache.retain_compatible(&delta), (1, 1));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().ticks_applied, 1);
        assert_eq!(cache.stats().tick_evictions, 1);
        assert!(cache.get(&entry(102.0).0).is_some());
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut cache = PlanCache::new(0);
        let (k1, p1) = plan_for(1.0);
        cache.insert(k1, p1);
        assert!(cache.get(&k1).is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
    }
}
