//! Request coalescing: bit-exact plan keys and in-flight grouping.
//!
//! The coalescer drains whatever is in the admission queue and groups
//! it by [`PlanKey`] — the same bit-exact identity
//! [`mdp_core::Portfolio::price_batch`] groups a book by, extended with
//! the market fingerprint because independent requests need not share a
//! snapshot. Same key ⇒ the requests can share one compiled
//! [`mdp_core::PricerPlan`] and ride one fused kernel call
//! (multi-RHS Thomas lanes, shared-path MC sweep); different keys —
//! including the *same* maturity under two different engine
//! configurations — can never mix.

use crate::service::Job;
use mdp_core::Method;
use mdp_model::{GbmMarket, Product};

/// The bit-exact identity of a compiled group plan: a plan may be
/// shared between two requests iff their keys are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// [`GbmMarket::cache_key`] of the snapshot.
    pub market: u64,
    /// IEEE-754 bits of the product maturity.
    pub maturity: u64,
    /// [`Method::cache_key`] of the engine configuration.
    pub method: u64,
}

impl PlanKey {
    /// Key for a request's `(market, product, method)` triple.
    pub fn of(market: &GbmMarket, product: &Product, method: &Method) -> Self {
        PlanKey {
            market: market.cache_key(),
            maturity: product.maturity.to_bits(),
            method: method.cache_key(),
        }
    }
}

/// Group a drained batch of jobs by plan key, preserving arrival order
/// within each group and the order of first arrival across groups.
pub(crate) fn group_jobs(jobs: Vec<Job>) -> Vec<Vec<Job>> {
    let mut groups: Vec<Vec<Job>> = Vec::new();
    for job in jobs {
        match groups.iter_mut().find(|g| g[0].key == job.key) {
            Some(g) => g.push(job),
            None => groups.push(vec![job]),
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdp_model::Payoff;

    fn call(strike: f64, maturity: f64) -> Product {
        Product::european(
            Payoff::BasketCall {
                weights: vec![1.0],
                strike,
            },
            maturity,
        )
    }

    #[test]
    fn key_separates_market_maturity_and_method() {
        let m1 = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
        let m2 = GbmMarket::single(101.0, 0.2, 0.0, 0.05).unwrap();
        let fd = Method::Fd1d(mdp_core::pde::Fd1d::default());
        let fd_coarse = Method::Fd1d(mdp_core::pde::Fd1d {
            space_points: 201,
            ..mdp_core::pde::Fd1d::default()
        });
        let base = PlanKey::of(&m1, &call(100.0, 1.0), &fd);
        // Same snapshot/maturity/config, different strike: same key —
        // strikes ride the same plan.
        assert_eq!(base, PlanKey::of(&m1, &call(90.0, 1.0), &fd));
        // Any identity component flips the key.
        assert_ne!(base, PlanKey::of(&m2, &call(100.0, 1.0), &fd));
        assert_ne!(base, PlanKey::of(&m1, &call(100.0, 2.0), &fd));
        assert_ne!(base, PlanKey::of(&m1, &call(100.0, 1.0), &fd_coarse));
    }
}
