//! Canonical workloads shared by the repro experiments, so every table
//! row of one kind measures the same thing.

use mdp_core::lattice::cluster::{price_cluster, ClusterLatticeOutcome, Decomposition};
use mdp_core::mc::cluster_driver::{price_mc_cluster, McClusterOutcome};
use mdp_core::prelude::*;

/// The symmetric d-asset market used throughout the evaluation:
/// S=100, σ=20%, q=0, r=5%, pairwise ρ=0.3.
pub fn market(d: usize) -> GbmMarket {
    GbmMarket::symmetric(d, 100.0, 0.2, 0.0, 0.05, 0.3).expect("valid market")
}

/// Higher-vol market for the Monte Carlo experiments (matches the
/// basket studies of the era).
pub fn market_vol(d: usize, vol: f64) -> GbmMarket {
    GbmMarket::symmetric(d, 100.0, vol, 0.0, 0.05, 0.3).expect("valid market")
}

/// ATM European max-call — the lattice workhorse product (any d).
pub fn max_call() -> Product {
    Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0)
}

/// ATM European geometric basket call — has a closed form in every
/// dimension, so it anchors all accuracy experiments.
pub fn geometric_call() -> Product {
    Product::european(Payoff::GeometricCall { strike: 100.0 }, 1.0)
}

/// ATM European arithmetic basket call (no closed form; the CV target).
pub fn basket_call(d: usize) -> Product {
    Product::european(
        Payoff::BasketCall {
            weights: Product::equal_weights(d),
            strike: 100.0,
        },
        1.0,
    )
}

/// ITM American min-put (the American benchmark product).
pub fn american_min_put() -> Product {
    Product::american(Payoff::MinPut { strike: 110.0 }, 1.0)
}

/// 1-asset vanilla call.
pub fn vanilla_call() -> Product {
    Product::european(
        Payoff::BasketCall {
            weights: vec![1.0],
            strike: 100.0,
        },
        1.0,
    )
}

/// The closed form for [`geometric_call`] on [`market`]`(d)`.
pub fn geometric_exact(d: usize) -> f64 {
    analytic::geometric_basket_call(&market(d), &Product::equal_weights(d), 100.0, 1.0)
}

/// The distributed BEG lattice on `ranks` ranks, without faults or
/// checkpoints.
pub fn cluster_lattice(
    m: &GbmMarket,
    prod: &Product,
    steps: usize,
    ranks: usize,
    machine: Machine,
    decomp: Decomposition,
) -> ClusterLatticeOutcome {
    price_cluster(
        m,
        prod,
        steps,
        ranks,
        machine,
        decomp,
        FaultPlan::new(0),
        None,
    )
    .expect("cluster lattice")
}

/// Distributed European Monte Carlo on `ranks` ranks, without faults or
/// checkpoints.
pub fn cluster_mc(
    m: &GbmMarket,
    prod: &Product,
    cfg: McConfig,
    ranks: usize,
    machine: Machine,
) -> McClusterOutcome {
    price_mc_cluster(m, prod, cfg, ranks, machine, FaultPlan::new(0), None).expect("cluster mc")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_valid() {
        for d in 1..=6 {
            let m = market(d);
            assert_eq!(m.dim(), d);
            assert!(basket_call(d).validate_for(&m).is_ok());
            assert!(geometric_call().validate_for(&m).is_ok());
            assert!(max_call().validate_for(&m).is_ok());
        }
        assert!(geometric_exact(3) > 0.0);
    }
}
