//! Property sweep of the equality-by-construction discipline: every
//! lattice driver — sequential, rayon, and the virtual-cluster SPMD
//! model under both decompositions — must produce bitwise-identical
//! prices, because they re-partition the same floating-point operations
//! without reordering any node's branch accumulation.

use mdp_cluster::{FaultPlan, Machine};
use mdp_lattice::cluster::{price_cluster, Decomposition};
use mdp_lattice::MultiLattice;
use mdp_model::{GbmMarket, Payoff, Product};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random dimension, step count, market, payoff, exercise style and
    /// rank count: all four drivers agree to the last bit.
    #[test]
    fn all_drivers_bitwise_equal(
        d in 1usize..5,
        steps in 1usize..9,
        vol in 0.15f64..0.35,
        rho in 0.0f64..0.35,
        rate in 0.0f64..0.08,
        strike in 80.0f64..120.0,
        payoff_kind in 0usize..4,
        american in 0usize..2,
        ranks in 1usize..5,
    ) {
        // d = 1 markets take no correlation input.
        let rho = if d == 1 { 0.0 } else { rho };
        let market = match GbmMarket::symmetric(d, 100.0, vol, 0.01, rate, rho) {
            Ok(m) => m,
            Err(_) => return Ok(()),
        };
        let payoff = match payoff_kind {
            0 => Payoff::MaxCall { strike },
            1 => Payoff::MinPut { strike },
            2 => Payoff::GeometricCall { strike },
            _ => Payoff::BasketCall {
                weights: Product::equal_weights(d),
                strike,
            },
        };
        let product = if american == 1 {
            Product::american(payoff, 1.0)
        } else {
            Product::european(payoff, 1.0)
        };

        let lat = MultiLattice::new(steps);
        // A draw can push a branch probability outside [0, 1]; such
        // parameter sets are rejected identically by every driver, so
        // skip them.
        let seq = match lat.price(&market, &product) {
            Ok(r) => r,
            Err(_) => return Ok(()),
        };
        let rayon = lat.price_rayon(&market, &product).unwrap();
        prop_assert_eq!(seq.price.to_bits(), rayon.price.to_bits());
        prop_assert_eq!(seq.nodes_processed, rayon.nodes_processed);

        let block = price_cluster(
            &market,
            &product,
            steps,
            ranks,
            Machine::ideal(),
            Decomposition::Block,
            FaultPlan::new(0),
            None,
        )
        .unwrap();
        prop_assert_eq!(seq.price.to_bits(), block.price.to_bits());

        let cyclic = price_cluster(
            &market,
            &product,
            steps,
            ranks,
            Machine::ideal(),
            Decomposition::Cyclic(1),
            FaultPlan::new(0),
            None,
        )
        .unwrap();
        prop_assert_eq!(seq.price.to_bits(), cyclic.price.to_bits());
    }
}
