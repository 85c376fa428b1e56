//! Property-based tests on the financial and numerical invariants of the
//! stack: no-arbitrage relations, estimator invariances, decomposition
//! algebra, collective semantics.

use mdp_core::cluster::{partition, CollectiveEngine, Machine};
use mdp_core::math::linalg::{Cholesky, Matrix};
use mdp_core::math::stats::OnlineStats;
use mdp_core::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Put–call parity holds for the analytic Black–Scholes pair at
    /// machine precision for any sane parameters.
    #[test]
    fn bs_put_call_parity(
        s in 20.0f64..500.0,
        k in 20.0f64..500.0,
        r in -0.02f64..0.15,
        q in 0.0f64..0.08,
        sigma in 0.05f64..0.8,
        t in 0.05f64..5.0,
    ) {
        let c = analytic::black_scholes_call(s, k, r, q, sigma, t);
        let p = analytic::black_scholes_put(s, k, r, q, sigma, t);
        let parity = c - p - s * (-q * t).exp() + k * (-r * t).exp();
        prop_assert!(parity.abs() < 1e-9, "parity {parity}");
        // No-arbitrage bounds.
        prop_assert!(c >= (s * (-q * t).exp() - k * (-r * t).exp()).max(0.0) - 1e-9);
        prop_assert!(c <= s * (-q * t).exp() + 1e-9);
    }

    /// Binomial prices are monotone in spot (calls) and lie within
    /// no-arbitrage bounds.
    #[test]
    fn binomial_monotone_in_spot(
        s in 50.0f64..200.0,
        sigma in 0.1f64..0.5,
    ) {
        let k = 100.0;
        let price_at = |spot: f64| {
            let m = GbmMarket::single(spot, sigma, 0.0, 0.05).unwrap();
            let p = Product::european(
                Payoff::BasketCall { weights: vec![1.0], strike: k },
                1.0,
            );
            BinomialLattice::crr(128).price(&m, &p).unwrap().price
        };
        let lo = price_at(s);
        let hi = price_at(s * 1.1);
        prop_assert!(hi >= lo - 1e-12, "{hi} vs {lo}");
    }

    /// The geometric closed form is monotone increasing in volatility.
    #[test]
    fn geometric_vega_positive(
        d in 2usize..6,
        rho in 0.0f64..0.7,
        sigma in 0.1f64..0.5,
    ) {
        let price = |vol: f64| {
            let m = GbmMarket::symmetric(d, 100.0, vol, 0.0, 0.05, rho).unwrap();
            analytic::geometric_basket_call(&m, &Product::equal_weights(d), 100.0, 1.0)
        };
        prop_assert!(price(sigma * 1.2) > price(sigma));
    }

    /// Cholesky round-trips any randomly generated SPD matrix.
    #[test]
    fn cholesky_roundtrip(seed in 0u64..1000) {
        use mdp_core::math::rng::{Rng64, Xoshiro256StarStar};
        let mut rng = Xoshiro256StarStar::seed_from(seed);
        let n = 1 + (seed as usize % 6);
        // A = B·Bᵀ + n·I is SPD for any B.
        let mut b = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                b[(i, j)] = rng.next_f64() * 2.0 - 1.0;
            }
        }
        let mut a = b.mul_checked(&b.transpose()).unwrap();
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        let ch = Cholesky::factor(&a).unwrap();
        let back = ch.l().mul_checked(&ch.l().transpose()).unwrap();
        prop_assert!((&back - &a).max_abs() < 1e-10);
    }

    /// OnlineStats merging equals pushing, for arbitrary splits.
    #[test]
    fn stats_merge_associative(
        data in prop::collection::vec(-1e3f64..1e3, 2..200),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((data.len() as f64 * split_frac) as usize).min(data.len());
        let mut whole = OnlineStats::new();
        whole.extend(&data);
        let mut a = OnlineStats::new();
        a.extend(&data[..split]);
        let mut b = OnlineStats::new();
        b.extend(&data[split..]);
        a.merge(&b);
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-9 * (1.0 + whole.mean().abs()));
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-6 * (1.0 + whole.variance()));
    }

    /// Block decomposition is a partition for arbitrary (n, p).
    #[test]
    fn block_range_partitions(n in 0usize..10_000, p in 1usize..64) {
        let mut total = 0usize;
        let mut prev_hi = 0usize;
        for r in 0..p {
            let (lo, hi) = partition::block_range(n, p, r);
            prop_assert_eq!(lo, prev_hi);
            prop_assert!(hi >= lo);
            total += hi - lo;
            prev_hi = hi;
        }
        prop_assert_eq!(total, n);
    }

    /// Both collective schedules deliver exact bits for random rank
    /// counts, part lengths and roots: the gather hands the root every
    /// rank's payload in rank order (and the other ranks nothing), the
    /// broadcast hands every rank the root's payload. The drivers'
    /// block-order folds rely on both.
    #[test]
    fn gather_and_broadcast_deliver_exact_payloads(
        p in 1usize..33,
        max_len in 0usize..21,
        root_pick in 0usize..1024,
        group_log in 1u32..5,
        seed in 0u64..500,
    ) {
        use mdp_core::math::rng::{Rng64, SplitMix64};
        let mut rng = SplitMix64::new(seed);
        let payloads: Vec<Vec<f64>> = (0..p)
            .map(|_| {
                let len = rng.next_u64() as usize % (max_len + 1);
                (0..len).map(|_| rng.next_f64() * 10.0 - 5.0).collect()
            })
            .collect();
        let root = root_pick % p;
        let same_bits = |a: &[f64], b: &[f64]| {
            a.iter().map(|x| x.to_bits()).eq(b.iter().map(|x| x.to_bits()))
        };
        for engine in [CollectiveEngine::flat(), CollectiveEngine::two_level(1 << group_log)] {
            let payloads2 = payloads.clone();
            let results = mdp_core::cluster::run_spmd(p, Machine::ideal(), async move |comm| {
                let rank = comm.rank();
                let gathered = engine.gather_varied(comm, root, &payloads2[rank]).await;
                let mut data = if rank == root {
                    payloads2[root].clone()
                } else {
                    vec![0.0; payloads2[root].len()]
                };
                engine.broadcast(comm, root, &mut data).await;
                (gathered, data)
            })
            .unwrap();
            for r in &results {
                let (gathered, data) = &r.value;
                prop_assert_eq!(gathered.is_some(), r.rank == root);
                if let Some(parts) = gathered {
                    prop_assert_eq!(parts.len(), p);
                    for (part, want) in parts.iter().zip(&payloads) {
                        prop_assert!(same_bits(part, want), "{:?}: gathered part moved", engine);
                    }
                }
                prop_assert!(same_bits(data, &payloads[root]), "{:?}: broadcast moved", engine);
            }
        }
    }

    /// The MC estimate is invariant to the rank count for any rank count
    /// (the block-substream design).
    #[test]
    fn mc_rank_count_invariance(ranks in 1usize..10) {
        let m = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
        let p = Product::european(
            Payoff::BasketCall { weights: vec![1.0], strike: 100.0 },
            1.0,
        );
        let cfg = McConfig { paths: 4_000, block_size: 200, ..Default::default() };
        let seq = McEngine::new(cfg).price(&m, &p).unwrap().price;
        let par = mdp_core::mc::cluster_driver::price_mc_cluster(
            &m,
            &p,
            cfg,
            ranks,
            Machine::ideal(),
            FaultPlan::new(0),
            None,
        )
        .unwrap()
        .result
        .price;
        prop_assert_eq!(seq.to_bits(), par.to_bits());
    }

    /// Payoffs are non-negative and scale-consistent: doubling every
    /// spot and the strike doubles basket call payoffs (homogeneity).
    #[test]
    fn payoff_homogeneity(
        s1 in 10.0f64..300.0,
        s2 in 10.0f64..300.0,
        k in 10.0f64..300.0,
    ) {
        let pay = Payoff::BasketCall { weights: vec![0.5, 0.5], strike: k };
        let v = pay.eval(&[s1, s2]);
        let pay2 = Payoff::BasketCall { weights: vec![0.5, 0.5], strike: 2.0 * k };
        let v2 = pay2.eval(&[2.0 * s1, 2.0 * s2]);
        prop_assert!(v >= 0.0);
        prop_assert!((v2 - 2.0 * v).abs() < 1e-9 * (1.0 + v));
        // Max/min bracketing of the basket.
        let maxc = Payoff::MaxCall { strike: k }.eval(&[s1, s2]);
        let minc = Payoff::MinCall { strike: k }.eval(&[s1, s2]);
        prop_assert!(minc <= v + 1e-12);
        prop_assert!(v <= maxc + 1e-12);
    }

    /// Lattice price of a European product is bounded by the discounted
    /// max payoff over terminal nodes and below by discounted intrinsic
    /// of the forward (convexity-free sanity bound).
    #[test]
    fn lattice_bounds(steps in 4usize..40, rho in 0.0f64..0.6) {
        let m = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, rho).unwrap();
        let p = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
        let v = MultiLattice::new(steps).price(&m, &p).unwrap().price;
        prop_assert!(v >= 0.0);
        prop_assert!(v <= 200.0, "absurd price {v}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Jacobi eigendecomposition reconstructs random SPD matrices and
    /// produces strictly positive spectra.
    #[test]
    fn eigen_reconstructs_random_spd(seed in 0u64..300) {
        use mdp_core::math::linalg::{symmetric_eigen, Matrix};
        use mdp_core::math::rng::{Rng64, Xoshiro256StarStar};
        let mut rng = Xoshiro256StarStar::seed_from(seed);
        let n = 2 + (seed as usize % 5);
        let mut b = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                b[(i, j)] = rng.next_f64() - 0.5;
            }
        }
        let mut a = b.mul_checked(&b.transpose()).unwrap();
        for i in 0..n {
            a[(i, i)] += 0.5 * n as f64;
        }
        let e = symmetric_eigen(&a).unwrap();
        prop_assert!(e.values.iter().all(|&l| l > 0.0));
        // Reconstruction.
        let mut lam = Matrix::zeros(n, n);
        for i in 0..n {
            lam[(i, i)] = e.values[i];
        }
        let back = e.vectors.mul_checked(&lam).unwrap().mul_checked(&e.vectors.transpose()).unwrap();
        prop_assert!((&back - &a).max_abs() < 1e-9, "reconstruction error");
    }

    /// Nearest-correlation output is always a valid market correlation,
    /// for arbitrary symmetric "estimates" in [−1, 1].
    #[test]
    fn nearest_correlation_always_valid(seed in 0u64..300) {
        use mdp_core::math::linalg::{nearest_correlation, Cholesky, Matrix};
        use mdp_core::math::rng::{Rng64, Xoshiro256StarStar};
        let mut rng = Xoshiro256StarStar::seed_from(seed ^ 0xC0DE);
        let n = 2 + (seed as usize % 5);
        let mut a = Matrix::identity(n);
        for i in 0..n {
            for j in (i + 1)..n {
                let v = 2.0 * rng.next_f64() - 1.0;
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let c = nearest_correlation(&a, 1e-8).unwrap();
        for i in 0..n {
            prop_assert_eq!(c[(i, i)], 1.0);
            for j in 0..n {
                prop_assert!(c[(i, j)].abs() <= 1.0 + 1e-9);
            }
        }
        prop_assert!(Cholesky::factor(&c).is_ok());
    }

    /// Barrier payoff monotonicity: a higher up-barrier can only raise
    /// the up-and-out call price (both closed form and PDE).
    #[test]
    fn barrier_monotone_in_level(b1 in 115.0f64..135.0, bump in 5.0f64..40.0) {
        let lo = analytic::up_and_out_call(100.0, 100.0, b1, 0.05, 0.0, 0.25, 1.0);
        let hi = analytic::up_and_out_call(100.0, 100.0, b1 + bump, 0.05, 0.0, 0.25, 1.0);
        prop_assert!(hi >= lo - 1e-12, "{hi} vs {lo}");
        let vanilla = analytic::black_scholes_call(100.0, 100.0, 0.05, 0.0, 0.25, 1.0);
        prop_assert!(hi <= vanilla + 1e-9);
    }
}
