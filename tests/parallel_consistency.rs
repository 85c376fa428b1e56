//! Parallel-equals-sequential guarantees across the whole stack: the
//! central correctness claim of a parallelisation study.

use mdp_core::cluster::{Machine, TimeModel};
use mdp_core::lattice::cluster::{price_cluster, Decomposition};
use mdp_core::mc::variance::merge_in_chunks;
use mdp_core::prelude::*;
use proptest::prelude::*;

fn market(d: usize) -> GbmMarket {
    GbmMarket::symmetric(d, 100.0, 0.22, 0.01, 0.05, 0.35).unwrap()
}

#[test]
fn lattice_bitwise_identical_across_backends_and_ranks() {
    let m = market(2);
    let p = Product::american(Payoff::MinPut { strike: 108.0 }, 1.0);
    let seq = Pricer::new(Method::lattice(48))
        .price(&m, &p)
        .unwrap()
        .price;
    let ray = Pricer::new(Method::lattice(48))
        .backend(Backend::Rayon)
        .price(&m, &p)
        .unwrap()
        .price;
    assert_eq!(seq.to_bits(), ray.to_bits(), "rayon");
    for ranks in [1usize, 2, 3, 5, 8, 13] {
        let par = Pricer::new(Method::lattice(48))
            .backend(Backend::cluster(ranks, Machine::cluster2002()))
            .price(&m, &p)
            .unwrap()
            .price;
        assert_eq!(seq.to_bits(), par.to_bits(), "ranks={ranks}");
    }
}

#[test]
fn lattice_decompositions_agree() {
    let m = market(2);
    let p = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
    let block = price_cluster(
        &m,
        &p,
        32,
        4,
        Machine::ideal(),
        Decomposition::Block,
        FaultPlan::new(0),
        None,
    )
    .unwrap()
    .price;
    for b in [1usize, 2, 5] {
        let cyc = price_cluster(
            &m,
            &p,
            32,
            4,
            Machine::ideal(),
            Decomposition::Cyclic(b),
            FaultPlan::new(0),
            None,
        )
        .unwrap()
        .price;
        assert_eq!(block.to_bits(), cyc.to_bits(), "cyclic({b})");
    }
}

#[test]
fn mc_bitwise_identical_across_backends_and_ranks() {
    let m = market(3);
    let p = Product::european(
        Payoff::BasketCall {
            weights: Product::equal_weights(3),
            strike: 100.0,
        },
        1.0,
    );
    for vr in [VarianceReduction::None, VarianceReduction::Antithetic] {
        let cfg = McConfig {
            paths: 16_000,
            block_size: 800,
            variance_reduction: vr,
            ..Default::default()
        };
        let seq = Pricer::new(Method::MonteCarlo(cfg)).price(&m, &p).unwrap();
        let ray = Pricer::new(Method::MonteCarlo(cfg))
            .backend(Backend::Rayon)
            .price(&m, &p)
            .unwrap();
        assert_eq!(seq.price.to_bits(), ray.price.to_bits(), "{vr:?} rayon");
        for ranks in [2usize, 6] {
            let par = Pricer::new(Method::MonteCarlo(cfg))
                .backend(Backend::cluster(ranks, Machine::cluster2002()))
                .price(&m, &p)
                .unwrap();
            assert_eq!(
                seq.price.to_bits(),
                par.price.to_bits(),
                "{vr:?} ranks={ranks}"
            );
            assert_eq!(
                seq.std_error.unwrap().to_bits(),
                par.std_error.unwrap().to_bits()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The sequential and rayon drivers (both on the batched SoA kernel)
    /// and the scalar oracle all produce bitwise-identical prices and
    /// standard errors for random configurations — including panel
    /// remainders (`block_paths % 64 ≠ 0`) and a ragged last block.
    #[test]
    fn mc_batched_scalar_and_rayon_bitwise_equal_for_random_configs(
        d in 1usize..6,
        steps in 1usize..7,
        paths in 300u64..3_000,
        block_size in 37u64..700,
        vr_idx in 0usize..3,
        payoff_idx in 0usize..3,
    ) {
        let vr = [
            VarianceReduction::None,
            VarianceReduction::Antithetic,
            VarianceReduction::GeometricCv,
        ][vr_idx];
        // The geometric control variate only applies to arithmetic
        // basket payoffs; force the basket in that case.
        let payoff = if vr == VarianceReduction::GeometricCv {
            Payoff::BasketCall {
                weights: Product::equal_weights(d),
                strike: 100.0,
            }
        } else {
            match payoff_idx {
                0 => Payoff::MaxCall { strike: 100.0 },
                1 => Payoff::BasketCall {
                    weights: Product::equal_weights(d),
                    strike: 100.0,
                },
                _ => Payoff::AsianCall { strike: 100.0 },
            }
        };
        let m = market(d);
        let p = Product::european(payoff, 1.0);
        let cfg = McConfig {
            paths,
            block_size,
            steps,
            variance_reduction: vr,
            ..Default::default()
        };
        let engine = McEngine::new(cfg);
        let seq = engine.price(&m, &p).unwrap();
        let ray = engine.price_rayon(&m, &p).unwrap();
        // Scalar oracle, merged in the same canonical chunked order.
        let plan = engine.plan(&m, p.maturity).unwrap();
        let ctx = plan.context(&p).unwrap();
        let acc = merge_in_chunks((0..ctx.num_blocks()).map(|b| ctx.simulate_block_scalar(b)));
        let sca = ctx.finish(&acc);
        prop_assert_eq!(seq.price.to_bits(), ray.price.to_bits());
        prop_assert_eq!(seq.price.to_bits(), sca.price.to_bits());
        prop_assert_eq!(seq.std_error.to_bits(), ray.std_error.to_bits());
        prop_assert_eq!(seq.std_error.to_bits(), sca.std_error.to_bits());
    }
}

#[test]
fn virtual_times_are_reproducible() {
    let m = market(2);
    let p = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
    let run = || -> TimeModel {
        Pricer::new(Method::lattice(40))
            .backend(Backend::cluster(5, Machine::cluster2002()))
            .price(&m, &p)
            .unwrap()
            .time
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    assert_eq!(a.total_msgs, b.total_msgs);
    assert_eq!(a.total_bytes, b.total_bytes);
}

#[test]
fn lattice_speedup_monotone_until_saturation() {
    // Virtual speedup should increase from p=1 to p=8 for a decent-size
    // d=2 problem on the modelled cluster.
    let m = market(2);
    let p = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
    let time = |ranks: usize| {
        Pricer::new(Method::lattice(192))
            .backend(Backend::cluster(ranks, Machine::cluster2002()))
            .price(&m, &p)
            .unwrap()
            .time
            .unwrap()
            .makespan
    };
    let t1 = time(1);
    let t2 = time(2);
    let t4 = time(4);
    let t8 = time(8);
    assert!(t2 < t1, "{t2} < {t1}");
    assert!(t4 < t2, "{t4} < {t2}");
    assert!(t8 < t4, "{t8} < {t4}");
    let s8 = t1 / t8;
    assert!(
        s8 <= 8.0 + 1e-9,
        "no super-linear speedup in the model: {s8}"
    );
}

#[test]
fn machine_parameters_shift_the_curves() {
    // Ablation A4's mechanism: higher latency must hurt the lattice's
    // modelled time; the ideal machine is a lower bound.
    let m = market(2);
    let p = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
    let time = |machine: Machine| {
        Pricer::new(Method::lattice(96))
            .backend(Backend::cluster(8, machine))
            .price(&m, &p)
            .unwrap()
            .time
            .unwrap()
            .makespan
    };
    let t_ideal = time(Machine::ideal());
    let t_smp = time(Machine::smp());
    let t_cluster = time(Machine::cluster2002());
    let t_slow = time(Machine::cluster2002().with_latency_factor(10.0));
    assert!(t_ideal <= t_smp);
    assert!(t_smp < t_cluster);
    assert!(t_cluster < t_slow);
}

#[test]
fn lsmc_cluster_close_to_sequential_for_multiasset() {
    let m = market(2);
    let p = Product::american(Payoff::MinPut { strike: 110.0 }, 1.0);
    let cfg = LsmcConfig {
        paths: 6_000,
        steps: 8,
        block_size: 250,
        degree: 2,
        ..Default::default()
    };
    let seq = Pricer::new(Method::Lsmc(cfg)).price(&m, &p).unwrap();
    let par = Pricer::new(Method::Lsmc(cfg))
        .backend(Backend::cluster(4, Machine::ideal()))
        .price(&m, &p)
        .unwrap();
    assert!(
        (seq.price - par.price).abs() < 1e-6,
        "{} vs {}",
        seq.price,
        par.price
    );
}

/// One driver per engine: checkpointing a fault-free run adds checkpoint
/// writes and nothing else. Against the same run without an interval
/// the price is bitwise-equal, messages and bytes are equal, and the
/// run without checkpoints spends no checkpoint time; the checkpointed
/// Monte Carlo run stays within 10% of its makespan at every P.
#[test]
fn checkpointing_a_fault_free_run_adds_only_checkpoint_time() {
    let m1 = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
    let m2 = market(2);
    let m5 = market(5);
    let basket = Product::european(
        Payoff::BasketCall {
            weights: vec![0.2; 5],
            strike: 100.0,
        },
        1.0,
    );
    let call = Product::european(
        Payoff::BasketCall {
            weights: vec![1.0],
            strike: 100.0,
        },
        1.0,
    );
    let cases = [
        (
            Method::MultiLattice { steps: 64 },
            &m2,
            Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0),
            16,
        ),
        (
            Method::MonteCarlo(McConfig {
                paths: 65_536,
                block_size: 256,
                ..Default::default()
            }),
            &m5,
            basket,
            4,
        ),
        (
            Method::Lsmc(LsmcConfig {
                paths: 4_096,
                steps: 8,
                block_size: 64,
                ..Default::default()
            }),
            &m2,
            Product::american(Payoff::MinPut { strike: 100.0 }, 1.0),
            2,
        ),
        (
            Method::Fd1d(Fd1d {
                space_points: 101,
                time_steps: 1_000,
                scheme: mdp_core::pde::Scheme::Explicit,
                ..Default::default()
            }),
            &m1,
            call,
            125,
        ),
    ];
    for ranks in [4usize, 16, 64] {
        for (method, market, product, interval) in &cases {
            let run = |checkpoint_interval| {
                Pricer::new(method.clone())
                    .backend(Backend::Cluster {
                        ranks,
                        machine: Machine::smp_cluster2002(8),
                        checkpoint_interval,
                    })
                    .price(market, product)
                    .unwrap()
            };
            let (plain, ckpt) = (run(None), run(Some(*interval)));
            let what = format!("{} p={ranks}", method.name());
            assert_eq!(plain.price.to_bits(), ckpt.price.to_bits(), "{what}");
            let (tp, tc) = (plain.time.unwrap(), ckpt.time.unwrap());
            assert_eq!(tp.total_msgs, tc.total_msgs, "{what}");
            assert_eq!(tp.total_bytes, tc.total_bytes, "{what}");
            assert_eq!(tp.total_ckpt_time, 0.0, "{what}");
            assert!(tc.total_ckpt_time > 0.0, "{what}");
            if matches!(method, Method::MonteCarlo(_)) {
                assert!(
                    tc.makespan <= 1.1 * tp.makespan,
                    "{what}: checkpointed {} vs {}",
                    tc.makespan,
                    tp.makespan
                );
            }
        }
    }
}
