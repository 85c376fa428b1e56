//! American option pricing: LSMC against the lattice and PDE references,
//! in one and two dimensions, including the parallel LSMC whose per-date
//! regression is the Amdahl bottleneck (experiment T7 in miniature).
//!
//! ```text
//! cargo run --release -p mdp-core --example american_lsmc
//! ```

use mdp_core::prelude::*;

fn main() {
    // --- 1-D American put ------------------------------------------------
    let m1 = GbmMarket::single(100.0, 0.2, 0.0, 0.05).expect("market");
    let put = Product::american(
        Payoff::BasketPut {
            weights: vec![1.0],
            strike: 110.0,
        },
        1.0,
    );

    let binomial = Pricer::new(Method::Binomial {
        steps: 2000,
        kind: BinomialKind::CoxRossRubinstein,
    })
    .price(&m1, &put)
    .expect("binomial");

    let pde = Pricer::new(Method::Fd1d(Fd1d::default()))
        .price(&m1, &put)
        .expect("pde");

    let lsmc = Pricer::new(Method::Lsmc(LsmcConfig {
        paths: 50_000,
        steps: 50,
        degree: 3,
        ..Default::default()
    }))
    .price(&m1, &put)
    .expect("lsmc");

    println!("American put, S=100 K=110 σ=0.2 r=5% T=1\n");
    println!("  binomial (N=2000)   : {:.4}", binomial.price);
    println!("  CN finite difference: {:.4}", pde.price);
    println!(
        "  LSMC (50k × 50 dates): {:.4} ± {:.4}  (in-sample estimate)",
        lsmc.price,
        lsmc.std_error.unwrap()
    );
    println!(
        "  European (analytic)  : {:.4}  → early-exercise premium ≈ {:.4}\n",
        analytic::black_scholes_put(100.0, 110.0, 0.05, 0.0, 0.2, 1.0),
        binomial.price - analytic::black_scholes_put(100.0, 110.0, 0.05, 0.0, 0.2, 1.0)
    );

    // --- 2-D American min-put ---------------------------------------------
    let m2 = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).expect("market");
    let minput = Product::american(Payoff::MinPut { strike: 110.0 }, 1.0);

    let lattice = Pricer::new(Method::lattice(150))
        .price(&m2, &minput)
        .expect("lattice");
    let adi = Pricer::new(Method::Adi2d(Adi2d {
        space_points: 151,
        time_steps: 150,
        ..Default::default()
    }))
    .price(&m2, &minput)
    .expect("adi");
    let lsmc2 = Pricer::new(Method::Lsmc(LsmcConfig {
        paths: 50_000,
        steps: 50,
        degree: 3,
        ..Default::default()
    }))
    .price(&m2, &minput)
    .expect("lsmc2");

    println!("American min-put on two assets, K=110, ρ=0.3\n");
    println!("  BEG lattice (N=150) : {:.4}", lattice.price);
    println!("  ADI (151² × 150)    : {:.4}", adi.price);
    println!(
        "  LSMC (50k × 50)     : {:.4} ± {:.4}\n",
        lsmc2.price,
        lsmc2.std_error.unwrap()
    );

    // --- Parallel LSMC: the regression is the serial fraction -------------
    println!("Distributed LSMC on the modelled 2002 cluster (25k paths × 25 dates):");
    let cfg = LsmcConfig {
        paths: 25_000,
        steps: 25,
        block_size: 500,
        ..Default::default()
    };
    let mut t1 = None;
    for ranks in [1usize, 2, 4, 8, 16] {
        let r = Pricer::new(Method::Lsmc(cfg))
            .backend(Backend::cluster(ranks, Machine::cluster2002()))
            .price(&m2, &minput)
            .expect("cluster lsmc");
        let tm = r.time.unwrap();
        let t_first = *t1.get_or_insert(tm.makespan);
        println!(
            "  p={ranks:>2}: price {:.4}, modelled {:>7.1} ms, speedup {:>5.2}, comm {:>4.1}%",
            r.price,
            tm.makespan * 1e3,
            t_first / tm.makespan,
            tm.comm_fraction() * 100.0
        );
    }
    println!(
        "\nThe per-date reduction of the regression sums (gathered to one rank, folded\n\
         there, broadcast back) caps the speedup — Amdahl in action."
    );
}
