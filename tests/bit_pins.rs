//! Bitwise pins of the benchmark's cluster-sweep Monte Carlo and LSMC
//! problems, and of quote-ladder's finite-difference quotes.
//!
//! `golden_regression.rs` pins prices to 1e-10 relative, which a one-ulp
//! drift passes. These pins are exact: `f64::to_bits` of every price,
//! standard error and modelled makespan, and the exact message and byte
//! counts, on fixed markets. Host-side work (RNG seeding, the SPMD
//! runtime's mailboxes, the LSMC kernel's scratch handling, the FD step's
//! pass structure and its scalar/panel kernel choice) may change only if
//! every pin here holds.
//!
//! On a mismatch the test prints the whole actual table in the pin
//! format, so an intentional numerical change re-derives it in one run.

use mdp_core::prelude::*;

/// cluster-sweep's modelled machine.
fn machine() -> Machine {
    Machine::smp_cluster2002(8)
}

/// The 5-asset basket call over 65,536 paths in blocks of 256.
fn mc_problem() -> (GbmMarket, Product, Method) {
    (
        GbmMarket::symmetric(5, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap(),
        Product::european(
            Payoff::BasketCall {
                weights: vec![0.2; 5],
                strike: 100.0,
            },
            1.0,
        ),
        Method::MonteCarlo(McConfig {
            paths: 65_536,
            block_size: 256,
            ..Default::default()
        }),
    )
}

/// The 2-asset American min-put over 8,192 paths × 16 dates in blocks
/// of 256.
fn lsmc_problem() -> (GbmMarket, Product, Method) {
    (
        GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap(),
        Product::american(Payoff::MinPut { strike: 100.0 }, 1.0),
        Method::Lsmc(LsmcConfig {
            paths: 8_192,
            steps: 16,
            block_size: 256,
            ..Default::default()
        }),
    )
}

/// Every pinned quantity of one problem, as `(name, bits or count)`.
fn observe(problem: (GbmMarket, Product, Method)) -> Vec<(String, u64)> {
    let (market, product, method) = problem;
    let mut out = Vec::new();
    let backends = [
        ("seq", Backend::Sequential),
        ("rayon", Backend::Rayon),
        ("p16", Backend::cluster(16, machine())),
        (
            "p64-ckpt4",
            Backend::Cluster {
                ranks: 64,
                machine: machine(),
                checkpoint_interval: Some(4),
            },
        ),
    ];
    for (name, backend) in backends {
        let r = Pricer::new(method.clone())
            .backend(backend)
            .price(&market, &product)
            .unwrap();
        out.push((format!("{name}.price"), r.price.to_bits()));
        let se = r.std_error.expect("Monte Carlo reports a standard error");
        out.push((format!("{name}.std_error"), se.to_bits()));
        if let Some(t) = r.time {
            out.push((format!("{name}.makespan"), t.makespan.to_bits()));
            out.push((format!("{name}.msgs"), t.total_msgs));
            out.push((format!("{name}.bytes"), t.total_bytes));
        }
    }
    out
}

fn check(actual: &[(String, u64)], pinned: &[(&str, u64)]) {
    let same = actual.len() == pinned.len()
        && actual
            .iter()
            .zip(pinned)
            .all(|((an, av), (pn, pv))| an == pn && av == pv);
    if !same {
        let table: String = actual
            .iter()
            .map(|(n, v)| {
                if n.ends_with(".msgs") || n.ends_with(".bytes") {
                    format!("            (\"{n}\", {v}),\n")
                } else {
                    format!("            (\"{n}\", {v:#018x}),\n")
                }
            })
            .collect();
        panic!("bit pins moved; actual table:\n{table}");
    }
}

#[test]
fn mc_sweep_problem_bits() {
    check(
        &observe(mc_problem()),
        &[
            ("seq.price", 0x40200b742cc89611),
            ("seq.std_error", 0x3fa3f9f55dce854a),
            ("rayon.price", 0x40200b742cc89611),
            ("rayon.std_error", 0x3fa3f9f55dce854a),
            ("p16.price", 0x40200b742cc89611),
            ("p16.std_error", 0x3fa3f9f55dce854a),
            ("p16.makespan", 0x3f6bd417aafdab4c),
            ("p16.msgs", 30),
            ("p16.bytes", 20976),
            ("p64-ckpt4.price", 0x40200b742cc89611),
            ("p64-ckpt4.std_error", 0x3fa3f9f55dce854a),
            ("p64-ckpt4.makespan", 0x3f510e89f5509359),
            ("p64-ckpt4.msgs", 126),
            ("p64-ckpt4.bytes", 30576),
        ],
    );
}

#[test]
fn lsmc_sweep_problem_bits() {
    check(
        &observe(lsmc_problem()),
        &[
            ("seq.price", 0x4022bebd9b6b27de),
            ("seq.std_error", 0x3fb7d391828f5be0),
            ("rayon.price", 0x4022bebd9b6b27de),
            ("rayon.std_error", 0x3fb7d391828f5be0),
            ("p16.price", 0x4022bebd9b6b27e5),
            ("p16.std_error", 0x3fb7d391828f5b2f),
            ("p16.makespan", 0x3f856ce42ee92191),
            ("p16.msgs", 480),
            ("p16.bytes", 320192),
            ("p64-ckpt4.price", 0x4022bebd9b6b27e5),
            ("p64-ckpt4.std_error", 0x3fb7d391828f5b2f),
            ("p64-ckpt4.makespan", 0x3f80135569b64977),
            ("p64-ckpt4.msgs", 2016),
            ("p64-ckpt4.bytes", 642240),
        ],
    );
}

/// quote-ladder's base market: S = 100, σ = 20%, q = 0, r = 5%.
fn quote_market() -> GbmMarket {
    GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap()
}

fn put(strike: f64, maturity: f64, american: bool) -> Product {
    let payoff = Payoff::BasketPut {
        weights: vec![1.0],
        strike,
    };
    if american {
        Product::american(payoff, maturity)
    } else {
        Product::european(payoff, maturity)
    }
}

/// `to_bits` of each product priced three ways on one FD config: the
/// scalar `Pricer::price`, a one-product `Portfolio::price_batch` (a
/// one-lane ladder) and one `price_batch` of the whole row (a panel).
fn observe_fd_row(tag: &str, cfg: Fd1d, row: &[(String, Product)]) -> Vec<(String, u64)> {
    let market = quote_market();
    let pricer = Pricer::new(Method::Fd1d(cfg));
    let portfolio = Portfolio::new(pricer.clone());
    let products: Vec<Product> = row.iter().map(|(_, p)| p.clone()).collect();
    let panel = portfolio.price_batch(&market, &products).unwrap();
    let mut out = Vec::new();
    for ((name, product), in_panel) in row.iter().zip(&panel.reports) {
        let scalar = pricer.price(&market, product).unwrap();
        let lane = portfolio
            .price_batch(&market, std::slice::from_ref(product))
            .unwrap();
        out.push((format!("{tag}.{name}.scalar"), scalar.price.to_bits()));
        out.push((
            format!("{tag}.{name}.lane"),
            lane.reports[0].price.to_bits(),
        ));
        out.push((format!("{tag}.{name}.panel"), in_panel.price.to_bits()));
    }
    out
}

/// Every product of a row: European then American puts per strike.
fn put_row(maturity: f64, strikes: &[f64]) -> Vec<(String, Product)> {
    let mut row = Vec::new();
    for &k in strikes {
        for (style, american) in [("eu", false), ("am", true)] {
            row.push((format!("{style}{k}"), put(k, maturity, american)));
        }
    }
    row
}

#[test]
fn fd_quote_problem_bits() {
    let mut actual = Vec::new();
    // quote-ladder's maturities at three of its strikes, on its default
    // Crank–Nicolson grid (401 × 400, projection for Americans).
    for t in [0.1, 0.25, 0.5, 1.0, 2.0] {
        let row = put_row(t, &[70.0, 100.0, 130.0]);
        actual.extend(observe_fd_row(&format!("t{t}"), Fd1d::default(), &row));
    }
    // One and two interior rows: both Dirichlet terms land on one row,
    // or on neighbouring rows. Strike 370.5 is in the money at both
    // boundaries, so neither term is zero, and its one-row price sits
    // just below 256, where the order of the two additions shows in the
    // last bit.
    for m in [3, 4] {
        let cfg = Fd1d {
            space_points: m,
            time_steps: 7,
            ..Fd1d::default()
        };
        actual.extend(observe_fd_row(
            &format!("m{m}"),
            cfg,
            &put_row(1.0, &[100.0, 370.5]),
        ));
    }
    // PSOR Americans go through the per-product loop only.
    let psor = Pricer::new(Method::Fd1d(Fd1d {
        space_points: 101,
        time_steps: 50,
        american: mdp_core::pde::AmericanMethod::Psor {
            omega: 1.5,
            tol: 1e-9,
            max_iter: 10_000,
        },
        ..Fd1d::default()
    }));
    let r = psor.price(&quote_market(), &put(110.0, 1.0, true)).unwrap();
    actual.push(("psor.am110".into(), r.price.to_bits()));
    // The knock-out engine's Crank–Nicolson loop.
    for (name, payoff) in [
        (
            "barrier.up_out_call",
            Payoff::UpOutCall {
                strike: 100.0,
                barrier: 130.0,
            },
        ),
        (
            "barrier.down_out_put",
            Payoff::DownOutPut {
                strike: 100.0,
                barrier: 75.0,
            },
        ),
    ] {
        let r = Fd1dBarrier::default()
            .price(&quote_market(), &Product::european(payoff, 1.0))
            .unwrap();
        actual.push((name.into(), r.price.to_bits()));
    }
    check(
        &actual,
        &[
            ("t0.1.eu70.scalar", 0x3e35a4260be6cea2),
            ("t0.1.eu70.lane", 0x3e35a4260be6cea2),
            ("t0.1.eu70.panel", 0x3e35a4260be6cea2),
            ("t0.1.am70.scalar", 0x3e35b1fb976b78ed),
            ("t0.1.am70.lane", 0x3e35b1fb976b78ed),
            ("t0.1.am70.panel", 0x3e35b1fb976b78ed),
            ("t0.1.eu100.scalar", 0x400231ffae7f246d),
            ("t0.1.eu100.lane", 0x400231ffae7f246d),
            ("t0.1.eu100.panel", 0x400231ffae7f246d),
            ("t0.1.am100.scalar", 0x40027ec2f338f737),
            ("t0.1.am100.lane", 0x40027ec2f338f737),
            ("t0.1.am100.panel", 0x40027ec2f338f737),
            ("t0.1.eu130.scalar", 0x403d5a066952c4a2),
            ("t0.1.eu130.lane", 0x403d5a066952c4a2),
            ("t0.1.eu130.panel", 0x403d5a066952c4a2),
            ("t0.1.am130.scalar", 0x403dfffffffffff4),
            ("t0.1.am130.lane", 0x403dfffffffffff4),
            ("t0.1.am130.panel", 0x403dfffffffffff4),
            ("t0.25.eu70.scalar", 0x3f2d59757df21821),
            ("t0.25.eu70.lane", 0x3f2d59757df21821),
            ("t0.25.eu70.panel", 0x3f2d59757df21821),
            ("t0.25.am70.scalar", 0x3f2d950d73d8f042),
            ("t0.25.am70.lane", 0x3f2d950d73d8f042),
            ("t0.25.am70.panel", 0x3f2d950d73d8f042),
            ("t0.25.eu100.scalar", 0x400afad2ae4bd5af),
            ("t0.25.eu100.lane", 0x400afad2ae4bd5af),
            ("t0.25.eu100.panel", 0x400afad2ae4bd5af),
            ("t0.25.am100.scalar", 0x400bd5496a3701cc),
            ("t0.25.am100.lane", 0x400bd5496a3701cc),
            ("t0.25.am100.panel", 0x400bd5496a3701cc),
            ("t0.25.eu130.scalar", 0x403c686d77ca9648),
            ("t0.25.eu130.lane", 0x403c686d77ca9648),
            ("t0.25.eu130.panel", 0x403c686d77ca9648),
            ("t0.25.am130.scalar", 0x403dfffffffffff4),
            ("t0.25.am130.lane", 0x403dfffffffffff4),
            ("t0.25.am130.panel", 0x403dfffffffffff4),
            ("t0.5.eu70.scalar", 0x3f896f99f0228540),
            ("t0.5.eu70.lane", 0x3f896f99f0228540),
            ("t0.5.eu70.panel", 0x3f896f99f0228540),
            ("t0.5.am70.scalar", 0x3f89e4e4021e3f0d),
            ("t0.5.am70.lane", 0x3f89e4e4021e3f0d),
            ("t0.5.am70.panel", 0x3f89e4e4021e3f0d),
            ("t0.5.eu100.scalar", 0x4011ad5bf89f2434),
            ("t0.5.eu100.lane", 0x4011ad5bf89f2434),
            ("t0.5.eu100.panel", 0x4011ad5bf89f2434),
            ("t0.5.am100.scalar", 0x40129e304a4a9bea),
            ("t0.5.am100.lane", 0x40129e304a4a9bea),
            ("t0.5.am100.panel", 0x40129e304a4a9bea),
            ("t0.5.eu130.scalar", 0x403b18c2cf2c5e60),
            ("t0.5.eu130.lane", 0x403b18c2cf2c5e60),
            ("t0.5.eu130.panel", 0x403b18c2cf2c5e60),
            ("t0.5.am130.scalar", 0x403dfffffffffff4),
            ("t0.5.am130.lane", 0x403dfffffffffff4),
            ("t0.5.am130.panel", 0x403dfffffffffff4),
            ("t1.eu70.scalar", 0x3fc027558e168f7a),
            ("t1.eu70.lane", 0x3fc027558e168f7a),
            ("t1.eu70.panel", 0x3fc027558e168f7a),
            ("t1.am70.scalar", 0x3fc0c998e0c73dd8),
            ("t1.am70.lane", 0x3fc0c998e0c73dd8),
            ("t1.am70.panel", 0x3fc0c998e0c73dd8),
            ("t1.eu100.scalar", 0x40164ab2b7d29862),
            ("t1.eu100.lane", 0x40164ab2b7d29862),
            ("t1.eu100.panel", 0x40164ab2b7d29862),
            ("t1.am100.scalar", 0x40185a6b0f28ad10),
            ("t1.am100.lane", 0x40185a6b0f28ad10),
            ("t1.am100.panel", 0x40185a6b0f28ad10),
            ("t1.eu130.scalar", 0x40394cba77e7acf4),
            ("t1.eu130.lane", 0x40394cba77e7acf4),
            ("t1.eu130.panel", 0x40394cba77e7acf4),
            ("t1.am130.scalar", 0x403dfffffffffff4),
            ("t1.am130.lane", 0x403dfffffffffff4),
            ("t1.am130.panel", 0x403dfffffffffff4),
            ("t2.eu70.scalar", 0x3fe00e813edb7994),
            ("t2.eu70.lane", 0x3fe00e813edb7994),
            ("t2.eu70.panel", 0x3fe00e813edb7994),
            ("t2.am70.scalar", 0x3fe16b91e9c3530a),
            ("t2.am70.lane", 0x3fe16b91e9c3530a),
            ("t2.am70.panel", 0x3fe16b91e9c3530a),
            ("t2.eu100.scalar", 0x401a7063bfc6f584),
            ("t2.eu100.lane", 0x401a7063bfc6f584),
            ("t2.eu100.panel", 0x401a7063bfc6f584),
            ("t2.am100.scalar", 0x401ee0d04857491a),
            ("t2.am100.lane", 0x401ee0d04857491a),
            ("t2.am100.panel", 0x401ee0d04857491a),
            ("t2.eu130.scalar", 0x4036ff0a08f94732),
            ("t2.eu130.lane", 0x4036ff0a08f94732),
            ("t2.eu130.panel", 0x4036ff0a08f94732),
            ("t2.am130.scalar", 0x403dfffffffffff4),
            ("t2.am130.lane", 0x403dfffffffffff4),
            ("t2.am130.panel", 0x403dfffffffffff4),
            ("m3.eu100.scalar", 0x3fd2dcaff3f1a685),
            ("m3.eu100.lane", 0x3fd2dcaff3f1a685),
            ("m3.eu100.panel", 0x3fd2dcaff3f1a685),
            ("m3.am100.scalar", 0x3fd311d33a359aac),
            ("m3.am100.lane", 0x3fd311d33a359aac),
            ("m3.am100.panel", 0x3fd311d33a359aac),
            ("m3.eu370.5.scalar", 0x406f7fd15d6d633b),
            ("m3.eu370.5.lane", 0x406f7fd15d6d633b),
            ("m3.eu370.5.panel", 0x406f7fd15d6d633b),
            ("m3.am370.5.scalar", 0x4070e7ffffffffff),
            ("m3.am370.5.lane", 0x4070e7ffffffffff),
            ("m3.am370.5.panel", 0x4070e7ffffffffff),
            ("m4.eu100.scalar", 0x3fefe10f5050fa14),
            ("m4.eu100.lane", 0x3fefe10f5050fa14),
            ("m4.eu100.panel", 0x3fefe10f5050fa14),
            ("m4.am100.scalar", 0x3ff01ddae2ef6153),
            ("m4.am100.lane", 0x3ff01ddae2ef6153),
            ("m4.am100.panel", 0x3ff01ddae2ef6153),
            ("m4.eu370.5.scalar", 0x406f86093f5e85ec),
            ("m4.eu370.5.lane", 0x406f86093f5e85ec),
            ("m4.eu370.5.panel", 0x406f86093f5e85ec),
            ("m4.am370.5.scalar", 0x4070e7ffffffffff),
            ("m4.am370.5.lane", 0x4070e7ffffffffff),
            ("m4.am370.5.panel", 0x4070e7ffffffffff),
            ("psor.am110", 0x4027ee1c1d6437ad),
            ("barrier.up_out_call", 0x400aa8f4a525e846),
            ("barrier.down_out_put", 0x4006d7520ac9c620),
        ],
    );
}
