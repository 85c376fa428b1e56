//! Bitwise pins of the benchmark's four cluster-sweep problems (Monte
//! Carlo, lattice, explicit FD and LSMC), of quote-ladder's
//! finite-difference quotes, and of the 2-D and 3-D Douglas ADI engines.
//!
//! `golden_regression.rs` pins prices to 1e-10 relative, which a one-ulp
//! drift passes. These pins are exact: `f64::to_bits` of every price,
//! standard error and modelled makespan, and the exact message and byte
//! counts, on fixed markets. Host-side work (RNG seeding, the SPMD
//! runtime's mailboxes and collective schedules, the LSMC kernel's scratch
//! handling, the FD step's pass structure and its scalar/panel kernel
//! choice, the ADI stage loops) may change only if every pin here holds.
//!
//! On a mismatch the test prints the whole actual table in the pin
//! format, so an intentional numerical change re-derives it in one run.

use mdp_core::prelude::*;

/// cluster-sweep's modelled machine: its two-level collectives and far
/// links run at every P above 8.
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

/// The 2-asset European max-call on a 100-step BEG lattice.
fn lattice_problem() -> (GbmMarket, Product, Method) {
    (
        GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap(),
        Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0),
        Method::MultiLattice { steps: 100 },
    )
}

/// The 1-asset European put on the explicit 201 × 1000 FD grid.
fn fd_problem() -> (GbmMarket, Product, Method) {
    (
        GbmMarket::symmetric(1, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap(),
        Product::european(
            Payoff::BasketPut {
                weights: vec![1.0],
                strike: 100.0,
            },
            1.0,
        ),
        Method::Fd1d(Fd1d {
            space_points: 201,
            time_steps: 1_000,
            scheme: mdp_core::pde::Scheme::Explicit,
            ..Default::default()
        }),
    )
}

/// A cluster backend on [`machine`], checkpointing every `ckpt` steps.
fn cluster(ranks: usize, ckpt: Option<usize>) -> Backend {
    Backend::Cluster {
        ranks,
        machine: machine(),
        checkpoint_interval: ckpt,
    }
}

/// The Monte Carlo and LSMC problems' backends.
fn mc_backends() -> Vec<(&'static str, Backend)> {
    vec![
        ("seq", Backend::Sequential),
        ("rayon", Backend::Rayon),
        ("p16", cluster(16, None)),
        ("p64-ckpt4", cluster(64, Some(4))),
    ]
}

/// Every pinned quantity of one problem on each backend, as `(name,
/// bits or count)`. Engines without a standard error pin none.
fn observe(
    problem: (GbmMarket, Product, Method),
    backends: Vec<(&str, Backend)>,
) -> Vec<(String, u64)> {
    let (market, product, method) = problem;
    let mut out = Vec::new();
    for (name, backend) in backends {
        let r = Pricer::new(method.clone())
            .backend(backend)
            .price(&market, &product)
            .unwrap();
        out.push((format!("{name}.price"), r.price.to_bits()));
        if let Some(se) = r.std_error {
            out.push((format!("{name}.std_error"), se.to_bits()));
        }
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
                if n.ends_with(".msgs") || n.ends_with(".bytes") || n.ends_with(".nodes") {
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
        &observe(mc_problem(), mc_backends()),
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
        &observe(lsmc_problem(), mc_backends()),
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

#[test]
fn lattice_sweep_problem_bits() {
    check(
        &observe(
            lattice_problem(),
            vec![
                ("seq", Backend::Sequential),
                ("p16", cluster(16, None)),
                ("p64", cluster(64, None)),
                ("p16-ckpt4", cluster(16, Some(4))),
            ],
        ),
        &[
            ("seq.price", 0x403068061a1d2018),
            ("p16.price", 0x403068061a1d2018),
            ("p16.makespan", 0x3f7b822fa3395e24),
            ("p16.msgs", 1410),
            ("p16.bytes", 635360),
            ("p64.price", 0x403068061a1d2018),
            ("p64.makespan", 0x3f77f97dd23538ea),
            ("p64.msgs", 4410),
            ("p64.bytes", 2317728),
            ("p16-ckpt4.price", 0x403068061a1d2018),
            ("p16-ckpt4.makespan", 0x3f7bceebbe88191d),
            ("p16-ckpt4.msgs", 1410),
            ("p16-ckpt4.bytes", 635360),
        ],
    );
}

/// The explicit sweep exchanges a 7-deep halo on one SMP node (h =
/// round(√(2·2 µs / 80 ns)) = 7): ⌈1000/7⌉ = 143 exchanges of 14
/// messages plus the 7-message price broadcast. The last exchange
/// carries the 6 steps left, so the halo bytes are 142·14·(16 + 7·8) +
/// 14·(16 + 6·8), and the broadcast adds 7·24.
#[test]
fn fd_sweep_problem_bits() {
    check(
        &observe(
            fd_problem(),
            vec![
                ("seq", Backend::Sequential),
                ("p8", cluster(8, None)),
                ("p8-ckpt4", cluster(8, Some(4))),
            ],
        ),
        &[
            ("seq.price", 0x401649ddede7fd0d),
            ("p8.price", 0x401649ddede7fd0d),
            ("p8.makespan", 0x3f6922c8a44088d5),
            ("p8.msgs", 2009),
            ("p8.bytes", 144200),
            ("p8-ckpt4.price", 0x401649ddede7fd0d),
            ("p8-ckpt4.makespan", 0x3f6d73fb9cbb5918),
            ("p8-ckpt4.msgs", 2009),
            ("p8-ckpt4.bytes", 144200),
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
    // Crank–Nicolson pair (241 × 120 and its 121 × 60 half grid).
    for t in [0.1, 0.25, 0.5, 1.0, 2.0] {
        let row = put_row(t, &[70.0, 100.0, 130.0]);
        actual.extend(observe_fd_row(&format!("t{t}"), Fd1d::default(), &row));
    }
    // Half grids of one and two interior rows: both Dirichlet terms
    // land on one row, or on neighbouring rows. Strike 370.5 is in the
    // money at both boundaries, so neither term is zero.
    for m in [5, 7] {
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
            ("t0.1.eu70.scalar", 0x3e32e119797bc805),
            ("t0.1.eu70.lane", 0x3e32e119797bc805),
            ("t0.1.eu70.panel", 0x3e32e119797bc805),
            ("t0.1.am70.scalar", 0x3e32ed5916e113d8),
            ("t0.1.am70.lane", 0x3e32ed5916e113d8),
            ("t0.1.am70.panel", 0x3e32ed5916e113d8),
            ("t0.1.eu100.scalar", 0x40023300a37539fc),
            ("t0.1.eu100.lane", 0x40023300a37539fc),
            ("t0.1.eu100.panel", 0x40023300a37539fc),
            ("t0.1.am100.scalar", 0x40028006a4271b1d),
            ("t0.1.am100.lane", 0x40028006a4271b1d),
            ("t0.1.am100.panel", 0x40028006a4271b1d),
            ("t0.1.eu130.scalar", 0x403d5a0662211331),
            ("t0.1.eu130.lane", 0x403d5a0662211331),
            ("t0.1.eu130.panel", 0x403d5a0662211331),
            ("t0.1.am130.scalar", 0x403dfffffffffff4),
            ("t0.1.am130.lane", 0x403dfffffffffff4),
            ("t0.1.am130.panel", 0x403dfffffffffff4),
            ("t0.25.eu70.scalar", 0x3f2d3340b0607560),
            ("t0.25.eu70.lane", 0x3f2d3340b0607560),
            ("t0.25.eu70.panel", 0x3f2d3340b0607560),
            ("t0.25.am70.scalar", 0x3f2d6e9014002c3e),
            ("t0.25.am70.lane", 0x3f2d6e9014002c3e),
            ("t0.25.am70.panel", 0x3f2d6e9014002c3e),
            ("t0.25.eu100.scalar", 0x400afb72ce5710c9),
            ("t0.25.eu100.lane", 0x400afb72ce5710c9),
            ("t0.25.eu100.panel", 0x400afb72ce5710c9),
            ("t0.25.am100.scalar", 0x400bd6912f1e8d24),
            ("t0.25.am100.lane", 0x400bd6912f1e8d24),
            ("t0.25.am100.panel", 0x400bd6912f1e8d24),
            ("t0.25.eu130.scalar", 0x403c686bcad89a03),
            ("t0.25.eu130.lane", 0x403c686bcad89a03),
            ("t0.25.eu130.panel", 0x403c686bcad89a03),
            ("t0.25.am130.scalar", 0x403dfffffffffff4),
            ("t0.25.am130.lane", 0x403dfffffffffff4),
            ("t0.25.am130.panel", 0x403dfffffffffff4),
            ("t0.5.eu70.scalar", 0x3f8969aacc006a07),
            ("t0.5.eu70.lane", 0x3f8969aacc006a07),
            ("t0.5.eu70.panel", 0x3f8969aacc006a07),
            ("t0.5.am70.scalar", 0x3f89dfe6b29ce0f8),
            ("t0.5.am70.lane", 0x3f89dfe6b29ce0f8),
            ("t0.5.am70.panel", 0x3f89dfe6b29ce0f8),
            ("t0.5.eu100.scalar", 0x4011adcb29ccdd26),
            ("t0.5.eu100.lane", 0x4011adcb29ccdd26),
            ("t0.5.eu100.panel", 0x4011adcb29ccdd26),
            ("t0.5.am100.scalar", 0x40129f39d3202fdf),
            ("t0.5.am100.lane", 0x40129f39d3202fdf),
            ("t0.5.am100.panel", 0x40129f39d3202fdf),
            ("t0.5.eu130.scalar", 0x403b18bb4254c2d7),
            ("t0.5.eu130.lane", 0x403b18bb4254c2d7),
            ("t0.5.eu130.panel", 0x403b18bb4254c2d7),
            ("t0.5.am130.scalar", 0x403dfffffffffff4),
            ("t0.5.am130.lane", 0x403dfffffffffff4),
            ("t0.5.am130.panel", 0x403dfffffffffff4),
            ("t1.eu70.scalar", 0x3fc0260c7959c564),
            ("t1.eu70.lane", 0x3fc0260c7959c564),
            ("t1.eu70.panel", 0x3fc0260c7959c564),
            ("t1.am70.scalar", 0x3fc0c9792b8e61c1),
            ("t1.am70.lane", 0x3fc0c9792b8e61c1),
            ("t1.am70.panel", 0x3fc0c9792b8e61c1),
            ("t1.eu100.scalar", 0x40164b4a98434340),
            ("t1.eu100.lane", 0x40164b4a98434340),
            ("t1.eu100.panel", 0x40164b4a98434340),
            ("t1.am100.scalar", 0x40185c4c35d8346c),
            ("t1.am100.lane", 0x40185c4c35d8346c),
            ("t1.am100.panel", 0x40185c4c35d8346c),
            ("t1.eu130.scalar", 0x40394ca602481705),
            ("t1.eu130.lane", 0x40394ca602481705),
            ("t1.eu130.panel", 0x40394ca602481705),
            ("t1.am130.scalar", 0x403dfffffffffff4),
            ("t1.am130.lane", 0x403dfffffffffff4),
            ("t1.am130.panel", 0x403dfffffffffff4),
            ("t2.eu70.scalar", 0x3fe00e21ec2f2c4d),
            ("t2.eu70.lane", 0x3fe00e21ec2f2c4d),
            ("t2.eu70.panel", 0x3fe00e21ec2f2c4d),
            ("t2.am70.scalar", 0x3fe16d2fa70ee362),
            ("t2.am70.lane", 0x3fe16d2fa70ee362),
            ("t2.am70.panel", 0x3fe16d2fa70ee362),
            ("t2.eu100.scalar", 0x401a712ccbe95a6a),
            ("t2.eu100.lane", 0x401a712ccbe95a6a),
            ("t2.eu100.panel", 0x401a712ccbe95a6a),
            ("t2.am100.scalar", 0x401ee442dce03911),
            ("t2.am100.lane", 0x401ee442dce03911),
            ("t2.am100.panel", 0x401ee442dce03911),
            ("t2.eu130.scalar", 0x4036ff11723d9cbb),
            ("t2.eu130.lane", 0x4036ff11723d9cbb),
            ("t2.eu130.panel", 0x4036ff11723d9cbb),
            ("t2.am130.scalar", 0x403dfffffffffff4),
            ("t2.am130.lane", 0x403dfffffffffff4),
            ("t2.am130.panel", 0x403dfffffffffff4),
            ("m5.eu100.scalar", 0x401468d326a9abf7),
            ("m5.eu100.lane", 0x401468d326a9abf7),
            ("m5.eu100.panel", 0x401468d326a9abf7),
            ("m5.am100.scalar", 0x40150e123e92b062),
            ("m5.am100.lane", 0x40150e123e92b062),
            ("m5.am100.panel", 0x40150e123e92b062),
            ("m5.eu370.5.scalar", 0x406f897a274fecd8),
            ("m5.eu370.5.lane", 0x406f897a274fecd8),
            ("m5.eu370.5.panel", 0x406f897a274fecd8),
            ("m5.am370.5.scalar", 0x4070e7ffffffffff),
            ("m5.am370.5.lane", 0x4070e7ffffffffff),
            ("m5.am370.5.panel", 0x4070e7ffffffffff),
            ("m7.eu100.scalar", 0x4013a71a18804028),
            ("m7.eu100.lane", 0x4013a71a18804028),
            ("m7.eu100.panel", 0x4013a71a18804028),
            ("m7.am100.scalar", 0x4014f7d3c79f755f),
            ("m7.am100.lane", 0x4014f7d3c79f755f),
            ("m7.am100.panel", 0x4014f7d3c79f755f),
            ("m7.eu370.5.scalar", 0x406f8d3d949d243f),
            ("m7.eu370.5.lane", 0x406f8d3d949d243f),
            ("m7.eu370.5.panel", 0x406f8d3d949d243f),
            ("m7.am370.5.scalar", 0x4070e7ffffffffff),
            ("m7.am370.5.lane", 0x4070e7ffffffffff),
            ("m7.am370.5.panel", 0x4070e7ffffffffff),
            ("barrier.up_out_call", 0x400aa9e5e42f6873),
            ("barrier.down_out_put", 0x4006d7a18f4e5335),
        ],
    );
}

/// A symmetric `d`-asset market at pairwise correlation `rho`.
fn adi_market(d: usize, rho: f64) -> GbmMarket {
    GbmMarket::symmetric(d, 100.0, 0.2, 0.0, 0.05, rho).unwrap()
}

/// `to_bits` of each ADI price through `Pricer` on every backend the
/// method runs on, plus the node count of the engine's own one-shot
/// `price` (which `PriceReport` does not carry).
fn observe_adi(
    tag: &str,
    method: Method,
    backends: &[(&str, Backend)],
    market: &GbmMarket,
    product: &Product,
    nodes: u64,
) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (name, backend) in backends {
        let r = Pricer::new(method.clone())
            .backend(*backend)
            .price(market, product)
            .unwrap();
        out.push((format!("{tag}.{name}"), r.price.to_bits()));
    }
    out.push((format!("{tag}.nodes"), nodes));
    out
}

/// The spot, vol, rate and correlation ticks applied in turn to one
/// `PricerPlan` on a `d`-asset market; the price bits after each.
fn observe_adi_ticks(tag: &str, method: Method, d: usize, product: &Product) -> Vec<(String, u64)> {
    let mut corr = mdp_core::math::linalg::Matrix::identity(d);
    for i in 0..d {
        for j in 0..d {
            if i != j {
                corr[(i, j)] = 0.15;
            }
        }
    }
    let ticks = [
        (
            "spot",
            MarketDelta::Spot {
                asset: d - 1,
                spot: 104.5,
            },
        ),
        (
            "vol",
            MarketDelta::Vol {
                asset: 0,
                vol: 0.27,
            },
        ),
        ("rate", MarketDelta::Rate { rate: 0.031 }),
        ("corr", MarketDelta::Correlation { correlation: corr }),
    ];
    let mut plan = Pricer::new(method)
        .plan(&adi_market(d, 0.3), product.maturity)
        .unwrap();
    let mut out = Vec::new();
    for (name, delta) in &ticks {
        plan.apply_tick(delta).unwrap();
        let r = plan.execute(product).unwrap();
        out.push((format!("{tag}.tick.{name}"), r.price.to_bits()));
    }
    out
}

/// The 2-D and 3-D Douglas ADI engines on their default grids and on a
/// small grid with a ragged last tile each: a European (max-call in
/// 2-D, basket call in 3-D) and an American min-put at both
/// correlation signs, 2-D on Sequential and Rayon; then four ticks on
/// one plan per dimension, and the methods' cache keys.
#[test]
fn adi_problem_bits() {
    let mut actual = Vec::new();
    let both = [("seq", Backend::Sequential), ("rayon", Backend::Rayon)];
    let seq = [("seq", Backend::Sequential)];
    let american_min_put = Product::american(Payoff::MinPut { strike: 110.0 }, 1.0);
    for (space_points, time_steps) in [(101, 100), (71, 20)] {
        let cfg = Adi2d {
            space_points,
            time_steps,
            ..Adi2d::default()
        };
        for rho in [-0.4, 0.3] {
            let market = adi_market(2, rho);
            for (name, product) in [
                (
                    "eu",
                    Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0),
                ),
                ("am", american_min_put.clone()),
            ] {
                let nodes = cfg.price(&market, &product).unwrap().nodes_processed;
                actual.extend(observe_adi(
                    &format!("2d.m{space_points}n{time_steps}.rho{rho}.{name}"),
                    Method::Adi2d(cfg),
                    &both,
                    &market,
                    &product,
                    nodes,
                ));
            }
        }
    }
    for (space_points, time_steps) in [(41, 40), (37, 7)] {
        let cfg = Adi3d {
            space_points,
            time_steps,
            ..Adi3d::default()
        };
        for rho in [-0.2, 0.4] {
            let market = adi_market(3, rho);
            for (name, product) in [
                (
                    "eu",
                    Product::european(
                        Payoff::BasketCall {
                            weights: vec![1.0 / 3.0; 3],
                            strike: 100.0,
                        },
                        1.0,
                    ),
                ),
                ("am", american_min_put.clone()),
            ] {
                let nodes = cfg.price(&market, &product).unwrap().nodes_processed;
                actual.extend(observe_adi(
                    &format!("3d.m{space_points}n{time_steps}.rho{rho}.{name}"),
                    Method::Adi3d(cfg),
                    &seq,
                    &market,
                    &product,
                    nodes,
                ));
            }
        }
    }
    let small2 = Adi2d {
        space_points: 71,
        time_steps: 20,
        ..Adi2d::default()
    };
    let small3 = Adi3d {
        space_points: 37,
        time_steps: 7,
        ..Adi3d::default()
    };
    actual.extend(observe_adi_ticks(
        "2d",
        Method::Adi2d(small2),
        2,
        &american_min_put,
    ));
    actual.extend(observe_adi_ticks(
        "3d",
        Method::Adi3d(small3),
        3,
        &american_min_put,
    ));
    for (name, method) in [
        ("2d.default", Method::Adi2d(Adi2d::default())),
        (
            "2d.parallel",
            Method::Adi2d(Adi2d {
                parallel: true,
                ..Adi2d::default()
            }),
        ),
        ("3d.default", Method::Adi3d(Adi3d::default())),
    ] {
        actual.push((format!("{name}.cache_key"), method.cache_key()));
    }
    check(
        &actual,
        &[
            ("2d.m101n100.rho-0.4.eu.seq", 0x4032e8bdc63f7c81),
            ("2d.m101n100.rho-0.4.eu.rayon", 0x4032e8bdc63f7c81),
            ("2d.m101n100.rho-0.4.eu.nodes", 1030301),
            ("2d.m101n100.rho-0.4.am.seq", 0x403377ffc1f9bdd0),
            ("2d.m101n100.rho-0.4.am.rayon", 0x403377ffc1f9bdd0),
            ("2d.m101n100.rho-0.4.am.nodes", 1030301),
            ("2d.m101n100.rho0.3.eu.seq", 0x40306e3fc615463c),
            ("2d.m101n100.rho0.3.eu.rayon", 0x40306e3fc615463c),
            ("2d.m101n100.rho0.3.eu.nodes", 1030301),
            ("2d.m101n100.rho0.3.am.seq", 0x4030eb11ca0fc9f6),
            ("2d.m101n100.rho0.3.am.rayon", 0x4030eb11ca0fc9f6),
            ("2d.m101n100.rho0.3.am.nodes", 1030301),
            ("2d.m71n20.rho-0.4.eu.seq", 0x4032e863b1e547db),
            ("2d.m71n20.rho-0.4.eu.rayon", 0x4032e863b1e547db),
            ("2d.m71n20.rho-0.4.eu.nodes", 105861),
            ("2d.m71n20.rho-0.4.am.seq", 0x40337344be403ade),
            ("2d.m71n20.rho-0.4.am.rayon", 0x40337344be403ade),
            ("2d.m71n20.rho-0.4.am.nodes", 105861),
            ("2d.m71n20.rho0.3.eu.seq", 0x40306945cce4aab3),
            ("2d.m71n20.rho0.3.eu.rayon", 0x40306945cce4aab3),
            ("2d.m71n20.rho0.3.eu.nodes", 105861),
            ("2d.m71n20.rho0.3.am.seq", 0x4030d7bbc813af63),
            ("2d.m71n20.rho0.3.am.rayon", 0x4030d7bbc813af63),
            ("2d.m71n20.rho0.3.am.nodes", 105861),
            ("3d.m41n40.rho-0.2.eu.seq", 0x4019f2fb2d6ea58c),
            ("3d.m41n40.rho-0.2.eu.nodes", 2825761),
            ("3d.m41n40.rho-0.2.am.seq", 0x403738ddc7e5d10b),
            ("3d.m41n40.rho-0.2.am.nodes", 2825761),
            ("3d.m41n40.rho0.4.eu.seq", 0x402191db29c715e4),
            ("3d.m41n40.rho0.4.eu.nodes", 2825761),
            ("3d.m41n40.rho0.4.am.seq", 0x403336c4efa6f91b),
            ("3d.m41n40.rho0.4.am.nodes", 2825761),
            ("3d.m37n7.rho-0.2.eu.seq", 0x4019c57036ad6736),
            ("3d.m37n7.rho-0.2.eu.nodes", 405224),
            ("3d.m37n7.rho-0.2.am.seq", 0x40372ab3298de33e),
            ("3d.m37n7.rho-0.2.am.nodes", 405224),
            ("3d.m37n7.rho0.4.eu.seq", 0x4021a856667a848b),
            ("3d.m37n7.rho0.4.eu.nodes", 405224),
            ("3d.m37n7.rho0.4.am.seq", 0x4032ed257a2aaa25),
            ("3d.m37n7.rho0.4.am.nodes", 405224),
            ("2d.tick.spot", 0x402ed2d35a4814d8),
            ("2d.tick.vol", 0x4031b2d08e214064),
            ("2d.tick.rate", 0x4032eb63e2e90673),
            ("2d.tick.corr", 0x40338e03c4525956),
            ("3d.tick.spot", 0x4032bb7ee3d629a5),
            ("3d.tick.vol", 0x4034aab81cf69a27),
            ("3d.tick.rate", 0x40362b4e55d55fac),
            ("3d.tick.corr", 0x4037545355c80d9d),
            ("2d.default.cache_key", 0xc67927d142edf9f8),
            ("2d.parallel.cache_key", 0x15773d9956031239),
            ("3d.default.cache_key", 0x52f2ff16e579175a),
        ],
    );
}
