//! Bitwise pins of the benchmark's cluster-sweep Monte Carlo and LSMC
//! problems.
//!
//! `golden_regression.rs` pins prices to 1e-10 relative, which a one-ulp
//! drift passes. These pins are exact: `f64::to_bits` of every price,
//! standard error and modelled makespan, and the exact message and byte
//! counts, on fixed markets. Host-side work (RNG seeding, the SPMD
//! runtime's mailboxes, the LSMC kernel's scratch handling) may change
//! only if every pin here holds.
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
