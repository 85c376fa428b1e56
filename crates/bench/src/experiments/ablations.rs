//! Ablations A2–A5: the design-choice studies DESIGN.md calls out.

use crate::workloads::*;
use crate::{save, Effort};
use mdp_core::cluster::{Machine, TimeModel};
use mdp_core::lattice::cluster::Decomposition;
use mdp_core::prelude::*;
use mdp_perf::report::fmt_sig;
use mdp_perf::Table;

/// A2 — lattice decomposition granularity.
pub fn a2_decomposition(effort: Effort) {
    let mut t = Table::new(
        "A2: lattice decomposition — block vs block-cyclic granularity (d=2, p=8)",
        &["decomposition", "T_model [ms]", "msgs", "bytes", "vs block"],
    );
    let m = market(2);
    let prod = max_call();
    let n = effort.scale(96, 256);
    let p = 8;
    let run = |d: Decomposition| cluster_lattice(&m, &prod, n, p, Machine::cluster2002(), d).time;
    let block = run(Decomposition::Block);
    let mut push = |name: &str, tm: &TimeModel| {
        t.push(&[
            name.to_string(),
            fmt_sig(tm.makespan * 1e3, 4),
            tm.total_msgs.to_string(),
            tm.total_bytes.to_string(),
            format!("{:.2}x", tm.makespan / block.makespan),
        ]);
    };
    push("block", &block);
    for b in [16usize, 4, 1] {
        let tm = run(Decomposition::Cyclic(b));
        push(&format!("cyclic({b})"), &tm);
    }
    save("a2_decomposition", &t);
}

/// A3 — variance-reduction techniques at equal path budget.
pub fn a3_variance_reduction(effort: Effort) {
    let mut t = Table::new(
        "A3: variance reduction at equal budget (d=5 arithmetic basket call)",
        &["estimator", "price", "std err", "error reduction", "note"],
    );
    let m = market_vol(5, 0.3);
    let prod = basket_call(5);
    let paths = effort.scale64(20_000, 200_000);
    let run = |vr: VarianceReduction| {
        McEngine::new(McConfig {
            paths,
            variance_reduction: vr,
            ..Default::default()
        })
        .price(&m, &prod)
        .unwrap()
    };
    let plain = run(VarianceReduction::None);
    let anti = run(VarianceReduction::Antithetic);
    let cv = run(VarianceReduction::GeometricCv);
    let qmc = mdp_core::mc::qmc::price_qmc(
        &m,
        &prod,
        QmcConfig {
            points: paths / 4,
            replicates: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let mut push = |name: &str, price: f64, se: f64, note: String| {
        t.push(&[
            name.to_string(),
            format!("{price:.4}"),
            format!("{se:.5}"),
            format!("{:.1}x", plain.std_error / se),
            note,
        ]);
    };
    push(
        "plain",
        plain.price,
        plain.std_error,
        format!("{paths} paths"),
    );
    push(
        "antithetic",
        anti.price,
        anti.std_error,
        format!("{paths} pairs"),
    );
    push(
        "geometric CV",
        cv.price,
        cv.std_error,
        format!("variance ratio {:.0}x", cv.variance_ratio),
    );
    push(
        "sobol QMC",
        qmc.price,
        qmc.std_error,
        format!("4×{} points", paths / 4),
    );
    let strat = mdp_core::mc::stratified::price_stratified(
        &m,
        &prod,
        McConfig {
            paths,
            ..Default::default()
        },
        64,
    )
    .unwrap();
    push(
        "stratified (64)",
        strat.price,
        strat.std_error,
        format!("{paths} paths, 64 strata"),
    );
    save("a3_variance_reduction", &t);
}

/// A4 — machine-parameter sensitivity of the lattice speedup.
pub fn a4_machine_parameters(effort: Effort) {
    let mut t = Table::new(
        "A4: speedup sensitivity to machine parameters (lattice d=2, p=16)",
        &[
            "machine",
            "alpha [µs]",
            "beta [ns/B]",
            "T_model [ms]",
            "speedup vs p=1",
        ],
    );
    let m = market(2);
    let prod = max_call();
    let n = effort.scale(96, 256);
    let p = 16;
    let machines = [
        ("ideal", Machine::ideal()),
        ("smp", Machine::smp()),
        ("cluster2002", Machine::cluster2002()),
        ("α×10", Machine::cluster2002().with_latency_factor(10.0)),
        ("α÷10", Machine::cluster2002().with_latency_factor(0.1)),
        ("bw×10", Machine::cluster2002().with_bandwidth_factor(10.0)),
        ("bw÷10", Machine::cluster2002().with_bandwidth_factor(0.1)),
    ];
    for (name, machine) in machines {
        let t1 = cluster_lattice(&m, &prod, n, 1, machine, Decomposition::Block)
            .time
            .makespan;
        let tp = cluster_lattice(&m, &prod, n, p, machine, Decomposition::Block)
            .time
            .makespan;
        t.push(&[
            name.to_string(),
            fmt_sig(machine.latency * 1e6, 3),
            fmt_sig(machine.inv_bandwidth * 1e9, 3),
            fmt_sig(tp * 1e3, 4),
            format!("{:.2}", t1 / tp),
        ]);
    }
    save("a4_machine_parameters", &t);
}

/// A5 — LSMC regression-basis ablation: family and degree.
pub fn a5_lsmc_basis(effort: Effort) {
    use mdp_core::math::poly::BasisKind;
    use mdp_core::mc::lsmc::price_lsmc;

    let mut t = Table::new(
        "A5: LSMC basis ablation (d=2 American min-put; lattice reference)",
        &["basis", "degree", "price", "std err", "vs lattice"],
    );
    let m = market(2);
    let p = american_min_put();
    let reference = MultiLattice::new(effort.scale(64, 150))
        .price(&m, &p)
        .unwrap()
        .price;
    for kind in [BasisKind::Monomial, BasisKind::Laguerre, BasisKind::Hermite] {
        for degree in [1usize, 2, 3, 4] {
            let r = price_lsmc(
                &m,
                &p,
                LsmcConfig {
                    paths: effort.scale64(10_000, 40_000),
                    steps: effort.scale(10, 25),
                    degree,
                    basis: kind,
                    ..Default::default()
                },
            )
            .unwrap();
            t.push(&[
                format!("{kind:?}"),
                degree.to_string(),
                format!("{:.4}", r.price),
                format!("{:.4}", r.std_error),
                format!("{:+.4}", r.price - reference),
            ]);
        }
    }
    t.push(&[
        "lattice ref".to_string(),
        "—".to_string(),
        format!("{reference:.4}"),
        "—".to_string(),
        "0".to_string(),
    ]);
    save("a5_lsmc_basis", &t);
}
