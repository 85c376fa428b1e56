//! Figures F1–F6 of the reconstructed evaluation (rendered as the data
//! series the figures plot).

use crate::workloads::*;
use crate::{save, Effort};
use mdp_core::cluster::Machine;
use mdp_core::lattice::cluster::Decomposition;
use mdp_core::prelude::*;
use mdp_perf::isoefficiency::isoefficiency_point;
use mdp_perf::laws;
use mdp_perf::report::fmt_sig;
use mdp_perf::Table;

const PROCS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Strong-scaling series of the d=2 lattice for one N.
fn lattice_curve(n: usize) -> ScalingCurve {
    let m = market(2);
    let p = max_call();
    let times: Vec<f64> = PROCS
        .iter()
        .map(|&ranks| {
            cluster_lattice(
                &m,
                &p,
                n,
                ranks,
                Machine::cluster2002(),
                Decomposition::Block,
            )
            .time
            .makespan
        })
        .collect();
    ScalingCurve::new(format!("lattice d=2 N={n}"), PROCS.to_vec(), times)
}

/// Strong-scaling series of the d=5 Monte Carlo for one path count.
fn mc_curve(paths: u64) -> ScalingCurve {
    let m = market_vol(5, 0.3);
    let p = basket_call(5);
    let cfg = McConfig {
        paths,
        block_size: (paths / 64).max(1),
        ..Default::default()
    };
    let times: Vec<f64> = PROCS
        .iter()
        .map(|&ranks| {
            cluster_mc(&m, &p, cfg, ranks, Machine::cluster2002())
                .time
                .makespan
        })
        .collect();
    ScalingCurve::new(format!("mc d=5 paths={paths}"), PROCS.to_vec(), times)
}

/// F1 — lattice speedup vs p for several problem sizes.
pub fn f1_lattice_speedup(effort: Effort) {
    let sizes: &[usize] = match effort {
        Effort::Quick => &[64, 128],
        Effort::Full => &[64, 128, 256, 512],
    };
    let mut t = Table::new(
        "F1: BEG lattice strong scaling, d=2 (speedup vs p on the 2002 cluster)",
        &["N", "p", "T_model [ms]", "speedup", "Amdahl fit f"],
    );
    for &n in sizes {
        let c = lattice_curve(n);
        let f = c.amdahl_fraction().unwrap_or(f64::NAN);
        for (i, &p) in c.procs.iter().enumerate() {
            t.push(&[
                n.to_string(),
                p.to_string(),
                fmt_sig(c.times[i] * 1e3, 4),
                format!("{:.2}", c.speedups()[i]),
                format!("{f:.4}"),
            ]);
        }
    }
    save("f1_lattice_speedup", &t);
}

/// F2 — lattice efficiency vs p (same sweep as F1).
pub fn f2_lattice_efficiency(effort: Effort) {
    let sizes: &[usize] = match effort {
        Effort::Quick => &[64, 128],
        Effort::Full => &[64, 256],
    };
    let mut t = Table::new(
        "F2: BEG lattice parallel efficiency, d=2",
        &["N", "p", "efficiency", "Karp–Flatt serial fraction"],
    );
    for &n in sizes {
        let c = lattice_curve(n);
        let eff = c.efficiencies();
        let kf: std::collections::HashMap<usize, f64> = c.karp_flatt().into_iter().collect();
        for (i, &p) in c.procs.iter().enumerate() {
            t.push(&[
                n.to_string(),
                p.to_string(),
                format!("{:.3}", eff[i]),
                kf.get(&p)
                    .map(|e| format!("{e:.4}"))
                    .unwrap_or_else(|| "—".into()),
            ]);
        }
    }
    save("f2_lattice_efficiency", &t);
}

/// F3 — Monte Carlo speedup vs p for several path counts.
pub fn f3_mc_speedup(effort: Effort) {
    let counts: &[u64] = match effort {
        Effort::Quick => &[10_000, 100_000],
        Effort::Full => &[10_000, 100_000, 1_000_000],
    };
    let mut t = Table::new(
        "F3: Monte Carlo strong scaling, d=5 basket (speedup vs p)",
        &["paths", "p", "T_model [ms]", "speedup", "efficiency"],
    );
    for &paths in counts {
        let c = mc_curve(paths);
        let s = c.speedups();
        let e = c.efficiencies();
        for (i, &p) in c.procs.iter().enumerate() {
            t.push(&[
                paths.to_string(),
                p.to_string(),
                fmt_sig(c.times[i] * 1e3, 4),
                format!("{:.2}", s[i]),
                format!("{:.3}", e[i]),
            ]);
        }
    }
    save("f3_mc_speedup", &t);
}

/// F4 — convergence: error vs cost for lattice / MC / CV / QMC.
pub fn f4_convergence(effort: Effort) {
    let mut t = Table::new(
        "F4: accuracy–cost frontier (geometric basket call, error vs closed form)",
        &["method", "cost parameter", "abs err", "note"],
    );
    // Lattice d=2: error ~ O(1/N).
    {
        let m = market(2);
        let p = geometric_call();
        let exact = geometric_exact(2);
        let ns: &[usize] = match effort {
            Effort::Quick => &[8, 16, 32, 64],
            Effort::Full => &[8, 16, 32, 64, 128, 256],
        };
        for &n in ns {
            let v = MultiLattice::new(n).price(&m, &p).unwrap().price;
            t.push(&[
                "lattice d=2".to_string(),
                format!("N={n}"),
                fmt_sig((v - exact).abs(), 2),
                "O(1/N)".to_string(),
            ]);
        }
    }
    // MC d=5: error ~ O(paths^-1/2); with CV the constant collapses.
    {
        let m = market_vol(5, 0.3);
        let exact = {
            // CV-grade reference for the arithmetic basket: huge CV run.
            let r = McEngine::new(McConfig {
                paths: effort.scale64(200_000, 2_000_000),
                variance_reduction: VarianceReduction::GeometricCv,
                seed: 777,
                ..Default::default()
            })
            .price(&m, &basket_call(5))
            .unwrap();
            r.price
        };
        let counts: &[u64] = match effort {
            Effort::Quick => &[4_000, 16_000, 64_000],
            Effort::Full => &[4_000, 16_000, 64_000, 256_000],
        };
        for &paths in counts {
            for (vr, label) in [
                (VarianceReduction::None, "mc plain"),
                (VarianceReduction::Antithetic, "mc antithetic"),
                (VarianceReduction::GeometricCv, "mc geometric-cv"),
            ] {
                let r = McEngine::new(McConfig {
                    paths,
                    variance_reduction: vr,
                    ..Default::default()
                })
                .price(&m, &basket_call(5))
                .unwrap();
                t.push(&[
                    label.to_string(),
                    format!("paths={paths}"),
                    fmt_sig((r.price - exact).abs(), 2),
                    format!("se {:.4}", r.std_error),
                ]);
            }
        }
        // QMC on the geometric basket (exact reference available).
        let exact_geo = geometric_exact(5);
        let mq = market(5);
        for &points in counts {
            let r = mdp_core::mc::qmc::price_qmc(
                &mq,
                &geometric_call(),
                QmcConfig {
                    points: points / 4,
                    replicates: 4,
                    ..Default::default()
                },
            )
            .unwrap();
            t.push(&[
                "qmc sobol".to_string(),
                format!("points=4×{}", points / 4),
                fmt_sig((r.price - exact_geo).abs(), 2),
                format!("se {:.5}", r.std_error),
            ]);
        }
    }
    save("f4_convergence", &t);
}

/// F5 — Gustafson weak scaling: work grows with p.
pub fn f5_weak_scaling(effort: Effort) {
    let mut t = Table::new(
        "F5: weak scaling (work ∝ p): scaled speedup and efficiency",
        &[
            "engine",
            "p",
            "work",
            "T_model [ms]",
            "scaled speedup",
            "efficiency",
        ],
    );
    let procs: &[usize] = &[1, 2, 4, 8, 16, 32];
    // Monte Carlo: paths ∝ p.
    {
        let m = market_vol(5, 0.3);
        let p = basket_call(5);
        let base_paths = effort.scale64(4_000, 32_000);
        let mut t1 = 0.0;
        for &ranks in procs {
            let paths = base_paths * ranks as u64;
            let cfg = McConfig {
                paths,
                block_size: (paths / 64).max(1),
                ..Default::default()
            };
            let out = cluster_mc(&m, &p, cfg, ranks, Machine::cluster2002());
            if ranks == 1 {
                t1 = out.time.makespan;
            }
            // Scaled speedup: how much more work per unit time vs p=1.
            let scaled = ranks as f64 * t1 / out.time.makespan;
            t.push(&[
                "mc d=5".to_string(),
                ranks.to_string(),
                format!("{paths} paths"),
                fmt_sig(out.time.makespan * 1e3, 4),
                format!("{scaled:.2}"),
                format!("{:.3}", scaled / ranks as f64),
            ]);
        }
    }
    // Lattice: total work ~ N³ for d=2, so N ∝ p^(1/3).
    {
        let m = market(2);
        let p = max_call();
        let base_n = effort.scale(48, 96);
        let mut t1 = 0.0;
        for &ranks in procs {
            let n = (base_n as f64 * (ranks as f64).powf(1.0 / 3.0)).round() as usize;
            let out = cluster_lattice(
                &m,
                &p,
                n,
                ranks,
                Machine::cluster2002(),
                Decomposition::Block,
            );
            if ranks == 1 {
                t1 = out.time.makespan;
            }
            let scaled = ranks as f64 * t1 / out.time.makespan;
            t.push(&[
                "lattice d=2".to_string(),
                ranks.to_string(),
                format!("N={n}"),
                fmt_sig(out.time.makespan * 1e3, 4),
                format!("{scaled:.2}"),
                format!("{:.3}", scaled / ranks as f64),
            ]);
        }
    }
    // Gustafson fit on the MC series as the headline number.
    save("f5_weak_scaling", &t);
    let _ = laws::gustafson_speedup(0.0, 1); // referenced in EXPERIMENTS.md
}

/// F6 — isoefficiency: work to hold efficiency as p grows.
pub fn f6_isoefficiency(effort: Effort) {
    let mut t = Table::new(
        "F6: isoefficiency — problem size needed to hold efficiency E on the 2002 cluster",
        &["engine", "target E", "p", "size", "work units"],
    );
    let procs: &[usize] = match effort {
        Effort::Quick => &[2, 4, 8],
        Effort::Full => &[2, 4, 8, 16, 32],
    };
    // Lattice d=2: size = N, work ≈ Σ(n+1)² ≈ N³/3.
    {
        let m = market(2);
        let prod = max_call();
        let time = |n: u64, p: usize| {
            cluster_lattice(
                &m,
                &prod,
                n as usize,
                p,
                Machine::cluster2002(),
                Decomposition::Block,
            )
            .time
            .makespan
        };
        let work = |n: u64| (n as f64).powi(3) / 3.0;
        let hi = effort.scale64(192, 512);
        for &target in &[0.5, 0.8] {
            for &p in procs {
                match isoefficiency_point(time, work, p, target, 4, hi, 0.02) {
                    Some((n, w)) => t.push(&[
                        "lattice d=2".to_string(),
                        format!("{target}"),
                        p.to_string(),
                        format!("N={n}"),
                        fmt_sig(w, 3),
                    ]),
                    None => t.push(&[
                        "lattice d=2".to_string(),
                        format!("{target}"),
                        p.to_string(),
                        format!("> N={hi}"),
                        "unreached".to_string(),
                    ]),
                }
            }
        }
    }
    // Monte Carlo: size = paths (in blocks of 512), work = paths.
    {
        let m = market_vol(5, 0.3);
        let prod = basket_call(5);
        let time = |blocks: u64, p: usize| {
            let paths = blocks * 512;
            let cfg = McConfig {
                paths,
                block_size: 512,
                ..Default::default()
            };
            cluster_mc(&m, &prod, cfg, p, Machine::cluster2002())
                .time
                .makespan
        };
        let work = |blocks: u64| (blocks * 512) as f64;
        let hi = effort.scale64(64, 512);
        for &target in &[0.5, 0.8] {
            for &p in procs {
                match isoefficiency_point(time, work, p, target, 1, hi, 0.05) {
                    Some((blocks, w)) => t.push(&[
                        "mc d=5".to_string(),
                        format!("{target}"),
                        p.to_string(),
                        format!("{} paths", blocks * 512),
                        fmt_sig(w, 3),
                    ]),
                    None => t.push(&[
                        "mc d=5".to_string(),
                        format!("{target}"),
                        p.to_string(),
                        format!("> {} paths", hi * 512),
                        "unreached".to_string(),
                    ]),
                }
            }
        }
    }
    save("f6_isoefficiency", &t);
}
