//! Tables T1–T9 of the reconstructed evaluation.

use crate::workloads::*;
use crate::{save, Effort};
use mdp_core::cluster::{CheckpointMode, Machine};
use mdp_core::lattice::cluster::{price_cluster, Decomposition};
use mdp_core::mc::cluster_driver::{price_lsmc_cluster, price_mc_cluster};
use mdp_core::prelude::*;
use mdp_perf::report::fmt_sig;
use mdp_perf::timing::measure;
use mdp_perf::Table;

/// T1 — sequential lattice cost growth with dimension and steps.
pub fn t1_sequential_lattice_cost(effort: Effort) {
    let mut t = Table::new(
        "T1: sequential BEG lattice — cost growth with dimension (European max-call)",
        &["d", "N", "nodes", "wall [s]", "ns/node", "price"],
    );
    let plans: &[(usize, &[usize])] = match effort {
        Effort::Quick => &[(1, &[64, 256]), (2, &[16, 64]), (3, &[8, 16]), (4, &[4, 8])],
        Effort::Full => &[
            (1, &[64, 256, 1024]),
            (2, &[16, 64, 256]),
            (3, &[8, 16, 64]),
            (4, &[4, 8, 16]),
        ],
    };
    for &(d, steps_list) in plans {
        let m = market(d);
        let p = max_call();
        for &n in steps_list {
            let lat = MultiLattice::new(n);
            let (res, secs) = measure(|| lat.price(&m, &p).expect("lattice"));
            t.push(&[
                d.to_string(),
                n.to_string(),
                res.nodes_processed.to_string(),
                fmt_sig(secs, 3),
                fmt_sig(secs * 1e9 / res.nodes_processed as f64, 3),
                format!("{:.4}", res.price),
            ]);
        }
    }
    save("t1_sequential_lattice", &t);
}

/// T2 — parallel lattice: modelled time and speedup vs ranks.
pub fn t2_parallel_lattice(effort: Effort) {
    let mut t = Table::new(
        "T2: distributed BEG lattice on the modelled 2002 cluster (block decomposition)",
        &[
            "d",
            "N",
            "p",
            "T_model [ms]",
            "speedup",
            "efficiency",
            "msgs",
        ],
    );
    let cases: &[(usize, usize)] = match effort {
        Effort::Quick => &[(2, 128), (3, 32)],
        Effort::Full => &[(2, 512), (3, 64)],
    };
    let procs = [1usize, 2, 4, 8, 16, 32];
    for &(d, n) in cases {
        let m = market(d);
        let p = max_call();
        let mut t1 = 0.0;
        for &ranks in &procs {
            let block = Decomposition::Block;
            let out = cluster_lattice(&m, &p, n, ranks, Machine::cluster2002(), block);
            if ranks == 1 {
                t1 = out.time.makespan;
            }
            t.push(&[
                d.to_string(),
                n.to_string(),
                ranks.to_string(),
                fmt_sig(out.time.makespan * 1e3, 4),
                format!("{:.2}", t1 / out.time.makespan),
                format!("{:.2}", t1 / out.time.makespan / ranks as f64),
                out.time.total_msgs.to_string(),
            ]);
        }
    }
    save("t2_parallel_lattice", &t);
}

/// T3 — sequential Monte Carlo cost vs paths and dimension.
pub fn t3_sequential_mc_cost(effort: Effort) {
    let mut t = Table::new(
        "T3: sequential Monte Carlo — cost vs paths and dimension (basket call)",
        &["d", "paths", "wall [s]", "µs/path", "price", "std err"],
    );
    let path_counts: &[u64] = match effort {
        Effort::Quick => &[10_000, 100_000],
        Effort::Full => &[10_000, 100_000, 1_000_000],
    };
    for &d in &[3usize, 5, 10] {
        let m = market_vol(d, 0.3);
        let p = basket_call(d);
        for &paths in path_counts {
            let eng = McEngine::new(McConfig {
                paths,
                ..Default::default()
            });
            let (res, secs) = measure(|| eng.price(&m, &p).expect("mc"));
            t.push(&[
                d.to_string(),
                paths.to_string(),
                fmt_sig(secs, 3),
                fmt_sig(secs * 1e6 / paths as f64, 3),
                format!("{:.4}", res.price),
                format!("{:.4}", res.std_error),
            ]);
        }
    }
    save("t3_sequential_mc", &t);
}

/// T3b — batched SoA kernel throughput vs the scalar oracle.
///
/// Times one full pass over every block of a basket-call run with the
/// scalar per-path kernel and with the batched panel kernel, checks the
/// accumulators are bitwise identical, and records ns/path for both.
/// Besides the table, writes `BENCH_mc_kernel.json` into the output
/// directory so CI can track the kernel's trajectory across PRs.
pub fn t3b_batched_kernel_throughput(effort: Effort) {
    use mdp_core::mc::variance::merge_in_chunks;
    use mdp_perf::timing::measure_best;

    let mut t = Table::new(
        "T3b: batched SoA kernel vs scalar oracle — ns/path (basket call, 1 step)",
        &["d", "paths", "scalar ns/path", "batched ns/path", "speedup"],
    );
    let paths = effort.scale64(20_000, 400_000);
    // Best-of-k: both kernels are deterministic, so the minimum over
    // repetitions strips scheduler noise symmetrically from both sides
    // of the ratio.
    let reps = effort.scale(2, 7);
    let mut json = String::from(
        "{\n  \"experiment\": \"t3b\",\n  \"unit\": \"ns_per_path\",\n  \"results\": [\n",
    );
    for (i, &d) in [1usize, 2, 5, 10].iter().enumerate() {
        let m = market_vol(d, 0.3);
        let p = basket_call(d);
        let cfg = McConfig {
            paths,
            ..Default::default()
        };
        let plan = McEngine::new(cfg).plan(&m, p.maturity).expect("mc plan");
        let ctx = plan.context(&p).expect("run context");
        let run = |batched: bool| {
            merge_in_chunks((0..ctx.num_blocks()).map(|b| {
                if batched {
                    ctx.simulate_block_batched(b)
                } else {
                    ctx.simulate_block_scalar(b)
                }
            }))
        };
        let (acc_s, secs_s) = measure_best(|| run(false), reps);
        let (acc_b, secs_b) = measure_best(|| run(true), reps);
        assert_eq!(acc_s, acc_b, "kernels disagree at d={d}");
        let ns_s = secs_s * 1e9 / paths as f64;
        let ns_b = secs_b * 1e9 / paths as f64;
        t.push(&[
            d.to_string(),
            paths.to_string(),
            fmt_sig(ns_s, 3),
            fmt_sig(ns_b, 3),
            format!("{:.2}", ns_s / ns_b),
        ]);
        json.push_str(&format!(
            "    {{\"d\": {d}, \"paths\": {paths}, \"scalar_ns_per_path\": {ns_s:.1}, \
             \"batched_ns_per_path\": {ns_b:.1}, \"speedup\": {:.2}}}{}\n",
            ns_s / ns_b,
            if i < 3 { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let _ = std::fs::write(crate::out_dir().join("BENCH_mc_kernel.json"), json);
    save("t3b_batched_kernel", &t);
}

/// T4b — run-contiguous blocked lattice kernel vs the scalar oracle.
///
/// Runs a full European max-call backward induction with the scalar
/// per-node gather kernel and with the run-contiguous blocked kernel,
/// checks the root values are bitwise identical, and records ns/node for
/// both at d = 1..4. Besides the table, writes
/// `BENCH_lattice_kernel.json` into the output directory so CI can track
/// the kernel's trajectory across PRs.
pub fn t4b_lattice_kernel_throughput(effort: Effort) {
    use mdp_core::lattice::multidim::StepScratch;
    use mdp_perf::timing::measure_best;

    let mut t = Table::new(
        "T4b: blocked BEG kernel vs scalar oracle — ns/node (European max-call)",
        &[
            "d",
            "N",
            "nodes",
            "scalar ns/node",
            "blocked ns/node",
            "speedup",
        ],
    );
    let cases: &[(usize, usize)] = match effort {
        Effort::Quick => &[(1, 1024), (2, 128), (3, 24), (4, 10)],
        Effort::Full => &[(1, 4096), (2, 512), (3, 64), (4, 24)],
    };
    // Best-of-k: both kernels are deterministic, so the minimum over
    // repetitions strips scheduler noise symmetrically from both sides
    // of the ratio.
    let reps = effort.scale(2, 5);
    let mut json = String::from(
        "{\n  \"experiment\": \"t4b\",\n  \"unit\": \"ns_per_node\",\n  \"results\": [\n",
    );
    for (i, &(d, n)) in cases.iter().enumerate() {
        let m = market(d);
        let p = max_call();
        // The plan (probabilities, discount, every step's spot ladders)
        // is built outside the timed runs, so they time the kernels.
        let plan = MultiLattice::new(n)
            .plan(&m, p.maturity)
            .expect("valid plan");
        // Full backward induction from the terminal layer, mirroring
        // `LatticePlan::execute` but parameterised by which slab kernel
        // fills the new layer; returns the root value so the two
        // variants can be compared bitwise.
        let run = |blocked: bool| -> f64 {
            let term_ctx = plan.step_ctx(&p, n);
            let term_row = term_ctx.row_cur();
            let mut values = vec![0.0; (n + 1) * term_row];
            let mut spare = vec![0.0; (n as u128).pow(d as u32) as usize];
            let mut scratch = StepScratch::new();
            for (j0, out) in values.chunks_mut(term_row).enumerate() {
                term_ctx.eval_terminal_slab(j0, out, &mut scratch);
            }
            for step in (0..n).rev() {
                let ctx = plan.step_ctx(&p, step);
                let row_cur = ctx.row_cur();
                let len = (step + 1) * row_cur;
                for (j0, out) in spare[..len].chunks_mut(row_cur).enumerate() {
                    let next = &values[j0 * ctx.row_next..(j0 + 2) * ctx.row_next];
                    if blocked {
                        ctx.compute_slab(j0, next, out, &mut scratch);
                    } else {
                        ctx.compute_slab_scalar(j0, next, out);
                    }
                }
                std::mem::swap(&mut values, &mut spare);
            }
            values[0]
        };
        let nodes = MultiLattice::total_nodes(n, d) as f64;
        let (root_s, secs_s) = measure_best(|| run(false), reps);
        let (root_b, secs_b) = measure_best(|| run(true), reps);
        assert_eq!(
            root_s.to_bits(),
            root_b.to_bits(),
            "kernels disagree at d={d}"
        );
        let ns_s = secs_s * 1e9 / nodes;
        let mut ns_b = secs_b * 1e9 / nodes;
        // At d=1 `compute_slab` dispatches to the scalar oracle (the
        // blocked layout only slowed the degenerate one-node runs
        // down), so both timings measure the same code path: the second
        // run stays as a live dispatch check, but report one timing and
        // a 1.00 speedup rather than noise between identical runs.
        if d == 1 {
            ns_b = ns_s;
        }
        let speedup = if d == 1 { 1.0 } else { ns_s / ns_b };
        assert!(
            speedup >= 1.0,
            "blocked kernel regressed vs scalar at d={d}: {speedup:.2}x"
        );
        t.push(&[
            d.to_string(),
            n.to_string(),
            (nodes as u128).to_string(),
            fmt_sig(ns_s, 3),
            fmt_sig(ns_b, 3),
            format!("{speedup:.2}"),
        ]);
        json.push_str(&format!(
            "    {{\"d\": {d}, \"steps\": {n}, \"scalar_ns_per_node\": {ns_s:.1}, \
             \"blocked_ns_per_node\": {ns_b:.1}, \"speedup\": {speedup:.2}}}{}\n",
            if i + 1 < cases.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let _ = std::fs::write(crate::out_dir().join("BENCH_lattice_kernel.json"), json);
    save("t4b_lattice_kernel", &t);
}

/// T5b — factor-once blocked ADI kernel vs the per-line scalar oracle.
///
/// Runs the full Douglas ADI time loop in two and three dimensions with
/// the per-line Thomas oracle ([`AdiPlan::execute_per_line`]) and with
/// the factor-once multi-RHS blocked kernel ([`AdiPlan::execute`]),
/// checks the prices are bitwise identical, and records ns/node for
/// both. Besides the table, writes `BENCH_pde_kernel.json` into the
/// output directory so CI can gate the kernel in each dimension.
///
/// [`AdiPlan::execute_per_line`]: mdp_core::pde::AdiPlan::execute_per_line
/// [`AdiPlan::execute`]: mdp_core::pde::AdiPlan::execute
pub fn t5b_pde_kernel_throughput(effort: Effort) {
    use mdp_core::pde::{AdiPlan, AdiScratch};
    use mdp_perf::timing::measure_best;

    let mut t = Table::new(
        "T5b: blocked ADI kernel vs per-line scalar oracle — ns/node",
        &[
            "product",
            "d",
            "grid",
            "N",
            "scalar ns/node",
            "blocked ns/node",
            "speedup",
        ],
    );
    let am_3d = ("am min-put", 3, 41, 40);
    let cases: &[(&str, usize, usize, usize)] = match effort {
        Effort::Quick => &[
            ("eu max-call", 2, 101, 100),
            ("am min-put", 2, 101, 100),
            am_3d,
        ],
        Effort::Full => &[
            ("eu max-call", 2, 101, 100),
            ("am min-put", 2, 101, 100),
            ("eu max-call", 2, 151, 150),
            ("am min-put", 2, 201, 200),
            am_3d,
        ],
    };
    // Best-of-k: both kernels are deterministic, so the minimum over
    // repetitions strips scheduler noise symmetrically from both sides
    // of the ratio.
    let reps = effort.scale(2, 4);
    let mut json = String::from(
        "{\n  \"experiment\": \"t5b\",\n  \"unit\": \"ns_per_node\",\n  \"results\": [\n",
    );
    for (i, &(name, d, mpts, n)) in cases.iter().enumerate() {
        let p = if name.starts_with("am") {
            american_min_put()
        } else {
            max_call()
        };
        let mk = market(d);
        // Each timed run plans and executes, as a one-shot price does.
        let plan = || -> AdiPlan {
            match d {
                2 => Adi2d {
                    space_points: mpts,
                    time_steps: n,
                    ..Default::default()
                }
                .plan(&mk, p.maturity),
                _ => Adi3d {
                    space_points: mpts,
                    time_steps: n,
                    ..Default::default()
                }
                .plan(&mk, p.maturity),
            }
            .expect("adi plan")
        };
        let (res_s, secs_s) = measure_best(|| plan().execute_per_line(&p).expect("adi"), reps);
        let (res_b, secs_b) = measure_best(
            || plan().execute(&p, &mut AdiScratch::default()).expect("adi"),
            reps,
        );
        assert_eq!(
            res_s.price.to_bits(),
            res_b.price.to_bits(),
            "kernels disagree on {name} at {mpts}^{d}"
        );
        let nodes = res_s.nodes_processed as f64;
        let ns_s = secs_s * 1e9 / nodes;
        let ns_b = secs_b * 1e9 / nodes;
        let speedup = ns_s / ns_b;
        assert!(
            speedup >= 1.0,
            "blocked ADI kernel regressed on {name} at {mpts}^{d}: {speedup:.2}x"
        );
        t.push(&[
            name.to_string(),
            d.to_string(),
            format!("{mpts}^{d}"),
            n.to_string(),
            fmt_sig(ns_s, 3),
            fmt_sig(ns_b, 3),
            format!("{speedup:.2}"),
        ]);
        json.push_str(&format!(
            "    {{\"product\": \"{name}\", \"dim\": {d}, \"grid\": {mpts}, \"steps\": {n}, \
             \"scalar_ns_per_node\": {ns_s:.1}, \"blocked_ns_per_node\": {ns_b:.1}, \
             \"speedup\": {speedup:.2}}}{}\n",
            if i + 1 < cases.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let _ = std::fs::write(crate::out_dir().join("BENCH_pde_kernel.json"), json);
    save("t5b_pde_kernel", &t);
}

/// T13 — the cache-oblivious trapezoid stencil vs the step-by-step
/// oracle, and the 3-D ADI backend vs its Monte Carlo baseline.
///
/// Part (a) runs the full explicit FD time loop with the level-by-level
/// sweep ([`Fd1dPlan::execute_step_by_step`]) and the recursive trapezoid
/// decomposition ([`Fd1dPlan::execute`]) on grids far past
/// last-level-of-interest cache, checks the surfaces are bitwise
/// identical, and records ns/node for both. The grid sizes use the
/// tiny-maturity trick: with the `LogGrid` half-width clamped at 0.5,
/// `Δx = 1/(M−1)`, and `T = N·12·Δx²` keeps the explicit stability
/// ratio `σ²Δτ/Δx²` at 0.48 < ½ at any spatial resolution. Writes
/// `BENCH_stencil.json` so CI can gate on `speedup ≥ 1` at every size.
///
/// Part (b) prices the correlated 3-asset basket call with the 3-D
/// Douglas ADI grid and with Monte Carlo, asserting agreement within
/// the simulation's own resolution and recording the wall cost of each.
///
/// [`Fd1dPlan::execute_step_by_step`]: mdp_core::pde::Fd1dPlan::execute_step_by_step
/// [`Fd1dPlan::execute`]: mdp_core::pde::Fd1dPlan::execute
pub fn t13_stencil_throughput(effort: Effort) {
    use mdp_core::pde::{Fd1dScratch, Scheme};
    use mdp_perf::timing::measure_best;

    let mut t = Table::new(
        "T13a: trapezoid explicit stencil vs step-by-step sweep — ns/node (1 asset)",
        &[
            "product",
            "grid",
            "N",
            "step ns/node",
            "trapezoid ns/node",
            "speedup",
        ],
    );
    let cases: &[(&str, usize, usize)] = match effort {
        Effort::Quick => &[
            ("eu put", (1 << 19) + 1, 96),
            ("am put", (1 << 20) + 1, 128),
        ],
        Effort::Full => &[
            ("eu put", (1 << 19) + 1, 96),
            ("am put", (1 << 19) + 1, 96),
            ("eu put", (1 << 20) + 1, 128),
            ("am put", (1 << 21) + 1, 160),
            ("eu put", (1 << 22) + 1, 192),
        ],
    };
    // Best-of-k: both stencils are deterministic, so the minimum over
    // repetitions strips scheduler noise symmetrically from both sides
    // of the ratio.
    let reps = effort.scale(2, 3);
    let m1 = market(1);
    let mut json = String::from(
        "{\n  \"experiment\": \"t13\",\n  \"unit\": \"ns_per_node\",\n  \"results\": [\n",
    );
    for (i, &(name, mpts, n)) in cases.iter().enumerate() {
        let dx = 1.0 / (mpts - 1) as f64;
        let maturity = n as f64 * 12.0 * dx * dx;
        let payoff = Payoff::BasketPut {
            weights: vec![1.0],
            strike: 100.0,
        };
        let p = if name.starts_with("am") {
            Product::american(payoff, maturity)
        } else {
            Product::european(payoff, maturity)
        };
        // Both sides plan, then sweep: only the sweep differs.
        let run = |step_by_step: bool| {
            let plan = Fd1d {
                space_points: mpts,
                time_steps: n,
                scheme: Scheme::Explicit,
                ..Default::default()
            }
            .plan(&m1, maturity)
            .expect("fd1d plan");
            let scratch = &mut Fd1dScratch::default();
            if step_by_step {
                plan.execute_step_by_step(&p, scratch)
            } else {
                plan.execute(&p, scratch)
            }
            .expect("fd1d")
        };
        let (res_step, secs_step) = measure_best(|| run(true), reps);
        let (res_trap, secs_trap) = measure_best(|| run(false), reps);
        assert_eq!(
            res_step.price.to_bits(),
            res_trap.price.to_bits(),
            "stencils disagree on {name} at m={mpts}"
        );
        assert_eq!(res_step.nodes_processed, res_trap.nodes_processed);
        let nodes = res_step.nodes_processed as f64;
        let ns_step = secs_step * 1e9 / nodes;
        let ns_trap = secs_trap * 1e9 / nodes;
        let speedup = ns_step / ns_trap;
        assert!(
            speedup >= 1.0,
            "trapezoid stencil regressed on {name} at m={mpts}: {speedup:.2}x"
        );
        t.push(&[
            name.to_string(),
            format!("2^{}+1", (mpts - 1).trailing_zeros()),
            n.to_string(),
            fmt_sig(ns_step, 3),
            fmt_sig(ns_trap, 3),
            format!("{speedup:.2}"),
        ]);
        json.push_str(&format!(
            "    {{\"product\": \"{name}\", \"grid\": {mpts}, \"steps\": {n}, \
             \"step_ns_per_node\": {ns_step:.2}, \"trapezoid_ns_per_node\": {ns_trap:.2}, \
             \"speedup\": {speedup:.2}}}{}\n",
            if i + 1 < cases.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let _ = std::fs::write(crate::out_dir().join("BENCH_stencil.json"), json);
    save("t13_stencil", &t);

    // Part (b): the 3-D Douglas ADI grid against the Monte Carlo
    // baseline on the correlated 3-asset basket call.
    let mut t3d = Table::new(
        "T13b: 3-D Douglas ADI vs Monte Carlo — 3-asset basket call",
        &["engine", "config", "price", "seconds", "delta"],
    );
    let m3 = market(3);
    let p3 = Product::european(
        Payoff::BasketCall {
            weights: Product::equal_weights(3),
            strike: 100.0,
        },
        1.0,
    );
    let (grid, steps, paths) = match effort {
        Effort::Quick => (31usize, 30usize, 100_000u64),
        Effort::Full => (51, 50, 400_000),
    };
    let (mc_res, mc_secs) = measure_best(
        || {
            McEngine::new(McConfig {
                paths,
                seed: 0x13,
                ..Default::default()
            })
            .price(&m3, &p3)
            .expect("mc")
        },
        reps,
    );
    let (pde_res, pde_secs) = measure_best(
        || {
            Adi3d {
                space_points: grid,
                time_steps: steps,
                ..Default::default()
            }
            .price(&m3, &p3)
            .expect("adi3d")
        },
        reps,
    );
    let delta = (pde_res.price - mc_res.price).abs();
    assert!(
        delta < 4.0 * mc_res.std_error + 0.08,
        "3-D ADI and MC disagree: {} vs {} ± {}",
        pde_res.price,
        mc_res.price,
        mc_res.std_error
    );
    t3d.push(&[
        "monte-carlo".into(),
        format!("{paths} paths"),
        fmt_sig(mc_res.price, 6),
        fmt_sig(mc_secs, 3),
        format!("se {}", fmt_sig(mc_res.std_error, 2)),
    ]);
    t3d.push(&[
        "adi-3d".into(),
        format!("{grid}^3 x {steps}"),
        fmt_sig(pde_res.price, 6),
        fmt_sig(pde_secs, 3),
        format!("|d| {}", fmt_sig(delta, 2)),
    ]);
    save("t13_adi3d", &t3d);
}

/// T4 — accuracy of every engine against the closed forms.
pub fn t4_accuracy_vs_closed_forms(effort: Effort) {
    let mut t = Table::new(
        "T4: engine accuracy against closed forms",
        &["product", "engine", "price", "exact", "abs err"],
    );
    let push = |t: &mut Table, prod: &str, engine: &str, price: f64, exact: f64| {
        t.push(&[
            prod.to_string(),
            engine.to_string(),
            format!("{price:.5}"),
            format!("{exact:.5}"),
            fmt_sig((price - exact).abs(), 2),
        ]);
    };

    // Vanilla call, 1-D: all four deterministic engines + MC.
    {
        let m = market(1);
        let p = vanilla_call();
        let exact = analytic::black_scholes_call(100.0, 100.0, 0.05, 0.0, 0.2, 1.0);
        let n = effort.scale(256, 2000);
        push(
            &mut t,
            "vanilla call",
            "binomial",
            BinomialLattice::crr(n).price(&m, &p).unwrap().price,
            exact,
        );
        push(
            &mut t,
            "vanilla call",
            "trinomial",
            TrinomialLattice::new(n / 2).price(&m, &p).unwrap().price,
            exact,
        );
        push(
            &mut t,
            "vanilla call",
            "fd-1d CN",
            Fd1d::default().price(&m, &p).unwrap().price,
            exact,
        );
        let mc = McEngine::new(McConfig {
            paths: effort.scale64(50_000, 500_000),
            ..Default::default()
        })
        .price(&m, &p)
        .unwrap();
        push(&mut t, "vanilla call", "monte-carlo", mc.price, exact);
    }

    // Margrabe exchange, 2-D.
    {
        let m = market(2);
        let p = Product::european(Payoff::Exchange, 1.0);
        let exact = analytic::margrabe_exchange(100.0, 0.0, 0.2, 100.0, 0.0, 0.2, 0.3, 1.0);
        push(
            &mut t,
            "exchange",
            "beg-lattice",
            MultiLattice::new(effort.scale(64, 256))
                .price(&m, &p)
                .unwrap()
                .price,
            exact,
        );
        push(
            &mut t,
            "exchange",
            "adi-2d",
            Adi2d {
                space_points: effort.scale(101, 201),
                time_steps: effort.scale(100, 200),
                ..Default::default()
            }
            .price(&m, &p)
            .unwrap()
            .price,
            exact,
        );
    }

    // Stulz max-call, 2-D.
    {
        let m = market(2);
        let p = max_call();
        let exact =
            analytic::max_call_two_assets(100.0, 0.0, 0.2, 100.0, 0.0, 0.2, 0.3, 0.05, 100.0, 1.0);
        push(
            &mut t,
            "max call",
            "beg-lattice",
            MultiLattice::new(effort.scale(64, 256))
                .price(&m, &p)
                .unwrap()
                .price,
            exact,
        );
        push(
            &mut t,
            "max call",
            "monte-carlo",
            McEngine::new(McConfig {
                paths: effort.scale64(50_000, 500_000),
                ..Default::default()
            })
            .price(&m, &p)
            .unwrap()
            .price,
            exact,
        );
    }

    // Geometric basket across dimensions: lattice (low d), MC, QMC.
    for d in [2usize, 5, 10] {
        let m = market(d);
        let p = geometric_call();
        let exact = geometric_exact(d);
        if d <= 3 {
            push(
                &mut t,
                "geometric basket",
                &format!("beg-lattice d={d}"),
                MultiLattice::new(effort.scale(32, 128))
                    .price(&m, &p)
                    .unwrap()
                    .price,
                exact,
            );
        }
        push(
            &mut t,
            "geometric basket",
            &format!("monte-carlo d={d}"),
            McEngine::new(McConfig {
                paths: effort.scale64(50_000, 500_000),
                ..Default::default()
            })
            .price(&m, &p)
            .unwrap()
            .price,
            exact,
        );
        push(
            &mut t,
            "geometric basket",
            &format!("qmc d={d}"),
            mdp_core::mc::qmc::price_qmc(
                &m,
                &p,
                QmcConfig {
                    points: effort.scale64(4096, 32_768),
                    replicates: 4,
                    ..Default::default()
                },
            )
            .unwrap()
            .price,
            exact,
        );
    }
    save("t4_accuracy", &t);
}

/// T5 — the method-comparison / curse-of-dimensionality table.
pub fn t5_method_comparison(effort: Effort) {
    let mut t = Table::new(
        "T5: lattice vs Monte Carlo vs PDE across dimension (geometric basket call, error vs closed form)",
        &["d", "engine", "price", "abs err", "wall [s]"],
    );
    for d in 1..=5usize {
        let m = market(d);
        let p = geometric_call();
        let exact = geometric_exact(d);
        // Lattice with dimension-adapted steps (constant-ish node budget).
        if d <= 4 {
            let n = match d {
                1 => effort.scale(512, 2048),
                2 => effort.scale(90, 256),
                3 => effort.scale(24, 64),
                _ => effort.scale(10, 24),
            };
            let (res, secs) = measure(|| MultiLattice::new(n).price(&m, &p).unwrap());
            t.push(&[
                d.to_string(),
                format!("lattice N={n}"),
                format!("{:.4}", res.price),
                fmt_sig((res.price - exact).abs(), 2),
                fmt_sig(secs, 3),
            ]);
        } else {
            t.push(&[
                d.to_string(),
                "lattice".into(),
                "—".into(),
                "intractable".into(),
                "—".into(),
            ]);
        }
        if d == 1 {
            let (res, secs) = measure(|| Fd1d::default().price(&m, &p).unwrap());
            t.push(&[
                d.to_string(),
                "fd-1d".into(),
                format!("{:.4}", res.price),
                fmt_sig((res.price - exact).abs(), 2),
                fmt_sig(secs, 3),
            ]);
        } else if d == 2 {
            let (res, secs) = measure(|| Adi2d::default().price(&m, &p).unwrap());
            t.push(&[
                d.to_string(),
                "adi-2d".into(),
                format!("{:.4}", res.price),
                fmt_sig((res.price - exact).abs(), 2),
                fmt_sig(secs, 3),
            ]);
        }
        let paths = effort.scale64(50_000, 200_000);
        let (res, secs) = measure(|| {
            McEngine::new(McConfig {
                paths,
                ..Default::default()
            })
            .price(&m, &p)
            .unwrap()
        });
        t.push(&[
            d.to_string(),
            format!("mc {paths}"),
            format!("{:.4}", res.price),
            fmt_sig((res.price - exact).abs(), 2),
            fmt_sig(secs, 3),
        ]);
    }
    save("t5_method_comparison", &t);
}

/// T6 — communication-overhead fraction vs ranks, lattice vs MC.
pub fn t6_communication_overhead(effort: Effort) {
    let mut t = Table::new(
        "T6: communication share of modelled busy time (2002 cluster)",
        &[
            "engine",
            "p",
            "comm fraction",
            "mean comm [ms]",
            "mean compute [ms]",
        ],
    );
    let procs = [2usize, 4, 8, 16, 32];
    let m2 = market(2);
    let n = effort.scale(128, 512);
    for &ranks in &procs {
        let block = Decomposition::Block;
        let out = cluster_lattice(&m2, &max_call(), n, ranks, Machine::cluster2002(), block);
        t.push(&[
            format!("lattice d=2 N={n}"),
            ranks.to_string(),
            format!("{:.3}", out.time.comm_fraction()),
            fmt_sig(out.time.mean_comm * 1e3, 3),
            fmt_sig(out.time.mean_compute * 1e3, 3),
        ]);
    }
    let m5 = market_vol(5, 0.3);
    let paths = effort.scale64(20_000, 200_000);
    for &ranks in &procs {
        let out = cluster_mc(
            &m5,
            &basket_call(5),
            McConfig {
                paths,
                block_size: (paths / 64).max(1),
                ..Default::default()
            },
            ranks,
            Machine::cluster2002(),
        );
        t.push(&[
            format!("mc d=5 {paths} paths"),
            ranks.to_string(),
            format!("{:.3}", out.time.comm_fraction()),
            fmt_sig(out.time.mean_comm * 1e3, 3),
            fmt_sig(out.time.mean_compute * 1e3, 3),
        ]);
    }
    save("t6_comm_overhead", &t);
}

/// T6b — fault tolerance: checkpoint overhead vs interval, and
/// recovery makespan vs crash time.
///
/// Part 1 prices the d=2 lattice under an inert [`FaultPlan`] (no
/// faults, checkpoints still written) across checkpoint intervals and
/// reports the modelled overhead against a run without checkpoints.
/// Part 2 injects a single rank crash at several boundaries and reports
/// the recovery makespan — checkpoint replay included — for the lattice
/// and MC drivers, asserting every recovered price is bit-identical to
/// the fault-free run. Writes `BENCH_fault_tolerance.json` so CI can
/// gate on the overhead and recovery fields.
pub fn t6b_fault_tolerance(effort: Effort) {
    let mut t = Table::new(
        "T6b: checkpoint overhead and crash recovery (2002 cluster)",
        &[
            "engine",
            "interval",
            "crash step",
            "T_model [ms]",
            "overhead %",
        ],
    );
    let m2 = market(2);
    let prod = max_call();
    let n = effort.scale(64, 128);
    let ranks = 4usize;
    let plain = cluster_lattice(
        &m2,
        &prod,
        n,
        ranks,
        Machine::cluster2002(),
        Decomposition::Block,
    );
    let base_ms = plain.time.makespan * 1e3;

    let mut json = String::from("{\n  \"experiment\": \"t6b\",\n  \"checkpoint_overhead\": [\n");
    let intervals: &[usize] = match effort {
        Effort::Quick => &[1, 8, 32],
        Effort::Full => &[1, 4, 8, 16, 32],
    };
    for (i, &interval) in intervals.iter().enumerate() {
        let ft = price_cluster(
            &m2,
            &prod,
            n,
            ranks,
            Machine::cluster2002(),
            Decomposition::Block,
            FaultPlan::new(0),
            Some(interval),
        )
        .unwrap();
        assert_eq!(
            ft.price.to_bits(),
            plain.price.to_bits(),
            "checkpointing must not change the price"
        );
        let ms = ft.time.makespan * 1e3;
        let overhead = (ms - base_ms) / base_ms * 100.0;
        // A checkpoint ships a full layer shard, which costs roughly one
        // step of compute, so overhead ~ 100%/interval; 16 is the
        // default interval documented in DESIGN.md.
        if interval >= 16 {
            assert!(
                overhead <= 10.0,
                "checkpoint overhead at interval {interval} too high: {overhead:.2}%"
            );
        }
        t.push(&[
            format!("lattice d=2 N={n} p={ranks}"),
            interval.to_string(),
            "-".to_string(),
            fmt_sig(ms, 4),
            format!("{overhead:.2}"),
        ]);
        json.push_str(&format!(
            "    {{\"engine\": \"lattice\", \"interval\": {interval}, \"makespan_ms\": {ms:.4}, \
             \"overhead_pct\": {overhead:.2}}}{}\n",
            if i + 1 < intervals.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n  \"recovery\": [\n");

    // Part 2: recovery makespan vs crash time, interval fixed at the
    // default 16.
    let crash_steps: Vec<usize> = vec![n / 4, n / 2, 3 * n / 4];
    let mut rows: Vec<String> = Vec::new();
    for &crash_at in &crash_steps {
        let plan = FaultPlan::new(0).with_crash(1, crash_at);
        let ft = price_cluster(
            &m2,
            &prod,
            n,
            ranks,
            Machine::cluster2002(),
            Decomposition::Block,
            plan,
            Some(16),
        )
        .unwrap();
        assert_eq!(
            ft.price.to_bits(),
            plain.price.to_bits(),
            "recovered lattice price must be bit-identical"
        );
        let ms = ft.time.makespan * 1e3;
        let overhead = (ms - base_ms) / base_ms * 100.0;
        t.push(&[
            format!("lattice d=2 N={n} p={ranks}"),
            "16".to_string(),
            crash_at.to_string(),
            fmt_sig(ms, 4),
            format!("{overhead:.2}"),
        ]);
        rows.push(format!(
            "    {{\"engine\": \"lattice\", \"crash_step\": {crash_at}, \"interval\": 16, \
             \"recovery_makespan_ms\": {ms:.4}, \"faultfree_makespan_ms\": {base_ms:.4}, \
             \"recovery_overhead_pct\": {overhead:.2}}}"
        ));
    }

    // MC: crash mid-stream of a batched run.
    let m5 = market_vol(5, 0.3);
    let paths = effort.scale64(20_000, 100_000);
    let cfg = McConfig {
        paths,
        block_size: (paths / 64).max(1),
        ..Default::default()
    };
    let mc_plain = cluster_mc(&m5, &basket_call(5), cfg, ranks, Machine::cluster2002());
    let mc_base_ms = mc_plain.time.makespan * 1e3;
    for &crash_at in &[4usize, 12] {
        let plan = FaultPlan::new(0).with_crash(1, crash_at);
        let ft = price_mc_cluster(
            &m5,
            &basket_call(5),
            cfg,
            ranks,
            Machine::cluster2002(),
            plan,
            Some(4),
        )
        .unwrap();
        assert_eq!(
            ft.result.price.to_bits(),
            mc_plain.result.price.to_bits(),
            "recovered MC price must be bit-identical"
        );
        let ms = ft.time.makespan * 1e3;
        let overhead = (ms - mc_base_ms) / mc_base_ms * 100.0;
        t.push(&[
            format!("mc d=5 {paths} paths p={ranks}"),
            "4".to_string(),
            crash_at.to_string(),
            fmt_sig(ms, 4),
            format!("{overhead:.2}"),
        ]);
        rows.push(format!(
            "    {{\"engine\": \"mc\", \"crash_step\": {crash_at}, \"interval\": 4, \
             \"recovery_makespan_ms\": {ms:.4}, \"faultfree_makespan_ms\": {mc_base_ms:.4}, \
             \"recovery_overhead_pct\": {overhead:.2}}}"
        ));
    }
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ]\n}\n");
    let _ = std::fs::write(crate::out_dir().join("BENCH_fault_tolerance.json"), json);
    save("t6b_fault_tolerance", &t);
}

/// T7 — LSMC American pricing: accuracy and parallel scaling.
pub fn t7_lsmc_american(effort: Effort) {
    let mut t = Table::new(
        "T7: Longstaff–Schwartz American min-put (d=2) — accuracy and modelled scaling",
        &["metric", "value"],
    );
    let m = market(2);
    let p = american_min_put();
    let lattice_ref = MultiLattice::new(effort.scale(64, 150))
        .price(&m, &p)
        .unwrap()
        .price;
    let cfg = LsmcConfig {
        paths: effort.scale64(10_000, 50_000),
        steps: effort.scale(10, 25),
        degree: 3,
        block_size: 500,
        ..Default::default()
    };
    let seq = mdp_core::mc::lsmc::price_lsmc(&m, &p, cfg).unwrap();
    t.push(&["lattice reference".to_string(), format!("{lattice_ref:.4}")]);
    t.push(&[
        "lsmc price ± se".to_string(),
        format!("{:.4} ± {:.4}", seq.price, seq.std_error),
    ]);
    t.push(&[
        "lsmc − lattice".to_string(),
        format!("{:+.4}", seq.price - lattice_ref),
    ]);

    let mut scaling = Table::new(
        "T7b: distributed LSMC modelled scaling (per-date per-block regression fold)",
        &[
            "p",
            "T_model [ms]",
            "speedup",
            "efficiency",
            "comm fraction",
        ],
    );
    let mut t1 = 0.0;
    for ranks in [1usize, 2, 4, 8, 16] {
        let (machine, sync) = (Machine::cluster2002(), CheckpointMode::Sync);
        let out =
            price_lsmc_cluster(&m, &p, cfg, ranks, machine, FaultPlan::new(0), None, sync).unwrap();
        if ranks == 1 {
            t1 = out.time.makespan;
        }
        scaling.push(&[
            ranks.to_string(),
            fmt_sig(out.time.makespan * 1e3, 4),
            format!("{:.2}", t1 / out.time.makespan),
            format!("{:.2}", t1 / out.time.makespan / ranks as f64),
            format!("{:.3}", out.time.comm_fraction()),
        ]);
    }
    save("t7_lsmc_american", &t);
    save("t7b_lsmc_scaling", &scaling);
}

/// T8 — Greeks: bump-and-reprice and pathwise estimators vs closed forms.
pub fn t8_greeks(effort: Effort) {
    use mdp_core::greeks::BumpConfig;
    use mdp_core::mc::pathwise::pathwise_delta;
    use mdp_core::model::greeks::black_scholes_call_greeks;

    let mut t = Table::new(
        "T8: sensitivity estimators vs Black–Scholes Greeks (ATM call)",
        &[
            "greek",
            "exact",
            "bump(analytic)",
            "bump(lattice)",
            "bump(mc)",
            "pathwise(mc)",
        ],
    );
    let m = market(1);
    let p = vanilla_call();
    let exact = black_scholes_call_greeks(100.0, 100.0, 0.05, 0.0, 0.2, 1.0);
    let bumps = BumpConfig::default();
    let g_an = Pricer::new(Method::Analytic).greeks(&m, &p, bumps).unwrap();
    let g_lat = Pricer::new(Method::lattice(effort.scale(400, 1500)))
        .greeks(&m, &p, bumps)
        .unwrap();
    let g_mc = Pricer::new(Method::monte_carlo(effort.scale64(50_000, 400_000)))
        .greeks(&m, &p, bumps)
        .unwrap();
    let pw = pathwise_delta(
        &m,
        &p,
        McConfig {
            paths: effort.scale64(50_000, 400_000),
            ..Default::default()
        },
    )
    .unwrap();
    let row = |name: &str, e: f64, a: f64, l: f64, mc: f64, pwv: Option<f64>| {
        vec![
            name.to_string(),
            format!("{e:.5}"),
            format!("{a:.5}"),
            format!("{l:.5}"),
            format!("{mc:.5}"),
            pwv.map(|v| format!("{v:.5}")).unwrap_or_else(|| "—".into()),
        ]
    };
    t.push_row(row(
        "delta",
        exact.delta[0],
        g_an.delta[0],
        g_lat.delta[0],
        g_mc.delta[0],
        Some(pw.delta[0]),
    ));
    t.push_row(row(
        "gamma",
        exact.gamma[0],
        g_an.gamma[0],
        g_lat.gamma[0],
        g_mc.gamma[0],
        None,
    ));
    t.push_row(row(
        "vega",
        exact.vega[0],
        g_an.vega[0],
        g_lat.vega[0],
        g_mc.vega[0],
        None,
    ));
    t.push_row(row(
        "theta",
        exact.theta,
        g_an.theta,
        g_lat.theta,
        g_mc.theta,
        None,
    ));
    t.push_row(row("rho", exact.rho, g_an.rho, g_lat.rho, g_mc.rho, None));
    save("t8_greeks", &t);
}

/// T9 — barrier options, and the latency-bound distributed explicit FD
/// scaling on a deep halo.
pub fn t9_barriers_and_pde_scaling(effort: Effort) {
    use mdp_core::pde::ClusterFd1d;

    let mut t = Table::new(
        "T9a: up-and-out call — closed form vs barrier PDE vs discretely monitored MC",
        &["engine", "monitoring", "price"],
    );
    let m = GbmMarket::single(100.0, 0.25, 0.0, 0.05).unwrap();
    let p = Product::european(
        Payoff::UpOutCall {
            strike: 100.0,
            barrier: 130.0,
        },
        1.0,
    );
    let exact = analytic::up_and_out_call(100.0, 100.0, 130.0, 0.05, 0.0, 0.25, 1.0);
    t.push(&[
        "closed form".to_string(),
        "continuous".to_string(),
        format!("{exact:.4}"),
    ]);
    let pde = Pricer::new(Method::BarrierFd(Fd1dBarrier {
        space_points: effort.scale(401, 801),
        time_steps: effort.scale(400, 800),
        ..Default::default()
    }))
    .price(&m, &p)
    .unwrap();
    t.push(&[
        "barrier PDE".to_string(),
        "continuous".to_string(),
        format!("{:.4}", pde.price),
    ]);
    for steps in [12usize, 50, 250] {
        let mc = Pricer::new(Method::MonteCarlo(McConfig {
            paths: effort.scale64(50_000, 200_000),
            steps,
            ..Default::default()
        }))
        .price(&m, &p)
        .unwrap();
        t.push(&[
            "monte carlo".to_string(),
            format!("{steps} dates"),
            format!("{:.4} ± {:.4}", mc.price, mc.std_error.unwrap()),
        ]);
    }
    save("t9a_barriers", &t);

    let mut t2 = Table::new(
        "T9b: distributed explicit FD — deep halos on a latency-bound kernel",
        &[
            "machine",
            "p",
            "halo depth",
            "msgs",
            "T_model [ms]",
            "speedup",
        ],
    );
    let vanilla = vanilla_call();
    let m1 = market(1);
    // CFL: σ²Δt/Δx² ≤ ½ pins steps to the square of the resolution.
    let cfg = ClusterFd1d {
        space_points: effort.scale(201, 401),
        time_steps: effort.scale(1000, 4000),
        ..Default::default()
    };
    for machine in [Machine::cluster2002(), Machine::smp()] {
        let mut t1v = 0.0;
        for ranks in [1usize, 2, 4, 8] {
            let out = cfg
                .price(&m1, &vanilla, ranks, machine, FaultPlan::new(0), None)
                .unwrap();
            if ranks == 1 {
                t1v = out.time.makespan;
            }
            let speedup = t1v / out.time.makespan;
            // One rank has no neighbour to exchange a halo with.
            let depth = if ranks == 1 {
                "-".to_string()
            } else {
                cfg.halo_depth(&machine, ranks).to_string()
            };
            t2.push(&[
                machine.name.to_string(),
                ranks.to_string(),
                depth,
                out.time.total_msgs.to_string(),
                fmt_sig(out.time.makespan * 1e3, 4),
                format!("{speedup:.2}"),
            ]);
            if ranks == 8 {
                assert!(
                    speedup > 1.0,
                    "{}: the deep halo must let p = 8 beat p = 1 (speedup {speedup:.3})",
                    machine.name
                );
            }
        }
    }
    save("t9b_pde_scaling", &t2);
}

/// T10 — portfolio batch pricing: one plan, many executes.
///
/// Measures the amortisation the engine layer buys on two book shapes
/// from the evaluation: a 1-D finite-difference strike ladder (one
/// grid and factorisation, all strikes swept as multi-RHS lanes) and a
/// multi-asset Monte Carlo book of terminal payoffs (one shared path
/// sweep, fused payoff evaluation). Both batch paths are asserted
/// bitwise-identical to the per-product loop before timing counts.
/// Writes `BENCH_portfolio.json` so CI can gate the amortised speedup.
pub fn t10_portfolio_batch(effort: Effort) {
    let mut t = Table::new(
        "T10: portfolio batch pricing — plan/execute amortisation",
        &[
            "book",
            "products",
            "loop [s]",
            "batch [s]",
            "speedup",
            "plans built",
        ],
    );

    // Part 1: FD strike ladder. Mixed exercise styles, one maturity.
    let n_fd = effort.scale(16, 64);
    let m1 = market(1);
    let fd_book: Vec<Product> = (0..n_fd)
        .map(|i| {
            let payoff = Payoff::BasketPut {
                weights: vec![1.0],
                strike: 70.0 + 60.0 * i as f64 / n_fd as f64,
            };
            if i % 2 == 0 {
                Product::european(payoff, 1.0)
            } else {
                Product::american(payoff, 1.0)
            }
        })
        .collect();
    let fd_pricer = Pricer::new(Method::Fd1d(Fd1d::default()));

    let (loop_reports, fd_loop_s) = measure(|| {
        fd_book
            .iter()
            .map(|p| fd_pricer.price(&m1, p).expect("fd loop"))
            .collect::<Vec<_>>()
    });
    let (batch, fd_batch_s) = measure(|| {
        Portfolio::new(fd_pricer.clone())
            .price_batch(&m1, &fd_book)
            .expect("fd batch")
    });
    for (solo, fused) in loop_reports.iter().zip(&batch.reports) {
        assert_eq!(
            solo.price.to_bits(),
            fused.price.to_bits(),
            "fused FD ladder must match the per-product loop bitwise"
        );
    }
    assert_eq!(batch.plans_built, 1);
    let fd_speedup = fd_loop_s / fd_batch_s;
    t.push(&[
        "fd-1d strike ladder".to_string(),
        n_fd.to_string(),
        fmt_sig(fd_loop_s, 3),
        fmt_sig(fd_batch_s, 3),
        format!("{fd_speedup:.2}"),
        batch.plans_built.to_string(),
    ]);

    // Part 2: Monte Carlo book — one shared path sweep over fused
    // terminal payoffs.
    let d = 5;
    let md = market(d);
    let paths = effort.scale64(20_000, 100_000);
    let cfg = McConfig {
        paths,
        ..Default::default()
    };
    let strikes = [85.0, 90.0, 95.0, 100.0, 105.0, 110.0];
    let mut mc_book: Vec<Product> = strikes
        .iter()
        .map(|&k| Product::european(Payoff::MaxCall { strike: k }, 1.0))
        .collect();
    mc_book.push(Product::european(
        Payoff::GeometricCall { strike: 100.0 },
        1.0,
    ));
    mc_book.push(Product::european(
        Payoff::BasketCall {
            weights: Product::equal_weights(d),
            strike: 100.0,
        },
        1.0,
    ));
    let mc_pricer = Pricer::new(Method::MonteCarlo(cfg));

    let (mc_loop_reports, mc_loop_s) = measure(|| {
        mc_book
            .iter()
            .map(|p| mc_pricer.price(&md, p).expect("mc loop"))
            .collect::<Vec<_>>()
    });
    let (mc_batch, mc_batch_s) = measure(|| {
        Portfolio::new(mc_pricer.clone())
            .price_batch(&md, &mc_book)
            .expect("mc batch")
    });
    for (solo, fused) in mc_loop_reports.iter().zip(&mc_batch.reports) {
        assert_eq!(
            solo.price.to_bits(),
            fused.price.to_bits(),
            "fused MC book must match the per-product loop bitwise"
        );
    }
    assert_eq!(mc_batch.fused, mc_book.len());
    let mc_speedup = mc_loop_s / mc_batch_s;
    t.push(&[
        format!("mc d={d} shared paths"),
        mc_book.len().to_string(),
        fmt_sig(mc_loop_s, 3),
        fmt_sig(mc_batch_s, 3),
        format!("{mc_speedup:.2}"),
        mc_batch.plans_built.to_string(),
    ]);

    save("t10_portfolio_batch", &t);

    let json = format!(
        "{{\n  \"experiment\": \"t10\",\n  \"portfolio\": [\n    \
         {{\"book\": \"fd_ladder\", \"products\": {n_fd}, \"loop_s\": {fd_loop_s:.6}, \
         \"batch_s\": {fd_batch_s:.6}, \"amortized_speedup\": {fd_speedup:.3}}},\n    \
         {{\"book\": \"mc_shared_paths\", \"products\": {}, \"loop_s\": {mc_loop_s:.6}, \
         \"batch_s\": {mc_batch_s:.6}, \"amortized_speedup\": {mc_speedup:.3}}}\n  ]\n}}\n",
        mc_book.len(),
    );
    let _ = std::fs::write(crate::out_dir().join("BENCH_portfolio.json"), json);
}

/// Closed-loop capacity of one service configuration, in requests per
/// second: the median rate of three bursts of `burst` requests, each
/// started after [`CALIBRATION_WARM_UP`] of unmeasured bursts.
fn closed_loop_capacity(
    pricer: Pricer,
    cfg: mdp_serve::ServeConfig,
    market: &std::sync::Arc<GbmMarket>,
    burst: usize,
    product_for: impl Fn(usize) -> Product,
) -> f64 {
    use mdp_serve::{PriceRequest, PricingService, ServeConfig};
    use std::time::Instant;
    let service = PricingService::start(
        pricer,
        ServeConfig {
            queue_capacity: burst,
            ..cfg
        },
    );
    let start = Instant::now();
    let mut rates = Vec::new();
    for round in 0.. {
        let t0 = Instant::now();
        let tickets: Vec<_> = (0..burst)
            .map(|i| {
                let request = PriceRequest::new(
                    (round * burst + i) as u64,
                    std::sync::Arc::clone(market),
                    product_for(i),
                );
                service
                    .submit(request)
                    .expect("calibration queue sized to the burst")
            })
            .collect();
        for t in tickets {
            t.wait()
                .expect("calibration response")
                .outcome
                .expect("calibration price");
        }
        if t0 - start >= CALIBRATION_WARM_UP {
            rates.push(burst as f64 / t0.elapsed().as_secs_f64());
            if rates.len() == 3 {
                break;
            }
        }
    }
    service.shutdown();
    rates.sort_by(f64::total_cmp);
    rates[1]
}

/// How long [`closed_loop_capacity`] loads the service before it
/// measures. After the host has idled, a fresh process serves at about
/// half speed for its first ~1.3 s of load (measured on the 2-core
/// benchmark host: T11's FD bursts ran at 2.4k req/s, then 4.6k), and a
/// calibration inside that window pins T11's and T14's "overload" load
/// points below capacity.
const CALIBRATION_WARM_UP: std::time::Duration = std::time::Duration::from_secs(2);

/// T11 — pricing-as-a-service under open-loop load: the default
/// (coalescing, plan-caching) service vs the same service configured as
/// a naive pool of per-request pricers (`max_batch: 1, plan_cache: 0`:
/// one plan build per request).
///
/// A seeded open-loop driver replays the *same* exponential arrival
/// process against both services at offered loads pinned above the
/// calibrated naive capacity, so the throughput ratio measures the
/// coalescer + plan cache, not the arrival noise. Writes
/// `BENCH_serve.json` so CI can gate `coalesced ≥ naive` at every
/// load point and check the latency percentiles are reported.
pub fn t11_serve(effort: Effort) {
    use mdp_perf::latency_summary;
    use mdp_serve::{PriceRequest, PricingService, ServeConfig, ServeError};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const WORKERS: usize = 2;
    const DISTINCT_STRIKES: usize = 32;

    let market = Arc::new(market(1));
    let strikes: Vec<f64> = (0..DISTINCT_STRIKES)
        .map(|i| 70.0 + 60.0 * i as f64 / DISTINCT_STRIKES as f64)
        .collect();
    let product_for = |i: usize| {
        Product::european(
            Payoff::BasketCall {
                weights: vec![1.0],
                strike: strikes[i % DISTINCT_STRIKES],
            },
            1.0,
        )
    };
    let pricer = || Pricer::new(Method::Fd1d(Fd1d::default()));

    // Ground truth for the bitwise cross-check: the direct sequential
    // price of each distinct strike.
    let direct = pricer();
    let expected_bits: Vec<u64> = (0..DISTINCT_STRIKES)
        .map(|i| {
            direct
                .price(&market, &product_for(i))
                .expect("direct price")
                .price
                .to_bits()
        })
        .collect();

    let coal_cfg = ServeConfig {
        workers: WORKERS,
        ..Default::default()
    };
    // The naive pool-of-pricers baseline is the same service with
    // neither coalescing nor plan caching: every request is served
    // alone and pays its own plan build.
    let naive_cfg = ServeConfig {
        max_batch: 1,
        plan_cache: 0,
        ..coal_cfg
    };
    let naive_capacity_rps = closed_loop_capacity(
        pricer(),
        naive_cfg,
        &market,
        effort.scale(128, 512),
        product_for,
    );

    let mut table = Table::new(
        "T11: pricing service under open-loop load — coalesced vs naive pool",
        &[
            "load",
            "offered [rps]",
            "naive [rps]",
            "coal [rps]",
            "ratio",
            "naive p99 [ms]",
            "coal p99 [ms]",
            "coal batch",
        ],
    );

    // Seeded splitmix64 → exponential interarrivals. Both services see
    // the identical arrival schedule.
    let next_u64 = |state: &mut u64| {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };

    struct LoadPoint {
        mult: f64,
        offered_rps: f64,
        naive: RunStats,
        coal: RunStats,
    }
    struct RunStats {
        throughput_rps: f64,
        completed: u64,
        shed: u64,
        p50_ms: f64,
        p99_ms: f64,
        mean_batch: f64,
        cache_hits: u64,
        mean_plan_hit_s: f64,
        mean_plan_miss_s: f64,
    }

    let n_requests = effort.scale(400, 1600);
    // All offered loads sit above the calibrated naive capacity, so the
    // naive pool is saturated and the ratio is a capacity ratio.
    let mults: &[f64] = &[1.5, 2.5, 4.0];

    let run = |cfg: ServeConfig, offered_rps: f64, seed: u64| -> RunStats {
        let service = PricingService::start(
            pricer(),
            ServeConfig {
                queue_capacity: 512,
                ..cfg
            },
        );
        let mut state = seed;
        let mut clock = 0.0f64;
        let start = Instant::now();
        let mut tickets = Vec::with_capacity(n_requests);
        for i in 0..n_requests {
            // Exponential interarrival at the offered rate.
            let u = (next_u64(&mut state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            clock += -(1.0 - u).ln() / offered_rps;
            let due = Duration::from_secs_f64(clock);
            loop {
                let elapsed = start.elapsed();
                if elapsed >= due {
                    break;
                }
                let left = due - elapsed;
                if left > Duration::from_micros(200) {
                    std::thread::sleep(left - Duration::from_micros(100));
                } else {
                    std::hint::spin_loop();
                }
            }
            match service.submit(PriceRequest::new(
                i as u64,
                Arc::clone(&market),
                product_for(i),
            )) {
                Ok(t) => tickets.push((i, t)),
                Err(ServeError::Overloaded { .. }) => {} // open loop: drop
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        let mut latencies = Vec::with_capacity(tickets.len());
        for (i, t) in tickets {
            let resp = t.wait().expect("service response");
            let report = resp.outcome.as_ref().expect("priced");
            assert_eq!(
                report.price.to_bits(),
                expected_bits[i % DISTINCT_STRIKES],
                "served price must match the direct sequential price bitwise"
            );
            latencies.push(resp.latency_seconds());
        }
        let wall = start.elapsed().as_secs_f64();
        let stats = service.shutdown();
        let summary = latency_summary(&mut latencies);
        RunStats {
            throughput_rps: stats.completed as f64 / wall,
            completed: stats.completed,
            shed: stats.shed,
            p50_ms: summary.p50 * 1e3,
            p99_ms: summary.p99 * 1e3,
            mean_batch: stats.mean_batch(),
            cache_hits: stats.cache.hits,
            mean_plan_hit_s: stats.mean_plan_seconds_hit(),
            mean_plan_miss_s: stats.mean_plan_seconds_miss(),
        }
    };

    let mut points = Vec::new();
    for (k, &mult) in mults.iter().enumerate() {
        let offered_rps = (naive_capacity_rps * mult).max(50.0);
        let seed = 0x5eed_0000 + k as u64;
        let naive = run(naive_cfg, offered_rps, seed);
        let coal = run(coal_cfg, offered_rps, seed);
        let ratio = coal.throughput_rps / naive.throughput_rps;
        table.push(&[
            format!("{mult:.1}x"),
            format!("{offered_rps:.0}"),
            format!("{:.0}", naive.throughput_rps),
            format!("{:.0}", coal.throughput_rps),
            format!("{ratio:.2}"),
            format!("{:.2}", naive.p99_ms),
            format!("{:.2}", coal.p99_ms),
            format!("{:.1}", coal.mean_batch),
        ]);
        points.push(LoadPoint {
            mult,
            offered_rps,
            naive,
            coal,
        });
    }

    save("t11_serve", &table);

    let mut json = String::new();
    json.push_str("{\n  \"experiment\": \"t11\",\n");
    json.push_str(&format!(
        "  \"naive_capacity_rps\": {naive_capacity_rps:.3},\n  \"workers\": {WORKERS},\n  \"requests_per_point\": {n_requests},\n  \"load_points\": [\n"
    ));
    for (k, p) in points.iter().enumerate() {
        let ratio = p.coal.throughput_rps / p.naive.throughput_rps;
        let fmt_side = |s: &RunStats| {
            format!(
                "{{\"throughput_rps\": {:.3}, \"completed\": {}, \"shed\": {}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"mean_batch\": {:.3}, \"cache_hits\": {}, \"mean_plan_hit_s\": {:.9}, \"mean_plan_miss_s\": {:.9}}}",
                s.throughput_rps,
                s.completed,
                s.shed,
                s.p50_ms,
                s.p99_ms,
                s.mean_batch,
                s.cache_hits,
                s.mean_plan_hit_s,
                s.mean_plan_miss_s,
            )
        };
        json.push_str(&format!(
            "    {{\"offered_mult\": {:.2}, \"offered_rps\": {:.3},\n     \"naive\": {},\n     \"coalesced\": {},\n     \"throughput_ratio\": {:.4}}}{}\n",
            p.mult,
            p.offered_rps,
            fmt_side(&p.naive),
            fmt_side(&p.coal),
            ratio,
            if k + 1 == points.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    let _ = std::fs::write(crate::out_dir().join("BENCH_serve.json"), json);
}

/// T12 — ticking-market incremental repricing and the scenario cube.
///
/// Part 1 replays a deterministic stream of one-field market ticks
/// (spot and rate) against a live FD book. The incremental path patches
/// the compiled group plan in place ([`PricerPlan::apply_tick`]) and
/// re-executes the fused strike ladder; the naive path reprices the
/// book product-by-product on every ticked market, rebuilding state
/// from scratch each time — the pre-plan-cache serving behaviour. An
/// untimed pass first asserts the patched plan reprices the whole book
/// bitwise like a freshly compiled plan at every tick.
///
/// Part 2 reads whole-book risk off fused scenario cubes:
///
/// * **FD bump Greeks** — [`RiskCube::greeks`] (one plan, `4d + 2`
///   scenario rows, each a patched copy of it) against
///   the per-product [`Pricer::greeks`] loop, delta/gamma/vega/rho
///   asserted bitwise-equal. (The loop also buys theta — one extra
///   pricing in `4d + 4` — which the cube cannot express; its speedup
///   carries that caveat.)
/// * **MC scenario cube** — spot/vol/rate scenarios sharing one path
///   sweep ([`RiskCube::price`]: normals drawn and correlated once,
///   per-scenario re-walks) against the plan-per-scenario
///   [`RiskCube::price_naive`] oracle, rows asserted bitwise-equal.
///
/// Timings take the best of `TICK_BENCH_REPS` repetitions per side.
/// Writes `BENCH_tick.json` so CI can gate the tick and cube speedups
/// at ≥ 1.
pub fn t12_tick_repricing(effort: Effort) {
    let mut t = Table::new(
        "T12: ticking-market repricing — patched plans and fused cubes vs naive loops",
        &[
            "workload",
            "size",
            "naive [s]",
            "incremental [s]",
            "speedup",
            "rate",
        ],
    );

    // Part 1: FD book under a tick stream. Same book shape as T10's
    // strike ladder (mixed exercise styles, one maturity).
    let n_fd = effort.scale(16, 64);
    let maturity = 1.0;
    let m1 = market(1);
    let fd_book: Vec<Product> = (0..n_fd)
        .map(|i| {
            let payoff = Payoff::BasketPut {
                weights: vec![1.0],
                strike: 70.0 + 60.0 * i as f64 / n_fd as f64,
            };
            if i % 2 == 0 {
                Product::european(payoff, maturity)
            } else {
                Product::american(payoff, maturity)
            }
        })
        .collect();
    let fd_pricer = Pricer::new(Method::Fd1d(Fd1d::default()));
    let portfolio = Portfolio::new(fd_pricer.clone());

    let n_ticks = effort.scale(24, 96);
    let ticks: Vec<MarketDelta> = (0..n_ticks)
        .map(|i| match i % 4 {
            3 => MarketDelta::Rate {
                rate: 0.045 + 0.001 * (i % 7) as f64,
            },
            _ => MarketDelta::Spot {
                asset: 0,
                spot: 96.0 + 0.5 * (i % 17) as f64,
            },
        })
        .collect();

    // Correctness pass (untimed): the patched plan must reprice the
    // whole book bitwise like a fresh plan at every tick, and spot/rate
    // ticks must actually patch (never fall back to a rebuild).
    {
        let mut live = portfolio.plan_group(&m1, maturity).expect("plan");
        let mut mkt = m1.clone();
        for delta in &ticks {
            let outcome = live.apply_tick(delta).expect("tick");
            assert!(
                !outcome.rebuilt(),
                "spot/rate ticks must patch the FD plan in place"
            );
            mkt = mkt.apply_delta(delta).expect("delta");
            let (patched, _) = portfolio
                .execute_group(&mut live, &fd_book, 0.0)
                .expect("patched exec");
            let mut fresh = portfolio.plan_group(&mkt, maturity).expect("fresh plan");
            let (rebuilt, _) = portfolio
                .execute_group(&mut fresh, &fd_book, 0.0)
                .expect("fresh exec");
            for (a, b) in patched.iter().zip(&rebuilt) {
                assert_eq!(
                    a.price.to_bits(),
                    b.price.to_bits(),
                    "ticked plan must reprice bitwise like a fresh plan"
                );
            }
        }
    }

    let patched_run = || {
        let mut live = portfolio.plan_group(&m1, maturity).expect("plan");
        let mut sink = 0u64;
        for delta in &ticks {
            live.apply_tick(delta).expect("tick");
            let (reports, _) = portfolio
                .execute_group(&mut live, &fd_book, 0.0)
                .expect("patched exec");
            sink ^= reports[0].price.to_bits();
        }
        sink
    };
    let naive_run = || {
        let mut mkt = m1.clone();
        let mut sink = 0u64;
        for delta in &ticks {
            mkt = mkt.apply_delta(delta).expect("delta");
            let first = fd_pricer.price(&mkt, &fd_book[0]).expect("naive loop");
            sink ^= first.price.to_bits();
            for p in &fd_book[1..] {
                fd_pricer.price(&mkt, p).expect("naive loop");
            }
        }
        sink
    };
    let (patched_sink, patched_s) = best_of(TICK_BENCH_REPS, &patched_run);
    let (naive_sink, naive_s) = best_of(TICK_BENCH_REPS, &naive_run);
    assert_eq!(
        patched_sink, naive_sink,
        "patched ladder repricing must match the naive loop bitwise"
    );
    let tick_speedup = naive_s / patched_s;
    let ticks_per_s = n_ticks as f64 / patched_s;
    t.push(&[
        "fd tick stream".to_string(),
        format!("{n_fd} prod × {n_ticks} ticks"),
        fmt_sig(naive_s, 3),
        fmt_sig(patched_s, 3),
        format!("{tick_speedup:.2}"),
        format!("{ticks_per_s:.1} ticks/s"),
    ]);

    // Part 2a: FD bump Greeks — the whole book's delta/gamma/vega/rho
    // off one cube vs the per-product bump-and-reprice loop.
    let fd_cube = RiskCube::new(fd_pricer.clone());
    let bumps = BumpConfig::default();
    let (loop_greeks, greeks_loop_s) = best_of(TICK_BENCH_REPS, &|| {
        fd_book
            .iter()
            .map(|p| fd_pricer.greeks(&m1, p, bumps).expect("loop greeks"))
            .collect::<Vec<_>>()
    });
    let (cube_greeks, greeks_cube_s) = best_of(TICK_BENCH_REPS, &|| {
        fd_cube.greeks(&m1, &fd_book, bumps).expect("cube greeks")
    });
    for (lg, cg) in loop_greeks.iter().zip(&cube_greeks) {
        assert_eq!(lg.price.to_bits(), cg.price.to_bits());
        assert_eq!(lg.delta[0].to_bits(), cg.delta[0].to_bits());
        assert_eq!(lg.gamma[0].to_bits(), cg.gamma[0].to_bits());
        assert_eq!(lg.vega[0].to_bits(), cg.vega[0].to_bits());
        assert_eq!(
            lg.rho.to_bits(),
            cg.rho.to_bits(),
            "cube Greeks must match the bump loop bitwise"
        );
    }
    let greeks_speedup = greeks_loop_s / greeks_cube_s;
    t.push(&[
        "fd bump greeks".to_string(),
        format!("{n_fd} prod × 6 scen"),
        fmt_sig(greeks_loop_s, 3),
        fmt_sig(greeks_cube_s, 3),
        format!("{greeks_speedup:.2}"),
        "Δ Γ ν ρ".to_string(),
    ]);

    // Part 2b: MC scenario cube — spot/vol/rate bumps share one path
    // sweep (normals drawn and correlated once, per-scenario re-walks).
    let d = 3;
    let md = market(d);
    let paths = effort.scale64(100_000, 200_000);
    let mc_cfg = McConfig {
        paths,
        ..Default::default()
    };
    let mut mc_book: Vec<Product> = [90.0, 100.0, 110.0]
        .iter()
        .map(|&k| Product::european(Payoff::MaxCall { strike: k }, maturity))
        .collect();
    mc_book.push(basket_call(d));
    let mc_scens: Vec<MarketDelta> = vec![
        MarketDelta::Spot {
            asset: 0,
            spot: 101.0,
        },
        MarketDelta::Spot {
            asset: 1,
            spot: 99.0,
        },
        MarketDelta::Spot {
            asset: 2,
            spot: 103.0,
        },
        MarketDelta::Vol {
            asset: 0,
            vol: 0.22,
        },
        MarketDelta::Vol {
            asset: 2,
            vol: 0.18,
        },
        MarketDelta::Rate { rate: 0.06 },
        MarketDelta::Rate { rate: 0.04 },
    ];
    let mc_cube = RiskCube::new(Pricer::new(Method::MonteCarlo(mc_cfg)));
    let (mc_cube_res, mc_cube_s) = best_of(TICK_BENCH_REPS, &|| {
        mc_cube.price(&md, &mc_book, &mc_scens).expect("mc cube")
    });
    let (mc_naive_res, mc_naive_s) = best_of(TICK_BENCH_REPS, &|| {
        mc_cube
            .price_naive(&md, &mc_book, &mc_scens)
            .expect("mc naive")
    });
    assert_eq!(mc_cube_res.fused_scenarios, mc_scens.len());
    assert_cube_rows_bitwise(&mc_cube_res, &mc_naive_res, "MC cube");
    let mc_cube_speedup = mc_naive_s / mc_cube_s;
    t.push(&[
        format!("mc d={d} scenario cube"),
        format!("{} prod × {} scen", mc_book.len(), mc_scens.len()),
        fmt_sig(mc_naive_s, 3),
        fmt_sig(mc_cube_s, 3),
        format!("{mc_cube_speedup:.2}"),
        format!("{} fused", mc_cube_res.fused_scenarios),
    ]);

    save("t12_tick_repricing", &t);

    let json = format!(
        "{{\n  \"experiment\": \"t12\",\n  \"tick\": {{\"products\": {n_fd}, \"ticks\": {n_ticks}, \
         \"naive_loop_s\": {naive_s:.6}, \"patched_s\": {patched_s:.6}, \
         \"ticks_per_s\": {ticks_per_s:.3}, \"amortized_speedup\": {tick_speedup:.3}}},\n  \
         \"cube\": [\n    \
         {{\"book\": \"fd_bump_greeks\", \"products\": {n_fd}, \"scenarios\": 6, \
         \"loop_s\": {greeks_loop_s:.6}, \"cube_s\": {greeks_cube_s:.6}, \
         \"amortized_speedup\": {greeks_speedup:.3}}},\n    \
         {{\"book\": \"mc_shared_paths\", \"products\": {}, \"scenarios\": {}, \
         \"fused\": {}, \"loop_s\": {mc_naive_s:.6}, \"cube_s\": {mc_cube_s:.6}, \
         \"amortized_speedup\": {mc_cube_speedup:.3}}}\n  ]\n}}\n",
        mc_book.len(),
        mc_scens.len(),
        mc_cube_res.fused_scenarios,
    );
    let _ = std::fs::write(crate::out_dir().join("BENCH_tick.json"), json);
}

/// Repetitions per timed side in [`t12_tick_repricing`]; the best run
/// counts, which screens out scheduler noise on loops this short.
const TICK_BENCH_REPS: usize = 3;

/// Best-of-`reps` wrapper over [`measure`]: returns the last result and
/// the minimum wall time.
fn best_of<T>(reps: usize, f: &dyn Fn() -> T) -> (T, f64) {
    let (mut out, mut best) = measure(f);
    for _ in 1..reps {
        let (r, s) = measure(f);
        out = r;
        best = best.min(s);
    }
    (out, best)
}

/// Assert two cube results agree bitwise, row by row.
fn assert_cube_rows_bitwise(a: &CubeResult, b: &CubeResult, what: &str) {
    for (x, y) in a.base.iter().zip(&b.base) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: base row diverged");
    }
    for (ra, rb) in a.scenarios.iter().zip(&b.scenarios) {
        for (x, y) in ra.iter().zip(rb) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: scenario rows must match the naive oracle bitwise"
            );
        }
    }
}

/// T14 — resilient serving under overload and worker faults.
///
/// Three phases, all on the T11 strike-ladder workload:
///
/// 1. **Overload ± degradation** — open-loop arrivals at 2.5× the
///    calibrated service capacity, every request carrying a deadline.
///    The baseline run (degradation off) either answers full-fidelity
///    or misses its deadline; the degraded run may answer with the
///    cheaper engine variant ([`Method::degrade`], tagged
///    [`mdp_serve::Fidelity::Degraded`]) when the remaining budget is
///    smaller than the engine's observed latency. The headline number
///    is the shed rate (admission sheds + deadline misses over offered
///    load): degradation must push it strictly down by converting
///    would-be misses into explicit cheaper answers.
/// 2. **Breaker timeline** — a seeded fault window of certain panics
///    trips the engine's circuit breaker; the clean phase that follows
///    drives it through half-open probes back to closed. The JSON pins
///    the trip count, the recovery wall time and the legality of the
///    transition history.
/// 3. **Cancellation reclaim** — a wedged worker lets a burst of tiny
///    deadlines expire in the queue (reclaimed with zero engine work),
///    then a long MC run's token trips mid-execute. The reclaim ratio
///    (queue expiries over all deadline failures) is pinned.
///
/// Writes `BENCH_resilience.json` for the CI gates.
pub fn t14_resilience(effort: Effort) {
    use mdp_perf::latency_summary;
    use mdp_serve::{
        transitions_legal, BreakerConfig, Fidelity, PriceRequest, PricingService, RetryPolicy,
        ServeConfig, ServeError, ServeFaultPlan,
    };
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const WORKERS: usize = 2;
    const DISTINCT_STRIKES: usize = 32;
    const OVERLOAD_MULT: f64 = 2.5;

    let market = Arc::new(market(1));
    let strikes: Vec<f64> = (0..DISTINCT_STRIKES)
        .map(|i| 70.0 + 60.0 * i as f64 / DISTINCT_STRIKES as f64)
        .collect();
    let product_for = |i: usize| {
        Product::european(
            Payoff::BasketCall {
                weights: vec![1.0],
                strike: strikes[i % DISTINCT_STRIKES],
            },
            1.0,
        )
    };
    let fd = Method::Fd1d(Fd1d::default());
    let pricer = || Pricer::new(fd.clone());
    // The overload phase prices per-request MC (every request served
    // alone, no plan cache): each request costs a real path sweep, so
    // the degraded variant (quarter paths) is a genuine 4x lever on
    // service capacity.
    let mc_method = Method::MonteCarlo(McConfig {
        paths: 20_000,
        steps: 20,
        block_size: 2_000,
        ..Default::default()
    });
    let mc_pricer = || Pricer::new(mc_method.clone());

    // --- Phase 1: overload with and without graceful degradation. ---

    let per_request = ServeConfig {
        workers: WORKERS,
        max_batch: 1,
        plan_cache: 0,
        ..Default::default()
    };
    let capacity_rps = closed_loop_capacity(
        mc_pricer(),
        per_request,
        &market,
        effort.scale(64, 256),
        product_for,
    );

    // Per-request deadline: a handful of mean service times, so early
    // arrivals finish full-fidelity and queue-delayed ones face the
    // degrade-or-miss decision.
    let deadline = Duration::from_secs_f64(8.0 / capacity_rps * WORKERS as f64);
    let n_requests = effort.scale(300, 1200);
    let offered_rps = capacity_rps * OVERLOAD_MULT;

    struct OverloadStats {
        shed_rate: f64,
        p99_ms: f64,
        ok_full: u64,
        degraded: u64,
        deadline_pre: u64,
        deadline_mid: u64,
        shed: u64,
        completed: u64,
    }

    let next_u64 = |state: &mut u64| {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };

    let overload_run = |degradation: bool| -> OverloadStats {
        let service = PricingService::start(
            mc_pricer(),
            ServeConfig {
                queue_capacity: 256,
                degradation,
                ..per_request
            },
        );
        // Warm the per-engine latency EWMA inside this instance, so the
        // budget-degradation decision has an estimate to compare
        // against.
        let warm: Vec<_> = (0..DISTINCT_STRIKES)
            .map(|i| {
                service
                    .submit(PriceRequest::new(
                        i as u64,
                        Arc::clone(&market),
                        product_for(i),
                    ))
                    .expect("warmup fits")
            })
            .collect();
        for t in warm {
            t.wait()
                .expect("warmup response")
                .outcome
                .expect("warmup price");
        }
        // Open loop at 2.5x: identical seeded arrival schedule for both
        // runs.
        let mut state = 0x5eed14_u64;
        let mut clock = 0.0f64;
        let start = Instant::now();
        let mut tickets = Vec::with_capacity(n_requests);
        for i in 0..n_requests {
            let u = (next_u64(&mut state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            clock += -(1.0 - u).ln() / offered_rps;
            let due = Duration::from_secs_f64(clock);
            loop {
                let elapsed = start.elapsed();
                if elapsed >= due {
                    break;
                }
                let left = due - elapsed;
                if left > Duration::from_micros(200) {
                    std::thread::sleep(left - Duration::from_micros(100));
                } else {
                    std::hint::spin_loop();
                }
            }
            let req = PriceRequest::new(i as u64, Arc::clone(&market), product_for(i))
                .with_deadline(deadline);
            match service.submit(req) {
                Ok(t) => tickets.push(t),
                Err(ServeError::Overloaded { .. }) => {} // open loop: drop
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        let mut ok_latencies = Vec::new();
        let mut ok_full = 0u64;
        for t in tickets {
            let resp = t.wait().expect("service response");
            if resp.outcome.is_ok() {
                if resp.fidelity == Fidelity::Full {
                    ok_full += 1;
                } else {
                    assert!(
                        matches!(resp.fidelity, Fidelity::Degraded { .. }),
                        "overload may only degrade, never silently reroute"
                    );
                }
                ok_latencies.push(resp.latency_seconds());
            }
        }
        let stats = service.shutdown();
        let summary = latency_summary(&mut ok_latencies);
        OverloadStats {
            shed_rate: stats.shed_rate(),
            p99_ms: summary.p99 * 1e3,
            ok_full,
            degraded: stats.degraded,
            deadline_pre: stats.deadline_pre,
            deadline_mid: stats.deadline_mid,
            shed: stats.shed,
            completed: stats.completed,
        }
    };

    let baseline = overload_run(false);
    let with_degradation = overload_run(true);

    // --- Phase 2: breaker trip and recovery timeline. ---

    let cooldown = Duration::from_millis(100);
    let fault = ServeFaultPlan::new(0x7141).with_panics(1.0).until(8);
    let breaker_svc = PricingService::start(
        pricer(),
        ServeConfig {
            workers: 1,
            retry: RetryPolicy {
                max_attempts: 1,
                ..Default::default()
            },
            breaker: BreakerConfig {
                window: 8,
                min_samples: 4,
                cooldown,
                ..Default::default()
            },
            fault: Some(fault),
            ..Default::default()
        },
    );
    // The fault window: every execution of ids < 8 panics, tripping the
    // requested engine's breaker.
    for i in 0..8u64 {
        let _ = breaker_svc.price(PriceRequest::new(i, Arc::clone(&market), product_for(0)));
    }
    let tripped = breaker_svc.breaker_state(&fd) == mdp_serve::BreakerState::Open;
    // The clean phase: keep offering requests until half-open probes
    // close the breaker again.
    let t_recover = Instant::now();
    let mut recovered = false;
    for i in 0..400u64 {
        let _ = breaker_svc.price(PriceRequest::new(
            100 + i,
            Arc::clone(&market),
            product_for(i as usize),
        ));
        if breaker_svc.breaker_state(&fd) == mdp_serve::BreakerState::Closed {
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let recovery_ms = t_recover.elapsed().as_secs_f64() * 1e3;
    let history = breaker_svc.breaker_history();
    let history_legal = transitions_legal(&history);
    let breaker_stats = breaker_svc.shutdown();

    // --- Phase 3: cancellation reclaim ratio. ---

    let cancel_svc = PricingService::start(
        Pricer::new(Method::Fd1d(Fd1d {
            space_points: 2001,
            time_steps: 2000,
            ..Fd1d::default()
        })),
        ServeConfig {
            workers: 1,
            ..Default::default()
        },
    );
    // Wedge the single worker on a slow no-deadline request; a burst of
    // 1 ms deadlines queued behind it must all expire unexecuted.
    let t_wedge = cancel_svc
        .submit(PriceRequest::new(0, Arc::clone(&market), product_for(0)))
        .expect("wedge accepted");
    std::thread::sleep(Duration::from_millis(20));
    let doomed: Vec<_> = (1..17u64)
        .map(|i| {
            cancel_svc
                .submit(
                    PriceRequest::new(i, Arc::clone(&market), product_for(i as usize))
                        .with_deadline(Duration::from_millis(1)),
                )
                .expect("burst accepted")
        })
        .collect();
    t_wedge
        .wait()
        .expect("wedge response")
        .outcome
        .expect("wedge priced");
    for t in doomed {
        let resp = t.wait().expect("doomed response");
        assert!(resp.outcome.is_err(), "expired queued request must miss");
    }
    // Mid-execute abort: a long MC run whose token trips between path
    // blocks.
    let mc = PriceRequest::new(99, Arc::clone(&market), product_for(0))
        .with_method(Method::MonteCarlo(McConfig {
            paths: 4_000_000,
            steps: 50,
            block_size: 50_000,
            ..Default::default()
        }))
        .with_deadline(Duration::from_millis(30));
    let resp = cancel_svc.price(mc).expect("mc response");
    assert!(resp.outcome.is_err(), "the token must abort the long run");
    let cancel_stats = cancel_svc.shutdown();
    let reclaim_ratio = cancel_stats.reclaim_ratio();

    // --- Report. ---

    let mut table = Table::new(
        "T14: resilient serving — overload ± degradation, breaker timeline, reclaim",
        &["metric", "baseline", "degraded"],
    );
    table.push(&[
        "shed rate @2.5x".into(),
        format!("{:.3}", baseline.shed_rate),
        format!("{:.3}", with_degradation.shed_rate),
    ]);
    table.push(&[
        "p99 (Ok) [ms]".into(),
        format!("{:.2}", baseline.p99_ms),
        format!("{:.2}", with_degradation.p99_ms),
    ]);
    table.push(&[
        "Ok full / degraded".into(),
        format!("{} / {}", baseline.ok_full, baseline.degraded),
        format!(
            "{} / {}",
            with_degradation.ok_full, with_degradation.degraded
        ),
    ]);
    table.push(&[
        "breaker trips / recovered".into(),
        format!("{} / {}", breaker_stats.breaker_trips, recovered),
        format!("{recovery_ms:.0} ms"),
    ]);
    table.push(&[
        "cancel reclaim ratio".into(),
        format!("{reclaim_ratio:.3}"),
        format!(
            "{} pre / {} mid",
            cancel_stats.deadline_pre, cancel_stats.deadline_mid
        ),
    ]);
    save("t14_resilience", &table);

    let fmt_side = |s: &OverloadStats| {
        format!(
            "{{\"shed_rate\": {:.6}, \"p99_ms\": {:.4}, \"ok_full\": {}, \"degraded\": {}, \"deadline_pre\": {}, \"deadline_mid\": {}, \"shed\": {}, \"completed\": {}}}",
            s.shed_rate,
            s.p99_ms,
            s.ok_full,
            s.degraded,
            s.deadline_pre,
            s.deadline_mid,
            s.shed,
            s.completed,
        )
    };
    let json = format!(
        "{{\n  \"experiment\": \"t14\",\n  \"capacity_rps\": {:.3},\n  \"overload_mult\": {OVERLOAD_MULT},\n  \"deadline_ms\": {:.3},\n  \"requests\": {n_requests},\n  \"workers\": {WORKERS},\n  \"overload\": {{\n    \"baseline\": {},\n    \"degraded\": {}\n  }},\n  \"breaker\": {{\"trips\": {}, \"tripped_in_window\": {}, \"recovered\": {}, \"recovery_ms\": {:.2}, \"cooldown_ms\": {}, \"history_legal\": {}, \"transitions\": {}}},\n  \"cancellation\": {{\"deadline_pre\": {}, \"deadline_mid\": {}, \"reclaim_ratio\": {:.6}}}\n}}\n",
        capacity_rps,
        deadline.as_secs_f64() * 1e3,
        fmt_side(&baseline),
        fmt_side(&with_degradation),
        breaker_stats.breaker_trips,
        tripped,
        recovered,
        recovery_ms,
        cooldown.as_millis(),
        history_legal,
        history.len(),
        cancel_stats.deadline_pre,
        cancel_stats.deadline_mid,
        reclaim_ratio,
    );
    let _ = std::fs::write(crate::out_dir().join("BENCH_resilience.json"), json);
}

/// T15 — 1024-rank scalability: the topology-aware collective engine
/// against the flat algorithms on an SMP-cluster fabric.
///
/// Three parts. **Sweep**: prices the d=5 Monte Carlo basket and the
/// d=2 lattice at P up to 1024 on `smp_cluster2002(8)` twice — once
/// with the engine pinned to the flat algorithms
/// (`CollectiveChoice::FlatOnly`) and once with the topology-aware
/// selection — asserting bit-identical prices and reporting the
/// makespan ratio plus far-fabric traffic. **Isoefficiency**:
/// calibrates an affine `T(n, p) = α_p + β_p·n` model per engine from
/// two measured runs at each P and reports the work needed to hold 50%
/// efficiency through `mdp_perf::isoefficiency`. **Checkpointing**:
/// compares the synchronous and asynchronous-incremental checkpoint
/// modes of the LSMC driver against a run that checkpoints once.
/// Writes `BENCH_cluster_scale.json` so CI can gate on the
/// hierarchical/flat ratio at P ≥ 256 and on the async checkpoint
/// overhead staying under the 6.5% T6b budget.
pub fn t15_cluster_scale(effort: Effort) {
    use mdp_core::cluster::{CollectiveAlgo, CollectiveChoice, CollectiveEngine};
    use mdp_core::mc::LsmcConfig;
    use mdp_perf::isoefficiency::isoefficiency_point;

    let node = 8usize;
    let mut t = Table::new(
        "T15: topology-aware vs flat collectives on the modelled SMP cluster (8 ranks/node)",
        &[
            "engine",
            "p",
            "algo",
            "flat T [ms]",
            "hier T [ms]",
            "ratio",
            "flat far msgs",
            "hier far msgs",
        ],
    );
    let mc_procs: &[usize] = &[4, 16, 64, 256, 1024];
    let lat_procs: &[usize] = match effort {
        Effort::Quick => &[4, 16, 64],
        Effort::Full => &[4, 16, 64, 256],
    };
    let flat_machine = Machine::smp_cluster2002(node).with_collectives(CollectiveChoice::FlatOnly);
    let auto_machine = Machine::smp_cluster2002(node);
    let algo_name = |p: usize| match CollectiveEngine::for_machine(&auto_machine, p).algo() {
        CollectiveAlgo::Flat => "flat".to_string(),
        CollectiveAlgo::TwoLevel { group } => format!("two-level(g={group})"),
    };
    let mut sweep_rows: Vec<String> = Vec::new();

    // Part 1a: MC sweep, flat vs topology-aware, bit-identical prices.
    let m5 = market_vol(5, 0.3);
    let prod5 = basket_call(5);
    let paths = effort.scale64(16_384, 262_144);
    let mc_cfg = McConfig {
        paths,
        block_size: (paths / 2048).max(1),
        ..Default::default()
    };
    for &p in mc_procs {
        let flat = cluster_mc(&m5, &prod5, mc_cfg, p, flat_machine);
        let hier = cluster_mc(&m5, &prod5, mc_cfg, p, auto_machine);
        assert_eq!(
            flat.result.price.to_bits(),
            hier.result.price.to_bits(),
            "engine selection must never move the price (mc, p={p})"
        );
        let (tf, th) = (flat.time.makespan * 1e3, hier.time.makespan * 1e3);
        let ratio = tf / th;
        t.push(&[
            format!("mc d=5 {paths} paths"),
            p.to_string(),
            algo_name(p),
            fmt_sig(tf, 4),
            fmt_sig(th, 4),
            format!("{ratio:.3}"),
            flat.time.total_far_msgs.to_string(),
            hier.time.total_far_msgs.to_string(),
        ]);
        sweep_rows.push(format!(
            "    {{\"engine\": \"mc\", \"p\": {p}, \"algo\": \"{}\", \
             \"flat_makespan_ms\": {tf:.6}, \"hier_makespan_ms\": {th:.6}, \
             \"ratio\": {ratio:.4}, \"flat_far_msgs\": {}, \"hier_far_msgs\": {}, \
             \"flat_link_stall_ms\": {:.6}, \"hier_link_stall_ms\": {:.6}}}",
            algo_name(p),
            flat.time.total_far_msgs,
            hier.time.total_far_msgs,
            flat.time.total_link_stall * 1e3,
            hier.time.total_link_stall * 1e3,
        ));
    }

    // Part 1b: lattice sweep (end-of-run broadcast is the collective).
    let m2 = market(2);
    let prod2 = max_call();
    let n_lat = effort.scale(128, 512);
    for &p in lat_procs {
        let flat = cluster_lattice(&m2, &prod2, n_lat, p, flat_machine, Decomposition::Block);
        let hier = cluster_lattice(&m2, &prod2, n_lat, p, auto_machine, Decomposition::Block);
        assert_eq!(
            flat.price.to_bits(),
            hier.price.to_bits(),
            "engine selection must never move the price (lattice, p={p})"
        );
        let (tf, th) = (flat.time.makespan * 1e3, hier.time.makespan * 1e3);
        let ratio = tf / th;
        t.push(&[
            format!("lattice d=2 N={n_lat}"),
            p.to_string(),
            algo_name(p),
            fmt_sig(tf, 4),
            fmt_sig(th, 4),
            format!("{ratio:.3}"),
            flat.time.total_far_msgs.to_string(),
            hier.time.total_far_msgs.to_string(),
        ]);
        sweep_rows.push(format!(
            "    {{\"engine\": \"lattice\", \"p\": {p}, \"algo\": \"{}\", \
             \"flat_makespan_ms\": {tf:.6}, \"hier_makespan_ms\": {th:.6}, \
             \"ratio\": {ratio:.4}, \"flat_far_msgs\": {}, \"hier_far_msgs\": {}, \
             \"flat_link_stall_ms\": {:.6}, \"hier_link_stall_ms\": {:.6}}}",
            algo_name(p),
            flat.time.total_far_msgs,
            hier.time.total_far_msgs,
            flat.time.total_link_stall * 1e3,
            hier.time.total_link_stall * 1e3,
        ));
    }
    save("t15_cluster_scale", &t);

    // Part 2: calibrated isoefficiency. Two MC runs per (engine, p) fit
    // T(n, p) = α_p + β_p·n (n = paths); the sequential leg is shared.
    let mut iso = Table::new(
        "T15b: calibrated isoefficiency at 50% efficiency (mc d=5, paths to hold E)",
        &["p", "flat W(p)", "hier W(p)"],
    );
    let mut iso_rows: Vec<String> = Vec::new();
    let n0 = effort.scale64(8_192, 65_536);
    let affine = |machine: Machine, p: usize| {
        let run = |paths: u64| {
            let cfg = McConfig {
                paths,
                block_size: (paths / 2048).max(1),
                ..Default::default()
            };
            cluster_mc(&m5, &prod5, cfg, p, machine).time.makespan
        };
        let (t1, t2) = (run(n0), run(2 * n0));
        let beta = (t2 - t1) / n0 as f64;
        (t1 - beta * n0 as f64, beta)
    };
    let (a1, b1) = affine(auto_machine, 1);
    for &p in mc_procs {
        if p < 16 {
            continue; // the small-p points carry no scalability signal
        }
        let w_of = |machine: Machine| {
            let (ap, bp) = affine(machine, p);
            let time = move |n: u64, q: usize| {
                if q == 1 {
                    a1 + b1 * n as f64
                } else {
                    ap + bp * n as f64
                }
            };
            isoefficiency_point(time, |n| n as f64, p, 0.5, 64, 1 << 34, 1e-3)
        };
        let flat_w = w_of(flat_machine);
        let hier_w = w_of(auto_machine);
        let fmt_w = |w: Option<(u64, f64)>| match w {
            Some((_, work)) => fmt_sig(work, 3),
            None => "unreached".to_string(),
        };
        iso.push(&[p.to_string(), fmt_w(flat_w), fmt_w(hier_w)]);
        iso_rows.push(format!(
            "    {{\"p\": {p}, \"flat_work\": {}, \"hier_work\": {}}}",
            flat_w.map_or("null".to_string(), |w| format!("{:.1}", w.1)),
            hier_w.map_or("null".to_string(), |w| format!("{:.1}", w.1)),
        ));
    }
    save("t15b_isoefficiency", &iso);

    // Part 3: checkpoint modes on the LSMC driver. The baseline
    // checkpoints once (interval ≥ date count); sync and async
    // checkpoint every other date. All three prices are bit-identical.
    let m1 = market(1);
    let am = american_min_put();
    let lsmc_cfg = LsmcConfig {
        paths: effort.scale64(4_000, 16_000),
        steps: 16,
        block_size: effort.scale64(250, 1_000),
        ..Default::default()
    };
    let ranks = 8usize;
    let ckpt_run = |interval: usize, mode: CheckpointMode| {
        price_lsmc_cluster(
            &m1,
            &am,
            lsmc_cfg,
            ranks,
            Machine::cluster2002(),
            FaultPlan::new(0),
            Some(interval),
            mode,
        )
        .unwrap()
    };
    let base = ckpt_run(lsmc_cfg.steps, CheckpointMode::Sync);
    let sync = ckpt_run(2, CheckpointMode::Sync);
    let async_inc = ckpt_run(2, CheckpointMode::AsyncIncremental);
    assert_eq!(base.result.price.to_bits(), sync.result.price.to_bits());
    assert_eq!(
        base.result.price.to_bits(),
        async_inc.result.price.to_bits()
    );
    let base_ms = base.time.makespan * 1e3;
    let over = |ms: f64| (ms - base_ms) / base_ms * 100.0;
    let (sync_ms, async_ms) = (sync.time.makespan * 1e3, async_inc.time.makespan * 1e3);
    let (sync_over, async_over) = (over(sync_ms), over(async_ms));
    println!(
        "t15 checkpoint overhead (lsmc d=1, p={ranks}, interval 2): \
         sync {sync_over:.2}% async {async_over:.2}% (baseline {base_ms:.4} ms)"
    );

    let json = format!(
        "{{\n  \"experiment\": \"t15\",\n  \"node_size\": {node},\n  \"sweep\": [\n{}\n  ],\n  \
         \"isoefficiency\": [\n{}\n  ],\n  \"checkpoint\": {{\"budget_pct\": 6.5, \
         \"baseline_makespan_ms\": {base_ms:.6}, \"sync_makespan_ms\": {sync_ms:.6}, \
         \"async_makespan_ms\": {async_ms:.6}, \"sync_overhead_pct\": {sync_over:.4}, \
         \"async_overhead_pct\": {async_over:.4}, \"sync_ckpt_ms\": {:.6}, \
         \"async_ckpt_ms\": {:.6}}}\n}}\n",
        sweep_rows.join(",\n"),
        iso_rows.join(",\n"),
        sync.time.total_ckpt_time * 1e3,
        async_inc.time.total_ckpt_time * 1e3,
    );
    let _ = std::fs::write(crate::out_dir().join("BENCH_cluster_scale.json"), json);
}
