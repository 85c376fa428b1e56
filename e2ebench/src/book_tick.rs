//! `book-tick`: a closed loop on one thread with no service. Each
//! operation applies one seeded market tick and revalues a six-engine
//! book on `Backend::Sequential`.
//!
//! Five engine groups are patched with `GroupPlan::apply_tick` and
//! revalued with `Portfolio::execute_group`; the sixth, an FD strike
//! ladder, gets its ±1% spot risk from `RiskCube::price`. The work is
//! all kernels, so a serve-layer change should not move this workload,
//! and a kernel gain shows in proportion to that engine's share.

use crate::json::J;
use crate::rng::Rng;
use crate::stats;
use crate::trace::Tracer;
use crate::{clock, Report};
use mdp_core::math::linalg::Matrix;
use mdp_core::prelude::*;
use std::time::Instant;

/// Assets in the market universe; a group of dimension `d` sees the
/// first `d` of them.
const ASSETS: usize = 5;
/// Pairwise correlation of the universe.
const RHO: f64 = 0.3;
/// Maturity of every product in the book.
const MATURITY: f64 = 1.0;
/// Book set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Repetitions per backend when replaying one tick on Sequential and
/// on Rayon for `rayon.speedup.*`.
const RAYON_REPS: usize = 3;

const ADI2D: Adi2d = Adi2d {
    space_points: 91,
    time_steps: 90,
    width: 5.0,
    parallel: false,
    kernel: mdp_core::pde::AdiKernel::Blocked,
};
const ADI3D: Adi3d = Adi3d {
    space_points: 31,
    time_steps: 30,
    width: 5.0,
};
const LATTICE_STEPS: usize = 140;
const MC_PATHS: u64 = 40_960;
const MC_STEPS: usize = 4;
const LSMC_PATHS: u64 = 4_096;
const LSMC_STEPS: usize = 20;
/// Strikes in the FD risk ladder, each as a European and an American put.
const FD_STRIKES: usize = 6;

/// Groups with a Rayon path (ADI-3d has none).
pub const RAYON_GROUPS: [&str; 4] = ["adi2d", "lattice", "mc", "lsmc"];

/// The per-layer metrics this workload reports, with units.
pub fn layer_metrics() -> Vec<(String, &'static str)> {
    let specs = specs();
    let mut out = Vec::new();
    for s in &specs {
        out.push((format!("core.plan_ms.{}", s.name), "ms"));
        out.push((format!("core.tick_us.{}", s.name), "us"));
        out.push((format!("core.exec_ms.{}", s.name), "ms"));
    }
    out.push(("core.tick_p50_ms".into(), "ms"));
    out.push(("core.cube_ms.fd".into(), "ms"));
    out.push(("core.tick_self_ms".into(), "ms"));
    for s in &specs {
        out.push((s.rate_metric.to_string(), "ns"));
    }
    for g in RAYON_GROUPS {
        out.push((format!("rayon.speedup.{g}"), "ratio"));
    }
    out
}

/// The market state every group reads its market from.
#[derive(Debug, Clone, PartialEq)]
struct Universe {
    spots: [f64; ASSETS],
    vols: [f64; ASSETS],
    rate: f64,
}

impl Universe {
    fn base() -> Self {
        Universe {
            spots: [100.0; ASSETS],
            vols: [0.2; ASSETS],
            rate: 0.05,
        }
    }

    fn market(&self, d: usize) -> GbmMarket {
        let mut corr = Matrix::identity(d);
        for i in 0..d {
            for j in 0..d {
                if i != j {
                    corr[(i, j)] = RHO;
                }
            }
        }
        GbmMarket::new(
            self.spots[..d].to_vec(),
            self.vols[..d].to_vec(),
            vec![0.0; d],
            self.rate,
            corr,
        )
        .expect("universe markets are valid")
    }

    fn apply(&mut self, delta: &MarketDelta) {
        match *delta {
            MarketDelta::Spot { asset, spot } => self.spots[asset] = spot,
            MarketDelta::Vol { asset, vol } => self.vols[asset] = vol,
            MarketDelta::Rate { rate } => self.rate = rate,
            MarketDelta::Correlation { .. } => unreachable!("the tick stream moves no correlation"),
        }
    }
}

/// Tick `k` of the stream for `seed`: kinds rotate spot, vol, rate, and
/// the ticked asset moves on every three ticks.
pub fn tick(seed: u64, k: usize) -> MarketDelta {
    let mut rng = Rng::new(seed ^ k as u64, 2);
    let asset = (k / 3) % ASSETS;
    match k % 3 {
        0 => MarketDelta::Spot {
            asset,
            spot: rng.around(100.0, 0.04),
        },
        1 => MarketDelta::Vol {
            asset,
            vol: rng.around(0.2, 0.2),
        },
        _ => MarketDelta::Rate {
            rate: 0.05 + 0.02 * (rng.uniform() - 0.5),
        },
    }
}

/// What defines one engine group of the book.
struct Spec {
    name: &'static str,
    /// Assets of the group's market: the first `dim` of the universe.
    dim: usize,
    method: Method,
    products: Vec<Product>,
    /// Computed work per revaluation: grid nodes, lattice nodes or
    /// path-steps.
    work: f64,
    /// Span names and the per-layer rate metric (names are static).
    tick_span: &'static str,
    exec_span: &'static str,
    rate_metric: &'static str,
}

/// One planned engine group of the book.
struct Group {
    spec: Spec,
    portfolio: Portfolio,
    plan: GroupPlan,
}

fn specs() -> Vec<Spec> {
    let basket = |d: usize, strike: f64| {
        Product::european(
            Payoff::BasketCall {
                weights: vec![1.0 / d as f64; d],
                strike,
            },
            MATURITY,
        )
    };
    let lattice_nodes: f64 = (0..=LATTICE_STEPS)
        .map(|s| ((s + 1) * (s + 1)) as f64)
        .sum();
    vec![
        Spec {
            name: "adi2d",
            dim: 2,
            method: Method::Adi2d(ADI2D),
            products: vec![basket(2, 100.0)],
            work: (ADI2D.space_points.pow(2) * ADI2D.time_steps) as f64,
            tick_span: "core.apply_tick.adi2d",
            exec_span: "core.execute_group.adi2d",
            rate_metric: "pde.adi2d.ns_per_node",
        },
        Spec {
            name: "adi3d",
            dim: 3,
            method: Method::Adi3d(ADI3D),
            products: vec![basket(3, 100.0)],
            work: (ADI3D.space_points.pow(3) * ADI3D.time_steps) as f64,
            tick_span: "core.apply_tick.adi3d",
            exec_span: "core.execute_group.adi3d",
            rate_metric: "pde.adi3d.ns_per_node",
        },
        Spec {
            name: "lattice",
            dim: 2,
            method: Method::MultiLattice {
                steps: LATTICE_STEPS,
            },
            products: vec![
                Product::european(Payoff::MaxCall { strike: 100.0 }, MATURITY),
                Product::american(Payoff::MinPut { strike: 100.0 }, MATURITY),
            ],
            work: 2.0 * lattice_nodes,
            tick_span: "core.apply_tick.lattice",
            exec_span: "core.execute_group.lattice",
            rate_metric: "lattice.ns_per_node",
        },
        Spec {
            name: "mc",
            dim: ASSETS,
            method: Method::MonteCarlo(McConfig {
                paths: MC_PATHS,
                steps: MC_STEPS,
                ..Default::default()
            }),
            products: (0..5)
                .map(|i| basket(ASSETS, 90.0 + 5.0 * i as f64))
                .collect(),
            work: (MC_PATHS * MC_STEPS as u64) as f64,
            tick_span: "core.apply_tick.mc",
            exec_span: "core.execute_group.mc",
            rate_metric: "mc.ns_per_path_step",
        },
        Spec {
            name: "lsmc",
            dim: 2,
            method: Method::Lsmc(LsmcConfig {
                paths: LSMC_PATHS,
                steps: LSMC_STEPS,
                ..Default::default()
            }),
            products: vec![Product::american(
                Payoff::MinPut { strike: 100.0 },
                MATURITY,
            )],
            work: (LSMC_PATHS * LSMC_STEPS as u64) as f64,
            tick_span: "core.apply_tick.lsmc",
            exec_span: "core.execute_group.lsmc",
            rate_metric: "mc.lsmc_ns_per_path_step",
        },
    ]
}

fn fd_products() -> Vec<Product> {
    (0..2 * FD_STRIKES)
        .map(|i| {
            let payoff = Payoff::BasketPut {
                weights: vec![1.0],
                strike: 80.0 + 40.0 * (i % FD_STRIKES) as f64 / (FD_STRIKES - 1) as f64,
            };
            if i < FD_STRIKES {
                Product::european(payoff, MATURITY)
            } else {
                Product::american(payoff, MATURITY)
            }
        })
        .collect()
}

/// The ±1% spot scenarios of the FD ladder on `market`.
fn fd_scenarios(market: &GbmMarket) -> [MarketDelta; 2] {
    let s = market.spots()[0];
    [
        MarketDelta::Spot {
            asset: 0,
            spot: s * 1.01,
        },
        MarketDelta::Spot {
            asset: 0,
            spot: s * 0.99,
        },
    ]
}

fn bits(reports: &[PriceReport]) -> Vec<u64> {
    reports.iter().map(|r| r.price.to_bits()).collect()
}

fn cube_bits(c: &CubeResult) -> Vec<u64> {
    c.base
        .iter()
        .chain(c.scenarios.iter().flatten())
        .map(|p| p.to_bits())
        .collect()
}

/// The book after set-up: planned groups and the time each plan took.
struct Book {
    groups: Vec<Group>,
    plan_s: Vec<f64>,
    cube: RiskCube,
    fd_products: Vec<Product>,
}

/// Plans every group, then values the whole book once.
fn set_up(universe: &Universe) -> Result<Book, String> {
    let mut groups = Vec::new();
    let mut plan_s = Vec::new();
    for spec in specs() {
        let portfolio = Portfolio::new(Pricer::new(spec.method.clone()));
        let t0 = Instant::now();
        let mut plan = portfolio
            .plan_group(&universe.market(spec.dim), MATURITY)
            .map_err(|e| format!("{} plan: {e}", spec.name))?;
        plan_s.push(t0.elapsed().as_secs_f64());
        portfolio
            .execute_group(&mut plan, &spec.products, 0.0)
            .map_err(|e| format!("{} first valuation: {e}", spec.name))?;
        groups.push(Group {
            spec,
            portfolio,
            plan,
        });
    }
    let cube = RiskCube::new(Pricer::new(Method::Fd1d(Fd1d::default())));
    let fd_products = fd_products();
    let m1 = universe.market(1);
    cube.price(&m1, &fd_products, &fd_scenarios(&m1))
        .map_err(|e| format!("fd cube first valuation: {e}"))?;
    Ok(Book {
        groups,
        plan_s,
        cube,
        fd_products,
    })
}

/// One phase: set up, tick and revalue for `seconds`, check the last
/// valuation against fresh plans.
pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Report, String> {
    let mut universe = Universe::base();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut plan_s: Vec<Vec<f64>> = Vec::new();
    let mut book = None;
    for _ in 0..SETUP_REPS {
        drop(book.take());
        let c0 = clock::process_cpu_s();
        let b = set_up(&universe)?;
        setup_s.push(clock::process_cpu_s() - c0);
        plan_s.resize(b.plan_s.len(), Vec::new());
        for (acc, s) in plan_s.iter_mut().zip(&b.plan_s) {
            acc.push(*s);
        }
        book = Some(b);
    }
    let mut book = book.expect("at least one set-up");

    let mut tick_s = Vec::new();
    let mut last: Vec<Vec<u64>> = vec![Vec::new(); book.groups.len()];
    let mut last_cube = Vec::new();
    let mut failed = 0u64;
    let cpu0 = clock::process_cpu_s();
    let start = Instant::now();
    let mut k = 0usize;
    while k == 0 || start.elapsed().as_secs_f64() < seconds {
        let delta = tick(seed, k);
        let t_tick = Instant::now();
        let root = tracer.record("core.tick", k as u64, None, t_tick, t_tick);
        universe.apply(&delta);
        let mut ok = true;
        for (g, group) in book.groups.iter_mut().enumerate() {
            let touches = match delta {
                MarketDelta::Spot { asset, .. } | MarketDelta::Vol { asset, .. } => {
                    asset < group.spec.dim
                }
                _ => true,
            };
            if touches {
                let t0 = Instant::now();
                ok &= group.plan.apply_tick(&delta).is_ok();
                tracer.record(group.spec.tick_span, k as u64, root, t0, Instant::now());
            }
            let t0 = Instant::now();
            match group
                .portfolio
                .execute_group(&mut group.plan, &group.spec.products, 0.0)
            {
                Ok((reports, _)) => last[g] = bits(&reports),
                Err(_) => ok = false,
            }
            tracer.record(group.spec.exec_span, k as u64, root, t0, Instant::now());
        }
        let t0 = Instant::now();
        let m1 = universe.market(1);
        match book.cube.price(&m1, &book.fd_products, &fd_scenarios(&m1)) {
            Ok(c) => last_cube = cube_bits(&c),
            Err(_) => ok = false,
        }
        let t_end = Instant::now();
        tracer.record("core.cube.fd", k as u64, root, t0, t_end);
        if let Some(id) = root {
            tracer.set_end(id, t_end);
        }
        tick_s.push((t_end - t_tick).as_secs_f64());
        failed += u64::from(!ok);
        k += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu = clock::process_cpu_s() - cpu0;

    // The last valuation must equal fresh plans on the final markets,
    // and the fused cube the naive per-scenario oracle, bit for bit.
    let mut wrong = 0u64;
    for (g, group) in book.groups.iter().enumerate() {
        let spec = &group.spec;
        let mut fresh = group
            .portfolio
            .plan_group(&universe.market(spec.dim), MATURITY)
            .map_err(|e| format!("{} fresh plan: {e}", spec.name))?;
        let (reports, _) = group
            .portfolio
            .execute_group(&mut fresh, &spec.products, 0.0)
            .map_err(|e| format!("{} fresh valuation: {e}", spec.name))?;
        wrong += u64::from(bits(&reports) != last[g]);
    }
    let m1 = universe.market(1);
    let naive = book
        .cube
        .price_naive(&m1, &book.fd_products, &fd_scenarios(&m1))
        .map_err(|e| format!("naive cube: {e}"))?;
    wrong += u64::from(cube_bits(&naive) != last_cube);

    let n = tick_s.len();
    let ms = |x: f64| x * 1e3;
    let mut report = Report::new(n as u64, failed + wrong, wrong);
    report.e2e("setup_s", stats::median(&setup_s));
    report.e2e("cpu_ms_per_op", ms(cpu / n as f64));
    report.e2e("throughput_ops_s", n as f64 / wall);
    report.cpu_ms_per_op = ms(cpu / n as f64);
    report.latency_info(&tick_s, 1e3);
    // The per-tick series shows host speed drift within the run.
    report.info(
        "tick_ms",
        J::Arr(
            tick_s
                .iter()
                .map(|&t| J::Num((t * 1e4).round() / 10.0))
                .collect(),
        ),
    );
    report.info(
        "params",
        J::obj([
            (
                "adi2d",
                J::str(format!("{0}x{0}x{1}", ADI2D.space_points, ADI2D.time_steps)),
            ),
            (
                "adi3d",
                J::str(format!("{0}^3x{1}", ADI3D.space_points, ADI3D.time_steps)),
            ),
            ("lattice_steps", J::Int(LATTICE_STEPS as u64)),
            (
                "mc",
                J::str(format!(
                    "{MC_PATHS} paths x {MC_STEPS} steps, {ASSETS} assets"
                )),
            ),
            (
                "lsmc",
                J::str(format!("{LSMC_PATHS} paths x {LSMC_STEPS} steps, 2 assets")),
            ),
            (
                "fd_ladder",
                J::str(format!("{FD_STRIKES} strikes x 2 styles, +-1% spot")),
            ),
            ("setup_reps", J::Int(SETUP_REPS as u64)),
        ]),
    );

    if tracer.enabled() {
        for (g, group) in book.groups.iter().enumerate() {
            let spec = &group.spec;
            let exec = stats::median(&tracer.durations(spec.exec_span));
            report.layer(
                &format!("core.plan_ms.{}", spec.name),
                ms(stats::median(&plan_s[g])),
            );
            report.layer(
                &format!("core.tick_us.{}", spec.name),
                stats::median(&tracer.durations(spec.tick_span)) * 1e6,
            );
            report.layer(&format!("core.exec_ms.{}", spec.name), ms(exec));
            report.layer(spec.rate_metric, exec / spec.work * 1e9);
        }
        report.layer("core.tick_p50_ms", ms(stats::median(&tick_s)));
        report.layer(
            "core.cube_ms.fd",
            ms(stats::median(&tracer.durations("core.cube.fd"))),
        );
        report.layer(
            "core.tick_self_ms",
            ms(stats::median(&tracer.self_times("core.tick"))),
        );
        for (name, speedup) in rayon_replay(&book, &universe)? {
            report.layer(&format!("rayon.speedup.{name}"), speedup);
        }
    }
    Ok(report)
}

/// Replays one revaluation of each Rayon-capable group on Sequential
/// and on Rayon; returns Sequential over Rayon median time.
fn rayon_replay(book: &Book, universe: &Universe) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    for group in book
        .groups
        .iter()
        .filter(|g| RAYON_GROUPS.contains(&g.spec.name))
    {
        let spec = &group.spec;
        let par = Portfolio::new(Pricer::new(spec.method.clone()).backend(Backend::Rayon));
        let mut par_plan = par
            .plan_group(&universe.market(spec.dim), MATURITY)
            .map_err(|e| format!("{} rayon plan: {e}", spec.name))?;
        let mut seq_plan = group.plan.clone();
        let time = |p: &Portfolio, plan: &mut GroupPlan| -> Result<f64, String> {
            let reps: Result<Vec<f64>, String> = (0..RAYON_REPS)
                .map(|_| {
                    let t0 = Instant::now();
                    p.execute_group(plan, &spec.products, 0.0)
                        .map_err(|e| format!("{} replay: {e}", spec.name))?;
                    Ok(t0.elapsed().as_secs_f64())
                })
                .collect();
            Ok(stats::median(&reps?))
        };
        let seq = time(&group.portfolio, &mut seq_plan)?;
        let rayon = time(&par, &mut par_plan)?;
        out.push((spec.name, seq / rayon));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ticks() {
        let a: Vec<String> = (0..30).map(|k| format!("{:?}", tick(7, k))).collect();
        let b: Vec<String> = (0..30).map(|k| format!("{:?}", tick(7, k))).collect();
        let c: Vec<String> = (0..30).map(|k| format!("{:?}", tick(8, k))).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
