//! `cluster-sweep`: a fixed list of virtual-cluster pricing runs through
//! `Pricer::backend(Backend::Cluster { .. })` on
//! `Machine::smp_cluster2002(8)`, repeated for the whole phase.
//!
//! The only workload that drives `mdp-cluster`: `ThreadComm` messaging,
//! the `CollectiveEngine`'s two-level schedules (P > 8) and flat path
//! (P = 8), asynchronous checkpoints and crash recovery, through both
//! the plain and the fault-tolerant entry points. Its rank threads
//! outnumber the host's cores, so host cost is measured as process CPU
//! time, and parallel time comes from the cluster's own deterministic
//! time model, never from the host's wall clock.

use crate::json::J;
use crate::rng::Rng;
use crate::stats;
use crate::trace::Tracer;
use crate::{clock, Report};
use mdp_core::prelude::*;
use std::time::Instant;

/// Ranks per SMP node of the modelled machine.
const NODE_SIZE: usize = 8;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 10;
/// Relative tolerance between distributed and Sequential LSMC, which
/// differ only in the order per-rank regression sums are folded.
const LSMC_TOL: f64 = 1e-12;

const MC_PATHS: u64 = 65_536;
const MC_BLOCK: u64 = 256;
const LATTICE_STEPS: usize = 100;
const FD_POINTS: usize = 201;
/// Explicit-scheme steps: σ²Δτ/Δx² = (points − 1)²/(100·steps) = 0.4,
/// whatever the volatility.
const FD_STEPS: usize = 1_000;
const LSMC_PATHS: u64 = 8_192;
const LSMC_STEPS: usize = 16;
const LSMC_BLOCK: u64 = 256;

/// How a case's price is checked.
#[derive(Debug, Clone, Copy)]
enum Check {
    /// Bitwise equal to the Sequential baseline of its problem.
    Sequential,
    /// Within [`LSMC_TOL`] relative of the Sequential baseline.
    NearSequential,
    /// Bitwise equal to the named case of this sweep, and near
    /// Sequential.
    SameAs(&'static str),
}

/// One virtual-cluster run of the sweep.
#[derive(Debug, Clone, Copy)]
struct Case {
    id: &'static str,
    problem: usize,
    ranks: usize,
    checkpoint_interval: Option<usize>,
    /// Inject one seeded crash plus 1% message drops.
    faults: bool,
    check: Check,
}

const fn case(
    id: &'static str,
    problem: usize,
    ranks: usize,
    checkpoint_interval: Option<usize>,
    check: Check,
) -> Case {
    Case {
        id,
        problem,
        ranks,
        checkpoint_interval,
        faults: false,
        check,
    }
}

const CASES: [Case; 11] = [
    case("mc-p16", 0, 16, None, Check::Sequential),
    case("mc-p256", 0, 256, None, Check::Sequential),
    case("mc-ft-p64", 0, 64, Some(4), Check::Sequential),
    case("lattice-p16", 1, 16, None, Check::Sequential),
    case("lattice-p64", 1, 64, None, Check::Sequential),
    case("lattice-ft-p16", 1, 16, Some(16), Check::Sequential),
    case("fd-p8", 2, 8, None, Check::Sequential),
    case("fd-ft-p8", 2, 8, Some(125), Check::Sequential),
    case("lsmc-p16", 3, 16, None, Check::NearSequential),
    case("lsmc-ft-p16", 3, 16, Some(4), Check::NearSequential),
    Case {
        faults: true,
        ..case("lsmc-rec-p16", 3, 16, Some(4), Check::SameAs("lsmc-ft-p16"))
    },
];

/// The per-layer metrics this workload reports, with units. Modelled
/// times carry the unit `virtual_ms`: they are the cluster model's
/// clock, exact and repeatable for a seed, not host measurements.
pub fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut out = vec![("cluster.model_makespan_ms".to_string(), "virtual_ms")];
    for c in CASES {
        let id = c.id;
        out.push((format!("cluster.{id}.model_ms"), "virtual_ms"));
        out.push((format!("cluster.{id}.msgs"), "count"));
        out.push((format!("cluster.{id}.bytes"), "bytes"));
        if c.ranks > NODE_SIZE {
            out.push((format!("cluster.{id}.far_msgs"), "count"));
        }
        if c.checkpoint_interval.is_some() {
            out.push((format!("cluster.{id}.ckpt_ms"), "virtual_ms"));
        }
        out.push((format!("cluster.{id}.cpu_ms"), "ms"));
        out.push((format!("cluster.{id}.host_overhead"), "ratio"));
    }
    out
}

/// A distinct pricing problem of the sweep.
struct Problem {
    market: GbmMarket,
    product: Product,
    method: Method,
}

/// The four problems, with seeded spot and volatility levels.
fn problems(seed: u64) -> Result<Vec<Problem>, String> {
    let mut rng = Rng::new(seed, 3);
    let mut market = |d: usize| {
        GbmMarket::symmetric(
            d,
            rng.around(100.0, 0.04),
            rng.around(0.2, 0.2),
            0.0,
            0.05,
            0.3,
        )
        .map_err(|e| format!("sweep market: {e}"))
    };
    Ok(vec![
        Problem {
            market: market(5)?,
            product: Product::european(
                Payoff::BasketCall {
                    weights: vec![0.2; 5],
                    strike: 100.0,
                },
                1.0,
            ),
            method: Method::MonteCarlo(McConfig {
                paths: MC_PATHS,
                block_size: MC_BLOCK,
                ..Default::default()
            }),
        },
        Problem {
            market: market(2)?,
            product: Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0),
            method: Method::MultiLattice {
                steps: LATTICE_STEPS,
            },
        },
        Problem {
            market: market(1)?,
            product: Product::european(
                Payoff::BasketPut {
                    weights: vec![1.0],
                    strike: 100.0,
                },
                1.0,
            ),
            method: Method::Fd1d(Fd1d {
                space_points: FD_POINTS,
                time_steps: FD_STEPS,
                scheme: mdp_core::pde::Scheme::Explicit,
                ..Default::default()
            }),
        },
        Problem {
            market: market(2)?,
            product: Product::american(Payoff::MinPut { strike: 100.0 }, 1.0),
            method: Method::Lsmc(LsmcConfig {
                paths: LSMC_PATHS,
                steps: LSMC_STEPS,
                block_size: LSMC_BLOCK,
                ..Default::default()
            }),
        },
    ])
}

/// The injected faults of `lsmc-rec-p16`: one crash at a seeded rank
/// and exercise-date boundary, plus 1% message drops.
fn fault_plan(seed: u64) -> FaultPlan {
    let mut rng = Rng::new(seed, 4);
    let rank = 1 + rng.below(15);
    let step = 1 + rng.below(LSMC_STEPS - 2);
    FaultPlan::new(seed).with_crash(rank, step).with_drops(0.01)
}

fn pricer(problem: &Problem, c: &Case, seed: u64) -> Pricer {
    let pricer = Pricer::new(problem.method.clone()).backend(Backend::Cluster {
        ranks: c.ranks,
        machine: Machine::smp_cluster2002(NODE_SIZE),
        checkpoint_interval: c.checkpoint_interval,
    });
    if c.faults {
        pricer.fault_plan(fault_plan(seed))
    } else {
        pricer
    }
}

/// One phase: price the Sequential baselines, then repeat the sweep for
/// `seconds`, checking every price and every time model.
pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Report, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut base_cpu: Vec<Vec<f64>> = vec![Vec::new(); 4];
    let mut set_up = None;
    for _ in 0..SETUP_REPS {
        let c0 = clock::process_cpu_s();
        let probs = problems(seed)?;
        let mut prices = Vec::with_capacity(probs.len());
        for (i, p) in probs.iter().enumerate() {
            let (c0, w0) = (clock::process_cpu_s(), Instant::now());
            let r = Pricer::new(p.method.clone())
                .price(&p.market, &p.product)
                .map_err(|e| format!("sequential baseline {i}: {e}"))?;
            base_cpu[i].push(clock::process_cpu_s() - c0);
            tracer.record("cluster.baseline", i as u64, None, w0, Instant::now());
            prices.push(r.price);
        }
        setup_s.push(clock::process_cpu_s() - c0);
        set_up = Some((probs, prices));
    }
    let (probs, seq_price) = set_up.expect("at least one set-up");

    let mut cpu_ms: Vec<Vec<f64>> = vec![Vec::new(); CASES.len()];
    let mut models: Vec<Option<TimeModel>> = vec![None; CASES.len()];
    let mut failed = 0u64;
    let mut wrong = 0u64;
    let mut ops = 0u64;
    let cpu0 = clock::process_cpu_s();
    let start = Instant::now();
    let mut sweep = 0u64;
    while sweep == 0 || start.elapsed().as_secs_f64() < seconds {
        let mut price_of: Vec<f64> = Vec::with_capacity(CASES.len());
        for (ci, c) in CASES.iter().enumerate() {
            let p = &probs[c.problem];
            let (c0, w0) = (clock::process_cpu_s(), Instant::now());
            let result = pricer(p, c, seed).price(&p.market, &p.product);
            cpu_ms[ci].push((clock::process_cpu_s() - c0) * 1e3);
            tracer.record(
                "cluster.case",
                sweep * 64 + ci as u64,
                None,
                w0,
                Instant::now(),
            );
            ops += 1;
            let Ok(report) = result else {
                failed += 1;
                price_of.push(f64::NAN);
                continue;
            };
            price_of.push(report.price);
            let base = seq_price[c.problem];
            let near = ((report.price - base) / base).abs() <= LSMC_TOL;
            let right = match c.check {
                Check::Sequential => report.price.to_bits() == base.to_bits(),
                Check::NearSequential => near,
                Check::SameAs(other) => {
                    let j = CASES
                        .iter()
                        .position(|o| o.id == other)
                        .expect("case exists");
                    near && report.price.to_bits() == price_of[j].to_bits()
                }
            };
            // The time model is a pure function of the inputs: every
            // repeat of a case must reproduce it exactly.
            let same_model = match (&models[ci], report.time) {
                (_, None) => false,
                (None, Some(t)) => {
                    models[ci] = Some(t);
                    true
                }
                (Some(first), Some(t)) => *first == t,
            };
            if !right || !same_model {
                wrong += 1;
                failed += 1;
            }
        }
        sweep += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu = clock::process_cpu_s() - cpu0;

    let all_cpu: Vec<f64> = cpu_ms.iter().flatten().copied().collect();
    let mut report = Report::new(ops, failed, wrong);
    report.e2e("setup_s", stats::median(&setup_s));
    report.e2e("cpu_ms_per_op", cpu * 1e3 / ops as f64);
    // Cases per second of process CPU time: with more rank threads than
    // cores, wall time measures the host's scheduler, not the program.
    report.e2e("throughput_ops_s", ops as f64 / cpu);
    report.cpu_ms_per_op = cpu * 1e3 / ops as f64;
    report.info("sweeps", J::Int(sweep));
    report.info("wall_s", J::Num(wall));
    report.latency_info(&all_cpu, 1.0);
    let fp = fault_plan(seed);
    report.info(
        "params",
        J::obj([
            ("machine", J::str(format!("smp_cluster2002({NODE_SIZE})"))),
            (
                "mc",
                J::str(format!(
                    "5-asset basket, {MC_PATHS} paths, block {MC_BLOCK}"
                )),
            ),
            (
                "lattice",
                J::str(format!("2-asset max-call, {LATTICE_STEPS} steps")),
            ),
            ("fd", J::str(format!("explicit {FD_POINTS}x{FD_STEPS}"))),
            (
                "lsmc",
                J::str(format!(
                    "2-asset min-put, {LSMC_PATHS} paths x {LSMC_STEPS} dates"
                )),
            ),
            (
                "lsmc_rec_faults",
                J::str(format!("crash {:?}, drops {}", fp.crashes, fp.drop_prob)),
            ),
            ("setup_reps", J::Int(SETUP_REPS as u64)),
        ]),
    );
    let per_case: Vec<J> = CASES
        .iter()
        .zip(&cpu_ms)
        .map(|(c, v)| {
            J::obj([
                ("case", J::str(c.id)),
                ("cpu_ms_median", J::Num(stats::median(v))),
            ])
        })
        .collect();
    report.info("case_cpu", J::Arr(per_case));

    if tracer.enabled() {
        let makespans: Vec<f64> = models.iter().flatten().map(|t| t.makespan * 1e3).collect();
        report.layer("cluster.model_makespan_ms", stats::geomean(&makespans));
        for ((c, model), cpu) in CASES.iter().zip(&models).zip(&cpu_ms) {
            let Some(t) = model else {
                return Err(format!("{}: no time model", c.id));
            };
            let id = c.id;
            report.layer(&format!("cluster.{id}.model_ms"), t.makespan * 1e3);
            report.layer(&format!("cluster.{id}.msgs"), t.total_msgs as f64);
            report.layer(&format!("cluster.{id}.bytes"), t.total_bytes as f64);
            if c.ranks > NODE_SIZE {
                report.layer(&format!("cluster.{id}.far_msgs"), t.total_far_msgs as f64);
            }
            if c.checkpoint_interval.is_some() {
                report.layer(&format!("cluster.{id}.ckpt_ms"), t.total_ckpt_time * 1e3);
            }
            let case_cpu = stats::median(cpu);
            report.layer(&format!("cluster.{id}.cpu_ms"), case_cpu);
            report.layer(
                &format!("cluster.{id}.host_overhead"),
                case_cpu / (stats::median(&base_cpu[c.problem]) * 1e3),
            );
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(fault_plan(5), fault_plan(5));
        let (a, b) = (problems(5).unwrap(), problems(5).unwrap());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.market.cache_key(), y.market.cache_key());
        }
        assert_ne!(
            problems(5).unwrap()[0].market.cache_key(),
            problems(6).unwrap()[0].market.cache_key()
        );
    }
}
