//! Message-passing Monte Carlo drivers with virtual-time accounting.
//!
//! **European** ([`price_mc_cluster`]): rank `r` simulates its block range
//! of the fixed block-substream partition, charges the machine model for
//! the path work, and the ranks gather their block-id-tagged
//! accumulators to one root that folds them in global block order. The
//! price equals the sequential engine's bit for bit; the virtual time
//! gives experiments T3/F3 their near-ideal speedup curves (a single
//! gather at the end of an arbitrarily large compute phase).
//!
//! **LSMC** ([`price_lsmc_cluster`]): each rank owns a share of the path
//! panel; every exercise date requires a global fold of the per-block
//! normal-equation sums (`k² + k + 1` doubles each) before any rank can
//! make its exercise decisions. That per-step synchronisation is the
//! serial fraction that separates the LSMC speedup curve from the
//! European one (experiment T7).
//!
//! Both drivers run one SPMD body under a [`Supervisor`], which writes
//! checkpoints when the run has an interval and recovers from the
//! crashes a [`FaultPlan`] injects. Every cross-rank reduction folds
//! per-block partial results in global block order, so the price does
//! not depend on which rank owns which block — before or after a
//! recovery.

use crate::engine::{McConfig, McEngine, McResult};
use crate::lsmc::{self, LsmcConfig, LsmcResult, RegressionSums};
use crate::variance::{merge_in_chunks, BlockAccum, ACCUM_WIDTH};
use crate::McError;
use mdp_cluster::{
    check_policy, partition, run_spmd_ft, CheckpointMode, CheckpointStore, FaultPlan, Machine,
    Supervisor, TimeModel,
};
use mdp_model::{GbmMarket, Product};

/// Checkpoint boundaries of the European driver: each rank cuts its
/// block range into this many batches, with a boundary before each.
pub const BATCHES: usize = 16;

/// The `width`-double entries of gathered `parts`, each led by its
/// block id, sorted into global block order.
fn by_block(parts: &[Vec<f64>], width: usize) -> Vec<&[f64]> {
    let mut entries: Vec<&[f64]> = parts.iter().flat_map(|p| p.chunks_exact(width)).collect();
    entries.sort_by_key(|e| e[0] as u64);
    entries
}

/// Outcome of a distributed European Monte Carlo run.
#[derive(Debug, Clone)]
pub struct McClusterOutcome {
    /// The estimate (identical to the sequential engine's).
    pub result: McResult,
    /// Virtual-time model of the run, crashed ranks' time included.
    pub time: TimeModel,
    /// Injected crashes that fired, as `(rank, boundary)` pairs.
    pub crashed: Vec<(usize, usize)>,
}

/// Price a European product on `p` ranks under `machine` and the fault
/// schedule `plan`, checkpointing every `ckpt_interval` batch
/// boundaries (`None`: never).
///
/// Rank `r` owns block range `r` of the global block partition and
/// simulates it in [`BATCHES`] batches. A checkpoint persists this
/// rank's completed accumulators *tagged with their block ids* (7
/// doubles per block). After a crash the survivors share the
/// checkpointed accumulators and re-spread the blocks missing from the
/// checkpoint evenly over themselves; block substreams make each
/// block's accumulator owner-independent, and the root folds them in
/// global block order, so the estimate is bit-identical to the
/// sequential engine through any number of recoveries. A plan that
/// crashes ranks needs a checkpoint interval (a typed error otherwise).
pub fn price_mc_cluster(
    market: &GbmMarket,
    product: &Product,
    cfg: McConfig,
    p: usize,
    machine: Machine,
    plan: FaultPlan,
    ckpt_interval: Option<usize>,
) -> Result<McClusterOutcome, McError> {
    product.validate_for(market)?;
    let mc_plan = McEngine::new(cfg).plan(market, product.maturity)?;
    let ctx = mc_plan.context(product)?;
    check_policy(&plan, ckpt_interval).map_err(McError::Unsupported)?;
    let work_per_path = cfg.path_work_units(market.dim());
    let store = CheckpointStore::new();
    let entry = 1 + ACCUM_WIDTH;

    let outcome = run_spmd_ft(p, machine, plan, async |comm| {
        let blocks = ctx.num_blocks() as usize;
        let rank = comm.rank();
        let mut sup = Supervisor::new(comm, ckpt_interval, &store);
        // This era's blocks, simulated over batches `first..BATCHES`.
        let (lo, hi) = partition::block_range(blocks, comm.size(), rank);
        let mut todo: Vec<u64> = (lo as u64..hi as u64).collect();
        let mut first = 0usize;
        // Completed blocks as (id, accum) pairs: [id, a0..a5] each.
        let mut local: Vec<f64> = Vec::new();

        let mut t = 0usize; // completed batches == boundary index
        while t < BATCHES {
            if let Some(rec) = sup.boundary(comm, t, || (0, local.clone())).await {
                // Roll back: share the pooled completed pairs (the
                // victim's included) evenly over the survivors, and
                // re-spread the blocks the checkpoint lacks.
                let t0 = rec.from_step.expect("boundary 0 always checkpoints");
                let pool: Vec<Vec<f64>> = rec.records.into_iter().map(|(_, r)| r.data).collect();
                let done = by_block(&pool, entry);
                let a = sup.active().len();
                let i = sup.dense_index(rank);
                let (dlo, dhi) = partition::block_range(done.len(), a, i);
                local = done[dlo..dhi].concat();
                let mut done_ids = done.iter().map(|e| e[0] as u64).peekable();
                let missing: Vec<u64> = (0..blocks as u64)
                    .filter(|&b| done_ids.next_if_eq(&b).is_none())
                    .collect();
                let (mlo, mhi) = partition::block_range(missing.len(), a, i);
                todo = missing[mlo..mhi].to_vec();
                first = t0;
                t = t0;
                continue; // re-enter boundary t0: fresh-era checkpoint
            }
            let (blo, bhi) = partition::block_range(todo.len(), BATCHES - first, t - first);
            let mut paths = 0u64;
            for &b in &todo[blo..bhi] {
                local.push(b as f64);
                local.extend_from_slice(&ctx.simulate_block_batched(b).to_vec());
                paths += ctx.config().block_paths(b);
            }
            comm.compute_units(paths as f64 * work_per_path);
            t += 1;
        }

        // Gather every (id, accum) pair to the first active rank, fold
        // in global block order with the engine's canonical chunked
        // association (bit-identical to the sequential engine), and
        // broadcast the total.
        let root = sup.active()[0];
        let mut merged = [0.0; ACCUM_WIDTH];
        if let Some(parts) = sup.gather_varied(comm, root, &local).await {
            let entries = by_block(&parts, entry);
            debug_assert_eq!(entries.len(), blocks, "every block exactly once");
            merged =
                merge_in_chunks(entries.iter().map(|e| BlockAccum::from_slice(&e[1..]))).to_vec();
        }
        sup.broadcast(comm, root, &mut merged).await;
        BlockAccum::from_slice(&merged)
    })
    .map_err(|e| McError::Unsupported(e.to_string()))?;

    Ok(McClusterOutcome {
        result: ctx.finish(&outcome.survivors[0].value),
        time: outcome.time_model(),
        crashed: outcome.crash_sites(),
    })
}

/// Outcome of a distributed LSMC run.
#[derive(Debug, Clone)]
pub struct LsmcClusterOutcome {
    /// The estimate.
    pub result: LsmcResult,
    /// Virtual-time model of the run, crashed ranks' time included.
    pub time: TimeModel,
    /// Injected crashes that fired, as `(rank, boundary)` pairs.
    pub crashed: Vec<(usize, usize)>,
}

/// Price an American product with distributed LSMC on `p` ranks under
/// the fault schedule `plan`.
///
/// The backward sweep runs one exercise date per
/// [`Supervisor::boundary`], checkpointing every rank's per-block
/// `(cashflow, cf_time)` state each `ckpt_interval` dates (`None`:
/// never) in the given [`CheckpointMode`]. On a crash, survivors
/// restore the sweep state of every block from the pooled era-keyed
/// records, repartition the substream blocks over the shrunken active
/// set, re-simulate their newly owned path panels (deterministic block
/// substreams) and replay from the last checkpoint.
///
/// Every cross-rank reduction runs over **per-block** partial results
/// folded in global block order at the first active rank: the per-date
/// normal-equation sums and the final `[n, Σ, Σ²]` statistics. The
/// price is therefore independent of the rank count and bit-identical
/// through any recovery; it differs from the sequential engine's
/// path-order accumulation only in the last ulps of the fitted betas.
///
/// Work accounting: path simulation and the per-date regression scans
/// are charged per local path; the per-date fold is costed by the
/// machine model through the collectives' real message structure.
#[allow(clippy::too_many_arguments)]
pub fn price_lsmc_cluster(
    market: &GbmMarket,
    product: &Product,
    cfg: LsmcConfig,
    p: usize,
    machine: Machine,
    plan: FaultPlan,
    ckpt_interval: Option<usize>,
    mode: CheckpointMode,
) -> Result<LsmcClusterOutcome, McError> {
    lsmc::validate(market, product, &cfg)?;
    check_policy(&plan, ckpt_interval).map_err(McError::Unsupported)?;
    let d = market.dim();
    let k = mdp_math::poly::TensorBasis::new(d, cfg.degree, cfg.basis).size();
    let sums_width = k * k + k + 1;
    // Work units: simulation ~ steps·(d²/2 + 8d + 6); each date's scan is
    // ~ d + k² per path (basis eval + rank-1 update), twice (sum + apply).
    let sim_work = cfg.steps as f64 * ((d * d) as f64 / 2.0 + 8.0 * d as f64 + 6.0);
    let date_work = 2.0 * (d as f64 + (k * k) as f64);
    let store = CheckpointStore::new();
    // Every rank, recovery included, seeds its blocks from this table.
    let streams = lsmc::block_streams(&cfg);

    let outcome = run_spmd_ft(p, machine, plan, async |comm| {
        let blocks = lsmc::num_blocks(&cfg) as usize;
        let rank = comm.rank();
        let mut sup = Supervisor::new_with_mode(comm, ckpt_interval, &store, mode);
        let mut kernel = lsmc::SweepKernel::new(market, product, &cfg);

        // Initial partition: contiguous block range over the full set.
        let (lo0, hi0) = partition::block_range(blocks, comm.size(), rank);
        let (mut blo, mut bhi) = (lo0 as u64, hi0 as u64);
        let mut panel = lsmc::simulate_panel(market, product, &cfg, &streams, blo..bhi);
        comm.compute_units(panel.paths as f64 * sim_work);
        let (mut cashflow, mut cf_time) = kernel.terminal(&mut panel);

        let mut j = 0usize; // processed dates == boundary index
        while j < cfg.steps - 1 {
            if let Some(rec) = sup
                .boundary(comm, j, || {
                    (
                        blo as usize,
                        encode_sweep_state(&cfg, blo, bhi, &cashflow, &cf_time),
                    )
                })
                .await
            {
                // Roll back: restore every block's sweep state from the
                // pooled records, repartition over the survivors and
                // re-simulate the newly owned panels.
                let j0 = rec.from_step.expect("boundary 0 always checkpoints");
                let mut pool: std::collections::HashMap<u64, (Vec<f64>, Vec<u32>)> =
                    std::collections::HashMap::new();
                for (_, r) in &rec.records {
                    decode_sweep_state(&r.data, &mut pool);
                }
                let (nlo, nhi) =
                    partition::block_range(blocks, sup.active().len(), sup.dense_index(rank));
                (blo, bhi) = (nlo as u64, nhi as u64);
                panel = lsmc::simulate_panel(market, product, &cfg, &streams, blo..bhi);
                comm.compute_units(panel.paths as f64 * sim_work);
                cashflow.clear();
                cf_time.clear();
                for b in blo..bhi {
                    let (cf, ct) = pool.get(&b).expect("pool covers every block");
                    cashflow.extend_from_slice(cf);
                    cf_time.extend_from_slice(ct);
                }
                j = j0;
                continue; // re-enter boundary j0: fresh-era checkpoint
            }

            let t = cfg.steps - 1 - j; // exercise date, steps−1 .. 1

            // The scan is all the sweep reads of this date's spot layer,
            // so it takes the layer; a rollback re-simulates the whole
            // owned panel.
            kernel.scan(std::mem::take(&mut panel.spots[t - 1]));
            // Per-block normal-equation sums (block-local path order is
            // fixed, so each block's sums are owner-independent).
            let mut payload: Vec<f64> = Vec::new();
            let mut off = 0usize;
            for b in blo..bhi {
                let nb = lsmc::block_paths(&cfg, b) as usize;
                let mut sums = RegressionSums::new(k);
                kernel.regression_sums(t, &cashflow, &cf_time, off..off + nb, &mut sums);
                payload.push(b as f64);
                payload.extend(sums.to_vec());
                off += nb;
            }
            comm.compute_units(panel.paths as f64 * date_work);

            // Fold the per-block sums in global block order at the
            // first active rank — a partition-independent association.
            let root = sup.active()[0];
            let mut merged = vec![0.0; sums_width];
            if let Some(parts) = sup.gather_varied(comm, root, &payload).await {
                let entries = by_block(&parts, 1 + sums_width);
                debug_assert_eq!(entries.len(), blocks, "every block exactly once");
                for e in &entries {
                    for (m, v) in merged.iter_mut().zip(&e[1..]) {
                        *m += v;
                    }
                }
            }
            sup.broadcast(comm, root, &mut merged).await;

            if let Some(beta) = RegressionSums::from_slice(k, &merged).solve(cfg.ridge) {
                kernel.exercise(t, &beta, &mut cashflow, &mut cf_time);
            }
            j += 1;
        }
        sup.flush(comm);

        // Final per-block [count, Σ, Σ²] over time-0 discounted
        // cashflows, folded in block order — partition-independent.
        let discounted = kernel.discounted(&cashflow, &cf_time);
        let mut payload: Vec<f64> = Vec::new();
        let mut off = 0usize;
        for b in blo..bhi {
            let nb = lsmc::block_paths(&cfg, b) as usize;
            let slice = &discounted[off..off + nb];
            payload.push(b as f64);
            payload.push(nb as f64);
            payload.push(slice.iter().sum());
            payload.push(slice.iter().map(|c| c * c).sum());
            off += nb;
        }
        let root = sup.active()[0];
        let mut stats = [0.0; 3];
        if let Some(parts) = sup.gather_varied(comm, root, &payload).await {
            for e in by_block(&parts, 4) {
                stats[0] += e[1];
                stats[1] += e[2];
                stats[2] += e[3];
            }
        }
        sup.broadcast(comm, root, &mut stats).await;
        stats
    })
    .map_err(|e| McError::Unsupported(e.to_string()))?;

    let [n, sum, sum_sq] = outcome.survivors[0].value;
    let mean = sum / n;
    let var = (sum_sq - n * mean * mean) / (n - 1.0);
    let result = lsmc::finish(mean, var.max(0.0), n, product, market);
    Ok(LsmcClusterOutcome {
        result,
        time: outcome.time_model(),
        crashed: outcome.crash_sites(),
    })
}

/// Flatten per-block `(id, paths, cashflow, cf_time)` sweep state for a
/// checkpoint record.
fn encode_sweep_state(
    cfg: &LsmcConfig,
    blo: u64,
    bhi: u64,
    cashflow: &[f64],
    cf_time: &[u32],
) -> Vec<f64> {
    let mut out = Vec::with_capacity(2 * cashflow.len() + 2 * (bhi - blo) as usize);
    let mut off = 0usize;
    for b in blo..bhi {
        let nb = lsmc::block_paths(cfg, b) as usize;
        out.push(b as f64);
        out.push(nb as f64);
        out.extend_from_slice(&cashflow[off..off + nb]);
        out.extend(cf_time[off..off + nb].iter().map(|&t| t as f64));
        off += nb;
    }
    out
}

/// Inverse of [`encode_sweep_state`], merging into a per-block pool.
fn decode_sweep_state(
    data: &[f64],
    pool: &mut std::collections::HashMap<u64, (Vec<f64>, Vec<u32>)>,
) {
    let mut i = 0usize;
    while i < data.len() {
        let b = data[i] as u64;
        let nb = data[i + 1] as usize;
        i += 2;
        let cf = data[i..i + nb].to_vec();
        i += nb;
        let ct = data[i..i + nb].iter().map(|&t| t as u32).collect();
        i += nb;
        pool.insert(b, (cf, ct));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{McEngine, VarianceReduction};
    use mdp_model::Payoff;

    fn basket3() -> (GbmMarket, Product) {
        (
            GbmMarket::symmetric(3, 100.0, 0.25, 0.0, 0.05, 0.4).unwrap(),
            Product::european(
                Payoff::BasketCall {
                    weights: Product::equal_weights(3),
                    strike: 100.0,
                },
                1.0,
            ),
        )
    }

    /// A European run without faults or checkpoints.
    fn mc(
        m: &GbmMarket,
        p: &Product,
        cfg: McConfig,
        ranks: usize,
        machine: Machine,
    ) -> McClusterOutcome {
        price_mc_cluster(m, p, cfg, ranks, machine, FaultPlan::new(0), None).unwrap()
    }

    /// An LSMC run without faults or checkpoints.
    fn lsmc_run(
        m: &GbmMarket,
        p: &Product,
        cfg: LsmcConfig,
        ranks: usize,
        machine: Machine,
    ) -> LsmcClusterOutcome {
        let sync = CheckpointMode::Sync;
        price_lsmc_cluster(m, p, cfg, ranks, machine, FaultPlan::new(0), None, sync).unwrap()
    }

    #[test]
    fn cluster_price_equals_sequential_bitwise() {
        let (m, p) = basket3();
        let cfg = McConfig {
            paths: 20_000,
            block_size: 1000,
            ..Default::default()
        };
        let seq = McEngine::new(cfg).price(&m, &p).unwrap();
        for ranks in [1usize, 2, 4, 5] {
            let par = mc(&m, &p, cfg, ranks, Machine::ideal());
            assert_eq!(
                par.result.price.to_bits(),
                seq.price.to_bits(),
                "ranks={ranks}"
            );
            assert_eq!(par.result.paths, seq.paths);
        }
    }

    #[test]
    fn cluster_price_invariant_across_rank_counts() {
        let (m, p) = basket3();
        let cfg = McConfig {
            paths: 10_000,
            block_size: 500,
            variance_reduction: VarianceReduction::Antithetic,
            ..Default::default()
        };
        let a = mc(&m, &p, cfg, 2, Machine::cluster2002());
        let b = mc(&m, &p, cfg, 7, Machine::cluster2002());
        assert_eq!(a.result.price.to_bits(), b.result.price.to_bits());
    }

    #[test]
    fn mc_speedup_is_near_ideal_for_large_runs() {
        let (m, p) = basket3();
        let cfg = McConfig {
            paths: 64_000,
            block_size: 1000,
            ..Default::default()
        };
        let t1 = mc(&m, &p, cfg, 1, Machine::cluster2002()).time.makespan;
        let t8 = mc(&m, &p, cfg, 8, Machine::cluster2002()).time.makespan;
        let s8 = t1 / t8;
        assert!(s8 > 7.0, "MC should scale near-ideally: {s8}");
        assert!(s8 <= 8.0 + 1e-9);
    }

    #[test]
    fn small_runs_scale_worse_than_large_runs() {
        let (m, p) = basket3();
        let small = McConfig {
            paths: 512,
            block_size: 16,
            ..Default::default()
        };
        let large = McConfig {
            paths: 64_000,
            block_size: 1000,
            ..Default::default()
        };
        let sp = |cfg: McConfig| {
            let t1 = mc(&m, &p, cfg, 1, Machine::cluster2002()).time.makespan;
            let t8 = mc(&m, &p, cfg, 8, Machine::cluster2002()).time.makespan;
            t1 / t8
        };
        let s_small = sp(small);
        let s_large = sp(large);
        assert!(
            s_small < s_large,
            "small {s_small} should trail large {s_large}"
        );
    }

    #[test]
    fn lsmc_cluster_matches_sequential_within_tolerance() {
        let m = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
        let p = Product::american(
            Payoff::BasketPut {
                weights: vec![1.0],
                strike: 110.0,
            },
            1.0,
        );
        let cfg = LsmcConfig {
            paths: 8_000,
            steps: 10,
            block_size: 500,
            ..Default::default()
        };
        let seq = lsmc::price_lsmc(&m, &p, cfg).unwrap();
        let par = lsmc_run(&m, &p, cfg, 4, Machine::ideal());
        // Same panel, same regression math; only the per-block fold of
        // the regression sums differs from the sequential path order.
        assert!(
            (par.result.price - seq.price).abs() < 1e-6,
            "{} vs {}",
            par.result.price,
            seq.price
        );
        assert_eq!(par.result.paths, seq.paths);
    }

    #[test]
    fn lsmc_scales_worse_than_european_mc() {
        // The per-date regression fold is LSMC's serial fraction.
        let m = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
        let am = Product::american(
            Payoff::BasketPut {
                weights: vec![1.0],
                strike: 110.0,
            },
            1.0,
        );
        let eu = Product::european(
            Payoff::BasketPut {
                weights: vec![1.0],
                strike: 110.0,
            },
            1.0,
        );
        let lsmc_cfg = LsmcConfig {
            paths: 4_000,
            steps: 25,
            block_size: 125,
            ..Default::default()
        };
        // Same paths and the same 25-step simulation work, so the only
        // structural difference is LSMC's per-date regression fold.
        let mc_cfg = McConfig {
            paths: 4_000,
            steps: 25,
            block_size: 125,
            ..Default::default()
        };
        let s_lsmc = {
            let t1 = lsmc_run(&m, &am, lsmc_cfg, 1, Machine::cluster2002())
                .time
                .makespan;
            let t8 = lsmc_run(&m, &am, lsmc_cfg, 8, Machine::cluster2002())
                .time
                .makespan;
            t1 / t8
        };
        let s_mc = {
            let t1 = mc(&m, &eu, mc_cfg, 1, Machine::cluster2002()).time.makespan;
            let t8 = mc(&m, &eu, mc_cfg, 8, Machine::cluster2002()).time.makespan;
            t1 / t8
        };
        assert!(
            s_lsmc < s_mc,
            "lsmc speedup {s_lsmc} should trail european {s_mc}"
        );
    }

    #[test]
    fn ft_without_faults_matches_sequential_bitwise() {
        let (m, p) = basket3();
        let cfg = McConfig {
            paths: 8_000,
            block_size: 500,
            ..Default::default()
        };
        let seq = McEngine::new(cfg).price(&m, &p).unwrap();
        let plan = FaultPlan::new(5);
        let ft = price_mc_cluster(&m, &p, cfg, 4, Machine::cluster2002(), plan, Some(2)).unwrap();
        assert_eq!(ft.result.price.to_bits(), seq.price.to_bits());
        assert_eq!(ft.result.paths, seq.paths);
        assert!(ft.crashed.is_empty());
        assert!(ft.time.total_ckpt_time > 0.0);
    }

    #[test]
    fn ft_recovers_bit_identically_from_mid_run_crashes() {
        let (m, p) = basket3();
        let cfg = McConfig {
            paths: 8_000,
            block_size: 500,
            ..Default::default()
        };
        let seq = McEngine::new(cfg).price(&m, &p).unwrap();
        for crash_at in [1usize, 4, 7] {
            let plan = FaultPlan::new(11).with_crash(2, crash_at);
            let ft =
                price_mc_cluster(&m, &p, cfg, 4, Machine::cluster2002(), plan, Some(2)).unwrap();
            assert_eq!(
                ft.result.price.to_bits(),
                seq.price.to_bits(),
                "crash at batch boundary {crash_at}"
            );
            assert_eq!(ft.result.paths, seq.paths);
            assert_eq!(ft.crashed, vec![(2, crash_at)]);
        }
    }

    #[test]
    fn ft_survives_down_to_a_single_rank() {
        let (m, p) = basket3();
        let cfg = McConfig {
            paths: 4_000,
            block_size: 250,
            ..Default::default()
        };
        let seq = McEngine::new(cfg).price(&m, &p).unwrap();
        let plan = FaultPlan::new(1)
            .with_crash(0, 2)
            .with_crash(1, 4)
            .with_crash(2, 4);
        let ft = price_mc_cluster(&m, &p, cfg, 4, Machine::cluster2002(), plan, Some(1)).unwrap();
        assert_eq!(ft.result.price.to_bits(), seq.price.to_bits());
        assert_eq!(ft.crashed.len(), 3);
    }

    fn lsmc_ft_case() -> (GbmMarket, Product, LsmcConfig) {
        let m = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
        let p = Product::american(
            Payoff::BasketPut {
                weights: vec![1.0],
                strike: 110.0,
            },
            1.0,
        );
        let cfg = LsmcConfig {
            paths: 4_000,
            steps: 10,
            block_size: 250,
            ..Default::default()
        };
        (m, p, cfg)
    }

    #[test]
    fn lsmc_ft_matches_sequential_within_tolerance() {
        let (m, p, cfg) = lsmc_ft_case();
        let seq = lsmc::price_lsmc(&m, &p, cfg).unwrap();
        let ft = price_lsmc_cluster(
            &m,
            &p,
            cfg,
            4,
            Machine::cluster2002(),
            FaultPlan::new(5),
            Some(4),
            CheckpointMode::Sync,
        )
        .unwrap();
        // Per-block regression sums fold in a different order than the
        // sequential path-order accumulation, so this is tolerance, not
        // bitwise (the fitted betas differ in the last ulps).
        assert!(
            (ft.result.price - seq.price).abs() < 1e-6,
            "{} vs {}",
            ft.result.price,
            seq.price
        );
        assert_eq!(ft.result.paths, seq.paths);
        assert!(ft.crashed.is_empty());
        assert!(ft.time.total_ckpt_time > 0.0);
    }

    #[test]
    fn lsmc_ft_recovers_bit_identically_from_mid_sweep_crashes() {
        let (m, p, cfg) = lsmc_ft_case();
        for mode in [CheckpointMode::Sync, CheckpointMode::AsyncIncremental] {
            let clean = price_lsmc_cluster(
                &m,
                &p,
                cfg,
                4,
                Machine::cluster2002(),
                FaultPlan::new(7),
                Some(3),
                mode,
            )
            .unwrap();
            assert!(clean.crashed.is_empty());
            for crash_at in [1usize, 4, 8] {
                let plan = FaultPlan::new(13).with_crash(2, crash_at);
                let ft =
                    price_lsmc_cluster(&m, &p, cfg, 4, Machine::cluster2002(), plan, Some(3), mode)
                        .unwrap();
                assert_eq!(
                    ft.result.price.to_bits(),
                    clean.result.price.to_bits(),
                    "crash at date boundary {crash_at} ({mode:?})"
                );
                assert_eq!(ft.result.paths, clean.result.paths);
                assert_eq!(ft.crashed, vec![(2, crash_at)]);
            }
        }
    }

    #[test]
    fn lsmc_ft_async_checkpoints_cost_less_than_sync() {
        let (m, p, cfg) = lsmc_ft_case();
        let run = |mode| {
            price_lsmc_cluster(
                &m,
                &p,
                cfg,
                4,
                Machine::cluster2002(),
                FaultPlan::new(3),
                Some(2),
                mode,
            )
            .unwrap()
        };
        let sync = run(CheckpointMode::Sync);
        let async_inc = run(CheckpointMode::AsyncIncremental);
        // Same estimate either way — the mode moves cost, never data.
        assert_eq!(
            sync.result.price.to_bits(),
            async_inc.result.price.to_bits()
        );
        assert!(
            async_inc.time.total_ckpt_time < sync.time.total_ckpt_time,
            "async {} should undercut sync {}",
            async_inc.time.total_ckpt_time,
            sync.time.total_ckpt_time
        );
    }

    #[test]
    fn lsmc_ft_rejects_european_products() {
        let (m, _, cfg) = lsmc_ft_case();
        let eu = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
        assert!(price_lsmc_cluster(
            &m,
            &eu,
            cfg,
            2,
            Machine::ideal(),
            FaultPlan::new(1),
            Some(2),
            CheckpointMode::Sync
        )
        .is_err());
    }

    #[test]
    fn accum_width_matches() {
        // The gathered payload and the accumulator must stay in sync.
        assert_eq!(BlockAccum::new().to_vec().len(), ACCUM_WIDTH);
    }

    #[test]
    fn errors_propagate() {
        let (m, _) = basket3();
        let am = Product::american(Payoff::MaxCall { strike: 100.0 }, 1.0);
        assert!(price_mc_cluster(
            &m,
            &am,
            McConfig::default(),
            2,
            Machine::ideal(),
            FaultPlan::new(0),
            None
        )
        .is_err());
        let eu = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
        assert!(price_lsmc_cluster(
            &m,
            &eu,
            LsmcConfig::default(),
            2,
            Machine::ideal(),
            FaultPlan::new(0),
            None,
            CheckpointMode::Sync
        )
        .is_err());
    }
}
