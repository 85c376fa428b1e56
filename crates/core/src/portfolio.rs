//! Portfolio batch pricing: one plan, many executes, fused kernels.
//!
//! [`Portfolio::price_batch`] prices a book of products on one market,
//! grouping products by **plan key** — the maturity bits mixed with the
//! pricer's [`Method::cache_key`](crate::Method::cache_key) (the shared
//! market completes the key; see [`Portfolio::group_key`]) — so each
//! group pays the engine setup once. Two groups fuse deeper than plan
//! reuse:
//!
//! * **FD strike ladder** — a group of 1-D products on the same grid
//!   becomes lanes of one [`mdp_pde::Fd1dPlan::execute_ladder`] call:
//!   a single backward sweep whose multi-RHS transposed Thomas solves
//!   vectorise across the products.
//! * **Shared-path Monte Carlo** — terminal-payoff European products
//!   under one `(market, maturity, config)` plan are evaluated over
//!   **one path sweep** ([`mdp_mc::McPlan::execute_multi`]): every
//!   panel of paths is walked once and all payoffs read it.
//!
//! Both fusions are **bitwise-identical** per product to the one-shot
//! [`Pricer::price`] loop — the ladder's per-lane arithmetic equals the
//! scalar solve, and MC paths never depend on the payoff — so batching
//! is purely a performance decision. Sequential, rayon and cluster
//! backends are supported; the cluster backend prices per product
//! through the SPMD drivers (its setup lives inside each run).
//!
//! The group machinery is public so request-driven callers (the
//! `mdp-serve` coalescer) can compile a [`PricerPlan`] once — or fetch a
//! cached one by its bit-exact key — and route any same-key burst of
//! requests through [`Portfolio::execute_group`] with the identical
//! fused kernels.

use crate::pricer::{Backend, PlanKind, PriceError, PriceReport, Pricer, PricerPlan};
use mdp_model::{GbmMarket, Product};
use mdp_pde::Fd1dLadderScratch;
use rayon::prelude::*;
use std::time::Instant;

/// Products per rayon ladder chunk: wide enough that the panel solver
/// vectorises across lanes, narrow enough to split a 64-product ladder
/// over the pool.
const FD_LADDER_CHUNK: usize = 8;

/// The former name of a group's plan, kept for callers that still
/// spell it: a group plan is a [`PricerPlan`].
pub type GroupPlan = PricerPlan;

/// A book of products priced through one [`Pricer`] with plan reuse and
/// kernel fusion.
#[derive(Debug, Clone)]
pub struct Portfolio {
    pricer: Pricer,
}

/// Outcome of a batch run: per-product reports plus the amortized
/// stage timings.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One report per input product, in input order. Prices and
    /// standard errors are exactly what a one-shot [`Pricer::price`]
    /// would produce (bit for bit). Within a fused group each report
    /// carries the group's (shared) plan time and an equal share of the
    /// fused kernel's execute time.
    pub reports: Vec<PriceReport>,
    /// Total seconds spent building plans (once per group).
    pub plan_seconds: f64,
    /// Total seconds spent executing products.
    pub execute_seconds: f64,
    /// Total wall-clock seconds for the batch.
    pub wall_seconds: f64,
    /// Distinct plans built (one per maturity group on planful paths).
    pub plans_built: usize,
    /// Products priced through a fused multi-product kernel (FD ladder
    /// or shared-path MC sweep).
    pub fused: usize,
}

impl Portfolio {
    /// A portfolio pricer wrapping the given method/backend pair.
    pub fn new(pricer: Pricer) -> Self {
        Portfolio { pricer }
    }

    /// The wrapped pricer.
    pub fn pricer(&self) -> &Pricer {
        &self.pricer
    }

    /// The bit-exact grouping key of a product under this portfolio's
    /// pricer: the maturity bits mixed with
    /// [`Method::cache_key`](crate::Method::cache_key).
    ///
    /// Two products may share a [`PricerPlan`] **iff** their keys are
    /// equal and they price on the same market (callers that batch
    /// across markets — the serve-layer coalescer — must additionally
    /// mix in [`GbmMarket::cache_key`]). Within one
    /// [`Portfolio::price_batch`] call the method is a single value, so
    /// the method term is constant — it is included so keys from
    /// *different* portfolios (different engine configurations sharing
    /// a maturity) can never collide into one plan.
    pub fn group_key(&self, product: &Product) -> u64 {
        mdp_math::Fnv64::new()
            .eat_f64(product.maturity)
            .eat(self.pricer.method().cache_key())
            .finish()
    }

    /// Compile the payoff-independent plan shared by every product of a
    /// same-key group on `market` at horizon `maturity`: the pricer's
    /// own [`Pricer::plan`], except that the rayon backend also holds
    /// the FD plan its chunked strike ladders run over.
    ///
    /// The plan depends only on `(market, maturity, method, backend)` —
    /// never on the products — so it is safe to cache under the
    /// bit-exact key and reuse for any future same-key group.
    pub fn plan_group(&self, market: &GbmMarket, maturity: f64) -> Result<PricerPlan, PriceError> {
        self.pricer.compile(market, maturity, true)
    }

    /// Execute a same-maturity group of products over a prebuilt plan.
    ///
    /// Returns the per-product reports in input order plus how many
    /// products went through a fused multi-product kernel: an FD plan
    /// prices the group as one strike ladder, an MC plan every payoff
    /// its shared path sweep can take, and every other product runs
    /// [`PricerPlan::execute`]. The plan runs on the method and backend
    /// it was compiled for. Every report carries `plan_s` as its plan
    /// time (the caller measured the build — or the cache hit — around
    /// [`Portfolio::plan_group`]).
    ///
    /// Prices and standard errors are bitwise-identical to per-product
    /// [`Pricer::price`] calls (for FD on the rayon backend, to the
    /// sequential per-product loop — the one-shot facade has no rayon
    /// FD path). Fails on the first product any engine rejects, like
    /// the loop would.
    pub fn execute_group(
        &self,
        plan: &mut PricerPlan,
        products: &[Product],
        plan_s: f64,
    ) -> Result<(Vec<PriceReport>, usize), PriceError> {
        let parallel = plan.pricer.backend_ref() == Backend::Rayon;
        let engine = plan.pricer.method().name();
        let report = |price, std_error, execute_seconds| PriceReport {
            price,
            std_error,
            time: None,
            plan_seconds: plan_s,
            execute_seconds,
            wall_seconds: plan_s + execute_seconds,
            engine,
        };
        let mut slots: Vec<Option<PriceReport>> = vec![None; products.len()];
        let mut fused = 0usize;
        match &plan.kind {
            PlanKind::Fd1d(fd_plan, _) => {
                let t1 = Instant::now();
                let prices: Vec<f64> = if parallel && products.len() > 1 {
                    // Lanes are independent, so chunked ladders are
                    // bitwise-equal to one wide ladder.
                    let n_chunks = products.len().div_ceil(FD_LADDER_CHUNK);
                    let chunk_prices: Vec<Result<Vec<f64>, mdp_pde::PdeError>> = (0..n_chunks)
                        .into_par_iter()
                        .map(|c| {
                            let lo = c * FD_LADDER_CHUNK;
                            let hi = (lo + FD_LADDER_CHUNK).min(products.len());
                            let mut scratch = Fd1dLadderScratch::default();
                            fd_plan
                                .execute_ladder(&products[lo..hi], &mut scratch)
                                .map(|r| r.prices)
                        })
                        .collect();
                    let mut all = Vec::with_capacity(products.len());
                    for r in chunk_prices {
                        all.extend(r?);
                    }
                    all
                } else {
                    let mut scratch = Fd1dLadderScratch::default();
                    fd_plan.execute_ladder(products, &mut scratch)?.prices
                };
                let exec_share = t1.elapsed().as_secs_f64() / products.len() as f64;
                fused = products.len();
                for (slot, price) in slots.iter_mut().zip(prices) {
                    *slot = Some(report(price, None, exec_share));
                }
            }
            PlanKind::Mc(mc_plan) => {
                let fusable: Vec<usize> = (0..products.len())
                    .filter(|&i| mc_plan.check_fusable(&products[i]).is_ok())
                    .collect();
                if !fusable.is_empty() {
                    let book: Vec<Product> = fusable.iter().map(|&i| products[i].clone()).collect();
                    let t1 = Instant::now();
                    let results = mc_plan.execute_multi(&book, parallel)?;
                    let exec_share = t1.elapsed().as_secs_f64() / book.len() as f64;
                    fused = book.len();
                    for (&i, r) in fusable.iter().zip(results) {
                        slots[i] = Some(report(r.price, Some(r.std_error), exec_share));
                    }
                }
            }
            _ => {}
        }
        // Every other kind, and the MC payoffs the shared sweep cannot
        // take, price one product at a time.
        for (slot, product) in slots.iter_mut().zip(products) {
            if slot.is_none() {
                let mut rep = plan.execute(product)?;
                rep.plan_seconds = plan_s;
                rep.wall_seconds = plan_s + rep.execute_seconds;
                *slot = Some(rep);
            }
        }
        let reports = slots
            .into_iter()
            .map(|r| r.expect("every index filled"))
            .collect();
        Ok((reports, fused))
    }

    /// Price every product of the book on one market.
    ///
    /// Results are bitwise-identical to pricing each product with
    /// [`Pricer::price`] (for FD on the rayon backend, to the
    /// sequential per-product loop — the one-shot facade has no rayon
    /// FD path). Fails on the first product any engine rejects, like
    /// the loop would.
    pub fn price_batch(
        &self,
        market: &GbmMarket,
        products: &[Product],
    ) -> Result<BatchReport, PriceError> {
        let t_total = Instant::now();
        let mut reports: Vec<Option<PriceReport>> = vec![None; products.len()];
        // Group by plan key. Order within a group follows input order.
        let mut groups: Vec<(u64, Vec<usize>)> = Vec::new();
        for (i, p) in products.iter().enumerate() {
            let key = self.group_key(p);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => v.push(i),
                None => groups.push((key, vec![i])),
            }
        }

        let mut plan_seconds = 0.0;
        let mut plans_built = 0usize;
        let mut fused = 0usize;

        for (_, idxs) in &groups {
            let maturity = products[idxs[0]].maturity;
            let t0 = Instant::now();
            let mut plan = self.plan_group(market, maturity)?;
            let plan_s = t0.elapsed().as_secs_f64();
            plan_seconds += plan_s;
            plans_built += 1;
            let group: Vec<Product> = idxs.iter().map(|&i| products[i].clone()).collect();
            let (group_reports, group_fused) = self.execute_group(&mut plan, &group, plan_s)?;
            fused += group_fused;
            for (&i, rep) in idxs.iter().zip(group_reports) {
                reports[i] = Some(rep);
            }
        }

        let wall_seconds = t_total.elapsed().as_secs_f64();
        Ok(BatchReport {
            reports: reports
                .into_iter()
                .map(|r| r.expect("every index filled"))
                .collect(),
            plan_seconds,
            execute_seconds: wall_seconds - plan_seconds,
            wall_seconds,
            plans_built,
            fused,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pricer::Method;
    use mdp_mc::McConfig;
    use mdp_model::Payoff;
    use mdp_pde::Fd1d;

    fn ladder_book(n: usize) -> (GbmMarket, Vec<Product>) {
        let market = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
        let products = (0..n)
            .map(|i| {
                let strike = 70.0 + 60.0 * i as f64 / (n - 1) as f64;
                if i % 2 == 0 {
                    Product::european(
                        Payoff::BasketCall {
                            weights: vec![1.0],
                            strike,
                        },
                        1.0,
                    )
                } else {
                    Product::american(
                        Payoff::BasketPut {
                            weights: vec![1.0],
                            strike,
                        },
                        1.0,
                    )
                }
            })
            .collect();
        (market, products)
    }

    #[test]
    fn fd_batch_matches_per_product_loop_bitwise() {
        let (market, products) = ladder_book(9);
        let pricer = Pricer::new(Method::Fd1d(Fd1d::default()));
        let batch = Portfolio::new(pricer.clone())
            .price_batch(&market, &products)
            .unwrap();
        assert_eq!(batch.fused, 9);
        assert_eq!(batch.plans_built, 1);
        for (p, rep) in products.iter().zip(&batch.reports) {
            let solo = pricer.price(&market, p).unwrap();
            assert_eq!(rep.price.to_bits(), solo.price.to_bits());
            assert_eq!(rep.engine, "fd-1d");
        }
        // Rayon chunked ladders agree bit for bit.
        let par = Portfolio::new(pricer.backend(Backend::Rayon))
            .price_batch(&market, &products)
            .unwrap();
        for (a, b) in batch.reports.iter().zip(&par.reports) {
            assert_eq!(a.price.to_bits(), b.price.to_bits());
        }
    }

    #[test]
    fn mc_batch_matches_per_product_loop_bitwise() {
        let market = GbmMarket::symmetric(3, 100.0, 0.25, 0.0, 0.04, 0.35).unwrap();
        let cfg = McConfig {
            paths: 20_000,
            steps: 16,
            block_size: 500,
            ..Default::default()
        };
        let products = vec![
            Product::european(Payoff::MaxCall { strike: 95.0 }, 2.0),
            Product::european(Payoff::MinPut { strike: 105.0 }, 2.0),
            Product::european(
                Payoff::BasketCall {
                    weights: Product::equal_weights(3),
                    strike: 100.0,
                },
                2.0,
            ),
            // A second maturity group.
            Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0),
        ];
        for backend in [Backend::Sequential, Backend::Rayon] {
            let pricer = Pricer::new(Method::MonteCarlo(cfg)).backend(backend);
            let batch = Portfolio::new(pricer.clone())
                .price_batch(&market, &products)
                .unwrap();
            assert_eq!(batch.fused, 4);
            assert_eq!(batch.plans_built, 2);
            for (p, rep) in products.iter().zip(&batch.reports) {
                let solo = pricer.price(&market, p).unwrap();
                assert_eq!(rep.price.to_bits(), solo.price.to_bits());
                assert_eq!(
                    rep.std_error.unwrap().to_bits(),
                    solo.std_error.unwrap().to_bits()
                );
            }
        }
    }

    #[test]
    fn mixed_books_fall_back_per_product() {
        // Asian payoffs are not fusable: they ride the per-product path
        // inside the same plan, still bitwise-equal to one-shots.
        let market = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
        let cfg = McConfig {
            paths: 8_000,
            steps: 12,
            ..Default::default()
        };
        let products = vec![
            Product::european(
                Payoff::BasketCall {
                    weights: vec![1.0],
                    strike: 100.0,
                },
                1.0,
            ),
            Product::european(Payoff::AsianCall { strike: 100.0 }, 1.0),
        ];
        let pricer = Pricer::new(Method::MonteCarlo(cfg));
        let batch = Portfolio::new(pricer.clone())
            .price_batch(&market, &products)
            .unwrap();
        assert_eq!(batch.fused, 1);
        for (p, rep) in products.iter().zip(&batch.reports) {
            let solo = pricer.price(&market, p).unwrap();
            assert_eq!(rep.price.to_bits(), solo.price.to_bits());
        }
    }

    #[test]
    fn cluster_batch_prices_per_product() {
        use mdp_cluster::Machine;
        let market = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
        let products = vec![
            Product::european(
                Payoff::BasketCall {
                    weights: vec![1.0],
                    strike: 95.0,
                },
                1.0,
            ),
            Product::european(
                Payoff::BasketCall {
                    weights: vec![1.0],
                    strike: 105.0,
                },
                1.0,
            ),
        ];
        let pricer = Pricer::new(Method::monte_carlo(10_000))
            .backend(Backend::cluster(3, Machine::cluster2002()));
        let batch = Portfolio::new(pricer.clone())
            .price_batch(&market, &products)
            .unwrap();
        assert_eq!(batch.fused, 0);
        for (p, rep) in products.iter().zip(&batch.reports) {
            let solo = pricer.price(&market, p).unwrap();
            assert_eq!(rep.price.to_bits(), solo.price.to_bits());
            assert!(rep.time.is_some());
        }
    }

    #[test]
    fn group_key_separates_configs_sharing_a_maturity() {
        // Regression for the grouping key: two engine configurations on
        // the same maturity must never land in one group. The key mixes
        // Method::cache_key, so portfolios with different configs (or
        // different engines) produce disjoint keys for the same product.
        let p = Product::european(
            Payoff::BasketCall {
                weights: vec![1.0],
                strike: 100.0,
            },
            1.0,
        );
        let coarse = Portfolio::new(Pricer::new(Method::Fd1d(Fd1d {
            space_points: 201,
            ..Fd1d::default()
        })));
        let fine = Portfolio::new(Pricer::new(Method::Fd1d(Fd1d::default())));
        let mc = Portfolio::new(Pricer::new(Method::monte_carlo(10_000)));
        assert_ne!(coarse.group_key(&p), fine.group_key(&p));
        assert_ne!(fine.group_key(&p), mc.group_key(&p));
        // Same config, same maturity: same key.
        let fine2 = Portfolio::new(Pricer::new(Method::Fd1d(Fd1d::default())));
        assert_eq!(fine.group_key(&p), fine2.group_key(&p));
        // Each batch still prices with its own configuration, matching
        // its own one-shot loop bitwise.
        let market = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
        let book = vec![p.clone()];
        for pf in [&coarse, &fine] {
            let batch = pf.price_batch(&market, &book).unwrap();
            let solo = pf.pricer().price(&market, &p).unwrap();
            assert_eq!(batch.reports[0].price.to_bits(), solo.price.to_bits());
        }
        let a = coarse.price_batch(&market, &book).unwrap().reports[0].price;
        let b = fine.price_batch(&market, &book).unwrap().reports[0].price;
        assert_ne!(
            a.to_bits(),
            b.to_bits(),
            "configs must stay distinguishable"
        );
    }

    #[test]
    fn cached_group_plan_clone_executes_bitwise_identically() {
        // The serve-layer plan cache hands out clones: a cloned plan
        // must execute bit-identically to the original.
        let (market, products) = ladder_book(5);
        let portfolio = Portfolio::new(Pricer::new(Method::Fd1d(Fd1d::default())));
        let mut plan = portfolio.plan_group(&market, 1.0).unwrap();
        let mut cloned = plan.clone();
        let (a, _) = portfolio.execute_group(&mut plan, &products, 0.0).unwrap();
        let (b, _) = portfolio
            .execute_group(&mut cloned, &products, 0.0)
            .unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.price.to_bits(), y.price.to_bits());
        }
    }
}
