//! Pricing-as-a-service demo: fire a burst of independent strike
//! requests at a [`PricingService`] and watch the coalescer fuse them,
//! then repeat the burst to see the plan cache collapse plan time.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example serve_demo
//! ```

use mdp_core::prelude::*;
use mdp_serve::{PriceRequest, PricingService, ServeConfig};
use std::sync::Arc;
use std::time::Instant;

fn burst(service: &PricingService, market: &Arc<GbmMarket>, strikes: &[f64]) -> (f64, f64, usize) {
    let t0 = Instant::now();
    let tickets: Vec<_> = strikes
        .iter()
        .enumerate()
        .map(|(i, &strike)| {
            let product = Product::european(
                Payoff::BasketCall {
                    weights: vec![1.0],
                    strike,
                },
                1.0,
            );
            service
                .submit(PriceRequest::new(i as u64, Arc::clone(market), product))
                .expect("queue has room for the demo burst")
        })
        .collect();
    let mut max_latency = 0.0f64;
    let mut max_batch = 0usize;
    for t in tickets {
        let resp = t.wait().expect("service alive");
        resp.outcome.as_ref().expect("pricing succeeded");
        max_latency = max_latency.max(resp.latency_seconds());
        max_batch = max_batch.max(resp.batch_size);
    }
    (t0.elapsed().as_secs_f64(), max_latency, max_batch)
}

fn main() {
    let market = Arc::new(GbmMarket::single(100.0, 0.25, 0.01, 0.05).unwrap());
    let strikes: Vec<f64> = (0..64).map(|i| 70.0 + i as f64).collect();

    // Naive baseline: every request served alone, one plan build each.
    let naive = PricingService::start(
        Pricer::new(Method::Fd1d(Fd1d::default())),
        ServeConfig {
            max_batch: 1,
            plan_cache: 0,
            ..Default::default()
        },
    );
    let (naive_wall, naive_p_max, _) = burst(&naive, &market, &strikes);
    let naive_stats = naive.shutdown();

    // Coalescing service: same burst fuses into multi-RHS ladder groups.
    let service = PricingService::start(
        Pricer::new(Method::Fd1d(Fd1d::default())),
        ServeConfig::default(),
    );
    let (cold_wall, cold_p_max, cold_batch) = burst(&service, &market, &strikes);
    // Second identical burst rides the plan cache.
    let (warm_wall, warm_p_max, warm_batch) = burst(&service, &market, &strikes);
    let stats = service.shutdown();

    println!(
        "burst of {} strike requests, Fd1d default grid",
        strikes.len()
    );
    println!(
        "  naive per-request : wall {:>8.2} ms  max latency {:>8.2} ms  ({} plan builds)",
        naive_wall * 1e3,
        naive_p_max * 1e3,
        naive_stats.completed
    );
    println!(
        "  coalesced (cold)  : wall {:>8.2} ms  max latency {:>8.2} ms  max batch {}",
        cold_wall * 1e3,
        cold_p_max * 1e3,
        cold_batch
    );
    println!(
        "  coalesced (warm)  : wall {:>8.2} ms  max latency {:>8.2} ms  max batch {}",
        warm_wall * 1e3,
        warm_p_max * 1e3,
        warm_batch
    );
    println!(
        "  cache: {} hits / {} misses, mean plan {:>10.1} ns (hit) vs {:>10.1} ns (miss)",
        stats.cache.hits,
        stats.cache.misses,
        stats.mean_plan_seconds_hit() * 1e9,
        stats.mean_plan_seconds_miss() * 1e9
    );
    println!(
        "  fused {} of {} grouped requests across {} groups (mean batch {:.1})",
        stats.fused,
        stats.grouped_requests,
        stats.groups,
        stats.mean_batch()
    );
}
