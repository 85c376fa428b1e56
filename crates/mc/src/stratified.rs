//! Stratified sampling on the dominant Gaussian factor.
//!
//! The first normal draw (asset 1's first-step shock — the factor every
//! asset loads on through the Cholesky) is replaced by a stratified
//! sample: stratum `m` of `M` draws `z = Φ⁻¹((m + U)/M)`, so the factor's
//! between-strata variance — typically most of a basket payoff's
//! variance — is eliminated exactly. Proportional allocation keeps the
//! estimator unbiased; the standard error combines per-stratum variances
//! `SE² = Σₘ varₘ / (M²·nₘ)`.

use crate::panel::{eval_panel, PanelScratch};
use crate::path::{GbmStepper, SoaPanel, PANEL};
use crate::McConfig;
use crate::McError;
use mdp_math::rng::{NormalInverse, NormalPolar, NormalSampler, Rng64, Xoshiro256StarStar};
use mdp_math::stats::OnlineStats;
use mdp_model::{ExerciseStyle, GbmMarket, Product};

/// Result of a stratified Monte Carlo run.
#[derive(Debug, Clone, Copy)]
pub struct StratifiedResult {
    /// Price estimate.
    pub price: f64,
    /// Standard error (stratified combination).
    pub std_error: f64,
    /// Total paths.
    pub paths: u64,
    /// Strata used.
    pub strata: u32,
}

/// Price a European product with the first factor stratified into
/// `strata` equiprobable bins (proportional allocation).
pub fn price_stratified(
    market: &GbmMarket,
    product: &Product,
    cfg: McConfig,
    strata: u32,
) -> Result<StratifiedResult, McError> {
    product.validate_for(market)?;
    if product.exercise != ExerciseStyle::European {
        return Err(McError::Unsupported(
            "stratified engine is European-only".into(),
        ));
    }
    if strata == 0 {
        return Err(McError::Unsupported("need at least one stratum".into()));
    }
    if cfg.paths < strata as u64 {
        return Err(McError::Unsupported(format!(
            "need at least one path per stratum ({} paths, {strata} strata)",
            cfg.paths
        )));
    }
    if cfg.steps == 0 {
        return Err(McError::ZeroSteps);
    }
    let d = market.dim();
    let stepper = GbmStepper::new(market, product.maturity, cfg.steps);
    let log0: Vec<f64> = market.spots().iter().map(|s| s.ln()).collect();
    let disc = market.discount(product.maturity);
    let payoff = &product.payoff;
    let s0_first = market.spots()[0];

    let mut per_stratum = vec![OnlineStats::new(); strata as usize];
    let mut sampler = NormalPolar::new();
    // Strata ride the batched SoA kernel. The per-path RNG interleave —
    // fill the path's normals, then draw the stratifying uniform — is
    // preserved by filling one panel lane at a time before overwriting
    // its first coordinate.
    let mut panel = SoaPanel::new(&stepper, PANEL);
    let mut scratch = PanelScratch::new(d, PANEL);

    // Paths per stratum (the remainder spreads over the first strata).
    let base_n = cfg.paths / strata as u64;
    let extra = (cfg.paths % strata as u64) as u32;

    // Stratum m's substream is the previous stratum's start jumped once.
    let mut next = Xoshiro256StarStar::seed_from(cfg.seed);
    for m in 0..strata {
        let mut rng = next;
        next.jump();
        sampler.reset();
        let n_m = base_n + u64::from(m < extra);
        let mut done = 0u64;
        while done < n_m {
            let n = (n_m - done).min(PANEL as u64) as usize;
            for lane in 0..n {
                panel.fill_lane(&mut sampler, &mut rng, lane);
                // Stratify the first coordinate: u ∈ [(m)/M, (m+1)/M).
                let u = (m as f64 + rng.next_open_f64()) / strata as f64;
                panel.set_normal(
                    0,
                    lane,
                    NormalInverse::transform(u.clamp(1e-16, 1.0 - 1e-16)),
                );
            }
            eval_panel(
                &stepper,
                &log0,
                payoff,
                s0_first,
                None,
                &mut panel,
                &mut scratch,
                n,
            );
            for lane in 0..n {
                per_stratum[m as usize].push(disc * scratch.ys[lane]);
            }
            done += n as u64;
        }
    }

    // Proportional-allocation combination.
    let mm = strata as f64;
    let mut price = 0.0;
    let mut var = 0.0;
    let mut total = 0u64;
    for s in &per_stratum {
        price += s.mean() / mm;
        if s.count() > 1 {
            var += s.variance() / (mm * mm * s.count() as f64);
        }
        total += s.count();
    }
    Ok(StratifiedResult {
        price,
        std_error: var.sqrt(),
        paths: total,
        strata,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::McEngine;
    use mdp_model::{analytic, Payoff};

    fn setup() -> (GbmMarket, Product) {
        (
            GbmMarket::symmetric(3, 100.0, 0.3, 0.0, 0.05, 0.5).unwrap(),
            Product::european(Payoff::GeometricCall { strike: 100.0 }, 1.0),
        )
    }

    #[test]
    fn unbiased_against_closed_form() {
        let (m, p) = setup();
        let exact = analytic::geometric_basket_call(&m, &Product::equal_weights(3), 100.0, 1.0);
        let r = price_stratified(
            &m,
            &p,
            McConfig {
                paths: 100_000,
                ..Default::default()
            },
            64,
        )
        .unwrap();
        assert!(
            (r.price - exact).abs() < 4.0 * r.std_error + 1e-3,
            "{} vs {exact} (se {})",
            r.price,
            r.std_error
        );
        assert_eq!(r.paths, 100_000);
    }

    #[test]
    fn stratification_reduces_error_at_equal_budget() {
        let (m, p) = setup();
        let plain = McEngine::new(McConfig {
            paths: 40_000,
            ..Default::default()
        })
        .price(&m, &p)
        .unwrap();
        let strat = price_stratified(
            &m,
            &p,
            McConfig {
                paths: 40_000,
                ..Default::default()
            },
            64,
        )
        .unwrap();
        assert!(
            strat.std_error < 0.7 * plain.std_error,
            "stratified {} vs plain {}",
            strat.std_error,
            plain.std_error
        );
    }

    #[test]
    fn more_strata_means_less_variance() {
        let (m, p) = setup();
        let cfg = McConfig {
            paths: 40_000,
            ..Default::default()
        };
        let few = price_stratified(&m, &p, cfg, 4).unwrap();
        let many = price_stratified(&m, &p, cfg, 256).unwrap();
        assert!(
            many.std_error < few.std_error,
            "{} vs {}",
            many.std_error,
            few.std_error
        );
    }

    #[test]
    fn uneven_allocation_covers_all_paths() {
        let (m, p) = setup();
        let r = price_stratified(
            &m,
            &p,
            McConfig {
                paths: 1001,
                ..Default::default()
            },
            10,
        )
        .unwrap();
        assert_eq!(r.paths, 1001);
    }

    #[test]
    fn validation_errors() {
        let (m, p) = setup();
        assert!(price_stratified(&m, &p, McConfig::default(), 0).is_err());
        assert!(price_stratified(
            &m,
            &p,
            McConfig {
                paths: 4,
                ..Default::default()
            },
            10
        )
        .is_err());
        let am = Product::american(Payoff::MaxCall { strike: 100.0 }, 1.0);
        assert!(price_stratified(&m, &am, McConfig::default(), 8).is_err());
    }

    #[test]
    fn works_for_asian_payoffs_too() {
        let m1 = GbmMarket::single(100.0, 0.3, 0.0, 0.05).unwrap();
        let asian = Product::european(Payoff::AsianCall { strike: 100.0 }, 1.0);
        let cfg = McConfig {
            paths: 30_000,
            steps: 12,
            ..Default::default()
        };
        let plain = McEngine::new(cfg).price(&m1, &asian).unwrap();
        let strat = price_stratified(&m1, &asian, cfg, 32).unwrap();
        assert!(
            (plain.price - strat.price).abs() < 4.0 * (plain.std_error + strat.std_error),
            "{} vs {}",
            plain.price,
            strat.price
        );
        // First-step stratification helps Asians less (the average
        // spreads variance over the path) but must not hurt.
        assert!(strat.std_error <= plain.std_error * 1.05);
    }
}
